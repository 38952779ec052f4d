"""Answer checks that share no code with the program under test.

Nothing here imports `mgk`.  Words are handled as flat lists of
(generator, exponent) letters that the benchmark built itself, ring
elements are read back from the printed text, and grope trees are
parsed, printed and measured by the iterative routines below.

Magnus coefficients come from one scan of the word: the coefficient of
y_i1 ... y_ik in the expansion of a word is the signed number of position
chains p1 < ... < pk whose letters are generators i1, ..., ik, each chain
weighted by the product of its exponents.  That costs O(|w| * k).
"""

from __future__ import annotations

import json
import re

# -- words and Magnus coefficients -------------------------------------------


def letters_text(letters) -> str:
    """Flat word text as the program prints it: "m1 m2' m3"."""
    return " ".join(g + ("'" if e < 0 else "") for g, e in letters) or "1"


def inverse(letters):
    return [(g, -e) for g, e in reversed(letters)]


def chain_coefficient(letters, monomial) -> int:
    """Coefficient of the monomial (a tuple of generator names) in the
    Magnus expansion of the word."""
    k = len(monomial)
    if k == 0:
        return 1
    slots = {}
    for t, g in enumerate(monomial):
        slots.setdefault(g, []).append(t + 1)
    for ts in slots.values():
        ts.reverse()
    v = [1] + [0] * k
    for g, e in letters:
        for t in slots.get(g, ()):
            v[t] += e * v[t - 1]
    return v[k]


def top_component_coefficient(letters, top, monomial) -> int:
    """Coefficient of the monomial in the top normal-form component: every
    letter of the top generator adds its exponent times the coefficient of
    the monomial in the expansion of the non-top letters before it."""
    k = len(monomial)
    slots = {}
    for t, g in enumerate(monomial):
        slots.setdefault(g, []).append(t + 1)
    for ts in slots.values():
        ts.reverse()
    v = [1] + [0] * k
    total = 0
    for g, e in letters:
        if g == top:
            total += e * v[k]
            continue
        for t in slots.get(g, ()):
            v[t] += e * v[t - 1]
    return total


def exponent_sum(letters, name) -> int:
    return sum(e for g, e in letters if g == name)


# -- printed ring elements ----------------------------------------------------

_TERM = re.compile(r"(?:(\d+)\*)?(y\d+(?:\*y\d+)*)\Z")


def parse_ring_text(text: str) -> dict:
    """{monomial of meridian names: coefficient} from "1 + y2*y3 - ...".

    Raises ValueError on anything the printer would not produce, including
    a repeated monomial or a zero coefficient.
    """
    text = text.strip()
    if text == "0":
        return {}
    terms = {}
    sign = 1
    first = True
    for token in re.split(r" ([+-]) ", text):
        if token in ("+", "-"):
            sign = 1 if token == "+" else -1
            continue
        if first and token.startswith("-"):
            sign, token = -1, token[1:]
        first = False
        if token.isdigit():
            mono, coeff = (), int(token)
        else:
            m = _TERM.match(token)
            if not m:
                raise ValueError("bad term %r" % token)
            coeff = int(m.group(1) or 1)
            mono = tuple("m" + v[1:] for v in m.group(2).split("*"))
        if coeff == 0 or mono in terms or len(set(mono)) != len(mono):
            raise ValueError("bad term %r" % token)
        terms[mono] = sign * coeff
    return terms


def sample_monomials(rng, terms, variables, present=12, absent=6):
    """Some monomials printed in the element plus some random ones that
    were not printed, so a missing term is caught as well as a wrong one."""
    shown = sorted(terms, key=lambda m: (len(m), m))
    picked = rng.sample(shown, min(present, len(shown)))
    for _ in range(absent):
        k = rng.randint(1, len(variables))
        mono = tuple(rng.sample(variables, k))
        if mono not in terms:
            picked.append(mono)
    return picked


def check_expand(rng, out, letters, s) -> bool:
    terms = parse_ring_text(out)
    if terms.get((), 0) != 1:
        return False
    variables = ["m%d" % (i + 1) for i in range(s)]
    return all(terms.get(m, 0) == chain_coefficient(letters, m)
               for m in sample_monomials(rng, terms, variables))


def check_nf(rng, out, letters, s) -> bool:
    lines = out.strip().split("\n")
    if len(lines) != s:
        return False
    label, _, top_text = lines[0].partition(": ")
    top = "m%d" % s
    if s < 2 or label != top + "-part":
        return False
    terms = parse_ring_text(top_text)
    variables = ["m%d" % (i + 1) for i in range(s - 1)]
    for mono in sample_monomials(rng, terms, variables) + [()]:
        if terms.get(mono, 0) != top_component_coefficient(letters, top, mono):
            return False
    label, _, exponent = lines[-1].partition(": ")
    return label == "m1-exponent" and int(exponent) == exponent_sum(letters, "m1")


# -- verify reports -----------------------------------------------------------

def check_verify_report(out, seed, trials, max_generators) -> bool:
    report = json.loads(out)
    return (report["command"] == "verify all"
            and report["config"] == {"seed": seed, "trials": trials,
                                     "max_generators": max_generators}
            and report["summary"]["status"] == "pass"
            and report["summary"]["failed"] == 0
            and all(c["status"] == "pass" for c in report["cases"]))


# -- link answers ---------------------------------------------------------------

def check_certificate(out, unit) -> bool:
    cert = json.loads(out)
    a, b, c = cert["a"], cert["b"], cert["c"]
    if unit and not (abs(a) == 1 and abs(b) == 1):
        return False
    return c == a * b and cert["c_equals_ab"] is True


def substitute(letters, name, replacement):
    out = []
    for g, e in letters:
        if g == name:
            out.extend(replacement if e > 0 else inverse(replacement))
        else:
            out.append((g, e))
    return out


def composed_longitudes(lhat, pattern, target):
    """Longitudes of the composed link from the flat catalog words:
    ambient components except the target, with the target meridian
    replaced by the wedge word, then the pattern components with the core
    letter replaced by the (substituted) target longitude."""
    comps, mers, longs = lhat
    pcomps, pmers, plongs, wedge = pattern
    t = target - 1
    around = substitute(longs[t], mers[t], wedge)
    out = {}
    for i, name in enumerate(comps):
        if i != t:
            out[name] = letters_text(substitute(longs[i], mers[t], wedge))
    for name, word in zip(pcomps, plongs):
        out[name] = letters_text(substitute(word, "lambda", around))
    return out


def check_compose(out, lhat, pattern, target) -> bool:
    data = json.loads(out)
    return data["longitudes"] == composed_longitudes(lhat, pattern, target)


# -- grope trees ----------------------------------------------------------------
# A tree is a tuple of pairs; the leaf is the empty tuple.

def parse_tree_text(text: str):
    """Iterative parser for the GROPE grammar."""
    stack = []  # open surfaces: [pairs, first member or None, state]
    result = None
    i, n = 0, len(text)

    def attach(node):
        if not stack:
            return node
        top = stack[-1]
        if top[2] != "member":
            raise ValueError("misplaced tree")
        if top[1] is None:
            top[1] = node
        else:
            top[0].append((top[1], node))
            top[1] = None
            top[2] = "close"
        return None

    while i < n:
        ch = text[i]
        i += 1
        if ch.isspace():
            continue
        if result is not None:
            raise ValueError("trailing input")
        if ch == "*":
            result = attach(())
        elif ch == "(":
            stack.append([[], None, "open"])
        elif ch == "{":
            if not stack or stack[-1][2] not in ("open", "pair"):
                raise ValueError("misplaced '{'")
            stack[-1][2] = "member"
        elif ch == "}":
            if not stack or stack[-1][2] != "close":
                raise ValueError("misplaced '}'")
            stack[-1][2] = "pair"
        elif ch == ")":
            if not stack or stack[-1][2] != "pair":
                raise ValueError("misplaced ')'")
            result = attach(tuple(stack.pop()[0]))
        else:
            raise ValueError("bad character %r" % ch)
    if stack or result is None:
        raise ValueError("unexpected end of input")
    return result


def _postorder(tree):
    """Subtree objects, children before parents, each object once."""
    order, seen, todo = [], set(), [(tree, False)]
    while todo:
        node, expanded = todo.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        todo.append((node, True))
        for left, right in node:
            todo.append((left, False))
            todo.append((right, False))
    return order


def fold(tree, leaf, combine):
    """{id(subtree): value} computed bottom-up; combine gets the list of
    (left value, right value) pairs of a Surface.  Keyed by object id, so
    deep trees cost no nested-tuple hashing."""
    value = {}
    for node in _postorder(tree):
        value[id(node)] = leaf if not node else combine(
            [(value[id(l)], value[id(r)]) for l, r in node])
    return value


def tree_to_text(tree) -> str:
    return fold(tree, "*", lambda pairs: "(%s)" % " ".join(
        "{%s %s}" % p for p in pairs))[id(tree)]


def class_map(tree) -> dict:
    return fold(tree, 1, lambda pairs: min(a + b for a, b in pairs))


def tree_class(tree) -> int:
    return class_map(tree)[id(tree)]


def canonical_key(tree) -> str:
    """A string that two trees share exactly when they agree up to
    swapping pair members and permuting pairs."""
    return fold(tree, "*", lambda pairs: "(%s)" % "".join(sorted(
        "{%s}" % "".join(sorted(p)) for p in pairs)))[id(tree)]


def leaf_count(tree) -> int:
    return fold(tree, 1, lambda pairs: sum(a + b for a, b in pairs))[id(tree)]


def tip_walks(tree):
    """(tip text, partner subtrees met from the root) for every leaf, in
    depth-first order."""
    out = []
    todo = [(tree, "", ())]
    while todo:
        node, path, partners = todo.pop()
        if not node:
            out.append((path, partners))
            continue
        steps = []
        for i, (left, right) in enumerate(node):
            for side, child, partner in (("L", left, right), ("R", right, left)):
                step = "%d%s" % (i, side)
                steps.append((child, path + "/" + step if path else step,
                              partners + (partner,)))
        todo.extend(reversed(steps))
    return out


def boundary_text(tree, names) -> str:
    it = iter(names)
    out = []
    todo = [tree]
    while todo:
        item = todo.pop()
        if isinstance(item, str):
            out.append(item)
        elif not item:
            out.append(next(it))
        else:
            parts = []
            for left, right in item:
                parts += ["[", left, ",", right, "]"]
            todo.extend(reversed(parts))
    return "".join(out)


def check_class(out, tree, expected=None) -> bool:
    want = tree_class(tree) if expected is None else expected
    return int(out) == want


def check_duals(out, tree) -> bool:
    data = json.loads(out)
    classes = class_map(tree)
    k = classes[id(tree)]
    walks = tip_walks(tree)
    if data["class"] != k or data["rank"] != len(walks):
        return False
    if [row["tip"] for row in data["duals"]] != [tip for tip, _ in walks]:
        return False
    for row, (_, partners) in zip(data["duals"], walks):
        want = 1 + sum(classes[id(p)] for p in partners)
        dual = parse_tree_text(row["dual"])
        if (row["class"] != want or want < k or tree_class(dual) != want
                or tree_to_text(dual) != row["dual"]):
            return False
    return True


def check_boundary(out, tree) -> bool:
    names = ["m%d" % (i + 1) for i in range(leaf_count(tree))]
    return out.strip() == boundary_text(tree, names)


def check_canonical(out, tree) -> bool:
    got = parse_tree_text(out)
    return (tree_to_text(got) == out.strip()
            and canonical_key(got) == canonical_key(tree))


def check_rerooted(out, tree, tip) -> bool:
    got = parse_tree_text(out)
    partners = dict(tip_walks(tree))[tip]
    classes = class_map(tree)
    return (tree_to_text(got) == out.strip()
            and leaf_count(got) == leaf_count(tree)
            and tree_class(got) == 1 + sum(classes[id(p)] for p in partners))
