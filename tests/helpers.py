"""Independent oracles used by the test suite.

Everything here recomputes expectations by a different route than the
library: products are expanded in the free associative ring and projected
afterwards, ring arithmetic and formatting keep monomials keyed by
variable names, kernel coordinates and the essentiality certificate are
read from whole normal-form towers, Milnor-equal words are produced by
explicit relator insertion, boundary words by a recursive commutator walk,
random grope trees are built whole for every candidate, the link of a
genus-1 grope tree is composed from Bing doubles one Surface at a time,
a composed longitude's expansion is the ambient one's with the wedge's
expansion substituted, multiplied out on name-keyed terms,
re-rooting works on a plain adjacency list, the formatter is checked
against the two-dict formatter it replaced, the word parser is checked
against the parser it replaced, which reads every prime as a token of its
own, and a recursive one that checks its token index at every read, the
tree parser against the one it replaced, which tests one-character
slices, isomorphism is read as the equality of recursive canonical
texts, the solid-torus pattern checks are written out apart from the link checks,
and free reduction, which the library does not use, is kept here.
"""

import re

from mgk.composition import (Certificate, CompositionSpec, _sigma_alphabets,
                             compose, wedge_ring_element)
from mgk.errors import (CompositionError, LinkFormatError, MgkError,
                        NotInKernelError, WordSyntaxError)
from mgk.gropes import LEAF, ClosedGropeTree, GropeTree, _syntax_error
from mgk.links import (SolidTorusLink, catalog, delete_component,
                       is_almost_trivial)
from mgk.milnor import MilnorElement, magnus, normal_form, r_inverse
from mgk.ring import Ring, variable_display
from mgk.words import (IDENTITY, MAX_LETTERS, Word, _check_length, bounded_int,
                       commutator)

# -- free associative ring, projected to squarefree monomials at the end ------


def free_mul(factors):
    """Multiply {monomial: coeff} dicts in the free associative ring."""
    acc = {(): 1}
    for factor in factors:
        out = {}
        for m1, c1 in acc.items():
            for m2, c2 in factor.items():
                key = m1 + m2
                out[key] = out.get(key, 0) + c1 * c2
        acc = {m: c for m, c in out.items() if c}
    return acc


def squarefree(terms):
    """Project to the squarefree quotient: drop repeating monomials.

    Valid to do once at the end: a monomial with a repeat never multiplies
    back into a squarefree one.
    """
    return {m: c for m, c in terms.items() if len(set(m)) == len(m)}


def decode_monomial(variables, mono):
    """The variable names of a packed monomial key of Ring(variables).

    Reads the digits from the most significant one down, where the library
    reads them from the bottom, and checks that every digit names a
    variable and that the mask below them is the set of those variables.
    """
    n = len(variables)
    width = n.bit_length()
    digits, mask = mono >> n, mono & ((1 << n) - 1)
    count = -(-digits.bit_length() // width) if digits else 0
    positions = [(digits >> width * (count - 1 - k) & (1 << width) - 1) - 1
                 for k in range(count)]
    assert all(0 <= p < n for p in positions), (variables, mono)
    assert mask == sum(1 << p for p in set(positions)), (variables, mono)
    return tuple(variables[p] for p in positions)


def named_terms(elem):
    """An element's terms keyed by tuples of variable names."""
    names = elem.ring.variables
    return {decode_monomial(names, mono): c for mono, c in elem.terms.items()}


# -- the ring on name-keyed monomials ----------------------------------------------
# The library keys monomials by packed ints and sorts them natively; these
# keep the names and map them to positions in every sort key.


def reference_mul(left, right):
    """Product of two name-keyed {monomial: coeff} dicts in R."""
    out = {}
    for m1, c1 in left.items():
        used = set(m1)
        for m2, c2 in right.items():
            if used & set(m2):
                continue  # repeated variable: the monomial dies in R
            mono = m1 + m2
            c = out.get(mono, 0) + c1 * c2
            if c:
                out[mono] = c
            else:
                del out[mono]
    return out


def reference_monomial_key(variables, mono):
    pos = {v: i for i, v in enumerate(variables)}
    return (len(mono), tuple(map(pos.__getitem__, mono)))


def format_named_terms(variables, terms):
    """Signed monomial sum of a name-keyed {monomial: coeff} dict."""
    if not terms:
        return "0"
    name = {v: variable_display(v) for v in variables}.__getitem__
    parts = []
    for mono in sorted(terms, key=lambda m: reference_monomial_key(variables, m)):
        coeff = terms[mono]
        body = "*".join(map(name, mono)) if mono else "1"
        mag = abs(coeff)
        if mag != 1 or not mono:
            body = str(mag) if not mono else "%d*%s" % (mag, body)
        if not parts:
            parts.append(body if coeff > 0 else "-" + body)
        else:
            parts.append((" + " if coeff > 0 else " - ") + body)
    return "".join(parts)


# -- the formatter with two per-degree text dicts -----------------------------------
# The library keeps one prefix text per degree on a stack and joins each
# degree's parts as it ends; this keeps the texts of the last two degrees in
# dicts keyed by digits, and one parts list for the whole output.


def reference_format_ring_element(elem) -> str:
    """Serialize as a signed monomial sum, e.g. ``1 + y2*y3 - y3*y2``.

    Keys sort in print order.  A monomial's text is its prefix's (one digit
    fewer) plus a name; texts of the previous degree are kept, shared with
    the output parts."""
    if not elem.terms:
        return "0"
    ring, terms = elem.ring, elem.terms
    n, w = len(ring.variables), ring.width
    name = [""] + [variable_display(v) for v in ring.variables]  # by digit
    star, low = ["*" + v for v in name], (1 << w) - 1
    parts, prev, cur, limit = [], {}, {}, 1  # texts of last and this degree
    for mono in sorted(terms):
        coeff, digits = terms[mono], mono >> n
        parts.append(" + " if coeff > 0 else " - ")
        if not digits:
            parts.append(str(abs(coeff)))
            continue
        while digits >= limit:  # a new degree
            prev, cur, limit = cur, {}, limit << w
        prefix = digits >> w
        if not prefix:
            body = cur[digits] = name[digits]
        else:
            head = prev.get(prefix)
            if head is None:  # the prefix is not a term
                head = prev[prefix] = "*".join(
                    [name[i + 1] for i in ring.positions(mono)[:-1]])
            body = cur[digits] = head + star[digits & low]
        if coeff not in (1, -1):
            parts.append("%d*" % abs(coeff))
        parts.append(body)
    parts[0] = "" if parts[0] == " + " else "-"  # the leading sign
    return "".join(parts)


def naive_magnus(word, rename=None):
    """Magnus expansion via the free ring; letters may be renamed."""
    factors = []
    for g, e in word.letters:
        v = rename(g) if rename else g
        factors.append({(): 1, (v,): e})
    return squarefree(free_mul(factors))


# -- per-letter products of ring elements ---------------------------------------
# The library scans words with an in-place kernel on term dicts; these
# build one RingElement per letter and multiply with the general product.


def reference_magnus(word, alphabet):
    """Magnus expansion as a product of 1 +- y_g ring elements."""
    ring = Ring(alphabet)
    acc = ring.one
    for g, e in word.letters:
        acc = acc * (ring.one + e * ring.gen(g))
    return acc


def reference_normal_form(word, alphabet):
    """The split-extension tower with RingElement sums and products."""
    full = tuple(alphabet)
    letters = word.letters
    components = []
    level = full
    while len(level) > 1:
        top = level[-1]
        ring = Ring(level[:-1])
        running = ring.one
        rho = ring.zero
        tail = []
        for g, e in letters:
            if g == top:
                rho = rho + e * running
            else:
                tail.append((g, e))
                running = running * (ring.one + e * ring.gen(g))
        components.append(rho)
        letters = tail
        level = level[:-1]
    return MilnorElement(full, tuple(components), sum(e for _, e in letters))


# -- the kernel inclusion, one product per term ------------------------------
# The library collects r(rho)'s letters in one list; this multiplies the
# word so far by each term's word, copying it once per term.


def reference_r_map(rho, alphabet):
    """r(rho), its terms in the order of reference_monomial_key."""
    last = alphabet[-1]
    variables = rho.ring.variables
    terms = named_terms(rho)
    out = Word()
    for mono in sorted(terms, key=lambda m: reference_monomial_key(variables, m)):
        w = Word.gen(last)
        for v in reversed(mono):
            w = commutator(Word.gen(v), w)
        out = out * (w ** terms[mono])
    return out


# -- the kernel coordinate from the whole tower ---------------------------------
# The library reads r^{-1} from the tower's top-level scan alone; this builds
# every level and asks that the levels below the top one be the identity.


def reference_r_inverse(word, alphabet):
    alphabet = tuple(alphabet)
    nf = normal_form(word, alphabet)
    if not alphabet:
        raise MgkError("empty alphabet has no kernel component")
    if len(alphabet) == 1:  # the kernel is Z, spanned by the generator
        return Ring(()).element({(): nf.exponent})
    if not MilnorElement(alphabet[:-1], nf.components[1:], nf.exponent).is_identity:
        raise NotInKernelError(
            "deleting %r does not trivialize the word" % alphabet[-1])
    return nf.components[0]


# -- link invariants by sublink recursion and full expansion --------------------
# The library reads triviality from one kernel scan per component and mu-bar
# by a chain scan; these call `r_inverse` per component, or recurse over
# sublinks and expand in the ring.


def reference_mu_bar(link, indices):
    """mu-bar as one coefficient of the longitude's full Magnus expansion."""
    idx = [link.index_of(i) for i in indices]
    if len(idx) < 2:
        raise LinkFormatError("need at least two indices (i1, ..., ik, j)")
    if len(set(idx)) != len(idx):
        raise LinkFormatError("mu-bar indices must be pairwise distinct")
    j = idx[-1]
    others = tuple(m for k, m in enumerate(link.meridians) if k != j)
    expansion = magnus(link.longitudes[j], others)
    return expansion.coefficient(tuple(link.meridians[i] for i in idx[:-1]))


def coordinates_oracle(link):
    """Each longitude's kernel coordinate through the public API: one
    `r_inverse` call per component over a fresh alphabet of the other
    meridians, yielding the coordinate's terms, or None outside the kernel."""
    for k, word in enumerate(link.longitudes):
        try:
            yield r_inverse(word, link.meridians[:k] + link.meridians[k + 1:]).terms
        except NotInKernelError:
            yield None


def _sublink_triviality(link):
    """A test of whether deleting a set of components leaves a trivial link:
    every longitude expands to 1 and, recursively, every proper sublink is
    trivial.  Deleting the same components in any order gives the same
    sublink, so each set is checked once."""
    memo = {}

    def is_trivial(deleted):
        if deleted not in memo:
            sub = link
            for i in sorted(deleted, reverse=True):  # later indices first
                sub = delete_component(sub, i + 1)
            memo[deleted] = sub.n == 1 or (
                all(magnus(word, tuple(m for i, m in enumerate(sub.meridians)
                                       if i != k)) == 1
                    for k, word in enumerate(sub.longitudes))
                and all(is_trivial(deleted | {i})
                        for i in range(link.n) if i not in deleted))
        return memo[deleted]

    return is_trivial


def reference_is_homotopically_trivial(link):
    """Every longitude expands to 1 and, recursively, every proper sublink
    is trivial."""
    return _sublink_triviality(link)(frozenset())


def reference_is_almost_trivial(link):
    """Every sublink with one component removed is trivial (n >= 2)."""
    if link.n < 2:
        raise LinkFormatError("almost-triviality needs at least 2 components")
    is_trivial = _sublink_triviality(link)
    return all(is_trivial(frozenset({k})) for k in range(link.n))


# -- the essentiality certificate through normal-form towers --------------------
# The library reads a, b and c by three chain scans; this reads each as one
# coefficient of an r^{-1} kernel coordinate, refusing words outside the kernel.


def reference_solid_torus_check(components, meridians, longitudes, wedge,
                                core_symbol="lambda"):
    """The pattern validator from before a pattern was a link model, with
    its own wording; it accepts and rejects what `SolidTorusLink` does."""
    n = len(components)
    if n < 1:
        raise LinkFormatError("a pattern needs at least one component")
    if len({*components}) != n or len({*meridians}) != n:
        raise LinkFormatError("names must be distinct and aligned")
    if len(meridians) != n or len(longitudes) != n:
        raise LinkFormatError("components, meridians and longitudes must align")
    if core_symbol in meridians:
        raise LinkFormatError("core symbol clashes with a meridian")
    known = set(meridians) | {core_symbol}
    for name, mer, word in zip(components, meridians, longitudes):
        for g, _ in word.letters:
            if g == mer or g not in known:
                raise LinkFormatError(
                    "bad letter %r in the longitude of %r" % (g, name))
    for g, _ in wedge.letters:
        if g == core_symbol:
            raise LinkFormatError("the wedge word cannot use the core symbol")
        if g not in meridians:
            raise LinkFormatError("bad letter %r in the wedge word" % (g,))


def reference_essentiality_certificate(spec):
    lhat, q = spec.lhat, spec.q
    if lhat.n < 2:
        raise CompositionError(
            "certificate refused: the ambient link needs a deleted "
            "component besides the target")
    if not is_almost_trivial(lhat):
        raise CompositionError(
            "certificate refused: the ambient link is not almost "
            "homotopically trivial")
    if not is_almost_trivial(q.ambient_model()):
        raise CompositionError(
            "certificate refused: the pattern with its wedge is not almost "
            "homotopically trivial")
    ys, bar_alphabet, zs_rest, big_alphabet = _sigma_alphabets(spec)
    try:
        a_elem = r_inverse(lhat.longitudes[0], bar_alphabet)
        b_elem = wedge_ring_element(q)
        composed = compose(spec)
        c_elem = r_inverse(composed.longitude(lhat.components[0]), big_alphabet)
    except NotInKernelError as exc:
        raise CompositionError("certificate refused: %s" % exc) from exc
    return Certificate(a=a_elem.coefficient(ys),
                       b=b_elem.coefficient(zs_rest),
                       c=c_elem.coefficient(ys + zs_rest))


# -- iterated Bing doubles -------------------------------------------------------


def renamed_bing_double(level):
    """The catalog's bing_double with components and meridians renamed
    for one level of iterated composition."""
    q = catalog("bing_double")
    names = {"z1": "u%da" % level, "z2": "u%db" % level}

    def rename(word):
        return Word(tuple((names.get(g, g), e) for g, e in word.letters))

    return SolidTorusLink(("b%da" % level, "b%db" % level),
                          (names["z1"], names["z2"]),
                          tuple(rename(w) for w in q.longitudes),
                          wedge=rename(q.wedge))


def iterated_bing_specs(depth):
    """The specs composing a renamed Bing double into the last component
    of borromean, then of each result, `depth` times."""
    link = catalog("borromean")
    for level in range(1, depth + 1):
        spec = CompositionSpec(link, renamed_bing_double(level))
        yield spec
        link = compose(spec)


def grope_tree_specs(tree: GropeTree):
    """The compositions that build the link of a genus-1 grope tree, in
    order, each into the link the one before built, and the components
    standing for the tips in depth-first tip order.  Component l2 of hopf
    stands for the tree; for each Surface, in depth-first order, a renamed
    Bing double is composed into the component standing for it, and the
    pattern's two components stand for the pair's members."""
    link, specs, tips, level = catalog("hopf"), [], [], 0
    stack = [(tree, "l2")]
    while stack:
        node, name = stack.pop()
        if not node.pairs:
            tips.append(name)
            continue
        (left, right), = node.pairs  # genus 1
        level += 1
        pattern = renamed_bing_double(level)
        specs.append(CompositionSpec(link, pattern,
                                     target=link.index_of(name) + 1))
        link = compose(specs[-1])
        stack += [(right, pattern.components[1]), (left, pattern.components[0])]
    return specs, tips


def grope_tree_link(tree: GropeTree):
    """The link of a genus-1 grope tree and its tip meridians in
    depth-first tip order.  Only `compose` builds the link."""
    specs, tips = grope_tree_specs(tree)
    link = compose(specs[-1]) if specs else catalog("hopf")
    return link, tuple(link.meridians[link.index_of(name)] for name in tips)


def substituted_expansions(spec):
    """sigma(M(ambient longitude j)) for each ambient component j but the
    target, in the composed link's order, on name-keyed terms multiplied
    out by `reference_mul`: sigma fixes every variable but the target's
    meridian and sends that one to M(wedge) - 1.  Each expansion is over
    its link's other meridians; the lemma in `mgk.composition` says these
    are the composed longitudes' expansions when every two nonconstant
    terms of M(wedge) share a variable."""
    lhat, t = spec.lhat, spec.target_index
    image = named_terms(magnus(spec.q.wedge, spec.q.meridians))
    del image[()]
    images = []
    for j in range(lhat.n):
        if j == t:
            continue
        total = {}
        others = lhat.meridians[:j] + lhat.meridians[j + 1:]
        for mono, c in named_terms(magnus(lhat.longitudes[j], others)).items():
            term = {(): c}
            for v in mono:
                term = reference_mul(term, image if v == lhat.meridians[t]
                                     else {(v,): 1})
            for m, d in term.items():
                total[m] = total.get(m, 0) + d
        images.append({m: c for m, c in total.items() if c})
    return images


# -- Milnor-equal rewritings ---------------------------------------------------


def milnor_rewrites(rng, word, alphabet, count=6, max_conj=3):
    """Words equal to `word` in the Milnor group, by inserting cancelling
    pairs and conjugated Milnor relators at random positions."""

    def random_subword():
        return Word(tuple((rng.choice(alphabet), rng.choice((1, -1)))
                          for _ in range(rng.randint(0, max_conj))))

    variants = []
    for _ in range(count):
        current = list(word.letters)
        for _ in range(rng.randint(1, 4)):
            kind = rng.random()
            if kind < 0.4:  # cancelling pair
                g = rng.choice(alphabet)
                e = rng.choice((1, -1))
                ins = [(g, e), (g, -e)]
            else:  # Milnor relator [u mi u', v mi v'], possibly inverted
                mi = Word.gen(rng.choice(alphabet))
                u, v = random_subword(), random_subword()
                a, b = u * mi * ~u, v * mi * ~v
                rel = a * b * ~a * ~b
                if rng.random() < 0.5:
                    rel = ~rel
                ins = list(rel.letters)
            pos = rng.randint(0, len(current))
            current[pos:pos] = ins
        variants.append(Word(tuple(current)))
    return variants


def conjugated_relator(rng, alphabet, max_conj=3):
    """g' [mi, h' mi h] g for random g, h: trivial in the Milnor group, so
    its Magnus expansion is 1."""

    def random_word():
        return Word(tuple((rng.choice(alphabet), rng.choice((1, -1)))
                          for _ in range(rng.randint(0, max_conj))))

    mi = Word.gen(rng.choice(alphabet))
    g, h = random_word(), random_word()
    b = ~h * mi * h
    return ~g * mi * b * ~mi * ~b * g


# -- grope trees ---------------------------------------------------------------


def shuffled_chain(rng, depth, partner=None, bottom=None):
    """A genus-1 chain of the given depth, built without recursion: each
    stage pairs the rest of the chain (at first `bottom`) with `partner`,
    on a side the rng picks.  Both default to a Leaf."""
    partner = partner or GropeTree()
    tree = bottom or GropeTree()
    for _ in range(depth):
        pair = (tree, partner) if rng.random() < 0.5 else (partner, tree)
        tree = GropeTree((pair,))
    return tree


# The library reads class and leaf count from fields fixed at construction
# and walks trees with explicit stacks; these recurse, and the canonical
# form re-renders each subtree's text in its sort key.


def reference_tree_text(tree: GropeTree) -> str:
    if not tree.pairs:
        return "*"
    return "(%s)" % " ".join(
        "{%s %s}" % (reference_tree_text(l), reference_tree_text(r))
        for l, r in tree.pairs)


def reference_grope_class(tree: GropeTree) -> int:
    if not tree.pairs:
        return 1
    return min(reference_grope_class(l) + reference_grope_class(r)
               for l, r in tree.pairs)


def reference_leaf_paths(tree: GropeTree):
    if not tree.pairs:
        return ((),)
    out = []
    for i, (left, right) in enumerate(tree.pairs):
        for side, child in ((0, left), (1, right)):
            out.extend(((i, side),) + p for p in reference_leaf_paths(child))
    return tuple(out)


def _reference_sort_key(tree: GropeTree):
    return (reference_grope_class(tree), reference_tree_text(tree))


def reference_canonical(tree: GropeTree) -> GropeTree:
    if not tree.pairs:
        return tree
    pairs = []
    for left, right in tree.pairs:
        cl, cr = reference_canonical(left), reference_canonical(right)
        if _reference_sort_key(cr) < _reference_sort_key(cl):
            cl, cr = cr, cl
        pairs.append((cl, cr))
    pairs.sort(key=lambda p: (_reference_sort_key(p[0]),
                              _reference_sort_key(p[1])))
    return GropeTree(tuple(pairs))


def reference_is_isomorphic(a, b) -> bool:
    """Equality of the canonical texts (the library compares shape ids)."""
    a, b = (t.body if isinstance(t, ClosedGropeTree) else t for t in (a, b))
    return (reference_tree_text(reference_canonical(a))
            == reference_tree_text(reference_canonical(b)))


def reference_parse_tree(text: str) -> GropeTree:
    """The library's parser as it was, testing one-character slices where
    the library tests characters by index after a bounds check."""
    chars = "".join(text.split())
    n = len(chars)
    open_members = []
    k = 0
    while True:
        if k >= n:
            raise _syntax_error("unexpected end of input", text, k)
        ch = chars[k]
        if ch == "(":
            if chars[k + 1:k + 2] != "{":
                raise _syntax_error("a Surface needs at least one pair", text, k + 1)
            open_members.append([])
            k += 2
            continue
        if ch != "*":
            raise _syntax_error("expected '*' or '('", text, k)
        node = LEAF
        k += 1
        while True:
            if not open_members:
                if k != n:
                    raise _syntax_error("trailing input", text, k)
                return node
            members = open_members[-1]
            members.append(node)
            if len(members) % 2:
                break
            if chars[k:k + 1] != "}":
                raise _syntax_error("expected '}'", text, k)
            k += 1
            if chars[k:k + 1] == "{":
                k += 1
                break
            if chars[k:k + 1] != ")":
                raise _syntax_error("expected ')'", text, k)
            open_members.pop()
            node = GropeTree(tuple(zip(members[::2], members[1::2])))
            k += 1


def reference_all_genus_one(tree: GropeTree) -> bool:
    """Whether every Surface has genus 1, by visiting every vertex."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if len(node.pairs) > 1:
            return False
        stack += node.pairs[0] if node.pairs else ()
    return True


def reference_dual_class(closed: ClosedGropeTree, tip) -> int:
    """1 plus the recomputed classes of the partners along the tip's path."""
    total, node = 1, closed.body
    for i, side in tip:
        total += reference_grope_class(node.pairs[i][1 - side])
        node = node.pairs[i][side]
    return total


def reference_boundary_word(tree: GropeTree, names) -> Word:
    """The product of pair commutators, by a recursive walk that builds
    each commutator's word (the library parses the rendered text)."""
    it = iter(names)

    def walk(node):
        if not node.pairs:
            return Word.gen(next(it))
        out = Word()
        for left, right in node.pairs:
            out = out * commutator(walk(left), walk(right))
        return out

    return walk(tree)


# -- adjacency re-rooting for genus-1 closed trees ------------------------------


def reroot_oracle(closed: ClosedGropeTree, tip):
    """Re-root the unordered tree at a free tip, via plain adjacency lists."""
    adj = {}
    tips = {}
    counter = [0]

    def fresh():
        v = counter[0]
        counter[0] += 1
        adj[v] = []
        return v

    def build(node, path):
        v = fresh()
        if not node.pairs:
            tips[path] = v
        for i, (left, right) in enumerate(node.pairs):
            for side, child in enumerate((left, right)):
                c = build(child, path + ((i, side),))
                adj[v].append(c)
                adj[c].append(v)
        return v

    root = build(closed.body, ())
    extra = fresh()
    adj[extra].append(root)
    adj[root].append(extra)

    start = tips[tuple(tip)]

    def grow(v, parent):
        kids = [u for u in adj[v] if u != parent]
        if not kids:
            return GropeTree()
        assert len(kids) == 2, "oracle only handles genus-1 trees"
        return GropeTree(((grow(kids[0], v), grow(kids[1], v)),))

    (first,) = adj[start]
    return ClosedGropeTree(grow(first, start))


# -- the grope tree sampler ------------------------------------------------------
# The library passes each subtree the leaves it may still add and returns
# None at the first leaf past the budget.  `_reference_grow` grows a whole
# candidate; `reference_random_grope_tree` counts a candidate's leaves in
# one shared counter and drops it by raising at the first leaf past the
# budget, with the same draws in the same order.  After 32 dropped
# candidates it grows a genus-1 one, whose k leaves fit the budget.


class _OverBudget(Exception):
    pass


def reference_random_grope_tree(rng, k, max_genus=2, max_tips=8):
    if not 1 <= k <= max_tips:
        raise MgkError("no tree of class %d has at most %d tips" % (k, max_tips))
    for _ in range(32):
        try:
            return _counted_grow(rng, k, max_genus, [max_tips])
        except _OverBudget:
            pass
    return _reference_grow(rng, k, 1)


def _counted_grow(rng, k, max_genus, tips_left):
    if k <= 1:
        tips_left[0] -= 1
        if tips_left[0] < 0:
            raise _OverBudget
        return LEAF
    pairs = []
    genus = rng.randint(1, max_genus)
    exact_at = rng.randrange(genus)
    for i in range(genus):
        total = k if i == exact_at else k + rng.randint(0, 1)
        p = rng.randint(1, total - 1)
        pairs.append((_counted_grow(rng, p, max_genus, tips_left),
                      _counted_grow(rng, total - p, max_genus, tips_left)))
    return GropeTree(tuple(pairs))


def _reference_grow(rng, k, max_genus):
    if k <= 1:
        return LEAF
    pairs = []
    genus = rng.randint(1, max_genus)
    exact_at = rng.randrange(genus)
    for i in range(genus):
        total = k if i == exact_at else k + rng.randint(0, 1)
        p = rng.randint(1, total - 1)
        pairs.append((_reference_grow(rng, p, max_genus),
                      _reference_grow(rng, total - p, max_genus)))
    return GropeTree(tuple(pairs))


def random_ring_element_of_degree(rng, ring, max_degree):
    """The draws of mgk.sampling.random_ring_element, in the same order,
    with each term's degree drawn from 0..min(max_degree, n), not 0..n."""
    nvars = len(ring.variables)
    terms = {}
    for _ in range(rng.randint(0, 4)):
        mono = tuple(rng.sample(ring.variables, rng.randint(0, min(max_degree, nvars))))
        coeff = rng.choice([c for c in range(-3, 4) if c])
        terms[mono] = terms.get(mono, 0) + coeff
    return ring.element(terms)


def random_words(rng, alphabet, count, max_len=12):
    return [Word(tuple((rng.choice(alphabet), rng.choice((1, -1)))
                       for _ in range(rng.randint(0, max_len))))
            for _ in range(count)]


# -- free reduction ------------------------------------------------------------------
# The free group's word problem, which the library never needs: it decides
# words in the free Milnor group.  Kept for the tests that ask whether a
# word is freely trivial.

def free_reduce(word: Word) -> Word:
    """The word with every adjacent pair g g' or g' g cancelled."""
    out = []
    for let in word.letters:
        if out and out[-1][0] == let[0] and out[-1][1] == -let[1]:
            out.pop()
        else:
            out.append(let)
    return Word(out)


# -- the word parser, one token per prime ------------------------------------------
# The library's one-pass parser before a name token took the primes written
# right after it: every prime is a token of its own and inverts the last
# factor through a slice.  Same grammar, error messages and positions.

_FLAT_TOKEN = re.compile(r"[A-Za-z][A-Za-z0-9]*|\d+|[\[\](),'^-]")


def _flat_inverse(letters):
    return [(g, -e) for g, e in reversed(letters)]


def _flat_closer(frame):
    """The token that must end the word open in frame."""
    bracket, _, comma = frame
    return ")" if bracket == "(" else "," if comma is None else "]"


def reference_parse(text):
    """The letters of text: one pass over its tokens, keeping the letters of
    every open word in one list and each open bracket on an explicit stack."""
    tokens = _FLAT_TOKEN.findall(text)
    if "".join(tokens) != "".join(text.split()):  # a character no token takes
        _flat_raise_bad_character(text)
    letters = []
    frames = []  # open brackets: [bracket, start, start of v or None]
    last = None  # start of the innermost open word's last factor, if any
    i, end = 0, len(tokens)
    while i < end:
        tok = tokens[i]
        i += 1
        if tok[0].isalpha():
            last = len(letters)
            letters.append((tok, 1))
        elif tok == "'" and last is not None:
            letters[last:] = _flat_inverse(letters[last:])
        elif tok == "^" and last is not None:
            factor = letters[last:]
            if i < end and tokens[i] == "-":
                i += 1
                factor = _flat_inverse(factor)
            if i == end or not tokens[i].isdigit():
                _flat_raise_syntax("expected an integer after ^", text, i)
            # every count over the letter budget reads as MAX_LETTERS + 1
            count = bounded_int(tokens[i], MAX_LETTERS + 1)
            i += 1
            if count and factor:
                _check_length(len(letters) + (count - 1) * len(factor))
                letters[last:] = factor * count
            else:
                del letters[last:]
        elif tok == "(" or tok == "[":
            frames.append([tok, len(letters), None])
            last = None
        elif tok == "1":
            last = len(letters)
        elif tok in (")", ",", "]") and frames:
            frame = frames[-1]
            if tok != _flat_closer(frame):
                _flat_raise_syntax("expected %r" % _flat_closer(frame), text, i - 1)
            _, start, comma = frame
            if tok == ",":
                frame[2] = len(letters)
                last = None
                continue
            if tok == "]":  # [u,v] = u v u' v'
                _check_length(2 * len(letters) - start)
                u, v = letters[start:comma], letters[comma:]
                letters += _flat_inverse(u)
                letters += _flat_inverse(v)
            frames.pop()
            last = start
        else:
            _flat_raise_syntax("unexpected %r" % tok, text, i - 1)
    if frames:
        _flat_raise_syntax("expected %r" % _flat_closer(frames[-1]), text, end)
    _check_length(len(letters))
    return tuple(letters)


def _flat_raise_bad_character(text):
    """Name the first non-space character that starts no token."""
    pos = 0
    for m in _FLAT_TOKEN.finditer(text + "1"):  # the extra token ends the last gap
        gap = text[pos:m.start()].lstrip()
        if gap:
            bad = m.start() - len(gap)
            raise WordSyntaxError("unexpected character %r" % text[bad], bad)
        pos = m.end()


def _flat_raise_syntax(message, text, i):
    """Raise at the i-th token of text, or at its end if there are only i."""
    starts = [m.start() for m in _FLAT_TOKEN.finditer(text)]
    raise WordSyntaxError(message, starts[i] if i < len(starts) else len(text))


# -- the word parser with bounds checks -------------------------------------------
# A recursive descent parser that checks its token index against the
# list's length at every read.

_REFERENCE_TOKEN = re.compile(r"\s*([A-Za-z][A-Za-z0-9]*|\d+|[\[\](),'^-])")


def recursive_reference_parse(text):
    return _ReferenceWordParser(text).parse()


class _ReferenceWordParser:
    def __init__(self, text):
        self.text = text
        self.tokens = []
        pos = 0
        while pos < len(text):
            m = _REFERENCE_TOKEN.match(text, pos)
            if not m:
                bad = len(text) - len(text[pos:].lstrip())
                if bad < len(text):
                    raise WordSyntaxError("unexpected character %r" % text[bad], bad)
                break
            self.tokens.append((m.group(1), m.start(1)))
            pos = m.end()
        self.i = 0

    def peek(self):
        return self.tokens[self.i][0] if self.i < len(self.tokens) else None

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def parse(self):
        w = self.word()
        if self.i < len(self.tokens):
            tok, pos = self.tokens[self.i]
            raise WordSyntaxError("unexpected %r" % tok, pos)
        return w

    def word(self):
        letters = []
        while True:
            tok = self.peek()
            if tok is None or tok in (")", "]", ","):
                return Word(letters)
            letters += self.factor().letters

    def factor(self):
        w = self.atom()
        while True:
            tok = self.peek()
            if tok == "'":
                self.next()
                w = ~w
            elif tok == "^":
                self.next()
                sign = 1
                if self.peek() == "-":
                    self.next()
                    sign = -1
                tok, pos = self.next() if self.peek() is not None else (None, len(self.text))
                if tok is None or not tok.isdigit():
                    raise WordSyntaxError("expected an integer after ^", pos)
                w = w ** (sign * int(tok))
            else:
                return w

    def atom(self):
        if self.peek() is None:
            raise WordSyntaxError("unexpected end of input", len(self.text))
        tok, pos = self.next()
        if tok == "(":
            w = self.word()
            self.expect(")")
            return w
        if tok == "[":
            u = self.word()
            self.expect(",")
            v = self.word()
            self.expect("]")
            return commutator(u, v)
        if tok == "1":
            return IDENTITY
        if tok[0].isalpha():
            return Word.gen(tok)
        raise WordSyntaxError("unexpected %r" % tok, pos)

    def expect(self, wanted):
        if self.peek() != wanted:
            pos = self.tokens[self.i][1] if self.i < len(self.tokens) else len(self.text)
            raise WordSyntaxError("expected %r" % wanted, pos)
        self.next()
