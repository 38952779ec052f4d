"""Seeded inputs and op lists for the four workloads.

Every input comes from the benchmark's own `random.Random(seed)`; the
program receives only the generated command lines, files and trees.  An
op is one `mgk` command line run through `mgk.cli.main`, or, where no
command exists, one call into the public API.  Each op carries the check
that judges its answer after the timed phase (see checks.py); a check gets
the op's output and the outputs of all ops, for answers that must agree
with each other.

Size caps stay below the crash points known for the program: grope
chains stay at depth 180 or less (`grope duals` and `canonical` raise
RecursionError at 200), words use at most 8 generators (s = 10 ran out
of memory) and no word uses a large `^n`.

Every seed should ask for the same work, so that a difference between
runs means a difference in the program.  Inputs therefore take their
shape from a fixed seed per slot, and the run seed applies a change the
program's cost does not see: it inverts a random set of generators in
each word (the automorphism m -> m' maps y -> -y, so every expansion and
normal form keeps its terms), relabels the components of each link
(the triviality recursion visits the same sublinks), and swaps and
permutes the pairs of each tree.  It also picks the mu-bar indices, the
tips and the order of the verify seeds.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from typing import Callable

import checks

MAX_GENERATORS = 8
MAX_CHAIN_DEPTH = 180

SIZES = {
    "full": {
        "sweep": {"runs": 99, "trials": 2},
        # (generators s, blocks r): a word of r shuffled blocks of all s
        # generators with random signs, expanded and normalised
        "expand": {"slots": [(6, 3 + t % 4) for t in range(38)]
                   + [(7, 4)] * 10 + [(8, 3), (8, 4)]},
        # components n per link, each longitude a product of 2 relators
        "links": {"links": [5, 5, 5, 5, 5, 6, 6, 7], "relators": 2,
                  "conj": 3, "unlink": 8},
        "trees": {"random": 18, "repeated": 10, "genus1": 4,
                  "chains": [180, 90]},
    },
    "tiny": {
        "sweep": {"runs": 3, "trials": 1},
        "expand": {"slots": [(4, 2), (5, 2)]},
        "links": {"links": [4], "relators": 1, "conj": 1, "unlink": 4},
        "trees": {"random": 1, "repeated": 1, "genus1": 1,
                  "chains": [20]},
    },
}


@dataclass
class Op:
    label: str                      # size class, for per-class latencies
    check: Callable                 # check(out, outs) -> bool
    argv: list | None = None        # an `mgk` command line
    call: Callable | None = None    # a public API call returning text


def build(workload: str, seed: int, scale: str, workdir: str):
    """The op list of one workload; the same seed gives the same ops."""
    rng = random.Random("%s/%d" % (workload, seed))
    return _OP_LISTS[workload](rng, SIZES[scale][workload], workdir)


# -- sweep ---------------------------------------------------------------------

def _sweep(rng, size, workdir):
    # The verify seeds are 1..runs in an order the run seed picks.  One
    # verify seed can cost ten times another (a grope-degree sample over 8
    # tips expands on 8 generators), so seeds drawn afresh would make the
    # benchmark measure the draw.
    trials = size["trials"]
    seeds = rng.sample(range(1, size["runs"] + 1), size["runs"])

    def op(seed, check):
        return Op("verify trials=%d" % trials, check,
                  argv=["verify", "all", "--json", "--max-generators",
                        str(MAX_GENERATORS), "--trials", str(trials),
                        "--seed", str(seed)])

    ops = [op(s, lambda out, outs, s=s: checks.check_verify_report(
        out, s, trials, MAX_GENERATORS)) for s in seeds]
    # the first seed once more: the report must be byte-identical
    ops.append(op(seeds[0], lambda out, outs: out == outs[0]
                  and checks.check_verify_report(out, seeds[0], trials,
                                                 MAX_GENERATORS)))
    return ops


# -- expand --------------------------------------------------------------------

def _block_word(rng, s, r):
    """r blocks, each all s generators in a random order with random signs;
    adjacent letters may cancel, the word is left unreduced."""
    letters = []
    for _ in range(r):
        gens = ["m%d" % (i + 1) for i in range(s)]
        rng.shuffle(gens)
        letters += [(g, rng.choice((1, -1))) for g in gens]
    return letters


def _expand(rng, size, workdir):
    ops = []
    for slot, (s, r) in enumerate(size["slots"]):
        if s > MAX_GENERATORS:
            raise ValueError("s = %d is above the generator cap" % s)
        shape = _block_word(random.Random("expand/%d/%d/%d" % (slot, s, r)),
                            s, r)
        flip = {"m%d" % (i + 1): rng.choice((1, -1)) for i in range(s)}
        letters = [(g, e * flip[g]) for g, e in shape]
        text = checks.letters_text(letters)
        check_seed = rng.random()
        label = "s=%d r=%d" % (s, r)
        ops.append(Op("expand " + label, argv=["milnor", "expand", text,
                                               "--gens", str(s)],
                      check=lambda out, outs, w=letters, s=s, c=check_seed:
                      checks.check_expand(random.Random(c), out, w, s)))
        ops.append(Op("nf " + label, argv=["milnor", "nf", text,
                                           "--gens", str(s)],
                      check=lambda out, outs, w=letters, s=s, c=check_seed:
                      checks.check_nf(random.Random(c), out, w, s)))
    return ops


# -- links ---------------------------------------------------------------------

def _random_letters(rng, gens, length):
    return [(rng.choice(gens), rng.choice((1, -1))) for _ in range(length)]


def _link_shape(rng, n, relators, conj):
    """Longitude k as a list of relator shapes (mi, h, g) over the indices
    of the other components, standing for g' [mi, h' mi h] g: conjugated
    Milnor relators, so the link and all its sublinks are homotopically
    trivial."""
    shape = []
    for k in range(n):
        others = [i for i in range(n) if i != k]
        shape.append([(rng.choice(others),
                       _random_letters(rng, others, conj),
                       _random_letters(rng, others, rng.randint(0, 1)))
                      for _ in range(relators)])
    return shape


def _render_relator(relator, name):
    """(text, letters) of one relator shape, indices named by `name`."""
    mi, h, g = relator
    mi = name[mi]
    h = [(name[x], e) for x, e in h]
    g = [(name[x], e) for x, e in g]
    inner = checks.inverse(h) + [(mi, 1)] + h
    core = [(mi, 1)] + inner + [(mi, -1)] + checks.inverse(inner)
    text = "[%s, %s]" % (mi, checks.letters_text(inner))
    if g:
        text = "%s %s %s" % (checks.letters_text(checks.inverse(g)), text,
                             checks.letters_text(g))
    return text, checks.inverse(g) + core + g


def _trivial_link(rng, slot, n, relators, conj):
    """The slot's fixed link shape with its components relabeled by the
    run seed: meridian names, longitude texts and flat longitude letters
    (one list of letters per relator)."""
    shape = _link_shape(random.Random("links/%d/%d" % (slot, n)), n,
                        relators, conj)
    perm = rng.sample(range(n), n)
    mers = ["m%d" % (i + 1) for i in range(n)]
    name = {i: mers[perm[i]] for i in range(n)}
    texts, words = [None] * n, [None] * n
    for k in range(n):
        parts = [_render_relator(rel, name) for rel in shape[k]]
        texts[perm[k]] = [p[0] for p in parts]
        words[perm[k]] = [p[1] for p in parts]
    return mers, texts, words


def _link_json(path, mers, texts):
    comps = ["l%d" % (i + 1) for i in range(len(mers))]
    data = {"components": comps,
            "longitudes": {c: " ".join(t) for c, t in zip(comps, texts)}}
    with open(path, "w") as fh:
        json.dump(data, fh)


# flat catalog words, for the composition check
_CATALOG = {
    "borromean": (["l1", "l2", "l3"], ["m1", "m2", "m3"],
                  [[("m2", 1), ("m3", 1), ("m2", -1), ("m3", -1)],
                   [("m3", 1), ("m1", 1), ("m3", -1), ("m1", -1)],
                   [("m1", 1), ("m2", 1), ("m1", -1), ("m2", -1)]]),
    "hopf": (["l1", "l2"], ["m1", "m2"], [[("m2", 1)], [("m1", 1)]]),
}
_PATTERNS = {
    "core": (["q1"], ["z1"], [[("lambda", 1)]], [("z1", 1)]),
    "bing_double": (["q1", "q2"], ["z1", "z2"],
                    [[("z2", 1), ("lambda", 1), ("z2", -1), ("lambda", -1)],
                     [("lambda", 1), ("z1", 1), ("lambda", -1), ("z1", -1)]],
                    [("z1", 1), ("z2", 1), ("z1", -1), ("z2", -1)]),
}
# (ambient, pattern, target, |a| = |b| = 1 required)
_PAIRS = [("borromean", "bing_double", 3, True),
          ("borromean", "core", 3, False),
          ("hopf", "core", 2, False),
          ("borromean", "bing_double", 2, False)]


def _links(rng, size, workdir):
    ops = []
    for n_index, n in enumerate(size["links"]):
        mers, texts, words = _trivial_link(rng, n_index, n, size["relators"],
                                           size["conj"])
        # the variant: one extra [mi,mj] in longitude k, none of them
        # component 1, so mu(i,j,k) = 1 and mu(j,i,k) = -1
        i, j, k = rng.sample(range(1, n), 3)
        at = rng.randint(0, len(texts[k]))
        vtexts = [list(t) for t in texts]
        vwords = [list(w) for w in words]
        vtexts[k].insert(at, "[%s,%s]" % (mers[i], mers[j]))
        vwords[k].insert(at, [(mers[i], 1), (mers[j], 1),
                              (mers[i], -1), (mers[j], -1)])
        base = os.path.join(workdir, "link%d.json" % n_index)
        variant = os.path.join(workdir, "link%d_variant.json" % n_index)
        _link_json(base, mers, texts)
        _link_json(variant, mers, vtexts)
        flat = [sum(w, []) for w in words]
        vflat = [sum(w, []) for w in vwords]

        def answer(value):
            return lambda out, outs: out.strip() == value

        label = "n=%d" % n
        ops += [Op("trivial " + label, answer("true"),
                   argv=["link", "trivial", base]),
                Op("trivial variant " + label, answer("false"),
                   argv=["link", "trivial", variant]),
                Op("almost-trivial " + label, answer("true"),
                   argv=["link", "almost-trivial", base]),
                Op("almost-trivial variant " + label, answer("false"),
                   argv=["link", "almost-trivial", variant])]
        # every longitude is read by the same number of queries, so the
        # expansion work does not depend on which indices the seed picks
        queries = [(variant, vflat, (i, j, k)), (variant, vflat, (j, i, k))]
        for last in range(n):
            others = [t for t in range(n) if t != last]
            path, longs = (base, flat) if last % 2 else (variant, vflat)
            head = rng.sample(others, rng.randint(1, 3))
            queries.append((path, longs, tuple(head) + (last,)))
        for path, longs, idx in queries:
            want = checks.chain_coefficient(longs[idx[-1]],
                                            tuple(mers[t] for t in idx[:-1]))
            ops.append(Op("mu " + label, answer(str(want)),
                          argv=["link", "mu", path, "--index",
                                ",".join(str(t + 1) for t in idx)]))
    ops.append(Op("trivial unlink(%d)" % size["unlink"],
                  lambda out, outs: out.strip() == "true",
                  argv=["link", "trivial", "unlink(%d)" % size["unlink"]]))
    for lhat, q, target, unit in _PAIRS:
        ops.append(Op("certificate", argv=["certificate", lhat, q, "--target",
                                           str(target), "--json"],
                      check=lambda out, outs, unit=unit:
                      checks.check_certificate(out, unit)))
        ops.append(Op("compose", argv=["compose", lhat, q, "--target",
                                       str(target)],
                      check=lambda out, outs, a=_CATALOG[lhat],
                      p=_PATTERNS[q], t=target:
                      checks.check_compose(out, a, p, t)))
    return ops


# -- trees ---------------------------------------------------------------------
# Trees are tuples of pairs, the leaf being (); see checks.py.

def _sized_tree(rng, max_genus, leaves):
    """A random Surface with exactly `leaves` leaves: start from one leaf
    and keep replacing a random leaf by a Surface of random genus."""
    root = []               # a node is a list of [left, right] pairs
    tips = [root]
    while len(tips) < leaves:
        node = tips.pop(rng.randrange(len(tips)))
        room = leaves - len(tips)
        for _ in range(rng.randint(1, min(max_genus, room // 2))):
            pair = [[], []]
            node.append(pair)
            tips += pair
    return _freeze(root)


def _freeze(node):
    return tuple((_freeze(left), _freeze(right)) for left, right in node)


def _repeated_tree(rng, pool):
    """A tree assembled from copies of a few small shared subtrees."""
    def grow(depth):
        if depth == 0:
            return rng.choice(pool)
        return tuple((grow(depth - 1), grow(depth - 1))
                     for _ in range(rng.randint(1, 2)))
    return grow(2)


def _chain(rng, depth):
    """A genus-1 chain of the given depth; its class is depth + 1."""
    node = ()
    for _ in range(depth):
        node = ((node, ()),) if rng.random() < 0.5 else (((), node),)
    return node


def _shuffled(rng, tree):
    """The same tree up to pair swaps and pair permutations."""
    def combine(pairs):
        pairs = [p if rng.random() < 0.5 else p[::-1] for p in pairs]
        rng.shuffle(pairs)
        return tuple(pairs)
    return checks.fold(tree, (), combine)[id(tree)]


def _trees(rng, size, workdir):
    import mgk  # the API ops resolve names at call time, after tracing

    def tree_ops(tree, label, expected_class=None):
        text = checks.tree_to_text(tree)
        shuffled = checks.tree_to_text(_shuffled(rng, tree))
        first = len(ops) + 4
        return [
            Op("class " + label, argv=["grope", "class", text],
               check=lambda out, outs: checks.check_class(out, tree,
                                                          expected_class)),
            Op("class " + label, argv=["grope", "class", shuffled],
               check=lambda out, outs: checks.check_class(out, tree,
                                                          expected_class)),
            Op("duals " + label, argv=["grope", "duals", text, "--json"],
               check=lambda out, outs: checks.check_duals(out, tree)),
            Op("boundary " + label, argv=["grope", "boundary", text],
               check=lambda out, outs: checks.check_boundary(out, tree)),
            Op("canonical " + label,
               call=lambda: mgk.tree_text(mgk.canonical(mgk.parse_tree(text))),
               check=lambda out, outs: checks.check_canonical(out, tree)),
            Op("canonical " + label,
               call=lambda: mgk.tree_text(
                   mgk.canonical(mgk.parse_tree(shuffled))),
               check=lambda out, outs: out == outs[first]
               and checks.check_canonical(out, tree)),
            Op("is_isomorphic " + label,
               call=lambda: str(mgk.is_isomorphic(
                   mgk.parse_tree(text), mgk.parse_tree(shuffled))).lower(),
               check=lambda out, outs: out == "true"),
        ]

    def reroot_op(tree, label):
        text = checks.tree_to_text(tree)
        tip = rng.choice(checks.tip_walks(tree))[0]
        return Op("rerooted " + label,
                  call=lambda: mgk.tree_text(mgk.rerooted(
                      mgk.parse_closed_tree(text),
                      mgk.parse_tip_path(tip)).body),
                  check=lambda out, outs: checks.check_rerooted(out, tree, tip))

    # shapes from a fixed seed; the run seed picks an isomorphic copy
    shapes = random.Random("trees")
    ops = []
    pool = [_sized_tree(shapes, 2, shapes.randint(2, 5)) for _ in range(3)]
    for _ in range(size["random"]):
        tree = _sized_tree(shapes, 3, shapes.randint(20, 28))
        ops += tree_ops(_shuffled(rng, tree), "random")
    for _ in range(size["repeated"]):
        ops += tree_ops(_shuffled(rng, _repeated_tree(shapes, pool)),
                        "repeated")
    for _ in range(size["genus1"]):
        tree = _sized_tree(shapes, 1, shapes.randint(8, 30))
        ops.append(reroot_op(_shuffled(rng, tree), "genus-1"))
    for depth in size["chains"]:
        if depth > MAX_CHAIN_DEPTH:
            raise ValueError("chain depth %d is above the cap" % depth)
        chain = _shuffled(rng, _chain(shapes, depth))
        ops += tree_ops(chain, "chain", depth + 1)
        ops.append(reroot_op(chain, "chain"))
    return ops


_OP_LISTS = {"sweep": _sweep, "expand": _expand, "links": _links,
             "trees": _trees}
WORKLOADS = tuple(_OP_LISTS)
