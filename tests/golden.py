"""Golden outputs of the `mgk` command.

Each case is one command line run in-process through `mgk.cli.main`; its
digest is the sha256 of the JSON array [exit code, stdout, stderr].  The
recorded digests live in tests/fixtures/golden_outputs.json and
tests/test_golden.py recomputes them, so any change to what a command
prints or returns shows up as a mismatch.  Re-record (only when an output
is meant to change) with

    PYTHONPATH=src python tests/golden.py > tests/fixtures/golden_outputs.json

Help texts and usage errors are argparse's wording, which differs between
Python versions, so the fixture keeps the version it was recorded on and
the test compares those cases only under the same version.

The fixture's "wide" cases (WIDE below) are 220 commands at sizes Tier-1
does not reach: verify reports for seeds 1..99, expansions printing up to
4.3 MB and grope duals printing up to 7.6 MB.  Tier-1 checks only that
their argv are WIDE and runs none of them; their digests are checked by
re-recording the whole fixture and diffing it, which takes about 40 s:

    PYTHONPATH=src python tests/golden.py | diff - tests/fixtures/golden_outputs.json
"""

import contextlib
import hashlib
import io
import json
import os
import random
import sys

from mgk.cli import main

VERIFY = [["verify", "all", "--json", "--seed", str(s), "--trials", "20"]
          for s in range(1, 11)]

# (word, extra options); rinv needs the word in the kernel of deleting the
# last generator, and the ones that are not give the error line instead.
WORDS = [
    ("m1", []),
    ("m2'", []),
    ("[m2,m3]", []),
    ("[m1,[m2,m3]]", []),
    ("m1 m2 m1' m2'", []),
    ("[m1 m2 m1', m3 m2 m3']", []),
    ("[m5^2 m1, m3] m4^2 [m2,m4]", []),
    ("[[m1,m2],[m3,m4]]", []),
    ("m3^-2 m1 m2^3", []),
    ("[m1,m4]^3 [m4,m2]'", []),
    ("[m2,[m3,[m4,m1]]]", []),
    ("m4 [m1,m2] m4'", []),
    ("m1 m3 m1'", []),
    ("[m3,m1 m2] [m2,m3]^-2", []),
    ("m1^5", ["--gens", "1"]),
    ("[m10,m2] [m3,m10]", ["--gens", "10"]),
    ("[m9,[m1,m10]] m2", ["--gens", "10"]),
    ("[m12,m2] [m11,m12]' [m3,m12]", ["--gens", "12"]),
    ("[m10,[m2,m12]] [m1,m12]^2", ["--gens", "12"]),
    ("[m2,m3]", ["--json"]),
]

# primes attached to a name and detached from it, primes on powers and
# brackets, and malformed texts whose error lines name a position
WORDS += [(word, []) for word in (
    "m1'''", "m1 '", "m2^3'", "[m1,m2]'", "m1'^-2", "(m1 m2')^2",
    "m3'' m1'^3 m2 ''", "[m1',m2'']'^-2 m3'", "m1 m2 m2' m1' m1^3 [m2,m3]^-2",
    "m1'^", "m1'2", "m2' )", "m1''@", "(m1' '", "[m1'',m2']^-")]


def _boundary_words(n):
    """Two short words on n generators that use m1 and the top one mn: the
    first lies in the kernel of deleting mn, the second reaches every level
    of the normal-form tower."""
    h, k = max(n - 1, 1), max(n // 2, 1)
    kernel = "[m1,m%d]^2 [m%d,[m1,m%d]] [m%d,m%d m2]'" % (n, h, n, n, k)
    return kernel, kernel + " [m%d,[m1,m%d]] m%d^2 m1'" % (max(h - 1, 1), h, k)


# Ring variable counts where a monomial's packed digit width changes (the
# width is the bit length of the count); every nf level drops one variable,
# so the towers on 9, 16 and 17 generators cross a width inside one tower.
BOUNDARY_GENS = (2, 3, 4, 7, 8, 9, 15, 16, 17)
WORDS += [(word, ["--gens", str(n)]) for n in BOUNDARY_GENS
          for word in _boundary_words(n)]

MILNOR = [["milnor", action, word] + opts
          for word, opts in WORDS for action in ("expand", "nf", "rinv")]

# rinv alone: words in and out of the kernel of deleting the last generator
# on 1, 2 and 8 generators, an unknown generator, and the empty alphabet
# (an unknown generator is named before the empty alphabet is refused)
RINV = [["milnor", "rinv", word, "--gens", gens] + opts
        for word, gens, opts in (
            ("m1^-3", "1", []), ("m1 m1'", "1", ["--json"]), ("m2", "1", []),
            ("m1^4 m2 m1^-4", "2", []), ("m1 m2 m1'", "2", ["--json"]),
            ("m1 [m2,m1]", "2", []), ("m1 [m2,m1]", "2", ["--json"]),
            ("[m3,[m5,m8]] [m8,m1 m7]^2 m6 [m8,m2]' m6'", "8", []),
            ("[m3,[m5,m8]] [m2,m7]", "8", []), ("m9 [m1,m8]", "8", []),
            ("1", "0", []), ("m1", "0", []))]

# the four catalog compositions, as (ambient, pattern, extra options)
PAIRS = [
    ("borromean", "bing_double", []),
    ("borromean", "bing_double", ["--target", "2"]),
    ("borromean", "core", []),
    ("hopf", "core", []),
]

COMPOSE = [[cmd, lhat, q] + opts + extra
           for lhat, q, opts in PAIRS
           for cmd, extra in (("certificate", []), ("certificate", ["--json"]),
                              ("compose", []))]
# refusals and other pairs: the error line, or a certificate off the catalog
COMPOSE += [["certificate", "borromean", "core", "--target", "1"],
            ["certificate", "unlink(1)", "core"],
            ["certificate", "hopf", "bing_double"],
            ["certificate", "unlink(3)", "bing_double", "--json"],
            ["certificate", "whitehead_pattern", "bing_double", "--target", "2"]]

# (catalog model, mu-bar indices); a solid-torus pattern is read with its
# wedge as the last component
MODELS = [
    ("hopf", ["2,1", "1,2"]),
    ("borromean", ["2,3,1", "1,2,3", "3,1,2", "1,2"]),
    ("whitehead_pattern", ["2,3,1", "1,3"]),
    ("unlink(4)", ["1,2,3,4", "2,1"]),
    ("core", ["1,2", "2,1"]),
    ("bing_double", ["1,2,3", "3,1,2", "2,3"]),
]

LINK = ([["link", "mu", model, "--index", idx] for model, ids in MODELS
         for idx in ids]
        + [["link", action, model] + opts for model, _ in MODELS
           for action in ("trivial", "almost-trivial", "show")
           for opts in ([], ["--json"])]
        + [["link", "mu", "borromean", "--index", "2,3,1", "--json"]])

# committed JSON links, paths relative to the repository root: bing6 is
# borromean with a Bing double composed in three times (almost trivial, not
# trivial), relators8 has products of conjugated Milnor relators as
# longitudes (trivial), full9 has an iterated commutator of all other
# meridians times a relator as each longitude (almost trivial, not
# trivial), and kernel9 and outside9 spoil one full9 longitude with
# [m2,m9] (in the kernel of deleting m9, coordinate y2) or [m1,m2] (outside
# the kernel of deleting m8)
LINK_FILES = [["link", action, "tests/fixtures/links/%s.json" % name] + opts
              for name in ("bing6", "relators8", "full9", "kernel9", "outside9")
              for action in ("trivial", "almost-trivial")
              for opts in ([], ["--json"])]

TREES = ["*", "({* *})", "({({* *}) *})", "({* *} {* *})",
         "({({* *}) ({* *})})", "({({* *} {* *}) *} {* ({* ({* *})})})"]



def _shuffled_chain(depth, rng):
    """A genus-1 chain of the given depth whose continuing member sits on a
    side that rng picks at each stage, e.g. ({* ({({* *}) *})})."""
    text = "*"
    for _ in range(depth):
        text = "({%s *})" % text if rng.random() < 0.5 else "({* %s})" % text
    return text


# a genus-2 tree whose members repeat one subtree, and a depth-40 chain
DUAL_TREES = TREES[1:] + [
    "({({* *} {* *}) ({* *} {* *})} {({* *} {* *}) *})",
    _shuffled_chain(40, random.Random(40))]

GROPE = ([["grope", action, tree] for tree in TREES
          for action in ("class", "boundary")]
         + [["grope", "duals", tree] + opts for tree in DUAL_TREES
            for opts in ([], ["--json"])]
         + [["grope", "dot", tree, "--closed"] for tree in TREES[1:]])
# one tip: good paths, a path that leaves the tree, one that stops short
# of a Leaf, and an unparsable step
GROPE += [["grope", "duals", tree, "--tip", tip] + opts
          for tree, tip, opts in (
              ("({({* *}) *} {* *})", "0L/0R", []),
              ("({({* *}) *} {* *})", "1L", ["--json"]),
              ("({* *})", "0L/1R", []),
              ("({({* *}) *})", "0L", []),
              ("({* *})", "0X", []))]

# the `sweep` benchmark workload's commands
SWEEP = [["verify", "all", "--json", "--max-generators", "8", "--trials", "2",
          "--seed", str(s)] for s in range(1, 100)]


def _primed(rng, gens):
    """m<g> for each g in gens, each primed or not as rng picks."""
    return " ".join("m%d%s" % (g, rng.choice(("", "'"))) for g in gens)


def _block_words(seed):
    """(s, word) pairs: r blocks, each m1..ms shuffled with random primes."""
    rng = random.Random(seed)
    for s, r in ((6, 4), (7, 4), (8, 3), (8, 4), (9, 3), (9, 4)):
        yield s, _primed(rng, [g for _ in range(r)
                               for g in rng.sample(range(1, s + 1), s)])


def _kernel_words(seed):
    """(s, word) pairs in the kernel of deleting ms: four commutators
    [u, ms] or [u, ms'], each u a shuffle of m1..m(s-1) with random primes."""
    rng = random.Random(seed)
    for s in range(6, 10):
        yield s, " ".join("[%s, m%d%s]" % (
            _primed(rng, rng.sample(range(1, s), s - 1)), s,
            rng.choice(("", "'"))) for _ in range(4))


def _chains(seed):
    rng = random.Random(seed)
    return [_shuffled_chain(depth, rng) for depth in (200, 600, 1000)]


# sizes Tier-1 does not reach: verify reports at the default config and at
# --max-generators 4 (the smallest that draws trees of every class 1..6),
# expansions and normal forms of block words up to s = 9 (s = 9 with four
# blocks prints 4.3 MB), R-inverses of kernel words, s = 6..9, and the
# duals of genus-1 chains of depth 200, 600 and 1000 (7.6 MB of JSON)
WIDE = ([["verify", "all", "--json", "--seed", str(s)] + opts
         for s in range(1, 100)
         for opts in ([], ["--max-generators", "4", "--trials", "40"])]
        + [["milnor", action, word, "--gens", str(s)]
           for s, word in _block_words(23) for action in ("expand", "nf")]
        + [["milnor", "rinv", word, "--gens", str(s)]
           for s, word in _kernel_words(29)]
        + [["grope", "duals", tree] + opts
           for tree in _chains(31) for opts in ([], ["--json"])])

VERIFY_PARTS = [["verify", "certificate", "--json"]] + [
    ["verify", "sigma", "--json", "--trials", "20", "--q", q]
    for q in ("core", "bing_double")]

# help texts and usage errors: argparse's wording
ARGPARSE = [
    ["--help"],
    ["grope", "--help"],
    ["milnor", "--help"],
    ["link", "--help"],
    ["compose", "--help"],
    ["certificate", "--help"],
    ["verify", "--help"],
    [],
    ["bogus"],
    ["milnor", "bogus", "m1"],
    ["milnor", "expand"],
    ["milnor", "expand", "m1", "--gens", "x"],
    ["grope", "class"],
    ["verify", "all", "--trials"],
    ["grope", "class", "({* *})", "extra"],
    ["link", "mu", "hopf", "--index", "2,1", "--bogus"],
]


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(argv):
    """(exit code, stdout, stderr) of one in-process `mgk` call, with help
    wrapped at 80 columns, run from the repository root."""
    out, err = io.StringIO(), io.StringIO()
    saved, cwd = os.environ.get("COLUMNS"), os.getcwd()
    os.environ["COLUMNS"] = "80"
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = exc.code
    finally:
        os.chdir(cwd)
        if saved is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = saved
    return code, out.getvalue(), err.getvalue()


def digest(argv):
    return hashlib.sha256(json.dumps(run(argv)).encode()).hexdigest()


def record():
    return {
        "python": "%d.%d" % sys.version_info[:2],
        "outputs": [{"argv": argv, "sha256": digest(argv)}
                    for argv in (VERIFY + MILNOR + RINV + COMPOSE + LINK
                                 + LINK_FILES + GROPE + VERIFY_PARTS + SWEEP)],
        "argparse": [{"argv": argv, "sha256": digest(argv)}
                     for argv in ARGPARSE],
        "wide": [{"argv": argv, "sha256": digest(argv)} for argv in WIDE],
    }


def dump(rec, fh):
    """Write a record with one case per line."""
    fh.write('{"python": %s' % json.dumps(rec["python"]))
    for key in ("outputs", "argparse", "wide"):
        fh.write(',\n "%s": [\n  ' % key)
        fh.write(",\n  ".join(json.dumps(case) for case in rec[key]))
        fh.write("\n ]")
    fh.write("\n}\n")


if __name__ == "__main__":
    dump(record(), sys.stdout)
