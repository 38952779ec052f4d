"""Fuzz the command line in-process.

Whatever the arguments, word texts, tree texts and link JSON files,
`mgk.cli.main` must end with exit code 0 (checks pass), 1 (a check
failed) or 2 (usage or input error), and never print a traceback.  The
sizes are bounded so that the file runs in a few seconds: at most 6
generators, 3 verify trials and 5 link components; well-formed words of
at most 64 letters, token soups of at most 12 tokens joined by spaces (so
no two digit tokens merge into a long exponent), and raw texts short
enough that no generator name has more than three digits.
"""

import contextlib
import io
import json

from hypothesis import HealthCheck, given, settings, strategies as st

from mgk.cli import main

NAMES = st.sampled_from(["m1", "m2", "m3", "m4", "m5", "m6", "z1", "z2",
                         "a", "b", "lambda", "m0"])
WORD_TOKENS = NAMES | st.sampled_from(
    ["1", "(", ")", "[", "]", ",", "'", "^", "-", "0", "2", "3", "@", "é"])


@st.composite
def well_formed(draw, names=("m1", "m2", "m3", "m4", "m5", "m6"), depth=3):
    """A word text over names, with at most 4 ** depth letters."""
    kind = draw(st.integers(0, 4)) if depth else 0
    if kind == 0:
        return draw(st.sampled_from(list(names) + ["1"]))
    first = draw(well_formed(names, depth - 1))
    if kind == 1:
        return "[%s,%s]" % (first, draw(well_formed(names, depth - 1)))
    if kind == 2:
        return "%s %s" % (first, draw(well_formed(names, depth - 1)))
    if kind == 3:
        return "(%s)'" % first
    return "(%s)^%d" % (first, draw(st.integers(-2, 2)))


def words(names=("m1", "m2", "m3", "m4", "m5", "m6")):
    """Mostly well-formed word texts, else token soup joined by spaces (so
    no two digit tokens merge into a long exponent) or short raw text."""
    return st.one_of(well_formed(names), well_formed(names),
                     well_formed(names), well_formed(names),
                     st.lists(WORD_TOKENS, max_size=12).map(" ".join),
                     st.text(max_size=4))


WORDS = words()
TREES = (st.recursive(st.just("*"), lambda inner: st.lists(
    st.tuples(inner, inner), min_size=1, max_size=2).map(
        lambda pairs: "(%s)" % " ".join("{%s %s}" % p for p in pairs)),
    max_leaves=8)
    | st.lists(st.sampled_from(["(", ")", "{", "}", "*", " ", "x"]),
               max_size=24).map("".join)
    | st.text(max_size=4))
TIPS = (st.lists(st.tuples(st.integers(0, 2), st.sampled_from("LR")),
                 max_size=4).map(lambda steps: "/".join("%d%s" % s for s in steps))
        | st.text(alphabet="0123LR/ x", max_size=8))
SMALL = st.integers(-1, 6).map(str)
INDEX = (st.lists(SMALL | NAMES | st.just(""), max_size=6).map(",".join)
         | st.text(max_size=4))
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8)


@st.composite
def link_json(draw):
    """Text of a link file: a link or a pattern, often well formed and
    sometimes with one field replaced by any JSON value, or arbitrary
    JSON, or not JSON at all."""
    kind = draw(st.sampled_from(["link", "link", "pattern", "pattern",
                                 "json", "text"]))
    if kind == "text":
        return draw(st.text(max_size=12))
    if kind == "json":
        return json.dumps(draw(JSON_VALUES))
    n = draw(st.integers(1, 5))
    prefix = "z" if kind == "pattern" else "m"
    meridians = ["%s%d" % (prefix, i + 1) for i in range(n)]
    components = ["c%d" % (i + 1) for i in range(n)]
    extra = ["lambda"] if kind == "pattern" else []
    data = {"components": components, "longitudes": {
        c: draw(words([m for m in meridians if m != own] + extra))
        for c, own in zip(components, meridians)}}
    if kind == "pattern":
        data["wedge"] = draw(words(meridians))
    if draw(st.integers(0, 3)) == 0:
        key = draw(st.sampled_from(sorted(data) + ["meridians",
                                                   "core_symbol"]))
        data[key] = draw(JSON_VALUES | NAMES | st.lists(NAMES, max_size=6))
    return json.dumps(data)


LINKS = ["link.json", "borromean", "hopf", "unlink(3)"]
PATTERNS = ["pattern.json", "bing_double", "core"]
MODELS = st.sampled_from(LINKS + PATTERNS + ["missing.json"])
LINKS, PATTERNS = st.sampled_from(LINKS), st.sampled_from(PATTERNS)


def option(flag, values):
    """Nothing, the flag alone, or (most often) the flag and a value."""
    with_value = values.map(lambda v: [flag, v])
    return st.one_of(st.just([]), st.just([flag]), with_value, with_value,
                     with_value)


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(
        ["grope", "milnor", "link", "compose", "certificate", "verify",
         "garbage"]))
    if command == "grope":
        argv = ["grope", draw(st.sampled_from(["class", "duals", "boundary",
                                               "dot"])),
                draw(TREES)]
        argv += draw(option("--tip", TIPS))
        argv += draw(option("--names", INDEX))
        argv += draw(st.sampled_from([[], ["--closed"], ["--json"]]))
    elif command == "milnor":
        action = draw(st.sampled_from(
            ["expand", "nf", "equal", "lcs-degree", "rinv"]))
        count = draw(st.sampled_from([2 if action == "equal" else 1] * 5
                                     + [0, 3]))
        argv = ["milnor", action] + draw(st.lists(WORDS, min_size=count,
                                                  max_size=count))
        argv += draw(option("--gens", SMALL))
    elif command == "link":
        argv = ["link", draw(st.sampled_from(
            ["mu", "trivial", "almost-trivial", "show"])), draw(LINKS | MODELS)]
        argv += draw(option("--index", INDEX))
    elif command in ("compose", "certificate"):
        argv = [command, draw(LINKS | MODELS), draw(PATTERNS | MODELS)]
        argv += draw(option("--target", SMALL))
    elif command == "verify":
        argv = ["verify", draw(st.sampled_from(["all", "sigma",
                                                "certificate"])),
                "--trials", draw(st.integers(0, 3).map(str)),
                "--max-generators", draw(SMALL),
                "--seed", draw(st.integers(0, 9).map(str))]
        argv += draw(option("--lhat", LINKS | MODELS))
        argv += draw(option("--q", PATTERNS | MODELS))
    else:  # anything but verify, which would run its 200 default trials
        argv = draw(st.lists(st.sampled_from(
            ["grope", "milnor", "link", "compose", "certificate", "class",
             "nf", "mu", "--json", "--out", "--gens", "--index", "--tip",
             "--help", "-h", "x", "", "2"]) | st.text(max_size=4),
            max_size=6))
    if command != "garbage" and draw(st.integers(0, 7)) == 0:
        argv += draw(st.sampled_from([["--json"], ["--out", "out.txt"],
                                      ["--bogus"], ["extra"]]))
    return argv


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse: usage errors and --help
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow])
@given(argv=argvs(), link=link_json(), pattern=link_json())
def test_cli_exits_0_1_or_2_without_a_traceback(tmp_path, monkeypatch, argv,
                                                link, pattern):
    monkeypatch.chdir(tmp_path)  # --out files and the model files live here
    (tmp_path / "link.json").write_text(link)
    (tmp_path / "pattern.json").write_text(pattern)
    code, _, err = run_cli(argv)
    assert code in (0, 1, 2), (argv, code, err)
    assert "Traceback" not in err, (argv, err)
