import json
import random
import subprocess
import sys
from functools import partial

import pytest

import mgk.cli
import mgk.gropes
import mgk.links
import mgk.milnor
import mgk.words
from mgk import verify
from mgk.cli import main
from mgk.gropes import tree_text
from mgk.errors import LinkFormatError
from mgk.links import catalog, load_link, save_link
from mgk.milnor import default_alphabet
from mgk.words import Word

from golden import DUAL_TREES
from helpers import conjugated_relator, shuffled_chain
from test_composition import over_budget_composition
from test_links import BAD_LINK_JSON


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_grope_class(capsys):
    code, out, _ = run(capsys, "grope", "class", "({* *})")
    assert code == 0 and out.strip() == "2"


def test_grope_boundary(capsys):
    code, out, _ = run(capsys, "grope", "boundary", "({* *})", "--names", "a,b")
    assert code == 0 and out.strip() == "[a,b]"


@pytest.mark.parametrize("names", ["1,m2", "a b,c"])
def test_grope_boundary_rejects_names_that_are_not_generators(capsys, names):
    code, out, err = run(capsys, "grope", "boundary", "({* *})", "--names", names)
    assert (code, out) == (2, "")
    assert err.startswith("error: tip name ") and err.count("\n") == 1


def test_grope_duals_builds_each_dual_once(capsys, monkeypatch):
    # without --tip one walk lists every tip, its path text and its dual's
    # text, and dual_class walks each tip's path once more for the class
    # column; no dual tree is built and no tree is rendered node by node
    walked, built = [], []
    path_partners = mgk.gropes._path_partners
    monkeypatch.setattr(mgk.gropes, "_path_partners", lambda closed, tip:
                        walked.append(tip) or path_partners(closed, tip))
    with monkeypatch.context() as patch:
        for name in ("dual_tree", "tree_text", "format_tip_path", "leaf_paths"):
            patch.setattr(mgk.gropes, name, None)  # a call would raise
        code, out, _ = run(capsys, "grope", "duals", "({({* *}) *} {* *})")
    assert code == 0 and out.count("tip ") == 5
    assert walked == [mgk.gropes.parse_tip_path(path) for path in
                      ["0L/0L", "0L/0R", "0R", "1L", "1R"]]
    # one tip builds its one dual tree
    walked.clear()
    dual_tree = mgk.gropes.dual_tree
    monkeypatch.setattr(mgk.gropes, "dual_tree", lambda closed, tip:
                        built.append(tip) or dual_tree(closed, tip))
    code, out, _ = run(capsys, "grope", "duals", "({({* *}) *} {* *})",
                       "--tip", "0L/0R")
    assert code == 0 and out.endswith("3 >= 2 ok    ({({* *}) *})\n")
    assert built == [((0, 0), (0, 1))]
    assert walked == [((0, 0), (0, 1))]  # its class is its dual tree's


def test_grope_duals_one_tip_is_its_row_of_every_tip(capsys):
    # --tip renders its one dual tree, the run without it lists every tip
    # from one walk; both must give a tip the same row
    for tree in DUAL_TREES:
        code, out, _ = run(capsys, "grope", "duals", tree, "--json")
        every = json.loads(out)
        assert code == 0 and len(every["duals"]) == every["rank"]
        for row in every["duals"]:
            code, out, _ = run(capsys, "grope", "duals", tree, "--tip",
                               row["tip"], "--json")
            assert code == 0 and json.loads(out) == {**every, "duals": [row]}


@pytest.mark.parametrize("action, result", [
    ("class", 3), ("boundary", "[[m1,m2],m3]"),
    ("dot", "digraph grope {")])
def test_grope_json_and_out_hold_for_every_action(capsys, tmp_path, action, result):
    code, out, _ = run(capsys, "grope", action, "({({* *}) *})", "--json")
    payload = json.loads(out)
    assert code == 0 and payload["command"] == "grope " + action
    assert str(payload["result"]).startswith(str(result))
    path = tmp_path / "answer"
    code, out, _ = run(capsys, "grope", action, "({({* *}) *})", "--out", str(path))
    assert (code, out) == (0, "") and path.read_text().startswith(str(result))


def test_grope_duals(capsys):
    code, out, _ = run(capsys, "grope", "duals", "({({* *}) *})")
    assert code == 0
    assert out.count("tip ") == 3 and "ok" in out


def test_grope_duals_rerooting_row(capsys):
    code, out, _ = run(capsys, "grope", "duals", "({({* *}) *})",
                       "--tip", "0R", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["duals"][0]["dual"] == "({* ({* *})})"


def test_grope_dot(capsys):
    code, out, _ = run(capsys, "grope", "dot", "({* *})", "--closed")
    assert code == 0 and out.startswith("digraph") and "root edge" in out


def test_parser_is_built_once_and_answers_alike(monkeypatch, capsys):
    built = []
    build = mgk.cli.build_parser
    monkeypatch.setattr(mgk.cli, "build_parser",
                        lambda: built.append(1) or build())
    monkeypatch.setattr(mgk.cli, "_PARSER", None)
    monkeypatch.setenv("COLUMNS", "80")

    def outcome(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    cases = [["--help"], ["milnor", "--help"], ["bogus"],
             ["grope", "bogus", "({* *})"], ["grope", "class", "({* *})"]]
    first = [outcome(argv) for argv in cases]
    second = [outcome(argv) for argv in cases]
    assert [code for code, _, _ in first] == [0, 0, 2, 2, 0]
    assert first[0][1].startswith("usage: mgk ")
    assert "invalid choice: 'bogus'" in first[3][2]
    assert first == second
    assert built == [1]


def test_parser_is_not_built_at_import():
    proc = subprocess.run([sys.executable, "-c",
                           "import mgk.cli; print(mgk.cli._PARSER)"],
                          capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stdout) == (0, "None\n"), proc.stderr


def test_grope_parse_error_exit_2(capsys):
    code, _, err = run(capsys, "grope", "class", "({*")
    assert code == 2 and "parse error" in err


def test_milnor_expand(capsys):
    code, out, _ = run(capsys, "milnor", "expand", "[m2,m3]")
    assert code == 0 and out.strip() == "1 + y2*y3 - y3*y2"


def test_milnor_equal(capsys):
    code, out, _ = run(capsys, "milnor", "equal",
                       "[m1 m2 m1', m3 m2 m3']", "1")
    assert code == 0 and out.strip() == "equal"
    code, out, _ = run(capsys, "milnor", "equal", "m1", "m2")
    assert code == 1 and out.strip() == "not equal"


def test_milnor_rinv(capsys):
    code, out, _ = run(capsys, "milnor", "rinv", "m3")
    assert code == 0 and out.strip() == "1"
    code, out, _ = run(capsys, "milnor", "rinv", "m1 m3", "--gens", "3")
    assert code == 2


def test_milnor_lcs_degree(capsys):
    code, out, _ = run(capsys, "milnor", "lcs-degree", "[m2,m3]")
    assert code == 0 and out.strip() == "2"
    code, out, _ = run(capsys, "milnor", "lcs-degree", "m1 m1'")
    assert out.strip() == "inf"


def test_milnor_nf(capsys):
    code, out, _ = run(capsys, "milnor", "nf", "[m1,[m2,m3]]")
    assert code == 0 and "m3-part: y1*y2" in out


@pytest.mark.parametrize("action,gens", [("expand", "-5"), ("nf", "-2")])
def test_negative_generator_count_is_an_error(capsys, action, gens):
    code, out, err = run(capsys, "milnor", action, "1", "--gens", gens)
    assert (code, out, err) == (2, "", "error: generator count must be >= 0\n")


def test_link_mu(capsys):
    code, out, _ = run(capsys, "link", "mu", "borromean", "--index", "2,3,1")
    assert code == 0 and abs(int(out.strip())) == 1


def test_link_trivial(capsys):
    code, out, _ = run(capsys, "link", "trivial", "whitehead_pattern")
    assert code == 0 and out.strip() == "true"
    code, out, _ = run(capsys, "link", "trivial", "hopf")
    assert code == 0 and out.strip() == "false"


def test_link_almost_trivial(capsys):
    code, out, _ = run(capsys, "link", "almost-trivial", "borromean")
    assert code == 0 and out.strip() == "true"


def test_link_file_input(capsys, tmp_path):
    path = tmp_path / "hopf.json"
    save_link(catalog("hopf"), str(path))
    code, out, _ = run(capsys, "link", "mu", str(path), "--index", "2,1")
    assert code == 0 and abs(int(out.strip())) == 1


def test_link_unknown_model(capsys):
    code, _, err = run(capsys, "link", "trivial", "nonexistent")
    assert code == 2 and "error" in err


@pytest.mark.parametrize("data", BAD_LINK_JSON)
def test_link_bad_json_exit_2(tmp_path, data):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    proc = subprocess.run([sys.executable, "-m", "mgk.cli", "link", "trivial",
                           str(path)], capture_output=True, text=True)
    assert proc.returncode == 2 and proc.stdout == ""
    assert "error" in proc.stderr and "Traceback" not in proc.stderr


def test_too_deep_link_file_is_a_link_format_error(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 10**5 + "]" * 10**5)
    with pytest.raises(LinkFormatError, match="^input too large or too deeply"):
        load_link(str(path))
    proc = subprocess.run([sys.executable, "-m", "mgk.cli", "link", "show",
                           str(path)], capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        2, "", "error: input too large or too deeply nested (maximum recursion "
        "depth exceeded while decoding a JSON array from a unicode string)\n")


def test_out_path_with_a_nul_byte_is_an_error(capsys):
    code, out, err = run(capsys, "grope", "class", "*", "--out", "a\x00b")
    assert (code, out, err) == (2, "", "error: embedded null byte\n")



@pytest.mark.parametrize("data, message", [
    ({"components": ["q1", "q1"], "longitudes": {"q1": "lambda"},
      "wedge": "z1"}, "component names must be distinct"),
    ({"components": ["q1"], "longitudes": {"q1": "lambda z1"}, "wedge": "z1"},
     "longitude of 'q1' contains its own meridian 'z1'"),
    ({"components": ["q1"], "longitudes": {"q1": "lambda"}, "wedge": "lambda"},
     "the wedge word cannot use the core symbol"),
])
def test_link_show_bad_pattern_is_one_error_line(tmp_path, data, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    proc = subprocess.run([sys.executable, "-m", "mgk.cli", "link", "show",
                           str(path)], capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "error: %s\n" % message


@pytest.mark.parametrize("data, message", [
    ({"components": ["a", "b"], "meridians": [],
      "longitudes": {"a": "m2", "b": "1"}},
     "components, meridians and longitudes must align"),
    ({"components": ["a"], "longitudes": {"a": "1"}, "core_symbol": "t"},
     "link JSON has the pattern key 'core_symbol' but no 'wedge'"),
])
def test_link_show_refuses_empty_meridians_and_a_wedgeless_core_symbol(
        tmp_path, data, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    proc = subprocess.run([sys.executable, "-m", "mgk.cli", "link", "show",
                           str(path)], capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "error: %s\n" % message


@pytest.fixture(scope="module")
def twelve_component_link(tmp_path_factory):
    """12 components with ~5000-letter longitudes of conjugated Milnor
    relators; longitude 12 also holds [m3,m7].  So mu(3,7,12) = 1,
    mu(7,3,12) = -1, and every other distinct-index mu-bar is 0."""
    rng = random.Random(12)
    mers = ["m%d" % (i + 1) for i in range(12)]
    longitudes = {}
    for k in range(12):
        others = mers[:k] + mers[k + 1:]
        letters = []
        while len(letters) < 5000:
            letters += conjugated_relator(rng, others).letters
        if k == 11:
            pos = len(letters) // 2
            letters[pos:pos] = Word.parse("[m3,m7]").letters
        longitudes["l%d" % (k + 1)] = str(Word(letters))
    path = tmp_path_factory.mktemp("links") / "twelve.json"
    path.write_text(json.dumps({"components": list(longitudes),
                                "longitudes": longitudes}))
    return str(path)


@pytest.mark.parametrize("index, mu", [
    ("3,7,12", "1"), ("7,3,12", "-1"), ("3,7,1", "0"),
    ("1,2,3,4,5,6,7,8,9,10,11,12", "0")])
def test_link_mu_on_twelve_components(twelve_component_link, index, mu):
    proc = subprocess.run([sys.executable, "-m", "mgk.cli", "link", "mu",
                           twelve_component_link, "--index", index],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == mu + "\n"


def run_capped(argv):
    """Run the CLI with its address space capped at 1 GB, so that a word
    the letter budget misses fails at once instead of exhausting memory."""
    resource = pytest.importorskip("resource")  # POSIX only

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (2 ** 30, 2 ** 30))

    return subprocess.run([sys.executable, "-m", "mgk.cli"] + argv,
                          capture_output=True, text=True, timeout=120,
                          preexec_fn=cap)


@pytest.mark.parametrize("argv", [
    ["milnor", "expand", "[" * 3000 + "m1" + ",m2]" * 3000],
    ["milnor", "expand", "m1^99999999999999999999"],
    ["milnor", "expand", "(m1 m2)^1000000000000"],
], ids=["nested-commutators", "huge-power", "long-power"])
def test_deep_input_is_an_error_not_a_crash(argv):
    proc = run_capped(argv)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == "error: word longer than the letter limit of " \
        "%d letters\n" % mgk.words.MAX_LETTERS


@pytest.mark.parametrize("argv", [
    ["milnor", "expand", "(" * 3000 + "m1" + ")" * 3000],
    ["milnor", "expand", "(" * 3000 + "m1" + ")'" * 3000],
], ids=["nested-parens", "nested-primes"])
def test_deep_input_answers(argv):
    proc = run_capped(argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "1 + y1\n", "")


def test_resource_error_names_its_type_without_a_message(capsys, monkeypatch):
    def exhausted(text):
        raise MemoryError()
    monkeypatch.setattr(Word, "parse", exhausted)
    code, out, err = run(capsys, "milnor", "expand", "m1")
    assert (code, out) == (2, "")
    assert err == "error: input too large or too deeply nested (MemoryError)\n"


@pytest.mark.parametrize("argv", [
    ["milnor", "equal", "m1"],
    ["milnor", "expand", "m1", "m2"],
    ["milnor", "equal", "m1", "m2", "m3"],
    ["milnor", "nf", "m1", "m2"],
    ["milnor", "rinv", "[m1,m2]", "m1"],
    ["milnor", "lcs-degree", "m1", "m1"],
])
def test_wrong_word_count_is_an_error_not_a_crash(argv):
    proc = subprocess.run([sys.executable, "-m", "mgk.cli"] + argv,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error: milnor %s takes " % argv[1])
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr


def test_closed_stdout_pipe_exits_0_quietly():
    # the answer (323 kB) outgrows the pipe buffer, so the writer is still
    # writing when the reader closes its end
    proc = subprocess.Popen([sys.executable, "-m", "mgk.cli", "milnor",
                             "expand", "(m1 m2 m3 m4 m5 m6 m7)^7"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.read(10) == b"1 + 7*y1 +"
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 0 and err == b""


def test_grope_chain_300_answers():
    proc = subprocess.run([sys.executable, "-m", "mgk.cli", "grope", "class",
                           "({" * 299 + "({* *})" + " *})" * 299],
                          capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "301\n", "")


@pytest.mark.parametrize("action", ["class", "boundary"])
def test_grope_depth_5000_chain_answers(action):
    text = tree_text(shuffled_chain(random.Random(5000), 5000))
    proc = subprocess.run([sys.executable, "-m", "mgk.cli", "grope", action,
                           text], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    if action == "class":
        assert proc.stdout == "5001\n"
    else:
        assert proc.stdout.count("[") == proc.stdout.count(",") == 5000
        assert "m5001" in proc.stdout


def test_compose_and_certificate(capsys, tmp_path):
    out_path = tmp_path / "fig6.json"
    code, _, _ = run(capsys, "compose", "borromean", "bing_double",
                     "--out", str(out_path))
    assert code == 0
    data = json.loads(out_path.read_text())
    assert data["components"] == ["l1", "l2", "q1", "q2"]

    code, out, _ = run(capsys, "certificate", "borromean", "bing_double")
    assert code == 0 and "c == a*b: true" in out

    code, out, _ = run(capsys, "certificate", str(tmp_path / "missing.json"),
                       "core")
    assert code == 2

    code, out, err = run(capsys, "compose", "bing_double", "core")
    assert (code, out) == (2, "")
    assert err == "error: the ambient link cannot be a solid-torus pattern\n"


@pytest.mark.parametrize("argv", [
    ["grope", "dot", "({({* *}) *})"],
    ["grope", "dot", "({* *} {* *})", "--closed"],
    ["grope", "duals", "({({* *}) *})"],
    ["grope", "duals", "({({* *}) *} {* *})", "--json"],
    ["grope", "duals", "({({* *}) *})", "--tip", "0R"],
    ["compose", "borromean", "bing_double"],
    ["compose", "hopf", "bing_double", "--target", "2"],
    ["verify", "all", "--trials", "4", "--seed", "3"],
    ["verify", "all", "--trials", "4", "--seed", "3", "--json"],
    ["verify", "sigma", "--trials", "5", "--seed", "2"],
    ["verify", "sigma", "--trials", "5", "--seed", "2", "--json"],
    ["verify", "certificate"],
    ["verify", "certificate", "--json"],
], ids=lambda argv: " ".join(argv[:2] + argv[3:]))
def test_out_file_holds_what_stdout_would(capsys, tmp_path, argv):
    code, out, err = run(capsys, *argv)
    path = tmp_path / "answer"
    code_out, out_out, err_out = run(capsys, *argv, "--out", str(path))
    assert (code_out, out_out, err_out) == (code, "", err)
    # stdout ends with print's newline; the file ends with exactly one
    expected = out[:-1] if out.endswith("\n\n") else out
    assert path.read_bytes() == expected.encode()


def test_certificate_json(capsys):
    code, out, _ = run(capsys, "certificate", "borromean", "bing_double",
                       "--json")
    data = json.loads(out)
    assert abs(data["a"]) == 1 and data["c"] == data["a"] * data["b"]


def test_verify_sigma(capsys):
    code, out, _ = run(capsys, "verify", "sigma", "--trials", "10",
                       "--seed", "3", "--json")
    assert code == 0
    summary = json.loads(out)["summary"]
    # the same summary shape as every other verify report
    assert summary == {"total": 11, "passed": 11, "failed": 0, "status": "pass"}


def test_verify_certificate(capsys):
    code, out, _ = run(capsys, "verify", "certificate", "--json")
    assert code == 0
    assert json.loads(out)["summary"]["status"] == "pass"


def test_verify_all_text(capsys):
    code, out, _ = run(capsys, "verify", "all", "--trials", "10", "--seed", "1")
    assert code == 0
    assert "summary: pass" in out


def test_verify_all_reports_a_failing_check(capsys, monkeypatch):
    import mgk.verify
    label = "injected: first words are shorter than 9 letters"
    monkeypatch.setattr(mgk.verify, "_SECTIONS", (partial(
        mgk.verify._sweep, "magnus", label, mgk.verify._draw_word_pair,
        lambda alphabet, w1, w2: len(w1) < 9, 1),))
    config = mgk.verify.RunConfig(seed=3, trials=40)
    rng = config.rng("magnus")
    bad = [sample for sample in (mgk.verify._draw_word_pair(rng, config)
                                 for _ in range(40)) if len(sample[1]) >= 9]
    witness = ", ".join(map(str, bad[0]))
    assert 0 < len(bad) < 40
    code, out, _ = run(capsys, "verify", "all", "--trials", "40", "--seed", "3",
                       "--json")
    assert code == 1
    report = json.loads(out)
    assert report["cases"] == [{
        "index": 0, "input": label, "expected": {"failures": 0},
        "actual": {"trials": 40, "failures": len(bad), "witness": witness},
        "status": "fail"}]
    assert report["summary"] == {"total": 1, "passed": 0, "failed": 1,
                                 "status": "fail"}
    code, out, _ = run(capsys, "verify", "all", "--trials", "40", "--seed", "3")
    assert code == 1
    assert out.splitlines() == [
        "[FAIL] %s: %d/40 failed (witness: %s)" % (label, len(bad), witness),
        "summary: fail (0/1 passed)"]


def test_verify_certificate_reports_a_wrong_certificate(capsys, monkeypatch):
    import mgk.composition
    wrong = mgk.composition.Certificate(a=1, b=1, c=-1)
    monkeypatch.setattr(mgk.composition, "essentiality_certificate",
                        lambda spec: wrong)
    code, out, _ = run(capsys, "verify", "certificate", "--json")
    assert code == 1
    (case,) = json.loads(out)["cases"]
    assert case["status"] == "fail"
    assert case["actual"] == {"trials": 4, "failures": 4, "witness": repr(wrong)}
    code, out, _ = run(capsys, "verify", "certificate")
    assert code == 1
    assert out.splitlines()[0] == (
        "[FAIL] %s: 4/4 failed (witness: Certificate(a=1, b=1, c=-1))"
        % case["input"])


@pytest.mark.parametrize("layer, fault, label", [
    ("is_almost_trivial", lambda real: lambda link: True,
     "borromean almost trivial"),
    ("is_homotopically_trivial",
     lambda real: lambda link: link.n != 2 or real(link), "hopf essential"),
])
def test_verify_all_catches_a_triviality_test_that_answers_true(
        capsys, monkeypatch, layer, fault, label):
    # each triviality test must also answer False on a catalog link that is
    # not trivial, so the catalog case fails under the planted fault
    monkeypatch.setattr(mgk.links, layer, fault(getattr(mgk.links, layer)))
    code, out, _ = run(capsys, "verify", "all", "--json", "--seed", "1",
                       "--trials", "40")
    assert code == 1
    (case,) = [c for c in json.loads(out)["cases"]
               if c["input"].startswith("catalog invariants")]
    assert case["status"] == "fail"
    assert (case["actual"]["failures"], case["actual"]["witness"]) == (1, label)


def test_verify_all_tallies_a_failing_sigma_law(capsys, monkeypatch):
    import mgk.composition
    real = mgk.composition.wedge_ring_element
    monkeypatch.setattr(mgk.composition, "wedge_ring_element",
                        lambda q: real(q) * 2)
    code, out, _ = run(capsys, "verify", "all", "--json", "--seed", "1",
                       "--trials", "40")
    assert code == 1
    cases = {c["input"]: c for c in json.loads(out)["cases"]}
    for pattern in ("core", "bing_double"):
        sigma = mgk.composition.verify_sigma(mgk.composition.CompositionSpec(
            catalog("borromean"), catalog(pattern)), trials=40, seed=1)
        bad = [c["input"] for c in sigma["cases"] if c["status"] == "fail"]
        case = cases["sigma is right multiplication by the wedge element "
                     "(pattern: %s)" % pattern]
        assert case["status"] == "fail"
        assert case["actual"] == {"trials": sigma["summary"]["total"],
                                  "failures": sigma["summary"]["failed"],
                                  "witness": bad[0]}
        assert sigma["summary"]["failed"] == len(bad)  # every failure listed
    assert (sigma["summary"]["total"], len(bad)) == (41, 32)  # bing_double


def test_verify_all_deterministic_json(capsys):
    args = ("verify", "all", "--trials", "15", "--seed", "7", "--json")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    report = json.loads(out1)
    assert report["config"]["seed"] == 7
    assert report["summary"]["status"] == "pass"


def test_verify_all_subprocess_matches_inprocess(capsys):
    args = ["verify", "all", "--trials", "10", "--seed", "7", "--json"]
    _, out, _ = run(capsys, *args)
    proc = subprocess.run([sys.executable, "-m", "mgk.cli"] + args,
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == out


def test_verify_draws_ignore_the_environment_and_large_max_generators(
        capsys, monkeypatch):
    # each draw bounds its own alphabet, so no environment variable caps
    # max_generators, and every value from 6 up draws the default's samples
    monkeypatch.setenv("MGK_MAX_GENERATORS", "3")
    code, out, _ = run(capsys, "verify", "all", "--trials", "5", "--seed", "2",
                       "--json", "--max-generators", "20")
    assert code == 0
    assert json.loads(out)["config"]["max_generators"] == 20

    def samples(max_generators):
        config = verify.RunConfig(seed=2, trials=20,
                                  max_generators=max_generators)
        drawn = []
        for section, _, draw, _, _ in verify._SWEEPS:
            rng = config.rng(section)
            drawn += [", ".join(map(str, draw(rng, config)))
                      for _ in range(config.trials)]
        return drawn

    assert samples(20) == samples(6) == samples(7) != samples(3)


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        main(["grope"])
    assert err.value.code == 2


@pytest.mark.parametrize("trials, max_generators, message", [
    (0, 6, "trials must be >= 1"), (5, 0, "max_generators must be >= 1")])
def test_run_config_refuses_nonpositive_counts(capsys, trials, max_generators,
                                               message):
    with pytest.raises(ValueError, match="^%s$" % message):
        verify.RunConfig(trials=trials, max_generators=max_generators)
    code, out, err = run(capsys, "verify", "all", "--trials", str(trials),
                         "--max-generators", str(max_generators))
    assert (code, out, err) == (2, "", "error: %s\n" % message)


@pytest.mark.parametrize("argv, message", [
    (["milnor", "equal", "m1"], "milnor equal takes two words, got 1"),
    (["link", "mu", "borromean"], "link mu needs --index i1,...,ik,j"),
    (["link", "mu", "borromean", "--index", "\u00b2,1"],
     "unknown component '\u00b2'"),
    (["link", "mu", "borromean", "--index", "9" * 5000 + ",1"],
     "component index %s out of range" % ("9" * 5000)),
    (["grope", "duals", "({* *})", "--tip", "9" * 5000 + "L"],
     "tip path %sL leaves the tree" % ("9" * 5000)),
    # an empty path names the root, which is no tip, not every tip
    (["grope", "duals", "({* *})", "--tip", ""],
     "tip path  does not reach a Leaf"),
    (["grope", "duals", "({* *})", "--tip", "   "],
     "tip path  does not reach a Leaf"),
    # empty names are one empty name, not the default names
    (["grope", "boundary", "({* *})", "--names", ""],
     "need 2 tip names, got 1"),
    (["grope", "boundary", "({* *})", "--names", " "],
     "need 2 tip names, got 1"),
    (["milnor", "expand", "m1^" + "9" * 5000],
     "word longer than the letter limit of 4194304 letters"),
], ids=["equal-one-word", "mu-no-index", "mu-superscript", "mu-long-index",
        "duals-long-tip", "duals-empty-tip", "duals-blank-tip",
        "boundary-empty-names", "boundary-blank-names", "expand-long-power"])
def test_argument_errors_are_one_line(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", "error: %s\n" % message)


@pytest.mark.parametrize("argv, option, reader", [
    # --trials 1 keeps a lost refusal quick
    (["verify", "certificate", "--lhat", "nonsense", "--trials", "1"],
     "lhat", "verify sigma"),
    (["verify", "all", "--lhat", "nonsense", "--q", "x", "--target", "9",
      "--trials", "1"], "lhat", "verify sigma"),
    (["verify", "all", "--q", "bing_double", "--trials", "1"],
     "q", "verify sigma"),
    (["verify", "certificate", "--target", "0", "--trials", "1"],
     "target", "verify sigma"),
    (["verify", "certificate", "--max-generators", "1", "--trials", "1",
      "--seed", "99"], "trials", "verify all and verify sigma"),
    (["verify", "certificate", "--seed", "99"],
     "seed", "verify all and verify sigma"),
    (["verify", "certificate", "--max-generators", "6"],
     "max-generators", "verify all"),
    (["verify", "sigma", "--max-generators", "1", "--trials", "2"],
     "max-generators", "verify all"),
    (["grope", "class", "({* *})", "--tip", "0L", "--names", "a", "--closed"],
     "names", "grope boundary"),
    (["grope", "duals", "({* *})", "--names", ""], "names", "grope boundary"),
    (["grope", "class", "({* *})", "--tip", "0L"], "tip", "grope duals"),
    (["grope", "dot", "({* *})", "--tip", ""], "tip", "grope duals"),
    (["grope", "boundary", "({* *})", "--closed"], "closed", "grope dot"),
    (["grope", "duals", "({* *})", "--closed"], "closed", "grope dot"),
    (["link", "trivial", "hopf", "--index", "1,2"], "index", "link mu"),
    (["link", "almost-trivial", "borromean", "--index", "1,2,3"], "index",
     "link mu"),
    (["link", "show", "nonsense", "--index", ""], "index", "link mu"),
], ids=["certificate-lhat", "all-lhat-q-target", "all-q", "certificate-target",
        "certificate-trials-seed-generators", "certificate-seed",
        "certificate-generators", "sigma-generators",
        "class-names-tip-closed", "duals-empty-names", "class-tip",
        "dot-empty-tip", "boundary-closed", "duals-closed", "trivial-index",
        "almost-trivial-index", "show-empty-index"])
def test_an_option_its_action_never_reads_is_refused(capsys, argv, option,
                                                     reader):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (
        2, "", "error: --%s is read only by %s\n" % (option, reader))


@pytest.mark.parametrize("argv, answer", [
    (["milnor", "expand", "m1^" + "0" * 5000 + "1"], "1 + y1"),
    (["milnor", "expand", "1^" + "9" * 5000], "1"),
    (["grope", "duals", "({* *})", "--tip", "0" * 5000 + "L"],
     "class 2, rank 2\ntip 0L         class 2   2 >= 2 ok    ({* *})"),
    (["link", "mu", "borromean", "--index", "0" * 5000 + "2,3,1"], "1"),
], ids=["zeros-power", "identity-long-power", "zeros-tip", "zeros-index"])
def test_long_digit_strings_answer(capsys, argv, answer):
    # Python's int() of a str stops at 4300 digits; no parser meets that limit
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (0, answer + "\n", "")


@pytest.mark.parametrize("action", ["expand", "nf", "equal", "lcs-degree", "rinv"])
@pytest.mark.parametrize("name, message", [
    ("m" + "1" * 4400, "generator m%s out of range" % ("1" * 4400)),
    ("m" + "9" * 19, "generator m%s out of range" % ("9" * 19)),
    ("m" + "0" * 5000 + "2", "generator 'm%s2' is not in the alphabet "
     "('m1',)" % ("0" * 5000)),
    ("m02", "generator 'm02' is not in the alphabet ('m1',)"),
], ids=["4400-digits", "past-maxsize", "leading-zeros", "m02"])
def test_inferred_alphabets_read_long_generator_indices(capsys, monkeypatch,
                                                        action, name, message):
    # the inferred alphabet never meets Python's limit on int() of a str;
    # a lost refusal would build sys.maxsize names, so the test stops that
    def small_alphabet(s, prefix="m"):
        assert s < 10 ** 6, "an alphabet of %d generators" % s
        return default_alphabet(s, prefix)
    monkeypatch.setattr(mgk.milnor, "default_alphabet", small_alphabet)
    words = [name] * (2 if action == "equal" else 1)
    code, out, err = run(capsys, "milnor", action, *words)
    assert (code, out, err) == (2, "", "error: %s\n" % message)
    assert "set_int_max_str_digits" not in err


@pytest.mark.parametrize("argv", [
    ["milnor", "expand", "m1", "--gens", "4097"],
    ["milnor", "nf", "m1", "--gens", "1000000000"],
    ["milnor", "expand", "m4097"],
    ["milnor", "equal", "m1", "[m2,m%d]" % (10 ** 18)],
    ["link", "trivial", "unlink(4097)"],
    ["link", "show", "unlink(%s)" % ("9" * 5000)],
], ids=["gens", "gens-billion", "inferred", "inferred-in-second-word",
        "unlink", "unlink-5000-digits"])
def test_an_alphabet_over_the_budget_is_one_error_line(capsys, monkeypatch,
                                                       argv):
    # a lost refusal would build the names first; the test stops that
    def small_alphabet(s, prefix="m"):
        assert s <= mgk.milnor.MAX_GENERATORS, "an alphabet of %d generators" % s
        return default_alphabet(s, prefix)
    monkeypatch.setattr(mgk.milnor, "default_alphabet", small_alphabet)
    monkeypatch.setattr(mgk.links, "default_alphabet", small_alphabet)
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", "error: alphabet larger than the "
                                "generator limit of 4096 generators\n")


def test_an_alphabet_at_the_budget_answers(capsys, monkeypatch):
    assert run(capsys, "milnor", "expand", "m4096")[:2] == (0, "1 + y4096\n")
    assert run(capsys, "milnor", "expand", "m1", "--gens", "4096")[:2] == (
        0, "1 + y1\n")
    # the catalog's unlink shares the budget; a small one keeps this quick
    monkeypatch.setattr(mgk.milnor, "MAX_GENERATORS", 8)
    assert run(capsys, "link", "trivial", "unlink(8)")[:2] == (0, "true\n")
    assert run(capsys, "link", "trivial", "unlink(9)") == (
        2, "", "error: alphabet larger than the generator limit of 8 generators\n")


def test_compose_over_the_letter_budget_is_one_error_line(capsys, tmp_path):
    lhat, q = over_budget_composition()
    save_link(lhat, tmp_path / "lhat.json")
    save_link(q, tmp_path / "q.json")
    code, out, err = run(capsys, "compose", str(tmp_path / "lhat.json"),
                         str(tmp_path / "q.json"))
    assert (code, out, err) == (
        2, "", "error: word longer than the letter limit of 4194304 letters\n")
