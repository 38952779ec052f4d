"""Self-tests of the benchmark, on tiny inputs.

    python3 -m pytest -q mgkbench
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)

# Metrics that must be nonzero on the workload a row of the layer table
# names (README.md); the tiny inputs still reach every one of them.
NONZERO = {
    "sweep": ["ring.mul.calls", "ring.add.calls", "milnor.magnus.calls",
              "milnor.normal_form.calls", "milnor.r_map.self_s",
              "milnor.r_inverse.self_s", "milnor.conjugation_action.self_s",
              "composition.verify_sigma.self_s",
              "composition.essentiality_certificate.self_s",
              "verify.run_all.self_s"],
    "expand": ["ring.mul.calls", "ring.format.self_s", "ring.peak_terms",
               "milnor.magnus.calls", "milnor.magnus.letters",
               "milnor.normal_form.calls"],
    "links": ["words.parse.self_s", "words.substitute.self_s",
              "words.ops.calls", "words.peak_letters",
              "links.is_homotopically_trivial.calls",
              "links.is_almost_trivial.self_s", "links.mu_bar.calls",
              "links.delete_component.calls", "links.expansions",
              "links.expansions_per_component", "links.io.self_s",
              "composition.compose.self_s",
              "composition.essentiality_certificate.self_s",
              "cli.main.self_s", "cli.output_bytes"],
    "trees": ["gropes.tree_text.calls", "gropes.grope_class.calls",
              "gropes.canonical.calls", "gropes.duals.self_s",
              "gropes.rerooted.self_s", "gropes.parse_tree.self_s",
              "gropes.boundary_word.self_s", "cli.main.self_s",
              "cli.output_bytes"],
}


def run_bench(cwd, *args):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def tiny(workload, trace, *extra):
    return run_bench(ROOT, "--workload", workload, "--seed", "3",
                     "--seconds", "0", "--trace", str(trace),
                     "--scale", "tiny", *extra)


def result_of(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_lists_the_workloads_and_metrics():
    import run
    import tracing
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] \
        == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] \
        == tracing.LAYER_METRICS


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_untraced_smoke_run(workload):
    proc = tiny(workload, 0)
    assert proc.returncode == 0, proc.stderr
    result = result_of(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 100
    assert {name: m["unit"] for name, m in result["metrics"].items()} \
        == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_smoke_run(workload):
    proc = tiny(workload, 1)
    assert proc.returncode == 0, proc.stderr
    result = result_of(proc)
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    assert {name: m["unit"] for name, m in metrics.items()} \
        == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    zero = [name for name in NONZERO[workload] if not metrics[name]["value"]]
    assert not zero
    if workload == "trees":
        assert metrics["ring.mul.calls"]["value"] == 0


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_corrupted_answer_is_counted(workload):
    proc = tiny(workload, 0, "--corrupt-op", "1")
    assert proc.returncode == 1
    result = result_of(proc)
    assert not result["correct"]
    assert result["failed"] >= 1
    assert "wrong answer" in proc.stderr
    ratio = [line for line in proc.stdout.splitlines()
             if line.startswith("fail_ratio")]
    assert ratio and float(ratio[0].split()[1]) > 0


def test_traced_answers_equal_untraced(tmp_path):
    digests = []
    for trace in (0, 1):
        out = tmp_path / ("result%d.json" % trace)
        env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"),
                   PYTHONHASHSEED="0")
        subprocess.run(
            [sys.executable, os.path.join(HERE, "child.py"),
             "--workload", "links", "--seed", "5", "--scale", "tiny",
             "--trace", str(trace), "--workdir", str(tmp_path),
             "--result", str(out)],
            cwd=ROOT, env=env, check=True, timeout=120)
        result = json.loads(out.read_text())
        assert not result["failures"]
        digests.append(result["digests"])
    assert digests[0] == digests[1]


def test_same_seed_same_inputs(tmp_path):
    def texts(seed):
        return [op.argv for op in workloads.build(
            "expand", seed, "full", str(tmp_path))]
    assert texts(4) == texts(4)
    assert texts(4) != texts(5)


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "mgkbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "mgkbench/run.py", "--workload", "trees",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_checks_agree_with_the_program():
    """The independent checks accept the program's answers on random
    inputs and reject altered ones."""
    import random

    import checks
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import mgk
    rng = random.Random(11)
    for _ in range(60):
        s = rng.randint(2, 5)
        letters = [("m%d" % rng.randint(1, s), rng.choice((1, -1)))
                   for _ in range(rng.randint(0, 16))]
        word = mgk.Word(letters)
        alphabet = mgk.default_alphabet(s)
        expansion = mgk.format_ring_element(mgk.magnus(word, alphabet))
        normal = "\n".join(mgk.normal_form(word, alphabet).describe())
        assert checks.check_expand(rng, expansion, letters, s)
        assert checks.check_nf(rng, normal, letters, s)
        assert not checks.check_expand(rng, "2" + expansion, letters, s)
    for _ in range(60):
        tree = workloads._sized_tree(rng, 3, rng.randint(2, 12))
        text = checks.tree_to_text(tree)
        parsed = mgk.parse_tree(text)
        assert mgk.tree_text(parsed) == text
        assert checks.parse_tree_text(text) == tree
        assert checks.tree_class(tree) == mgk.grope_class(parsed)
        assert checks.check_canonical(
            mgk.tree_text(mgk.canonical(parsed)), tree)
