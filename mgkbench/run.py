"""The mgk benchmark: closed-loop command workloads, end to end and per layer.

    python3 mgkbench/run.py --workload {sweep,expand,links,trees} \
        --seed N --seconds S --trace {0,1}

Run it from the root of a checkout; it imports `mgk` from `src/` there
and writes only under `.mgkbench_work/` there.  Each pass runs one
workload's fixed op list in a fresh child process (see child.py), with
one client and no threads.  Passes repeat until S seconds have gone by,
and at least three run, so set-up is measured several times.

With `--trace 0` the end-to-end metrics are medians over the passes,
latency percentiles are taken over the ops of all passes, and every op's
answer is checked.  Times are scaled to a reference machine speed (see
child.py); the unscaled ones are printed next to them.  With `--trace 1` untraced and traced passes
alternate; the per-layer metrics are medians over the traced passes, and
`trace.overhead_s` is the traced minus the untraced median wall time.
Traced answers must be byte-identical to untraced ones.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  The exit code is 0 when every
answer was right, 1 when one was not, and 2 when the benchmark could not
run at all (for example when `src/mgk` is missing).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads  # noqa: E402

# (name, unit) of the end-to-end metrics, as BENCHMARK.json lists them
END_TO_END = [("wall_s", "s"), ("op_p50_ms", "ms"), ("op_p90_ms", "ms"),
              ("peak_rss_mb", "MB"), ("setup_s", "s")]
MIN_PASSES = 3
MIN_OPS = 100
# No pass starts after this many seconds; a run must end within 180 s.
LAST_START_S = 120.0
CHILD_TIMEOUT_S = 170.0


def child_env(root):
    """A fixed environment: mgk from the checkout, no generator guard
    override, a fixed hash seed."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("MGK_MAX_GENERATORS", "PYTHONPATH", "PYTHONHASHSEED",
                        "PYTHONSTARTUP", "PYTHONWARNINGS")}
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_pass(args, root, rundir, index, traced, remaining):
    passdir = os.path.join(rundir, "pass%d" % index)
    os.mkdir(passdir)
    result_path = os.path.join(passdir, "result.json")
    cmd = [sys.executable, os.path.join(HERE, "child.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--scale", args.scale, "--trace", "1" if traced else "0",
           "--workdir", passdir, "--result", result_path]
    if traced:
        cmd += ["--spans", os.path.join(os.path.dirname(rundir),
                                        "spans-%s.jsonl" % args.workload)]
    elif args.corrupt_op is not None:
        cmd += ["--corrupt-op", str(args.corrupt_op)]
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=root, env=child_env(root),
                              stdin=subprocess.DEVNULL, capture_output=True,
                              text=True, timeout=max(5.0, remaining))
    except subprocess.TimeoutExpired:
        return None, "pass %d timed out" % index
    if proc.returncode != 0 or not os.path.exists(result_path):
        return None, "pass %d exited with %d: %s" % (
            index, proc.returncode, proc.stderr.strip()[-2000:])
    with open(result_path) as fh:
        result = json.load(fh)
    result["raw_setup_s"] = result["setup_end_monotonic"] - start
    result["setup_s"] = result["raw_setup_s"] * result["setup_scale"]
    return result, None


def percentile(values, q):
    """The q-th percentile (q in 1..99) of at least two values."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(passes):
    latencies_ms = [t * 1000.0 for p in passes for t in p["latencies_s"]]
    return {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "op_p50_ms": statistics.median(latencies_ms),
        "op_p90_ms": percentile(latencies_ms, 90),
        "peak_rss_mb": statistics.median(p["peak_rss_kb"] / 1024.0
                                         for p in passes),
        "setup_s": statistics.median(p["setup_s"] for p in passes),
    }


def print_classes(passes):
    """Median latency per op class: the scaling curve across sizes."""
    by_label = {}
    for p in passes:
        for label, t in zip(p["labels"], p["latencies_s"]):
            by_label.setdefault(label, []).append(t * 1000.0)
    for label, values in by_label.items():
        print("  %-34s %6d ops  median %10.3f ms  max %10.3f ms"
              % (label, len(values), statistics.median(values), max(values)))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", default="full", choices=sorted(workloads.SIZES),
                        help="input sizes; 'tiny' is for the self-tests")
    parser.add_argument("--corrupt-op", type=int,
                        help="alter this op's answer before the checks")
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "mgk", "__init__.py")):
        print("error: run from the root of a checkout: src/mgk is missing "
              "under %s" % root, file=sys.stderr)
        return 2
    work = os.path.join(root, ".mgkbench_work")
    os.makedirs(work, exist_ok=True)
    rundir = tempfile.mkdtemp(prefix="run-", dir=work)
    try:
        return measure(args, root, rundir)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)


def measure(args, root, rundir):
    untraced, traced, errors = [], [], []
    start = time.monotonic()
    index = 0
    while True:
        elapsed = time.monotonic() - start
        enough = (traced and untraced) if args.trace else (
            len(untraced) >= MIN_PASSES
            and sum(len(p["latencies_s"]) for p in untraced) >= MIN_OPS)
        if (enough and elapsed >= args.seconds) or elapsed > LAST_START_S:
            break
        is_traced = bool(args.trace) and index % 2 == 1
        result, error = run_pass(args, root, rundir, index, is_traced,
                                 CHILD_TIMEOUT_S - elapsed)
        index += 1
        if error:
            errors.append(error)
            break
        (traced if is_traced else untraced).append(result)

    passes = untraced + traced
    attempted = sum(len(p["latencies_s"]) for p in passes) + len(errors)
    failures = [f for p in passes for f in p["failures"]]
    failed = len(failures) + len(errors)
    digests = {tuple(p["digests"]) for p in passes}
    for error in errors:
        print("error: %s" % error, file=sys.stderr)
    for f in failures[:20]:
        print("wrong answer: %s" % json.dumps(f), file=sys.stderr)
    if len(digests) > 1:
        print("error: answers differ between passes of the same seed",
              file=sys.stderr)
    correct = failed == 0 and len(digests) == 1
    if not untraced or (args.trace and not traced):
        print("error: no pass completed", file=sys.stderr)
        return 2

    print("workload %s, seed %d: %d untraced and %d traced passes of %d ops"
          % (args.workload, args.seed, len(untraced), len(traced),
             len(untraced[0]["latencies_s"])))
    print("  pass wall_s: %s  (unscaled: %s)" % (
        " ".join("%.4f" % p["wall_s"] for p in untraced),
        " ".join("%.4f" % p["raw_wall_s"] for p in untraced)))
    print("  pass setup_s: %s  (unscaled: %s)" % (
        " ".join("%.4f" % p["setup_s"] for p in untraced),
        " ".join("%.4f" % p["raw_setup_s"] for p in untraced)))
    print_classes(untraced)
    e2e = end_to_end(untraced)
    samples = sum(len(p["latencies_s"]) for p in untraced)
    if args.trace:
        metrics = tracing.median_metrics([p["layers"] for p in traced])
        metrics["trace.overhead_s"] = (
            statistics.median(p["wall_s"] for p in traced) - e2e["wall_s"])
        units = {name: unit for name, unit, _ in tracing.LAYER_METRICS}
    else:
        metrics = e2e
        units = dict(END_TO_END)
    for name, value in metrics.items():
        note = ""
        if name == "op_p90_ms":
            note = "  (%d samples, %d beyond p90)" % (
                samples, sum(t * 1000.0 > value for p in untraced
                             for t in p["latencies_s"]))
        print("%-46s %14.6f %s%s" % (name, value, units[name], note))
    print("fail_ratio %.6f ratio (%d failed / %d attempted)"
          % (failed / attempted, failed, attempted))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed,
                      "metrics": {name: {"value": value, "unit": units[name]}
                                  for name, value in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
