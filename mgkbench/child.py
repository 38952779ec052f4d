"""One pass of one workload, in a fresh process.

    python3 mgkbench/child.py --workload W --seed N --scale full \
        --trace 0 --workdir DIR --result FILE [--corrupt-op K]

Set-up (interpreter start, `import mgk`, input generation, writing the
link files) ends when the timed phase starts.  The ops then run one
after another in one thread, with stdout and stderr captured; nothing
is warmed up, so the program's caches start cold as they do for every
command-line user.  Op times are scaled to a reference machine speed
(see CAL_REF_S).  After the timed phase every answer is checked, and the
pass is written to FILE as JSON.  `--corrupt-op K` prefixes op K's answer
with "1" before the checks, which every check rejects, to show that a
wrong answer is counted.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import re
import resource
import statistics
import sys
import time

import workloads


# Speed calibration.  The speed of the machine the benchmark was written
# on drifts by tens of percent over minutes (other guests share its
# cores), and a pure-Python loop that does what the program does slows
# down with it.  The loop runs before the first op and again whenever
# CAL_EVERY_S of op time has passed; each op's time is multiplied by
# CAL_REF_S over the mean of the two loop timings around it, which gives
# seconds at a fixed reference speed.  CAL_REF_S is about the loop's time
# on that machine (2 cores, CPython 3.11) when it ran fast.
CAL_REF_S = 0.0006
CAL_EVERY_S = 0.02


class _Cell:
    __slots__ = ("key", "value")

    def __init__(self, key, value):
        self.key = key
        self.value = value


_TOKEN = re.compile(r"\s*([A-Za-z][A-Za-z0-9]*|\d+|[\[\](),'^-])")


def _calibration_loop():
    """Small versions of what `mgk` commands spend their time on:
    building and running an argument parser, tokenizing, products of
    tuple-keyed dicts with set tests, object allocation, JSON output."""
    parser = argparse.ArgumentParser(prog="calibration")
    sub = parser.add_subparsers(dest="command", required=True)
    cmd = sub.add_parser("expand")
    cmd.add_argument("word")
    cmd.add_argument("--gens", type=int)
    cmd.add_argument("--json", action="store_true")
    args = parser.parse_args(["expand", "[m1, m2' m3] m4^2", "--gens", "4"])
    tokens = _TOKEN.findall(args.word * 20)
    terms = {(i % 5, i % 7): i for i in range(40)}
    product = {}
    for mono, coeff in terms.items():
        used = set(mono)
        for var in ((1,), (2,), (3,), (8,), (9,)):
            if used & set(var):
                continue
            key = mono + var
            product[key] = product.get(key, 0) + coeff
    cells = [_Cell(i, (i, i + 1)) for i in range(200)]
    text = json.dumps({"terms": ["%d*%s" % (c.key, c.value[0]) for c in cells],
                       "tokens": tokens}, indent=2, sort_keys=True)
    return len(product) + len(text)


def calibrate():
    """Mean time of three runs of the calibration loop.  The cyclic
    collector is off meanwhile, so the loop's time does not depend on how
    many objects the program keeps alive."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(3):
            _calibration_loop()
        return (time.perf_counter() - start) / 3
    finally:
        if enabled:
            gc.enable()


def run_ops(ops, tracer):
    """Run the ops one after another.  Returns the outputs, exit codes, raw
    op times, op times scaled to the reference speed and the median
    calibration time."""
    import mgk.cli
    outs, codes, latencies = [], [], []
    calibrate()  # the first run of a fresh process is slow; discard it
    cals, marks, since = [calibrate()], [0], 0.0
    for index, op in enumerate(ops):
        if tracer is not None:
            tracer.op = index
        buf, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
                if op.argv is not None:
                    code = mgk.cli.main(op.argv)
                else:
                    buf.write(op.call())
                    code = 0
        except (Exception, SystemExit) as exc:
            code = "%s: %s" % (type(exc).__name__, exc)
        latencies.append(time.perf_counter() - start)
        outs.append(buf.getvalue())
        codes.append(code)
        since += latencies[-1]
        if since >= CAL_EVERY_S or index == len(ops) - 1:
            cals.append(calibrate())
            marks.append(index + 1)
            since = 0.0
    scaled = []
    for j in range(len(marks) - 1):
        factor = CAL_REF_S / ((cals[j] + cals[j + 1]) / 2)
        scaled += [t * factor for t in latencies[marks[j]:marks[j + 1]]]
    return outs, codes, latencies, scaled, statistics.median(cals)


def check_ops(ops, outs, codes):
    failures = []
    for index, (op, out, code) in enumerate(zip(ops, outs, codes)):
        try:
            ok = code == 0 and bool(op.check(out, outs))
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            ok, code = False, "check raised %s: %s" % (type(exc).__name__, exc)
        if not ok:
            failures.append({"op": index, "label": op.label, "code": code,
                             "argv": (op.argv or ["<api>"])[:2],
                             "out": out[:200]})
    return failures


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", default="full", choices=sorted(workloads.SIZES))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--corrupt-op", type=int)
    parser.add_argument("--spans")
    args = parser.parse_args(argv)

    import mgk
    src = os.path.realpath(os.path.join(os.getcwd(), "src"))
    if not os.path.realpath(mgk.__file__).startswith(src + os.sep):
        sys.exit("mgk was imported from %s, not from %s" % (mgk.__file__, src))
    ops = workloads.build(args.workload, args.seed, args.scale, args.workdir)

    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()

    setup_end = time.monotonic()
    outs, codes, raw, latencies, typical_cal = run_ops(ops, tracer)
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    digests = [hashlib.sha256(out.encode()).hexdigest()[:16] for out in outs]
    output_bytes = sum(len(out.encode()) for out in outs)
    if args.corrupt_op is not None:
        k = args.corrupt_op % len(outs)
        outs[k] = "1" + outs[k]
    failures = check_ops(ops, outs, codes)

    result = {"setup_end_monotonic": setup_end,
              "setup_scale": CAL_REF_S / typical_cal,
              "raw_wall_s": sum(raw), "wall_s": sum(latencies),
              "latencies_s": latencies, "labels": [op.label for op in ops],
              "peak_rss_kb": peak_rss_kb, "digests": digests,
              "failures": failures}
    if tracer is not None:
        result["layers"] = tracer.metrics(output_bytes)
        if args.spans:
            tracer.dump(args.spans)
    with open(args.result, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
