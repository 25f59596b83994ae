"""Layered benchmark of omegapoly.

Run from the root of a checkout:

    python3 perfbench/run.py --workload census --seed 1 --seconds 25 --trace 0

One process, one thread.  It imports omegapoly from ./src, builds the
workload's inputs from the seed, then runs passes over the fixed input
set until --seconds have gone by (at least one pass), checking every
answer outside the timed region.  Workloads are described in
workloads.py; layers in layers.py.

Times are in reference-speed seconds: raw times scaled by calibration
chunks taken around them (calibrate.py), which cancels most of the
slowdown other tenants of a shared host cause.  The raw medians and the
median scale are printed on the perfbench-info line.

--trace 0 prints the end-to-end metrics:
  setup_s      median over SETUP_SAMPLES fresh processes of the time from
               spawn to exit of a process that imports omegapoly, builds
               the inputs and stops
  wall_s       median over passes of the wall time of one pass
  op_p50_ms    median over passes of the median latency of an operation
               in the pass
  op_p90_ms    the same for the 90th percentile (census has one
               operation a pass, so its op_p90_ms is its op_p50_ms);
               the op sample count is printed
  ok_ratio     operations that succeeded over operations attempted;
               1 - ok_ratio is the failure ratio
  peak_rss_mb  peak resident memory of this process (ru_maxrss)
An operation is one is_face call (faces), one certified pair (verify),
one clique-solve CLI call (cliques), or the whole census command.

--trace 1 runs half the time untraced and half traced and prints the
per-layer metrics of layers.py, per traced pass (raw seconds), plus:
  trace.overhead_s    traced minus untraced median pass wall time
  machine.ref_loop_s  median raw time of one calibration chunk, to show
                      machine speed drift
  process.cpu_s       median raw CPU time of one pass
Nothing here waits on a queue, so there is no wait-time metric.

The last line of stdout is the JSON result; the line before it,
starting "perfbench-info", records the Python version, nproc, seed,
pass count, exact counts and output digests.  Exit status is 0 when a
result is printed and 2 when the benchmark cannot run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import calibrate

SETUP_SAMPLES = 7
WORKDIR = ".perfbench_work"


def run_passes(workload, inputs, seconds, tracer=None, inside=True):
    """Passes until seconds have gone by; one record per pass.

    A record holds raw seconds (wall, cpu, ops), without the calibration
    chunks taken inside the pass, and reference-speed seconds (scaled_wall,
    scaled_ops; calibrate.py).  With inside false, chunks are taken only
    at the ends of a pass.
    """
    records = []
    cal = calibrate.Calibrator()
    between = cal.between_ops if inside else (lambda: None)
    deadline = time.perf_counter() + seconds
    while not records or time.perf_counter() < deadline:
        cal.start_pass()
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        if tracer is None:
            ops, answers = workload.run(inputs, between)
        else:
            with tracer:
                ops, answers = workload.run(inputs, between)
        wall = time.perf_counter() - t0
        cpu = time.process_time() - cpu0
        ops = ops or [wall]  # a pass that crashed before its first op
        raw, scaled_wall, scaled_ops = cal.end_pass(wall, ops)
        records.append({"wall": raw, "cpu": cpu - (wall - raw), "ops": ops,
                        "scaled_wall": scaled_wall, "scaled_ops": scaled_ops,
                        "outcome": workload.check(inputs, answers)})
    return records, cal.history


def scaled_wall(records):
    return statistics.median(r["scaled_wall"] for r in records)


def op_quantile(records, quantile):
    """Median over passes of one quantile of each pass's scaled ops."""
    return statistics.median(quantile(r["scaled_ops"]) for r in records)


def setup_seconds(args) -> float:
    """Median spawn-to-exit time of fresh processes that only set up.

    Each time is scaled by calibration chunks taken around it.
    """
    cmd = [sys.executable, os.path.abspath(__file__), "--workload",
           args.workload, "--seed", str(args.seed), "--setup-only"]
    cal = calibrate.Calibrator()
    samples = []
    for _ in range(SETUP_SAMPLES):
        cal.start_pass()
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=120)
        samples.append(cal.end_pass(time.perf_counter() - t0, [])[1])
        if proc.returncode != 0 or proc.stdout.strip() != "ready":
            raise RuntimeError("set-up process failed: %s" % (proc.stderr,))
    return statistics.median(samples)


def summarize(records):
    """Totals over passes, plus one failure message if there was any.

    A pass whose counts or digest differ from the first pass's counts as
    wrong, since every pass sees the same inputs.
    """
    first = records[0]["outcome"]
    attempted = failed = wrong = 0
    example = ""
    for rec in records:
        out = rec["outcome"]
        attempted += out.attempted
        failed += out.failed
        wrong += out.wrong
        example = example or out.first_failure
        if (out.counts, out.digest) != (first.counts, first.digest):
            wrong += 1
            example = example or "pass output differs from the first pass"
    return attempted, failed, wrong, example


def percentile90(samples):
    if len(samples) < 2:
        return samples[0]
    return statistics.quantiles(samples, n=10, method="inclusive")[-1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "omegapoly", "__init__.py")):
        print("perfbench: no src/omegapoly under %s; run from the root of "
              "an omegapoly checkout" % (root,), file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import omegapoly
    import layers
    import workloads
    if os.path.dirname(os.path.abspath(omegapoly.__file__)) != \
            os.path.join(src, "omegapoly"):
        print("perfbench: omegapoly was imported from %s, not from %s"
              % (omegapoly.__file__, src), file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print("perfbench: unknown workload %r; choose from %s"
              % (args.workload, ", ".join(workloads.WORKLOADS)),
              file=sys.stderr)
        return 2

    if args.setup_only:
        workload.setup(args.seed, os.path.join(root, WORKDIR, "setup"))
        print("ready")
        return 0

    try:
        inputs = workload.setup(args.seed, os.path.join(root, WORKDIR, "main"))
        if args.trace:
            # No chunks inside a traced pass, as they would count in the
            # spans around them; none inside the untraced passes either,
            # so that both halves are scaled alike.
            plain, chunks = run_passes(workload, inputs, args.seconds / 2,
                                       inside=False)
            tracer = layers.Tracer()
            traced, more = run_passes(workload, inputs, args.seconds / 2,
                                      tracer, inside=False)
            chunks += more
        else:
            setup_s = setup_seconds(args)
            plain, chunks = run_passes(workload, inputs, args.seconds)
            traced = []
    finally:
        shutil.rmtree(os.path.join(root, WORKDIR), ignore_errors=True)

    records = plain + traced
    attempted, failed, wrong, failure_example = summarize(records)
    wall = scaled_wall(plain)
    if args.trace:
        values = tracer.metrics(len(traced))
        values["trace.overhead_s"] = (scaled_wall(traced) - wall, "s")
        values["machine.ref_loop_s"] = (statistics.median(chunks), "s")
        values["process.cpu_s"] = (
            statistics.median(r["cpu"] for r in plain), "s")
    else:
        values = {
            "setup_s": (setup_s, "s"),
            "wall_s": (wall, "s"),
            "op_p50_ms": (1000 * op_quantile(plain, statistics.median),
                          "ms"),
            "op_p90_ms": (1000 * op_quantile(plain, percentile90), "ms"),
            "ok_ratio": ((attempted - failed) / attempted, "ratio"),
            "peak_rss_mb": (resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit) in values.items()}

    first = records[0]["outcome"]
    info = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "passes": len(plain), "traced_passes": len(traced),
        "op_samples": sum(len(r["ops"]) for r in plain),
        "raw_wall_s": statistics.median(r["wall"] for r in plain),
        "raw_op_p50_ms": 1000 * statistics.median(
            op for r in plain for op in r["ops"]),
        "scale": statistics.median(r["scaled_wall"] / r["wall"]
                                   for r in plain),
        "counts": first.counts,
        "digest": first.digest, "failure_example": failure_example,
    }
    if args.trace:
        info["layer_targets"] = {"%s.%s" % (m, f): why
                                 for m, f, why in layers.LAYERS}
        info["count_targets"] = {name: why for name, _, why in layers.COUNTS}
    print("workload %s, seed %d: %d passes, %d traced, %d op samples"
          % (args.workload, args.seed, len(plain), len(traced),
             info["op_samples"]))
    for name, m in metrics.items():
        print("  %-52s %14.6f %s" % (name, m["value"], m["unit"]))
    print("perfbench-info " + json.dumps(info, sort_keys=True))
    print(json.dumps({"correct": wrong == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
