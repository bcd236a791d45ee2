#!/usr/bin/env python3
"""Benchmark of tensorid: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload waring-septic --seed 0 --seconds 40 --trace 0

Run it from the root of a checkout; the program is imported from
``src/``.  The run sets up the workload's inputs (several times, to
time the set-up), then repeats whole rounds of its operations while
another round fits in ``--seconds`` (at least one round), checks every
output, and prints as its last line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones.  Operation times
are at the reference speed of ``speedref.py``: each is rescaled by a
fixed kernel timed during it, so that the shared machine's changes of
speed cancel out; the plain wall-time figures are written beside them
in the result file.  ``setup_s`` is plain wall time.  With ``--trace 1``
the first round runs untraced and the following rounds traced; the
metrics are the per-layer ones of one traced round, in plain wall time,
and ``trace.overhead_s`` is the traced round's wall time minus the
untraced one's.  Results and traces are also written to
``perfbench/out/``.  Everything runs in this one process and thread.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

T0 = time.perf_counter()
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 3
# the import as run.py makes it, timed in a fresh interpreter
IMPORT_PROBE = ("import importlib, sys, time; t = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
                "[importlib.import_module('tensorid.' + m) for m in sys.argv[2:]]; "
                "print(time.perf_counter() - t)")
MODULES = ("poly", "homotopy", "monodromy", "waring", "realcert", "segre", "elliptic", "cli")


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def import_program():
    """Import tensorid from this checkout's sources, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "tensorid", "__init__.py")):
        raise SystemExit("perfbench: src/tensorid not found; run from the root of a checkout")
    sys.path.insert(0, SRC)
    import importlib

    for name in MODULES:
        module = importlib.import_module(f"tensorid.{name}")
        if not os.path.abspath(module.__file__).startswith(SRC + os.sep):
            raise SystemExit(f"perfbench: tensorid imported from {module.__file__}, not {SRC}")


def import_seconds() -> float:
    """Seconds to import tensorid's modules in a fresh interpreter."""
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, SRC, *MODULES],
                         capture_output=True, text=True, check=True, timeout=60)
    return float(out.stdout)


def run_round(rnd, times, problems, clock):
    """Run every operation once, timing each into times[i]; return the failures.

    A sample is (finished, seconds by ``clock``, wall start, wall end).
    """
    failed = 0
    for i, op in enumerate(rnd.ops):
        start, t = time.perf_counter(), clock()
        try:
            out = op.run()
        except rnd.failures as err:
            times[i].append((False, clock() - t, start, time.perf_counter()))
            failed += 1
            log(f"{op.label}: failed: {err}")
            continue
        times[i].append((True, clock() - t, start, time.perf_counter()))
        for problem in op.check(out):
            problems.append(f"{op.label}: {problem}")
    return failed


def op_samples(times):
    """One sample per operation of the round: its mean time over the rounds.

    The round's operations differ in cost severalfold, so quantiles over
    the raw samples would move with the number of rounds that fit; over
    one sample per operation they always fall between the same
    operations.  The mean, not the median, of the few rounds averages
    out more of the machine's second-to-second speed changes.
    """
    return [statistics.fmean(s[1] for s in op) for op in times if all(s[0] for s in op)]


def quartile(values, k):
    """k-th quartile (k = 2 is the median), inclusive interpolation."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[k - 1]


def end_to_end_metrics(setup_s, times) -> dict:
    """(value, unit) by name; times[i] holds operation i's samples, one per round."""
    samples = op_samples(times)
    completed = sum(s[0] for op in times for s in op)
    busy = sum(s[1] for op in times for s in op)
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (completed / busy, "1/s"),
        "op_p50_s": (quartile(samples, 2) if samples else 0.0, "s"),
        "op_p75_s": (quartile(samples, 3) if samples else 0.0, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def at_reference_speed(probe, times):
    """``times`` with each sample's seconds rescaled to the reference speed."""
    return [[(ok, probe.at_reference_speed(dt, a, b), a, b) for ok, dt, a, b in op]
            for op in times]


def per_layer_metrics(tracer, walls, traced_walls) -> dict:
    """Per-layer metrics of one traced round, plus the tracing overhead."""
    metrics = tracer.metrics(len(traced_walls))
    overhead = statistics.median(traced_walls) - statistics.median(walls)
    metrics["trace.overhead_s"] = (overhead, "s")
    return metrics


def as_json(metrics):
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    import_s = time.perf_counter() - T0
    import workloads
    from speedref import SpeedProbe
    from tracing import Tracer

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    build = workloads.WORKLOADS[args.workload]
    # The traced run reports plain wall time: the kernel would land in its spans.
    probe = None if args.trace else SpeedProbe()
    clock = time.perf_counter if probe is None else probe.now
    tracer = Tracer() if args.trace else None
    # Set-up, SETUP_REPEATS times: this process's import and more in fresh
    # interpreters, then the builds.  It stays in plain wall time: the import
    # is mostly file and memory work, which the kernel does not track.
    imports = [import_s] + [import_seconds() for _ in range(SETUP_REPEATS - 1)]
    if probe is not None:
        probe.start()
    try:
        builds = []
        for _ in range(SETUP_REPEATS):
            t = clock()
            rnd = build(args.seed)
            builds.append(clock() - t)
        setup_s = statistics.median(imports) + statistics.median(builds)

        times = [[] for _ in rnd.ops]
        problems, walls, traced_walls = [], [], []
        attempted = failed = 0
        start = time.perf_counter()
        while True:
            traced = tracer is not None and walls
            t = time.perf_counter()
            if traced:
                with tracer.installed(), tracer.root():
                    failed += run_round(rnd, times, problems, clock)
                traced_walls.append(time.perf_counter() - t)
            else:
                failed += run_round(rnd, times, problems, clock)
                walls.append(time.perf_counter() - t)
            attempted += len(rnd.ops)
            elapsed = time.perf_counter() - start
            longest = max(walls + traced_walls)
            if (tracer is None or traced_walls) and elapsed + longest > args.seconds:
                break
    finally:
        if probe is not None:
            probe.stop()

    completed = sum(s[0] for op in times for s in op)
    log(f"{args.workload} seed {args.seed}: {len(walls) + len(traced_walls)} rounds, "
        f"{attempted} operations, {failed} failed, {len(op_samples(times))} per-operation samples")
    for problem in problems:
        log(f"WRONG OUTPUT: {problem}")

    saved = {"import_s": imports, "build_s": builds}
    if tracer is None:
        saved["wall_metrics"] = as_json(end_to_end_metrics(setup_s, times))
        saved["kernel_samples"] = len(probe.samples)
        saved["kernel_median_s"] = statistics.median(dt for _, dt in probe.samples)
        saved["raw"] = {"ops": times, "kernel": probe.samples}
        times = at_reference_speed(probe, times)
        metrics = end_to_end_metrics(setup_s, times)
    else:
        metrics = per_layer_metrics(tracer, walls, traced_walls)
        self_sum = sum(tracer.self_seconds().values())
        root = tracer.spans["bench"].total
        if abs(self_sum - root) > 1e-6 * root:
            problems.append(f"trace self times add up to {self_sum:.6f} s, not {root:.6f} s")
            log(f"WRONG TRACE: {problems[-1]}")

    result = {
        "correct": not problems and completed > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": as_json(metrics),
    }
    os.makedirs(workloads.OUT_DIR, exist_ok=True)
    stem = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    with open(os.path.join(workloads.OUT_DIR, f"result_{stem}.json"), "w") as fh:
        json.dump({**result, **saved}, fh, indent=1)
    if tracer is not None:
        spans = {k: {"calls": s.calls, "total_s": s.total, "self_s": s.self_time}
                 for k, s in sorted(tracer.spans.items())}
        with open(os.path.join(workloads.OUT_DIR, f"trace_{stem}.json"), "w") as fh:
            json.dump({"rounds": len(traced_walls), "spans": spans,
                       "counts": dict(tracer.counts)}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
