#!/usr/bin/env python3
"""Traced one-off runs too long for a benchmark round.

    python3 perfbench/reference.py deg8     # degree-8 seed 10, about 6 min
    python3 perfbench/reference.py search   # segre search --dims 2,4 --target 9,6, about 2 min

Each prints the per-layer metrics of the one traced call (the same
names as ``run.py --trace 1``), its wall time and a check of its
result, and writes them to ``perfbench/out/reference_<name>.json``.
"""

import json
import os
import sys
import time

import run  # sets the single-thread environment before numpy loads

import checks
import workloads
from tracing import Tracer

DEG8_SEED = 10


def deg8():
    from tensorid import waring

    spec = waring.WaringSpec(d=8, n=2, r=15)
    start, tensor = waring.random_real_start(spec, seed=DEG8_SEED)
    registry = waring.enumerate_decompositions(spec, start, tensor, seed=DEG8_SEED)
    decs = [workloads.dec_arrays(dec) for dec in registry.solutions]
    real, auto, pair = checks.realness_classes(decs)
    return {"decompositions": len(decs), "real": real, "autoconjugate": auto,
            "conjugate_pair_members": pair, "warning": registry.warning,
            "correct": len(decs) == 16 and real == 1}


def search():
    from tensorid import segre

    space, result = segre.search_signature(segre.SegreSpec((2, 4)), (9, 6), seed=0)
    return {"signature": list(result.signature), "points": len(result.points),
            "correct": tuple(result.signature) == (9, 6) and len(result.points) == 15}


RUNS = {"deg8": deg8, "search": search}


def main(argv):
    if len(argv) != 1 or argv[0] not in RUNS:
        print(__doc__, file=sys.stderr)
        return 2
    run.import_program()

    tracer = Tracer()
    t = time.perf_counter()
    with tracer.installed(), tracer.root():
        outcome = RUNS[argv[0]]()
    wall = time.perf_counter() - t
    report = {
        "run": argv[0],
        "wall_s": wall,
        "outcome": outcome,
        "metrics": {k: v for k, (v, _) in tracer.metrics(1).items()},
    }
    os.makedirs(workloads.OUT_DIR, exist_ok=True)
    with open(os.path.join(workloads.OUT_DIR, f"reference_{argv[0]}.json"), "w") as fh:
        json.dump(report, fh, indent=1)
    print(json.dumps(report, indent=1))
    return 0 if outcome["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
