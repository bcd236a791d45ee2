"""One short run of two benchmark workloads, untraced and traced.

The benchmark imports the program from ``src/`` and its tracer wraps
functions by name, so a change under ``src/`` can break its output
checks or its tracing without any other test noticing.  The
real-sections workload covers the section solvers and the point
queries; the waring-binary one covers the tracker and the monodromy
loops.  Each run takes a few seconds; its result files go to the
ignored ``perfbench/out/``.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RUNS = [("0", "end_to_end"), ("1", "per_layer")]


def _check_run(workload, trace, kind):
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", trace],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr[-2000:]
    result = json.loads(run.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[kind]
    assert {m["name"] for m in declared} <= set(result["metrics"])


@pytest.mark.parametrize("trace, kind", RUNS)
def test_real_sections_run_is_correct_and_reports_every_metric(trace, kind):
    _check_run("real-sections", trace, kind)


@pytest.mark.parametrize("trace, kind", RUNS)
def test_waring_binary_run_is_correct_and_reports_every_metric(trace, kind):
    _check_run("waring-binary", trace, kind)
