"""One short run of the benchmark's real-sections workload, untraced and traced.

The benchmark imports the program from ``src/`` and its tracer wraps
functions by name, so a change under ``src/`` can break its output
checks or its tracing without any other test noticing.  Each run takes
a few seconds; its result files go to the ignored ``perfbench/out/``.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("trace, kind", [("0", "end_to_end"), ("1", "per_layer")])
def test_real_sections_run_is_correct_and_reports_every_metric(trace, kind):
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "real-sections", "--seed", "0",
         "--seconds", "1", "--trace", trace],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr[-2000:]
    result = json.loads(run.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[kind]
    assert {m["name"] for m in declared} <= set(result["metrics"])
