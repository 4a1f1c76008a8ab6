"""Smoke test: the benchmark runs against this tree and its self-checks pass."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


# ladder-4k with --trace 1 checks every call count, shift draws included
@pytest.mark.slow
@pytest.mark.parametrize("workload,trace", [("noisy-65k", "0"), ("ladder-4k", "1")])
def test_perfbench_runs_and_passes_its_checks(workload, trace, tmp_path):
    script = ROOT / "perfbench" / "run.py"
    proc = subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--trace", trace]
        + ["--seed", "1", "--seconds", "0.1", "--out", str(tmp_path)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, result
