"""The benchmark's own oracles in the test suite: a short run of each
workload checks every output it produces, so a change that breaks an
oracle fails here before any timed run."""

import json
import os
import subprocess
import sys

import pytest

RUN = os.path.join(os.path.dirname(__file__), "..", "bench", "run.py")


@pytest.mark.parametrize("workload", ["explore", "build", "codec"])
def test_bench_workload_passes_its_oracles(workload, tmp_path):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "1",
         "--seconds", "1", "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=300, check=False)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0, proc.stdout
