"""The benchmark's trace gate, run on the current source.

A traced benchmark run fails when a kernel that DOMINANT in perfbench/child.py
names for a workload records no call.  Each case runs the unmodified child
once, traced, as the benchmark does, so a change that takes a named kernel off
a workload's path fails here and not only in a benchmark run.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_calls_every_dominant_kernel(workload):
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")]))
    env.pop("COHOMOLAB_MAX_TERMS", None)
    argv = [sys.executable, str(ROOT / "perfbench" / "child.py"), workload, "1", "0",
            repr(time.monotonic()), "1"]
    proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    assert record["silent"] == []
    assert [job for job in record["jobs"] if job["error"] is not None] == []
