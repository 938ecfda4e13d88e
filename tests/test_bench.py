"""Smoke test of the benchmark: one short traced run of its main child per
workload.

The child checks every output against ``bench/reference.json`` and wraps the
names ``bench/tracing.py`` traces, so a wrong loss, a decode that differs
from the reference on either checkpoint, or a renamed function fails here
before a benchmark run does.
"""

import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["train", "decode-trained", "decode-untrained"])
def test_traced_run_passes_every_check(workload):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    cmd = [sys.executable, str(ROOT / "bench" / "worker.py"), "main", "--workload", workload,
           "--seed", "0", "--seconds", "0.5", "--trace", "1",
           "--spawned-at", repr(time.monotonic())]
    run = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr[-2000:]
    result = json.loads(run.stdout.strip().splitlines()[-1])
    assert result["attempted"] > 0
    assert result["failed"] == 0, result["failures"]
    assert math.isfinite(result["layers"]["training.feature_cache_hit_ratio"])
