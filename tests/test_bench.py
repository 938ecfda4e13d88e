"""Smoke test of the benchmark: one short traced run of each child per
workload, the main child on all three and the nat-pmc child on the two decode
workloads.

The children check every output against ``bench/reference.json`` and wrap the
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


def traced_run(role, workload):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    cmd = [sys.executable, str(ROOT / "bench" / "worker.py"), role, "--workload", workload,
           "--seed", "0", "--seconds", "0.5", "--trace", "1",
           "--spawned-at", repr(time.monotonic())]
    run = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr[-2000:]
    result = json.loads(run.stdout.strip().splitlines()[-1])
    assert result["failed"] == 0, result["failures"]
    return result


@pytest.mark.parametrize("workload", ["train", "decode-trained", "decode-untrained"])
def test_traced_run_passes_every_check(workload):
    result = traced_run("main", workload)
    assert result["attempted"] > 0
    assert math.isfinite(result["layers"]["training.feature_cache_hit_ratio"])


@pytest.mark.parametrize("workload", ["decode-trained", "decode-untrained"])
def test_traced_pmc_run_decodes_the_whole_band_as_the_reference(workload):
    # Each of the four PMC band spectra is checked against the reference at
    # least once, so a DP change that alters one of them fails here.
    result = traced_run("pmc", workload)
    assert result["attempted"] >= 4
    assert result["layers"]["decoding.pmc_dp_ms_per_spectrum"] > 0
