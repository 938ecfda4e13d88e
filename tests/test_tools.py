"""Smoke test of tools/identity.py: two runs on two fixture spectra print
the same digest for every part."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_identity_digests_repeat_and_cover_every_part():
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    cmd = [sys.executable, str(ROOT / "tools" / "identity.py"), "--limit", "2"]
    runs = [subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
            for _ in range(2)]
    for run in runs:
        assert run.returncode == 0, run.stderr[-2000:]
    assert runs[0].stdout == runs[1].stdout
    lines = [line.split() for line in runs[0].stdout.splitlines()]
    assert [part for part, _ in lines] == [
        f"{decoder}/{checkpoint}" for checkpoint in ("trained", "untrained")
        for decoder in ("greedy", "beam5", "nat-pmc")
    ] + ["train/trained", "train/untrained", "build"]
    assert all(re.fullmatch("[0-9a-f]{64}", digest) for _, digest in lines)
