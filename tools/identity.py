"""Digests of what the program computes on the benchmark fixture, to check
that two source trees agree bit for bit.

    python tools/identity.py [--src DIR] [--limit N] [--dump PART | --against DIR]

Imports ``pepseq`` from DIR (default: the ``src/`` beside this tool) and
prints one ``PART sha256`` line per part. A part's digest is taken over its
lines, in which every float is written exactly, by ``float.hex``:

* ``greedy/C``, ``beam5/C`` and ``nat-pmc/C``, for each fixture checkpoint C
  (``trained``, ``untrained``): each spectrum of ``bench/fixture/spectra.mgf``
  decoded greedily (peptide, confidence, total log-probability, finished),
  by beam search of width 5 (every hypothesis returned, in order) and by
  nat-pmc at bin 0.001 Da (peptide, log-probability, feasible flag,
  confidence);
* ``beam5-pool/C``: beam search of width 5 on each spectrum of
  ``bench/fixture/pool.mgf``, lines as in ``beam5/C``. Out of distribution
  there, the kept hypotheses end at many different lengths;
* ``train/C``: the losses of two stage-1 steps and then two stage-2 steps,
  each on the first 10 spectra, from C's weights and fresh AdamW state,
  mid-schedule as in the benchmark;
* ``build``: the checkpoint of ``Model.build(ModelConfig(), AminoAcidTable(),
  seed=0)``, as the digest of its bytes and of each array.

The beam width, nat-pmc settings, batch size and training schedule are the
benchmark's, read from ``bench/worker.py``. ``--limit N`` runs on the first N
spectra only. ``--dump PART`` prints the lines behind PART's digest instead of
the digests.

``--against DIR`` compares two trees: it then computes the lines of the
``pepseq`` in DIR too, in a child process with the same ``--limit``, and
prints ``PART DIGEST DIR_DIGEST`` and ``same`` or ``DIFF`` per part, exiting
1 if any part differs. A differing part whose lines differ only in float
fields gets one more field, ``max_rel=X``: the largest relative difference
|a - b| / max(|a|, |b|) of those floats, so a change that moves a digest by
rounding says how far in the same run. DIR may be the ``src/`` of a ``git
archive`` of the parent commit in a scratch directory, say. ``--dump`` on
each tree and a ``diff`` then show which lines of a differing part moved.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))
# worker imports no pepseq until a function of it runs, so --src still picks the tree.
from worker import (BASE_LR, BATCH, BEAM_WIDTH, FINETUNE_LR, FIXTURE, PMC_BIN,  # noqa: E402
                    PMC_TOLERANCE, new_state)

CHECKPOINTS = ("trained", "untrained")
FLOAT = re.compile(r"-?(0x[0-9a-f]+(\.[0-9a-f]*)?p[+-]\d+|inf|nan)")  # what _hex writes


def _hex(x) -> str:
    return float(x).hex()


def float_gap(ours: list[str], theirs: list[str]) -> float | None:
    """The largest relative difference between the float fields of two
    parts' lines, or None if a line or any other field differs. A float that
    is not finite on one side and differs is infinitely far."""
    if len(ours) != len(theirs):
        return None
    gap = 0.0
    for line, other in zip(ours, theirs):
        fields, others = line.split(), other.split()
        if len(fields) != len(others):
            return None
        for a, b in zip(fields, others):
            if a == b:
                continue
            if not (FLOAT.fullmatch(a) and FLOAT.fullmatch(b)):
                return None
            x, y = float.fromhex(a), float.fromhex(b)
            if x != y:
                finite = math.isfinite(x) and math.isfinite(y)
                gap = max(gap, abs(x - y) / max(abs(x), abs(y)) if finite else math.inf)
    return gap


def _load(name: str):
    from pepseq.network import Model
    from pepseq.params import load_checkpoint

    return Model.from_checkpoint_blob(*load_checkpoint(str(FIXTURE / f"{name}.ckpt")))


def beam_lines(model, spectra) -> list[str]:
    from pepseq.decoding import beam_search_at

    max_len, lines = model.cfg.t_max - 2, []
    for s in spectra:
        for rank, r in enumerate(beam_search_at(model, s, BEAM_WIDTH, max_len)):
            lines.append(f"{s.spectrum_id} {rank} {r.peptide} {_hex(r.confidence)} "
                         f"{_hex(r.total_logp)} {r.finished}")
    return lines


def decode_parts(model, spectra) -> dict[str, list[str]]:
    from pepseq.decoding import greedy_at_decode, nat_pmc_decode

    max_len = model.cfg.t_max - 2
    greedy, beam, pmc = [], [], []
    for s in spectra:
        r = greedy_at_decode(model, s, max_len)
        greedy.append(f"{s.spectrum_id} {r.peptide} {_hex(r.confidence)} {_hex(r.total_logp)} "
                      f"{r.finished}")
        beam += beam_lines(model, [s])
        result, conf = nat_pmc_decode(model, s, tolerance=PMC_TOLERANCE, bin_width=PMC_BIN)
        pmc.append(f"{s.spectrum_id} {result.peptide} {_hex(result.log_prob)} {result.feasible} "
                   f"{_hex(conf)}")
    return {"greedy": greedy, f"beam{BEAM_WIDTH}": beam, "nat-pmc": pmc}


def train_lines(model, spectra) -> list[str]:
    from pepseq.training import FeatureCache, finetune_stage2_step, train_stage1_step

    batch, lines = spectra[:BATCH], []
    for partition in ("enc", "nat"):  # the trained checkpoint was saved after stage 2
        model.store.unfreeze(partition)
    stage1 = new_state(model, BASE_LR)
    for _ in range(2):
        row = train_stage1_step(model, batch, stage1)
        lines.append(f"stage1 {row['step']} {_hex(row['at_loss'])} {_hex(row['nat_loss'])}")
    for partition in ("enc", "nat"):
        model.store.freeze(partition)
    stage2, cache = new_state(model, FINETUNE_LR), FeatureCache(model)
    for _ in range(2):
        row = finetune_stage2_step(model, batch, stage2, cache)
        lines.append(f"stage2 {row['step']} {_hex(row['at_loss'])}")
    return lines


def build_lines() -> list[str]:
    from pepseq.network import Model, ModelConfig
    from pepseq.params import save_checkpoint
    from pepseq.spectra import AminoAcidTable

    model = Model.build(ModelConfig(), AminoAcidTable(), seed=0)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "build.ckpt"
        save_checkpoint(str(path), model.store, model.metadata())
        data = path.read_bytes()
    return [f"file {hashlib.sha256(data).hexdigest()}"] + [
        f"{key} {t.values.shape} {hashlib.sha256(t.values.tobytes()).hexdigest()}"
        for key, t in model.store.items()]


def parts(limit: int | None) -> dict[str, list[str]]:
    from pepseq.mgf import parse_mgf
    from pepseq.spectra import AminoAcidTable

    spectra, pool = (parse_mgf((FIXTURE / f).read_text(), AminoAcidTable())[:limit]
                     for f in ("spectra.mgf", "pool.mgf"))
    out = {}
    for name in CHECKPOINTS:
        for decoder, lines in decode_parts(_load(name), spectra).items():
            out[f"{decoder}/{name}"] = lines
    for name in CHECKPOINTS:
        out[f"beam{BEAM_WIDTH}-pool/{name}"] = beam_lines(_load(name), pool)
    for name in CHECKPOINTS:
        out[f"train/{name}"] = train_lines(_load(name), spectra)
    out["build"] = build_lines()
    return out


def _digest(lines: list[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="directory holding pepseq")
    parser.add_argument("--limit", type=int, default=None, help="use the first N spectra only")
    shown = parser.add_mutually_exclusive_group()
    shown.add_argument("--dump", metavar="PART", help="print the lines behind PART's digest")
    shown.add_argument("--against", type=Path, metavar="DIR",
                       help="compare each digest with that of the pepseq in DIR")
    shown.add_argument("--lines", action="store_true", help=argparse.SUPPRESS)  # --against's child
    args = parser.parse_args(argv)
    if args.limit is not None and args.limit < 1:
        parser.error(f"--limit must be at least 1, got {args.limit}")
    src = args.src.resolve()
    sys.path.insert(0, str(src))
    import pepseq

    if Path(pepseq.__file__).resolve().parents[1] != src:
        parser.error(f"pepseq was imported from {pepseq.__file__}, not from {src}")
    found = parts(args.limit)
    if args.dump is not None:
        if args.dump not in found:
            parser.error(f"no part {args.dump!r}; the parts are {', '.join(found)}")
        print("\n".join(found[args.dump]))
        return 0
    if args.lines:
        print(json.dumps(found))
        return 0
    if args.against is None:
        for part, lines in found.items():
            print(part, _digest(lines))
        return 0
    cmd = [sys.executable, __file__, "--src", str(args.against), "--lines"]
    other = subprocess.run(cmd + ["--limit", str(args.limit)] * (args.limit is not None),
                           stdout=subprocess.PIPE, text=True)
    if other.returncode:
        parser.error(f"the run on {args.against} exited with {other.returncode}")
    theirs = json.loads(other.stdout)
    differ = False
    for part, lines in found.items():
        digest, other_digest = _digest(lines), _digest(theirs[part]) if part in theirs else "-"
        row = [part, digest, other_digest, "same" if digest == other_digest else "DIFF"]
        if digest != other_digest:
            differ = True
            gap = float_gap(lines, theirs.get(part, []))
            if gap is not None:
                row.append(f"max_rel={gap:.3g}")
        print(*row)
    return int(differ)


if __name__ == "__main__":
    sys.exit(main())
