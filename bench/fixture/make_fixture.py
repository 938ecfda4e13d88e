"""Regenerate the benchmark fixture: two corpora and two checkpoints.

The recipe is acceptance test 8's: spectra drawn with rng 1234 (lengths
5-8), model seed 7, batch order rng 99, 2000 stage-1 steps, then 200 epochs
of five stage-2 batches. The spectra are written to MGF first and training
runs on the parsed copy, so the weights belong to exactly the spectra the
benchmark decodes. ``untrained.ckpt`` holds ``Model.build(ModelConfig(), 0)``
so that the untrained workloads do not depend on the build code under test.
``pool.mgf`` is the training corpus of the train workload: byte for byte
what ``pepseq simulate --seed 0`` writes with the default settings (100
noiseless spectra, peptide lengths 5-12).

Run from the repository root (about 7 minutes on one core); it rewrites
SHA256SUMS as well:

    OPENBLAS_NUM_THREADS=1 python3 bench/fixture/make_fixture.py

The trained weights depend on the floating-point behaviour of numpy and its
BLAS, so a checkpoint regenerated elsewhere may differ in its last bits and
in its hash.
"""

from __future__ import annotations

import hashlib
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))

import numpy as np  # noqa: E402

from pepseq.mgf import parse_mgf, write_mgf  # noqa: E402
from pepseq.network import Model, ModelConfig  # noqa: E402
from pepseq.optim import OptimizerState  # noqa: E402
from pepseq.params import save_checkpoint  # noqa: E402
from pepseq.spectra import AminoAcidTable, random_peptide, simulate_spectrum  # noqa: E402
from pepseq.training import (  # noqa: E402
    AnnealSchedule,
    FeatureCache,
    LRConfig,
    TrainState,
    finetune_stage2_step,
    train_stage1_step,
)

FILES = ("pool.mgf", "spectra.mgf", "trained.ckpt", "untrained.ckpt")


def write_hashes() -> None:
    lines = [
        f"{hashlib.sha256((HERE / name).read_bytes()).hexdigest()}  {name}\n" for name in FILES
    ]
    (HERE / "SHA256SUMS").write_text("".join(lines))


def write_pool(table: AminoAcidTable) -> None:
    rng = np.random.default_rng(0)
    pool = [
        simulate_spectrum(random_peptide(rng, 5, 12, table), seed=int(rng.integers(1 << 30)),
                          spectrum_id=f"synth-{i:05d}", table=table)
        for i in range(100)
    ]
    (HERE / "pool.mgf").write_text(write_mgf(pool))


def main() -> None:
    table = AminoAcidTable()
    write_pool(table)
    rng = np.random.default_rng(1234)
    simulated = [
        simulate_spectrum(random_peptide(rng, 5, 8, table), seed=int(rng.integers(1 << 30)),
                          spectrum_id=f"s{i:03d}", table=table)
        for i in range(50)
    ]
    text = write_mgf(simulated)
    (HERE / "spectra.mgf").write_text(text)
    spectra = parse_mgf(text, table)

    cfg = ModelConfig()
    untrained = Model.build(cfg, table, seed=0)
    save_checkpoint(str(HERE / "untrained.ckpt"), untrained.store, untrained.metadata())

    model = Model.build(cfg, table, seed=7)
    state = TrainState(
        model=model,
        opt=OptimizerState(lr=5e-4),
        anneal=AnnealSchedule(total_steps=2000),
        lr=LRConfig(base_lr=5e-4, warmup_steps=100, total_steps=2000),
    )
    order_rng = np.random.default_rng(99)

    def batches():
        while True:
            order = order_rng.permutation(50)
            for k in range(0, 50, 10):
                yield [spectra[j] for j in order[k : k + 10]]

    start = time.perf_counter()
    gen = batches()
    for step in range(2000):
        row = train_stage1_step(model, next(gen), state)
        if step % 200 == 0:
            print(f"stage 1 step {step}: at {row['at_loss']:.4f} nat {row['nat_loss']:.4f} "
                  f"({time.perf_counter() - start:.0f}s)", flush=True)
    model.store.freeze("enc")
    model.store.freeze("nat")
    state.opt = OptimizerState(lr=1e-4)
    cache = FeatureCache(model)
    for _ in range(200):
        for k in range(0, 50, 10):
            finetune_stage2_step(model, spectra[k : k + 10], state, cache)
    save_checkpoint(str(HERE / "trained.ckpt"), model.store, model.metadata())
    write_hashes()
    print(f"fixture written in {time.perf_counter() - start:.0f}s", flush=True)


if __name__ == "__main__":
    main()
