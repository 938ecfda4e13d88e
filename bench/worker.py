"""One child process of the benchmark; ``bench/run.py`` starts it.

    python3 bench/worker.py ROLE --workload W --seed N --seconds S --trace 0|1 --spawned-at T

ROLE is one of

* ``setup``: set the workload up and exit (a further sample of set-up time);
* ``main``: greedy and beam-5 AT decoding interleaved with stage-1 and
  stage-2 training steps;
* ``pmc``: nat-pmc decoding only, so its peak RSS is its own;
* ``probe``: the memory probe only (see MemoryProbe), run just before and
  just after each ``pmc`` child.

Set-up is everything from the child's start (``--spawned-at``, a
``time.monotonic()`` reading taken by the parent just before it started the
child) to the first operation: imports, MGF parse and checkpoint load. An
operation is one training step or one decoded spectrum; every output is
checked against ``reference.json``, written by ``make_reference.py`` from the
code the benchmark was defined on. The child prints one JSON object as its
last line.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import itertools
import json
import math
import os
import resource
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
FIXTURE = BENCH / "fixture"
REFERENCE = BENCH / "reference.json"

# Each workload: the checkpoint whose weights every phase starts from and the
# corpus training steps draw batches from. All workloads decode the 50 spectra
# of fixture/spectra.mgf. See README.md for why each workload exists.
WORKLOADS = {
    "train": {"checkpoint": "untrained.ckpt", "corpus": "pool.mgf"},
    "decode-trained": {"checkpoint": "trained.ckpt", "corpus": "spectra.mgf"},
    "decode-untrained": {"checkpoint": "untrained.ckpt", "corpus": "spectra.mgf"},
}
# How the main child's seconds are shared between its phases. A share sets
# only how many operations a phase's median is taken over.
SHARES = {"greedy": 0.15, "beam": 0.4, "stage1": 0.35, "stage2": 0.1}

# Every timed phase runs at least this many operations; the count metrics of
# the traced run are medians over exactly these first operations, so they
# repeat between runs of one seed whatever the machine's speed.
MIN_OPS = {"greedy": 5, "beam": 3, "stage1": 5, "stage2": 5, "pmc": 1}
# Before each operation of the main child the machine's speed is probed for
# this share of the phase's last op time, at most CALIB_MAX_S and at least
# three kernel runs; see Calibrator.
CALIB_SHARE = 0.1
CALIB_MAX_S = 0.5
# How long one memory probe runs; see MemoryProbe.
MEMORY_PROBE_S = 1.0

BATCH = 10
BEAM_WIDTH = 5
# Training steps are taken mid-schedule, as in a 2000-step run at step 1000.
TOTAL_STEPS = 2000
MID_STEP = 1000
BASE_LR = 5e-4
FINETUNE_LR = 1e-4
PMC_TOLERANCE = 0.1
PMC_BIN = 0.001
# The four fixture spectra of neutral mass 588-593 Da. nat-pmc cost grows
# with the precursor mass, so a narrow band keeps one decode per run steady
# across seeds while the seed still picks the spectrum.
PMC_BAND = ("s005", "s010", "s033", "s039")
WIDTH_ONE_CHECKS = 2

# Scores are compared with this relative tolerance: loose enough for sums
# taken in another order, far tighter than any real change of the outputs.
SCORE_RTOL = 1e-9
# A loss measured after an AdamW update also carries the reordering noise of
# the gradients that drove it; so do gradient norms.
TRAJECTORY_RTOL = 1e-6


def close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b)) + 1e-12


class Checks:
    """Counts operations and the ones whose output was wrong."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def op(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.fail(what)

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.messages) < 20:
            self.messages.append(what)


class Context:
    """Everything set-up produces."""

    def __init__(self, workload: str, role: str):
        import numpy as np

        from pepseq import mgf, params
        from pepseq.network import Model
        from pepseq.spectra import AminoAcidTable

        self.np = np
        self.workload = workload
        spec = WORKLOADS[workload]
        self.ckpt = spec["checkpoint"]
        table = AminoAcidTable()
        self.decode_spectra = mgf.parse_mgf((FIXTURE / "spectra.mgf").read_text(), table)
        if role == "pmc" or spec["corpus"] == "spectra.mgf":
            self.train_spectra = self.decode_spectra
        else:
            self.train_spectra = mgf.parse_mgf((FIXTURE / spec["corpus"]).read_text(), table)
        store, blob = params.load_checkpoint(str(FIXTURE / self.ckpt))
        self.model = Model.from_checkpoint_blob(store, blob)
        self.max_len = self.model.cfg.t_max - 2


# ---------------------------------------------------------------------------
# operations shared with make_reference.py


def greedy_record(r) -> list:
    return [str(r.peptide), r.confidence, r.finished]


def beam_record(results) -> list:
    return [greedy_record(r) for r in results]


def pmc_record(result) -> list:
    return [None if result.peptide is None else str(result.peptide), result.log_prob,
            result.feasible]


def grad_norms(opt) -> dict:
    """Each parameter's gradient L2 norm, read from the first moment after
    the first AdamW step, where it is (1 - beta1) * gradient."""
    import numpy as np

    return {key: float(np.linalg.norm(m)) / (1.0 - opt.beta1) for key, m in opt.m.items()}


def new_state(model, lr: float):
    from pepseq.optim import OptimizerState
    from pepseq.training import AnnealSchedule, LRConfig, TrainState

    return TrainState(model=model, opt=OptimizerState(lr=lr),
                      anneal=AnnealSchedule(total_steps=TOTAL_STEPS),
                      lr=LRConfig(total_steps=TOTAL_STEPS), step=MID_STEP)


class Trainer:
    """Training steps that can be replayed from the checkpoint's weights.

    Before each step the weights are put back to the checkpoint's, so a
    step's losses depend only on its batch: the mean of per-spectrum
    reference losses. The optimizer moments carry over, as in a real run.
    """

    def __init__(self, model):
        self.model = model
        self.store = model.store
        self.freeze_shared(False)
        self.init = self.store.snapshot()

    def restore(self) -> None:
        for key, t in self.store.items():
            t.values[...] = self.init[key]
            t.grad = None

    def freeze_shared(self, frozen: bool) -> None:
        """Stage 1 trains the enc and nat partitions; stage 2 freezes them."""
        for partition in ("enc", "nat"):
            (self.store.freeze if frozen else self.store.unfreeze)(partition)

    def shared_unchanged(self) -> bool:
        import numpy as np

        return all(np.array_equal(t.values, self.init[key])
                   for key, t in self.store.items() if not key.startswith("at/"))

    def stage1(self, batch, state) -> list:
        from pepseq import training

        state.step = MID_STEP
        row = training.train_stage1_step(self.model, batch, state)
        return [row["at_loss"], row["nat_loss"]]

    def stage2(self, batch, state, cache) -> float:
        from pepseq import training

        return training.finetune_stage2_step(self.model, batch, state, cache)["at_loss"]

    def begin_stage2(self):
        from pepseq import training

        self.restore()
        self.freeze_shared(True)
        return new_state(self.model, FINETUNE_LR), training.FeatureCache(self.model)

    def trajectories(self, spectra) -> dict:
        """Two steps on fixed batches from fresh optimizer state; the second
        loss depends on the first step's backward and AdamW update.

        Also each parameter's gradient L2 norm in the first step of each
        stage. Adam's first update is about the sign of the gradient, so the
        second loss alone cannot see a gradient of the wrong size.
        """
        self.restore()
        state = new_state(self.model, BASE_LR)
        b0, b1 = spectra[:BATCH], spectra[BATCH : 2 * BATCH]
        stage1 = [self.stage1(b0, state)]
        norms1 = grad_norms(state.opt)
        stage1.append(self.stage1(b1, state))
        state2, cache = self.begin_stage2()
        stage2 = [self.stage2(b0, state2, cache)]
        norms2 = grad_norms(state2.opt)
        stage2.append(self.stage2(b1, state2, cache))
        self.freeze_shared(False)
        self.restore()
        return {"stage1": stage1, "stage2": stage2,
                "grad_norms": {"stage1": norms1, "stage2": norms2}}

    def sample_losses(self, spectra) -> dict:
        """Each spectrum's stage-1 (AT, NAT) and stage-2 losses from the
        checkpoint's weights."""
        state = new_state(self.model, BASE_LR)
        stage1 = {}
        for s in spectra:
            self.restore()
            stage1[s.spectrum_id] = self.stage1([s], state)
        state2, cache = self.begin_stage2()
        stage2 = {}
        for s in spectra:
            self.restore()
            stage2[s.spectrum_id] = self.stage2([s], state2, cache)
        self.freeze_shared(False)
        self.restore()
        return {"stage1": stage1, "stage2": stage2}


# ---------------------------------------------------------------------------
# timed phases


class Phase:
    """One kind of operation: how to make its input, the timed call, and the
    check of its output. A decoding phase's check also fills ``predictions``
    with the first (peptide, confidence) it saw for each spectrum, and its
    inputs repeat with period ``cycle_len``."""

    def __init__(self, name: str, share: float, prepare, op, check, predictions=None,
                 cycle_len: int = 0):
        self.name = name
        self.share = share
        self.prepare = prepare
        self.op = op
        self.check = check
        self.predictions = predictions
        self.cycle_len = cycle_len
        self.times: list[float] = []
        # The calibration kernel's time around each operation, in seconds;
        # empty when the operations are timed without probes.
        self.calib: list[float] = []
        self.roots: list = []

    def counted(self) -> int:
        """How many operations the medians use: whole passes through the
        cycle once there is one, so every run weighs each input equally."""
        n = len(self.times)
        return n - n % self.cycle_len if self.cycle_len and n >= self.cycle_len else n


class Calibrator:
    """Probe of the machine's current speed.

    On a shared host the speed drifts by a quarter over tens of seconds. The
    probe is a fixed kernel that uses no pepseq code: small matmuls,
    elementwise numpy and dict building, the mix a pepseq operation is made
    of. ``run.py`` divides each operation's time by the kernel's time around
    that operation, in the same process.
    """

    def __init__(self, np):
        self.np = np
        self.a = np.random.default_rng(0).normal(size=(64, 64)) * 0.1
        self.b = np.random.default_rng(1).normal(size=(30, 64))

    def kernel(self) -> None:
        np, x = self.np, self.b
        for _ in range(60):
            x = np.tanh(x @ self.a) + 0.5 * x
            x = x - x.sum(axis=1, keepdims=True) / 64
            {j: 2 * j for j in range(60)}

    def sample(self, seconds: float) -> float:
        """Median kernel time over at least three runs and ``seconds``."""
        times: list[float] = []
        end = time.perf_counter() + seconds
        while len(times) < 3 or time.perf_counter() < end:
            t0 = time.perf_counter()
            self.kernel()
            times.append(time.perf_counter() - t0)
        return statistics.median(times)


class MemoryProbe(Calibrator):
    """Probe of the machine's speed for nat-pmc.

    The nat-pmc DP works on float64 arrays of (mass bins x 21) cells, about
    100 MB each at 590 Da, so it runs out of the last-level cache, which the
    CPUs share with other tenants of the host; the small kernel of
    Calibrator does not see how fast that is. This kernel does the DP's kind
    of work on an array of that size. It runs in a child of its own just
    before and after each nat-pmc child, so that its arrays do not count in
    the nat-pmc child's peak RSS.
    """

    ROWS = 600_000

    def __init__(self, np):
        self.np = np
        self.a = np.random.default_rng(0).normal(size=(self.ROWS, 21))

    def kernel(self) -> None:
        r = self.a + 1.0
        self.np.maximum(r, self.a, out=r)
        r.argmax(axis=1)


def run_phases(phases: list[Phase], seconds: float, tracer,
               calibrator: Calibrator | None) -> None:
    """Run operations until ``seconds`` have passed and every phase ran its
    MIN_OPS; only ``op`` is timed.

    The phases are interleaved: the next operation belongs to the phase whose
    op time is furthest below its share, so every phase samples the whole
    run. With a calibrator, each operation's ``calib`` is the mean of the
    calibration probes taken just before and just after it.
    """
    end = time.perf_counter() + seconds
    ran: list[Phase] = []
    probes: list[float] = []
    while True:
        short = [p for p in phases if len(p.times) < MIN_OPS[p.name]]
        if not short and time.perf_counter() >= end:
            break
        p = min(short or phases, key=lambda p: sum(p.times) / p.share)
        x = p.prepare()
        if calibrator:
            last = p.times[-1] if p.times else 0.0
            probes.append(calibrator.sample(min(CALIB_SHARE * last, CALIB_MAX_S)))
        if tracer:
            tracer.take()
        t0 = time.perf_counter()
        out = p.op(x)
        p.times.append(time.perf_counter() - t0)
        if tracer:
            p.roots += tracer.take()
        p.check(x, out)
        ran.append(p)
    if not calibrator:
        return
    probes.append(calibrator.sample(min(CALIB_SHARE * ran[-1].times[-1], CALIB_MAX_S)))
    for k, p in enumerate(ran):
        p.calib.append((probes[k] + probes[k + 1]) / 2)


def recall(ctx: Context, predictions: dict) -> float:
    from pepseq import metrics

    truths = {s.spectrum_id: s.truth for s in ctx.decode_spectra if s.spectrum_id in predictions}
    preds = [(sid, pep, conf) for sid, (pep, conf) in predictions.items()]
    return metrics.corpus_eval(preds, truths, ctx.model.table).peptide_recall


def same_greedy(got: list, want: list) -> bool:
    return got[0] == want[0] and got[2] == want[2] and close(got[1], want[1], SCORE_RTOL)


def same_beam(got: list, want: list) -> bool:
    return len(got) == len(want) and all(same_greedy(g, w) for g, w in zip(got, want))


def decode_phases(ctx: Context, seed: int, ref: dict, checks: Checks) -> list[Phase]:
    """Greedy and beam-5 over the fixture spectra, each in a seed-shuffled cycle."""
    from pepseq import decoding

    np, model, max_len = ctx.np, ctx.model, ctx.max_len
    order = np.random.default_rng([seed, 0]).permutation(len(ctx.decode_spectra))
    for i in order[:WIDTH_ONE_CHECKS]:
        s = ctx.decode_spectra[i]
        g = decoding.greedy_at_decode(model, s, max_len=max_len)
        b = decoding.beam_search_at(model, s, width=1, max_len=max_len)
        checks.op(same_greedy(greedy_record(g), ref["greedy"][s.spectrum_id]),
                  f"greedy {s.spectrum_id}")
        checks.op(b == [g], f"width-1 beam differs from greedy on {s.spectrum_id}")

    phases = []
    for name, decode, record, same in (
        ("greedy", lambda s: decoding.greedy_at_decode(model, s, max_len=max_len),
         greedy_record, same_greedy),
        ("beam", lambda s: decoding.beam_search_at(model, s, width=BEAM_WIDTH, max_len=max_len),
         beam_record, same_beam),
    ):
        cycle = itertools.cycle([ctx.decode_spectra[i] for i in order])
        predictions = {}

        def check(s, result, name=name, record=record, same=same, predictions=predictions):
            got = record(result)
            checks.op(same(got, ref[name][s.spectrum_id]), f"{name} {s.spectrum_id}: {got}")
            best = result if name == "greedy" else result[0]
            predictions.setdefault(s.spectrum_id, (best.peptide, best.confidence))

        phases.append(Phase(name, SHARES[name],
                            lambda cycle=cycle: next(cycle), decode, check, predictions,
                            cycle_len=len(order)))
    return phases


def training_phases(ctx: Context, seed: int, ref: dict, checks: Checks) -> list[Phase]:
    """Stage-1 and stage-2 steps on seed-drawn batches of the workload's corpus.

    They train a copy of the model, so decoding keeps the checkpoint's own
    weights, frozen flags and fine-tune flag."""
    np = ctx.np
    spectra = ctx.train_spectra
    trainer = Trainer(copy.deepcopy(ctx.model))

    def mean_ref(batch, stage, k=None):
        vals = [ref[stage][s.spectrum_id] for s in batch]
        return sum(v if k is None else v[k] for v in vals) / len(vals)

    traj = trainer.trajectories(spectra)
    want = ref["trajectories"]
    b0 = spectra[:BATCH]
    got0, got1 = traj["stage1"]
    checks.op(all(close(got0[k], mean_ref(b0, "stage1", k), SCORE_RTOL) for k in (0, 1)),
              f"stage1 first check step: {got0}")
    checks.op(all(close(got1[k], want["stage1"][1][k], TRAJECTORY_RTOL) for k in (0, 1)),
              f"stage1 step after one update: {got1} != {want['stage1'][1]}")
    got0, got1 = traj["stage2"]
    checks.op(close(got0, mean_ref(b0, "stage2"), SCORE_RTOL), f"stage2 first check step: {got0}")
    checks.op(close(got1, want["stage2"][1], TRAJECTORY_RTOL),
              f"stage2 step after one update: {got1} != {want['stage2'][1]}")
    for stage in ("stage1", "stage2"):
        got, norms = traj["grad_norms"][stage], want["grad_norms"][stage]
        wrong = sorted(k for k in got.keys() | norms.keys()
                       if k not in got or k not in norms or not close(got[k], norms[k], TRAJECTORY_RTOL))
        checks.op(not wrong, f"{stage} gradient norms differ on {wrong[:5]}")

    state1 = new_state(trainer.model, BASE_LR)
    state2, cache = trainer.begin_stage2()
    for s in spectra:  # stage-2 steps are timed with a warm feature cache
        cache.get(s)

    def draw(rng):
        return [spectra[i] for i in rng.choice(len(spectra), size=BATCH, replace=False)]

    def prepare(rng, frozen):
        trainer.restore()
        trainer.freeze_shared(frozen)
        return draw(rng)

    def check1(batch, losses):
        ok = all(math.isfinite(v) for v in losses) and all(
            close(losses[k], mean_ref(batch, "stage1", k), SCORE_RTOL) for k in (0, 1))
        checks.op(ok, f"stage1 losses {losses}")

    def check2(batch, loss):
        checks.op(math.isfinite(loss) and close(loss, mean_ref(batch, "stage2"), SCORE_RTOL),
                  f"stage2 loss {loss}")
        if not trainer.shared_unchanged():
            checks.fail("stage 2 changed a frozen enc/nat parameter")

    rng1, rng2 = np.random.default_rng([seed, 1]), np.random.default_rng([seed, 3])
    return [
        Phase("stage1", SHARES["stage1"], lambda: prepare(rng1, False),
              lambda b: trainer.stage1(b, state1), check1),
        Phase("stage2", SHARES["stage2"], lambda: prepare(rng2, True),
              lambda b: trainer.stage2(b, state2, cache), check2),
    ]


def pmc_phase(ctx: Context, seed: int, ref: dict, checks: Checks) -> tuple[Phase, list]:
    """nat-pmc over the PMC band; also returns the feasible flags it saw."""
    from pepseq import decoding
    from pepseq.spectra import WATER

    np, table = ctx.np, ctx.model.table
    band = [s for s in ctx.decode_spectra if s.spectrum_id in PMC_BAND]
    order = np.random.default_rng([seed, 2]).permutation(len(band))
    cycle = itertools.cycle([band[i] for i in order])
    feasible = []
    predictions = {}

    def check(s, out):
        result, conf = out
        got = pmc_record(result)
        want = ref[s.spectrum_id]
        ok = got[0] == want[0] and got[2] == want[2] and close(got[1], want[1], SCORE_RTOL)
        if result.feasible:
            # The DP bins residue masses, so the exact mass may drift half a
            # bin per residue past the window, as acceptance test 4 allows.
            slack = PMC_TOLERANCE + 0.5 * PMC_BIN * (len(result.peptide) + 2)
            ok = ok and abs(table.residue_mass(result.peptide) - (s.neutral_mass - WATER)) <= slack
        checks.op(ok, f"pmc {s.spectrum_id}: {got}")
        feasible.append(result.feasible)
        predictions.setdefault(s.spectrum_id, (result.peptide, conf))

    phase = Phase("pmc", 1.0, lambda: next(cycle),
                  lambda s: decoding.nat_pmc_decode(ctx.model, s, tolerance=PMC_TOLERANCE,
                                                    bin_width=PMC_BIN),
                  check, predictions, cycle_len=len(band))
    return phase, feasible


# ---------------------------------------------------------------------------
# per-layer metrics from the traced run


def _median(values) -> float:
    return float(statistics.median(values))


def layer_metrics(roots: dict, setup_roots, recalls: dict, feasible, eval_ms: float) -> dict:
    """Per-layer metrics: medians over operations (counts over the first
    MIN_OPS operations only), self times exclude nested traced spans."""
    m = {}

    def per_op(phase, fn, counts=False):
        rs = roots[phase][: MIN_OPS[phase]] if counts else roots[phase]
        return _median(fn(r) for r in rs)

    def unattributed(phase):
        return per_op(phase, lambda r: r.self_ms(r.name) / (1000.0 * r.seconds))

    if "stage1" in roots:
        m["autodiff.backward_ms"] = per_op("stage1", lambda r: r.total_ms("autodiff.backward"))
        m["autodiff.tensors_per_step"] = per_op("stage1", lambda r: r.tensors, True)
        m["spectra.encode_float_calls_per_step"] = per_op(
            "stage1", lambda r: r.calls("spectra.encode_float"), True)
        m["spectra.encode_float_ms_per_step"] = per_op(
            "stage1", lambda r: r.total_ms("spectra.encode_float"))
        m["network.encoder_ms_per_step"] = per_op("stage1", lambda r: r.self_ms("network.encoder"))
        m["network.nat_ms_per_step"] = per_op("stage1", lambda r: r.self_ms("network.nat"))
        m["network.at_ms_per_step"] = per_op("stage1", lambda r: r.self_ms("network.at"))
        m["network.at_forward_calls_per_step"] = per_op(
            "stage1", lambda r: r.calls("network.at"), True)
        m["training.ctc_ms_per_step"] = per_op("stage1", lambda r: r.total_ms("training.ctc"))
        m["training.step_self_ms"] = per_op("stage1", lambda r: r.self_ms(r.name))
        m["optim.adamw_ms_per_step"] = per_op("stage1", lambda r: r.total_ms("optim.adamw"))
        m["trace.unattributed_share.stage1"] = unattributed("stage1")

        m["autodiff.backward_ms_stage2"] = per_op("stage2", lambda r: r.total_ms("autodiff.backward"))
        m["optim.adamw_ms_per_step_stage2"] = per_op("stage2", lambda r: r.total_ms("optim.adamw"))
        gets = sum(r.calls("training.feature_cache_get") for r in roots["stage2"])
        misses = sum(r.calls("network.encoder") for r in roots["stage2"])
        m["training.feature_cache_hit_ratio"] = (gets - misses) / gets
        m["trace.unattributed_share.stage2"] = unattributed("stage2")

        m["spectra.encode_float_calls_per_spectrum"] = per_op(
            "greedy", lambda r: r.calls("spectra.encode_float"), True)
        for phase in ("greedy", "beam"):
            m[f"network.at_forward_calls_per_spectrum.{phase}"] = per_op(
                phase, lambda r: r.calls("network.at"), True)
            m[f"network.at_ms_per_spectrum.{phase}"] = per_op(
                phase, lambda r: r.self_ms("network.at"))
            m[f"decoding.{phase}_self_ms_per_spectrum"] = per_op(phase, lambda r: r.self_ms(r.name))
            m[f"trace.unattributed_share.{phase}"] = unattributed(phase)
        m["metrics.greedy_recall"] = recalls["greedy"]
        m["metrics.beam_recall"] = recalls["beam"]

        setup = {}
        for r in setup_roots:
            setup[r.name] = setup.get(r.name, 0.0) + 1000.0 * r.seconds
        m["params.load_checkpoint_ms"] = setup["params.load_checkpoint"]
        m["mgf.parse_ms"] = setup["mgf.parse"]
        m["metrics.eval_ms"] = eval_ms
    if "pmc" in roots:
        m["network.nat_ms_per_spectrum"] = per_op("pmc", lambda r: r.self_ms("network.nat"))
        m["decoding.pmc_dp_ms_per_spectrum"] = per_op("pmc", lambda r: r.total_ms("decoding.pmc_dp"))
        m["decoding.pmc_feasible_ratio"] = sum(feasible) / len(feasible)
        m["metrics.pmc_recall"] = recalls["pmc"]
        m["trace.unattributed_share.pmc"] = unattributed("pmc")
    return m


# ---------------------------------------------------------------------------


def machine_facts(ctx: Context) -> dict:
    np = ctx.np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except TypeError:  # numpy < 1.25 has no dict mode
        blas = "unknown"
    cfg = json.dumps(ctx.model.cfg.to_dict(), sort_keys=True).encode()
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "model_config_sha256": hashlib.sha256(cfg).hexdigest(),
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("role", choices=("setup", "main", "pmc", "probe"))
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, required=True)
    args = ap.parse_args()
    if args.role == "probe":
        import numpy as np

        print(json.dumps({"role": "probe", "probe_s": MemoryProbe(np).sample(MEMORY_PROBE_S)}))
        return 0

    sys.path.insert(0, str(BENCH.parent / "src"))
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    ctx = Context(args.workload, args.role)
    setup_s = time.monotonic() - args.spawned_at
    result = {"role": args.role, "setup_s": setup_s}
    if args.role == "setup":
        print(json.dumps(result))
        return 0

    setup_roots = tracer.take() if tracer else []
    ref = json.loads(REFERENCE.read_text())
    checks = Checks()
    weights = ctx.ckpt.split(".")[0]
    if args.role == "main":
        train_ref = ref["training"][f"{weights}/{WORKLOADS[args.workload]['corpus']}"]
        phases = (decode_phases(ctx, args.seed, ref["decode"][weights], checks)
                  + training_phases(ctx, args.seed, train_ref, checks))
        result["facts"] = machine_facts(ctx)
        feasible = None
    else:
        phase, feasible = pmc_phase(ctx, args.seed, ref["pmc"][weights], checks)
        phases = [phase]
    run_phases(phases, args.seconds, tracer, Calibrator(ctx.np) if args.role == "main" else None)

    if tracer:
        tracer.take()
    recalls = {p.name: recall(ctx, p.predictions) for p in phases if p.predictions is not None}
    result.update(
        times={p.name: p.times[: p.counted()] for p in phases},
        calib={p.name: p.calib[: p.counted()] for p in phases},
        recall=recalls,
        rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        attempted=checks.attempted,
        failed=checks.failed,
        failures=checks.messages,
    )
    if tracer:
        eval_ms = sum(1000.0 * r.seconds for r in tracer.take() if r.name == "metrics.eval")
        result["layers"] = layer_metrics({p.name: p.roots[: p.counted()] for p in phases}, setup_roots,
                                         recalls, feasible, eval_ms)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
