"""Losses, schedules, and the two training stages.

Stage 1 trains everything jointly: the AT decoder with a summed
cross-entropy over next tokens (plain encoder cross-attention context) and
the NAT decoder with a CTC loss, mixed by an importance weight that anneals
linearly from the NAT side to the AT side over the scheduled run. The CTC
log-likelihood is one graph node: its blank-augmented forward recursion runs
in numpy, and its gradient comes from the forward and backward variables
(α·β).

Stage 2 freezes the encoder and NAT partitions, switches the AT decoder to
the augmented cross-attention context (NAT latents, gradient-blocked, next
to the encoder features), and fine-tunes only the AT partition with
cross-entropy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import NumericError, Tensor
from .network import Model, prefix_suffix_masses
from .optim import OptimizerState, adamw_step
from .spectra import Spectrum

__all__ = [
    "ce_loss",
    "ctc_required_frames",
    "ctc_forward",
    "ctc_loss",
    "INFEASIBLE_CTC_LOSS",
    "AnnealSchedule",
    "lambda_at",
    "total_loss",
    "learning_rate",
    "LRConfig",
    "TrainState",
    "FeatureCache",
    "train_stage1_step",
    "finetune_stage2_step",
]

# Constant, gradient-free loss charged for targets no CTC path can realize
# in the available frames; keeps batch statistics finite without steering
# the model toward the impossible.
INFEASIBLE_CTC_LOSS = 1e4


def ce_loss(logits: Tensor, targets: Sequence[int], pad_id: int | None = None) -> Tensor:
    """Summed next-token cross-entropy; positions whose target is PAD are skipped."""
    targets = list(targets)
    if logits.ndim != 2 or logits.shape[0] != len(targets):
        raise ad.DimensionError(
            f"logits {logits.shape} do not match {len(targets)} target positions"
        )
    log_probs = ad.log_softmax(logits)
    picked = ad.take_per_row(log_probs, targets)
    if pad_id is not None:
        keep = np.array([t != pad_id for t in targets], dtype=np.float64)
        if keep.sum() == 0:
            raise ad.DimensionError("all target positions are PAD")
        picked = ad.mul(picked, ad.constant(keep))
    return ad.neg(ad.sum_all(picked))


# ---------------------------------------------------------------------------
# CTC


def ctc_required_frames(target_ids: Sequence[int]) -> int:
    """Minimum number of frames any valid path needs: |target| plus one
    blank between each adjacent equal pair."""
    reps = sum(1 for a, b in zip(target_ids, target_ids[1:]) if a == b)
    return len(target_ids) + reps


def _ctc_alpha(emit: np.ndarray, aug: np.ndarray, blank_id: int) -> np.ndarray:
    """Log-domain forward variables α[t, s] over the [T, 2U+1] emissions
    ``emit[t, s] = log P_t(aug[s])``; α_t(s) includes frame t's emission."""
    T, U2 = emit.shape
    # The skip (s-2) transition is legal into residue positions whose
    # predecessor residue differs.
    skip_ok = np.full(U2, -np.inf)
    skip_ok[2:][(aug[2:] != blank_id) & (aug[2:] != aug[:-2])] = 0.0
    alpha = np.empty((T, U2))
    alpha[0] = emit[0] + np.concatenate(([0.0, 0.0], np.full(U2 - 2, -np.inf)))
    for t in range(1, T):
        prev = alpha[t - 1]
        step1 = np.concatenate(([-np.inf], prev[:-1]))
        step2 = np.concatenate(([-np.inf, -np.inf], prev[:-2])) + skip_ok
        alpha[t] = np.logaddexp(np.logaddexp(prev, step1), step2) + emit[t]
    return alpha


def ctc_forward(log_probs: Tensor, target_ids: Sequence[int], blank_id: int) -> Tensor:
    """Log-probability that the frame distribution emits a path collapsing
    to ``target_ids``, as one graph node.

    Standard blank-augmented forward recursion over A' = [ε, a_1, ε, ...,
    a_U, ε] (length 2U+1), run in numpy in the log domain:

        α_1 = (log P_1(ε), log P_1(a_1), -inf, ...)
        α_t(s) = logsum of α_{t-1}(s), α_{t-1}(s-1), and α_{t-1}(s-2) --
                 the last only when A'_s is a residue different from
                 A'_{s-2} -- plus log P_t(A'_s)
        result = logaddexp(α_T(2U+1), α_T(2U))

    The gradient comes from α·β (Graves et al., ICML 2006): β is the same
    recursion run on the reversed frames and reversed A', and
    ∂ log p / ∂ log P_t(k) sums the state posteriors
    exp(α_t(s) + β_t(s) - log P_t(A'_s) - log p) over the states s with
    A'_s = k.
    """
    target_ids = list(target_ids)
    if not target_ids:
        raise ValueError("CTC target must be non-empty")
    T, vocab = log_probs.shape
    if any(not 0 <= a < vocab for a in target_ids) or any(a == blank_id for a in target_ids):
        raise ValueError("CTC target ids must be residues inside the vocabulary")

    aug = np.full(2 * len(target_ids) + 1, blank_id)
    aug[1::2] = target_ids
    emit = log_probs.values[:, aug]
    alpha = _ctc_alpha(emit, aug, blank_id)
    log_p = np.logaddexp(alpha[-1, -1], alpha[-1, -2])

    def bwd(g: np.ndarray) -> None:
        beta = _ctc_alpha(emit[::-1, ::-1], aug[::-1], blank_id)[::-1, ::-1]
        joint = alpha + beta
        with np.errstate(invalid="ignore"):
            post = np.where(np.isneginf(joint), 0.0, np.exp(joint - emit - log_p))
        np.add.at(ad._grad_buffer(log_probs), (np.arange(T)[:, None], aug), g * post)

    return ad._node(np.asarray(log_p), (log_probs,), bwd)


def ctc_loss(
    logits: Tensor, target_ids: Sequence[int], blank_id: int
) -> tuple[Tensor, bool]:
    """Negative CTC log-likelihood from raw frame logits.

    Returns (loss, feasible). Infeasible targets (more frames required than
    available) get the constant :data:`INFEASIBLE_CTC_LOSS` with no
    gradient, instead of an infinite loss that would poison the batch.
    """
    T = logits.shape[0]
    if ctc_required_frames(target_ids) > T:
        return ad.constant(INFEASIBLE_CTC_LOSS), False
    log_probs = ad.log_softmax(logits)
    return ad.neg(ctc_forward(log_probs, target_ids, blank_id)), True


# ---------------------------------------------------------------------------
# schedules


@dataclass
class AnnealSchedule:
    """Linear importance annealing over a fixed training run."""

    total_steps: int

    def __post_init__(self):
        if self.total_steps <= 0:
            raise ValueError(f"total_steps must be positive, got {self.total_steps}")


def lambda_at(schedule: AnnealSchedule, step: int) -> float:
    """AT weight at iteration ``step``: exactly step / total."""
    if not 0 <= step <= schedule.total_steps:
        raise ValueError(f"step {step} outside [0, {schedule.total_steps}]")
    return step / schedule.total_steps


def total_loss(at_loss: Tensor, nat_loss: Tensor, lam: float) -> Tensor:
    """λ·AT + (1-λ)·NAT."""
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"annealing weight {lam} outside [0, 1]")
    return ad.add(ad.mul(at_loss, ad.constant(lam)), ad.mul(nat_loss, ad.constant(1.0 - lam)))


@dataclass(frozen=True)
class LRConfig:
    base_lr: float = 5e-4
    warmup_steps: int = 100
    total_steps: int = 2000

    def __post_init__(self):
        if self.base_lr <= 0 or self.warmup_steps < 0:
            raise ValueError(f"base_lr must be positive and warmup_steps at least 0, got "
                             f"{self.base_lr} and {self.warmup_steps}")
        if self.warmup_steps >= self.total_steps:
            raise ValueError(f"warmup_steps {self.warmup_steps} must be less than "
                             f"total_steps {self.total_steps}")


def learning_rate(step: int, cfg: LRConfig) -> float:
    """Linear warm-up from 0 to base, then cosine decay to 0 at total."""
    if step < cfg.warmup_steps:
        return cfg.base_lr * step / cfg.warmup_steps
    span = cfg.total_steps - cfg.warmup_steps
    progress = min(1.0, (step - cfg.warmup_steps) / span)
    return cfg.base_lr * 0.5 * (1.0 + np.cos(np.pi * progress))


# ---------------------------------------------------------------------------
# training steps


@dataclass
class TrainState:
    model: Model
    opt: OptimizerState
    anneal: AnnealSchedule
    lr: LRConfig
    step: int = 0
    finetune_step: int = 0


class FeatureCache:
    """Per-spectrum frozen features for stage 2.

    Sound only because the encoder and NAT partitions are frozen and the
    NAT latents are gradient-blocked: the cached tensors are constants of
    the fine-tuning problem.
    """

    def __init__(self, model: Model):
        self.model = model
        self._store: dict[str, tuple[Tensor, Tensor]] = {}

    def get(self, spectrum: Spectrum) -> tuple[Tensor, Tensor]:
        hit = self._store.get(spectrum.spectrum_id)
        if hit is None:
            enc = self.model.encode_spectrum(spectrum)
            nat = self.model.nat_forward(enc)
            hit = (ad.constant(enc.values), ad.constant(nat.latents.values))
            self._store[spectrum.spectrum_id] = hit
        return hit


def _truth_ids(model: Model, spectrum: Spectrum) -> list[int]:
    if spectrum.truth is None or len(spectrum.truth) == 0:
        raise ValueError(f"spectrum {spectrum.spectrum_id!r} has no training target")
    return model.table.ids_of(spectrum.truth)


def _at_sample_loss(model: Model, spectrum: Spectrum, ids: list[int],
                    enc: Tensor, nat_latents: Tensor | None,
                    block_nat_grad: bool = True) -> Tensor:
    table = model.table
    tokens = [table.bos_id] + ids
    targets = ids + [table.eos_id]
    masses = prefix_suffix_masses(ids, spectrum.neutral_mass, table)
    logits = model.at_forward(tokens, masses, enc, nat_latents, block_nat_grad)
    return ce_loss(logits, targets, pad_id=table.pad_id)


def train_stage1_step(model: Model, batch: Sequence[Spectrum], state: TrainState) -> dict:
    """One joint step: mean per-sample AT and NAT losses, annealed mixture,
    backward, AdamW. Returns the step's scalar metrics."""
    if not batch:
        raise ValueError("empty batch")
    table = model.table
    if any(
        s.truth is not None and len(s.truth) > model.cfg.t_max - 2 for s in batch
    ):
        raise ValueError(
            f"a target exceeds t_max - 2 = {model.cfg.t_max - 2} residues; "
            "the NAT frame axis cannot fit it"
        )
    at_terms, nat_terms = [], []
    for s in batch:
        ids = _truth_ids(model, s)
        enc = model.encode_spectrum(s)
        at_terms.append(_at_sample_loss(model, s, ids, enc, None))
        nat = model.nat_forward(enc)
        nat_term, _feasible = ctc_loss(nat.logits, ids, table.blank_id)
        nat_terms.append(nat_term)

    inv = 1.0 / len(batch)
    at_loss = ad.mul(_sum_terms(at_terms), ad.constant(inv))
    nat_loss = ad.mul(_sum_terms(nat_terms), ad.constant(inv))
    lam = lambda_at(state.anneal, state.step)
    loss = total_loss(at_loss, nat_loss, lam)
    if not np.isfinite(loss.values):
        raise NumericError(
            f"non-finite loss at step {state.step}: at={at_loss.values!r} nat={nat_loss.values!r}"
        )
    ad.backward(loss)
    state.opt.lr = learning_rate(state.step, state.lr)
    # The segment embeddings belong to the AT partition but only the
    # stage-2 augmented context uses them; exempt them from the
    # missing-gradient tripwire here.
    adamw_step(model.store, state.opt, unused_ok=frozenset({"at/seg_nat", "at/seg_enc"}))
    state.step += 1
    return {
        "step": state.step,
        "stage": 1,
        "at_loss": float(at_loss.values),
        "nat_loss": float(nat_loss.values),
        "lambda": lam,
        "lr": state.opt.lr,
    }


def finetune_stage2_step(
    model: Model,
    batch: Sequence[Spectrum],
    state: TrainState,
    cache: FeatureCache,
) -> dict:
    """One fine-tuning step over the AT partition only.

    Requires the encoder and NAT partitions to be frozen; the AT decoder
    attends over the augmented [NAT ; encoder] context with the NAT latents
    gradient-blocked.
    """
    if not batch:
        raise ValueError("empty batch")
    for partition in ("enc", "nat"):
        if not model.store.is_frozen(partition):
            raise ValueError(
                f"stage 2 requires the {partition!r} partition frozen; call freeze() first"
            )
    terms = []
    for s in batch:
        ids = _truth_ids(model, s)
        enc, nat_latents = cache.get(s)
        terms.append(_at_sample_loss(model, s, ids, enc, nat_latents))
    loss = ad.mul(_sum_terms(terms), ad.constant(1.0 / len(batch)))
    if not np.isfinite(loss.values):
        raise NumericError(f"non-finite fine-tune loss at step {state.finetune_step}")
    ad.backward(loss)
    adamw_step(model.store, state.opt)
    state.finetune_step += 1
    model.finetuned = True
    return {
        "step": state.finetune_step,
        "stage": 2,
        "at_loss": float(loss.values),
        "nat_loss": float("nan"),
        "lambda": 1.0,
        "lr": state.opt.lr,
    }


def _sum_terms(terms: list[Tensor]) -> Tensor:
    total = terms[0]
    for t in terms[1:]:
        total = ad.add(total, t)
    return total
