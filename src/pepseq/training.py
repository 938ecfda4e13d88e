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
cross-entropy. The frozen features are computed once per spectrum, as
arrays, by :class:`FeatureCache`; each step wraps its padded batch of them
as constants.

Each step runs its batch as one forward: spectra of unequal peak counts
share one encoder pass, targets of unequal length one AT pass and one CTC
recursion. The encoder and the AT run their row-wise layers on the batch's
real rows only, and attention on the padded layout (see :mod:`.network`);
the NAT and CTC read the padded batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import NumericError, Tensor
from .network import ATCache, Model, Padded, check_spectrum, pad_rows, prefix_suffix_masses
from .optim import OptimizerState, adamw_step
from .spectra import Spectrum

__all__ = [
    "ce_loss",
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

# Constant loss charged for targets no CTC path can realize in the available
# frames; keeps batch statistics finite without steering the model toward the
# impossible.
INFEASIBLE_CTC_LOSS = 1e4


def ce_loss(logits: Tensor, targets: Sequence[int] | np.ndarray, pad_id: int) -> Tensor:
    """Next-token cross-entropy of logits [..., L, V] against targets [..., L],
    summed over every position whose target is not ``pad_id`` (PAD)."""
    targets = np.asarray(targets, dtype=np.intp)
    if logits.ndim < 2 or targets.shape != logits.shape[:-1]:
        raise ad.DimensionError(
            f"logits {logits.shape} do not match targets {targets.shape}"
        )
    keep = targets != pad_id
    if not keep.any():
        raise ad.DimensionError("all target positions are PAD")
    picked = ad.take_per_row(ad.log_softmax(logits), targets)
    return ad.neg(ad.sum_all(ad.mul(picked, ad.constant(keep.astype(np.float64)))))


# ---------------------------------------------------------------------------
# CTC


def _ctc_alpha(emit: np.ndarray, aug: np.ndarray, blank_id: int) -> np.ndarray:
    """Log-domain forward variables α[b, t, s] over the [B, T, S] emissions
    ``emit[b, t, s] = log P_t(aug[b, s])``; α_t(s) includes frame t's
    emission. Padding states past a row's 2U+1 carry -inf emissions, so
    they stay at -inf."""
    B, T, S = emit.shape
    # The skip (s-2) transition is legal into residue positions whose
    # predecessor residue differs.
    skip_ok = np.full((B, S), -np.inf)
    skip_ok[:, 2:][(aug[:, 2:] != blank_id) & (aug[:, 2:] != aug[:, :-2])] = 0.0
    alpha = np.empty((B, T, S))
    alpha[:, 0] = emit[:, 0] + np.concatenate(([0.0, 0.0], np.full(S - 2, -np.inf)))
    shifted = np.full((B, S + 2), -np.inf)  # shifted[:, s + 2] = α_{t-1}(s)
    for t in range(1, T):
        prev = alpha[:, t - 1]
        shifted[:, 2:] = prev
        step2 = shifted[:, :-2] + skip_ok
        alpha[:, t] = np.logaddexp(np.logaddexp(prev, shifted[:, 1:-1]), step2) + emit[:, t]
    return alpha


def ctc_forward(log_probs: Tensor, target_ids, blank_id: int) -> Tensor:
    """Log-probability that the frame distribution emits a path collapsing
    to ``target_ids``, as one graph node.

    ``log_probs`` is [T, V] with one target (a scalar result), or a batch
    [B, T, V] with one target per row (a [B] result); a target no path can
    realize in T frames gets -inf.

    Standard blank-augmented forward recursion over A' = [ε, a_1, ε, ...,
    a_U, ε] (length 2U+1), run in numpy in the log domain over every row at
    once, with each row's states padded to the longest row's:

        α_1 = (log P_1(ε), log P_1(a_1), -inf, ...)
        α_t(s) = logsum of α_{t-1}(s), α_{t-1}(s-1), and α_{t-1}(s-2) --
                 the last only when A'_s is a residue different from
                 A'_{s-2} -- plus log P_t(A'_s)
        result = logaddexp(α_T(2U+1), α_T(2U))

    The gradient comes from α·β (Graves et al., ICML 2006): β is the same
    recursion run on the reversed frames and each row's reversed A', and
    ∂ log p / ∂ log P_t(k) sums the state posteriors
    exp(α_t(s) + β_t(s) - log P_t(A'_s) - log p) over the states s with
    A'_s = k. A row with no path gets no gradient.
    """
    rows = [list(target_ids)] if log_probs.ndim == 2 else [list(t) for t in target_ids]
    if log_probs.ndim < 2 or log_probs.shape[:-2] not in ((), (len(rows),)):
        raise ad.DimensionError(
            f"log_probs {log_probs.shape} do not match {len(rows)} CTC targets"
        )
    T, vocab = log_probs.shape[-2:]
    for target in rows:
        if not target:
            raise ValueError("CTC target must be non-empty")
        if any(not 0 <= a < vocab for a in target) or any(a == blank_id for a in target):
            raise ValueError("CTC target ids must be residues inside the vocabulary")

    B, node = len(rows), log_probs.node
    states = 2 * np.array([len(t) for t in rows]) + 1  # each row's 2U+1
    s = np.arange(states.max())
    aug = np.full((B, s.size), blank_id)
    for b, target in enumerate(rows):
        aug[b, 1 : states[b] : 2] = target
    emit = np.take_along_axis(log_probs.values.reshape(B, T, vocab), aug[:, None, :], axis=2)
    emit[np.broadcast_to((s >= states[:, None])[:, None, :], emit.shape)] = -np.inf
    alpha = _ctc_alpha(emit, aug, blank_id)
    b_ix = np.arange(B)
    log_p = np.logaddexp(alpha[b_ix, -1, states - 1], alpha[b_ix, -1, states - 2])

    def bwd(g: np.ndarray) -> None:
        # Reverse each row's own states, not the padding: the order is its own inverse.
        rev = np.where(s < states[:, None], states[:, None] - 1 - s, s)
        emit_rev = np.take_along_axis(emit[:, ::-1], rev[:, None, :], axis=2)
        beta_rev = _ctc_alpha(emit_rev, np.take_along_axis(aug, rev, axis=1), blank_id)
        beta = np.take_along_axis(beta_rev[:, ::-1], rev[:, None, :], axis=2)
        joint = alpha + beta
        with np.errstate(invalid="ignore"):
            post = np.where(np.isneginf(joint), 0.0, np.exp(joint - emit - log_p[:, None, None]))
        grad = ad._grad_buffer(node).reshape(B, T, vocab)  # a view: adds land in .grad
        np.add.at(grad, (b_ix[:, None, None], np.arange(T)[:, None], aug[:, None, :]),
                  g.reshape(B)[:, None, None] * post)

    return ad._node(log_p.reshape(log_probs.shape[:-2]), (node,), bwd)


def ctc_loss(logits: Tensor, target_ids, blank_id: int) -> Tensor:
    """Negative CTC log-likelihood of a padded batch of frame logits
    [B, T, V], one target per row, summed over rows. A row no path realizes
    in the frames (its :func:`ctc_forward` is -inf) costs the constant
    :data:`INFEASIBLE_CTC_LOSS`, not an infinite loss that would poison the
    batch, and passes a zero gradient."""
    if logits.ndim != 3:
        raise ad.DimensionError(f"ctc_loss takes a batch of frame logits [B, T, V], got {logits.shape}")
    log_p = ctc_forward(ad.log_softmax(logits), target_ids, blank_id)
    feasible = np.isfinite(log_p.values)
    infeasible = ad.constant(INFEASIBLE_CTC_LOSS * np.count_nonzero(~feasible))
    return ad.add(ad.neg(ad.sum_all(log_p[feasible])), infeasible)


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


class FeatureCache:
    """Per-spectrum frozen features for stage 2.

    Sound only because the encoder and NAT partitions are frozen and the
    NAT latents are gradient-blocked: the cached arrays are constants of
    the fine-tuning problem. A miss runs the encoder and NAT on
    ``model.arrays``, which builds no Tensor.
    """

    def __init__(self, model: Model):
        self.model = model
        self._store: dict[str, tuple[np.ndarray, np.ndarray]] = {}

    def get(self, spectrum: Spectrum) -> tuple[np.ndarray, np.ndarray]:
        """Encoder features and NAT latents; a hit returns the stored arrays."""
        hit = self._store.get(spectrum.spectrum_id)
        if hit is None:
            view = self.model.arrays
            enc = view.encode_spectrum(spectrum)
            hit = (enc, view.nat_forward(enc).latents)
            self._store[spectrum.spectrum_id] = hit
        return hit


def _truth_ids(model: Model, spectrum: Spectrum) -> list[int]:
    if spectrum.truth is None or len(spectrum.truth) == 0:
        raise ValueError(f"spectrum {spectrum.spectrum_id!r} has no training target")
    return model.table.ids_of(spectrum.truth)


def _at_inputs(model: Model, batch: Sequence[Spectrum],
               ids: list[list[int]]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """AT tokens [B, L], targets [B, L] and masses [B, L, 2] of a batch:
    inputs [BOS, a_1..a_n] against targets [a_1..a_n, EOS], each row
    right-padded with PAD to the longest."""
    table = model.table
    tokens, real = pad_rows([np.array([table.bos_id] + row) for row in ids])
    targets, _ = pad_rows([np.array(row + [table.eos_id]) for row in ids])
    tokens[~real] = targets[~real] = table.pad_id
    masses, _ = pad_rows([prefix_suffix_masses(row, s.neutral_mass, table)
                          for s, row in zip(batch, ids)])
    return tokens, targets, masses


def _at_loss(model: Model, batch: Sequence[Spectrum], ids: list[list[int]],
             context: ATCache | Tensor | Padded) -> Tensor:
    """Summed AT cross-entropy of a batch, from one AT forward on ``context``."""
    tokens, targets, masses = _at_inputs(model, batch, ids)
    logits = model.at_forward(tokens, masses, context)
    return ce_loss(logits, targets, pad_id=model.table.pad_id)


def _at_sample_loss(model: Model, spectrum: Spectrum, ids: list[int],
                    enc: Tensor, nat_latents: Tensor | None,
                    block_nat_grad: bool = True) -> Tensor:
    """The AT loss of one spectrum: :func:`_at_loss` on a batch of one."""
    return _at_loss(model, [spectrum], [ids], model.at_cache(enc, nat_latents, block_nat_grad))


def _padded_cache(cached: list[tuple[np.ndarray, np.ndarray]]) -> tuple[Padded, Tensor]:
    """Per-spectrum cached (encoder features, NAT latents) as one padded
    batch of encoder features and the stacked [B, t_max, d] latents, as constants."""
    rows, mask = pad_rows([enc for enc, _ in cached])
    return Padded(ad.constant(rows), mask), ad.constant(np.stack([nat for _, nat in cached]))


def _stage1_losses(model: Model, batch: Sequence[Spectrum]) -> tuple[Tensor, Tensor]:
    """Mean AT and NAT losses of a batch: one encoder, NAT, AT and CTC pass."""
    ids = [_truth_ids(model, s) for s in batch]
    enc = model.encode_spectrum(batch)
    inv = ad.constant(1.0 / len(batch))
    at_loss = ad.mul(_at_loss(model, batch, ids, enc), inv)
    nat_sum = ctc_loss(model.nat_forward(enc).logits, ids, model.table.blank_id)
    return at_loss, ad.mul(nat_sum, inv)


def _update(state: TrainState, loss: Tensor, lr: float, row: dict,
            unused_ok: frozenset[str] = frozenset()) -> dict:
    """The end both stages share: a finite-loss check, backward, one AdamW
    update at learning rate ``lr`` and one count of ``state.step``. Returns
    the metrics row ``{"step", **row, "lr"}``. A non-finite loss raises
    before any of the state changes."""
    if not np.isfinite(loss.values):
        raise NumericError(f"non-finite loss at step {state.step}: {row}")
    state.opt.lr = lr
    ad.backward(loss)
    adamw_step(state.model.store, state.opt, unused_ok=unused_ok)
    state.step += 1
    return {"step": state.step, **row, "lr": state.opt.lr}


def train_stage1_step(model: Model, batch: Sequence[Spectrum], state: TrainState) -> dict:
    """One joint step over the batch padded into one forward: mean AT and
    NAT losses, annealed mixture, backward, AdamW. Returns the step's scalar
    metrics."""
    if not batch:
        raise ValueError("empty batch")
    for s in batch:
        check_spectrum(s, model.cfg.max_residues)
    at_loss, nat_loss = _stage1_losses(model, batch)
    lam = lambda_at(state.anneal, state.step)
    row = {"stage": 1, "at_loss": float(at_loss.values), "nat_loss": float(nat_loss.values),
           "lambda": lam}
    # The segment embeddings belong to the AT partition but only the
    # stage-2 augmented context uses them; exempt them from the
    # missing-gradient tripwire here.
    return _update(state, total_loss(at_loss, nat_loss, lam), learning_rate(state.step, state.lr),
                   row, unused_ok=frozenset({"at/seg_nat", "at/seg_enc"}))


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
    ids = [_truth_ids(model, s) for s in batch]
    context = model.at_cache(*_padded_cache([cache.get(s) for s in batch]))
    loss = ad.mul(_at_loss(model, batch, ids, context), ad.constant(1.0 / len(batch)))
    row = _update(state, loss, state.opt.lr, {"stage": 2, "at_loss": float(loss.values),
                                              "nat_loss": float("nan"), "lambda": 1.0})
    model.finetuned = True
    return row
