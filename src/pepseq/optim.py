"""AdamW with decoupled weight decay over a ParameterStore.

One shared step counter drives bias correction; moment buffers are keyed by
parameter name and allocated lazily, a pair for each name they lack. Tensors
that do not require grad (the frozen partitions) are skipped entirely: their
values, and any stale moment buffers, stay bit-identical across steps.
Gradients of updated parameters are cleared after the step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .params import ParameterStore

__all__ = ["OptimizerState", "adamw_step"]


@dataclass
class OptimizerState:
    lr: float
    beta1: ClassVar[float] = 0.9
    beta2: ClassVar[float] = 0.999
    eps: ClassVar[float] = 1e-8
    weight_decay: ClassVar[float] = 0.01
    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        if self.lr < 0:
            raise ValueError(f"negative learning rate {self.lr}")


def adamw_step(
    store: ParameterStore,
    state: OptimizerState,
    unused_ok: frozenset[str] = frozenset(),
) -> None:
    """Apply one AdamW update to every unfrozen parameter with a gradient.

    An unfrozen parameter without a gradient is an error (it means the loss
    graph silently dropped a parameter that was supposed to train) unless
    the caller names it in ``unused_ok`` because the current phase
    legitimately never touches it.
    """
    state.step += 1
    t = state.step
    bc1 = 1.0 - state.beta1**t
    bc2 = 1.0 - state.beta2**t

    for key, p in store.items():
        if not p.requires_grad:
            continue
        g = p.grad
        if g is None:
            if key in unused_ok:
                continue
            raise ValueError(f"parameter {key!r} is trainable but received no gradient")
        if key not in state.m:
            state.m[key], state.v[key] = np.zeros_like(p.values), np.zeros_like(p.values)
        m = state.beta1 * state.m[key] + (1.0 - state.beta1) * g
        v = state.beta2 * state.v[key] + (1.0 - state.beta2) * g * g
        state.m[key] = m
        state.v[key] = v
        update = (m / bc1) / (np.sqrt(v / bc2) + state.eps)
        # Decoupled decay: applied to the value directly, not through the
        # gradient moments.
        p.values -= state.lr * (update + state.weight_decay * p.values)
        p.grad = None
