"""Reverse-mode automatic differentiation over dense float64 arrays.

Values are wrapped in :class:`Tensor` nodes. Each operation computes its
result eagerly with numpy and records its input nodes together with a
backward closure, so the computation graph is rebuilt on every forward pass
(define-by-run). :func:`backward` walks that graph once in reverse
topological order and accumulates gradients into every node that requires
them; leaves created with ``requires_grad=True`` end up holding ``.grad``
arrays of the same shape as their values.

Only the primitives the sequencing model differentiates live here:
``add``, ``mul`` and ``neg`` with broadcasting, ``gelu``, shape surgery
(slicing, ``concat``, ``gather``, ``take_per_row``), the fused ops
``log_softmax``, ``layer_norm``, ``linear`` (a weight shared by every
leading index of the input) and ``scaled_dot_attention`` (multi-head
attention), each one graph node, the reduction ``sum_all``, and
``stop_gradient``.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "DimensionError",
    "NumericError",
    "constant",
    "parameter",
    "add",
    "mul",
    "neg",
    "concat",
    "gather",
    "take_per_row",
    "gelu",
    "log_softmax",
    "layer_norm",
    "linear",
    "scaled_dot_attention",
    "stop_gradient",
    "sum_all",
    "backward",
    "finite_diff_check",
]


class DimensionError(ValueError):
    """Shapes fed to an op do not satisfy its contract."""


class NumericError(ArithmeticError):
    """NaN or other numeric poison where the contract demands finite values."""


class Tensor:
    """A node in the differentiation graph wrapping a float64 ndarray."""

    __slots__ = ("values", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, values, requires_grad: bool = False):
        self.values = np.asarray(values, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], None] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    @property
    def ndim(self) -> int:
        return self.values.ndim

    @property
    def size(self) -> int:
        return self.values.size

    def item(self) -> float:
        return float(self.values.reshape(()))

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    # Operator sugar; python scalars are lifted to constants.
    def __add__(self, other):
        return add(self, _lift(other))

    def __radd__(self, other):
        return add(_lift(other), self)

    def __mul__(self, other):
        return mul(self, _lift(other))

    def __rmul__(self, other):
        return mul(_lift(other), self)

    def __neg__(self):
        return neg(self)

    def __getitem__(self, key):
        return _slice(self, key)


def constant(values) -> Tensor:
    """A graph leaf that never receives gradient."""
    return Tensor(values, requires_grad=False)


def parameter(values) -> Tensor:
    """A trainable graph leaf."""
    return Tensor(values, requires_grad=True)


def _lift(x) -> Tensor:
    return x if isinstance(x, Tensor) else constant(x)


def _node(values: np.ndarray, parents: Sequence[Tensor], bwd: Callable[[np.ndarray], None]) -> Tensor:
    out = Tensor(values)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = bwd
    return out


def _accum(t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad:
        return
    if t.grad is None:
        # A copy: ``g`` may be a view of another node's gradient.
        t.grad = np.array(g, dtype=np.float64)
    else:
        t.grad += g


def _grad_buffer(t: Tensor) -> np.ndarray:
    """``t.grad``, zero-filled on first use, for ops that scatter into it."""
    if t.grad is None:
        t.grad = np.zeros_like(t.values)
    return t.grad


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``g`` down to ``shape`` (inverse of numpy broadcasting)."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g.reshape(shape)


# ---------------------------------------------------------------------------
# elementwise arithmetic


def add(a: Tensor, b: Tensor) -> Tensor:
    out_vals = a.values + b.values

    def bwd(g: np.ndarray) -> None:
        _accum(a, _unbroadcast(g, a.shape))
        _accum(b, _unbroadcast(g, b.shape))

    return _node(out_vals, (a, b), bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out_vals = a.values * b.values

    def bwd(g: np.ndarray) -> None:
        _accum(a, _unbroadcast(g * b.values, a.shape))
        _accum(b, _unbroadcast(g * a.values, b.shape))

    return _node(out_vals, (a, b), bwd)


def neg(a: Tensor) -> Tensor:
    def bwd(g: np.ndarray) -> None:
        _accum(a, -g)

    return _node(-a.values, (a,), bwd)


def gelu(a: Tensor) -> Tensor:
    """GELU in the tanh approximation (smooth everywhere)."""
    x = a.values
    k = np.sqrt(2.0 / np.pi)
    inner = k * (x + 0.044715 * (x * x * x))
    t = np.tanh(inner)
    out_vals = 0.5 * x * (1.0 + t)

    def bwd(g: np.ndarray) -> None:
        d_inner = k * (1.0 + 3 * 0.044715 * x**2)
        _accum(a, g * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t**2) * d_inner))

    return _node(out_vals, (a,), bwd)


# ---------------------------------------------------------------------------
# shape surgery


def _slice(a: Tensor, key) -> Tensor:
    out_vals = a.values[key]

    def bwd(g: np.ndarray) -> None:
        if a.requires_grad:
            _grad_buffer(a)[key] += g

    return _node(out_vals, (a,), bwd)


def concat(parts: Sequence[Tensor], axis: int = 0) -> Tensor:
    if not parts:
        raise DimensionError("concat needs at least one tensor")
    out_vals = np.concatenate([p.values for p in parts], axis=axis)
    offsets = np.cumsum([0] + [p.shape[axis] for p in parts])

    def bwd(g: np.ndarray) -> None:
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(lo, hi)
            _accum(p, g[tuple(idx)])

    return _node(out_vals, tuple(parts), bwd)


def gather(a: Tensor, indices, axis: int = 0) -> Tensor:
    """Select rows (or entries, for 1-D input) along ``axis`` by integer index."""
    idx = np.asarray(indices, dtype=np.intp)
    out_vals = np.take(a.values, idx, axis=axis)

    def bwd(g: np.ndarray) -> None:
        if a.requires_grad:
            np.add.at(np.moveaxis(_grad_buffer(a), axis, 0), idx, np.moveaxis(g, axis, 0))

    return _node(out_vals, (a,), bwd)


def take_per_row(a: Tensor, indices) -> Tensor:
    """out[i] = a[i, indices[i]] for a 2-D tensor."""
    if a.ndim != 2:
        raise DimensionError(f"take_per_row expects a 2-D tensor, got shape {a.shape}")
    idx = np.asarray(indices, dtype=np.intp)
    if idx.shape != (a.shape[0],):
        raise DimensionError(
            f"take_per_row needs one index per row: {idx.shape} vs {a.shape[0]} rows"
        )
    rows = np.arange(a.shape[0])
    out_vals = a.values[rows, idx]

    def bwd(g: np.ndarray) -> None:
        if a.requires_grad:
            np.add.at(_grad_buffer(a), (rows, idx), g)

    return _node(out_vals, (a,), bwd)


def stop_gradient(a: Tensor) -> Tensor:
    """Identity in the forward pass; blocks all gradient flow upstream."""
    return Tensor(a.values, requires_grad=False)


# ---------------------------------------------------------------------------
# fused, numerically stable ops


def log_softmax(a: Tensor) -> Tensor:
    """Log-softmax over the last axis."""
    x = a.values
    if np.isnan(x).any():
        raise NumericError("log_softmax input contains NaN")
    m = np.max(x, axis=-1, keepdims=True)
    shifted = x - m
    lse = np.log(np.sum(np.exp(shifted), axis=-1, keepdims=True))
    out_vals = shifted - lse

    def bwd(g: np.ndarray) -> None:
        s = np.exp(out_vals)
        _accum(a, g - s * g.sum(axis=-1, keepdims=True))

    return _node(out_vals, (a,), bwd)


def _softmax(x: np.ndarray) -> np.ndarray:
    """Softmax values over the last axis, for attention; NaN input and a row
    with no finite entry are errors."""
    if np.isnan(x).any():
        raise NumericError("softmax input contains NaN")
    m = np.max(x, axis=-1, keepdims=True)
    # Guard only the shift of an all -inf row; its 0/0 is rejected below.
    e = np.exp(np.where(np.isneginf(m), x, x - m))
    denom = e.sum(axis=-1, keepdims=True)
    if np.any(denom == 0.0):
        raise NumericError("softmax row has no finite entry")
    return e / denom


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize over the last axis (variance + 1e-5), then scale and shift."""
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise DimensionError(
            f"layer_norm gain/bias must have shape ({d},), got {gain.shape} and {bias.shape}"
        )
    mu = x.values.mean(axis=-1, keepdims=True)
    var = x.values.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + 1e-5)
    xhat = (x.values - mu) * inv
    out_vals = xhat * gain.values + bias.values

    def bwd(g: np.ndarray) -> None:
        lead = tuple(range(g.ndim - 1))
        _accum(bias, g.sum(axis=lead))
        _accum(gain, (g * xhat).sum(axis=lead))
        dxhat = g * gain.values
        dx = inv * (
            dxhat
            - dxhat.mean(axis=-1, keepdims=True)
            - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
        )
        _accum(x, dx)

    return _node(out_vals, (x, gain, bias), bwd)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b as one node, for x of shape [..., m, in]; the 2-D weight w
    [in, out] is shared by every leading index of x, and b is [out]."""
    if x.ndim < 2 or w.ndim != 2 or x.shape[-1] != w.shape[0]:
        raise DimensionError(f"linear shapes do not match: {x.shape} @ {w.shape}")
    if b.shape != w.shape[1:]:
        raise DimensionError(f"linear bias shape {b.shape} does not match weight {w.shape}")

    # The backward of a matmul, add graph, in its order: gradients equal
    # that graph's bit for bit.
    def bwd(g: np.ndarray) -> None:
        _accum(b, _unbroadcast(g, b.shape))
        if x.requires_grad:
            _accum(x, g @ w.values.T)
        if w.requires_grad:
            _accum(w, _unbroadcast(np.swapaxes(x.values, -1, -2) @ g, w.shape))

    return _node(x.values @ w.values + b.values, (x, w, b), bwd)


def scaled_dot_attention(q: Tensor, k: Tensor, v: Tensor, mask: np.ndarray | None = None,
                         heads: int = 1) -> Tensor:
    """Multi-head attention softmax(q k^T / sqrt(d_h) + mask bias) v as one node.

    ``q`` is [..., L, d]; ``k`` and ``v`` are [..., S, d] with leading axes
    equal to the last ones of ``q``, so one [S, d] context serves queries
    [n, L, d]. The last axis splits into ``heads`` heads of width d_h, merged
    back in the [..., L, d] result. ``mask`` is a boolean [L, S] array, True
    where attention is allowed; a row with no allowed position is an error.
    """
    if (not 2 <= k.ndim <= q.ndim or k.shape[:-2] != q.shape[q.ndim - k.ndim : -2]
            or v.shape != k.shape or q.shape[-1] != k.shape[-1] or q.shape[-1] % heads):
        raise DimensionError(f"attention shapes do not match: {q.shape}, {k.shape}, {v.shape}")

    def split(x: np.ndarray) -> np.ndarray:  # [..., L, d] -> [..., heads, L, d_h]
        return x.reshape(x.shape[:-1] + (heads, -1)).swapaxes(-2, -3)

    def merge(x: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
        return x.swapaxes(-2, -3).reshape(shape)

    qh, kh, vh = split(q.values), split(k.values), split(v.values)
    kt = kh.swapaxes(-1, -2)
    scale = 1.0 / np.sqrt(qh.shape[-1])
    scores = (qh @ kt) * scale
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != scores.shape[-2:]:
            raise DimensionError(f"mask shape {mask.shape} does not match scores {scores.shape[-2:]}")
        if not mask.any(axis=1).all():
            raise NumericError("attention mask leaves a query row with no allowed position")
        scores = scores + np.where(mask, 0.0, -np.inf)
    p = _softmax(scores)

    # Each expression, in order, is the backward of a matmul, scale, mask,
    # softmax, matmul graph, so gradients equal that graph's bit for bit.
    def bwd(g: np.ndarray) -> None:
        go = split(g)
        gp = go @ np.swapaxes(vh, -1, -2)
        gs = p * (gp - (gp * p).sum(axis=-1, keepdims=True)) * scale
        _accum(q, merge(gs @ np.swapaxes(kt, -1, -2), q.shape))
        gkt = _unbroadcast(np.swapaxes(qh, -1, -2) @ gs, kt.shape)
        _accum(k, merge(np.swapaxes(gkt, -1, -2), k.shape))
        _accum(v, merge(_unbroadcast(np.swapaxes(p, -1, -2) @ go, vh.shape), v.shape))

    return _node(merge(p @ vh, q.shape), (q, k, v), bwd)


# ---------------------------------------------------------------------------
# reductions


def sum_all(a: Tensor) -> Tensor:
    def bwd(g: np.ndarray) -> None:
        _accum(a, np.broadcast_to(g, a.shape).copy() if a.shape else np.asarray(g))

    return _node(np.asarray(a.values.sum()), (a,), bwd)


# ---------------------------------------------------------------------------
# backward pass


def _topo_order(root: Tensor) -> list[Tensor]:
    """Parents-before-children ordering of the subgraph that needs gradients."""
    order: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in visited and p.requires_grad:
                stack.append((p, False))
    return order


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(node) into ``.grad`` of every requiring node."""
    if loss.size != 1:
        raise DimensionError(f"backward needs a scalar loss, got shape {loss.shape}")
    if not np.isfinite(loss.values).all():
        raise NumericError(f"backward needs a finite loss, got {loss.values!r}")
    if not loss.requires_grad:
        return
    order = _topo_order(loss)
    loss.grad = np.ones_like(loss.values)
    for node in reversed(order):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)


# ---------------------------------------------------------------------------
# finite-difference oracle


def finite_diff_check(
    f: Callable[[], Tensor],
    tensors: Sequence[Tensor],
    eps: float = 1e-4,
    *,
    skip_blocked: bool = False,
) -> float:
    """Compare analytic gradients of ``f`` against central finite differences.

    ``f`` must be a deterministic zero-argument callable that rebuilds its
    graph from the current ``.values`` of ``tensors`` and returns a scalar.
    Returns the maximum relative error over all checked coordinates, with
    the relative error of (a, b) defined as |a-b| / max(|a|, |b|, 1e-8).

    With ``skip_blocked=True``, coordinates whose analytic gradient is
    exactly 0.0 are skipped; use this when ``f`` routes a tensor through
    ``stop_gradient`` so the value path still moves under perturbation.
    """
    for t in tensors:
        t.zero_grad()
    loss = f()
    backward(loss)
    analytic = [np.zeros_like(t.values) if t.grad is None else t.grad.copy() for t in tensors]
    for t in tensors:
        t.zero_grad()

    worst = 0.0
    for t, an in zip(tensors, analytic):
        for idx in np.ndindex(t.shape):
            a = float(an[idx])
            if skip_blocked and a == 0.0:
                continue
            orig = float(t.values[idx])
            t.values[idx] = orig + eps
            f_plus = f().item()
            t.values[idx] = orig - eps
            f_minus = f().item()
            t.values[idx] = orig
            fd = (f_plus - f_minus) / (2.0 * eps)
            rel = abs(fd - a) / max(abs(fd), abs(a), 1e-8)
            worst = max(worst, rel)
    return worst
