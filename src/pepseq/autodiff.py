"""Reverse-mode automatic differentiation over dense float64 arrays.

A :class:`Tensor` is its ``values`` and a :class:`Node`: the gradient,
whether one is required, the parent nodes, the backward closure and the
shape. Each operation computes its result eagerly with numpy and records its
input nodes together with a backward closure, so the computation graph is
rebuilt on every forward pass (define-by-run). A closure holds its inputs'
nodes and only the arrays that its backward reads, never a Tensor, so the
graph holds no value that no backward reads: such a value goes with the last
Tensor that holds it, during the forward. :func:`backward` walks the nodes
once in reverse topological order and accumulates gradients into every node
that requires them; leaves created with ``requires_grad=True`` end up
holding ``.grad`` arrays of the same shape as their values.

Only the primitives the sequencing model differentiates live here:
``add``, ``mul`` and ``neg`` with broadcasting, ``gelu``, shape surgery
(slicing, ``concat``, ``gather``, ``take_per_row``, ``unpack``), the fused ops
``log_softmax``, ``layer_norm``, ``linear`` (a weight shared by every
leading index of the input) and ``scaled_dot_attention`` (multi-head
attention), each one graph node, the reduction ``sum_all``, and
``stop_gradient``. Graphs are built by calling them by name (``add(a, b)``,
not ``a + b``); slicing, ``t[...]``, is the one operator a Tensor has.

Each op's forward math is an array kernel in :class:`Kernels`, under the
op's own name: the graph op checks its contract, calls the kernel on its
inputs' values and records the backward. Forwards whose results no backward
reads, such as the decoders', run the kernels on plain arrays and build no
Tensor.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "Node",
    "Kernels",
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
    "unpack",
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


class Node:
    """A Tensor's place in the graph: its gradient, whether it requires one,
    its parent nodes, its backward closure and its shape; never its value."""

    __slots__ = ("grad", "requires_grad", "parents", "backward", "shape")

    def __init__(self, shape: tuple[int, ...], requires_grad: bool):
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self.parents: tuple[Node, ...] = ()
        self.backward: Callable[[np.ndarray], None] | None = None
        self.shape = shape


class Tensor:
    """A float64 ndarray, ``values``, and its graph :class:`Node`, ``node``.
    ``grad`` and ``requires_grad`` are the node's."""

    __slots__ = ("values", "node")

    def __init__(self, values, requires_grad: bool = False):
        self.values = np.asarray(values, dtype=np.float64)
        self.node = Node(self.values.shape, bool(requires_grad))

    @property
    def grad(self) -> np.ndarray | None:
        return self.node.grad

    @grad.setter
    def grad(self, g: np.ndarray | None) -> None:
        self.node.grad = g

    @property
    def requires_grad(self) -> bool:
        return self.node.requires_grad

    @requires_grad.setter
    def requires_grad(self, flag: bool) -> None:
        self.node.requires_grad = bool(flag)

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

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    def __getitem__(self, key):
        return _slice(self, key)


def constant(values) -> Tensor:
    """A graph leaf that never receives gradient."""
    return Tensor(values, requires_grad=False)


def parameter(values) -> Tensor:
    """A trainable graph leaf."""
    return Tensor(values, requires_grad=True)


def _node(values: np.ndarray, parents: Sequence[Node], bwd: Callable[[np.ndarray], None]) -> Tensor:
    """An op's result: ``values`` over the ``parents`` nodes, with ``bwd``
    recorded if any parent requires gradient."""
    out = Tensor(values)
    for p in parents:
        if p.requires_grad:
            node = out.node
            node.requires_grad = True
            node.parents = tuple(parents)
            node.backward = bwd
            break
    return out


def _accum(node: Node, g: np.ndarray) -> None:
    if not node.requires_grad:
        return
    if node.grad is None:
        # A copy: ``g`` may be a view of another node's gradient.
        node.grad = np.array(g, dtype=np.float64)
    else:
        node.grad += g


def _grad_buffer(node: Node) -> np.ndarray:
    """``node.grad``, zero-filled on first use, for ops that scatter into it."""
    if node.grad is None:
        node.grad = np.zeros(node.shape)
    return node.grad


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``g`` down to ``shape`` (inverse of numpy broadcasting)."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g.reshape(shape)


# ---------------------------------------------------------------------------
# array kernels


_GELU_K = np.sqrt(2.0 / np.pi)


def _row_max(x: np.ndarray, op: str) -> np.ndarray:
    """Row maxima of ``op``'s input ``x``; NaN or a row of no finite entry raises."""
    m = x.max(axis=-1, keepdims=True)
    if not np.isfinite(m).all():  # a row max is NaN only if the row holds one
        if np.isnan(m).any():
            raise NumericError(f"{op} input contains NaN")
        if np.isneginf(m).any():
            raise NumericError(f"{op} row has no finite entry")
    return m


def _softmax(x: np.ndarray) -> np.ndarray:
    """Softmax values over the last axis, for attention; see
    :func:`_row_max` for its errors."""
    e = np.exp(x - _row_max(x, "softmax"))
    return e / e.sum(axis=-1, keepdims=True)


def _gelu_tanh(x: np.ndarray) -> np.ndarray:
    """The tanh inside GELU of ``x``, which its backward reads too."""
    return np.tanh(_GELU_K * (x + 0.044715 * (x * x * x)))


def _gelu(x: np.ndarray) -> np.ndarray:
    """GELU of ``x`` in the tanh approximation."""
    return 0.5 * x * (1.0 + _gelu_tanh(x))


def _layer_norm(x: np.ndarray, gain: np.ndarray, bias: np.ndarray):
    """Layer norm of ``x``, and the normalized rows and inverse deviations
    its backward reads."""
    d = x.shape[-1]
    # np.mean and np.var's own sums and divisions, without their overhead.
    xc = x - x.sum(axis=-1, keepdims=True) / d
    var = (xc * xc).sum(axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + 1e-5)
    xhat = xc * inv
    return xhat * gain + bias, xhat, inv


def _heads(x: np.ndarray, heads: int) -> np.ndarray:
    """[..., L, d] as [..., heads, L, d_h]."""
    return x.reshape(x.shape[:-1] + (heads, -1)).swapaxes(-2, -3)


def _merge(x: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """[..., heads, L, d_h] as ``shape`` [..., L, d]: :func:`_heads` undone."""
    return x.swapaxes(-2, -3).reshape(shape)


def _attention(q: np.ndarray, k: np.ndarray, v: np.ndarray, mask: np.ndarray | None, heads: int):
    """Multi-head attention of ``q`` over ``k``, ``v``, and what its backward
    reads: the heads of q, of k transposed and of v, the weights and the scale."""
    qh, vh = _heads(q, heads), _heads(v, heads)
    kt = _heads(k, heads).swapaxes(-1, -2)
    scale = 1.0 / np.sqrt(qh.shape[-1])
    scores = (qh @ kt) * scale
    if mask is not None:
        scores = scores + np.where(mask, 0.0, -np.inf)[..., None, :, :]
    p = _softmax(scores)
    return _merge(p @ vh, q.shape), (qh, kt, vh, p, scale)


def _per_row(idx: np.ndarray) -> tuple:
    """The index of one entry of the last axis per row, ``idx`` [...], of an
    array [..., V]."""
    return np.indices(idx.shape, sparse=True) + (idx,)


class Kernels:
    """The ops on plain float64 arrays, each under its graph op's name.

    A kernel is its op's forward math, which the graph op calls on its
    inputs' values, so a forward run on kernels computes the graph's values
    bit for bit. ``constant`` makes an array and ``stop_gradient`` is the
    identity. Kernels check no contract and record nothing: the caller
    passes what the graph op accepts. Only the softmaxes keep
    :func:`_row_max`'s errors.
    """

    # the ufuncs behind ``a + b``, ``a * b`` and ``-a``, and np.concatenate
    add, mul, neg, concat = np.add, np.multiply, np.negative, np.concatenate

    @staticmethod
    def constant(values) -> np.ndarray:
        return np.asarray(values, dtype=np.float64)

    @staticmethod
    def stop_gradient(a: np.ndarray) -> np.ndarray:
        return a

    gelu = staticmethod(_gelu)

    @staticmethod
    def gather(a: np.ndarray, indices, axis: int = 0) -> np.ndarray:
        return np.take(a, np.asarray(indices, dtype=np.intp), axis=axis)

    @staticmethod
    def take_per_row(a: np.ndarray, indices) -> np.ndarray:
        return a[_per_row(np.asarray(indices, dtype=np.intp))]

    @staticmethod
    def unpack(rows: np.ndarray, mask: np.ndarray) -> np.ndarray:
        out = np.zeros(mask.shape + rows.shape[1:])
        out[mask] = rows
        return out

    @staticmethod
    def log_softmax(x: np.ndarray) -> np.ndarray:
        shifted = x - _row_max(x, "log_softmax")
        return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))

    @staticmethod
    def layer_norm(x: np.ndarray, gain: np.ndarray, bias: np.ndarray) -> np.ndarray:
        return _layer_norm(x, gain, bias)[0]

    @staticmethod
    def linear(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
        return x @ w + b

    @staticmethod
    def scaled_dot_attention(q: np.ndarray, k: np.ndarray, v: np.ndarray,
                             mask: np.ndarray | None = None, heads: int = 1) -> np.ndarray:
        return _attention(q, k, v, mask, heads)[0]

    @staticmethod
    def sum_all(a: np.ndarray) -> np.ndarray:
        return np.asarray(a.sum())


# ---------------------------------------------------------------------------
# elementwise arithmetic


def add(a: Tensor, b: Tensor) -> Tensor:
    an, bn = a.node, b.node

    def bwd(g: np.ndarray) -> None:
        _accum(an, _unbroadcast(g, an.shape))
        _accum(bn, _unbroadcast(g, bn.shape))

    return _node(Kernels.add(a.values, b.values), (an, bn), bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    an, bn, av, bv = a.node, b.node, a.values, b.values

    def bwd(g: np.ndarray) -> None:
        _accum(an, _unbroadcast(g * bv, an.shape))
        _accum(bn, _unbroadcast(g * av, bn.shape))

    return _node(Kernels.mul(av, bv), (an, bn), bwd)


def neg(a: Tensor) -> Tensor:
    an = a.node

    def bwd(g: np.ndarray) -> None:
        _accum(an, -g)

    return _node(Kernels.neg(a.values), (an,), bwd)


def gelu(a: Tensor) -> Tensor:
    """GELU in the tanh approximation (smooth everywhere)."""
    an, x = a.node, a.values

    # The tanh is recomputed, by the forward's expression, not kept.
    def bwd(g: np.ndarray) -> None:
        t = _gelu_tanh(x)
        d_inner = _GELU_K * (1.0 + 3 * 0.044715 * x**2)
        _accum(an, g * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t**2) * d_inner))

    return _node(_gelu(x), (an,), bwd)


# ---------------------------------------------------------------------------
# shape surgery


def _reads_once(key) -> bool:
    """Whether the index ``key`` reads no element twice: it is built of
    ints, slices, ``...``, ``None`` and boolean masks, but no integer array."""
    return all(k is None or k is Ellipsis or isinstance(k, (int, np.integer, slice))
               or (isinstance(k, np.ndarray) and k.dtype == bool)
               for k in (key if isinstance(key, tuple) else (key,)))


def _slice(a: Tensor, key) -> Tensor:
    an, once = a.node, _reads_once(key)

    # A plain scatter where no index repeats; otherwise one that adds once
    # per occurrence, so a repeated index sums. Both give the same bits.
    def bwd(g: np.ndarray) -> None:
        if not an.requires_grad:
            return
        if once:
            _grad_buffer(an)[key] += g
        else:
            np.add.at(_grad_buffer(an), key, g)

    return _node(a.values[key], (an,), bwd)


def concat(parts: Sequence[Tensor], axis: int = 0) -> Tensor:
    if not parts:
        raise DimensionError("concat needs at least one tensor")
    nodes = tuple(p.node for p in parts)
    offsets = [0]
    for n in nodes:
        offsets.append(offsets[-1] + n.shape[axis])

    def bwd(g: np.ndarray) -> None:
        for n, lo, hi in zip(nodes, offsets[:-1], offsets[1:]):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(lo, hi)
            _accum(n, g[tuple(idx)])

    return _node(Kernels.concat([p.values for p in parts], axis), nodes, bwd)


def gather(a: Tensor, indices, axis: int = 0) -> Tensor:
    """Select rows (or entries, for 1-D input) along ``axis`` by integer index."""
    an, idx = a.node, np.asarray(indices, dtype=np.intp)

    def bwd(g: np.ndarray) -> None:
        if an.requires_grad:
            np.add.at(np.moveaxis(_grad_buffer(an), axis, 0), idx, np.moveaxis(g, axis, 0))

    return _node(Kernels.gather(a.values, idx, axis), (an,), bwd)


def take_per_row(a: Tensor, indices) -> Tensor:
    """out[...] = a[..., indices[...]]: one entry of the last axis per row,
    for ``a`` [..., V] and integer ``indices`` [...]."""
    an, idx = a.node, np.asarray(indices, dtype=np.intp)
    if a.ndim < 1 or idx.shape != a.shape[:-1]:
        raise DimensionError(
            f"take_per_row needs one index per row: {idx.shape} vs rows {a.shape[:-1]}"
        )

    # Each row is read once, so the scatter meets no index twice.
    def bwd(g: np.ndarray) -> None:
        if an.requires_grad:
            _grad_buffer(an)[_per_row(idx)] += g

    return _node(Kernels.take_per_row(a.values, idx), (an,), bwd)


def unpack(rows: Tensor, mask) -> Tensor:
    """A packed block of rows [N, ...] laid out at the True places of the
    boolean ``mask`` [B, S], in row-major order, with zeros elsewhere:
    [B, S, ...]. ``t[mask]`` packs such a block again."""
    mask = np.asarray(mask, dtype=bool)
    if rows.ndim < 1 or rows.shape[0] != np.count_nonzero(mask):
        raise DimensionError(f"unpack needs one row per True of its mask: {rows.shape} vs "
                             f"{np.count_nonzero(mask)}")
    rn = rows.node

    def bwd(g: np.ndarray) -> None:
        _accum(rn, g[mask])

    return _node(Kernels.unpack(rows.values, mask), (rn,), bwd)


def stop_gradient(a: Tensor) -> Tensor:
    """Identity in the forward pass; blocks all gradient flow upstream."""
    return Tensor(Kernels.stop_gradient(a.values), requires_grad=False)


# ---------------------------------------------------------------------------
# fused, numerically stable ops


def log_softmax(a: Tensor) -> Tensor:
    """Log-softmax over the last axis; see :func:`_row_max` for its errors."""
    an, out_vals = a.node, Kernels.log_softmax(a.values)

    def bwd(g: np.ndarray) -> None:
        s = np.exp(out_vals)
        _accum(an, g - s * g.sum(axis=-1, keepdims=True))

    return _node(out_vals, (an,), bwd)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize over the last axis (variance + 1e-5), then scale and shift."""
    d = x.shape[-1]
    if gain.values.shape != (d,) or bias.values.shape != (d,):
        raise DimensionError(
            f"layer_norm gain/bias must have shape ({d},), got {gain.shape} and {bias.shape}"
        )
    xn, gn, bn, gv = x.node, gain.node, bias.node, gain.values
    out_vals, xhat, inv = _layer_norm(x.values, gv, bias.values)

    def bwd(g: np.ndarray) -> None:
        lead = tuple(range(g.ndim - 1))
        _accum(bn, g.sum(axis=lead))
        _accum(gn, (g * xhat).sum(axis=lead))
        dxhat = g * gv
        dx = inv * (
            dxhat
            - dxhat.mean(axis=-1, keepdims=True)
            - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
        )
        _accum(xn, dx)

    return _node(out_vals, (xn, gn, bn), bwd)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b as one node, for x of shape [..., m, in]; the 2-D weight w
    [in, out] is shared by every leading index of x, and b is [out]. The
    backward folds the leading axes into the rows of one GEMM."""
    xv, wv, bv = x.values, w.values, b.values
    if xv.ndim < 2 or wv.ndim != 2 or xv.shape[-1] != wv.shape[0]:
        raise DimensionError(f"linear shapes do not match: {xv.shape} @ {wv.shape}")
    if bv.shape != wv.shape[1:]:
        raise DimensionError(f"linear bias shape {bv.shape} does not match weight {wv.shape}")
    xn, wn, bn = x.node, w.node, b.node

    def bwd(g: np.ndarray) -> None:
        g2 = g.reshape(-1, g.shape[-1])
        _accum(bn, g2.sum(axis=0))
        if xn.requires_grad:
            _accum(xn, (g2 @ wv.T).reshape(xv.shape))
        if wn.requires_grad:
            _accum(wn, xv.reshape(-1, xv.shape[-1]).T @ g2)

    return _node(Kernels.linear(xv, wv, bv), (xn, wn, bn), bwd)


def scaled_dot_attention(q: Tensor, k: Tensor, v: Tensor, mask: np.ndarray | None = None,
                         heads: int = 1) -> Tensor:
    """Multi-head attention softmax(q k^T / sqrt(d_h) + mask bias) v as one node.

    ``q`` is [..., L, d]; ``k`` and ``v`` are [..., S, d] with leading axes
    equal to the last ones of ``q``, so one [S, d] context serves queries
    [n, L, d]. The last axis splits into ``heads`` heads of width d_h, merged
    back in the [..., L, d] result. ``mask`` is a boolean array, True where
    attention is allowed, that broadcasts to [..., L, S]: a causal [L, S]
    mask, or a key-padding mask [B, 1, S] of a padded batch. Every head sees
    the same mask. A query row with no allowed position is an error.
    """
    qs, ks, vs = q.values.shape, k.values.shape, v.values.shape
    if (not 2 <= len(ks) <= len(qs) or ks[:-2] != qs[len(qs) - len(ks) : -2]
            or vs != ks or qs[-1] != ks[-1] or qs[-1] % heads):
        raise DimensionError(f"attention shapes do not match: {qs}, {ks}, {vs}")
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        rows = qs[:-1] + ks[-2:-1]  # the scores [..., L, S] without their heads axis
        if mask.ndim > len(rows) or any(m not in (1, r) for m, r in zip(mask.shape[::-1], rows[::-1])):
            raise DimensionError(f"mask shape {mask.shape} does not broadcast to scores {rows}")
        if not mask.any(axis=-1).all():
            raise NumericError("attention mask leaves a query row with no allowed position")
    qn, kn, vn = q.node, k.node, v.node
    out_vals, (qh, kt, vh, p, scale) = _attention(q.values, k.values, v.values, mask, heads)

    # Each expression, in order, is the backward of a matmul, scale, mask,
    # softmax, matmul graph, so gradients equal that graph's bit for bit.
    def bwd(g: np.ndarray) -> None:
        go = _heads(g, heads)
        gp = go @ np.swapaxes(vh, -1, -2)
        gs = p * (gp - (gp * p).sum(axis=-1, keepdims=True)) * scale
        _accum(qn, _merge(gs @ np.swapaxes(kt, -1, -2), qs))
        gkt = _unbroadcast(np.swapaxes(qh, -1, -2) @ gs, kt.shape)
        _accum(kn, _merge(np.swapaxes(gkt, -1, -2), ks))
        _accum(vn, _merge(_unbroadcast(np.swapaxes(p, -1, -2) @ go, vh.shape), vs))

    return _node(out_vals, (qn, kn, vn), bwd)


# ---------------------------------------------------------------------------
# reductions


def sum_all(a: Tensor) -> Tensor:
    an = a.node

    def bwd(g: np.ndarray) -> None:
        _accum(an, np.broadcast_to(g, an.shape).copy() if an.shape else np.asarray(g))

    return _node(Kernels.sum_all(a.values), (an,), bwd)


# ---------------------------------------------------------------------------
# backward pass


def _topo_order(root: Node) -> list[Node]:
    """Parents-before-children ordering of the subgraph that needs gradients."""
    order: list[Node] = []
    visited: set[int] = set()
    stack: list[tuple[Node, bool]] = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node.parents:
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
    order = _topo_order(loss.node)
    loss.grad = np.ones(loss.shape)
    while order:
        node = order.pop()
        if node.backward is not None and node.grad is not None:
            node.backward(node.grad)
        # The node has passed its gradient on. Unlinking it frees what its
        # closure holds, and the node itself once no Tensor keeps it.
        node.backward = None
        node.parents = ()


# ---------------------------------------------------------------------------
# finite-difference oracle


def finite_diff_check(
    f: Callable[[], Tensor],
    tensors: Sequence[Tensor],
    eps: float = 1e-4,
) -> float:
    """Compare analytic gradients of ``f`` against central finite differences.

    ``f`` must be a deterministic zero-argument callable that rebuilds its
    graph from the current ``.values`` of ``tensors`` and returns a scalar.
    Returns the maximum relative error over all checked coordinates, with
    the relative error of (a, b) defined as |a-b| / max(|a|, |b|, 1e-8).
    """
    for t in tensors:
        t.grad = None
    loss = f()
    backward(loss)
    analytic = [np.zeros_like(t.values) if t.grad is None else t.grad.copy() for t in tensors]
    for t in tensors:
        t.grad = None

    worst = 0.0
    for t, an in zip(tensors, analytic):
        for idx in np.ndindex(t.shape):
            a = float(an[idx])
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
