"""Unit tests for the reverse-mode engine.

Gradients are checked against central finite differences; graph semantics
(sharing, accumulation, stop_gradient) against a recursive tree-expansion
oracle that never memoizes.
"""

import gc
import warnings
import weakref

import numpy as np
import pytest
from numpy.testing import assert_allclose

from pepseq import autodiff as ad
from pepseq.params import ParameterStore


def make_rng(seed=0):
    return np.random.default_rng(seed)


def plain_softmax(x):
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def plain_log_softmax(x):
    shifted = x - x.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def masked_rows(seed, shape=(3, 5, 9)):
    """Random rows with some entries -inf, each row keeping one finite entry."""
    rng = make_rng(seed)
    x = rng.normal(size=shape) * 10
    x[rng.random(shape) < 0.6] = -np.inf
    keep = rng.integers(shape[-1], size=shape[:-1])
    np.put_along_axis(x, keep[..., None], rng.normal(size=shape[:-1] + (1,)), axis=-1)
    return x


class TestSoftmaxFastPath:
    """The finite-max path of _softmax and log_softmax equals the plain
    formula bit for bit; NaN and all -inf rows still raise, with no warning."""

    @pytest.mark.parametrize("make", [lambda: make_rng(11).normal(size=(4, 6, 13)) * 30,
                                      lambda: masked_rows(12)])
    def test_equal_plain_formula_bit_for_bit(self, make):
        x = make()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.array_equal(ad._softmax(x), plain_softmax(x))
            assert np.array_equal(ad.log_softmax(ad.constant(x)).values, plain_log_softmax(x))

    @pytest.mark.parametrize("where", [(0, 0), (1, 4), (2, 8)])
    @pytest.mark.parametrize("masked", [False, True])
    def test_nan_anywhere_in_a_row_raises(self, where, masked):
        x = masked_rows(13, (3, 9)) if masked else make_rng(13).normal(size=(3, 9))
        x[where] = np.nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ad.NumericError, match="softmax input contains NaN"):
                ad._softmax(x)
            with pytest.raises(ad.NumericError, match="log_softmax input contains NaN"):
                ad.log_softmax(ad.constant(x))

    def test_all_neg_inf_row_raises(self):
        x = masked_rows(14, (3, 9))
        x[1] = -np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ad.NumericError, match="no finite entry"):
                ad._softmax(x)

    def test_log_softmax_of_an_all_neg_inf_row_raises(self):
        x = masked_rows(15, (3, 9))
        x[1] = -np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ad.NumericError, match="log_softmax row has no finite entry"):
                ad.log_softmax(ad.constant(x))


def causal(n):
    return np.tril(np.ones((n, n), dtype=bool))


KEY_MASK = np.array([[[True] * 6], [[True] * 4 + [False] * 2], [[True] + [False] * 5]])  # [3, 1, 6]
ROWS = KEY_MASK[:, 0, :]  # [3, 6], 11 real rows of a padded batch

# Each case is written once against an op set ``ops``, drawing its inputs
# with ``t(*shape)``: plain arrays for the kernels, parameters for the graph
# ops. "One row" is a decode step's [n, 1, d]; its attention reads n cached
# prefixes [n, t, d], or one shared context [S, d].
KERNEL_CASES = {
    "constant": lambda ops, t: ops.constant(np.arange(6).reshape(2, 3)),
    "stop_gradient": lambda ops, t: ops.stop_gradient(t(5, 1, 8)),
    "add: one row": lambda ops, t: ops.add(t(5, 1, 8), t(8)),
    "mul: one row": lambda ops, t: ops.mul(t(5, 1, 8), t(5, 1, 1)),
    "neg: one row": lambda ops, t: ops.neg(t(5, 1, 8)),
    "gelu: one row": lambda ops, t: ops.gelu(t(5, 1, 8)),
    "concat: a cached step": lambda ops, t: ops.concat([t(5, 3, 8), t(5, 1, 8)], axis=-2),
    "gather: token rows": lambda ops, t: ops.gather(t(7, 8), [[3], [0], [3]]),
    "take_per_row: one row": lambda ops, t: ops.take_per_row(t(5, 1, 8), [[0], [7], [2], [2], [5]]),
    "log_softmax: one row": lambda ops, t: ops.log_softmax(t(5, 1, 8)),
    "layer_norm: one row": lambda ops, t: ops.layer_norm(t(5, 1, 8), t(8), t(8)),
    "layer_norm: batched": lambda ops, t: ops.layer_norm(t(3, 6, 8), t(8), t(8)),
    "linear: one row": lambda ops, t: ops.linear(t(5, 1, 8), t(8, 8), t(8)),
    "linear: batched": lambda ops, t: ops.linear(t(3, 6, 8), t(8, 4), t(4)),
    "scaled_dot_attention: one row over cached prefixes": lambda ops, t: ops.scaled_dot_attention(
        t(5, 1, 8), t(5, 4, 8), t(5, 4, 8)),
    "scaled_dot_attention: one row over a shared context, heads=2": lambda ops, t: ops.scaled_dot_attention(
        t(5, 1, 8), t(9, 8), t(9, 8), None, 2),
    "scaled_dot_attention: batched under a key mask": lambda ops, t: ops.scaled_dot_attention(
        t(3, 4, 8), t(3, 6, 8), t(3, 6, 8), KEY_MASK),
    "scaled_dot_attention: batched under a key mask, heads=2": lambda ops, t: ops.scaled_dot_attention(
        t(3, 4, 8), t(3, 6, 8), t(3, 6, 8), KEY_MASK, 2),
    "scaled_dot_attention: causal": lambda ops, t: ops.scaled_dot_attention(
        t(2, 5, 8), t(2, 5, 8), t(2, 5, 8), causal(5)),
    "scaled_dot_attention: causal, heads=2": lambda ops, t: ops.scaled_dot_attention(
        t(2, 5, 8), t(2, 5, 8), t(2, 5, 8), causal(5), 2),
    "unpack: a batch's real rows": lambda ops, t: ops.unpack(t(11, 8), ROWS),
    "sum_all": lambda ops, t: ops.sum_all(t(3, 4)),
}


def drawing(seed, wrap):
    rng = make_rng(seed)
    return lambda *shape: wrap(rng.normal(size=shape))


class TestKernels:
    def test_every_graph_op_has_a_kernel_and_a_case(self):
        ops = {name for name in ad.__all__ if callable(getattr(ad, name))
               and not isinstance(getattr(ad, name), type)} - {"parameter", "backward", "finite_diff_check"}
        assert ops == {name for name in vars(ad.Kernels) if not name.startswith("_")}
        assert ops == {case.split(":")[0] for case in KERNEL_CASES}

    @pytest.mark.parametrize("case", KERNEL_CASES)
    def test_kernel_equals_its_graph_op_bit_for_bit(self, case, monkeypatch):
        made, init = [], ad.Tensor.__init__

        def counting(tensor, *args, **kwargs):
            made.append(1)
            init(tensor, *args, **kwargs)

        monkeypatch.setattr(ad.Tensor, "__init__", counting)
        kernel = KERNEL_CASES[case](ad.Kernels, drawing(31, lambda x: x))
        assert made == [] and type(kernel) is np.ndarray and kernel.dtype == np.float64
        graph = KERNEL_CASES[case](ad, drawing(31, ad.parameter)).values
        assert kernel.shape == graph.shape and np.array_equal(kernel, graph)

    def test_softmax_kernels_keep_their_errors(self):
        x = make_rng(32).normal(size=(2, 1, 5))
        x[1, 0, 3] = np.nan
        with pytest.raises(ad.NumericError, match="log_softmax input contains NaN"):
            ad.Kernels.log_softmax(x)
        q = make_rng(33).normal(size=(2, 1, 4))
        with pytest.raises(ad.NumericError, match="softmax input contains NaN"):
            ad.Kernels.scaled_dot_attention(q, x[..., :4].reshape(2, 1, 4), q)
        masked = np.array([[[True]], [[False]]])  # the second row may attend nowhere
        with pytest.raises(ad.NumericError, match="softmax row has no finite entry"):
            ad.Kernels.scaled_dot_attention(q, q, q, masked)


class TestForwardValues:
    def test_add_mul_broadcasting(self):
        rng = make_rng(1)
        a = ad.parameter(rng.normal(size=(3, 1)))
        b = ad.parameter(rng.normal(size=(1, 4)))
        assert_allclose(ad.add(a, b).values, a.values + b.values)
        assert_allclose(ad.mul(a, b).values, a.values * b.values)

    def test_matmul_matches_numpy(self):
        # The matrix product is computed inside ad.linear; a zero bias leaves it bare.
        rng = make_rng(2)
        a = ad.parameter(rng.normal(size=(3, 5)))
        b = ad.parameter(rng.normal(size=(5, 2)))
        out = ad.linear(a, b, ad.constant(np.zeros(2)))
        assert_allclose(out.values, a.values @ b.values)

    def test_linear_shape_errors(self):
        x = ad.parameter(np.zeros((3, 4)))
        b = ad.parameter(np.zeros(2))
        with pytest.raises(ad.DimensionError):
            ad.linear(x, ad.parameter(np.zeros((5, 2))), b)
        with pytest.raises(ad.DimensionError):  # x is at least 2-D
            ad.linear(ad.parameter(np.zeros(4)), ad.parameter(np.zeros((4, 2))), b)
        with pytest.raises(ad.DimensionError):  # the weight is 2-D: leading axes never broadcast
            ad.linear(ad.parameter(np.zeros((2, 3, 4))), ad.parameter(np.zeros((1, 4, 2))), b)
        with pytest.raises(ad.DimensionError):
            ad.linear(x, ad.parameter(np.zeros((4, 2))), ad.parameter(np.zeros(3)))

    def test_linear_shares_2d_weight_over_leading_axes(self):
        rng = make_rng(9)
        x = ad.parameter(rng.normal(size=(3, 2, 4)))
        w = ad.parameter(rng.normal(size=(4, 5)))
        b = ad.parameter(rng.normal(size=5))
        out = ad.linear(x, w, b)
        assert out.shape == (3, 2, 5)
        assert np.array_equal(out.values, x.values @ w.values + b.values)
        with pytest.raises(ad.DimensionError):  # a 2-D x is not shared by a 3-D weight
            ad.linear(w, ad.parameter(np.zeros((3, 5, 2))), ad.parameter(np.zeros(2)))

    def test_log_softmax_rows_normalize(self):
        rng = make_rng(3)
        x = ad.parameter(rng.normal(size=(6, 9)) * 10)
        y = ad.log_softmax(x)
        sums = np.exp(y.values).sum(axis=-1)
        assert_allclose(sums, np.ones(6), atol=1e-12)

    def test_log_softmax_rejects_nan(self):
        x = ad.parameter(np.array([[0.0, np.nan]]))
        with pytest.raises(ad.NumericError):
            ad.log_softmax(x)

    def test_softmax_matches_log_softmax(self):
        # The softmax of attention, which has no graph node of its own.
        rng = make_rng(4)
        x = ad.parameter(rng.normal(size=(4, 7)))
        assert_allclose(ad._softmax(x.values), np.exp(ad.log_softmax(x).values), atol=1e-14)

    def test_layer_norm_zero_mean_unit_var(self):
        rng = make_rng(5)
        d = 16
        x = ad.parameter(rng.normal(size=(3, d)) * 4 + 2)
        y = ad.layer_norm(x, ad.parameter(np.ones(d)), ad.parameter(np.zeros(d)))
        assert_allclose(y.values.mean(axis=-1), np.zeros(3), atol=1e-12)
        assert_allclose(y.values.var(axis=-1), np.ones(3), atol=1e-3)

    def test_layer_norm_equals_numpy_mean_and_var_bit_for_bit(self):
        rng = make_rng(13)
        for shape in [(5, 1, 64), (3, 16), (2, 7, 9), (64,), (4, 3, 2, 10)]:
            x = rng.normal(size=shape) * rng.uniform(0.1, 10) + rng.normal()
            gain, bias = rng.normal(size=shape[-1]), rng.normal(size=shape[-1])
            mu = x.mean(axis=-1, keepdims=True)
            want = (x - mu) * (1.0 / np.sqrt(x.var(axis=-1, keepdims=True) + 1e-5)) * gain + bias
            got = ad.layer_norm(ad.constant(x), ad.constant(gain), ad.constant(bias)).values
            assert np.array_equal(got, want)

    def test_linear_nd_input(self):
        rng = make_rng(6)
        x = ad.parameter(rng.normal(size=(2, 3, 4)))
        w = ad.parameter(rng.normal(size=(4, 5)))
        b = ad.parameter(rng.normal(size=5))
        y = ad.linear(x, w, b)
        assert y.shape == (2, 3, 5)
        assert np.array_equal(y.values, x.values @ w.values + b.values)

    def test_linear_3d_equals_per_slice_bit_for_bit(self):
        rng = make_rng(12)
        x = ad.parameter(rng.normal(size=(4, 3, 6)))
        w = ad.parameter(rng.normal(size=(6, 5)))
        b = ad.parameter(rng.normal(size=5))
        y = ad.linear(x, w, b).values
        for i in range(x.shape[0]):
            assert np.array_equal(y[i], ad.linear(ad.constant(x.values[i]), w, b).values)
        # A single row per slice too: the per-slice product, not one folded GEMM.
        x1 = ad.constant(rng.normal(size=(7, 1, 6)))
        y1 = ad.linear(x1, w, b).values
        for i in range(x1.shape[0]):
            assert np.array_equal(y1[i], ad.linear(ad.constant(x1.values[i]), w, b).values)

    def test_gather_and_take_per_row(self):
        rng = make_rng(7)
        x = ad.parameter(rng.normal(size=(5, 3)))
        g = ad.gather(x, [4, 0, 0])
        assert_allclose(g.values, x.values[[4, 0, 0]])
        t = ad.take_per_row(x, [2, 1, 0, 2, 1])
        assert_allclose(t.values, x.values[np.arange(5), [2, 1, 0, 2, 1]])
        batch = ad.parameter(rng.normal(size=(2, 5, 3)))
        idx = rng.integers(0, 3, size=(2, 5))
        t = ad.take_per_row(batch, idx)
        assert np.array_equal(t.values, np.take_along_axis(batch.values, idx[..., None], -1)[..., 0])
        with pytest.raises(ad.DimensionError):
            ad.take_per_row(batch, idx[0])


class TestGradients:
    """Central finite differences as the oracle for every primitive."""

    def check(self, build, params, eps=1e-5, tol=1e-6):
        err = ad.finite_diff_check(build, params, eps=eps)
        assert err < tol, f"finite-difference mismatch: {err}"

    def test_linear_grad_2x3(self):
        rng = make_rng(10)
        x = ad.parameter(rng.normal(size=(2, 3)))
        w = ad.parameter(rng.normal(size=(3, 4)))
        b = ad.parameter(rng.normal(size=4))
        self.check(lambda: ad.sum_all(ad.gelu(ad.linear(x, w, b))), [x, w, b])

    def test_log_softmax_grad(self):
        rng = make_rng(11)
        x = ad.parameter(rng.normal(size=(3, 5)))
        w = ad.constant(rng.normal(size=(3, 5)))
        self.check(lambda: ad.sum_all(ad.mul(ad.log_softmax(x), w)), [x])

    def test_layer_norm_grad(self):
        rng = make_rng(13)
        x = ad.parameter(rng.normal(size=(4, 6)))
        gain = ad.parameter(rng.normal(size=6))
        bias = ad.parameter(rng.normal(size=6))
        w = ad.constant(rng.normal(size=(4, 6)))
        self.check(
            lambda: ad.sum_all(ad.mul(ad.layer_norm(x, gain, bias), w)),
            [x, gain, bias],
            tol=1e-5,
        )

    def test_attention_grad_with_mask(self):
        rng = make_rng(14)
        q = ad.parameter(rng.normal(size=(3, 4)))
        k = ad.parameter(rng.normal(size=(5, 4)))
        v = ad.parameter(rng.normal(size=(5, 4)))
        mask = rng.random((3, 5)) > 0.3
        mask[:, 0] = True
        w = ad.constant(rng.normal(size=(3, 4)))
        self.check(
            lambda: ad.sum_all(ad.mul(ad.scaled_dot_attention(q, k, v, mask), w)),
            [q, k, v],
            tol=1e-5,
        )

    def test_linear_grad_3d_input_shared_weight(self):
        rng = make_rng(18)
        x = ad.parameter(rng.normal(size=(3, 2, 4)))
        w = ad.parameter(rng.normal(size=(4, 5)))
        b = ad.parameter(rng.normal(size=5))
        c = ad.constant(rng.normal(size=(3, 2, 5)))
        self.check(lambda: ad.sum_all(ad.mul(ad.linear(x, w, b), c)), [x, w, b])

    def test_head_batched_attention_grad_with_causal_mask(self):
        rng = make_rng(18)
        q = ad.parameter(rng.normal(size=(2, 4, 3)))
        k = ad.parameter(rng.normal(size=(2, 4, 3)))
        v = ad.parameter(rng.normal(size=(2, 4, 3)))
        causal = np.tril(np.ones((4, 4), dtype=bool))
        w = ad.constant(rng.normal(size=(2, 4, 3)))
        self.check(
            lambda: ad.sum_all(ad.mul(ad.scaled_dot_attention(q, k, v, causal), w)),
            [q, k, v],
            tol=1e-5,
        )
        # Two heads: [2, L, d] queries against one shared [S, d] key/value.
        q = ad.parameter(rng.normal(size=(2, 4, 6)))
        k = ad.parameter(rng.normal(size=(4, 6)))
        v = ad.parameter(rng.normal(size=(4, 6)))
        w = ad.constant(rng.normal(size=(2, 4, 6)))
        self.check(
            lambda: ad.sum_all(ad.mul(ad.scaled_dot_attention(q, k, v, causal, heads=2), w)),
            [q, k, v],
            tol=1e-5,
        )

    def test_batched_attention_grad_with_key_mask(self):
        # A padded batch: each row of [B, L, d] queries attends to its own
        # [S, d] keys under a [B, 1, S] key-padding mask, two heads.
        rng = make_rng(19)
        q = ad.parameter(rng.normal(size=(3, 4, 6)))
        k = ad.parameter(rng.normal(size=(3, 5, 6)))
        v = ad.parameter(rng.normal(size=(3, 5, 6)))
        mask = (np.arange(5) < np.array([[5], [2], [4]]))[:, None, :]
        w = ad.constant(rng.normal(size=(3, 4, 6)))
        self.check(
            lambda: ad.sum_all(ad.mul(ad.scaled_dot_attention(q, k, v, mask, heads=2), w)),
            [q, k, v],
            tol=1e-5,
        )
        # The masked keys get exactly no gradient.
        for t in (k, v):
            t.grad = None
        ad.backward(ad.sum_all(ad.mul(ad.scaled_dot_attention(q, k, v, mask, heads=2), w)))
        assert not k.grad[1, 2:].any() and not v.grad[1, 2:].any()

    def test_take_per_row_grad_over_leading_axes(self):
        rng = make_rng(17)
        x = ad.parameter(rng.normal(size=(2, 3, 4)))
        idx = rng.integers(0, 4, size=(2, 3))
        w = ad.constant(rng.normal(size=(2, 3)))
        self.check(lambda: ad.sum_all(ad.mul(ad.take_per_row(x, idx), w)), [x])

    def test_gather_grad_accumulates_duplicates(self):
        x = ad.parameter(np.array([1.0, 2.0, 3.0]))
        out = ad.gather(x, [0, 0, 2])
        ad.backward(ad.sum_all(out))
        assert_allclose(x.grad, [2.0, 0.0, 1.0])

    def test_slice_concat_grads(self):
        rng = make_rng(15)
        x = ad.parameter(rng.normal(size=(4, 3)))
        y = ad.parameter(rng.normal(size=(2, 3)))

        def build():
            top = x[:2]
            rest = x[2:]
            joined = ad.concat([ad.mul(top, ad.constant(2.0)), rest, y], axis=0)
            return ad.sum_all(ad.gelu(joined))

        self.check(build, [x, y])

    def test_slice_with_a_repeated_index_sums_its_gradient(self):
        rng = make_rng(16)
        x = ad.parameter(rng.normal(size=(3, 2)))
        w = ad.constant(rng.normal(size=(4, 2)))
        idx = np.array([0, 2, 0, 0])
        self.check(lambda: ad.sum_all(ad.mul(x[idx], w)), [x])
        x.grad = None
        ad.backward(ad.sum_all(x[idx]))
        assert_allclose(x.grad, [[3.0, 3.0], [0.0, 0.0], [1.0, 1.0]])


    @pytest.mark.parametrize("key", [
        np.arange(10 * 22).reshape(10, 22) % 7 < 5,  # a boolean mask over the leading axes
        (slice(None), np.array([3, 0, 3, 21, 3])),  # an integer array that repeats an index
        (2, slice(4, 9)),
    ], ids=["boolean mask", "repeated integers", "int and slice"])
    def test_slice_scatters_what_add_at_scatters_bit_for_bit(self, key):
        rng = make_rng(20)
        x = ad.parameter(rng.normal(size=(10, 22, 64)))
        out = x[key]
        w = ad.constant(rng.normal(size=out.shape))
        ad.backward(ad.sum_all(ad.mul(out, w)))
        want = np.zeros(x.shape)
        np.add.at(want, key, w.values)
        assert np.array_equal(x.grad, want)

    def test_unpack_places_rows_and_packs_its_gradient(self):
        rng = make_rng(21)
        rows = ad.parameter(rng.normal(size=(11, 4)))
        w = ad.constant(rng.normal(size=ROWS.shape + (4,)))
        self.check(lambda: ad.sum_all(ad.mul(ad.unpack(rows, ROWS), w)), [rows])
        out = ad.unpack(rows, ROWS)
        assert out.shape == (3, 6, 4) and not out.values[~ROWS].any()
        assert np.array_equal(out[ROWS].values, rows.values)
        rows.grad = None
        ad.backward(ad.sum_all(ad.mul(out, w)))
        assert np.array_equal(rows.grad, w.values[ROWS])
        with pytest.raises(ad.DimensionError, match="one row per True"):
            ad.unpack(rows[:10], ROWS)


class TestGraphSemantics:
    def test_reused_leaf_accumulates(self):
        x = ad.parameter(np.array([3.0]))
        ad.backward(ad.sum_all(ad.add(x, x)))
        assert_allclose(x.grad, [2.0])

    def test_shared_subexpression_equals_tree_expansion(self):
        """Backward over a DAG must equal derivative of the fully expanded tree.

        The oracle differentiates the expression recursively without any
        memoization, which is exactly the expanded-tree semantics.
        """
        rng = make_rng(20)
        for trial in range(25):
            x = ad.parameter(rng.normal(size=(2, 2)))
            y = ad.parameter(rng.normal(size=(2, 2)))
            nodes = [x, y]
            specs = [("leaf", 0, 0), ("leaf", 1, 1)]
            for _ in range(rng.integers(1, 6)):
                op = ("add", "mul")[rng.integers(0, 2)]
                i, j = rng.integers(0, len(nodes), size=2)
                nodes.append(ad.add(nodes[i], nodes[j]) if op == "add" else ad.mul(nodes[i], nodes[j]))
                specs.append((op, int(i), int(j)))

            def tree_grad(k, leaf):
                op, i, j = specs[k]
                if op == "leaf":
                    same = (leaf == 0 and k == 0) or (leaf == 1 and k == 1)
                    return np.ones((2, 2)) if same else np.zeros((2, 2))
                if op == "add":
                    return tree_grad(i, leaf) + tree_grad(j, leaf)
                return tree_grad(i, leaf) * nodes[j].values + nodes[i].values * tree_grad(j, leaf)

            ad.backward(ad.sum_all(nodes[-1]))
            gx = np.zeros((2, 2)) if x.grad is None else x.grad
            gy = np.zeros((2, 2)) if y.grad is None else y.grad
            assert_allclose(gx, tree_grad(len(nodes) - 1, 0), atol=1e-12)
            assert_allclose(gy, tree_grad(len(nodes) - 1, 1), atol=1e-12)

    def test_stop_gradient_blocks_upstream_exactly(self):
        rng = make_rng(21)
        x = ad.parameter(rng.normal(size=(2, 2)))
        y = ad.parameter(rng.normal(size=(2, 2)))
        blocked = ad.stop_gradient(ad.mul(x, ad.constant(3.0)))
        out = ad.sum_all(ad.mul(blocked, y))
        ad.backward(out)
        assert x.grad is None  # never visited: exactly zero contribution
        assert_allclose(y.grad, blocked.values)

    def test_stop_gradient_forward_bit_identical(self):
        rng = make_rng(22)
        x = ad.parameter(rng.normal(size=(3, 3)))
        h = ad.mul(x, ad.constant(2.0))
        assert np.array_equal(ad.stop_gradient(h).values, h.values)

    def test_backward_requires_scalar(self):
        x = ad.parameter(np.zeros((2, 2)))
        with pytest.raises(ad.DimensionError):
            ad.backward(ad.add(x, ad.constant(1.0)))

    def test_backward_rejects_nonfinite_loss(self):
        x = ad.parameter(np.array(np.inf))
        with pytest.raises(ad.NumericError):
            ad.backward(ad.mul(x, ad.constant(1.0)))

    def test_constant_never_accumulates(self):
        c = ad.constant(np.ones(3))
        x = ad.parameter(np.ones(3))
        ad.backward(ad.sum_all(ad.mul(c, x)))
        assert c.grad is None

    def test_leaf_grad_owns_its_memory(self):
        # add hands a same-shape input a view of its own gradient; the leaf
        # must store a copy, or a later write to either would change the other.
        rng = make_rng(30)
        x = ad.parameter(rng.normal(size=(2, 6)))
        y = ad.add(x, ad.constant(rng.normal(size=(2, 6))))
        ad.backward(ad.sum_all(ad.mul(y, ad.constant(rng.normal(size=(2, 6))))))
        assert_allclose(x.grad, y.grad)
        assert not np.shares_memory(x.grad, y.grad)


class TestGraphHoldsOnlyWhatBackwardReads:
    """A backward closes over nodes and the arrays it reads, so a value no
    backward reads goes with the last Tensor that holds it."""

    @staticmethod
    def graph(params):
        """A residual add of a linear output, then layer_norm, a linear to
        logits and log_softmax into a loss; also the add output, the linear
        output that only the add consumes, and the logits."""
        x, w1, b1, gain, bias, w2, b2, c = params
        h = ad.linear(x, w1, b1)
        r = ad.add(x, h)
        logits = ad.linear(ad.layer_norm(r, gain, bias), w2, b2)
        return ad.sum_all(ad.mul(ad.log_softmax(logits), c)), (r, h, logits)

    @staticmethod
    def params():
        rng = make_rng(40)
        return [ad.parameter(rng.normal(size=shape)) for shape in
                ((2, 3, 4), (4, 4), (4,), (4,), (4,), (4, 5), (5,))] + [
                    ad.constant(rng.normal(size=(2, 3, 5)))]

    def test_values_no_backward_reads_go_with_their_tensors(self):
        params = self.params()
        loss, held = self.graph(params)
        values = [weakref.ref(t.values) for t in held]
        del held
        gc.collect()
        assert [v() for v in values] == [None] * 3
        ad.backward(loss)
        grads = [p.grad for p in params[:-1]]

        for p in params:
            p.grad = None
        loss, held = self.graph(params)  # ``held`` keeps the three values through backward
        ad.backward(loss)
        for p, g in zip(params[:-1], grads):
            assert g is not None and np.array_equal(p.grad, g)

    @pytest.mark.parametrize("case", sorted(set(KERNEL_CASES) - {"constant", "stop_gradient"})
                             + ["slice"])
    def test_no_backward_closes_over_a_tensor(self, case):
        t = drawing(42, ad.parameter)
        out = t(4, 3)[np.array([0, 2, 0])] if case == "slice" else KERNEL_CASES[case](ad, t)
        held = [c.cell_contents for c in out.node.backward.__closure__]
        while held:
            item = held.pop()
            assert not isinstance(item, ad.Tensor)
            if isinstance(item, (tuple, list)):
                held.extend(item)

    def test_freeze_unfreeze_and_a_cleared_grad_act_on_the_node(self):
        rng = make_rng(41)
        store = ParameterStore()
        w = store.add("at", "w", rng.normal(size=(3, 2)))
        x, b = ad.constant(rng.normal(size=(4, 3))), ad.constant(np.zeros(2))

        def loss():
            return ad.sum_all(ad.linear(x, w, b))

        ad.backward(loss())
        first = w.grad
        assert first is not None and w.node.grad is first
        w.grad = None
        assert w.node.grad is None
        store.freeze("at")
        assert not w.node.requires_grad
        frozen = loss()
        assert not frozen.requires_grad and frozen.node.backward is None
        ad.backward(frozen)
        assert w.grad is None
        store.unfreeze("at")
        assert w.node.requires_grad
        ad.backward(loss())
        assert np.array_equal(w.grad, first)


class TestAttentionMasking:
    def test_masked_positions_get_zero_weight(self):
        rng = make_rng(30)
        q = ad.parameter(rng.normal(size=(4, 8)))
        k = ad.parameter(rng.normal(size=(4, 8)))
        v = ad.parameter(rng.normal(size=(4, 8)))
        causal = np.tril(np.ones((4, 4), dtype=bool))
        full = ad.scaled_dot_attention(q, k, v, causal)
        for t in range(4):
            prefix = ad.scaled_dot_attention(q[t : t + 1], k[: t + 1], v[: t + 1])
            assert_allclose(full.values[t], prefix.values[0], atol=1e-12)

    def test_heads_attend_separately(self):
        rng = make_rng(31)
        q = ad.parameter(rng.normal(size=(2, 3, 6)))
        kv = ad.parameter(rng.normal(size=(4, 6)))
        both = ad.scaled_dot_attention(q, kv, kv, heads=2).values
        for h in (slice(0, 3), slice(3, 6)):
            one = ad.scaled_dot_attention(q[..., h], kv[:, h], kv[:, h])
            assert_allclose(both[..., h], one.values, atol=1e-12)
        with pytest.raises(ad.DimensionError):  # 6 columns do not split into 4 heads
            ad.scaled_dot_attention(q, kv, kv, heads=4)

    def test_key_mask_equals_unpadded_rows(self):
        # Each row of a padded batch attends as its own unpadded keys would.
        rng = make_rng(32)
        q = ad.constant(rng.normal(size=(3, 2, 4)))
        kv = ad.constant(rng.normal(size=(3, 5, 4)))
        lengths = [5, 1, 3]
        mask = (np.arange(5) < np.array(lengths)[:, None])[:, None, :]
        both = ad.scaled_dot_attention(q, kv, kv, mask, heads=2).values
        for b, n in enumerate(lengths):
            one = ad.scaled_dot_attention(q[b], kv[b, :n], kv[b, :n], heads=2).values
            assert_allclose(both[b], one, rtol=1e-13, atol=0)
        with pytest.raises(ad.DimensionError):  # 3 rows of mask against 2 queries
            ad.scaled_dot_attention(q, kv, kv, np.ones((3, 3, 5), dtype=bool))
        bad = mask.copy()
        bad[1] = False
        with pytest.raises(ad.NumericError):
            ad.scaled_dot_attention(q, kv, kv, bad)

    def test_fully_masked_row_is_an_error(self):
        q = ad.parameter(np.zeros((2, 4)))
        kv = ad.parameter(np.zeros((3, 4)))
        mask = np.ones((2, 3), dtype=bool)
        mask[1, :] = False
        with pytest.raises(ad.NumericError):
            ad.scaled_dot_attention(q, kv, kv, mask)
