"""Unit tests for the reverse-mode engine.

Gradients are checked against central finite differences; graph semantics
(sharing, accumulation, stop_gradient) against a recursive tree-expansion
oracle that never memoizes.
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from pepseq import autodiff as ad


def make_rng(seed=0):
    return np.random.default_rng(seed)


class TestForwardValues:
    def test_add_mul_broadcasting(self):
        rng = make_rng(1)
        a = ad.parameter(rng.normal(size=(3, 1)))
        b = ad.parameter(rng.normal(size=(1, 4)))
        assert_allclose((a + b).values, a.values + b.values)
        assert_allclose((a * b).values, a.values * b.values)

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
        self.check(lambda: ad.sum_all(ad.log_softmax(x) * w), [x])

    def test_layer_norm_grad(self):
        rng = make_rng(13)
        x = ad.parameter(rng.normal(size=(4, 6)))
        gain = ad.parameter(rng.normal(size=6))
        bias = ad.parameter(rng.normal(size=6))
        w = ad.constant(rng.normal(size=(4, 6)))
        self.check(
            lambda: ad.sum_all(ad.layer_norm(x, gain, bias) * w),
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
            lambda: ad.sum_all(ad.scaled_dot_attention(q, k, v, mask) * w),
            [q, k, v],
            tol=1e-5,
        )

    def test_linear_grad_3d_input_shared_weight(self):
        rng = make_rng(18)
        x = ad.parameter(rng.normal(size=(3, 2, 4)))
        w = ad.parameter(rng.normal(size=(4, 5)))
        b = ad.parameter(rng.normal(size=5))
        c = ad.constant(rng.normal(size=(3, 2, 5)))
        self.check(lambda: ad.sum_all(ad.linear(x, w, b) * c), [x, w, b])

    def test_head_batched_attention_grad_with_causal_mask(self):
        rng = make_rng(18)
        q = ad.parameter(rng.normal(size=(2, 4, 3)))
        k = ad.parameter(rng.normal(size=(2, 4, 3)))
        v = ad.parameter(rng.normal(size=(2, 4, 3)))
        causal = np.tril(np.ones((4, 4), dtype=bool))
        w = ad.constant(rng.normal(size=(2, 4, 3)))
        self.check(
            lambda: ad.sum_all(ad.scaled_dot_attention(q, k, v, causal) * w),
            [q, k, v],
            tol=1e-5,
        )
        # Two heads: [2, L, d] queries against one shared [S, d] key/value.
        q = ad.parameter(rng.normal(size=(2, 4, 6)))
        k = ad.parameter(rng.normal(size=(4, 6)))
        v = ad.parameter(rng.normal(size=(4, 6)))
        w = ad.constant(rng.normal(size=(2, 4, 6)))
        self.check(
            lambda: ad.sum_all(ad.scaled_dot_attention(q, k, v, causal, heads=2) * w),
            [q, k, v],
            tol=1e-5,
        )

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
            joined = ad.concat([top * 2.0, rest, y], axis=0)
            return ad.sum_all(ad.gelu(joined))

        self.check(build, [x, y])


class TestGraphSemantics:
    def test_reused_leaf_accumulates(self):
        x = ad.parameter(np.array([3.0]))
        ad.backward(ad.sum_all(x + x))
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
        blocked = ad.stop_gradient(x * 3.0)
        out = ad.sum_all(blocked * y)
        ad.backward(out)
        assert x.grad is None  # never visited: exactly zero contribution
        assert_allclose(y.grad, blocked.values)

    def test_stop_gradient_forward_bit_identical(self):
        rng = make_rng(22)
        x = ad.parameter(rng.normal(size=(3, 3)))
        h = x * 2.0
        assert np.array_equal(ad.stop_gradient(h).values, h.values)

    def test_finite_diff_check_skips_blocked_coordinates(self):
        rng = make_rng(23)
        x = ad.parameter(rng.normal(size=3))
        y = ad.parameter(rng.normal(size=3))
        # x reaches the loss only through stop_gradient: its analytic grad is
        # 0 but finite differences see the value path, so only skip_blocked
        # keeps the check meaningful.
        build = lambda: ad.sum_all(ad.stop_gradient(x) * y + y * y)
        err = ad.finite_diff_check(build, [x, y], eps=1e-5, skip_blocked=True)
        assert err < 1e-6
        err_unskipped = ad.finite_diff_check(build, [x, y], eps=1e-5)
        assert err_unskipped > 1e-2  # sanity: the blocked path really differs

    def test_backward_requires_scalar(self):
        x = ad.parameter(np.zeros((2, 2)))
        with pytest.raises(ad.DimensionError):
            ad.backward(x + 1.0)

    def test_backward_rejects_nonfinite_loss(self):
        x = ad.parameter(np.array(np.inf))
        with pytest.raises(ad.NumericError):
            ad.backward(x * 1.0)

    def test_constant_never_accumulates(self):
        c = ad.constant(np.ones(3))
        x = ad.parameter(np.ones(3))
        ad.backward(ad.sum_all(c * x))
        assert c.grad is None

    def test_leaf_grad_owns_its_memory(self):
        # add hands a same-shape input a view of its own gradient; the leaf
        # must store a copy, or a later write to either would change the other.
        rng = make_rng(30)
        x = ad.parameter(rng.normal(size=(2, 6)))
        y = ad.add(x, ad.constant(rng.normal(size=(2, 6))))
        ad.backward(ad.sum_all(y * ad.constant(rng.normal(size=(2, 6)))))
        assert_allclose(x.grad, y.grad)
        assert not np.shares_memory(x.grad, y.grad)


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

    def test_fully_masked_row_is_an_error(self):
        q = ad.parameter(np.zeros((2, 4)))
        kv = ad.parameter(np.zeros((3, 4)))
        mask = np.ones((2, 3), dtype=bool)
        mask[1, :] = False
        with pytest.raises(ad.NumericError):
            ad.scaled_dot_attention(q, kv, kv, mask)
