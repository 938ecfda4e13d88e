"""CTC loss tests against exhaustive path enumeration.

The oracle enumerates every |V|^T frame path, collapses it (merge adjacent
repeats, then drop blanks), and sums the probabilities of paths matching
the target. The dynamic program must agree to 1e-9 in log space.
"""

import itertools

import numpy as np
import pytest
from numpy.testing import assert_allclose

from pepseq import autodiff as ad
from pepseq.training import INFEASIBLE_CTC_LOSS, ce_loss, ctc_forward, ctc_loss


def collapse(path, blank):
    out = []
    prev = None
    for y in path:
        if y != blank and y != prev:
            out.append(y)
        prev = y
    return out


def required_frames(target):
    """The fewest frames any path needs: one per residue plus a blank
    between each adjacent equal pair."""
    return len(target) + sum(a == b for a, b in zip(target, target[1:]))


def ctc_bruteforce(log_probs: np.ndarray, target: list[int], blank: int) -> float:
    """Sum path probabilities by exhaustive enumeration (small shapes only)."""
    T, V = log_probs.shape
    total = -np.inf
    for path in itertools.product(range(V), repeat=T):
        if collapse(path, blank) == list(target):
            total = np.logaddexp(total, log_probs[np.arange(T), path].sum())
    return total


def random_log_probs(rng, T, V):
    x = rng.normal(size=(T, V)) * 2.0
    return x - np.log(np.exp(x).sum(axis=1, keepdims=True))


class TestForwardAlgorithm:
    def test_uniform_three_frames_single_residue(self):
        # Two residues plus blank, uniform 1/3 everywhere, target one
        # residue: 6 of the 27 paths collapse to it, so P = 2/9.
        log_probs = ad.constant(np.full((3, 3), np.log(1.0 / 3.0)))
        out = ctc_forward(log_probs, [0], blank_id=2)
        assert_allclose(np.exp(out.values), 2.0 / 9.0, atol=1e-12)

    def test_matches_bruteforce_on_random_instances(self):
        rng = np.random.default_rng(0)
        blank = 2
        for trial in range(60):
            T = int(rng.integers(2, 6))
            target_len = int(rng.integers(1, 3))
            target = rng.integers(0, 2, size=target_len).tolist()
            lp = random_log_probs(rng, T, 3)
            want = ctc_bruteforce(lp, target, blank)
            got = ctc_forward(ad.constant(lp), target, blank).values
            if np.isneginf(want):
                assert np.isneginf(got)
            else:
                assert abs(float(got) - want) < 1e-9

    def test_single_frame_single_residue(self):
        lp = random_log_probs(np.random.default_rng(1), 1, 4)
        out = ctc_forward(ad.constant(lp), [2], blank_id=3)
        assert_allclose(out.values, lp[0, 2], atol=1e-12)

    def test_target_with_blank_rejected(self):
        lp = ad.constant(random_log_probs(np.random.default_rng(2), 3, 3))
        with pytest.raises(ValueError):
            ctc_forward(lp, [2], blank_id=2)
        with pytest.raises(ValueError):
            ctc_forward(lp, [], blank_id=2)


class TestBatchedCTC:
    """A batch [B, T, V] with one target per row equals per-row calls."""

    # Rows of unequal U, adjacent repeats, and (row 3) a target that needs 7
    # of the 6 frames.
    TARGETS = [[0], [1, 1], [0, 2, 2, 1], [1, 1, 1, 1], [2, 0, 1]]
    T, V, BLANK = 6, 4, 3

    def test_values_and_gradients_equal_per_row_calls(self):
        rng = np.random.default_rng(11)
        lp = np.stack([random_log_probs(rng, self.T, self.V) for _ in self.TARGETS])
        leaf = ad.parameter(lp.copy())
        out = ctc_forward(leaf, self.TARGETS, self.BLANK)
        assert out.shape == (len(self.TARGETS),)
        weights = rng.normal(size=len(self.TARGETS))
        weights[3] = 0.0  # an infeasible row's -inf cannot enter a finite loss
        finite = np.isfinite(out.values)
        assert finite.tolist() == [True, True, True, False, True]
        ad.backward(ad.sum_all(ad.mul(out[finite], ad.constant(weights[finite]))))
        for b, target in enumerate(self.TARGETS):
            row = ad.parameter(lp[b].copy())
            want = ctc_forward(row, target, self.BLANK)
            if not np.isfinite(want.values):
                assert b == 3 and np.isneginf(out.values[b])
                assert not leaf.grad[b].any()
                continue
            assert_allclose(out.values[b], want.values, rtol=1e-13, atol=0)
            ad.backward(ad.mul(want, ad.constant(weights[b])))
            assert_allclose(leaf.grad[b], row.grad, rtol=1e-12, atol=1e-15)

    def test_loss_sums_rows_and_charges_infeasible_ones_a_constant(self):
        rng = np.random.default_rng(12)
        logits = ad.parameter(rng.normal(size=(len(self.TARGETS), self.T, self.V)))
        loss = ctc_loss(logits, self.TARGETS, self.BLANK)
        log_p = ctc_forward(ad.log_softmax(ad.constant(logits.values)), self.TARGETS, self.BLANK)
        assert np.isfinite(log_p.values).tolist() == [True, True, True, False, True]
        want = sum(ctc_loss(ad.constant(logits.values[b : b + 1]), [t], self.BLANK).item()
                   for b, t in enumerate(self.TARGETS))
        assert_allclose(loss.item(), want, rtol=1e-13)
        ad.backward(loss)
        assert not logits.grad[3].any() and logits.grad[[0, 1, 2, 4]].all()

    def test_row_count_must_match_targets(self):
        lp = ad.constant(np.zeros((2, 3, 3)))
        with pytest.raises(ad.DimensionError):
            ctc_forward(lp, [[0]], blank_id=2)


class TestCTCLoss:
    @pytest.mark.parametrize("target, need", [
        ([0, 1, 0], 3), ([0, 0], 3), ([0, 0, 0], 5), ([1, 1, 2, 2], 6),
    ])
    def test_feasible_flags_follow_the_frame_formula(self, target, need):
        assert required_frames(target) == need
        rng = np.random.default_rng(need)
        for frames in (need - 1, need, need + 1):
            logits = ad.constant(rng.normal(size=(2, frames, 4)))
            log_p = ctc_forward(ad.log_softmax(logits), [target, [0]], blank_id=3).values
            feasible = np.isfinite(log_p)
            assert feasible.tolist() == [frames >= need, True]
            want = -log_p[feasible].sum() + INFEASIBLE_CTC_LOSS * (frames < need)
            assert_allclose(ctc_loss(logits, [target, [0]], blank_id=3).item(), want, rtol=1e-13)

    def test_infeasible_target_constant_loss_no_gradient(self):
        # The loss is a constant, so the logits get a gradient of zeros: a
        # batch with no feasible row still reaches every NAT parameter.
        rng = np.random.default_rng(3)
        logits = ad.parameter(rng.normal(size=(2, 2, 3)))
        targets = [[0, 0], [1, 1]]  # each needs 3 frames
        loss = ctc_loss(logits, targets, blank_id=2)
        log_p = ctc_forward(ad.log_softmax(ad.constant(logits.values)), targets, blank_id=2)
        assert np.isneginf(log_p.values).tolist() == [True, True]
        assert loss.values == 2 * INFEASIBLE_CTC_LOSS
        ad.backward(ad.mul(loss, ad.constant(1.0)))
        assert logits.grad is not None and not logits.grad.any()

    def test_feasible_loss_is_negative_log_likelihood(self):
        rng = np.random.default_rng(4)
        logits_np = rng.normal(size=(4, 3))
        logits = ad.constant(logits_np[None])
        loss = ctc_loss(logits, [[0, 1]], blank_id=2)
        assert np.isfinite(ctc_forward(ad.log_softmax(logits), [[0, 1]], blank_id=2).values).tolist() == [True]
        lp = logits_np - np.log(np.exp(logits_np).sum(axis=1, keepdims=True))
        want = ctc_bruteforce(lp, [0, 1], 2)
        assert_allclose(loss.values, -want, atol=1e-9)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        for trial in range(5):
            T = int(rng.integers(3, 6))
            logits = ad.parameter(rng.normal(size=(1, T, 4)))
            target = rng.integers(0, 3, size=int(rng.integers(1, 3))).tolist()
            if required_frames(target) > T:
                continue
            err = ad.finite_diff_check(
                lambda: ctc_loss(logits, [target], blank_id=3), [logits], eps=1e-5
            )
            assert err < 1e-4, f"trial {trial}: fd error {err}"

    @pytest.mark.parametrize("target", [[1, 1], [0, 1, 0]])
    @pytest.mark.parametrize("extra_frames", [0, 1, 2])
    def test_gradient_is_the_enumerated_path_posterior(self, target, extra_frames):
        # d log p / d log P_t(k) = sum over collapsing paths of
        # p(path) [path_t = k] / p, with the log-probabilities as free leaves.
        T, V, blank = required_frames(target) + extra_frames, 3, 2
        lp = random_log_probs(np.random.default_rng(10 + extra_frames), T, V)
        leaf = ad.parameter(lp.copy())
        out = ctc_forward(leaf, target, blank)
        ad.backward(out)
        want = np.zeros((T, V))
        for path in itertools.product(range(V), repeat=T):
            if collapse(path, blank) == target:
                weight = np.exp(lp[np.arange(T), path].sum() - out.values)
                want[np.arange(T), path] += weight
        assert_allclose(leaf.grad, want, rtol=0, atol=1e-9)

    def test_gradient_covers_every_frame(self):
        rng = np.random.default_rng(6)
        logits = ad.parameter(rng.normal(size=(1, 5, 3)))
        loss = ctc_loss(logits, [[0, 1]], blank_id=2)
        ad.backward(loss)
        assert logits.grad is not None
        assert np.all(np.any(logits.grad[0] != 0, axis=1)), "a frame received no gradient"

    def test_lone_frame_logits_rejected(self):
        with pytest.raises(ad.DimensionError, match=r"\[B, T, V\]"):
            ctc_loss(ad.constant(np.zeros((4, 3))), [0, 1], blank_id=2)


class TestCELoss:
    def test_matches_manual_sum(self):
        rng = np.random.default_rng(7)
        logits_np = rng.normal(size=(4, 5))
        targets = [1, 0, 4, 2]
        loss = ce_loss(ad.constant(logits_np), targets, pad_id=3)  # no target is PAD
        lp = logits_np - np.log(np.exp(logits_np).sum(axis=1, keepdims=True))
        want = -sum(lp[i, t] for i, t in enumerate(targets))
        assert_allclose(loss.values, want, atol=1e-12)

    def test_pad_positions_excluded(self):
        rng = np.random.default_rng(8)
        logits_np = rng.normal(size=(4, 5))
        full = ce_loss(ad.constant(logits_np), [1, 0, 3, 3], pad_id=3)
        lp = logits_np - np.log(np.exp(logits_np).sum(axis=1, keepdims=True))
        want = -(lp[0, 1] + lp[1, 0])
        assert_allclose(full.values, want, atol=1e-12)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ad.DimensionError):
            ce_loss(ad.constant(np.zeros((3, 5))), [0, 1], pad_id=4)

    def test_gradient(self):
        rng = np.random.default_rng(9)
        logits = ad.parameter(rng.normal(size=(3, 4)))
        err = ad.finite_diff_check(
            lambda: ce_loss(logits, [0, 2, 1], pad_id=3), [logits], eps=1e-5
        )
        assert err < 1e-6
