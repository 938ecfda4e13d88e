"""Mass-constrained decoding against the exhaustive path oracle.

The oracle enumerates every frame path, applies the same
last-token-survives-blanks collapse, filters by the discretized mass
window, and takes the best path (ties toward the lexicographically
smaller peptide). The DP must agree on feasibility, peptide, and
log-probability everywhere inside the oracle's bounds. So must the shortcut
that answers with the per-frame argmax path; the tests that compare with
the dense DP also run with the shortcut patched off, so that the DP itself
still meets the peaked cases.
"""

import logging
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from pepseq import autodiff as ad
from pepseq import decoding
from pepseq.decoding import (
    PMCConfig,
    PMCResult,
    ctc_collapse,
    nat_pmc_decode,
    pmc_bruteforce_oracle,
    pmc_decode,
)
from pepseq.mgf import parse_mgf
from pepseq.network import Model, ModelConfig
from pepseq.params import load_checkpoint
from pepseq.spectra import WATER, AminoAcidTable, Peptide, simulate_spectrum

GA = AminoAcidTable(entries=(("A", 71.03711), ("G", 57.02146)))
FIXTURE = Path(__file__).resolve().parents[1] / "bench" / "fixture"


def log_softmax(x):
    x = np.asarray(x, dtype=np.float64)
    m = x.max(axis=-1, keepdims=True)
    return x - m - np.log(np.exp(x - m).sum(axis=-1, keepdims=True))


def random_logps(rng, T, vocab):
    return log_softmax(rng.normal(size=(T, vocab)))


def window_config(lo_mass, hi_mass, bin_width):
    # Center/tolerance form that discretizes to exactly [lo, hi] bins.
    center = (lo_mass + hi_mass) / 2.0
    tol = (hi_mass - lo_mass) / 2.0
    return PMCConfig(target_mass=center, tolerance=tol, bin_width=bin_width)


def argmax_collapse(lp, blank):
    """Residue ids of the per-frame argmax path, a repeat across blanks read once."""
    out, last = [], blank
    for y in lp.argmax(axis=1).tolist():
        if y != blank and y != last:
            out.append(y)
        if y != blank:
            last = y
    return out


def test_config_window_and_discretization():
    cfg = PMCConfig(target_mass=128.0, tolerance=0.4, bin_width=1.0)
    assert cfg.window == (128, 128)
    assert cfg.discretize(57.02146) == 57
    assert cfg.discretize(71.03711) == 71
    negative = PMCConfig(target_mass=-500.0, tolerance=1.0, bin_width=1.0)
    assert negative.window[0] == 0  # clamped


def test_config_validation():
    with pytest.raises(ValueError):
        PMCConfig(target_mass=100.0, tolerance=0.1, bin_width=0.0)
    with pytest.raises(ValueError):
        PMCConfig(target_mass=100.0, tolerance=-0.1, bin_width=1.0)


def test_bin_too_coarse_for_a_residue():
    cfg = PMCConfig(target_mass=100.0, tolerance=1.0, bin_width=200.0)
    lp = random_logps(np.random.default_rng(0), 3, 3)
    with pytest.raises(ValueError, match="too coarse"):
        pmc_decode(lp, cfg, GA)


def test_uniform_three_frames_mass_128_prefers_ag():
    # G is 57 bins and A is 71 at 1 Da resolution, so mass-128 collapses
    # within three frames are exactly AG and GA. Under uniform frame
    # probabilities every feasible path ties and the lexicographic rule
    # must pick AG, with log-prob 3*log(1/3).
    cfg = PMCConfig(target_mass=128.0, tolerance=0.4, bin_width=1.0)
    lp = np.full((3, 3), math.log(1.0 / 3.0))
    got = pmc_decode(lp, cfg, GA)
    ref = pmc_bruteforce_oracle(lp, cfg, GA)
    assert got == ref
    assert str(got.peptide) == "AG"
    assert got.feasible
    assert got.log_prob == pytest.approx(3 * math.log(1.0 / 3.0), abs=1e-12)


def test_random_logits_mass_128_matches_oracle():
    cfg = PMCConfig(target_mass=128.0, tolerance=0.4, bin_width=1.0)
    rng = np.random.default_rng(42)
    for _ in range(25):
        lp = random_logps(rng, 3, 3)
        got = pmc_decode(lp, cfg, GA)
        ref = pmc_bruteforce_oracle(lp, cfg, GA)
        assert got.feasible and ref.feasible
        assert str(got.peptide) in {"AG", "GA"}
        assert got.peptide == ref.peptide
        assert got.log_prob == pytest.approx(ref.log_prob, abs=1e-9)


def test_degenerate_zero_window_forces_empty_peptide():
    cfg = PMCConfig(target_mass=0.0, tolerance=0.0, bin_width=1.0)
    rng = np.random.default_rng(3)
    lp = random_logps(rng, 4, 3)
    got = pmc_decode(lp, cfg, GA)
    assert got.feasible
    assert len(got.peptide) == 0
    assert got.log_prob == pytest.approx(lp[:, GA.blank_id].sum(), abs=1e-12)
    assert got == pmc_bruteforce_oracle(lp, cfg, GA)


def test_full_window_recovers_unconstrained_best_path():
    # With the window covering every reachable mass the answer is the
    # collapse of the per-frame argmax path (there are no transition
    # scores, so the unconstrained best path is the frame-wise argmax).
    rng = np.random.default_rng(11)
    for _ in range(20):
        T = int(rng.integers(1, 7))
        lp = random_logps(rng, T, 3)
        cfg = window_config(0.0, T * 72.0, bin_width=1.0)
        got = pmc_decode(lp, cfg, GA)
        # The collapse here keeps the last non-blank across blanks: a
        # repeat after a blank does NOT start a new residue.
        expected = argmax_collapse(lp, GA.blank_id)
        assert got.feasible
        assert got.peptide == GA.peptide_from_ids(expected)
        assert got.log_prob == pytest.approx(lp.max(axis=1).sum(), abs=1e-9)


def test_repeat_after_blank_is_not_a_new_residue():
    # Path A ε A collapses to a single A for mass purposes, unlike the
    # plain training-time collapse. Window around one A: the A ε A path
    # must therefore be feasible and beat alternatives when dominant.
    a, blank = 0, GA.blank_id
    lp = log_softmax(np.array([
        [10.0, -10.0, -10.0],
        [-10.0, -10.0, 10.0],
        [10.0, -10.0, -10.0],
    ]))
    cfg = window_config(70.0, 72.0, bin_width=1.0)  # one A only
    got = pmc_decode(lp, cfg, GA)
    ref = pmc_bruteforce_oracle(lp, cfg, GA)
    assert got == ref
    assert str(got.peptide) == "A"
    # Sanity: the training-time collapse of that same path says AA.
    assert ctc_collapse([a, blank, a], blank) == [a, a]


@pytest.mark.xfail(strict=True, reason="the DP and its oracle read A ε A as one A, "
                   "where CTC training and ctc_collapse read AA")
def test_repeat_across_a_blank_reaches_the_mass_of_two_residues():
    table = AminoAcidTable(entries=(("A", 1.0), ("B", 1.7)))
    a, blank = 0, table.blank_id
    lp = np.full((3, 3), -10.0)
    lp[[0, 1, 2], [a, blank, a]] = 10.0
    lp = log_softmax(lp)
    cfg = PMCConfig(target_mass=2.0, tolerance=0.1, bin_width=0.01)  # AA only
    for got in (pmc_decode(lp, cfg, table), pmc_bruteforce_oracle(lp, cfg, table)):
        assert got.feasible
        assert str(got.peptide) == "AA"


def test_single_frame_best_residue_in_window():
    lp = log_softmax(np.array([[0.2, 1.5, 0.7]]))  # A, G, blank
    cfg = window_config(56.0, 58.0, bin_width=1.0)  # only G fits
    got = pmc_decode(lp, cfg, GA)
    assert got.feasible
    assert str(got.peptide) == "G"
    assert got.log_prob == pytest.approx(lp[0, 1], abs=1e-12)


def test_infeasible_window_between_reachable_masses():
    lp = random_logps(np.random.default_rng(5), 3, 3)
    cfg = window_config(29.0, 31.0, bin_width=1.0)  # no subset sums near 30
    got = pmc_decode(lp, cfg, GA)
    ref = pmc_bruteforce_oracle(lp, cfg, GA)
    assert got == ref
    assert not got.feasible
    assert got.peptide is None
    assert got.log_prob == -np.inf


def test_window_entirely_negative_is_infeasible():
    lp = random_logps(np.random.default_rng(6), 2, 3)
    cfg = PMCConfig(target_mass=-500.0, tolerance=1.0, bin_width=1.0)
    assert not pmc_decode(lp, cfg, GA).feasible
    assert not pmc_bruteforce_oracle(lp, cfg, GA).feasible


def test_equal_mass_equal_logp_ties_break_lexicographically():
    # Synthetic residues A=1, B=2, C=3 bins. Window exactly 3 bins under
    # uniform probabilities: collapses AB, BA, C all tie on log-prob, and
    # AB must win in both implementations.
    table = AminoAcidTable(entries=(("A", 50.0), ("B", 100.0), ("C", 150.0)))
    cfg = PMCConfig(target_mass=150.0, tolerance=0.0, bin_width=50.0)
    lp = np.full((3, 4), math.log(1.0 / 4.0))
    got = pmc_decode(lp, cfg, table)
    ref = pmc_bruteforce_oracle(lp, cfg, table)
    assert got == ref
    assert str(got.peptide) == "AB"


def test_oracle_bounds_enforced():
    rng = np.random.default_rng(0)
    cfg = PMCConfig(target_mass=100.0, tolerance=5.0, bin_width=1.0)
    with pytest.raises(ValueError, match="bound"):
        pmc_bruteforce_oracle(random_logps(rng, 9, 3), cfg, GA)
    five = AminoAcidTable(
        entries=tuple((chr(ord("A") + i), 60.0 + 10 * i) for i in range(5))
    )
    with pytest.raises(ValueError, match="bound"):
        pmc_bruteforce_oracle(random_logps(rng, 3, 6), cfg, five)


def test_vocab_width_must_match_table():
    cfg = PMCConfig(target_mass=100.0, tolerance=5.0, bin_width=1.0)
    lp = random_logps(np.random.default_rng(1), 3, 4)
    with pytest.raises(ValueError):
        pmc_decode(lp, cfg, GA)
    with pytest.raises(ValueError):
        pmc_bruteforce_oracle(lp, cfg, GA)


def test_table_past_the_int8_back_pointers_rejected():
    table = AminoAcidTable(entries=tuple((chr(0x100 + i), 60.0 + i) for i in range(127)))
    lp = random_logps(np.random.default_rng(2), 3, table.n_residues + 1)
    with pytest.raises(ValueError, match="int8 back-pointers"):
        pmc_decode(lp, PMCConfig(target_mass=200.0, tolerance=5.0, bin_width=1.0), table)


def random_table(rng, n_residues):
    entries = tuple(
        (chr(ord("A") + i), float(rng.uniform(50.0, 190.0))) for i in range(n_residues)
    )
    return AminoAcidTable(entries=entries)


def test_randomized_oracle_equivalence(monkeypatch):
    shortcuts = shortcut_spy(monkeypatch)
    rng = np.random.default_rng(2024)
    n_infeasible = 0
    for _ in range(140):
        n_res = int(rng.integers(1, 5))
        T = int(rng.integers(1, 7))
        table = random_table(rng, n_res)
        bin_width = float(rng.choice([0.5, 1.0, 2.5]))
        target = float(rng.uniform(0.0, T * 190.0))
        tol = float(rng.uniform(0.0, 40.0))
        cfg = PMCConfig(target_mass=target, tolerance=tol, bin_width=bin_width)
        lp = random_logps(rng, T, n_res + 1)
        got = pmc_decode(lp, cfg, table)
        ref = pmc_bruteforce_oracle(lp, cfg, table)
        assert got.feasible == ref.feasible
        if not got.feasible:
            n_infeasible += 1
            assert got.peptide is None and ref.peptide is None
        else:
            assert got.peptide == ref.peptide
            assert got.log_prob == pytest.approx(ref.log_prob, abs=1e-9)
            # Mass soundness: the chosen peptide's discretized mass is
            # inside the discretized window.
            mass_bins = sum(cfg.discretize(table.mass_of(r)) for r in got.peptide)
            lo, hi = cfg.window
            assert lo <= mass_bins <= hi
    # The draw ranges are tuned so both branches actually occur, and the
    # feasible ones both with and without the shortcut.
    assert n_infeasible > 10
    assert n_infeasible < 130
    n_shortcut = sum(r is not None for r in shortcuts)
    assert 5 < n_shortcut < 140 - n_infeasible - 5


def test_randomized_oracle_equivalence_with_ties():
    # Integer logits and residues of a few integer bins make equal path
    # probabilities at equal masses common, so both tie-breaks (among
    # predecessors, and between staying and starting a residue) run often.
    rng = np.random.default_rng(31)
    n_feasible = 0
    for _ in range(3000):
        n_res = int(rng.integers(1, 5))
        T = int(rng.integers(1, 7))
        table = AminoAcidTable(entries=tuple(
            (chr(ord("A") + i), float(rng.integers(1, 4))) for i in range(n_res)
        ))
        lp = log_softmax(rng.integers(0, 3, size=(T, n_res + 1)).astype(np.float64))
        cfg = PMCConfig(
            target_mass=float(rng.integers(0, 3 * T + 1)),
            tolerance=float(rng.integers(0, 2)),
            bin_width=1.0,
        )
        got = pmc_decode(lp, cfg, table)
        ref = pmc_bruteforce_oracle(lp, cfg, table)
        assert got.feasible == ref.feasible
        assert got.peptide == ref.peptide
        if got.feasible:
            n_feasible += 1
            assert got.log_prob == pytest.approx(ref.log_prob, abs=1e-9)
    assert 1000 < n_feasible < 2900


# ---------------------------------------------------------------------------
# the row-sparse, pruned DP against the dense one it replaced


def dense_pmc_reference(log_probs, cfg, table):
    """The dense DP pmc_decode replaced: every mass bin 0..M is a row of a
    [M+1, A+1] grid at every frame, nothing is pruned, and the same top-2
    predecessor trick and tie rule pick each cell's back-pointer."""
    stay = np.int8(127)
    log_probs = np.asarray(log_probs, dtype=np.float64)
    T, vocab = log_probs.shape
    A = table.n_residues
    ubin = cfg.residue_bins(table)
    lo, hi = cfg.window
    if hi < 0:
        return PMCResult(None, -np.inf, False)
    M = hi
    null = A
    blank = table.blank_id

    logp = np.full((M + 1, A + 1), -np.inf)
    logp[0, null] = 0.0
    frames = []
    rows = np.arange(M + 1)

    def materialize(m, l, upto):
        out = []
        for t in range(upto, -1, -1):
            f = int(frames[t][m, l])
            if f == stay:
                continue
            out.append(l)
            m -= int(ubin[l])
            l = f
        out.reverse()
        return tuple(out)

    def symbols(seq):
        return tuple(table.symbols[i] for i in seq)

    for t in range(T):
        e = log_probs[t]
        stay_gain = np.empty(A + 1)
        stay_gain[:A] = np.maximum(e[blank], e[:A])
        stay_gain[null] = e[blank]
        result = logp + stay_gain
        frm = np.full((M + 1, A + 1), stay, dtype=np.int8)

        top1i = np.argmax(logp, axis=1)
        top1v = logp[rows, top1i]
        tmp = logp.copy()
        tmp[rows, top1i] = -np.inf
        top2i = np.argmax(tmp, axis=1)
        top2v = tmp[rows, top2i]
        cnt1 = (logp == top1v[:, None]).sum(axis=1)
        cnt2 = (logp == top2v[:, None]).sum(axis=1)

        for l in range(A):
            u = int(ubin[l])
            if u > M:
                continue
            n = M + 1 - u
            use_top2 = top1i[:n] == l
            pv = np.where(use_top2, top2v[:n], top1v[:n])
            pi = np.where(use_top2, top2i[:n], top1i[:n])
            cand = pv + e[l]
            cur = result[u:, l]
            attained = np.where(use_top2, cnt2[:n], cnt1[:n])
            l_attains = logp[:n, l] == pv
            pred_ties = (attained - l_attains.astype(np.int64) >= 2) & np.isfinite(pv)
            better = cand > cur
            equal = (cand == cur) & np.isfinite(cand)
            result[u:, l] = np.where(better, cand, cur)
            col = frm[u:, l]
            col[better] = pi[better].astype(np.int8)
            for m_pred in np.flatnonzero((better & pred_ties) | equal):
                m_pred = int(m_pred)
                options = [(symbols(materialize(m_pred + u, l, t - 1)), stay)] if equal[m_pred] else []
                options += [
                    (symbols(materialize(m_pred, p, t - 1) + (l,)), p)
                    for p in range(A + 1)
                    if p != l and logp[m_pred, p] == pv[m_pred]
                ]
                col[m_pred] = min(options, key=lambda o: o[0])[1]

        frames.append(frm)
        logp = result

    window_vals = logp[lo : hi + 1]
    best = window_vals.max() if window_vals.size else -np.inf
    if not np.isfinite(best):
        return PMCResult(None, -np.inf, False)
    cells = np.argwhere(window_vals == best)
    winner = min((materialize(int(m) + lo, int(l), T - 1) for m, l in cells), key=symbols)
    return PMCResult(table.peptide_from_ids(list(winner)), float(best), True)


def dense_equivalence_cases(rng):
    """(log_probs, cfg, table): peaked, flat and tied integer logits on
    random tables at bins 0.5-2.5, then the real table at bin 0.001."""
    for kind in ("peaked", "flat", "tied") * 60:
        n_res = int(rng.integers(1, 6))
        T = int(rng.integers(1, 9))
        if kind == "tied":
            table = AminoAcidTable(entries=tuple(
                (chr(ord("A") + i), float(rng.integers(1, 4))) for i in range(n_res)
            ))
            lp = log_softmax(rng.integers(0, 3, size=(T, n_res + 1)).astype(np.float64))
            cfg = PMCConfig(target_mass=float(rng.integers(0, 3 * T + 1)),
                            tolerance=float(rng.integers(0, 2)), bin_width=1.0)
        else:
            table = random_table(rng, n_res)
            scale = 8.0 if kind == "peaked" else 0.1
            lp = log_softmax(rng.normal(size=(T, n_res + 1)) * scale)
            cfg = PMCConfig(target_mass=float(rng.uniform(0.0, T * 190.0)),
                            tolerance=float(rng.uniform(0.0, 40.0)),
                            bin_width=float(rng.choice([0.5, 1.0, 2.5])))
        yield lp, cfg, table
    real = AminoAcidTable()
    for scale in (8.0, 0.1, 2.0):
        T = int(rng.integers(5, 9))
        picks = rng.integers(0, real.n_residues, size=int(rng.integers(2, 4)))
        target = min(float(real.masses[picks].sum()), 300.0)
        lp = log_softmax(rng.normal(size=(T, real.n_residues + 1)) * scale)
        yield lp, PMCConfig(target_mass=target, tolerance=0.1, bin_width=0.001), real


def assert_equals_dense(cases):
    n_feasible = 0
    for lp, cfg, table in cases:
        got = pmc_decode(lp, cfg, table)
        want = dense_pmc_reference(lp, cfg, table)
        assert got.feasible == want.feasible, (cfg, got, want)
        assert got.peptide == want.peptide, (cfg, got, want)
        assert got.log_prob == want.log_prob, (cfg, got, want)
        n_feasible += got.feasible
    return n_feasible


def test_row_sparse_dp_equals_dense_reference_exactly():
    n_feasible = assert_equals_dense(dense_equivalence_cases(np.random.default_rng(77)))
    assert 40 < n_feasible < 170


def test_row_sparse_dp_equals_dense_reference_exactly_without_the_shortcut(monkeypatch):
    # The shortcut answers many peaked cases above; here the DP meets them.
    monkeypatch.setattr(decoding, "_unique_best_path", lambda *args: None)
    test_row_sparse_dp_equals_dense_reference_exactly()


@pytest.mark.parametrize("unit", [decoding.BOUND_UNIT, 5.0])
def test_incumbent_of_one_cell_per_frame_keeps_the_dp_exact(monkeypatch, unit):
    # One cell per frame makes the incumbent pass a single path, which on
    # these small instances often is the optimum itself: cells whose bound
    # ties it must survive the pruning margin. A 5 Da bound unit spans
    # several bins, so the bound must also cover residue-mass remainders.
    monkeypatch.setattr(decoding, "INCUMBENT_CELLS", 1)
    monkeypatch.setattr(decoding, "BOUND_UNIT", unit)
    n_feasible = assert_equals_dense(dense_equivalence_cases(np.random.default_rng(78)))
    assert n_feasible > 40


@pytest.mark.parametrize("unit", [decoding.BOUND_UNIT, 5.0])
def test_incumbent_of_one_cell_per_frame_keeps_the_dp_exact_without_the_shortcut(monkeypatch, unit):
    # Without the shortcut the peaked optima, which the one-cell incumbent
    # often is, reach the DP and its tie margin.
    monkeypatch.setattr(decoding, "_unique_best_path", lambda *args: None)
    test_incumbent_of_one_cell_per_frame_keeps_the_dp_exact(monkeypatch, unit)


def test_memory_cap_gives_the_spectrum_up_and_logs_why(monkeypatch, caplog):
    table = AminoAcidTable()
    model = Model.build(ModelConfig(d=16, heads=2, hidden=32, enc_layers=1, at_layers=1,
                                    nat_layers=1, t_max=10), table, seed=3)
    spectrum = simulate_spectrum(Peptide.from_string("GASP"), seed=4, table=table)
    monkeypatch.setattr(decoding, "MEMORY_CAP", 1000)
    with caplog.at_level(logging.WARNING, logger="pepseq.decoding"):
        result, conf = nat_pmc_decode(model, spectrum)
    assert not result.feasible
    # The fallback is the collapse of the per-frame argmax path.
    enc = model.encode_spectrum(spectrum)
    lp = log_softmax(model.nat_forward(enc).logits.values)
    path = lp.argmax(axis=1)
    assert result.peptide == table.peptide_from_ids(ctc_collapse(path.tolist(), table.blank_id))
    assert result.log_prob == lp[np.arange(len(path)), path].sum()
    [record] = [r for r in caplog.records if r.name == "pepseq.decoding"]
    assert record.levelno == logging.WARNING
    assert "mass rows" in record.getMessage() and "cap" in record.getMessage()


def test_memory_cap_bounds_what_a_flat_heavy_decode_allocates(monkeypatch, caplog):
    # Flat frames near 1.46 kDa: the incumbent pass finds no feasible path,
    # so the exact pass runs with no floor and its rows grow each frame
    # until the guard gives the spectrum up. The margin holds what the
    # guard's estimate leaves out, chiefly the completion bounds (about
    # 1 MiB here).
    rng = np.random.default_rng(0)
    lp = log_softmax(rng.normal(size=(24, 21)) * 0.3)
    cap, margin = 128 << 20, 4 << 20
    monkeypatch.setattr(decoding, "MEMORY_CAP", cap)
    tracemalloc.start()
    try:
        with caplog.at_level(logging.WARNING, logger="pepseq.decoding"):
            result = pmc_decode(lp, PMCConfig(target_mass=1460.0), AminoAcidTable())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result == PMCResult(None, -np.inf, False)
    [record] = [r for r in caplog.records if r.name == "pepseq.decoding"]
    assert "mass rows" in record.getMessage() and "cap" in record.getMessage()
    assert peak < cap + margin


def fixture_band_frames():
    """(checkpoint, spectrum id, log_probs, cfg, table): the NAT frames of
    the four fixture spectra of 588-593 Da under both fixture checkpoints."""
    for ckpt in ("trained.ckpt", "untrained.ckpt"):
        model = Model.from_checkpoint_blob(*load_checkpoint(str(FIXTURE / ckpt)))
        for s in parse_mgf((FIXTURE / "spectra.mgf").read_text(), model.table):
            if s.spectrum_id in ("s005", "s010", "s033", "s039"):
                lp = ad.log_softmax(model.nat_forward(model.encode_spectrum(s)).logits).values
                cfg = PMCConfig(target_mass=s.neutral_mass - WATER)
                yield ckpt, s.spectrum_id, lp, cfg, model.table


def test_incumbent_of_one_cell_per_frame_keeps_the_dp_exact_on_fixture_frames(monkeypatch):
    # Real 24-frame frames at bin 0.001, where the dense reference is out of
    # reach: the DP with a one-cell incumbent pass must give the default's
    # result bit for bit. The shortcut is off, so the DP meets every case.
    # The one-cell pass finds the optimum itself on three trained spectra
    # and no path on the other five, so the exact pass runs at the tie
    # margin or with no floor.
    monkeypatch.setattr(decoding, "_unique_best_path", lambda *args: None)
    cases = list(fixture_band_frames())
    wants = [pmc_decode(lp, cfg, table) for *_, lp, cfg, table in cases]
    monkeypatch.setattr(decoding, "INCUMBENT_CELLS", 1)
    for (ckpt, sid, lp, cfg, table), want in zip(cases, wants):
        got = pmc_decode(lp, cfg, table)
        assert want.feasible, (ckpt, sid)
        assert got == want and got.log_prob.hex() == want.log_prob.hex(), (ckpt, sid, got, want)


# ---------------------------------------------------------------------------
# the shortcut: a unique best frame path that lands in the window


def shortcut_spy(monkeypatch):
    """Record what each call of the shortcut returns (None: the DP ran)."""
    seen = []
    real = decoding._unique_best_path

    def spy(*args):
        seen.append(real(*args))
        return seen[-1]

    monkeypatch.setattr(decoding, "_unique_best_path", spy)
    return seen


def dp_spy(monkeypatch):
    """Count the DP runs of pmc_decode (each builds its completion bounds)."""
    runs = []
    real = decoding._completion_bounds

    def spy(*args):
        runs.append(args)
        return real(*args)

    monkeypatch.setattr(decoding, "_completion_bounds", spy)
    return runs


def test_unreachable_window_is_infeasible_before_the_dp(monkeypatch):
    # 24 frames of W (186.08 Da) reach 4.47 kDa at most, so a 100 kDa target
    # is given up before _completion_bounds, whose arrays grow with the target.
    table = AminoAcidTable()
    lp = random_logps(np.random.default_rng(16), 24, table.n_residues + 1)
    runs = dp_spy(monkeypatch)
    assert pmc_decode(lp, PMCConfig(target_mass=100_000.0), table) == PMCResult(None, -np.inf, False)
    assert runs == []
    # Three frames of A reach 213 bins: a window from there still runs the DP, one from 214 not.
    lp = random_logps(np.random.default_rng(17), 3, 3)
    for lo, dp_ran in ((213.0, True), (214.0, False)):
        runs.clear()
        cfg = window_config(lo, lo + 2.0, bin_width=1.0)
        assert pmc_decode(lp, cfg, GA) == pmc_bruteforce_oracle(lp, cfg, GA)
        assert bool(runs) == dp_ran


def test_shortcut_answers_a_unique_best_path_in_the_window(monkeypatch):
    def no_dp(*args):
        raise AssertionError("the DP ran")

    monkeypatch.setattr(decoding, "_completion_bounds", no_dp)
    rng = np.random.default_rng(15)
    for _ in range(60):
        n_res = int(rng.integers(1, 5))
        T = int(rng.integers(1, 7))
        table = random_table(rng, n_res)
        lp = log_softmax(rng.normal(size=(T, n_res + 1)) * 8.0)
        bin_width = float(rng.choice([0.5, 1.0, 2.5]))
        cfg = PMCConfig(target_mass=0.0, bin_width=bin_width)
        bins = sum(cfg.discretize(table.masses[i]) for i in argmax_collapse(lp, table.blank_id))
        cfg = PMCConfig(target_mass=bins * bin_width, tolerance=float(rng.uniform(0.0, 5.0)),
                        bin_width=bin_width)
        got = pmc_decode(lp, cfg, table)
        assert got == dense_pmc_reference(lp, cfg, table)
        ref = pmc_bruteforce_oracle(lp, cfg, table)
        assert got.feasible and got.peptide == ref.peptide
        assert got.log_prob == pytest.approx(ref.log_prob, abs=1e-9)


def test_tied_frame_maximum_falls_through_to_the_dp(monkeypatch):
    # Residues of 1 and 2 bins. Frame 1 ties A and B: the argmax path
    # B A blank reads BA (3 bins), the tied B B blank reads B (2 bins), and
    # the window holds both, so the lexicographic rule must pick B.
    table = AminoAcidTable(entries=(("A", 1.0), ("B", 2.0)))
    runs = dp_spy(monkeypatch)
    lp = log_softmax(np.array([[0.0, 2.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 2.0]]))
    cfg = PMCConfig(target_mass=2.5, tolerance=0.5, bin_width=1.0)
    got = pmc_decode(lp, cfg, table)
    assert len(runs) == 1
    assert got == pmc_bruteforce_oracle(lp, cfg, table)
    assert str(got.peptide) == "B"
    # Random integer logits: every instance with a tied frame maximum runs the DP.
    rng = np.random.default_rng(16)
    n_tied = 0
    for _ in range(200):
        T = int(rng.integers(1, 6))
        lp = log_softmax(rng.integers(0, 3, size=(T, 3)).astype(np.float64))
        tied = bool(np.any((lp == lp.max(axis=1, keepdims=True)).sum(axis=1) > 1))
        cfg = PMCConfig(target_mass=float(rng.integers(0, 2 * T + 1)), tolerance=1.0,
                        bin_width=1.0)
        before = len(runs)
        got = pmc_decode(lp, cfg, table)
        assert got == pmc_bruteforce_oracle(lp, cfg, table)
        if tied:
            n_tied += 1
            assert len(runs) == before + 1
    assert n_tied > 50


def test_tie_below_the_last_bit_of_the_sum_falls_through_to_the_dp(monkeypatch):
    # Frame 0's maximum is unique, but its runner-up is short of it by less
    # than the last bit of the path's sum: B blank and A blank both sum to
    # -1.0, so the DP's lexicographic rule picks A, not the argmax path's B.
    table = AminoAcidTable(entries=(("A", 1.0), ("B", 1.0)))
    runs = dp_spy(monkeypatch)
    lp = np.array([[-1e-17, 0.0, -50.0], [-50.0, -50.0, -1.0]])
    cfg = PMCConfig(target_mass=1.0, tolerance=0.0, bin_width=1.0)
    got = pmc_decode(lp, cfg, table)
    assert len(runs) == 1
    assert got == dense_pmc_reference(lp, cfg, table) == pmc_bruteforce_oracle(lp, cfg, table)
    assert str(got.peptide) == "A" and got.log_prob == -1.0


def test_argmax_path_outside_the_window_falls_through_to_the_dp(monkeypatch):
    # The argmax path reads A (71 bins); the window asks for G (57 bins).
    runs = dp_spy(monkeypatch)
    lp = log_softmax(np.array([[9.0, 1.0, 0.0], [0.0, 1.0, 9.0], [0.0, 2.0, 9.0]]))
    cfg = PMCConfig(target_mass=57.0, tolerance=0.4, bin_width=1.0)
    got = pmc_decode(lp, cfg, GA)
    assert len(runs) == 1
    assert got == dense_pmc_reference(lp, cfg, GA)
    assert got == pmc_bruteforce_oracle(lp, cfg, GA)
    assert str(got.peptide) == "G"


def test_fixture_shortcut_equals_the_dp_and_fires_without_adjacent_repeats(monkeypatch):
    # The 50 fixture spectra with the trained checkpoint: the argmax path
    # is the true peptide's, and the shortcut answers each that has no
    # adjacent repeat (nat-pmc reads a repeat across a blank as one residue).
    store, blob = load_checkpoint(str(FIXTURE / "trained.ckpt"))
    model = Model.from_checkpoint_blob(store, blob)
    spectra = parse_mgf((FIXTURE / "spectra.mgf").read_text(), model.table)
    cases = [
        (s, ad.log_softmax(model.nat_forward(model.encode_spectrum(s)).logits).values,
         PMCConfig(target_mass=s.neutral_mass - WATER))
        for s in spectra
    ]
    shortcuts = shortcut_spy(monkeypatch)
    with_shortcut = [pmc_decode(lp, cfg, model.table) for _, lp, cfg in cases]
    monkeypatch.setattr(decoding, "_unique_best_path", lambda *args: None)
    dp_only = [pmc_decode(lp, cfg, model.table) for _, lp, cfg in cases]
    for got, want in zip(with_shortcut, dp_only):
        assert got.peptide == want.peptide and got.feasible == want.feasible
        assert got.log_prob.hex() == want.log_prob.hex()
    fired = {s.spectrum_id for (s, _, _), r in zip(cases, shortcuts) if r is not None}
    no_repeat = {s.spectrum_id for s in spectra
                 if all(a != b for a, b in zip(s.truth.residues, s.truth.residues[1:]))}
    assert len(no_repeat) == 36
    assert fired == no_repeat
