"""Fixtures and properties for the mass-tolerance evaluation metrics."""

import math

import numpy as np
import pytest

from pepseq.metrics import (
    EvalReport,
    EvalRow,
    MatchResult,
    aa_match,
    corpus_eval,
    precision_coverage,
)
from pepseq.spectra import AminoAcidTable, Peptide, random_peptide

TABLE = AminoAcidTable()


def pep(s: str) -> Peptide:
    return Peptide.from_string(s)


class TestAAMatch:
    def test_identical_peptides_fully_match(self):
        r = aa_match(pep("GASPK"), pep("GASPK"), TABLE)
        assert r == MatchResult(5, 5, 5, True)

    def test_swapped_residues_match_nothing(self):
        # GA vs AG: the cumulative sums only meet after both residues,
        # where the residue masses themselves differ by ~14 Da.
        r = aa_match(pep("GA"), pep("AG"), TABLE)
        assert r == MatchResult(0, 2, 2, False)

    def test_leucine_isoleucine_are_interchangeable(self):
        r = aa_match(pep("PLK"), pep("PIK"), TABLE)
        assert r.matched_aa == 3
        assert r.peptide_correct

    def test_prefix_shift_recovers_downstream_matches(self):
        # G+A is within 1e-4 Da of Q, so after eating the GA/Q mismatch
        # the cursors re-align and the trailing K still matches.
        r = aa_match(pep("GAK"), pep("QK"), TABLE)
        assert r == MatchResult(1, 3, 2, False)

    def test_suffix_pass_rescues_right_aligned_tail(self):
        # A leading insertion of W (186 Da) breaks every prefix sum well
        # past 0.5 Da, but the suffix cursors line up immediately.
        r = aa_match(pep("WGASP"), pep("GASP"), TABLE)
        assert r.matched_aa == 4
        assert not r.peptide_correct

    @pytest.mark.parametrize("pred, truth", [("L", "IGL"), ("VV", "V"), ("D", "DCD")])
    def test_a_position_the_two_passes_pair_differently_counts_once(self, pred, truth):
        # The left pass pairs the one-residue side with one partner and the
        # right pass with another; only the left pass's pair counts.
        r = aa_match(pep(pred), pep(truth), TABLE)
        assert r == MatchResult(1, len(pred), len(truth), False)

    def test_empty_prediction(self):
        r = aa_match(pep(""), pep("GAK"), TABLE)
        assert r == MatchResult(0, 0, 3, False)

    def test_both_empty_count_as_correct(self):
        assert aa_match(pep(""), pep(""), TABLE).peptide_correct

    def test_symmetry_and_bounds(self):
        rng = np.random.default_rng(77)
        for _ in range(60):
            a = random_peptide(rng, 1, 8, TABLE)
            b = random_peptide(rng, 1, 8, TABLE)
            if rng.random() < 0.3:  # correlated pair: mutate one position
                res = list(a.residues)
                res[rng.integers(len(res))] = TABLE.symbols[
                    rng.integers(TABLE.n_residues)
                ]
                b = Peptide(tuple(res))
            ab = aa_match(a, b, TABLE)
            ba = aa_match(b, a, TABLE)
            assert ab.matched_aa == ba.matched_aa
            assert ab.matched_aa <= min(len(a), len(b))
            if ab.peptide_correct:
                assert len(a) == len(b) == ab.matched_aa


class TestCorpusEval:
    def truths(self):
        return {"s1": pep("GASP"), "s2": pep("KLM"), "s3": pep("TY"), "s4": pep("AAA")}

    def test_all_exact(self):
        preds = [(sid, p, -0.1) for sid, p in self.truths().items()]
        report = corpus_eval(preds, self.truths(), TABLE)
        assert report.aa_precision == 1.0
        assert report.peptide_recall == 1.0
        assert len(report.rows) == 4

    def test_half_exact_half_empty(self):
        t = self.truths()
        preds = [
            ("s1", t["s1"], -0.1),
            ("s2", t["s2"], -0.2),
            ("s3", pep(""), -0.3),
            ("s4", pep(""), -0.4),
        ]
        report = corpus_eval(preds, t, TABLE)
        assert report.peptide_recall == 0.5
        # Empty predictions contribute nothing to either precision term.
        assert report.aa_precision == 1.0

    def test_missing_predictions_count_against_recall(self):
        t = self.truths()
        report = corpus_eval([("s2", t["s2"], -0.5)], t, TABLE)
        assert report.peptide_recall == 0.25
        missing = [r for r in report.rows if r.spectrum_id != "s2"]
        assert all(r.confidence == -math.inf for r in missing)
        assert all(not r.peptide_correct for r in missing)
        assert all(r.predicted_aa == 0 for r in missing)

    def test_wrong_residues_hit_precision(self):
        t = {"s1": pep("GA")}
        report = corpus_eval([("s1", pep("GG"), -1.0)], t, TABLE)
        assert report.aa_precision == 0.5  # G matches, second position no
        assert report.peptide_recall == 0.0

    def test_unknown_id_raises_with_name(self):
        with pytest.raises(ValueError, match="bogus"):
            corpus_eval([("bogus", pep("GA"), -1.0)], self.truths(), TABLE)

    def test_duplicate_prediction_rejected(self):
        t = self.truths()
        preds = [("s1", t["s1"], -0.1), ("s1", t["s1"], -0.2)]
        with pytest.raises(ValueError, match="duplicate"):
            corpus_eval(preds, t, TABLE)

    def test_empty_truths_rejected(self):
        with pytest.raises(ValueError, match="no truth"):
            corpus_eval([], {}, TABLE)

    def test_order_invariance(self):
        t = self.truths()
        preds = [("s1", t["s1"], -0.1), ("s3", pep("TA"), -0.3), ("s2", t["s2"], -0.2)]
        a = corpus_eval(preds, t, TABLE)
        b = corpus_eval(list(reversed(preds)), t, TABLE)
        assert a == b


class TestPrecisionCoverage:
    def report(self, flags_confs):
        rows = tuple(
            EvalRow(f"s{i}", conf, correct, 0, 0, 1)
            for i, (correct, conf) in enumerate(flags_confs)
        )
        recall = sum(r.peptide_correct for r in rows) / len(rows)
        return precision_coverage(
            EvalReport(aa_precision=0.0, peptide_recall=recall, rows=rows)
        )

    def test_single_correct_top_confidence(self):
        curve = self.report([(True, -0.1), (False, -0.2), (False, -0.3), (False, -0.4)])
        assert curve.points == (
            (0.25, 1.0),
            (0.5, 0.5),
            (0.75, pytest.approx(1 / 3)),
            (1.0, 0.25),
        )

    def test_all_correct_is_flat(self):
        curve = self.report([(True, -0.1), (True, -0.5), (True, -0.9)])
        assert all(y == 1.0 for _, y in curve.points)

    def test_final_point_equals_recall_and_x_increasing(self):
        rng = np.random.default_rng(5)
        flags_confs = [(bool(rng.random() < 0.6), float(-rng.random())) for _ in range(20)]
        curve = self.report(flags_confs)
        xs = [x for x, _ in curve.points]
        assert xs == sorted(set(xs))
        assert curve.points[-1][0] == 1.0
        recall = sum(c for c, _ in flags_confs) / 20
        assert curve.points[-1][1] == pytest.approx(recall, abs=1e-15)

    def test_unpredicted_rows_sort_last(self):
        curve = self.report([(True, -0.2), (False, -math.inf), (True, -0.1)])
        assert curve.points[0][1] == 1.0
        assert curve.points[1][1] == 1.0
        assert curve.points[2][1] == pytest.approx(2 / 3)

    def test_confidence_ties_break_by_id(self):
        # Same confidence everywhere: ids s0 < s1 < s2 decide the order.
        curve = self.report([(True, -0.5), (False, -0.5), (True, -0.5)])
        assert [y for _, y in curve.points] == [1.0, 0.5, pytest.approx(2 / 3)]
