"""Sequence-level evaluation under mass tolerances.

Residues are compared by mass, not symbol, so isobaric substitutions
(leucine for isoleucine) count as matches. Positions are aligned by a
two-cursor walk over cumulative masses, run once from the left and once
from the right; a position pair is aligned when the cumulative sums
through it differ by less than the prefix tolerance, and an aligned pair
matches when the residue masses differ by less than the residue
tolerance. The match set is the left pass's pairs plus each right-pass
pair whose predicted and true positions the left pass left unmatched, so
every position counts at most once; this lets a single insertion or
deletion spoil only one side of the peptide instead of everything
downstream of it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .spectra import AminoAcidTable, Peptide

__all__ = [
    "MatchResult",
    "EvalRow",
    "EvalReport",
    "CoverageCurve",
    "aa_match",
    "corpus_eval",
    "precision_coverage",
]

PREFIX_TOLERANCE = 0.5  # Da, on cumulative masses through a position
RESIDUE_TOLERANCE = 0.1  # Da, on the residue masses themselves


@dataclass(frozen=True)
class MatchResult:
    matched_aa: int
    predicted_aa: int
    truth_aa: int
    peptide_correct: bool


def _cursor_pass(pred: list[float], truth: list[float]) -> set[tuple[int, int]]:
    """One left-to-right alignment pass; returns matched (i, j) pairs."""
    pairs: set[tuple[int, int]] = set()
    i = j = 0
    cp = ct = 0.0
    while i < len(pred) and j < len(truth):
        end_p = cp + pred[i]
        end_t = ct + truth[j]
        if abs(end_p - end_t) < PREFIX_TOLERANCE:
            if abs(pred[i] - truth[j]) < RESIDUE_TOLERANCE:
                pairs.add((i, j))
            cp, ct = end_p, end_t
            i += 1
            j += 1
        elif end_p < end_t:
            cp = end_p
            i += 1
        else:
            ct = end_t
            j += 1
    return pairs


def aa_match(pred: Peptide, truth: Peptide, table: AminoAcidTable) -> MatchResult:
    pm = [table.mass_of(r) for r in pred]
    tm = [table.mass_of(r) for r in truth]
    forward = _cursor_pass(pm, tm)
    backward = {(len(pm) - 1 - i, len(tm) - 1 - j) for i, j in _cursor_pass(pm[::-1], tm[::-1])}
    # The two passes may pair one position with different partners; the left one's pair stands.
    taken_p, taken_t = {i for i, _ in forward}, {j for _, j in forward}
    matched = len(forward) + sum(i not in taken_p and j not in taken_t for i, j in backward)
    return MatchResult(
        matched_aa=matched,
        predicted_aa=len(pm),
        truth_aa=len(tm),
        peptide_correct=matched == len(pm) == len(tm),
    )


@dataclass(frozen=True)
class EvalRow:
    spectrum_id: str
    confidence: float  # -inf when the spectrum received no prediction
    peptide_correct: bool
    matched_aa: int
    predicted_aa: int
    truth_aa: int


@dataclass(frozen=True)
class EvalReport:
    aa_precision: float  # matched residues / predicted residues
    peptide_recall: float  # fully-correct peptides / truth spectra
    rows: tuple[EvalRow, ...]  # one per truth spectrum, sorted by id

    def __post_init__(self):
        assert 0.0 <= self.aa_precision <= 1.0
        assert 0.0 <= self.peptide_recall <= 1.0


def corpus_eval(
    predictions: list[tuple[str, Peptide, float]],
    truths: dict[str, Peptide],
    table: AminoAcidTable,
) -> EvalReport:
    """Aggregate matches over a corpus.

    Every truth spectrum contributes a row; spectra with no prediction
    count against recall and carry confidence -inf so they sort to the
    bottom of the coverage curve.
    """
    if not truths:
        raise ValueError("no truth spectra to evaluate")
    unknown = sorted({sid for sid, _, _ in predictions} - truths.keys())
    if unknown:
        raise ValueError(f"predictions for unknown spectra: {', '.join(unknown)}")
    seen: set[str] = set()
    for sid, _, _ in predictions:
        if sid in seen:
            raise ValueError(f"duplicate prediction for spectrum {sid}")
        seen.add(sid)

    by_id = {sid: (pep, conf) for sid, pep, conf in predictions}
    rows = []
    for sid in sorted(truths):
        if sid in by_id:
            pep, conf = by_id[sid]
            m = aa_match(pep, truths[sid], table)
        else:
            pep, conf = Peptide(()), float("-inf")
            m = MatchResult(0, 0, len(truths[sid]), False)
        rows.append(
            EvalRow(sid, conf, m.peptide_correct, m.matched_aa, m.predicted_aa, m.truth_aa)
        )

    total_predicted = sum(r.predicted_aa for r in rows)
    total_matched = sum(r.matched_aa for r in rows)
    return EvalReport(
        aa_precision=total_matched / total_predicted if total_predicted else 0.0,
        peptide_recall=sum(r.peptide_correct for r in rows) / len(rows),
        rows=tuple(rows),
    )


@dataclass(frozen=True)
class CoverageCurve:
    points: tuple[tuple[float, float], ...]  # (coverage k/N, recall among top-k)


def precision_coverage(report: EvalReport) -> CoverageCurve:
    """Recall over the most-confident k predictions, for every k.

    The last point (full coverage) equals the corpus peptide recall by
    construction.
    """
    ordered = sorted(report.rows, key=lambda r: (-r.confidence, r.spectrum_id))
    n = len(ordered)
    points = []
    correct = 0
    for k, row in enumerate(ordered, start=1):
        correct += row.peptide_correct
        points.append((k / n, correct / k))
    return CoverageCurve(points=tuple(points))
