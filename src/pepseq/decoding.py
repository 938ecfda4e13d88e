"""Decoders: CTC collapse, greedy and beam autoregressive search, and
precursor-mass-constrained (PMC) best-path decoding of the CTC frames.

The PMC decoder maximizes path probability over all frame paths whose
collapsed peptide's discretized residue-mass sum lands inside a window
around the discretized precursor target. Its state is (frames consumed,
accumulated discretized mass, last non-blank token); a blank frame keeps
the last non-blank token, so a repeat separated only by blanks still
counts as a stutter of the same residue rather than a new one. The
exhaustive-enumeration oracle below applies the same collapse rule
(``_new_residue``), which is what the dynamic program is checked against.

When the per-frame argmax path is the one best path and lands in the
window, it is the answer and no DP runs. Otherwise the DP keeps, per frame,
only the mass rows some live path can occupy, not one row per bin up to the
target. Each frame scores its candidates first (every live cell staying put
and every live row starting each residue), cuts them, and only then builds
its rows from the survivors. Two exact prunings do the cutting: rows that
can no longer reach the window are dropped, and candidates whose admissible
bound (score plus the most the later frames can add on the way into the
window) falls below an incumbent are cut. The incumbent is the window
optimum of a cheaper first pass that keeps a fixed number of candidates per
frame. A memory guard gives a spectrum up as infeasible, with a logged
warning, before a frame's candidates or its block would pass a fixed byte
cap.

Ties in path probability are broken toward the lexicographically smaller
peptide (by residue symbol), both inside the DP and at the final window
selection. Within one DP cell all tied candidates share the same
discretized mass, and since every residue occupies at least one bin no
candidate can be a strict prefix of another; plain lexicographic order is
therefore stable under appending a common suffix, which is what makes the
in-cell tie-break sound.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .network import ATCache, Model, NATFeatures, prefix_suffix_masses
from .spectra import WATER, AminoAcidTable, Peptide, Spectrum

__all__ = [
    "ctc_collapse",
    "DecodeResult",
    "greedy_at_decode",
    "beam_search_at",
    "PMCConfig",
    "PMCResult",
    "pmc_decode",
    "pmc_bruteforce_oracle",
    "nat_pmc_decode",
]

log = logging.getLogger(__name__)


def ctc_collapse(path: Sequence[int], blank_id: int) -> list[int]:
    """Merge adjacent equal tokens, then drop blanks."""
    out: list[int] = []
    prev: int | None = None
    for y in path:
        if y != prev and y != blank_id:
            out.append(int(y))
        prev = int(y)
    return out


# ---------------------------------------------------------------------------
# autoregressive decoding


@dataclass(frozen=True)
class DecodeResult:
    peptide: Peptide
    confidence: float  # mean per-token log-probability (EOS included)
    total_logp: float
    finished: bool  # False when the length cap cut the hypothesis off


def _log_probs(model: Model, logits: np.ndarray) -> np.ndarray:
    """Next-token log-probabilities [..., vocab] from AT logits [..., vocab],
    with the structural tokens, never valid emissions, masked out."""
    logps = ad.Kernels.log_softmax(logits)
    logps[..., [model.table.bos_id, model.table.pad_id]] = -np.inf
    return logps


def _step_logps(model: Model, spectrum: Spectrum, cache: ATCache, tokens, prefix) -> np.ndarray:
    """Masked next-token log-probabilities [n, vocab] from one cached AT step
    of ``model.arrays``: each row feeds its last token ``tokens`` [n] (BOS
    at the start) at its prefix mass ``prefix`` [n], which counts that token,
    and the suffix budget, as :func:`network.prefix_suffix_masses` gives
    them. The cache holds the earlier positions and gains this one.
    """
    masses = np.empty((len(tokens), 1, 2))
    masses[:, 0, 0], masses[:, 0, 1] = prefix, (spectrum.neutral_mass - WATER) - prefix
    return _log_probs(model, model.arrays.at_forward(tokens[:, None], masses, cache)[:, 0])


def _next_logps(model: Model, spectrum: Spectrum, ids, enc: np.ndarray, nat: NATFeatures) -> np.ndarray:
    """Masked next-token log-probabilities after residue prefixes ``ids``.

    One prefix [L] gives [vocab]; n prefixes of equal length [n, L] give
    [n, vocab], all against the one decode context ``enc``, ``nat`` of
    :func:`_decode_context`. The prefixes go through cached steps, one
    position at a time, so the values are those of a decode that steps, bit
    for bit: beam search above width 1, and greedy without a draft. Greedy
    reads the rows of its draft from one forward over the draft, which
    rounds differently, so there they agree to about 1e-12.
    """
    ids = np.asarray(ids, dtype=np.intp)
    rows = np.atleast_2d(ids)  # one prefix is a batch of one
    cache = model.arrays.at_cache(enc, nat.latents)
    prefix = np.zeros(len(rows))
    logps = _step_logps(model, spectrum, cache, np.full(len(rows), model.table.bos_id), prefix)
    for tokens in rows.T:
        prefix = prefix + model.table.masses[tokens]
        logps = _step_logps(model, spectrum, cache, tokens, prefix)
    return logps.reshape(ids.shape[:-1] + logps.shape[-1:])


def _decode_context(model: Model, spectrum: Spectrum) -> tuple[np.ndarray, NATFeatures]:
    """The encoder features and the NAT features, as arrays from one front-end
    pass of ``model.arrays``; ``NATFeatures(None, None)``, with no NAT run,
    on a model that is not fine-tuned, whose AT decoder does not read them."""
    view = model.arrays
    enc = view.encode_spectrum(spectrum)
    return enc, view.nat_forward(enc) if view.finetuned else NATFeatures(None, None)


def _draft(model: Model, nat_logits: np.ndarray | None, max_len: int) -> np.ndarray:
    """The NAT's own prediction as residue ids: the CTC collapse of its
    per-frame argmax, cut to the ``max_len - 1`` residues whose next-token
    rows a decode of ``max_len`` reads. Empty without NAT logits."""
    if nat_logits is None:
        return np.zeros(0, dtype=np.intp)
    path = nat_logits.argmax(axis=-1).tolist()
    return np.array(ctc_collapse(path, model.table.blank_id)[:max_len - 1], dtype=np.intp)


def greedy_at_decode(model: Model, spectrum: Spectrum, max_len: int) -> DecodeResult:
    """Argmax decoding: beam search of width 1.

    On an exact tie between ending (EOS) and emitting a residue, ending wins,
    as in the beam's ranking.
    """
    return beam_search_at(model, spectrum, 1, max_len)[0]


def beam_search_at(model: Model, spectrum: Spectrum, width: int, max_len: int) -> list[DecodeResult]:
    """Beam search pruned by total log-probability.

    Finished (and length-capped) hypotheses stay in the pool and compete
    with growing ones; ties in total go to the smaller residue ids, and a
    prefix ranks before its extensions, so ending wins a tie with going on.
    Results come back ranked by mean per-token log-probability. Width 1 is
    greedy decoding.

    The pool is arrays, one row per hypothesis: residue ids padded with -1,
    totals, prefix masses and finished flags. The rows stay in the order of
    their residues, so the candidates, made row by row, come in tie-break
    order, and one stable sort by total ranks them. A prefix mass is the
    parent's plus the new residue's: :func:`network.prefix_suffix_masses`'s
    sum, bit for bit. Every live hypothesis holds the same number of
    residues, so one cached AT step scores them all; the decode context is
    projected into the cache once, and the cache follows the kept
    hypotheses' parents. The forwards are ``model.arrays``'s.

    At width 1 on a fine-tuned model the NAT's own prediction is a draft
    (``_draft``), checked in one forward (blockwise parallel decoding, Stern
    et al. 2018): the first AT forward feeds BOS and the draft under the
    causal mask, and its row t is the next-token row after the draft's first
    t residues. The pool and its selection run unchanged on those rows, one
    length at a time, while the kept hypothesis follows the draft. At the
    first length where it leaves the draft or ends, the cache keeps that
    length's positions and cached steps take over. Without a draft (width
    above 1, or a model that is not fine-tuned) the first forward feeds BOS
    alone, and every forward is a one-position step.
    """
    if width < 1:
        raise ValueError(f"beam width must be at least 1, got {width}")
    if max_len < 1:
        raise ValueError(f"max_len must be at least 1, got {max_len}")
    table = model.table
    # Each row's candidates: ending (no new residue), then each residue.
    emitted = np.concatenate([[-1], np.arange(table.n_residues)])
    columns = np.concatenate([[table.eos_id], np.arange(table.n_residues)])
    gained = np.concatenate([[0.0], table.masses])
    stays = np.where(emitted < 0, 0.0, np.nan)  # a finished row offers only itself

    ids = np.full((1, max_len), -1, dtype=np.intp)
    totals, prefix = np.zeros(1), np.zeros(1)
    finished = np.zeros(1, dtype=bool)
    view = model.arrays
    enc, nat = _decode_context(model, spectrum)
    cache = view.at_cache(enc, nat.latents)
    draft = _draft(model, nat.logits if width == 1 else None, max_len)
    tokens = np.concatenate([[table.bos_id], draft])[None]
    masses = prefix_suffix_masses(draft[None], spectrum.neutral_mass, table)
    ahead = _log_probs(model, view.at_forward(tokens, masses, cache)[0])
    for length in range(max_len):  # residues every live hypothesis holds
        live = ~finished
        if not live.any():
            break
        step = np.repeat(stays[None], len(ids), axis=0)
        if length < len(ahead):
            step[live] = ahead[length, columns]
        else:
            step[live] = _step_logps(model, spectrum, cache, ids[live, length - 1],
                                     prefix[live])[:, columns]
        # The pool is in tie-break order, so a stable sort ranks it by total;
        # NaN, no candidate, sorts last. The kept stay in residue order.
        pool = (totals[:, None] + step).ravel()
        n = min(width, np.count_nonzero(~np.isnan(pool)))
        kept = np.argsort(-pool, kind="stable")[:n]
        kept.sort()
        parent, token = np.divmod(kept, len(columns))
        ids, totals = ids[parent], pool[kept]
        ids[:, length] = emitted[token]
        prefix, finished = prefix[parent] + gained[token], token == 0
        if length < len(draft) and ids[0, length] == draft[length]:
            continue  # still on the draft: the first forward holds the next row
        ahead = ahead[:length + 1]
        rank = live.cumsum() - 1  # a live row's row in the cache
        cache.select(rank[parent[~finished]], length + 1)

    results = []
    for row, total, done in zip(ids, totals.tolist(), finished.tolist()):
        residues = row[row >= 0].tolist()
        n_emitted = len(residues) + (1 if done else 0)
        results.append(
            DecodeResult(
                peptide=table.peptide_from_ids(residues),
                confidence=total / n_emitted if n_emitted else -np.inf,
                total_logp=total,
                finished=done,
            )
        )
    results.sort(key=lambda r: (-r.confidence, tuple(r.peptide.residues)))
    return results


# ---------------------------------------------------------------------------
# precursor-mass-constrained CTC decoding


@dataclass(frozen=True)
class PMCConfig:
    """Mass window for PMC decoding, all in daltons.

    ``target_mass`` is the residue-mass sum the peptide must reach: the
    neutral precursor mass minus one water.
    """

    target_mass: float
    tolerance: float = 0.1
    bin_width: float = 0.001

    def __post_init__(self):
        if self.bin_width <= 0:
            raise ValueError(f"bin width must be positive, got {self.bin_width}")
        if self.tolerance < 0:
            raise ValueError(f"tolerance must be non-negative, got {self.tolerance}")

    def discretize(self, mass: float) -> int:
        return int(np.floor(mass / self.bin_width + 0.5))

    @property
    def window(self) -> tuple[int, int]:
        lo = max(0, self.discretize(self.target_mass - self.tolerance))
        hi = self.discretize(self.target_mass + self.tolerance)
        return lo, hi

    def residue_bins(self, table: AminoAcidTable) -> np.ndarray:
        """Each residue's mass in bins; every residue must span at least one."""
        ubin = np.array([self.discretize(m) for m in table.masses], dtype=np.int64)
        if np.any(ubin < 1):
            raise ValueError(
                f"bin width {self.bin_width} is too coarse: a residue rounds to zero bins"
            )
        return ubin


@dataclass(frozen=True)
class PMCResult:
    peptide: Peptide | None
    log_prob: float
    feasible: bool


_STAY = np.int8(127)
# Candidates each frame keeps in the incumbent pass of pmc_decode. Of the
# 300 fixture decodes (150 spectra under both fixture checkpoints), 264 run
# the DP; at 256 the pass found a feasible path in all 264 and the optimum
# itself in 211, at 64 a feasible path in 259 and the optimum in 156.
INCUMBENT_CELLS = 256
# Estimated bytes of one frame plus the stored back-pointers past which
# pmc_decode gives the spectrum up as infeasible. A frame is checked before
# its candidates are scored, at 45 bytes for each of a live row's 2A+1, and
# again before its block is built, adding 30 bytes per surviving start and
# per row with a surviving stay, and 10 per cell of the block. tracemalloc
# put a frame's peak at 0.76-0.93 of these estimates on frames of 1k-310k
# rows, flat and fixture frames, with an incumbent and without one; the
# untrained synth-00013 of pool.mgf (1.46 kDa) peaks at 253 MiB.
MEMORY_CAP = 512 << 20
# Daltons per unit of the coarse mass axis of pmc_decode's bound.
BOUND_UNIT = 0.25
# Relative slack under the incumbent below which a cell is pruned: the bound
# and a path's score are the same float terms summed in different orders.
_BOUND_SLACK = 1e-9


def pmc_decode(log_probs: np.ndarray, cfg: PMCConfig, table: AminoAcidTable) -> PMCResult:
    """Best frame path whose collapsed discretized mass lands in the window.

    T frames collapse to at most T residues, so a window above T of the
    heaviest residue is infeasible at once, before any array that grows with
    the target mass is made.

    With no transition scores, the per-frame argmax path is the best of all
    paths. When every other path scores strictly less and its collapse lands
    in the window, it is returned as is (``_unique_best_path``); otherwise:

    Dynamic program over (mass bin, last non-blank token or none), advanced
    one frame at a time. Per frame and cell the transitions are: emit blank
    (state unchanged), repeat the last non-blank token (state unchanged), or
    start a new residue l != last (mass grows by l's bins). The "new
    residue" step needs the best predecessor over all lasts except l,
    computed via the top-2 values per mass row.

    A frame holds only its live mass rows: a sorted int64 array of bins,
    with a [rows, A+1] float64 score block and an int8 back-pointer block
    (STAY, or the predecessor's last-token column). Each frame first scores
    its candidates, a live row's A+1 stays and its A residue starts, then
    cuts them, and builds the rows and blocks from the survivors alone:
    - a row too light to reach the window in the frames left is dropped;
    - a candidate whose bound, its score plus the most the later frames can
      add on the way into the window (``_completion_bounds``), is -inf or
      lies below the incumbent by more than a relative 1e-9 is cut.
    The bound's look-ahead depends on the row alone, so a cell survives
    exactly when its best candidate does: the stored rows and scores, and
    every back-pointer a path or a tie-break reads, are those of building
    every reachable cell and then cutting cells by the same bound. The
    incumbent is the window optimum of a first pass whose floor rises, per
    frame, to the ``INCUMBENT_CELLS``-th best candidate bound. It is a real
    path's score, so no optimal path or tie is cut; if the first pass finds
    none, the second runs with no incumbent. A frame whose candidates or
    block would pass ``MEMORY_CAP`` bytes ends the decode: a warning names
    the target mass, the rows and the estimate, and the result is
    infeasible.
    """
    log_probs = np.asarray(log_probs, dtype=np.float64)
    T, vocab = log_probs.shape
    A = table.n_residues
    if vocab != A + 1:
        raise ValueError(
            f"expected {A + 1} columns (residues + blank), got {vocab}"
        )
    if A > 126:
        raise ValueError("more residue symbols than the int8 back-pointers support")
    ubin = cfg.residue_bins(table)
    infeasible = PMCResult(None, -np.inf, False)
    if cfg.window[1] < 0 or cfg.window[0] > T * int(ubin.max()):
        return infeasible
    if (shortcut := _unique_best_path(log_probs, cfg, table, ubin)) is not None:
        return shortcut
    ahead = _completion_bounds(log_probs, cfg, ubin)
    first = _pmc_pass(log_probs, cfg, table, ubin, ahead, -np.inf, INCUMBENT_CELLS)
    if first is None:
        return infeasible
    floor = -np.inf
    if first.feasible:
        floor = first.log_prob - _BOUND_SLACK * abs(first.log_prob)
    return _pmc_pass(log_probs, cfg, table, ubin, ahead, floor, None) or infeasible


def _new_residue(paths: np.ndarray, blank: int) -> np.ndarray:
    """[..., T] bool: where a frame path starts a new residue under the DP's
    collapse, a non-blank token unlike the last non-blank one before it."""
    T = paths.shape[-1]
    last = np.maximum.accumulate(np.where(paths != blank, np.arange(T), -1), axis=-1)
    token = np.take_along_axis(paths, np.maximum(last, 0), axis=-1)  # blank before the first
    prev = np.concatenate([np.full_like(paths[..., :1], blank), token[..., :-1]], axis=-1)
    return (paths != blank) & (paths != prev)


def _unique_best_path(log_probs, cfg: PMCConfig, table: AminoAcidTable, ubin) -> PMCResult | None:
    """The per-frame argmax path as pmc_decode's result, when every other
    path scores strictly less and its collapse lands in the window; else None.

    Row 0 of ``sums`` adds the frame maxima left to right from 0.0, as the DP
    does; row 1 + t swaps in frame t's runner-up, the most a path off the
    argmax at frame t can score (such sums are monotone in every term).
    """
    T = log_probs.shape[0]
    top = np.partition(log_probs, -2, axis=1)
    terms = np.where(np.eye(T + 1, T, -1, dtype=bool), top[:, -2], top[:, -1])
    sums = np.add.accumulate(np.hstack([np.zeros((T + 1, 1)), terms]), axis=1)[:, -1]
    path = log_probs.argmax(axis=1)
    ids = path[_new_residue(path[None], table.blank_id)[0]]
    lo, hi = cfg.window
    if np.all(sums[1:] < sums[0]) and lo <= ubin[ids].sum() <= hi:
        return PMCResult(table.peptide_from_ids(ids.tolist()), float(sums[0]), True)
    return None


def _completion_bounds(log_probs: np.ndarray, cfg: PMCConfig, ubin: np.ndarray):
    """``ahead(t, rows)``: for paths at each mass bin of ``rows`` after frame
    t, at least the most that the later frames can add while the path lands
    in the window [lo, hi]; -inf where it cannot land.

    It comes from a DP backwards over the frames on a coarse mass axis of c
    bins per unit, each residue taking floor(bins / c) units. In it each
    frame either keeps the mass and gains its best token, or starts any
    residue. A real path does no better: it starts a residue only where the
    last token differs, and its remainders of at most c - 1 bins per residue
    are covered by taking the maximum over a range of units.
    """
    T = log_probs.shape[0]
    lo, hi = cfg.window
    c = max(1, int(BOUND_UNIT / cfg.bin_width))
    units = ubin // c
    best = log_probs.max(axis=1)
    gain = np.full(hi // c + 1, -np.inf)  # over the frames after t, by units added
    gain[0] = 0.0
    by_frame = [gain] * T
    for t in range(T - 1, -1, -1):
        # A path at m needs between (lo - m - (c-1) * frames left) / c and
        # (hi - m) / c units, a range at most this wide.
        width = min((hi - lo + (T - 1 - t) * (c - 1)) // c + 1, gain.size - 1)
        by_frame[t] = reach = gain.copy()
        for s in range(1, width + 1):
            np.maximum(reach[s:], gain[:-s], out=reach[s:])
        step = gain + best[t]
        for l, u in enumerate(units):
            if u < gain.size:
                np.maximum(step[u:], gain[: gain.size - u] + log_probs[t, l], out=step[u:])
        gain = step
    return lambda t, rows: by_frame[t][(hi - rows) // c]


def _pmc_pass(log_probs, cfg, table, ubin, ahead, floor: float, keep: int | None) -> PMCResult | None:
    """One DP pass of pmc_decode: candidates whose bound is below ``floor``
    are cut, and with ``keep`` so is all but the best ``keep`` candidates
    per frame. None when a frame would pass ``MEMORY_CAP``."""
    T = log_probs.shape[0]
    A = table.n_residues
    lo, hi = cfg.window
    null = A  # the "no last token yet" column
    blank = table.blank_id
    umax = int(ubin.max())

    rows = np.zeros(1, dtype=np.int64)
    logp = np.full((1, A + 1), -np.inf)
    logp[0, null] = 0.0
    frames: list[tuple[np.ndarray, np.ndarray]] = []  # (rows, back-pointers) per frame
    stored = 0

    def materialize(m: int, l: int, upto: int) -> tuple[int, ...]:
        """Residue ids of the cell's peptide after frames[0..upto] (reversed walk)."""
        out: list[int] = []
        for t in range(upto, -1, -1):
            frame_rows, frm = frames[t]
            f = int(frm[np.searchsorted(frame_rows, m), l])
            if f == _STAY:
                continue
            out.append(l)
            m -= int(ubin[l])
            l = f
        out.reverse()
        return tuple(out)

    def symbols(seq: tuple[int, ...]) -> tuple[str, ...]:
        return tuple(table.symbols[i] for i in seq)

    def over_cap(t: int, n_rows: int, estimate: int) -> bool:
        if estimate <= MEMORY_CAP:
            return False
        log.warning(
            "nat-pmc gave up on the %.4f Da target at frame %d of %d: %d mass rows "
            "need about %d bytes, over the %d-byte cap", cfg.target_mass, t, T, n_rows,
            estimate, MEMORY_CAP,
        )
        return True

    def advance(t: int, rows: np.ndarray, logp: np.ndarray):
        """Frame t after the live ``rows`` and their scores ``logp``: the new
        rows, scores and back-pointers, or None past ``MEMORY_CAP``. The
        frame's temporaries go when it returns."""
        need = lo - (T - 1 - t) * umax  # a lighter row can no longer reach the window
        frame = rows.size * (2 * A + 1) * 45  # A+1 stays and A starts a row
        if over_cap(t, rows.size, stored + frame):
            return None

        e = log_probs[t]
        stay_gain = np.empty(A + 1)
        stay_gain[:A] = np.maximum(e[blank], e[:A])
        stay_gain[null] = e[blank]
        s0 = np.searchsorted(rows, need)
        stay = logp[s0:] + stay_gain
        stay_bound = stay + ahead(t, rows[s0:])[:, None]

        g = np.arange(rows.size)
        top1i = np.argmax(logp, axis=1)
        top1v = logp[g, top1i]
        tmp = logp.copy()
        tmp[g, top1i] = -np.inf
        top2i = np.argmax(tmp, axis=1)
        top2v = tmp[g, top2i]
        del tmp
        # How many columns achieve each candidate value (for tie detection).
        cnt1 = (logp == top1v[:, None]).sum(axis=1)
        cnt2 = (logp == top2v[:, None]).sum(axis=1)

        # Every (predecessor row, residue l) start, scored from the row's
        # best column other than l.
        shifted = rows[:, None] + ubin  # [rows, A] bins after each residue
        l, src = np.nonzero(((shifted >= need) & (shifted <= hi)).T)  # by l, then row
        start_bound = np.where(top1i[src] == l, top2v[src], top1v[src]) + e[l]
        start_bound += ahead(t, shifted[src, l])

        # Cut the candidates whose bound is -inf or below the floor, which
        # the incumbent pass raises to its keep-th best bound; ``ahead``
        # depends on the row alone, so a cell survives exactly when its best
        # candidate does. Only the survivors are built.
        cut_at = floor
        if keep is not None:
            bounds = np.concatenate([stay_bound.ravel(), start_bound])
            bounds = bounds[bounds > -np.inf]
            if bounds.size > keep:
                cut_at = max(floor, np.partition(bounds, -keep)[-keep])
        stay[~((stay_bound > -np.inf) & (stay_bound >= cut_at))] = -np.inf
        kept = (start_bound > -np.inf) & (start_bound >= cut_at)
        del stay_bound, start_bound, shifted  # the cap counts these no further
        l, src = l[kept], src[kept]
        live = np.isfinite(stay).any(axis=1)
        stay_rows, moved = rows[s0:][live], rows[src] + ubin[l]
        new = np.sort(np.concatenate([stay_rows, moved]))
        new = new[np.diff(new, prepend=-1) != 0]  # np.unique, without its hash pass
        frame += (l.size + stay_rows.size) * 30 + new.size * (A + 1) * 10  # survivors, block
        if over_cap(t, new.size, stored + frame):
            return None

        result = np.full((new.size, A + 1), -np.inf)
        frm = np.full((new.size, A + 1), _STAY, dtype=np.int8)
        result[np.searchsorted(new, stay_rows)] = stay[live]

        # For one l the starts reach distinct rows, and each l owns its
        # column, so no two starts write the same cell.
        tgt = np.searchsorted(new, moved)
        use_top2 = top1i[src] == l  # scored again for the survivors alone
        pv = np.where(use_top2, top2v[src], top1v[src])
        pi = np.where(use_top2, top2i[src], top1i[src])
        cand = pv + e[l]
        cur = result[tgt, l]

        # Predecessor ties: more than one column != l attains pv.
        attained = np.where(use_top2, cnt2[src], cnt1[src])
        l_attains = logp[src, l] == pv
        pred_ties = (attained - l_attains.astype(np.int64) >= 2) & np.isfinite(pv)

        better = cand > cur
        equal = (cand == cur) & np.isfinite(cand)
        result[tgt, l] = np.where(better, cand, cur)
        frm[tgt[better], l[better]] = pi[better].astype(np.int8)

        # Ties: a gain with several best predecessors, or starting the
        # residue as good as staying. The lexicographically smallest
        # peptide wins; on equal peptides staying wins (listed first).
        for k in np.flatnonzero((better & pred_ties) | equal):
            i, r = int(src[k]), int(l[k])
            m_pred = int(rows[i])
            options = [(symbols(materialize(m_pred + int(ubin[r]), r, t - 1)), _STAY)] if equal[k] else []
            options += [
                (symbols(materialize(m_pred, p, t - 1) + (r,)), p)
                for p in range(A + 1)
                if p != r and logp[i, p] == pv[k]
            ]
            frm[tgt[k], r] = min(options, key=lambda o: o[0])[1]

        return new, result, frm

    for t in range(T):
        if (step := advance(t, rows, logp)) is None:
            return None
        rows, logp, frm = step
        frames.append((rows, frm))
        stored += rows.nbytes + frm.nbytes

    w0, w1 = np.searchsorted(rows, [lo, hi + 1])
    window_vals = logp[w0:w1]
    best = window_vals.max() if window_vals.size else -np.inf
    if not np.isfinite(best):
        return PMCResult(None, -np.inf, False)
    cells = np.argwhere(window_vals == best)
    candidates = [
        materialize(int(rows[w0 + i]), int(l), T - 1) for i, l in cells
    ]
    winner = min(candidates, key=symbols)
    return PMCResult(table.peptide_from_ids(list(winner)), float(best), True)


def pmc_bruteforce_oracle(
    log_probs: np.ndarray, cfg: PMCConfig, table: AminoAcidTable
) -> PMCResult:
    """Exhaustive enumeration of all |V|^T frame paths (small shapes only).

    Uses the same collapse semantics as the DP: a run of one residue counts
    once even when blanks interrupt it, because the last non-blank token
    survives blank frames.
    """
    log_probs = np.asarray(log_probs, dtype=np.float64)
    T, vocab = log_probs.shape
    A = table.n_residues
    if vocab != A + 1:
        raise ValueError(f"expected {A + 1} columns, got {vocab}")
    if T > 8 or vocab > 5:
        raise ValueError(
            f"oracle bound exceeded: T={T} (max 8), vocab={vocab} (max 5)"
        )
    ubin = cfg.residue_bins(table)
    blank = table.blank_id
    lo, hi = cfg.window
    if hi < 0:
        return PMCResult(None, -np.inf, False)

    paths = np.stack(np.meshgrid(*[np.arange(vocab)] * T, indexing="ij"), axis=-1).reshape(-1, T)
    path_logp = log_probs[np.arange(T), paths].sum(axis=1)

    new_event = _new_residue(paths, blank)
    bins_per_tok = np.append(ubin, 0)
    masses = (bins_per_tok[paths] * new_event).sum(axis=1)

    in_window = (masses >= lo) & (masses <= hi)
    if not in_window.any():
        return PMCResult(None, -np.inf, False)
    best = path_logp[in_window].max()
    tied = np.flatnonzero(in_window & (path_logp == best))
    winner = min(tuple(table.symbols[y] for y in paths[i][new_event[i]]) for i in tied)
    return PMCResult(Peptide(winner), float(best), True)


def nat_pmc_decode(
    model: Model,
    spectrum: Spectrum,
    tolerance: float = 0.1,
    bin_width: float = 0.001,
) -> tuple[PMCResult, float]:
    """Run the NAT decoder and PMC-decode its frames.

    Returns (result, confidence); when no path satisfies the window the
    result is infeasible and the peptide falls back to the plain collapse
    of the per-frame argmax path. Confidence is the chosen path's
    log-probability averaged over frames.
    """
    view = model.arrays
    log_probs = ad.Kernels.log_softmax(view.nat_forward(view.encode_spectrum(spectrum)).logits)
    cfg = PMCConfig(
        target_mass=spectrum.neutral_mass - WATER,
        tolerance=tolerance,
        bin_width=bin_width,
    )
    result = pmc_decode(log_probs, cfg, model.table)
    T = log_probs.shape[0]
    if result.feasible:
        return result, result.log_prob / T
    argmax_path = log_probs.argmax(axis=1)
    path_logp = float(log_probs[np.arange(T), argmax_path].sum())
    collapsed = ctc_collapse(argmax_path.tolist(), model.table.blank_id)
    fallback = PMCResult(model.table.peptide_from_ids(collapsed), path_logp, False)
    return fallback, path_logp / T
