"""Collapse, greedy, and beam decoding tests.

The beam checks lean on two independent references: greedy decoding (width
1 must reproduce it bit for bit) and exhaustive enumeration of every
hypothesis on a 3-residue toy model, scored exactly the way the decoder
scores them.
"""

import copy
import itertools
import zlib
from pathlib import Path

import numpy as np
import pytest

from pepseq import autodiff as ad
from pepseq import decoding
from pepseq.decoding import (
    DecodeResult,
    _decode_context,
    _next_logps,
    beam_search_at,
    ctc_collapse,
    greedy_at_decode,
    nat_pmc_decode,
)
from pepseq.mgf import parse_mgf
from pepseq.network import ATCache, Model, ModelConfig, NATFeatures, prefix_suffix_masses
from pepseq.optim import OptimizerState
from pepseq.params import load_checkpoint, save_checkpoint
from pepseq.spectra import AminoAcidTable, Peptide, random_peptide, simulate_spectrum
from pepseq.training import (AnnealSchedule, FeatureCache, LRConfig, TrainState, _stage1_losses,
                             finetune_stage2_step)

FIXTURE = Path(__file__).resolve().parents[1] / "bench" / "fixture"
TABLE = AminoAcidTable()

TINY3 = AminoAcidTable(entries=(("A", 71.03711), ("G", 57.02146), ("S", 87.03203)))


def small_model(table=TABLE, seed=5):
    cfg = ModelConfig(
        d=16,
        heads=2,
        hidden=32,
        enc_layers=1,
        at_layers=1,
        nat_layers=1,
        t_max=12,
    )
    return Model.build(cfg, table, seed=seed)


def spectra_for(table, n, seed, min_len=3, max_len=5):
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        pep = random_peptide(rng, min_len, max_len, table)
        out.append(simulate_spectrum(pep, seed=int(rng.integers(1 << 30)), table=table))
    return out


# ---------------------------------------------------------------------------
# collapse


def test_collapse_merges_repeats_then_drops_blanks():
    # A A T ε T G: the repeated A's merge, the blank keeps the T's apart.
    b = TABLE.blank_id
    path = [TABLE.index_of("A"), TABLE.index_of("A"), TABLE.index_of("T"), b,
            TABLE.index_of("T"), TABLE.index_of("G")]
    assert TABLE.peptide_from_ids(ctc_collapse(path, b)) == Peptide.from_string("ATTG")


def test_collapse_all_blanks_is_empty():
    b = TABLE.blank_id
    assert ctc_collapse([b, b, b], b) == []
    assert ctc_collapse([], b) == []


def test_collapse_blank_separates_repeats():
    b = TABLE.blank_id
    a = TABLE.index_of("A")
    assert ctc_collapse([a, b, a], b) == [a, a]


def test_collapse_idempotent_on_clean_sequences():
    rng = np.random.default_rng(0)
    b = TABLE.blank_id
    for _ in range(20):
        seq = rng.integers(0, TABLE.n_residues, size=rng.integers(0, 8)).tolist()
        clean = ctc_collapse(seq, b)
        # Once collapsed there are no blanks; repeats may remain only if
        # they were separated by something in the original, so a clean
        # repeat-free sequence must be a fixed point.
        if all(x != y for x, y in zip(clean, clean[1:])):
            assert ctc_collapse(clean, b) == clean


# ---------------------------------------------------------------------------
# greedy


def best_emission(row, table=TABLE):
    """The argmax of a next-token row over the tokens a decode may emit, EOS
    first and then the residues, as the beam ranks them; the row's BOS and
    PAD columns are unmasked and go unread."""
    emittable = np.array([table.eos_id, *range(table.n_residues)])
    return int(emittable[np.argmax(row[emittable])])


def test_greedy_deterministic():
    model = small_model()
    (s,) = spectra_for(TABLE, 1, seed=11)
    r1 = greedy_at_decode(model, s, max_len=8)
    r2 = greedy_at_decode(model, s, max_len=8)
    assert r1 == r2


def test_greedy_respects_max_len():
    model = small_model()
    for seed in range(6):
        (s,) = spectra_for(TABLE, 1, seed=100 + seed)
        r = greedy_at_decode(model, s, max_len=2)
        if r.finished:
            assert len(r.peptide) <= 2
        else:
            assert len(r.peptide) == 2


def test_greedy_rejects_bad_max_len():
    model = small_model()
    (s,) = spectra_for(TABLE, 1, seed=3)
    with pytest.raises(ValueError):
        greedy_at_decode(model, s, max_len=0)


def test_greedy_confidence_is_mean_of_step_logps():
    model = small_model()
    (s,) = spectra_for(TABLE, 1, seed=21)
    r = greedy_at_decode(model, s, max_len=8)
    # Recompute by hand along the chosen prefix.
    enc, nat = _decode_context(model, s)
    prefix: list[int] = []
    logps = []
    for res in r.peptide:
        row = _next_logps(model, s, prefix, enc, nat)
        tok = model.table.index_of(res)
        assert best_emission(row) == tok
        logps.append(row[tok])
        prefix.append(tok)
    if r.finished:
        row = _next_logps(model, s, prefix, enc, nat)
        assert best_emission(row) == model.table.eos_id
        logps.append(row[model.table.eos_id])
    assert r.total_logp == sum(logps)
    assert r.confidence == sum(logps) / len(logps)


# ---------------------------------------------------------------------------
# beam


@pytest.mark.parametrize("finetuned", [False, True])
def test_next_logps_batch_equals_single_prefixes_bit_for_bit(finetuned):
    model = small_model()
    model.finetuned = finetuned  # True: the context gains the NAT latents
    (s,) = spectra_for(TABLE, 1, seed=31)
    enc, nat = _decode_context(model, s)
    assert (nat.latents is not None) == finetuned
    rng = np.random.default_rng(8)
    for n in range(1, 6):
        for length in range(7):
            prefixes = rng.integers(0, TABLE.n_residues, size=(n, length))
            batch = _next_logps(model, s, prefixes, enc, nat)
            assert batch.shape == (n, TABLE.at_vocab_size)
            for row, prefix in zip(batch, prefixes):
                assert np.array_equal(row, _next_logps(model, s, list(prefix), enc, nat))


def test_beam_width_one_is_greedy_bit_identical():
    model = small_model()
    for s in spectra_for(TABLE, 5, seed=7):
        greedy = greedy_at_decode(model, s, max_len=6)
        beam = beam_search_at(model, s, width=1, max_len=6)
        assert len(beam) == 1
        assert beam[0] == greedy


def exhaustive_reference(model, s, max_len):
    """Score every residue sequence of length <= max_len the decoder's way.

    Sequences shorter than max_len terminate with EOS (its log-probability
    counts); sequences at max_len are truncated, mirroring the decoder's
    freeze-at-cap rule.
    """
    table = model.table
    enc, nat = _decode_context(model, s)
    results = []
    for n in range(max_len + 1):
        for seq in itertools.product(range(table.n_residues), repeat=n):
            total = 0.0
            prefix: list[int] = []
            for tok in seq:
                total = total + float(_next_logps(model, s, prefix, enc, nat)[tok])
                prefix.append(tok)
            if n < max_len:
                total = total + float(
                    _next_logps(model, s, prefix, enc, nat)[table.eos_id]
                )
                emitted = n + 1
                finished = True
            else:
                emitted = n
                finished = False
            results.append(
                DecodeResult(
                    peptide=table.peptide_from_ids(list(seq)),
                    confidence=total / emitted,
                    total_logp=total,
                    finished=finished,
                )
            )
    results.sort(key=lambda r: (-r.confidence, tuple(r.peptide.residues)))
    return results


def test_beam_27_matches_exhaustive_on_toy():
    model = small_model(table=TINY3, seed=9)
    for s in spectra_for(TINY3, 3, seed=13):
        best = beam_search_at(model, s, width=27, max_len=3)[0]
        ref = exhaustive_reference(model, s, max_len=3)[0]
        assert best == ref


def test_beam_total_logp_dominance():
    model = small_model()
    for s in spectra_for(TABLE, 3, seed=19):
        best1 = max(r.total_logp for r in beam_search_at(model, s, 1, max_len=5))
        best5 = max(r.total_logp for r in beam_search_at(model, s, 5, max_len=5))
        assert best5 >= best1


def test_beam_returns_at_most_width_ranked_by_confidence():
    model = small_model()
    (s,) = spectra_for(TABLE, 1, seed=23)
    results = beam_search_at(model, s, width=4, max_len=4)
    assert 1 <= len(results) <= 4
    confs = [r.confidence for r in results]
    assert confs == sorted(confs, reverse=True)


@pytest.mark.parametrize("c_bias, width, want", [
    # Every candidate ties: smaller residue ids first, and a prefix (ending)
    # before its extensions.
    (0.0, 4, [("", "-0x1.9157dfdd1b3f0p+1", "-0x1.9157dfdd1b3f0p+1", True),
              ("A", "-0x1.9157dfdd1b3f0p+1", "-0x1.9157dfdd1b3f0p+2", True),
              ("AA", "-0x1.9157dfdd1b3f0p+1", "-0x1.2d01e7e5d46f4p+3", True),
              ("AAA", "-0x1.9157dfdd1b3f0p+1", "-0x1.2d01e7e5d46f4p+3", False)]),
    # C is likelier than the rest, so at step 2 "AC" ties "C" + EOS and "CA"
    # although its parent "A" ranks below "C": the ids decide, not the order
    # the candidates were made in.
    (1.0, 3, [("CCC", "-0x1.1a90c5eae039ep+1", "-0x1.a7d928e05056dp+2", False),
              ("ACC", "-0x1.453b70958ae49p+1", "-0x1.e7d928e05056dp+2", False),
              ("", "-0x1.9a90c5eae039ep+1", "-0x1.9a90c5eae039ep+1", True)]),
])
def test_beam_tie_order_is_pinned(c_bias, width, want):
    # With a zero read-out weight every candidate's log-probability is its
    # token's bias term, whatever the prefix. The literals are the results of
    # the per-hypothesis beam that the array beam replaced.
    model = small_model()
    model.store.get("at", "out.w").values[:] = 0.0
    model.store.get("at", "out.b").values[:] = 0.0
    model.store.get("at", "out.b").values[TABLE.index_of("C")] = c_bias
    (s,) = spectra_for(TABLE, 1, seed=41)
    got = [(str(r.peptide), r.confidence.hex(), r.total_logp.hex(), r.finished)
           for r in beam_search_at(model, s, width=width, max_len=3)]
    assert got == want


def synthetic_logps(token, prefix_mass, vocab, seed):
    """A next-token row drawn from four values, as a pure function of the
    token fed and its prefix mass, so that totals tie often and any two
    decoders asking after the same prefix read the same row."""
    key = f"{seed} {int(token)} {float(prefix_mass).hex()}".encode()
    return np.random.default_rng(zlib.crc32(key)).choice([-0.5, -1.0, -1.5, -2.0], size=vocab)


def lexsort_beam(table, width, max_len, logps_after):
    """Beam search as its pool was before it kept its rows in residue order:
    every candidate's full id row, ranked by one ``np.lexsort`` over
    (-total, ids), with ``logps_after(prefixes)`` the rows [n, vocab] after
    the equal-length residue prefixes [n, t]."""
    emitted = np.concatenate([[-1], np.arange(table.n_residues)])
    columns = np.concatenate([[table.eos_id], np.arange(table.n_residues)])
    ids = np.full((1, max_len), -1, dtype=np.intp)
    totals, finished = np.zeros(1), np.zeros(1, dtype=bool)
    for length in range(max_len):
        live = ~finished
        if not live.any():
            break
        logps = logps_after(ids[live, :length])
        n, k = len(logps), len(emitted)
        grown = np.repeat(ids[live], k, axis=0)
        grown.reshape(n, k, max_len)[:, :, length] = emitted
        pool_ids = np.concatenate([ids[finished], grown])
        pool_totals = np.concatenate(
            [totals[finished], (totals[live][:, None] + logps[:, columns]).ravel()])
        pool_finished = np.concatenate(
            [finished[finished], np.broadcast_to(emitted < 0, (n, k)).ravel()])
        keep = np.lexsort([*pool_ids[:, length::-1].T, -pool_totals])[:width]
        ids, totals, finished = pool_ids[keep], pool_totals[keep], pool_finished[keep]
    results = []
    for row, total, done in zip(ids, totals.tolist(), finished.tolist()):
        residues = row[row >= 0].tolist()
        n_emitted = len(residues) + done
        results.append(DecodeResult(table.peptide_from_ids(residues),
                                    total / n_emitted if n_emitted else -np.inf, total, done))
    results.sort(key=lambda r: (-r.confidence, tuple(r.peptide.residues)))
    return results


def test_beam_ranks_ties_as_a_lexsort_of_the_whole_pool(monkeypatch):
    # Synthetic step rows from four values: totals tie all the time, and
    # hypotheses end at every length. Width 27 on TINY3 keeps a pool smaller
    # than the width for the first lengths.
    model = small_model(table=TINY3, seed=9)
    (s,) = spectra_for(TINY3, 1, seed=13)
    vocab = TINY3.at_vocab_size
    seed = 0

    def at_forward(self, tokens, masses, cache):
        return np.array([[synthetic_logps(t, m, vocab, seed) for t, m in zip(row, mass[:, 0])]
                         for row, mass in zip(tokens, masses)])

    def logps_after(prefixes):
        last = prefixes[:, -1] if prefixes.shape[1] else np.full(len(prefixes), TINY3.bos_id)
        mass = prefix_suffix_masses(prefixes, s.neutral_mass, TINY3)[:, -1, 0]
        return np.array([synthetic_logps(t, m, vocab, seed) for t, m in zip(last, mass)])

    monkeypatch.setattr(Model, "at_forward", at_forward)
    monkeypatch.setattr(ad.Kernels, "log_softmax", staticmethod(lambda logps: logps))
    exact = lambda results: [(str(r.peptide), r.confidence.hex(), r.total_logp.hex(), r.finished)
                             for r in results]
    ended_at, tied = set(), 0
    cases = [(seed, width, max_len) for seed in range(12) for width in [*range(1, 7), 27]
             for max_len in range(1, 6)]
    for seed, width, max_len in cases:
        got = beam_search_at(model, s, width, max_len)
        assert exact(got) == exact(lexsort_beam(TINY3, width, max_len, logps_after))
        ended_at |= {len(r.peptide) for r in got if r.finished}
        tied += len(got) - len({r.total_logp for r in got})
    assert ended_at == {0, 1, 2, 3, 4} and tied > 100


@pytest.mark.parametrize("checkpoint", ["trained", "untrained"])
def test_no_decoder_reads_the_bos_or_pad_column(monkeypatch, checkpoint):
    # The fine-tuned checkpoint's greedy reads its first rows off the NAT's
    # draft; the other's reads one cached step per length. NaN in the BOS and
    # PAD columns of every AT row must change no bit of either decode.
    model = Model.from_checkpoint_blob(*load_checkpoint(str(FIXTURE / f"{checkpoint}.ckpt")))
    assert model.finetuned == (checkpoint == "trained")
    max_len = model.cfg.max_residues
    exact = lambda results: [(str(r.peptide), r.confidence.hex(), r.total_logp.hex(), r.finished)
                             for r in results]
    decode = lambda s: exact([greedy_at_decode(model, s, max_len), *beam_search_at(model, s, 5, max_len)])
    spectra = [*parse_mgf((FIXTURE / "spectra.mgf").read_text(), model.table)[:3],
               *parse_mgf((FIXTURE / "pool.mgf").read_text(), model.table)[:3]]
    plain = [decode(s) for s in spectra]
    log_softmax, poisoned = ad.Kernels.log_softmax, []

    def poisoning(logits):
        logps = log_softmax(logits)
        if logps.shape[-1] == model.table.at_vocab_size:
            logps[..., [model.table.bos_id, model.table.pad_id]] = np.nan
            poisoned.append(logps.shape)
        return logps

    monkeypatch.setattr(ad.Kernels, "log_softmax", staticmethod(poisoning))
    got = [decode(s) for s in spectra]
    assert len(poisoned) >= 2 * len(spectra)
    assert not any(np.isnan(float.fromhex(total)) for results in got for _, _, total, _ in results)
    assert got == plain


@pytest.mark.parametrize("width", [1, 3])
def test_beam_stops_once_every_kept_hypothesis_has_ended(monkeypatch, width):
    # A read-out that favours EOS by far: the empty peptide ends at the first
    # step, and each residue kept beside it ends at the second.
    model = small_model()
    model.store.get("at", "out.w").values[:] = 0.0
    model.store.get("at", "out.b").values[TABLE.eos_id] = 1e3
    steps, at_forward = [], Model.at_forward

    def counting_at_forward(self, tokens, *args, **kwargs):
        steps.append(np.shape(tokens))
        return at_forward(self, tokens, *args, **kwargs)

    monkeypatch.setattr(Model, "at_forward", counting_at_forward)
    (s,) = spectra_for(TABLE, 1, seed=43)
    results = beam_search_at(model, s, width, max_len=6)
    assert steps == [(1, 1)] + [(width - 1, 1)] * (width > 1)
    assert len(results) == width and all(r.finished for r in results)
    assert str(results[0].peptide) == "" and all(len(r.peptide) == 1 for r in results[1:])
    if width == 1:
        assert results[0] == greedy_at_decode(model, s, max_len=6)


def test_beam_validation():
    model = small_model()
    (s,) = spectra_for(TABLE, 1, seed=3)
    with pytest.raises(ValueError):
        beam_search_at(model, s, width=0, max_len=4)
    with pytest.raises(ValueError):
        beam_search_at(model, s, width=2, max_len=0)


# ---------------------------------------------------------------------------
# one encoder pass per spectrum


@pytest.mark.parametrize("finetuned", [False, True])
def test_each_decode_and_cache_miss_encodes_once(monkeypatch, finetuned):
    calls = []
    encode = Model.encode_spectrum

    def counting(model, spectrum):
        calls.append(spectrum)
        return encode(model, spectrum)

    monkeypatch.setattr(Model, "encode_spectrum", counting)
    model = small_model()
    model.finetuned = finetuned  # the AT decoder then also reads the NAT latents
    s = spectra_for(TABLE, 1, seed=8)[0]
    for decode in (lambda: greedy_at_decode(model, s, 6),
                   lambda: beam_search_at(model, s, 3, 6),
                   lambda: nat_pmc_decode(model, s, bin_width=0.01)):
        calls.clear()
        decode()
        assert calls == [s]
    cache = FeatureCache(model)
    calls.clear()
    cache.get(s)
    cache.get(s)  # a hit
    assert calls == [s]


# ---------------------------------------------------------------------------
# the incremental AT cache


def cached_steps(view, cache, tokens, masses):
    """Logits of each position, fed through ``cache`` one at a time by the
    arrays view ``view``, as the decoders feed it."""
    return np.concatenate([view.at_forward(tokens[:, t:t + 1], masses[:, t:t + 1], cache)
                           for t in range(tokens.shape[1])], axis=1)


@pytest.mark.parametrize("finetuned", [False, True])
def test_cached_steps_equal_one_full_forward(finetuned):
    model = small_model()
    view = model.arrays
    model.finetuned = finetuned  # True: the context gains the NAT latents
    for s in spectra_for(TABLE, 3, seed=17, min_len=4, max_len=8):
        enc, nat = _decode_context(model, s)
        ids = np.array([[TABLE.index_of(r) for r in s.truth]])
        tokens = np.concatenate([[[TABLE.bos_id]], ids], axis=1)
        masses = prefix_suffix_masses(ids, s.neutral_mass, TABLE)
        cache = view.at_cache(enc, nat.latents)
        context_len = len(enc) + (model.cfg.t_max if finetuned else 0)
        assert all(len(k) == len(v) == context_len for k, v in cache.cross)
        stepped = cached_steps(view, cache, tokens, masses)
        full = view.at_forward(tokens, masses, view.at_cache(enc, nat.latents))
        np.testing.assert_allclose(stepped, full, rtol=0, atol=1e-12)
        assert all(k.shape == v.shape == (1, tokens.shape[1], model.cfg.d) for k, v in cache.past)


def test_a_prefix_fed_at_once_then_cached_steps_equal_one_full_forward():
    model = small_model()
    view = model.arrays
    model.finetuned = True
    (s,) = spectra_for(TABLE, 1, seed=23, min_len=5, max_len=8)
    enc, nat = _decode_context(model, s)
    ids = np.array([[TABLE.index_of(r) for r in s.truth]] * 2)
    tokens = np.concatenate([np.full((2, 1), TABLE.bos_id), ids], axis=1)
    masses = prefix_suffix_masses(ids, s.neutral_mass, TABLE)
    cache = view.at_cache(enc, nat.latents)
    fed = view.at_forward(tokens[:, :3], masses[:, :3], cache)  # an empty cache takes L positions
    stepped = np.concatenate([fed, cached_steps(view, cache, tokens[:, 3:], masses[:, 3:])], axis=1)
    full = view.at_forward(tokens, masses, view.at_cache(enc, nat.latents))
    np.testing.assert_allclose(stepped, full, rtol=0, atol=1e-12)


@pytest.mark.parametrize("finetuned", [False, True])
def test_reordered_cache_equals_one_rebuilt_from_the_parents(finetuned):
    model = small_model()
    view = model.arrays
    model.finetuned = finetuned
    (s,) = spectra_for(TABLE, 1, seed=29)
    enc, nat = _decode_context(model, s)
    rng = np.random.default_rng(4)
    ids = rng.integers(0, TABLE.n_residues, size=(5, 4))
    tokens = np.concatenate([np.full((5, 1), TABLE.bos_id), ids], axis=1)
    masses = prefix_suffix_masses(ids, s.neutral_mass, TABLE)
    parents = np.array([3, 3, 0, 4])
    cache = view.at_cache(enc, nat.latents)
    cached_steps(view, cache, tokens[:, :-1], masses[:, :-1])
    cache.select(parents)
    rebuilt = view.at_cache(enc, nat.latents)
    cached_steps(view, rebuilt, tokens[parents, :-1], masses[parents, :-1])
    step = (tokens[parents, -1:], masses[parents, -1:])
    assert np.array_equal(view.at_forward(*step, cache),
                          view.at_forward(*step, rebuilt))


def test_a_cut_cache_steps_as_one_fed_only_the_kept_positions():
    model = small_model()
    view = model.arrays
    model.finetuned = True
    (s,) = spectra_for(TABLE, 1, seed=79, min_len=6, max_len=8)
    enc, nat = _decode_context(model, s)
    ids = np.array([[TABLE.index_of(r) for r in s.truth]])
    tokens = np.concatenate([[[TABLE.bos_id]], ids], axis=1)
    masses = prefix_suffix_masses(ids, s.neutral_mass, TABLE)
    cut, kept = view.at_cache(enc, nat.latents), view.at_cache(enc, nat.latents)
    view.at_forward(tokens, masses, cut)  # every position
    view.at_forward(tokens[:, :3], masses[:, :3], kept)
    whole = cut.past[0][0]
    cut.select([0], 3)
    assert cut.past[0][0].shape == (1, 3, model.cfg.d)
    assert np.shares_memory(cut.past[0][0], whole)  # rows in order: a view, no copy
    step = (tokens[:, 3:4], masses[:, 3:4])
    np.testing.assert_allclose(view.at_forward(*step, cut),
                               view.at_forward(*step, kept), rtol=0, atol=1e-12)


def test_cached_step_rejects_a_mismatched_position():
    model = small_model()
    view = model.arrays
    (s,) = spectra_for(TABLE, 1, seed=2)
    enc, _ = _decode_context(model, s)
    cache = view.at_cache(enc)
    bos = np.full((2, 1), TABLE.bos_id)
    view.at_forward(bos, np.zeros((2, 1, 2)), cache)
    for tokens in (np.full((3, 1), 0), np.full((2, 2), 0)):  # other rows; two positions
        with pytest.raises(ValueError):
            view.at_forward(tokens, np.zeros(tokens.shape + (2,)), cache)


@pytest.mark.parametrize("finetuned", [False, True])
def test_one_at_forward_per_step_and_one_encoder_pass_per_decode(monkeypatch, finetuned):
    model = small_model()
    model.finetuned = finetuned
    encodes, steps = [], []
    encode, at_forward = Model.encode_spectrum, Model.at_forward

    def counting_encode(self, spectrum):
        encodes.append(spectrum)
        return encode(self, spectrum)

    def counting_at_forward(self, tokens, *args, **kwargs):
        steps.append(np.shape(tokens))
        return at_forward(self, tokens, *args, **kwargs)

    def greedy_steps(s, r):
        """The forward shapes of a greedy decode of ``s`` that returned ``r``.
        Without a draft: one cached step per length. With the NAT's draft of
        k residues: one (1, k+1) forward, then one step per length after the
        first where the kept hypothesis leaves the draft or ends."""
        lengths = len(r.peptide) + r.finished
        if not finetuned:
            return [(1, 1)] * lengths
        logits = model.nat_forward(encode(model, s)).logits.values
        draft = ctc_collapse(logits.argmax(axis=-1).tolist(), TABLE.blank_id)[:max_len - 1]
        got = [TABLE.index_of(a) for a in r.peptide]
        common = next((i for i, (a, b) in enumerate(zip(got, draft)) if a != b),
                      min(len(got), len(draft)))
        return [(1, len(draft) + 1)] + [(1, 1)] * (lengths - 1 - common)

    monkeypatch.setattr(Model, "encode_spectrum", counting_encode)
    monkeypatch.setattr(Model, "at_forward", counting_at_forward)
    max_len = 6
    for s in spectra_for(TABLE, 3, seed=37):
        encodes.clear()
        steps.clear()
        r = greedy_at_decode(model, s, max_len)
        assert encodes == [s]
        assert steps == greedy_steps(s, r)
    # A read-out that never ends keeps every hypothesis live to the cap.
    model.store.get("at", "out.b").values[TABLE.eos_id] = -1e9
    for width in (1, 4):
        encodes.clear()
        steps.clear()
        results = beam_search_at(model, s, width, max_len)
        assert encodes == [s]
        if width == 1:
            assert steps == greedy_steps(s, results[0])
        else:
            assert len(steps) == max_len and all(n <= width and l == 1 for n, l in steps)
        assert not any(r.finished for r in results)


# ---------------------------------------------------------------------------
# greedy checks the NAT's draft in one AT forward


def steer_draft(monkeypatch, residues, t_max):
    """Make the NAT logits' per-frame argmax spell ``residues`` (a blank
    between equal neighbours, blanks after), so that the draft is exactly
    them. The NAT latents, and so the AT decoder's context, stay the model's.
    The logits are an array, as the decoders' forwards (``model.arrays``)
    return them."""
    blank, frames = TABLE.blank_id, []
    for r in residues:
        frames += [blank] * bool(frames and frames[-1] == r) + [r]
    frames += [blank] * (t_max - len(frames))
    logits = np.eye(TABLE.nat_vocab_size)[frames]
    nat_forward = Model.nat_forward
    monkeypatch.setattr(Model, "nat_forward", lambda self, enc: NATFeatures(
        nat_forward(self, enc).latents, logits))


def count_at_forwards(monkeypatch):
    steps, at_forward = [], Model.at_forward

    def counting(self, tokens, *args, **kwargs):
        steps.append(np.shape(tokens))
        return at_forward(self, tokens, *args, **kwargs)

    monkeypatch.setattr(Model, "at_forward", counting)
    return steps


def stepped_walk(model, s, max_len):
    """Greedy by hand, one ``_next_logps`` per length: (ids, finished, total)."""
    enc, nat = _decode_context(model, s)
    prefix, total = [], 0.0
    while len(prefix) < max_len:
        row = _next_logps(model, s, prefix, enc, nat)
        tok = best_emission(row)
        total = total + row[tok]
        if tok == TABLE.eos_id:
            return prefix, True, total
        prefix.append(tok)
    return prefix, False, total


def assert_walks(r, walk, rtol):
    ids, finished, total = walk
    assert r.peptide == TABLE.peptide_from_ids(ids) and r.finished == finished
    np.testing.assert_allclose(r.total_logp, total, rtol=rtol, atol=0)


def fine_tuned_small_model():
    model = small_model()
    model.finetuned = True
    return model


def test_an_empty_draft_decodes_one_cached_step_per_length(monkeypatch):
    model = fine_tuned_small_model()
    steer_draft(monkeypatch, [], model.cfg.t_max)  # an all-blank argmax
    steps = count_at_forwards(monkeypatch)
    for s in spectra_for(TABLE, 3, seed=61):
        steps.clear()
        r = greedy_at_decode(model, s, max_len=6)
        assert steps == [(1, 1)] * (len(r.peptide) + r.finished)
        assert_walks(r, stepped_walk(model, s, 6), rtol=0)


def test_a_right_draft_takes_one_at_forward(monkeypatch):
    model = fine_tuned_small_model()
    max_len = 6
    for s in spectra_for(TABLE, 3, seed=67):
        walk = stepped_walk(model, s, max_len)
        steer_draft(monkeypatch, walk[0], model.cfg.t_max)
        steps = count_at_forwards(monkeypatch)
        r = greedy_at_decode(model, s, max_len)
        assert steps == [(1, min(len(walk[0]), max_len - 1) + 1)]
        assert_walks(r, walk, rtol=1e-12)
        monkeypatch.undo()


@pytest.mark.parametrize("j", [0, 2, 4])
def test_a_draft_wrong_at_one_position_gives_the_stepped_walk(monkeypatch, j):
    model = fine_tuned_small_model()
    max_len = 6
    for s in spectra_for(TABLE, 3, seed=71):
        walk = stepped_walk(model, s, max_len)
        assert len(walk[0]) == max_len  # this model's read-out does not end by then
        draft = list(walk[0])
        draft[j] = (draft[j] + 1) % TABLE.n_residues
        steer_draft(monkeypatch, draft, model.cfg.t_max)
        steps = count_at_forwards(monkeypatch)
        r = greedy_at_decode(model, s, max_len)
        assert steps == [(1, max_len)] + [(1, 1)] * (max_len - 1 - j)
        assert_walks(r, walk, rtol=1e-12)
        assert beam_search_at(model, s, 1, max_len) == [r]
        monkeypatch.undo()


def test_a_draft_longer_than_max_len_is_cut(monkeypatch):
    model = fine_tuned_small_model()
    (s,) = spectra_for(TABLE, 1, seed=73)
    walk = stepped_walk(model, s, 9)
    steer_draft(monkeypatch, walk[0], model.cfg.t_max)  # 9 residues
    steps = count_at_forwards(monkeypatch)
    for max_len in (1, 3, 9):
        steps.clear()
        r = greedy_at_decode(model, s, max_len)
        assert steps == [(1, max_len)]
        assert_walks(r, stepped_walk(model, s, max_len), rtol=1e-12)


def test_greedy_on_the_fine_tuned_fixture_checks_the_nat_draft(monkeypatch):
    # The NAT reads the training spectra right, so each of those decodes is
    # one forward that ends the peptide; outside them the draft breaks early.
    model = Model.from_checkpoint_blob(*load_checkpoint(str(FIXTURE / "trained.ckpt")))
    max_len = model.cfg.max_residues
    steps = count_at_forwards(monkeypatch)
    for mgf in ("spectra.mgf", "pool.mgf"):
        for s in parse_mgf((FIXTURE / mgf).read_text(), model.table)[:4]:
            steps.clear()
            r = greedy_at_decode(model, s, max_len)
            if mgf == "spectra.mgf":
                assert r.finished and steps == [(1, len(r.peptide) + 1)]
            assert steps[0][0] == 1 and all(shape == (1, 1) for shape in steps[1:])
            assert r == beam_search_at(model, s, 1, max_len)[0]
            assert_walks(r, stepped_walk(model, s, max_len), rtol=1e-12)


@pytest.mark.parametrize("finetuned", [False, True])
def test_masses_come_from_the_residues_once_per_decode_for_its_first_forward(monkeypatch, finetuned):
    # The cached steps carry each hypothesis's prefix mass; only the first
    # forward (BOS, and on a fine-tuned model greedy's draft) reads the masses
    # off residue ids.
    model = small_model()
    model.finetuned = finetuned
    model.store.get("at", "out.b").values[TABLE.eos_id] = -1e9  # every decode runs to max_len
    draft = [TABLE.index_of(a) for a in "PEPT"]
    steer_draft(monkeypatch, draft, model.cfg.t_max)
    calls, masses = [], decoding.prefix_suffix_masses
    monkeypatch.setattr(decoding, "prefix_suffix_masses",
                        lambda ids, *args: calls.append(np.shape(ids)) or masses(ids, *args))
    steps = count_at_forwards(monkeypatch)
    (s,) = spectra_for(TABLE, 1, seed=71)
    for width, first in ((1, (1, len(draft) * finetuned)), (4, (1, 0))):
        calls.clear()
        steps.clear()
        beam_search_at(model, s, width, max_len=6)
        assert calls == [first] and len(steps) > 1
    enc, nat = _decode_context(model, s)
    calls.clear()
    _next_logps(model, s, np.zeros((3, 5), dtype=np.intp), enc, nat)
    assert calls == []


# ---------------------------------------------------------------------------
# decodes run on plain arrays


def count_tensors(monkeypatch):
    """A list that grows by one at each Tensor construction, counted as the
    benchmark's tracer counts them."""
    made, init = [], ad.Tensor.__init__

    def counting(self, *args, **kwargs):
        made.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(ad.Tensor, "__init__", counting)
    return made


def trained_model():
    return Model.from_checkpoint_blob(*load_checkpoint(str(FIXTURE / "trained.ckpt")))


def decode_all(model, s, max_len):
    return (greedy_at_decode(model, s, max_len), beam_search_at(model, s, 5, max_len),
            nat_pmc_decode(model, s))


def test_decodes_construct_no_tensor_and_a_training_step_still_records_its_graph(monkeypatch):
    model = trained_model()
    for partition in ("enc", "nat"):  # so that every forward could record a graph
        model.store.unfreeze(partition)
    spectra = parse_mgf((FIXTURE / "spectra.mgf").read_text(), model.table)[:2]
    s, max_len = spectra[0], model.cfg.max_residues
    made = count_tensors(monkeypatch)
    enc, nat = _decode_context(model, s)
    greedy_at_decode(model, s, max_len)
    beam_search_at(model, s, 5, max_len)
    _next_logps(model, s, [0, 1, 2], enc, nat)
    nat_pmc_decode(model, s)
    assert made == []
    at_loss, nat_loss = _stage1_losses(model, spectra)
    assert made and all(loss.requires_grad and loss.node.parents for loss in (at_loss, nat_loss))


def test_the_decode_context_holds_nat_features_of_arrays_only_on_a_fine_tuned_model():
    model = trained_model()
    s = parse_mgf((FIXTURE / "spectra.mgf").read_text(), model.table)[0]
    enc, nat = _decode_context(model, s)
    assert type(enc) is np.ndarray and type(nat) is NATFeatures
    assert all(type(a) is np.ndarray for a in nat)
    assert nat.latents.shape == (model.cfg.t_max, model.cfg.d)
    assert nat.logits.shape == (model.cfg.t_max, model.table.nat_vocab_size)
    model.finetuned = False
    plain_enc, plain_nat = _decode_context(model, s)
    assert np.array_equal(plain_enc, enc) and plain_nat == NATFeatures(None, None)


@pytest.mark.parametrize("checkpoint", ["trained", "untrained"])
def test_greedy_and_beam_caches_hold_arrays(monkeypatch, checkpoint):
    # pool.mgf: on the fine-tuned checkpoint greedy's draft breaks early, so both
    # decoders take cached steps, each joining its positions to the cached ones.
    caches, init = [], ATCache.__init__

    def recording(self, *args):
        caches.append(self)
        init(self, *args)

    monkeypatch.setattr(ATCache, "__init__", recording)
    model = Model.from_checkpoint_blob(*load_checkpoint(str(FIXTURE / f"{checkpoint}.ckpt")))
    max_len = model.cfg.max_residues
    for s in parse_mgf((FIXTURE / "pool.mgf").read_text(), model.table)[:2]:
        for decode in (greedy_at_decode, lambda m, s, n: beam_search_at(m, s, 5, n)):
            caches.clear()
            decode(model, s, max_len)
            assert len(caches) == 1 + model.finetuned  # the AT's, and the NAT's when it runs
            assert all(cache.past and all(type(a) is np.ndarray for kv in cache.past for a in kv)
                       for cache in caches)


def test_a_greedy_decode_after_a_stage2_step_equals_one_from_the_saved_checkpoint(tmp_path):
    model = Model.from_checkpoint_blob(*load_checkpoint(str(FIXTURE / "untrained.ckpt")))
    spectra = parse_mgf((FIXTURE / "spectra.mgf").read_text(), model.table)[:3]
    max_len = model.cfg.max_residues
    before = [greedy_at_decode(model, s, max_len) for s in spectra]
    for partition in ("enc", "nat"):
        model.store.freeze(partition)
    state = TrainState(model=model, opt=OptimizerState(lr=1e-3), anneal=AnnealSchedule(10),
                       lr=LRConfig(warmup_steps=1, total_steps=10))
    finetune_stage2_step(model, spectra, state, FeatureCache(model))  # AdamW, in place
    assert model.finetuned and model.arrays.finetuned
    path = tmp_path / "stage2.ckpt"
    save_checkpoint(str(path), model.store, model.metadata())
    reloaded = Model.from_checkpoint_blob(*load_checkpoint(str(path)))
    after = [greedy_at_decode(model, s, max_len) for s in spectra]
    assert after == [greedy_at_decode(reloaded, s, max_len) for s in spectra]
    assert after != before


def test_a_deep_copy_decodes_identically_and_owns_its_arrays():
    model = trained_model()
    twin = copy.deepcopy(model)
    assert twin.arrays.finetuned and twin.arrays.params["at"]["out"][1] is twin.store.get("at", "out.b").values
    spectra = parse_mgf((FIXTURE / "pool.mgf").read_text(), model.table)[:3]
    max_len = model.cfg.max_residues
    ours = [decode_all(model, s, max_len) for s in spectra]
    assert [decode_all(twin, s, max_len) for s in spectra] == ours
    twin.store.get("at", "out.b").values[:] = 0.0  # the original's view does not see the copy's edit
    assert [decode_all(model, s, max_len) for s in spectra] == ours
