"""Collapse, greedy, and beam decoding tests.

The beam checks lean on two independent references: greedy decoding (width
1 must reproduce it bit for bit) and exhaustive enumeration of every
hypothesis on a 3-residue toy model, scored exactly the way the decoder
scores them.
"""

import itertools

import numpy as np
import pytest

from pepseq.decoding import (
    DecodeResult,
    _decode_context,
    _next_logps,
    beam_search_at,
    ctc_collapse,
    greedy_at_decode,
    nat_pmc_decode,
)
from pepseq.network import Model, ModelConfig, prefix_suffix_masses
from pepseq.spectra import AminoAcidTable, Peptide, random_peptide, simulate_spectrum
from pepseq.training import FeatureCache

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
        assert int(np.argmax(row)) == tok
        logps.append(row[tok])
        prefix.append(tok)
    if r.finished:
        row = _next_logps(model, s, prefix, enc, nat)
        assert int(np.argmax(row)) == model.table.eos_id
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
    assert (nat is not None) == finetuned
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


def cached_steps(model, cache, tokens, masses):
    """Logits of each position, fed through ``cache`` one at a time."""
    return np.concatenate([model.at_forward(tokens[:, t:t + 1], masses[:, t:t + 1], cache=cache).values
                           for t in range(tokens.shape[1])], axis=1)


@pytest.mark.parametrize("finetuned", [False, True])
def test_cached_steps_equal_one_full_forward(finetuned):
    model = small_model()
    model.finetuned = finetuned  # True: the context gains the NAT latents
    for s in spectra_for(TABLE, 3, seed=17, min_len=4, max_len=8):
        enc, nat = _decode_context(model, s)
        ids = np.array([[TABLE.index_of(r) for r in s.truth]])
        tokens = np.concatenate([[[TABLE.bos_id]], ids], axis=1)
        masses = prefix_suffix_masses(ids, s.neutral_mass, TABLE)
        cache = model.at_cache(enc, nat)
        context_len = len(enc.values) + (model.cfg.t_max if finetuned else 0)
        assert all(len(k.values) == len(v.values) == context_len for k, v in cache.cross)
        stepped = cached_steps(model, cache, tokens, masses)
        full = model.at_forward(tokens, masses, enc, nat).values
        np.testing.assert_allclose(stepped, full, rtol=0, atol=1e-12)
        assert all(k.shape == v.shape == (1, tokens.shape[1], model.cfg.d) for k, v in cache.past)


@pytest.mark.parametrize("finetuned", [False, True])
def test_reordered_cache_equals_one_rebuilt_from_the_parents(finetuned):
    model = small_model()
    model.finetuned = finetuned
    (s,) = spectra_for(TABLE, 1, seed=29)
    enc, nat = _decode_context(model, s)
    rng = np.random.default_rng(4)
    ids = rng.integers(0, TABLE.n_residues, size=(5, 4))
    tokens = np.concatenate([np.full((5, 1), TABLE.bos_id), ids], axis=1)
    masses = prefix_suffix_masses(ids, s.neutral_mass, TABLE)
    parents = np.array([3, 3, 0, 4])
    cache = model.at_cache(enc, nat)
    cached_steps(model, cache, tokens[:, :-1], masses[:, :-1])
    cache.select(parents)
    rebuilt = model.at_cache(enc, nat)
    cached_steps(model, rebuilt, tokens[parents, :-1], masses[parents, :-1])
    step = (tokens[parents, -1:], masses[parents, -1:])
    assert np.array_equal(model.at_forward(*step, cache=cache).values,
                          model.at_forward(*step, cache=rebuilt).values)


def test_cached_step_rejects_a_mismatched_position():
    model = small_model()
    (s,) = spectra_for(TABLE, 1, seed=2)
    enc, _ = _decode_context(model, s)
    cache = model.at_cache(enc)
    bos = np.full((2, 1), TABLE.bos_id)
    model.at_forward(bos, np.zeros((2, 1, 2)), cache=cache)
    for tokens in (np.full((3, 1), 0), np.full((2, 2), 0)):  # other rows; two positions
        with pytest.raises(ValueError):
            model.at_forward(tokens, np.zeros(tokens.shape + (2,)), cache=cache)
    with pytest.raises(ValueError):
        model.at_forward(bos, np.zeros((2, 1, 2)), enc, cache=cache)


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

    monkeypatch.setattr(Model, "encode_spectrum", counting_encode)
    monkeypatch.setattr(Model, "at_forward", counting_at_forward)
    max_len = 6
    for s in spectra_for(TABLE, 3, seed=37):
        encodes.clear()
        steps.clear()
        r = greedy_at_decode(model, s, max_len)
        assert encodes == [s]
        assert steps == [(1, 1)] * (len(r.peptide) + r.finished)
    # A read-out that never ends keeps every hypothesis live to the cap.
    model.store.get("at", "out.b").values[TABLE.eos_id] = -1e9
    for width in (1, 4):
        encodes.clear()
        steps.clear()
        results = beam_search_at(model, s, width, max_len)
        assert encodes == [s]
        assert len(steps) == max_len and all(n <= width and l == 1 for n, l in steps)
        assert not any(r.finished for r in results)
