"""Acceptance suite: one test per top-level product guarantee.

Each test is self-contained, rebuilds its own fixtures, and prints a
single [OK] line with the measured numbers so a verbose run doubles as a
checklist. Oracles here are deliberately independent of the library
implementations they judge: exhaustive path enumeration for the CTC and
mass-window dynamic programs, central finite differences for gradients,
and literal re-simulation for the end-to-end run.
"""

import itertools
import time

import numpy as np
import pytest

from pepseq import autodiff as ad
from pepseq.decoding import (
    DecodeResult,
    PMCConfig,
    beam_search_at,
    greedy_at_decode,
    pmc_bruteforce_oracle,
    pmc_decode,
)
from pepseq.metrics import MatchResult, aa_match, corpus_eval, precision_coverage
from pepseq.mgf import parse_mgf, write_mgf
from pepseq.network import Model, ModelConfig, prefix_suffix_masses
from pepseq.optim import OptimizerState
from pepseq.params import load_checkpoint, save_checkpoint
from pepseq.spectra import (
    AminoAcidTable,
    NoiseConfig,
    Peptide,
    random_peptide,
    simulate_spectrum,
)
from pepseq.training import (
    AnnealSchedule,
    FeatureCache,
    LRConfig,
    TrainState,
    _at_sample_loss,
    ctc_forward,
    finetune_stage2_step,
    lambda_at,
    train_stage1_step,
)

TABLE = AminoAcidTable()


def tiny_model(seed=0, table=None, **kw):
    defaults = dict(d=16, heads=2, hidden=32, enc_layers=1, at_layers=1,
                    nat_layers=1, t_max=10)
    defaults.update(kw)
    return Model.build(ModelConfig(**defaults), table or TABLE, seed=seed)


def tiny_corpus(n, seed=0, min_len=3, max_len=5):
    rng = np.random.default_rng(seed)
    return [
        simulate_spectrum(random_peptide(rng, min_len, max_len, TABLE),
                          seed=seed * 1000 + i, spectrum_id=f"a{i:03d}")
        for i in range(n)
    ]


def np_log_softmax(x):
    m = x - x.max(axis=-1, keepdims=True)
    return m - np.log(np.exp(m).sum(axis=-1, keepdims=True))


# ---------------------------------------------------------------------------
# 1. CTC forward vs exhaustive path enumeration


def enumerated_ctc_log_prob(lp: np.ndarray, target: list[int], blank: int) -> float:
    """Sum the probability of every frame path that collapses to ``target``.

    Vectorized over all |V|^T paths: merge adjacent repeats, drop blanks,
    compare against the target, log-sum the survivors.
    """
    T, V = lp.shape
    U = len(target)
    grids = np.meshgrid(*([np.arange(V)] * T), indexing="ij")
    paths = np.stack([g.ravel() for g in grids], axis=1)  # [V^T, T]
    prev = np.concatenate([np.full((paths.shape[0], 1), -1), paths[:, :-1]], axis=1)
    keep = (paths != blank) & (paths != prev)
    match = keep.sum(axis=1) == U
    sel = np.nonzero(match)[0]
    if sel.size:
        sub, ksub = paths[sel], keep[sel]
        ranks = np.cumsum(ksub, axis=1) - 1
        collapsed = np.zeros((sel.size, U), dtype=int)
        r, c = np.nonzero(ksub)
        collapsed[r, ranks[r, c]] = sub[r, c]
        match[sel] = (collapsed == np.asarray(target)).all(axis=1)
    scores = lp[np.arange(T)[None, :], paths].sum(axis=1)
    hits = scores[match]
    return float(np.logaddexp.reduce(hits)) if hits.size else float("-inf")


def test_ctc_forward_matches_exhaustive_enumeration():
    rng = np.random.default_rng(20260816)
    start = time.time()
    checked = infeasible = 0
    for T, n_res, U in itertools.product(range(1, 7), (1, 2, 3), (1, 2, 3)):
        vocab = n_res + 1  # residue alphabet plus blank
        for _ in range(50):
            lp = np_log_softmax(rng.normal(size=(T, vocab)) * 2.0)
            target = rng.integers(0, n_res, size=U).tolist()
            got = float(ctc_forward(ad.constant(lp), target, blank_id=n_res).values)
            want = enumerated_ctc_log_prob(lp, target, n_res)
            if want == -np.inf:
                assert got == -np.inf, (T, n_res, target)
                infeasible += 1
            else:
                assert abs(got - want) < 1e-9, (T, n_res, target, got, want)
            checked += 1
    elapsed = time.time() - start
    assert elapsed < 60.0
    assert infeasible > 0  # the grid must include unreachable targets
    print(f"[OK] CTC forward == enumeration on {checked} instances "
          f"({infeasible} unreachable), up to 6 frames / 3 residues / "
          f"3 targets, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. CTC gradient vs finite differences


def test_ctc_gradient_matches_finite_differences():
    rng = np.random.default_rng(7)
    worst = 0.0
    for target in ([0, 1], [1, 1]):  # distinct pair and forced-blank repeat
        x = ad.parameter(rng.normal(size=(5, 3)))

        def f(x=x, target=target):
            return ctc_forward(ad.log_softmax(x), target, blank_id=2)

        worst = max(worst, ad.finite_diff_check(f, [x]))
    assert worst < 1e-4
    print(f"[OK] CTC gradient matches finite differences on 5x3 frames, "
          f"worst rel. err {worst:.2e}")


# ---------------------------------------------------------------------------
# 3. Mass-window decoding vs brute-force oracle


def random_residue_table(rng, n_res):
    symbols = "ABCD"[:n_res]
    masses = rng.uniform(57.0, 186.0, size=n_res)
    return AminoAcidTable(entries=tuple(zip(symbols, masses)))


def test_mass_window_decode_matches_bruteforce_oracle():
    rng = np.random.default_rng(31415)
    start = time.time()
    feasible = infeasible = 0
    for _ in range(500):
        n_res = int(rng.integers(1, 5))
        table = random_residue_table(rng, n_res)
        T = int(rng.integers(1, 7))
        lp = np_log_softmax(rng.normal(size=(T, n_res + 1)) * 2.0)
        cfg = PMCConfig(
            target_mass=float(rng.uniform(0.0, T * 190.0)),
            tolerance=float(rng.uniform(0.0, 40.0)),
            bin_width=float(rng.choice([0.5, 1.0, 2.5])),
        )
        got = pmc_decode(lp, cfg, table)
        want = pmc_bruteforce_oracle(lp, cfg, table)
        assert got.feasible == want.feasible, (cfg, got, want)
        if got.feasible:
            feasible += 1
            assert str(got.peptide) == str(want.peptide), (cfg, got, want)
            assert abs(got.log_prob - want.log_prob) < 1e-9
        else:
            infeasible += 1
    elapsed = time.time() - start
    assert elapsed < 60.0
    assert feasible > 0 and infeasible > 0
    print(f"[OK] mass-window decode == oracle on 500 instances "
          f"({feasible} feasible / {infeasible} infeasible), {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 4. Mass soundness of every feasible decode


def test_feasible_decodes_always_land_in_the_mass_window():
    rng = np.random.default_rng(271828)
    feasible = 0
    for _ in range(1000):
        n_res = int(rng.integers(1, 5))
        table = random_residue_table(rng, n_res)
        T = int(rng.integers(1, 7))
        lp = np_log_softmax(rng.normal(size=(T, n_res + 1)) * 2.0)
        tol = float(rng.uniform(0.5, 5.0))
        if rng.random() < 0.5:
            # Aim at an actually reachable mass so the feasible branch is
            # exercised often, with jitter inside the tolerance.
            k = int(rng.integers(1, T + 1))
            picks = rng.integers(0, n_res, size=k)
            target = float(table.masses[picks].sum() + rng.uniform(-tol, tol))
        else:
            target = float(rng.uniform(0.0, T * 190.0))
        cfg = PMCConfig(target_mass=max(target, 0.0), tolerance=tol,
                        bin_width=float(rng.choice([0.25, 0.5, 1.0])))
        result = pmc_decode(lp, cfg, table)
        if not result.feasible:
            continue
        feasible += 1
        lo, hi = cfg.window
        binned = sum(cfg.discretize(table.mass_of(sym)) for sym in str(result.peptide))
        assert lo <= binned <= hi, (cfg, result)
        # The float mass can drift off the binned mass by half a bin per
        # residue, never further.
        slack = cfg.tolerance + 0.5 * cfg.bin_width * (len(result.peptide) + 2)
        assert abs(table.residue_mass(result.peptide) - cfg.target_mass) <= slack
    assert feasible >= 200
    print(f"[OK] all {feasible} feasible decodes (of 1000 draws) lie inside "
          f"their mass window at bin resolution")


# ---------------------------------------------------------------------------
# 5. Fine-tuning freezes the encoder and parallel decoder bit-exactly


def test_finetuning_leaves_frozen_partitions_bit_identical():
    model = tiny_model(seed=3)
    corpus = tiny_corpus(4, seed=3)
    state = TrainState(
        model=model,
        opt=OptimizerState(lr=1e-3),
        anneal=AnnealSchedule(total_steps=100),
        lr=LRConfig(base_lr=1e-3, warmup_steps=10, total_steps=100),
    )
    for _ in range(3):
        train_stage1_step(model, corpus, state)
    model.store.freeze("enc")
    model.store.freeze("nat")
    state.opt = OptimizerState(lr=1e-4)
    enc_before = model.store.snapshot("enc")
    nat_before = model.store.snapshot("nat")
    at_before = model.store.snapshot("at")
    cache = FeatureCache(model)
    for _ in range(50):
        finetune_stage2_step(model, corpus, state, cache)
    for name, values in model.store.snapshot("enc").items():
        assert np.array_equal(values, enc_before[name]), name
    for name, values in model.store.snapshot("nat").items():
        assert np.array_equal(values, nat_before[name]), name
    at_changed = sum(
        not np.array_equal(v, at_before[k]) for k, v in model.store.snapshot("at").items()
    )
    assert at_changed == len(at_before)

    # Ablation: with nothing frozen and the gradient block disabled, the
    # loss must reach the parallel decoder's parameters.
    loose = tiny_model(seed=4)
    s = tiny_corpus(1, seed=4)[0]
    enc = loose.encode_spectrum(s)
    nat = loose.nat_forward(enc)
    loss = _at_sample_loss(loose, s, loose.table.ids_of(s.truth), enc,
                           nat.latents, block_nat_grad=False)
    ad.backward(loss)
    touched = [
        name for name, t in loose.store.partition_items("nat")
        if t.grad is not None and np.any(t.grad != 0.0)
    ]
    assert touched, "unblocked gradient never reached the parallel decoder"
    print(f"[OK] 50 fine-tune steps: encoder+parallel decoder bit-identical, "
          f"all {at_changed} sequential-decoder tensors moved; unblocked "
          f"ablation reaches {len(touched)} parallel-decoder tensors")


# ---------------------------------------------------------------------------
# 6. Sequential decoder causality


def test_sequential_decoder_logits_ignore_future_tokens():
    model = tiny_model(seed=11)
    rng = np.random.default_rng(11)
    vocab = TABLE.at_vocab_size
    for trial in range(20):
        s = tiny_corpus(1, seed=100 + trial, min_len=4, max_len=6)[0]
        ids = TABLE.ids_of(s.truth)
        tokens = [TABLE.bos_id] + ids
        masses = prefix_suffix_masses(ids, s.neutral_mass, TABLE)
        enc = model.encode_spectrum(s)
        base = model.at_forward(tokens, masses, enc).values
        cut = int(rng.integers(0, len(tokens) - 1))
        mutated = list(tokens)
        new_masses = masses.copy()
        for pos in range(cut + 1, len(tokens)):
            mutated[pos] = int(rng.integers(0, vocab))
            new_masses[pos] = rng.uniform(0.0, 2000.0, size=2)
        perturbed = model.at_forward(mutated, new_masses, enc).values
        assert np.array_equal(base[: cut + 1], perturbed[: cut + 1]), trial
        assert not np.array_equal(base, perturbed)  # the suffix did change
    print("[OK] logits through position t bit-invariant to token/mass edits "
          "after t, 20 random (spectrum, prefix) pairs")


# ---------------------------------------------------------------------------
# 7. Loss annealing endpoints and monotonicity


def test_annealing_hits_exact_endpoints_and_is_monotone():
    for total in (1, 40, 2000):
        sched = AnnealSchedule(total_steps=total)
        assert lambda_at(sched, 0) == 0.0
        assert lambda_at(sched, total) == 1.0
    model = tiny_model(seed=5)
    corpus = tiny_corpus(4, seed=5)
    total = 40
    state = TrainState(
        model=model,
        opt=OptimizerState(lr=1e-3),
        anneal=AnnealSchedule(total_steps=total),
        lr=LRConfig(base_lr=1e-3, warmup_steps=5, total_steps=total),
    )
    lams = [train_stage1_step(model, corpus, state)["lambda"] for _ in range(total)]
    assert all(b >= a for a, b in zip(lams, lams[1:]))
    # Update i trains under weight(i), so the log runs 0 .. (total-1)/total;
    # the exact-1.0 endpoint is the schedule value at the step count itself.
    assert lams[0] == 0.0 and lams[-1] == (total - 1) / total
    print(f"[OK] mixing weight 0 at step 0 and 1 at the final step, "
          f"monotone over a full {total}-step run")


# ---------------------------------------------------------------------------
# 8. End-to-end overfit at desk scale


def test_end_to_end_overfit_recovers_training_peptides():
    start = time.time()
    rng = np.random.default_rng(1234)
    spectra = [
        simulate_spectrum(random_peptide(rng, 5, 8, TABLE),
                          seed=int(rng.integers(1 << 30)),
                          spectrum_id=f"s{i:03d}", table=TABLE)
        for i in range(50)
    ]
    cfg = ModelConfig()  # full desk-scale defaults
    model = Model.build(cfg, TABLE, seed=7)
    state = TrainState(
        model=model,
        opt=OptimizerState(lr=5e-4),
        anneal=AnnealSchedule(total_steps=2000),
        lr=LRConfig(base_lr=5e-4, warmup_steps=100, total_steps=2000),
    )
    order_rng = np.random.default_rng(99)

    def batches():
        while True:
            order = order_rng.permutation(50)
            for k in range(0, 50, 10):
                yield [spectra[j] for j in order[k : k + 10]]

    gen = batches()
    for _ in range(2000):
        train_stage1_step(model, next(gen), state)

    model.store.freeze("enc")
    model.store.freeze("nat")
    state.opt = OptimizerState(lr=1e-4)
    cache = FeatureCache(model)
    for _ in range(200):
        for k in range(0, 50, 10):
            finetune_stage2_step(model, spectra[k : k + 10], state, cache)

    preds = [
        (s.spectrum_id, r.peptide, r.confidence)
        for s in spectra
        for r in [greedy_at_decode(model, s, max_len=cfg.t_max - 2)]
    ]
    report = corpus_eval(preds, {s.spectrum_id: s.truth for s in spectra}, TABLE)
    elapsed = time.time() - start
    assert report.peptide_recall >= 0.95, report.peptide_recall
    assert report.aa_precision >= 0.98, report.aa_precision
    assert elapsed < 900.0
    print(f"[OK] 50-spectrum overfit: recall {report.peptide_recall:.3f}, "
          f"precision {report.aa_precision:.3f}, {elapsed:.0f}s "
          f"(2000 + 200x5 steps)")


# ---------------------------------------------------------------------------
# 9. Beam search consistency


def exhaustive_best(model, spectrum, max_len):
    """Score every residue sequence up to max_len exactly as the beam does."""
    from pepseq.decoding import _decode_context, _next_logps

    table = model.table
    enc, nat = _decode_context(model, spectrum)
    best = None
    for length in range(0, max_len + 1):
        for combo in itertools.product(range(table.n_residues), repeat=length):
            total = 0.0
            for t in range(length):
                total += float(_next_logps(model, spectrum, list(combo[:t]), enc, nat)[combo[t]])
            if length < max_len:
                total += float(_next_logps(model, spectrum, list(combo), enc, nat)[table.eos_id])
                n = length + 1
            else:
                n = length
            conf = total / n if n else float("-inf")
            key = (-conf, combo)
            if best is None or key < best[0]:
                best = (key, combo, conf)
    return best[1], best[2]


def test_beam_width_one_is_greedy_and_wide_beam_is_exhaustive():
    model = tiny_model(seed=21)
    for i in range(20):
        s = tiny_corpus(1, seed=300 + i)[0]
        g = greedy_at_decode(model, s, max_len=6)
        b = beam_search_at(model, s, width=1, max_len=6)[0]
        assert isinstance(b, DecodeResult) and b == g, i

    three = AminoAcidTable(entries=(("A", 71.03711), ("G", 57.02146), ("S", 87.03203)))
    toy = tiny_model(seed=22, table=three)
    for i in range(3):
        s = simulate_spectrum(random_peptide(np.random.default_rng(i), 2, 3, three),
                              seed=i, spectrum_id=f"toy{i}", table=three)
        want_ids, want_conf = exhaustive_best(toy, s, max_len=3)
        got = beam_search_at(toy, s, width=27, max_len=3)[0]
        assert tuple(three.ids_of(got.peptide)) == want_ids
        assert got.confidence == want_conf
    print("[OK] width-1 beam == greedy on 20 spectra (bit-identical); "
          "width-27 beam == exhaustive argmax on 3-residue/length-3 toys")


# ---------------------------------------------------------------------------
# 10. Residue-match fixtures and the coverage curve


def test_match_fixtures_and_coverage_endpoint():
    pep = Peptide.from_string
    assert aa_match(pep("GASPK"), pep("GASPK"), TABLE) == MatchResult(5, 5, 5, True)
    assert aa_match(pep("GA"), pep("AG"), TABLE) == MatchResult(0, 2, 2, False)
    leucine = aa_match(pep("PLK"), pep("PIK"), TABLE)  # L and I are isobaric
    assert leucine == MatchResult(3, 3, 3, True)

    rng = np.random.default_rng(99)
    truths = {}
    preds = []
    for i in range(20):
        p = random_peptide(rng, 4, 7, TABLE)
        sid = f"f{i:02d}"
        truths[sid] = p
        conf = float(-rng.uniform(0.0, 3.0))
        if i < 12:
            preds.append((sid, p, conf))
        elif i < 17:
            preds.append((sid, random_peptide(rng, 4, 7, TABLE), conf))
        # three spectra left unpredicted on purpose
    report = corpus_eval(preds, truths, TABLE)
    curve = precision_coverage(report)
    assert curve.points[-1][0] == 1.0
    assert curve.points[-1][1] == report.peptide_recall
    print(f"[OK] match fixtures exact; coverage curve ends at "
          f"(1.0, recall={report.peptide_recall:.2f}) on a 20-spectrum corpus")


# ---------------------------------------------------------------------------
# 11. Format round-trips


def test_mgf_and_checkpoint_round_trips(tmp_path):
    rng = np.random.default_rng(55)
    spectra = []
    for i in range(100):
        noise = NoiseConfig(
            mz_sigma=float(rng.choice([0.0, 0.005])),
            drop_prob=float(rng.choice([0.0, 0.2])),
            n_noise_peaks=int(rng.choice([0, 4])),
        )
        spectra.append(
            simulate_spectrum(random_peptide(rng, 3, 10, TABLE),
                              seed=int(rng.integers(1 << 30)), noise=noise,
                              spectrum_id=f"rt{i:03d}", table=TABLE)
        )
    text = write_mgf(spectra)
    parsed = parse_mgf(text)
    assert len(parsed) == 100
    assert write_mgf(parsed) == text
    for a, b in zip(spectra, parsed):
        assert a.spectrum_id == b.spectrum_id and a.charge == b.charge
        assert str(a.truth) == str(b.truth)
        assert len(a.peaks) == len(b.peaks)

    model = tiny_model(seed=8)
    first, second = tmp_path / "a.bin", tmp_path / "b.bin"
    save_checkpoint(str(first), model.store, model.metadata())
    store, blob = load_checkpoint(str(first))
    save_checkpoint(str(second), store, blob)
    assert first.read_bytes() == second.read_bytes()
    print("[OK] MGF write-parse-write identical over 100 noisy spectra; "
          "checkpoint save-load-save byte-identical")


# ---------------------------------------------------------------------------
# 12. Finite-difference audit of every differentiable primitive


def _weighted(build, rng):
    """Reduce a tensor-valued op to a scalar with fixed random weights."""
    probe = build()
    c = ad.constant(rng.normal(size=probe.shape))
    return lambda: ad.sum_all(ad.mul(build(), c))


def test_every_differentiable_primitive_passes_finite_differences():
    rng = np.random.default_rng(123)

    def t(*shape, positive=False, scale=1.0):
        x = rng.normal(size=shape) * scale
        if positive:
            x = np.abs(x) + 0.5
        return ad.parameter(x)

    def trial(op_name):
        if op_name in ("add", "mul"):
            if rng.random() < 0.3:  # exercise broadcasting
                a, b = t(3, 1), t(1, 4)
            else:
                a, b = t(2, 3), t(2, 3)
            fn = getattr(ad, op_name)
            return _weighted(lambda: fn(a, b), rng), [a, b]
        if op_name in ("neg", "gelu"):
            a = t(2, 4)
            fn = getattr(ad, op_name)
            return _weighted(lambda: fn(a), rng), [a]
        if op_name == "slice":
            a = t(4, 3)
            return _weighted(lambda: a[1:3], rng), [a]
        if op_name == "concat":
            axis = int(rng.integers(0, 2))
            a, b = t(2, 3), t(2, 3)
            return _weighted(lambda: ad.concat([a, b], axis=axis), rng), [a, b]
        if op_name == "gather":
            a = t(4, 3)
            idx = rng.integers(0, 4, size=5)  # repeats exercise accumulation
            return _weighted(lambda: ad.gather(a, idx, axis=0), rng), [a]
        if op_name == "take_per_row":
            a = t(3, 4)
            idx = rng.integers(0, 4, size=3)
            return _weighted(lambda: ad.take_per_row(a, idx), rng), [a]
        if op_name == "log_softmax":
            a = t(3, 4)
            return _weighted(lambda: ad.log_softmax(a), rng), [a]
        if op_name == "layer_norm":
            x, g, b = t(3, 5), t(5), t(5)
            return _weighted(lambda: ad.layer_norm(x, g, b), rng), [x, g, b]
        if op_name == "linear":
            x, w, b = t(3, 4), t(4, 2), t(2)
            return _weighted(lambda: ad.linear(x, w, b), rng), [x, w, b]
        if op_name == "scaled_dot_attention":
            n, d = 3, 4
            q, k, v = t(n, d), t(n, d), t(n, d)
            mask = np.tril(np.ones((n, n), dtype=bool)) if rng.random() < 0.3 else None
            return _weighted(lambda: ad.scaled_dot_attention(q, k, v, mask), rng), [q, k, v]
        if op_name == "sum_all":
            a = t(2, 3)
            return lambda: ad.sum_all(a), [a]
        if op_name == "unpack":
            mask = rng.random((3, 4)) < 0.6
            a = t(int(mask.sum()), 2)
            return _weighted(lambda: ad.unpack(a, mask), rng), [a]
        raise AssertionError(op_name)

    ops = [
        "add", "mul", "neg", "gelu", "slice", "concat", "gather",
        "take_per_row", "log_softmax", "layer_norm", "linear",
        "scaled_dot_attention", "sum_all", "unpack",
    ]
    # Coverage guard: every public graph-building callable in the autodiff
    # module must be either audited here or explicitly non-differentiable.
    non_diff = {
        "constant", "parameter", "backward", "finite_diff_check",
        "stop_gradient",  # zero backward by definition; no gradient to check
    }
    public = {
        name for name in dir(ad)
        if not name.startswith("_") and callable(getattr(ad, name))
        and not isinstance(getattr(ad, name), type)
        and getattr(getattr(ad, name), "__module__", None) == "pepseq.autodiff"
    }
    audited = set(ops) - {"slice"}  # slicing is spelled t[...] on the tensor
    assert public - non_diff - audited == set(), public - non_diff - audited

    worst = 0.0
    for op_name in ops:
        for _ in range(10):
            f, tensors = trial(op_name)
            err = ad.finite_diff_check(f, tensors)
            assert err < 1e-4, (op_name, err)
            worst = max(worst, err)
    print(f"[OK] {len(ops)} primitives x 10 shapes each pass finite "
          f"differences, worst rel. err {worst:.2e}")
