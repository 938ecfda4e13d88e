"""Schedules, optimizer, and the two training stages."""

from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from pepseq import autodiff as ad
from pepseq import training
from pepseq.autodiff import NumericError
from pepseq.cli import METRICS_COLUMNS
from pepseq.mgf import parse_mgf
from pepseq.network import Model, ModelConfig, Padded, pad_rows
from pepseq.optim import OptimizerState, adamw_step
from pepseq.params import ParameterStore, load_checkpoint
from pepseq.spectra import (AminoAcidTable, Peptide, embed_peak, encode_float, random_peptide,
                            simulate_spectrum)
from pepseq.training import (
    AnnealSchedule,
    FeatureCache,
    LRConfig,
    TrainState,
    _at_inputs,
    _at_loss,
    _at_sample_loss,
    _padded_cache,
    _stage1_losses,
    ce_loss,
    ctc_forward,
    ctc_loss,
    finetune_stage2_step,
    lambda_at,
    learning_rate,
    total_loss,
    train_stage1_step,
)

FIXTURE = Path(__file__).resolve().parents[1] / "bench" / "fixture"


def tiny_model(seed=0, **kw):
    defaults = dict(d=16, heads=2, hidden=32, enc_layers=1, at_layers=1,
                    nat_layers=1, t_max=10)
    defaults.update(kw)
    return Model.build(ModelConfig(**defaults), AminoAcidTable(), seed=seed)


def tiny_corpus(n=6, seed=0, min_len=3, max_len=5):
    table = AminoAcidTable()
    rng = np.random.default_rng(seed)
    return [
        simulate_spectrum(random_peptide(rng, min_len, max_len, table),
                          seed=seed * 1000 + i, spectrum_id=f"t{i:03d}")
        for i in range(n)
    ]


def fresh_state(model, total=100, base_lr=1e-3, warmup=10):
    return TrainState(
        model=model,
        opt=OptimizerState(lr=base_lr),
        anneal=AnnealSchedule(total_steps=total),
        lr=LRConfig(base_lr=base_lr, warmup_steps=warmup, total_steps=total),
    )


class TestSchedules:
    def test_annealing_endpoints_and_midpoint(self):
        sched = AnnealSchedule(total_steps=2000)
        assert lambda_at(sched, 0) == 0.0
        assert lambda_at(sched, 2000) == 1.0
        assert lambda_at(sched, 1000) == 0.5
        assert lambda_at(sched, 500) == 0.25

    def test_annealing_rejects_out_of_range(self):
        sched = AnnealSchedule(total_steps=10)
        with pytest.raises(ValueError):
            lambda_at(sched, 11)
        with pytest.raises(ValueError):
            lambda_at(sched, -1)
        with pytest.raises(ValueError):
            AnnealSchedule(total_steps=0)

    def test_total_loss_mixture(self):
        at = ad.constant(4.0)
        nat = ad.constant(2.0)
        assert total_loss(at, nat, 0.0).item() == 2.0
        assert total_loss(at, nat, 1.0).item() == 4.0
        assert_allclose(total_loss(at, nat, 0.25).item(), 2.5)
        with pytest.raises(ValueError):
            total_loss(at, nat, 1.5)

    def test_learning_rate_warmup_then_cosine(self):
        cfg = LRConfig(base_lr=5e-4, warmup_steps=100, total_steps=2000)
        assert learning_rate(0, cfg) == 0.0
        assert_allclose(learning_rate(50, cfg), 2.5e-4)
        assert_allclose(learning_rate(100, cfg), 5e-4)
        assert_allclose(learning_rate(2000, cfg), 0.0, atol=1e-20)
        # midpoint of the cosine span: half the base rate
        assert_allclose(learning_rate(1050, cfg), 2.5e-4)
        lrs = [learning_rate(s, cfg) for s in range(100, 2001)]
        assert all(a >= b for a, b in zip(lrs, lrs[1:]))

    def test_learning_rate_config_validated(self):
        with pytest.raises(ValueError):
            LRConfig(base_lr=0.0)
        with pytest.raises(ValueError):
            LRConfig(warmup_steps=50, total_steps=50)


class TestAdamW:
    def test_minimizes_quadratic(self):
        store = ParameterStore()
        p = store.add("at", "x", np.array([4.0, -3.0]))
        state = OptimizerState(lr=0.05)
        for _ in range(400):
            loss = ad.sum_all(ad.mul(p, p))
            ad.backward(loss)
            adamw_step(store, state)
        assert np.all(np.abs(p.values) < 1e-2)

    def test_frozen_partition_bit_identical(self):
        store = ParameterStore()
        a = store.add("at", "w", np.arange(4.0))
        e = store.add("enc", "w", np.arange(3.0))
        store.freeze("enc")
        before = e.values.copy()
        state = OptimizerState(lr=0.1)
        for _ in range(5):
            loss = ad.sum_all(ad.mul(a, a))
            ad.backward(loss)
            adamw_step(store, state)
        assert np.array_equal(e.values, before)
        assert not np.array_equal(a.values, np.arange(4.0))

    def test_missing_gradient_is_error_unless_exempted(self):
        store = ParameterStore()
        a = store.add("at", "used", np.ones(2))
        store.add("at", "unused", np.ones(2))
        ad.backward(ad.sum_all(ad.mul(a, a)))
        with pytest.raises(ValueError, match="unused"):
            adamw_step(store, OptimizerState(lr=0.1))
        ad.backward(ad.sum_all(ad.mul(a, a)))
        adamw_step(store, OptimizerState(lr=0.1), unused_ok=frozenset({"at/unused"}))

    def test_gradients_cleared_after_step(self):
        store = ParameterStore()
        a = store.add("at", "w", np.ones(2))
        ad.backward(ad.sum_all(ad.mul(a, a)))
        adamw_step(store, OptimizerState(lr=0.1))
        assert a.grad is None

    def test_decoupled_weight_decay_direction(self):
        # With zero gradient pressure, decay alone shrinks the value.
        store = ParameterStore()
        p = store.add("at", "w", np.array([2.0]))
        state = OptimizerState(lr=0.1)
        zero = ad.mul(p, ad.constant(np.zeros(1)))
        ad.backward(ad.sum_all(zero))
        adamw_step(store, state)
        assert 0 < p.values[0] < 2.0


class TestStage1:
    def test_deterministic_across_runs(self):
        corpus = tiny_corpus()

        def run():
            model = tiny_model(seed=3)
            state = fresh_state(model)
            for _ in range(3):
                train_stage1_step(model, corpus, state)
            return model.store.snapshot()

        a, b = run(), run()
        assert set(a) == set(b)
        for k in a:
            assert np.array_equal(a[k], b[k]), k

    def test_metrics_row_shape(self):
        model = tiny_model(seed=1)
        state = fresh_state(model)
        row = train_stage1_step(model, tiny_corpus(3), state)
        assert row["step"] == 1 and row["stage"] == 1
        assert row["lambda"] == 0.0  # first iteration: pure NAT weight
        assert np.isfinite(row["at_loss"]) and np.isfinite(row["nat_loss"])

    def test_loss_decreases_over_training(self):
        # Averaged first-20 vs last-20 comparison over 200 steps on a tiny
        # fixed corpus; both decoder losses should drop.
        corpus = tiny_corpus(10, seed=7)
        model = tiny_model(seed=5)
        state = fresh_state(model, total=200, base_lr=2e-3, warmup=20)
        rows = [train_stage1_step(model, corpus, state) for _ in range(200)]
        at = [r["at_loss"] for r in rows]
        nat = [r["nat_loss"] for r in rows]
        assert np.mean(at[-20:]) < np.mean(at[:20])
        assert np.mean(nat[-20:]) < np.mean(nat[:20])

    def test_target_longer_than_tmax_rejected(self):
        model = tiny_model(seed=2, t_max=5)
        corpus = tiny_corpus(2, min_len=5, max_len=5)
        state = fresh_state(model)
        with pytest.raises(ValueError, match="t_max"):
            train_stage1_step(model, corpus, state)

    def test_spectrum_without_truth_rejected(self):
        model = tiny_model(seed=2)
        s = tiny_corpus(1)[0]
        bare = type(s)(spectrum_id=s.spectrum_id, peaks=s.peaks,
                       precursor_mz=s.precursor_mz, charge=s.charge, truth=None)
        with pytest.raises(ValueError, match="training target"):
            train_stage1_step(model, [bare], fresh_state(model))


class TestStage2:
    def prepared(self, seed=0):
        model = tiny_model(seed=seed)
        corpus = tiny_corpus(4, seed=seed)
        state = fresh_state(model)
        for _ in range(2):
            train_stage1_step(model, corpus, state)
        model.store.freeze("enc")
        model.store.freeze("nat")
        state.opt = OptimizerState(lr=1e-4)
        return model, corpus, state

    def test_requires_frozen_partitions(self):
        model = tiny_model(seed=1)
        corpus = tiny_corpus(2)
        with pytest.raises(ValueError, match="frozen"):
            finetune_stage2_step(model, corpus, fresh_state(model), FeatureCache(model))

    def test_frozen_partitions_bit_identical_over_50_steps(self):
        model, corpus, state = self.prepared()
        enc_before = model.store.snapshot("enc")
        nat_before = model.store.snapshot("nat")
        cache = FeatureCache(model)
        for _ in range(50):
            finetune_stage2_step(model, corpus, state, cache)
        for k, v in model.store.snapshot("enc").items():
            assert np.array_equal(v, enc_before[k]), k
        for k, v in model.store.snapshot("nat").items():
            assert np.array_equal(v, nat_before[k]), k
        assert model.finetuned

    def test_at_partition_actually_trains(self):
        model, corpus, state = self.prepared()
        at_before = model.store.snapshot("at")
        finetune_stage2_step(model, corpus, state, FeatureCache(model))
        changed = [
            k for k, v in model.store.snapshot("at").items()
            if not np.array_equal(v, at_before[k])
        ]
        assert "at/seg_nat" in changed and "at/seg_enc" in changed
        assert len(changed) == len(at_before)

    def test_cache_is_observationally_identical(self):
        model, corpus, state = self.prepared(seed=9)
        cache, first = FeatureCache(model), {}
        for _ in range(2):  # a miss fills the cache, then a hit serves it
            for s in corpus:
                entry = cache.get(s)
                assert all(type(a) is np.ndarray for a in entry)
                assert all(a is b for a, b in zip(entry, first.setdefault(s.spectrum_id, entry)))
                enc, nat_latents = entry
                fresh = model.encode_spectrum(s)
                assert np.array_equal(enc, fresh.values)
                assert np.array_equal(nat_latents, model.nat_forward(fresh).latents.values)
            finetune_stage2_step(model, corpus, state, cache)

    def test_loss_decreases_during_finetuning(self):
        model, corpus, state = self.prepared(seed=4)
        cache = FeatureCache(model)
        rows = [finetune_stage2_step(model, corpus, state, cache) for _ in range(60)]
        losses = [r["at_loss"] for r in rows]
        assert np.mean(losses[-10:]) < np.mean(losses[:10])

    def test_unblocked_gradients_reach_nat_when_unfrozen(self):
        # The ablation configuration: no freezing, no blocking. Gradient
        # must reach the NAT stack (this is what breaks training at scale).
        model = tiny_model(seed=6)
        corpus = tiny_corpus(2, seed=6)
        s = corpus[0]
        ids = model.table.ids_of(s.truth)
        from pepseq.training import _at_sample_loss

        enc = model.encode_spectrum(s)
        nat = model.nat_forward(enc)
        loss = _at_sample_loss(model, s, ids, enc, nat.latents, block_nat_grad=False)
        ad.backward(loss)
        pos = model.store.get("nat", "pos_emb")
        assert pos.grad is not None and np.any(pos.grad != 0)


@pytest.mark.parametrize("stage", [1, 2])
def test_both_stages_end_in_one_update(stage, monkeypatch):
    """Each stage's row has the metrics.csv columns, and a non-finite loss
    raises before any parameter, moment or step count changes."""
    model, corpus = tiny_model(seed=4), tiny_corpus(3, seed=4)
    state, cache = fresh_state(model), None
    if stage == 2:
        model.store.freeze("enc")
        model.store.freeze("nat")
        cache = FeatureCache(model)

    def step():
        if stage == 1:
            return train_stage1_step(model, corpus, state)
        return finetune_stage2_step(model, corpus, state, cache)

    row = step()
    assert tuple(row) == METRICS_COLUMNS
    assert (row["step"], row["stage"], state.step, state.opt.step) == (1, stage, 1, 1)
    params, lr = model.store.snapshot(), state.opt.lr
    moments = {kind: {k: a.copy() for k, a in getattr(state.opt, kind).items()} for kind in "mv"}
    real = training._at_loss
    monkeypatch.setattr(training, "_at_loss",
                        lambda *args: ad.mul(real(*args), ad.constant(np.inf)))
    with pytest.raises(NumericError, match="non-finite loss at step 1"):
        step()
    assert (state.step, state.opt.step, state.opt.lr) == (1, 1, lr)
    after = model.store.snapshot()
    assert all(np.array_equal(params[k], after[k]) for k in params)
    for kind in "mv":
        saved = getattr(state.opt, kind)
        assert saved.keys() == moments[kind].keys()
        assert all(np.array_equal(moments[kind][k], saved[k]) for k in saved)


class TestPaddedBatch:
    """A padded batch computes what its rows compute alone.

    Batches of 10 from the benchmark's pool (peptides of 5-12 residues) go
    through one padded forward; each row's losses must equal those of its
    spectrum encoded alone, as a batch of one, and the batch gradient the
    mean of the lone ones.
    Padded GEMMs round differently, so the bounds are tolerances, not bit
    identity.
    """

    LAM = 0.3  # weighs both losses into the gradient

    @pytest.fixture(scope="class")
    def setup(self):
        store, blob = load_checkpoint(str(FIXTURE / "trained.ckpt"))
        model = Model.from_checkpoint_blob(store, blob)
        for partition in ("enc", "nat"):  # the checkpoint was saved after stage 2
            store.unfreeze(partition)
        pool = parse_mgf((FIXTURE / "pool.mgf").read_text(), model.table)
        rng = np.random.default_rng(5)
        batches = [[pool[i] for i in rng.choice(len(pool), 10, replace=False)] for _ in range(2)]
        assert len({len(s.truth) for b in batches for s in b}) >= 5  # mixed lengths
        return model, batches

    @staticmethod
    def grads(model, loss):
        for _, t in model.store.items():
            t.grad = None
        ad.backward(loss)
        return {k: np.zeros_like(t.values) if t.grad is None else t.grad.copy()
                for k, t in model.store.items()}

    @staticmethod
    def assert_mean_gradient(batch_grads, lone_grads, reached):
        for key, got in batch_grads.items():
            want = np.mean([g[key] for g in lone_grads], axis=0)
            assert want.any() == reached(key), key
            # A key bias moves every score of a query row alike, which the
            # softmax ignores: its true gradient is 0, and what is left is
            # rounding noise of either path.
            if key.endswith(".bk"):
                assert_allclose(got, want, rtol=0, atol=1e-15, err_msg=key)
            else:
                scale = np.abs(want).max()
                assert np.abs(got - want).max() <= 1e-12 * scale, key

    def test_stage1_rows_and_gradient_equal_lone_samples(self, setup):
        model, batches = setup
        table = model.table
        for batch in batches:
            ids = [table.ids_of(s.truth) for s in batch]
            enc = model.encode_spectrum(batch)
            tokens, targets, masses = _at_inputs(model, batch, ids)
            at_logits = model.at_forward(tokens, masses, enc)
            nat_log_p = ctc_forward(ad.log_softmax(model.nat_forward(enc).logits), ids,
                                    table.blank_id)
            lone_grads = []
            for b, (s, row) in enumerate(zip(batch, ids)):
                lone_enc = model.encode_spectrum(s)
                at = _at_sample_loss(model, s, row, lone_enc, None)
                nat = ctc_loss(model.nat_forward(lone_enc).logits[None], [row], table.blank_id)
                assert_allclose(ce_loss(at_logits[b], targets[b], table.pad_id).item(),
                                at.item(), rtol=1e-12)
                assert_allclose(-nat_log_p.values[b], nat.item(), rtol=1e-12)
                lone_grads.append(self.grads(model, total_loss(at, nat, self.LAM)))
            at, nat = _stage1_losses(model, batch)
            self.assert_mean_gradient(self.grads(model, total_loss(at, nat, self.LAM)),
                                      lone_grads,
                                      lambda key: "/seg_" not in key)  # stage 2 only

    def test_stage2_rows_and_gradient_equal_lone_samples(self, setup):
        model, batches = setup
        table = model.table
        for partition in ("enc", "nat"):
            model.store.freeze(partition)
        try:
            cache = FeatureCache(model)
            for batch in batches:
                ids = [table.ids_of(s.truth) for s in batch]
                padded = _padded_cache([cache.get(s) for s in batch])
                tokens, targets, masses = _at_inputs(model, batch, ids)
                logits = model.at_forward(tokens, masses, model.at_cache(*padded))
                lone_grads = []
                for b, (s, row) in enumerate(zip(batch, ids)):
                    lone = _at_sample_loss(model, s, row, *map(ad.constant, cache.get(s)))
                    assert_allclose(ce_loss(logits[b], targets[b], table.pad_id).item(),
                                    lone.item(), rtol=1e-12)
                    lone_grads.append(self.grads(model, lone))
                loss = ad.mul(_at_loss(model, batch, ids, model.at_cache(*padded)),
                              ad.constant(1.0 / len(batch)))
                self.assert_mean_gradient(self.grads(model, loss), lone_grads,
                                          lambda key: key.startswith("at/"))
        finally:
            for partition in ("enc", "nat"):
                model.store.unfreeze(partition)


class TestRealRows:
    """A training forward runs its row-wise layers on the batch's real rows
    alone, and computes there what the padded batch computes, bit for bit.

    The reference runs the same stacks on the padded [B, S, d] blocks, with
    the padding rows carried through every layer as the key masks and the
    causal mask leave them: the encoder under its key-padding mask, the AT
    over every position of its right-padded tokens.
    """

    @staticmethod
    def padded_encoder(model, batch):
        peaks, real = pad_rows([embed_peak(s.peaks, model.cfg.d, s.max_intensity) for s in batch])
        mask = np.concatenate([np.ones((len(batch), 1), dtype=bool), real], axis=1)
        charge_rows = ad.gather(model.params["enc"]["charge_emb"], [[s.charge - 1] for s in batch])
        masses = encode_float([[s.neutral_mass] for s in batch], model.cfg.d)
        x = ad.concat([ad.add(charge_rows, ad.constant(masses)), ad.constant(peaks)], axis=1)
        return Padded(model._stack(model.params["enc"], x, mask[:, None, :]), mask)

    @staticmethod
    def padded_at(model, tokens, masses, context):
        tree = model.params["at"]
        x = ad.add(ad.gather(tree["tok_emb"], tokens),
                   ad.constant(encode_float(masses, model.cfg.d).sum(axis=-2)))
        causal = np.tril(np.ones((tokens.shape[-1],) * 2, dtype=bool))
        x = model._stack(tree, x, causal, model.at_cache(context))
        return ad.linear(x, *tree["out"])

    @pytest.mark.parametrize("checkpoint", ["trained", "untrained"])
    def test_encoder_nat_and_at_equal_the_padded_batch_bit_for_bit(self, checkpoint):
        model = Model.from_checkpoint_blob(*load_checkpoint(str(FIXTURE / f"{checkpoint}.ckpt")))
        for partition in ("enc", "nat"):  # graph forwards record their backward
            model.store.unfreeze(partition)
        pool = parse_mgf((FIXTURE / "pool.mgf").read_text(), model.table)
        batch = [pool[i] for i in np.random.default_rng(7).choice(len(pool), 10, replace=False)]
        ids = [model.table.ids_of(s.truth) for s in batch]
        tokens, _, masses = _at_inputs(model, batch, ids)
        real = tokens != model.table.pad_id

        enc, ref = model.encode_spectrum(batch), self.padded_encoder(model, batch)
        assert not enc.mask.all() and not real.all()  # both stacks pack
        assert np.array_equal(enc.mask, ref.mask)
        assert np.array_equal(enc.rows.values[enc.mask], ref.rows.values[ref.mask])
        assert not enc.rows.values[~enc.mask].any()
        assert np.array_equal(model.nat_forward(enc).logits.values, model.nat_forward(ref).logits.values)
        got = model.at_forward(tokens, masses, enc).values
        assert np.array_equal(got[real], self.padded_at(model, tokens, masses, ref).values[real])
        assert not got[~real].any()
