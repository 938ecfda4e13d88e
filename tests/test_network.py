"""Architecture contracts: permutation equivariance of the encoder,
causality of the AT decoder, the NAT decoder's token-free signature, the
augmented cross-attention context, and checkpoint round trips."""

import struct
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from pepseq import autodiff as ad
from pepseq.network import MAX_CHARGE, Model, ModelConfig, check_spectrum, prefix_suffix_masses
from pepseq.params import CheckpointError, ParameterStore, load_checkpoint, save_checkpoint
from pepseq.spectra import (PROTON, WATER, AminoAcidTable, Peak, Peptide, Spectrum, embed_peak,
                            encode_float, simulate_spectrum)

from conftest import MISMATCHES, mismatched_store


def tiny_config(**kw):
    defaults = dict(d=16, heads=2, hidden=32, enc_layers=2, at_layers=2,
                    nat_layers=2, t_max=12)
    defaults.update(kw)
    return ModelConfig(**defaults)


@pytest.fixture
def model():
    return Model.build(tiny_config(), AminoAcidTable(), seed=0)


@pytest.fixture
def spectrum():
    return simulate_spectrum(Peptide.from_string("GASPV"), seed=11)


class TestEncoder:
    def test_output_shape(self, model, spectrum):
        feats = model.encode_spectrum(spectrum)
        assert feats.shape == (len(spectrum.peaks) + 1, model.cfg.d)

    def test_permutation_equivariance(self, model, spectrum):
        cfg = model.cfg
        precursor = (model.store.get("enc", "charge_emb").values[spectrum.charge - 1]
                     + encode_float(spectrum.neutral_mass, cfg.d))
        peak_rows = embed_peak(spectrum.peaks, cfg.d, spectrum.max_intensity)

        def encode(peaks):
            rows = ad.constant(np.vstack([precursor, peaks]))
            return model._stack(model.params["enc"], rows, None).values

        out = encode(peak_rows)
        assert_allclose(out, model.encode_spectrum(spectrum).values, atol=1e-10)  # the same rows
        perm = np.random.default_rng(3).permutation(len(peak_rows))
        out_p = encode(peak_rows[perm])

        assert_allclose(out_p[0], out[0], atol=1e-10)  # precursor row stays put
        assert_allclose(out_p[1:], out[1:][perm], atol=1e-10)

    def test_charge_out_of_range_rejected(self, model, spectrum):
        bad = Spectrum(
            spectrum_id="x",
            peaks=spectrum.peaks,
            precursor_mz=spectrum.precursor_mz,
            charge=MAX_CHARGE + 1,
        )
        with pytest.raises(ValueError, match="charge"):
            model.encode_spectrum(bad)

    def test_max_charge_accepted(self, model, spectrum):
        ok = Spectrum(
            spectrum_id="x",
            peaks=spectrum.peaks,
            precursor_mz=spectrum.precursor_mz,
            charge=MAX_CHARGE,
        )
        feats = model.encode_spectrum(ok)
        assert np.all(np.isfinite(feats.values))

    @pytest.mark.parametrize("change, max_residues, rule", [
        (dict(charge=MAX_CHARGE + 1), None, "has charge 11; the model supports 1..10"),
        (dict(precursor_mz=1e308, charge=2), None, "no finite mass"),
        (dict(peaks=(Peak(100.0, 0.0), Peak(200.0, 0.0))), None, "no peak with positive intensity"),
        ({}, 4, "5 target residues exceed t_max - 2 = 4"),
    ], ids=["charge", "mass", "intensity", "target"])
    def test_check_spectrum_names_what_the_model_cannot_read(self, model, spectrum, change,
                                                             max_residues, rule):
        check_spectrum(spectrum, max_residues=5)  # GASPV fits five residues
        bad = replace(spectrum, spectrum_id="odd", **change)
        with pytest.raises(ValueError, match=f"spectrum 'odd'.*{rule}"):
            check_spectrum(bad, max_residues)
        if max_residues is None:  # the encoder reads what the check accepts, and no more
            with pytest.raises(ValueError, match="spectrum 'odd'"):
                model.encode_spectrum(bad)

    def test_charge_changes_only_through_embedding(self, model, spectrum):
        # Same peaks and precursor m/z, different charge: row 0 input differs.
        s2 = Spectrum(
            spectrum_id=spectrum.spectrum_id,
            peaks=spectrum.peaks,
            precursor_mz=spectrum.precursor_mz,
            charge=3,
        )
        a = model.encode_spectrum(spectrum).values
        b = model.encode_spectrum(s2).values
        assert not np.allclose(a[0], b[0])


class TestMultiHeadAttention:
    def test_one_call_over_heads_equals_per_head_slices(self):
        model = Model.build(tiny_config(heads=4), AminoAcidTable(), seed=1)
        rng = np.random.default_rng(5)
        x = rng.normal(size=(6, 16))
        context = rng.normal(size=(9, 16))
        causal = np.tril(np.ones((6, 6), dtype=bool))
        p = {n: model.store.get("at", f"layer0.cross.{n}").values
             for n in ("wq", "wk", "wv", "wo", "bq", "bk", "bv", "bo")}

        def reference(x, ctx, mask):
            q, k, v = x @ p["wq"] + p["bq"], ctx @ p["wk"] + p["bk"], ctx @ p["wv"] + p["bv"]
            heads = []
            for h in range(4):
                cols = slice(4 * h, 4 * (h + 1))
                scores = q[:, cols] @ k[:, cols].T / 2.0
                if mask is not None:
                    scores = np.where(mask, scores, -np.inf)
                w = np.exp(scores - scores.max(axis=1, keepdims=True))
                heads.append((w / w.sum(axis=1, keepdims=True)) @ v[:, cols])
            return np.concatenate(heads, axis=1) @ p["wo"] + p["bo"]

        def mha(x, ctx, mask):
            block = model.params["at"]["layers"][0]["cross"]
            return model._mha(block, ad.constant(x), model._kv(block, ad.constant(ctx)), mask)

        got = mha(x, context, None)
        assert_allclose(got.values, reference(x, context, None), rtol=0, atol=1e-12)
        got = mha(x, x, causal)
        assert_allclose(got.values, reference(x, x, causal), rtol=0, atol=1e-12)


class TestATDecoder:
    def test_mass_rows_in_one_call_equal_the_sum_of_two(self):
        # at_forward encodes each (prefix, suffix) pair in one call and sums
        # over the pair axis: the same bits as encoding each mass apart.
        d = ModelConfig().d
        rng = np.random.default_rng(4)
        masses = np.stack([rng.uniform(0.0, 2500.0, (4, 9)), rng.uniform(-400.0, 2500.0, (4, 9))], axis=-1)
        assert (masses[..., 1] < 0).any()
        one = encode_float(masses, d).sum(axis=-2)
        assert np.array_equal(one, encode_float(masses[..., 0], d) + encode_float(masses[..., 1], d))

    def tokens_and_masses(self, model, spectrum, residues):
        table = model.table
        ids = [table.index_of(r) for r in residues]
        tokens = [table.bos_id] + ids
        masses = prefix_suffix_masses(ids, spectrum.neutral_mass, table)
        return tokens, masses

    def test_causality_bit_invariance(self, model, spectrum):
        enc = model.encode_spectrum(spectrum)
        tok1, m1 = self.tokens_and_masses(model, spectrum, "GASP")
        tok2, m2 = self.tokens_and_masses(model, spectrum, "GAKW")
        out1 = model.at_forward(tok1, m1, enc).values
        out2 = model.at_forward(tok2, m2, enc).values
        # Positions 0..2 see only BOS, G, A in both runs: bit-identical.
        assert np.array_equal(out1[:3], out2[:3])
        assert not np.array_equal(out1[3], out2[3])

    def test_logit_shape_covers_at_vocab(self, model, spectrum):
        enc = model.encode_spectrum(spectrum)
        tokens, masses = self.tokens_and_masses(model, spectrum, "GA")
        out = model.at_forward(tokens, masses, enc)
        assert out.shape == (3, model.table.at_vocab_size)

    def test_mass_rows_validated(self, model, spectrum):
        enc = model.encode_spectrum(spectrum)
        tokens, masses = self.tokens_and_masses(model, spectrum, "GA")
        with pytest.raises(ValueError, match="masses"):
            model.at_forward(tokens, masses[:-1], enc)
        with pytest.raises(ValueError, match="vocabulary"):
            model.at_forward([999] + tokens[1:], masses, enc)

    def test_right_padding_runs_on_the_real_positions(self, model, spectrum):
        """A right-padded row runs on its real positions and gives zero
        logits at PAD; a PAD before a real position is read as a token."""
        enc = model.encode_spectrum(spectrum)
        tokens, masses = self.tokens_and_masses(model, spectrum, "GA")
        pad = model.table.pad_id
        alone = model.at_forward(tokens[:2], masses[:2], enc).values
        out = model.at_forward(tokens[:2] + [pad], masses, enc).values
        assert np.array_equal(out[:2], alone) and not out[2].any()
        inner = model.at_forward([tokens[0], pad, tokens[2]], masses, enc).values
        assert np.array_equal(inner[:1], alone[:1]) and inner[1:].all()

    def test_prefix_suffix_masses_by_hand(self, model):
        table = model.table
        ids = [table.index_of("G"), table.index_of("A")]
        neutral = table.peptide_mass(Peptide.from_string("GA"))
        m = prefix_suffix_masses(ids, neutral, table)
        budget = neutral - WATER
        assert_allclose(m[0], [0.0, budget])
        assert_allclose(m[1], [57.02146, budget - 57.02146])
        assert_allclose(m[2], [budget, 0.0], atol=1e-9)

    def test_prefix_suffix_masses_batch_equals_rows_bit_for_bit(self, model):
        table = model.table
        rng = np.random.default_rng(4)
        for length in range(7):
            ids = rng.integers(0, table.n_residues, size=(5, length))
            batch = prefix_suffix_masses(ids, 812.4, table)
            assert batch.shape == (5, length + 1, 2)
            for row, row_ids in zip(batch, ids):
                assert np.array_equal(row, prefix_suffix_masses(list(row_ids), 812.4, table))
                prefix, ref = 0.0, [(0.0, 812.4 - WATER)]  # the plain running sum
                for rid in row_ids:
                    prefix += table.masses[rid]
                    ref.append((prefix, 812.4 - WATER - prefix))
                assert np.array_equal(row, np.array(ref))
        empty = prefix_suffix_masses([], 812.4, table)
        assert empty.shape == (1, 2) and empty[0, 0] == 0.0 and empty[0, 1] == 812.4 - WATER

    def test_augmented_context_changes_output(self, model, spectrum):
        enc = model.encode_spectrum(spectrum)
        nat = model.nat_forward(enc)
        tokens, masses = self.tokens_and_masses(model, spectrum, "GA")
        plain = model.at_forward(tokens, masses, enc).values
        augmented = model.at_forward(tokens, masses, model.at_cache(enc, nat.latents)).values
        assert plain.shape == augmented.shape
        assert not np.allclose(plain, augmented)

    def test_gradient_blocking_protects_nat(self, model, spectrum):
        enc = model.encode_spectrum(spectrum)
        tokens, masses = self.tokens_and_masses(model, spectrum, "GA")
        pos_emb = model.store.get("nat", "pos_emb")

        nat = model.nat_forward(enc)
        context = model.at_cache(enc, nat.latents, block_nat_grad=True)
        out = model.at_forward(tokens, masses, context)
        ad.backward(ad.sum_all(out))
        assert pos_emb.grad is None, "blocked NAT latents leaked gradient"
        seg = model.store.get("at", "seg_nat")
        assert seg.grad is not None and np.any(seg.grad != 0)

        for _, t in model.store.items():
            t.grad = None
        nat = model.nat_forward(enc)
        context = model.at_cache(enc, nat.latents, block_nat_grad=False)
        out = model.at_forward(tokens, masses, context)
        ad.backward(ad.sum_all(out))
        assert pos_emb.grad is not None and np.any(pos_emb.grad != 0), (
            "without blocking, gradients must reach the NAT stack"
        )

    @pytest.mark.parametrize("with_nat", [False, True])
    def test_shared_context_equals_tiled_context_bit_for_bit(self, model, spectrum, with_nat):
        # n prefixes against one [S, d] context, as the beam scores them.
        table = model.table
        enc = model.encode_spectrum(spectrum)
        nat = model.nat_forward(enc).latents if with_nat else None
        ids = np.random.default_rng(6).integers(0, table.n_residues, size=(4, 3))
        tokens = np.concatenate([np.full((4, 1), table.bos_id), ids], axis=-1)
        masses = prefix_suffix_masses(ids, spectrum.neutral_mass, table)
        context = [enc] if nat is None else [enc, nat]
        tiled = [ad.constant(np.broadcast_to(t.values, (4,) + t.shape)) for t in context]
        shared = model.at_forward(tokens, masses, model.at_cache(*context)).values
        assert shared.shape == (4, 4, table.at_vocab_size)
        assert np.array_equal(shared, model.at_forward(tokens, masses, model.at_cache(*tiled)).values)

    def test_context_length_is_tmax_plus_k_plus_1(self, model, spectrum):
        # Indirect check: the augmented forward works for any peak count and
        # fails loudly if the two context pieces disagree in width.
        enc = model.encode_spectrum(spectrum)
        nat = model.nat_forward(enc)
        tokens, masses = self.tokens_and_masses(model, spectrum, "G")
        out = model.at_forward(tokens, masses, model.at_cache(enc, nat.latents))
        assert out.shape[0] == 2


class TestNATDecoder:
    def test_signature_admits_no_tokens(self, model, spectrum):
        import inspect

        params = inspect.signature(model.nat_forward).parameters
        assert list(params) == ["enc_features"]

    def test_output_shapes(self, model, spectrum):
        enc = model.encode_spectrum(spectrum)
        nat = model.nat_forward(enc)
        assert nat.latents.shape == (model.cfg.t_max, model.cfg.d)
        assert nat.logits.shape == (model.cfg.t_max, model.table.nat_vocab_size)

    def test_deterministic_given_encoder(self, model, spectrum):
        enc = model.encode_spectrum(spectrum)
        a = model.nat_forward(enc).logits.values
        b = model.nat_forward(enc).logits.values
        assert np.array_equal(a, b)


class TestParameterStore:
    def test_freeze_clears_requires_grad(self):
        store = ParameterStore()
        t = store.add("enc", "w", np.ones(3))
        assert t.requires_grad
        store.freeze("enc")
        assert not t.requires_grad and store.is_frozen("enc")
        store.unfreeze("enc")
        assert t.requires_grad

    def test_duplicate_and_unknown_partition_rejected(self):
        store = ParameterStore()
        store.add("at", "w", np.ones(2))
        with pytest.raises(ValueError):
            store.add("at", "w", np.ones(2))
        with pytest.raises(CheckpointError, match="unknown partition 'decoder'"):
            store.add("decoder", "w", np.ones(2))

    def test_adding_to_frozen_partition_stays_frozen(self):
        store = ParameterStore()
        store.freeze("nat")
        t = store.add("nat", "w", np.ones(2))
        assert not t.requires_grad


class TestConfig:
    @pytest.mark.parametrize("d", [63, 0, -2])
    def test_width_must_be_positive_and_even(self, d):
        # Each sinusoidal encoding splits d into a sin half and a cos half;
        # the config is the one place that checks d.
        with pytest.raises(ValueError, match="positive and even"):
            ModelConfig(d=d, heads=1)

    def test_stored_paired_encoding_flag(self):
        stored = dict(tiny_config().to_dict(), paired_encoding=False)
        assert ModelConfig.from_dict(stored) == tiny_config()
        with pytest.raises(ValueError, match="paired"):
            ModelConfig.from_dict(dict(stored, paired_encoding=True))

    def test_stored_encoder_wavelengths(self):
        # Older checkpoints store the fixed wavelength bounds of the encoders.
        stored = dict(tiny_config().to_dict(), mz_v_min=0.001, mz_v_max=10000.0,
                      intensity_v_min=1e-4, intensity_v_max=1.0)
        assert ModelConfig.from_dict(stored) == tiny_config()
        for key in ("mz_v_min", "mz_v_max", "intensity_v_min", "intensity_v_max"):
            with pytest.raises(ValueError, match=key):
                ModelConfig.from_dict(dict(stored, **{key: 2 * stored[key]}))


class TestCheckpoint:
    def build_store(self):
        rng = np.random.default_rng(0)
        store = ParameterStore()
        store.add("enc", "w", rng.normal(size=(3, 4)))
        store.add("at", "emb", rng.normal(size=(5,)))
        store.add("nat", "scalar", np.asarray(rng.normal()))
        return store

    def test_bit_exact_roundtrip(self, tmp_path):
        store = self.build_store()
        store.freeze("nat")
        blob = {"model": tiny_config().to_dict(), "vocabulary": AminoAcidTable().to_dict()}
        p1 = tmp_path / "a.ckpt"
        p2 = tmp_path / "b.ckpt"
        save_checkpoint(str(p1), store, blob)
        loaded, meta = load_checkpoint(str(p1))
        save_checkpoint(str(p2), loaded, {k: v for k, v in meta.items() if k != "frozen"})
        assert p1.read_bytes() == p2.read_bytes()
        for (k1, t1), (k2, t2) in zip(store.items(), loaded.items()):
            assert k1 == k2
            assert np.array_equal(t1.values, t2.values)
        assert loaded.is_frozen("nat") and not loaded.is_frozen("enc")
        assert meta["model"] == tiny_config().to_dict()

    def test_failed_write_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        p = tmp_path / "x.ckpt"
        save_checkpoint(str(p), self.build_store(), {"generation": 1})
        before = p.read_bytes()

        def disk_full(fd):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr("pepseq.params.os.fsync", disk_full)
        with pytest.raises(OSError):
            save_checkpoint(str(p), self.build_store(), {"generation": 2})
        assert p.read_bytes() == before
        assert [f.name for f in tmp_path.iterdir()] == ["x.ckpt"]

    def test_a_temporary_path_it_did_not_make_is_left_alone(self, tmp_path):
        # A directory where the temporary file goes: open fails, and that error
        # comes out alone, with nothing removed.
        p = tmp_path / "x.ckpt"
        (tmp_path / "x.ckpt.tmp").mkdir()
        with pytest.raises(IsADirectoryError) as raised:
            save_checkpoint(str(p), self.build_store(), {})
        assert raised.value.filename == f"{p}.tmp"
        assert raised.value.__context__ is None and raised.value.__cause__ is None
        assert (tmp_path / "x.ckpt.tmp").is_dir() and not p.exists()

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "x.ckpt"
        p.write_bytes(b"XXXX" + b"\x00" * 16)
        with pytest.raises(CheckpointError, match="not a checkpoint file: magic b'XXXX'"):
            load_checkpoint(str(p))

    def test_version_mismatch(self, tmp_path):
        p = tmp_path / "x.ckpt"
        save_checkpoint(str(p), self.build_store(), {})
        data = bytearray(p.read_bytes())
        data[4] = 99
        p.write_bytes(bytes(data))
        with pytest.raises(CheckpointError, match="checkpoint version 99, expected 1 or 2"):
            load_checkpoint(str(p))

    def test_truncated_payload(self, tmp_path):
        p = tmp_path / "x.ckpt"
        save_checkpoint(str(p), self.build_store(), {})
        data = p.read_bytes()
        p.write_bytes(data[: len(data) - 30])
        with pytest.raises(CheckpointError, match="truncated while reading metadata"):
            load_checkpoint(str(p))

    @pytest.mark.parametrize("rank, dims, error", [
        # 2**32 - 1 squared elements of 8 bytes overflow an int64 byte count
        (2, (2**32 - 1, 2**32 - 1), "truncated while reading array enc/w payload"),
        (100, (0,) * 100, "array enc/w has rank 100"),  # zero elements, more axes than numpy has
    ])
    def test_impossible_shape_is_checkpoint_error(self, tmp_path, rank, dims, error):
        p = tmp_path / "x.ckpt"
        name = b"enc/w"
        p.write_bytes(b"NVCK" + struct.pack("<IIH", 1, 1, len(name)) + name
                      + struct.pack(f"<B{rank}I", rank, *dims) + np.zeros(2).tobytes())
        with pytest.raises(CheckpointError, match=error):
            load_checkpoint(str(p))

    def test_unknown_partition(self, tmp_path):
        p = tmp_path / "x.ckpt"
        name = b"mystery/w"
        payload = (
            b"NVCK"
            + struct.pack("<II", 1, 1)
            + struct.pack("<H", len(name))
            + name
            + struct.pack("<B", 1)
            + struct.pack("<I", 2)
            + np.zeros(2).tobytes()
            + struct.pack("<I", 2)
            + b"{}"
        )
        p.write_bytes(payload)
        with pytest.raises(CheckpointError, match="unknown partition 'mystery'"):
            load_checkpoint(str(p))

    def test_optimizer_state_roundtrips_bit_for_bit(self, tmp_path):
        store = self.build_store()
        rng = np.random.default_rng(1)
        keys = ["enc/w", "at/emb"]
        m = {k: rng.normal(size=store.get(*k.split("/")).shape) for k in keys}
        v = {k: rng.random(size=store.get(*k.split("/")).shape) for k in keys}
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(str(p1), store, {"optimizer": {"step": 7, "m": m, "v": v}})
        loaded, meta = load_checkpoint(str(p1))
        save_checkpoint(str(p2), loaded, meta)
        assert p1.read_bytes() == p2.read_bytes()
        assert [k for k, _ in loaded.items()] == [k for k, _ in store.items()]
        opt = meta["optimizer"]
        assert opt["step"] == 7 and list(opt["m"]) == keys and list(opt["v"]) == keys
        for k in keys:
            assert opt["m"][k].tobytes() == m[k].tobytes()
            assert opt["v"][k].tobytes() == v[k].tobytes()

    def test_version_1_fixture_loads_without_optimizer_state(self):
        fixture = Path(__file__).resolve().parents[1] / "bench" / "fixture" / "untrained.ckpt"
        assert fixture.read_bytes()[4:8] == (1).to_bytes(4, "little")
        store, blob = load_checkpoint(str(fixture))
        assert "optimizer" not in blob
        assert len(list(store.items())) > 0

    def test_default_build_matches_committed_fixture(self):
        # The benchmark's untrained checkpoint was written by this build; any
        # change to parameter names, their order or the RNG draw order shows.
        fixture = Path(__file__).resolve().parents[1] / "bench" / "fixture" / "untrained.ckpt"
        store, _ = load_checkpoint(str(fixture))
        built = Model.build(ModelConfig(), AminoAcidTable(), 0).store
        assert [k for k, _ in built.items()] == [k for k, _ in store.items()]
        for (key, a), (_, b) in zip(built.items(), store.items()):
            assert a.shape == b.shape and a.values.tobytes() == b.values.tobytes(), key

    @pytest.mark.parametrize("edit", sorted(MISMATCHES))
    def test_store_not_matching_the_config_is_rejected(self, model, edit):
        store = mismatched_store(model.store, edit)
        with pytest.raises(ValueError, match=MISMATCHES[edit]):
            Model.from_checkpoint_blob(store, model.metadata())

    def test_model_roundtrip_through_checkpoint(self, tmp_path, model, spectrum):
        path = tmp_path / "m.ckpt"
        save_checkpoint(str(path), model.store, model.metadata())
        store, blob = load_checkpoint(str(path))
        again = Model.from_checkpoint_blob(store, blob)
        a = again.encode_spectrum(spectrum).values
        b = model.encode_spectrum(spectrum).values
        assert np.array_equal(a, b)
