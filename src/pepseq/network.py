"""The hybrid sequencing network.

Three pieces share one width-``d`` embedding space and one pre-norm
transformer stack (``Model._stack``, without cross-attention in the encoder):

* a spectrum encoder: per-peak sinusoidal embeddings (m/z + normalized
  intensity) plus a precursor row (neutral-mass encoding + learned charge
  embedding), run through pre-norm self-attention blocks with no positional
  signal, so peak order cannot matter;
* an autoregressive (AT) decoder: token embeddings summed with sinusoidal
  encodings of the running prefix mass and the remaining suffix mass,
  causal self-attention, cross-attention to the encoder, feed-forward;
* a non-autoregressive (NAT) decoder: its only input is a learned position
  embedding table of length ``t_max`` (its signature admits no target
  tokens), unmasked self-attention, cross-attention, feed-forward, read out
  as frame-wise CTC logits over residues + blank.

After joint training the AT decoder can be fine-tuned with an augmented
cross-attention context: the NAT latents (gradient-blocked, plus a learned
segment embedding) concatenated with the encoder features (plus their own
segment embedding). Both segment vectors belong to the AT partition.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .params import ParameterStore
from .spectra import (
    WATER,
    AminoAcidTable,
    FloatEncoderConfig,
    Spectrum,
    embed_peak,
    encode_float,
)

__all__ = ["ModelConfig", "Model", "NATFeatures", "MAX_CHARGE", "prefix_suffix_masses"]

MAX_CHARGE = 10


@dataclass(frozen=True)
class ModelConfig:
    d: int = 64
    heads: int = 2
    hidden: int = 128
    enc_layers: int = 2
    at_layers: int = 2
    nat_layers: int = 2
    t_max: int = 24
    # Wavelength bounds of the fixed sinusoidal encoders.
    mz_v_min: float = 0.001
    mz_v_max: float = 10000.0
    intensity_v_min: float = 1e-4
    intensity_v_max: float = 1.0

    def __post_init__(self):
        if self.d <= 0 or self.d % 2:
            raise ValueError(f"d must be positive and even, got {self.d}")
        if self.heads <= 0 or self.d % self.heads:
            raise ValueError(f"heads must be positive and divide d: d {self.d}, heads {self.heads}")
        if min(self.hidden, self.enc_layers, self.at_layers, self.nat_layers, self.t_max) <= 0:
            raise ValueError("hidden, enc_layers, at_layers, nat_layers and t_max must be positive")

    @property
    def mz_encoder(self) -> FloatEncoderConfig:
        return FloatEncoderConfig(self.d, self.mz_v_min, self.mz_v_max)

    @property
    def intensity_encoder(self) -> FloatEncoderConfig:
        return FloatEncoderConfig(self.d, self.intensity_v_min, self.intensity_v_max)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        d = dict(d)
        if d.pop("paired_encoding", False):  # removed switch; older checkpoints store false
            raise ValueError("paired sinusoidal encodings are no longer supported")
        return cls(**d)


class NATFeatures(NamedTuple):
    """NAT decoder output: latents fed to cross-decoder attention, and logits."""

    latents: Tensor  # [t_max, d]
    logits: Tensor  # [t_max, nat_vocab]


def prefix_suffix_masses(residue_ids: Sequence[int] | np.ndarray, neutral_mass: float,
                         table: AminoAcidTable) -> np.ndarray:
    """Per-step (prefix, suffix) masses for the AT input sequence [BOS, a_1..a_n].

    Maps residue ids [..., n] to [..., n+1, 2]. Step t sees the prefix of
    residues emitted so far (zero at BOS), summed left to right, and the
    suffix budget ``neutral_mass - water - prefix``: what remains to reach
    the precursor. The suffix may go negative for a hypothesis that
    overshoots; the encoding accepts that.
    """
    ids = np.asarray(residue_ids, dtype=np.intp)
    steps = np.cumsum(table.masses[ids], axis=-1)
    prefix = np.concatenate([np.zeros(ids.shape[:-1] + (1,)), steps], axis=-1)
    return np.stack([prefix, (neutral_mass - WATER) - prefix], axis=-1)


def _init(rng: np.random.Generator, *shape: int) -> np.ndarray:
    return rng.normal(0.0, 0.02, size=shape)


class Model:
    """Configuration + parameter store + forward passes."""

    def __init__(self, cfg: ModelConfig, table: AminoAcidTable, store: ParameterStore):
        self.cfg = cfg
        self.table = table
        self.store = store
        self.finetuned = False  # flips when stage-2 training has run

    # ------------------------------------------------------------------
    # construction

    @classmethod
    def build(cls, cfg: ModelConfig, table: AminoAcidTable, seed: int) -> "Model":
        rng = np.random.default_rng(seed)
        store = ParameterStore()
        d, hid = cfg.d, cfg.hidden

        def attn_block(partition: str, prefix: str) -> None:
            for name in ("wq", "wk", "wv", "wo"):
                store.add(partition, f"{prefix}.{name}", _init(rng, d, d))
            for name in ("bq", "bk", "bv", "bo"):
                store.add(partition, f"{prefix}.{name}", np.zeros(d))

        def ln(partition: str, prefix: str) -> None:
            store.add(partition, f"{prefix}.gain", np.ones(d))
            store.add(partition, f"{prefix}.bias", np.zeros(d))

        def ffn(partition: str, prefix: str) -> None:
            store.add(partition, f"{prefix}.w1", _init(rng, d, hid))
            store.add(partition, f"{prefix}.b1", np.zeros(hid))
            store.add(partition, f"{prefix}.w2", _init(rng, hid, d))
            store.add(partition, f"{prefix}.b2", np.zeros(d))

        # A stack with a ``vocab`` is a decoder: cross-attention and a read-out.
        def stack(partition: str, layers: int, vocab: int | None = None) -> None:
            for i in range(layers):
                ln(partition, f"layer{i}.ln1")
                attn_block(partition, f"layer{i}.self")
                ln(partition, f"layer{i}.ln2")
                if vocab is not None:
                    attn_block(partition, f"layer{i}.cross")
                    ln(partition, f"layer{i}.ln3")
                ffn(partition, f"layer{i}.ffn")
            ln(partition, "final_ln")
            if vocab is not None:
                store.add(partition, "out.w", _init(rng, d, vocab))
                store.add(partition, "out.b", np.zeros(vocab))

        store.add("enc", "charge_emb", _init(rng, MAX_CHARGE, d))
        stack("enc", cfg.enc_layers)

        store.add("at", "tok_emb", _init(rng, table.at_vocab_size, d))
        stack("at", cfg.at_layers, table.at_vocab_size)
        store.add("at", "seg_nat", _init(rng, d))
        store.add("at", "seg_enc", _init(rng, d))

        store.add("nat", "pos_emb", _init(rng, cfg.t_max, d))
        stack("nat", cfg.nat_layers, table.nat_vocab_size)

        return cls(cfg, table, store)

    # ------------------------------------------------------------------
    # shared sublayers

    def _p(self, partition: str, name: str) -> Tensor:
        return self.store.get(partition, name)

    def _mha(self, partition: str, prefix: str, x: Tensor, context: Tensor,
             mask: np.ndarray | None) -> Tensor:
        q = ad.linear(x, self._p(partition, f"{prefix}.wq"), self._p(partition, f"{prefix}.bq"))
        k = ad.linear(context, self._p(partition, f"{prefix}.wk"), self._p(partition, f"{prefix}.bk"))
        v = ad.linear(context, self._p(partition, f"{prefix}.wv"), self._p(partition, f"{prefix}.bv"))
        out = ad.scaled_dot_attention(q, k, v, mask, self.cfg.heads)
        return ad.linear(out, self._p(partition, f"{prefix}.wo"), self._p(partition, f"{prefix}.bo"))

    def _ln(self, partition: str, prefix: str, x: Tensor) -> Tensor:
        return ad.layer_norm(x, self._p(partition, f"{prefix}.gain"), self._p(partition, f"{prefix}.bias"))

    def _ffn(self, partition: str, prefix: str, x: Tensor) -> Tensor:
        h = ad.gelu(ad.linear(x, self._p(partition, f"{prefix}.w1"), self._p(partition, f"{prefix}.b1")))
        return ad.linear(h, self._p(partition, f"{prefix}.w2"), self._p(partition, f"{prefix}.b2"))

    def _stack(self, partition: str, layers: int, x: Tensor, mask: np.ndarray | None,
               context: Tensor | None = None) -> Tensor:
        """Pre-norm transformer stack: self-attention under ``mask``, then
        cross-attention to ``context`` when one is given (the decoders),
        then feed-forward; then the final norm."""
        for i in range(layers):
            normed = self._ln(partition, f"layer{i}.ln1", x)
            x = ad.add(x, self._mha(partition, f"layer{i}.self", normed, normed, mask))
            ffn_ln = "ln2"
            if context is not None:
                normed = self._ln(partition, f"layer{i}.ln2", x)
                x = ad.add(x, self._mha(partition, f"layer{i}.cross", normed, context, None))
                ffn_ln = "ln3"
            normed = self._ln(partition, f"layer{i}.{ffn_ln}", x)
            x = ad.add(x, self._ffn(partition, f"layer{i}.ffn", normed))
        return self._ln(partition, "final_ln", x)

    # ------------------------------------------------------------------
    # encoder

    def spectrum_rows(self, spectrum: Spectrum) -> tuple[Tensor, np.ndarray]:
        """Input rows for the encoder: precursor row 0, then one row per peak.

        Returns (precursor_row [1, d] including the learned charge embedding,
        peak_rows [k, d] as plain float arrays).
        """
        if not 1 <= spectrum.charge <= MAX_CHARGE:
            raise ValueError(
                f"spectrum {spectrum.spectrum_id!r}: charge {spectrum.charge} outside "
                f"the supported range 1..{MAX_CHARGE}"
            )
        mz_cfg = self.cfg.mz_encoder
        peak_rows = embed_peak(spectrum.peaks, mz_cfg, self.cfg.intensity_encoder, spectrum.max_intensity)
        mass_row = ad.constant(encode_float(spectrum.neutral_mass, mz_cfg))
        charge_row = ad.gather(self._p("enc", "charge_emb"), [spectrum.charge - 1])
        return ad.add(charge_row, mass_row), peak_rows

    def run_encoder(self, rows: Tensor) -> Tensor:
        """Pre-norm self-attention stack over [k+1, d] rows; no positions."""
        return self._stack("enc", self.cfg.enc_layers, rows, None)

    def encode_spectrum(self, spectrum: Spectrum) -> Tensor:
        precursor_row, peak_rows = self.spectrum_rows(spectrum)
        x = ad.concat([precursor_row, ad.constant(peak_rows)], axis=0)
        return self.run_encoder(x)

    # ------------------------------------------------------------------
    # NAT decoder

    def nat_forward(self, enc_features: Tensor) -> NATFeatures:
        latents = self._stack("nat", self.cfg.nat_layers, self._p("nat", "pos_emb"), None, enc_features)
        logits = ad.linear(latents, self._p("nat", "out.w"), self._p("nat", "out.b"))
        return NATFeatures(latents, logits)

    # ------------------------------------------------------------------
    # AT decoder

    def at_forward(
        self,
        tokens: Sequence[int] | np.ndarray,
        masses: np.ndarray,
        enc_features: Tensor,
        nat_latents: Tensor | None = None,
        block_nat_grad: bool = True,
    ) -> Tensor:
        """Next-token logits [..., L, at_vocab] for [BOS, a_1, ...] inputs [..., L].

        ``masses`` [..., L, 2] holds one (prefix, suffix) pair per input
        position; both are embedded with the fixed m/z encoder and summed
        into the token embedding. One [S, d] context serves every leading
        index of ``tokens``, so K and V are projected once for all of them.
        With ``nat_latents`` the cross-attention context becomes [NAT
        latents + seg_nat ; encoder features + seg_enc]; gradient into the
        NAT latents is blocked unless ``block_nat_grad=False`` (the
        ablation switch).
        """
        tokens = np.asarray(tokens, dtype=np.intp)
        masses = np.asarray(masses, dtype=np.float64)
        if masses.shape != tokens.shape + (2,):
            raise ValueError(
                f"masses must be {tokens.shape + (2,)} (prefix, suffix) pairs, got {masses.shape}"
            )
        vocab = self.table.at_vocab_size
        if np.any((tokens < 0) | (tokens >= vocab)):
            raise ValueError(f"token id outside AT vocabulary of size {vocab}")

        mz_cfg = self.cfg.mz_encoder
        mass_rows = encode_float(masses[..., 0], mz_cfg) + encode_float(masses[..., 1], mz_cfg)
        x = ad.add(ad.gather(self._p("at", "tok_emb"), tokens), ad.constant(mass_rows))

        if nat_latents is None:
            context = enc_features
        else:
            nv = ad.stop_gradient(nat_latents) if block_nat_grad else nat_latents
            context = ad.concat(
                [
                    ad.add(nv, self._p("at", "seg_nat")),
                    ad.add(enc_features, self._p("at", "seg_enc")),
                ],
                axis=-2,
            )

        causal = np.tril(np.ones((tokens.shape[-1],) * 2, dtype=bool))
        x = self._stack("at", self.cfg.at_layers, x, causal, context)
        return ad.linear(x, self._p("at", "out.w"), self._p("at", "out.b"))

    # ------------------------------------------------------------------
    # persistence

    def metadata(self, extra: dict | None = None) -> dict:
        blob = {
            "model": self.cfg.to_dict(),
            "vocabulary": self.table.to_dict(),
            "finetuned": self.finetuned,
        }
        if extra:
            blob.update(extra)
        return blob

    @classmethod
    def from_checkpoint_blob(cls, store: ParameterStore, blob: dict) -> "Model":
        cfg = ModelConfig.from_dict(blob["model"])
        table = AminoAcidTable.from_dict(blob["vocabulary"])
        model = cls(cfg, table, store)
        model.finetuned = bool(blob.get("finetuned", False))
        return model
