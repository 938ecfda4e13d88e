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

The encoder takes a list of spectra and returns one padded batch of
:class:`Padded` features, whose padding rows every attention masks out as
keys; a lone spectrum is a batch of one.

The AT decoder runs through an :class:`ATCache`: one built inside a whole
forward, or one that decoding builds once per spectrum and then extends by
one position per step.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
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

__all__ = ["ModelConfig", "Model", "NATFeatures", "Padded", "ATCache", "MAX_CHARGE", "pad_rows",
           "prefix_suffix_masses"]

MAX_CHARGE = 10

# Former ModelConfig fields, each at the one value it now has (paired encodings off, the
# wavelength bounds of the sinusoidal encoders). Older checkpoints store them.
_FIXED = {"paired_encoding": False, "mz_v_min": 0.001, "mz_v_max": 10000.0,
          "intensity_v_min": 1e-4, "intensity_v_max": 1.0}


@dataclass(frozen=True)
class ModelConfig:
    d: int = 64
    heads: int = 2
    hidden: int = 128
    enc_layers: int = 2
    at_layers: int = 2
    nat_layers: int = 2
    t_max: int = 24

    def __post_init__(self):
        if self.d <= 0 or self.d % 2:
            raise ValueError(f"d must be positive and even, got {self.d}")
        if self.heads <= 0 or self.d % self.heads:
            raise ValueError(f"heads must be positive and divide d: d {self.d}, heads {self.heads}")
        if min(self.hidden, self.enc_layers, self.at_layers, self.nat_layers, self.t_max) <= 0:
            raise ValueError("hidden, enc_layers, at_layers, nat_layers and t_max must be positive")

    @property
    def mz_encoder(self) -> FloatEncoderConfig:
        return FloatEncoderConfig(self.d, _FIXED["mz_v_min"], _FIXED["mz_v_max"])

    @property
    def intensity_encoder(self) -> FloatEncoderConfig:
        return FloatEncoderConfig(self.d, _FIXED["intensity_v_min"], _FIXED["intensity_v_max"])

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        d = dict(d)
        for key, fixed in _FIXED.items():
            stored = d.pop(key, fixed)
            if stored != fixed:
                raise ValueError(f"{key}={stored} is no longer supported; it is fixed at {fixed}")
        return cls(**d)


class NATFeatures(NamedTuple):
    """NAT decoder output: latents fed to cross-decoder attention, and logits."""

    latents: Tensor  # [t_max, d], or [B, t_max, d] for a batch
    logits: Tensor  # [t_max, nat_vocab], or [B, t_max, nat_vocab]


class Padded(NamedTuple):
    """Row sets of unequal length padded into one batch: ``rows`` [B, S, d]
    and ``mask`` [B, S], True on the real rows. Used as a cross-attention
    context, its padding rows are masked out as keys."""

    rows: Tensor
    mask: np.ndarray


def pad_rows(row_sets: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Arrays [n_b, ...] of unequal n_b as one zero-padded array
    [B, n_max, ...] and its mask [B, n_max], True on the real rows."""
    lengths = np.array([len(rows) for rows in row_sets])
    mask = np.arange(lengths.max()) < lengths[:, None]
    padded = np.zeros(mask.shape + row_sets[0].shape[1:], dtype=row_sets[0].dtype)
    padded[mask] = np.concatenate(row_sets)
    return padded, mask


def _keys(context: Tensor | Padded) -> tuple[Tensor, np.ndarray | None]:
    """A context's rows and the key mask [B, 1, S] its attention needs."""
    if isinstance(context, Padded):
        return context.rows, context.mask[:, None, :]
    return context, None


class ATCache:
    """What the AT decoder keeps of one decode context between calls: the
    augmented context and its key mask, each layer's cross-attention keys
    and values, projected once, and each layer's self-attention keys and
    values of the positions fed so far. Those are plain arrays [n, t, d],
    one row per prefix, so no graph chains from one call to the next.
    """

    def __init__(self, context: Tensor, key_mask: np.ndarray | None,
                 cross: list[tuple[Tensor, Tensor]]):
        self.context = context
        self.key_mask = key_mask
        self.cross = cross
        self.past: list[tuple[np.ndarray, np.ndarray]] = []  # per layer, once fed

    def extend(self, layer: int, k: Tensor, v: Tensor) -> tuple[Tensor, Tensor]:
        """The keys and values of ``layer`` over the cached positions and the
        new ones ``k``, ``v``; the new ones join the cache."""
        if layer < len(self.past):
            k = ad.concat([ad.constant(self.past[layer][0]), k], axis=-2)
            v = ad.concat([ad.constant(self.past[layer][1]), v], axis=-2)
            self.past[layer] = (k.values, v.values)
        else:
            self.past.append((k.values, v.values))
        return k, v

    def select(self, rows: np.ndarray) -> None:
        """Keep the cached prefixes ``rows``, in that order (a beam's parents)."""
        self.past = [(k[rows], v[rows]) for k, v in self.past]


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

    def _kv(self, partition: str, prefix: str, rows: Tensor) -> tuple[Tensor, Tensor]:
        """The keys and values an attention block projects from ``rows``."""
        return (ad.linear(rows, self._p(partition, f"{prefix}.wk"), self._p(partition, f"{prefix}.bk")),
                ad.linear(rows, self._p(partition, f"{prefix}.wv"), self._p(partition, f"{prefix}.bv")))

    def _cross_kv(self, partition: str, layers: int, context: Tensor) -> list[tuple[Tensor, Tensor]]:
        return [self._kv(partition, f"layer{i}.cross", context) for i in range(layers)]

    def _mha(self, partition: str, prefix: str, x: Tensor, kv: tuple[Tensor, Tensor],
             mask: np.ndarray | None) -> Tensor:
        q = ad.linear(x, self._p(partition, f"{prefix}.wq"), self._p(partition, f"{prefix}.bq"))
        out = ad.scaled_dot_attention(q, *kv, mask, self.cfg.heads)
        return ad.linear(out, self._p(partition, f"{prefix}.wo"), self._p(partition, f"{prefix}.bo"))

    def _ln(self, partition: str, prefix: str, x: Tensor) -> Tensor:
        return ad.layer_norm(x, self._p(partition, f"{prefix}.gain"), self._p(partition, f"{prefix}.bias"))

    def _ffn(self, partition: str, prefix: str, x: Tensor) -> Tensor:
        h = ad.gelu(ad.linear(x, self._p(partition, f"{prefix}.w1"), self._p(partition, f"{prefix}.b1")))
        return ad.linear(h, self._p(partition, f"{prefix}.w2"), self._p(partition, f"{prefix}.b2"))

    def _stack(self, partition: str, layers: int, x: Tensor, mask: np.ndarray | None,
               cross: list[tuple[Tensor, Tensor]] | None = None,
               key_mask: np.ndarray | None = None, past: ATCache | None = None) -> Tensor:
        """Pre-norm transformer stack: self-attention under ``mask``, over
        ``past``'s cached positions too when it is given (which then keeps
        this call's), then cross-attention to each layer's projected
        ``cross`` keys and values under ``key_mask`` when they are given (the
        decoders), then feed-forward; then the final norm."""
        for i in range(layers):
            normed = self._ln(partition, f"layer{i}.ln1", x)
            kv = self._kv(partition, f"layer{i}.self", normed)
            if past is not None:
                kv = past.extend(i, *kv)
            x = ad.add(x, self._mha(partition, f"layer{i}.self", normed, kv, mask))
            ffn_ln = "ln2"
            if cross is not None:
                normed = self._ln(partition, f"layer{i}.ln2", x)
                x = ad.add(x, self._mha(partition, f"layer{i}.cross", normed, cross[i], key_mask))
                ffn_ln = "ln3"
            normed = self._ln(partition, f"layer{i}.{ffn_ln}", x)
            x = ad.add(x, self._ffn(partition, f"layer{i}.ffn", normed))
        return self._ln(partition, "final_ln", x)

    # ------------------------------------------------------------------
    # encoder

    def encode_spectrum(self, spectrum: Spectrum | Sequence[Spectrum]) -> Tensor | Padded:
        """Encoder features of spectra as one padded batch [B, K_max+1, d]:
        the precursor row, then one row per peak, with no positions; padding
        rows are masked out as keys. A lone spectrum is a batch of one,
        returned as its features [k+1, d]."""
        batch = [spectrum] if isinstance(spectrum, Spectrum) else spectrum
        for s in batch:
            if not 1 <= s.charge <= MAX_CHARGE:
                raise ValueError(f"spectrum {s.spectrum_id!r}: charge {s.charge} outside "
                                 f"the supported range 1..{MAX_CHARGE}")
        peaks, real = pad_rows([embed_peak(s.peaks, self.cfg.mz_encoder, self.cfg.intensity_encoder,
                                           s.max_intensity) for s in batch])
        mask = np.concatenate([np.ones((len(real), 1), dtype=bool), real], axis=1)  # row 0: precursor
        charge_rows = ad.gather(self._p("enc", "charge_emb"), [[s.charge - 1] for s in batch])
        masses = encode_float([[s.neutral_mass] for s in batch], self.cfg.mz_encoder)
        x = ad.concat([ad.add(charge_rows, ad.constant(masses)), ad.constant(peaks)], axis=1)
        keys = None if real.all() else mask[:, None, :]  # all-True masks nothing: skip it
        features = self._stack("enc", self.cfg.enc_layers, x, keys)
        return features[0] if isinstance(spectrum, Spectrum) else Padded(features, mask)

    # ------------------------------------------------------------------
    # NAT decoder

    def nat_forward(self, enc_features: Tensor | Padded) -> NATFeatures:
        """Latents and logits of the ``t_max`` frames; features of a batch
        give one set of frames per row."""
        context, key_mask = _keys(enc_features)
        x = self._p("nat", "pos_emb")
        if context.ndim == 3:  # every row starts from the same position embeddings
            x = ad.add(ad.constant(np.zeros(context.shape[:1] + x.shape)), x)
        cross = self._cross_kv("nat", self.cfg.nat_layers, context)
        latents = self._stack("nat", self.cfg.nat_layers, x, None, cross, key_mask)
        logits = ad.linear(latents, self._p("nat", "out.w"), self._p("nat", "out.b"))
        return NATFeatures(latents, logits)

    # ------------------------------------------------------------------
    # AT decoder

    def at_cache(self, enc_features: Tensor | Padded, nat_latents: Tensor | None = None,
                 block_nat_grad: bool = True) -> ATCache:
        """A cache holding no positions yet, for ``at_forward`` on this context.

        The cross-attention context is the encoder features; with
        ``nat_latents`` it becomes [NAT latents + seg_nat ; encoder features
        + seg_enc], and gradient into the NAT latents is blocked unless
        ``block_nat_grad=False`` (the ablation switch). Each layer's keys and
        values of it are projected here, once.
        """
        context, key_mask = _keys(enc_features)
        if nat_latents is not None:
            nv = ad.stop_gradient(nat_latents) if block_nat_grad else nat_latents
            context = ad.concat(
                [
                    ad.add(nv, self._p("at", "seg_nat")),
                    ad.add(context, self._p("at", "seg_enc")),
                ],
                axis=-2,
            )
            if key_mask is not None:  # every NAT frame is a real key
                frames = np.ones(key_mask.shape[:-1] + nv.shape[-2:-1], dtype=bool)
                key_mask = np.concatenate([frames, key_mask], axis=-1)
        return ATCache(context, key_mask, self._cross_kv("at", self.cfg.at_layers, context))

    def at_forward(
        self,
        tokens: Sequence[int] | np.ndarray,
        masses: np.ndarray,
        enc_features: Tensor | Padded | None = None,
        nat_latents: Tensor | None = None,
        block_nat_grad: bool = True,
        cache: ATCache | None = None,
    ) -> Tensor:
        """Next-token logits [..., L, at_vocab] for [BOS, a_1, ...] inputs [..., L].

        ``masses`` [..., L, 2] holds one (prefix, suffix) pair per input
        position; both are embedded with the fixed m/z encoder and summed
        into the token embedding. One [S, d] context serves every leading
        index of ``tokens``, so K and V are projected once for all of them;
        a padded batch of contexts [B, S, d] serves tokens [B, L], one row
        each. Rows of unequal length are right-padded, so under the causal
        mask a real position never sees a padding one. The context is
        ``at_cache(enc_features, nat_latents, block_nat_grad)``.

        Given a ``cache`` instead of the features, ``tokens`` [n, 1] and
        ``masses`` [n, 1, 2] are the next position of the n prefixes the cache
        holds (of none, at first): it attends over the cached positions and
        itself, and joins the cache.
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
        if cache is None:
            if enc_features is None:
                raise ValueError("at_forward needs the encoder features or a cache")
            cache = self.at_cache(enc_features, nat_latents, block_nat_grad)
            causal = np.tril(np.ones((tokens.shape[-1],) * 2, dtype=bool))
        elif enc_features is not None or nat_latents is not None:
            raise ValueError("a cache already holds its context: pass no features with it")
        elif tokens.ndim != 2 or tokens.shape[1] != 1 or (
                cache.past and cache.past[0][0].shape[0] != tokens.shape[0]):
            raise ValueError(f"a cached step takes one new position per cached prefix, "
                             f"got tokens {tokens.shape}")
        else:
            causal = None  # the one new position sees every cached one

        mz_cfg = self.cfg.mz_encoder
        mass_rows = encode_float(masses[..., 0], mz_cfg) + encode_float(masses[..., 1], mz_cfg)
        x = ad.add(ad.gather(self._p("at", "tok_emb"), tokens), ad.constant(mass_rows))
        x = self._stack("at", self.cfg.at_layers, x, causal, cache.cross, cache.key_mask, cache)
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
