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
from typing import Callable, NamedTuple, Sequence

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
    key mask of the augmented context, each layer's cross-attention keys
    and values, projected once, and each layer's self-attention keys and
    values of the positions fed so far. Those are plain arrays [n, t, d],
    one row per prefix, so no graph chains from one call to the next.
    """

    def __init__(self, key_mask: np.ndarray | None, cross: list[tuple[Tensor, Tensor]]):
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


def _layout(cfg: ModelConfig, table: AminoAcidTable, make: Callable[..., Tensor]) -> dict:
    """Every parameter of the model, declared once, in registration order.

    ``make(partition, name, shape, fill)`` gives each one's tensor; ``fill``
    is "normal" (N(0, 0.02)), "zeros" or "ones". The tensors come back as a
    tree: per partition, its embeddings and its stack, a list of layer blocks
    ("ln1", "self", "ln2", ["cross", "ln3"], "ffn"), then "final_ln" and, in
    a decoder, "out". Norms are (gain, bias), feed-forwards (w1, b1, w2, b2),
    read-outs (w, b) and attentions dicts of their projections "wq" .. "bo".
    """
    d, hid = cfg.d, cfg.hidden

    # A stack with a ``vocab`` is a decoder: cross-attention and a read-out.
    def stack(partition: str, layers: int, vocab: int | None = None) -> dict:
        def p(name: str, *shape: int, fill: str = "normal") -> Tensor:
            return make(partition, name, shape, fill)

        def attn(prefix: str) -> dict:
            return ({n: p(f"{prefix}.{n}", d, d) for n in ("wq", "wk", "wv", "wo")}
                    | {n: p(f"{prefix}.{n}", d, fill="zeros") for n in ("bq", "bk", "bv", "bo")})

        def ln(prefix: str) -> tuple[Tensor, Tensor]:
            return p(f"{prefix}.gain", d, fill="ones"), p(f"{prefix}.bias", d, fill="zeros")

        def block(i: int) -> dict:
            b = {"ln1": ln(f"layer{i}.ln1"), "self": attn(f"layer{i}.self"), "ln2": ln(f"layer{i}.ln2")}
            if vocab is not None:
                b |= {"cross": attn(f"layer{i}.cross"), "ln3": ln(f"layer{i}.ln3")}
            b["ffn"] = (p(f"layer{i}.ffn.w1", d, hid), p(f"layer{i}.ffn.b1", hid, fill="zeros"),
                        p(f"layer{i}.ffn.w2", hid, d), p(f"layer{i}.ffn.b2", d, fill="zeros"))
            return b

        tree = {"layers": [block(i) for i in range(layers)], "final_ln": ln("final_ln")}
        if vocab is not None:
            tree["out"] = (p("out.w", d, vocab), p("out.b", vocab, fill="zeros"))
        return tree

    enc = {"charge_emb": make("enc", "charge_emb", (MAX_CHARGE, d), "normal"),
           **stack("enc", cfg.enc_layers)}
    at = {"tok_emb": make("at", "tok_emb", (table.at_vocab_size, d), "normal"),
          **stack("at", cfg.at_layers, table.at_vocab_size),
          **{seg: make("at", seg, (d,), "normal") for seg in ("seg_nat", "seg_enc")}}
    nat = {"pos_emb": make("nat", "pos_emb", (cfg.t_max, d), "normal"),
           **stack("nat", cfg.nat_layers, table.nat_vocab_size)}
    return {"enc": enc, "at": at, "nat": nat}


class Model:
    """Configuration + parameter store + forward passes.

    ``params`` holds the store's own tensors as :func:`_layout`'s tree, which
    the forwards read, so freezing, in-place edits and checkpoints see exactly
    the tensors the forwards use. A store with a parameter that the layout of
    ``cfg`` lacks, or without one it declares, or of another shape, raises
    ValueError.
    """

    def __init__(self, cfg: ModelConfig, table: AminoAcidTable, store: ParameterStore):
        self.cfg = cfg
        self.table = table
        self.store = store
        self.finetuned = False  # flips when stage-2 training has run
        unbound = dict(store.items())

        def bind(partition: str, name: str, shape: tuple[int, ...], fill: str) -> Tensor:
            key = f"{partition}/{name}"
            t = unbound.pop(key, None)
            if t is None:
                raise ValueError(f"parameter {key!r} is missing")
            if t.shape != shape:
                raise ValueError(f"parameter {key!r} has shape {t.shape}, the model config needs {shape}")
            return t

        self.params = _layout(cfg, table, bind)
        if unbound:
            names = ", ".join(map(repr, unbound))
            raise ValueError(f"parameters the model config does not declare: {names}")

    # ------------------------------------------------------------------
    # construction

    @classmethod
    def build(cls, cfg: ModelConfig, table: AminoAcidTable, seed: int) -> "Model":
        rng = np.random.default_rng(seed)
        store = ParameterStore()
        fills = {"zeros": np.zeros, "ones": np.ones,
                 "normal": lambda shape: rng.normal(0.0, 0.02, size=shape)}
        _layout(cfg, table, lambda partition, name, shape, fill:
                store.add(partition, name, fills[fill](shape)))
        return cls(cfg, table, store)

    # ------------------------------------------------------------------
    # shared sublayers

    @staticmethod
    def _kv(block: dict, rows: Tensor) -> tuple[Tensor, Tensor]:
        """The keys and values an attention block projects from ``rows``."""
        return ad.linear(rows, block["wk"], block["bk"]), ad.linear(rows, block["wv"], block["bv"])

    def _mha(self, block: dict, x: Tensor, kv: tuple[Tensor, Tensor], mask: np.ndarray | None) -> Tensor:
        q = ad.linear(x, block["wq"], block["bq"])
        out = ad.scaled_dot_attention(q, *kv, mask, self.cfg.heads)
        return ad.linear(out, block["wo"], block["bo"])

    def _stack(self, tree: dict, x: Tensor, mask: np.ndarray | None,
               cross: list[tuple[Tensor, Tensor]] | None = None,
               key_mask: np.ndarray | None = None, past: ATCache | None = None) -> Tensor:
        """Pre-norm transformer stack: self-attention under ``mask``, over
        ``past``'s cached positions too when it is given (which then keeps
        this call's), then cross-attention to each layer's projected
        ``cross`` keys and values under ``key_mask`` when they are given (the
        decoders), then feed-forward; then the final norm."""
        for i, block in enumerate(tree["layers"]):
            normed = ad.layer_norm(x, *block["ln1"])
            kv = self._kv(block["self"], normed)
            if past is not None:
                kv = past.extend(i, *kv)
            x = ad.add(x, self._mha(block["self"], normed, kv, mask))
            ffn_ln = "ln2"
            if cross is not None:
                normed = ad.layer_norm(x, *block["ln2"])
                x = ad.add(x, self._mha(block["cross"], normed, cross[i], key_mask))
                ffn_ln = "ln3"
            normed = ad.layer_norm(x, *block[ffn_ln])
            w1, b1, w2, b2 = block["ffn"]
            x = ad.add(x, ad.linear(ad.gelu(ad.linear(normed, w1, b1)), w2, b2))
        return ad.layer_norm(x, *tree["final_ln"])

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
        charge_rows = ad.gather(self.params["enc"]["charge_emb"], [[s.charge - 1] for s in batch])
        masses = encode_float([[s.neutral_mass] for s in batch], self.cfg.mz_encoder)
        x = ad.concat([ad.add(charge_rows, ad.constant(masses)), ad.constant(peaks)], axis=1)
        keys = None if real.all() else mask[:, None, :]  # all-True masks nothing: skip it
        features = self._stack(self.params["enc"], x, keys)
        return features[0] if isinstance(spectrum, Spectrum) else Padded(features, mask)

    # ------------------------------------------------------------------
    # NAT decoder

    def nat_forward(self, enc_features: Tensor | Padded) -> NATFeatures:
        """Latents and logits of the ``t_max`` frames; features of a batch
        give one set of frames per row."""
        context, key_mask = _keys(enc_features)
        tree = self.params["nat"]
        x = tree["pos_emb"]
        if context.ndim == 3:  # every row starts from the same position embeddings
            x = ad.add(ad.constant(np.zeros(context.shape[:1] + x.shape)), x)
        cross = [self._kv(block["cross"], context) for block in tree["layers"]]
        latents = self._stack(tree, x, None, cross, key_mask)
        logits = ad.linear(latents, *tree["out"])
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
        tree = self.params["at"]
        context, key_mask = _keys(enc_features)
        if nat_latents is not None:
            nv = ad.stop_gradient(nat_latents) if block_nat_grad else nat_latents
            context = ad.concat([ad.add(nv, tree["seg_nat"]), ad.add(context, tree["seg_enc"])], axis=-2)
            if key_mask is not None:  # every NAT frame is a real key
                frames = np.ones(key_mask.shape[:-1] + nv.shape[-2:-1], dtype=bool)
                key_mask = np.concatenate([frames, key_mask], axis=-1)
        return ATCache(key_mask, [self._kv(block["cross"], context) for block in tree["layers"]])

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
            raise ValueError(f"masses must be {tokens.shape + (2,)} (prefix, suffix) pairs, "
                             f"got {masses.shape}")
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

        tree = self.params["at"]
        mass_rows = encode_float(masses, self.cfg.mz_encoder).sum(axis=-2)
        x = ad.add(ad.gather(tree["tok_emb"], tokens), ad.constant(mass_rows))
        x = self._stack(tree, x, causal, cache.cross, cache.key_mask, cache)
        return ad.linear(x, *tree["out"])

    # ------------------------------------------------------------------
    # persistence

    def metadata(self, extra: dict | None = None) -> dict:
        return {"model": self.cfg.to_dict(), "vocabulary": self.table.to_dict(),
                "finetuned": self.finetuned, **(extra or {})}

    @classmethod
    def from_checkpoint_blob(cls, store: ParameterStore, blob: dict) -> "Model":
        cfg = ModelConfig.from_dict(blob["model"])
        table = AminoAcidTable.from_dict(blob["vocabulary"])
        model = cls(cfg, table, store)
        model.finetuned = bool(blob.get("finetuned", False))
        return model
