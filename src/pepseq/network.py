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

Every sinusoidal encoding is ``spectra.encode_float`` at width ``d``, over the
fixed ``MZ_WAVELENGTHS`` for m/z and masses and ``INTENSITY_WAVELENGTHS`` for
intensities.

The encoder takes a list of spectra and returns one padded batch of
:class:`Padded` features, whose padding rows every attention masks out as
keys; a lone spectrum is a batch of one.

A batch that holds padding, spectra of unequal peak counts in the encoder or
PAD among the AT's tokens (the training batches), runs its stack on one
packed block [N, d] of its N real rows: layer norms, linears, GELUs and
residual adds see no padding row. Only attention reads the padded [B, S, d]
layout: :func:`autodiff.unpack` places its queries, keys and values there,
with zeros at the padding rows, and boolean slicing packs its output again.
The encoder unpacks its features once into :class:`Padded`, and the AT its
logits. A batch without padding, as every decode forward is, runs on its
[B, S, d] as it is.

Both decoders read their cross-attention context from an :class:`ATCache`,
built once per forward or, when decoding, once per spectrum and then extended
by the positions each forward feeds: one per step, or greedy's draft at once,
which the cache drops again past the length where the decode leaves it. Only
decodes, on ``model.arrays``, extend a cache, so its cached positions are
arrays; a training forward feeds a fresh cache once.

The forwards are written once against an op set, ``Model._ops``: the graph
ops of :mod:`autodiff` over Tensors, for training, and ``model.arrays``, a
view of the model whose op set is :class:`autodiff.Kernels` and whose
parameters are the store's arrays, for decoding. The view builds no Tensor
and computes the graph forwards' values bit for bit.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .params import ParameterStore
from .spectra import (
    INTENSITY_WAVELENGTHS,
    MZ_WAVELENGTHS,
    WATER,
    AminoAcidTable,
    Spectrum,
    embed_peak,
    encode_float,
)

__all__ = ["ModelConfig", "Model", "NATFeatures", "Padded", "ATCache", "MAX_CHARGE", "check_spectrum",
           "pad_rows", "prefix_suffix_masses"]

MAX_CHARGE = 10

# Former ModelConfig fields, each at the one value it now has (paired encodings off, the
# wavelength bounds of the sinusoidal encoders). Older checkpoints store them.
_FIXED = {"paired_encoding": False,
          "mz_v_min": MZ_WAVELENGTHS[0], "mz_v_max": MZ_WAVELENGTHS[1],
          "intensity_v_min": INTENSITY_WAVELENGTHS[0], "intensity_v_max": INTENSITY_WAVELENGTHS[1]}


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
    def max_residues(self) -> int:
        """The longest target the ``t_max`` NAT frames fit: t_max - 2."""
        return self.t_max - 2

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        """The config a checkpoint stores; an unknown field or a value that
        is not an integer raises ValueError naming the field."""
        d = dict(d)
        for key, fixed in _FIXED.items():
            stored = d.pop(key, fixed)
            if stored != fixed:
                raise ValueError(f"{key}={stored} is no longer supported; it is fixed at {fixed}")
        names = {f.name for f in fields(cls)}
        for key, value in d.items():
            if key not in names:
                raise ValueError(f"unknown model field {key!r}")
            if type(value) is not int:
                raise ValueError(f"model field {key!r} must be an integer, got {value!r}")
        return cls(**d)


def check_spectrum(spectrum: Spectrum, max_residues: int | None = None) -> None:
    """Raise a ValueError naming ``spectrum`` if the model cannot read it."""
    name, charge = f"spectrum {spectrum.spectrum_id!r}", spectrum.charge
    if not 1 <= charge <= MAX_CHARGE:
        raise ValueError(f"{name} has charge {charge}; the model supports 1..{MAX_CHARGE}")
    if not np.isfinite(spectrum.neutral_mass):
        raise ValueError(f"{name}: m/z {spectrum.precursor_mz} at charge {charge} has no finite mass")
    if spectrum.max_intensity <= 0:
        raise ValueError(f"{name} has no peak with positive intensity")
    if max_residues is not None and len(spectrum.truth or ()) > max_residues:
        raise ValueError(f"{name}: {len(spectrum.truth)} target residues exceed t_max - 2 = {max_residues}")


class NATFeatures(NamedTuple):
    """NAT decoder output: latents fed to cross-decoder attention, and logits;
    Tensors, or arrays from ``model.arrays``."""

    latents: Tensor  # [t_max, d], or [B, t_max, d] for a batch
    logits: Tensor  # [t_max, nat_vocab], or [B, t_max, nat_vocab]


class Padded(NamedTuple):
    """Row sets of unequal length padded into one batch: ``rows`` [B, S, d]
    and ``mask`` [B, S], True on the real rows. The padding rows are zeros:
    the encoder unpacks its real rows into them, and :func:`pad_rows` pads
    with zeros. Used as a cross-attention context, its padding rows are
    masked out as keys. The rows are a Tensor, or an array from
    ``model.arrays``."""

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
    """A decoder's cache: the key mask of its cross-attention context, each
    layer's cross-attention keys and values, projected once, and each
    layer's self-attention keys and values of the positions fed so far,
    [n, t, d], one row per prefix. Only ``model.arrays`` steps a cache,
    joining each call's new positions to the cached arrays; a training
    forward feeds a fresh cache once, so no graph outlives the forward.
    """

    def __init__(self, key_mask: np.ndarray | None, cross: list[tuple]):
        self.key_mask = key_mask
        self.cross = cross
        self.past: list[tuple] = []  # per layer, once fed

    def extend(self, layer: int, k, v) -> tuple:
        """The keys and values of ``layer`` over the cached positions and the
        new ones ``k``, ``v``; the new ones join the cache."""
        if layer < len(self.past):
            k = np.concatenate([self.past[layer][0], k], axis=-2)
            v = np.concatenate([self.past[layer][1], v], axis=-2)
            self.past[layer] = (k, v)
        else:
            self.past.append((k, v))
        return k, v

    def select(self, rows: np.ndarray, length: int | None = None) -> None:
        """Keep the cached prefixes ``rows``, in that order (a beam's parents),
        and with ``length`` only their first ``length`` positions. Rows
        0..m-1 in order, always so for greedy, are a slice: keeping them,
        cut or not, copies nothing."""
        if list(rows) == list(range(len(rows))):  # on a few rows, a tenth of np.array_equal's cost
            rows = slice(len(rows))
        self.past = [(k[rows, :length], v[rows, :length]) for k, v in self.past]


def prefix_suffix_masses(residue_ids: Sequence[int] | np.ndarray, neutral_mass: float,
                         table: AminoAcidTable) -> np.ndarray:
    """Per-step (prefix, suffix) masses for the AT input sequence [BOS, a_1..a_n].

    Maps residue ids [..., n] to [..., n+1, 2]. Step t sees the prefix of
    residues emitted so far (zero at BOS), summed left to right, and the
    suffix budget ``neutral_mass - water - prefix``: what remains to reach
    the precursor. The suffix may go negative for a hypothesis that
    overshoots; the encoding accepts that. Cached decode steps carry each
    prefix as a running sum instead, adding in the same order.
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

    The forwards run the op set ``_ops``: graph ops over Tensors here, array
    kernels in ``arrays``, this model's :class:`_ArrayView`.
    """

    _ops = ad

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
        self.arrays = _ArrayView(self)

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

    def _kv(self, block: dict, rows):
        """The keys and values an attention block projects from ``rows``."""
        ops = self._ops
        return ops.linear(rows, block["wk"], block["bk"]), ops.linear(rows, block["wv"], block["bv"])

    def _mha(self, block: dict, x, kv: tuple, mask: np.ndarray | None,
             packed: np.ndarray | None = None):
        """Attention of ``x``'s queries over ``kv`` under ``mask``; with
        ``packed`` (see :meth:`_stack`), the queries attend unpacked and the
        outputs are packed again."""
        ops = self._ops
        q = ops.linear(x, block["wq"], block["bq"])
        if packed is not None:
            q = ops.unpack(q, packed)
        out = ops.scaled_dot_attention(q, *kv, mask, self.cfg.heads)
        if packed is not None:
            out = out[packed]
        return ops.linear(out, block["wo"], block["bo"])

    def _context(self, tree: dict, rows, key_mask: np.ndarray | None) -> ATCache:
        """A cache holding no positions, over the context ``rows`` under
        ``key_mask``: each ``tree`` layer's cross keys and values, projected once."""
        return ATCache(key_mask, [self._kv(block["cross"], rows) for block in tree["layers"]])

    def _stack(self, tree: dict, x, mask: np.ndarray | None, cache: ATCache | None = None,
               packed: np.ndarray | None = None):
        """Pre-norm transformer stack: self-attention under ``mask``; with a
        ``cache`` (the decoders), over its cached positions too, which then
        keeps this call's, and cross-attention to its context; then
        feed-forward; then the final norm.

        With ``packed``, a boolean [B, S], ``x`` is the packed block [N, d]
        of a padded batch's real rows, ``x[packed]`` of its [B, S, d]: every
        row-wise layer runs on the N rows alone, and attention reads its
        queries, keys and values unpacked, with zeros at the padding rows."""
        ops = self._ops
        for i, block in enumerate(tree["layers"]):
            normed = ops.layer_norm(x, *block["ln1"])
            kv = self._kv(block["self"], normed)
            if packed is not None:
                kv = tuple(ops.unpack(t, packed) for t in kv)
            if cache is not None:
                kv = cache.extend(i, *kv)
            x = ops.add(x, self._mha(block["self"], normed, kv, mask, packed))
            ffn_ln = "ln2"
            if cache is not None:
                normed = ops.layer_norm(x, *block["ln2"])
                x = ops.add(x, self._mha(block["cross"], normed, cache.cross[i], cache.key_mask, packed))
                ffn_ln = "ln3"
            normed = ops.layer_norm(x, *block[ffn_ln])
            w1, b1, w2, b2 = block["ffn"]
            x = ops.add(x, ops.linear(ops.gelu(ops.linear(normed, w1, b1)), w2, b2))
        return ops.layer_norm(x, *tree["final_ln"])

    # ------------------------------------------------------------------
    # encoder

    def encode_spectrum(self, spectrum: Spectrum | Sequence[Spectrum]) -> Tensor | Padded:
        """Encoder features of spectra as one padded batch [B, K_max+1, d]:
        the precursor row, then one row per peak, with no positions; padding
        rows are zeros, masked out as keys. A lone spectrum is a batch of
        one, returned as its features [k+1, d].

        A batch of unequal peak counts runs its stack on its real rows
        alone (``_stack``'s ``packed``), unpacked once at the end; a batch
        with no padding runs on [B, K+1, d] as it is."""
        ops = self._ops
        batch = [spectrum] if isinstance(spectrum, Spectrum) else spectrum
        for s in batch:
            check_spectrum(s)
        peaks, real = pad_rows([embed_peak(s.peaks, self.cfg.d, s.max_intensity) for s in batch])
        mask = np.concatenate([np.ones((len(real), 1), dtype=bool), real], axis=1)  # row 0: precursor
        charge_rows = ops.gather(self.params["enc"]["charge_emb"], [[s.charge - 1] for s in batch])
        masses = encode_float([[s.neutral_mass] for s in batch], self.cfg.d)
        x = ops.concat([ops.add(charge_rows, ops.constant(masses)), ops.constant(peaks)], axis=1)
        if real.all():  # no padding: no key mask and nothing to pack
            features = self._stack(self.params["enc"], x, None)
        else:
            features = self._stack(self.params["enc"], x[mask], mask[:, None, :], packed=mask)
            features = ops.unpack(features, mask)
        return features[0] if isinstance(spectrum, Spectrum) else Padded(features, mask)

    # ------------------------------------------------------------------
    # NAT decoder

    def nat_forward(self, enc_features: Tensor | Padded) -> NATFeatures:
        """Latents and logits of the ``t_max`` frames; features of a batch
        give one set of frames per row."""
        ops = self._ops
        rows, key_mask = _keys(enc_features)
        tree = self.params["nat"]
        x = tree["pos_emb"]
        if rows.ndim == 3:  # every row starts from the same position embeddings
            x = ops.add(ops.constant(np.zeros(rows.shape[:1] + x.shape)), x)
        latents = self._stack(tree, x, None, self._context(tree, rows, key_mask))
        logits = ops.linear(latents, *tree["out"])
        return NATFeatures(latents, logits)

    # ------------------------------------------------------------------
    # AT decoder

    def at_cache(self, enc_features: Tensor | Padded, nat_latents: Tensor | None = None,
                 block_nat_grad: bool = True) -> ATCache:
        """A cache holding no positions yet, for ``at_forward`` on this context.

        The cross-attention context is the encoder features; with
        ``nat_latents`` it becomes [NAT latents + seg_nat ; encoder features
        + seg_enc], and gradient into the NAT latents is blocked unless
        ``block_nat_grad=False`` (the ablation switch).
        """
        ops = self._ops
        tree = self.params["at"]
        rows, key_mask = _keys(enc_features)
        if nat_latents is not None:
            nv = ops.stop_gradient(nat_latents) if block_nat_grad else nat_latents
            rows = ops.concat([ops.add(nv, tree["seg_nat"]), ops.add(rows, tree["seg_enc"])], axis=-2)
            if key_mask is not None:  # every NAT frame is a real key
                frames = np.ones(key_mask.shape[:-1] + nv.shape[-2:-1], dtype=bool)
                key_mask = np.concatenate([frames, key_mask], axis=-1)
        return self._context(tree, rows, key_mask)

    def at_forward(self, tokens: Sequence[int] | np.ndarray, masses: np.ndarray,
                   context: ATCache | Tensor | Padded) -> Tensor:
        """Next-token logits [..., L, at_vocab] for [BOS, a_1, ...] inputs [..., L].

        ``masses`` [..., L, 2] holds one (prefix, suffix) pair per input
        position; both are embedded at the m/z wavelengths and summed
        into the token embedding. One [S, d] context serves every leading
        index of ``tokens``, so K and V are projected once for all of them;
        a padded batch of contexts [B, S, d] serves tokens [B, L], one row
        each. Rows of unequal length are right-padded with PAD, so under the
        causal mask a real position never sees a padding one. On a cache
        holding no positions, rows right-padded with PAD run the stack on
        their real positions alone (:meth:`_stack`'s ``packed``), and the
        logits at the PAD positions are zeros; a PAD before a real position
        is read as a token, as every position is without padding.

        ``context`` is an :meth:`at_cache` or encoder features, read as
        ``at_cache(features)``. A cache holding no positions runs the L
        positions under the causal mask; one holding n prefixes takes their
        next position, ``tokens`` [n, 1] and ``masses`` [n, 1, 2], attending
        over the cached positions and itself. The new positions join the cache.
        """
        tokens = np.asarray(tokens, dtype=np.intp)
        masses = np.asarray(masses, dtype=np.float64)
        if masses.shape != tokens.shape + (2,):
            raise ValueError(f"masses must be {tokens.shape + (2,)} (prefix, suffix) pairs, "
                             f"got {masses.shape}")
        vocab = self.table.at_vocab_size
        if np.any((tokens < 0) | (tokens >= vocab)):
            raise ValueError(f"token id outside AT vocabulary of size {vocab}")
        cache = context if isinstance(context, ATCache) else self.at_cache(context)
        causal = None  # one position, new or next to the cached ones, sees all of them
        if not cache.past and tokens.shape[-1] > 1:
            causal = np.tril(np.ones((tokens.shape[-1],) * 2, dtype=bool))
        elif cache.past and tokens.shape != (cache.past[0][0].shape[0], 1):
            raise ValueError(f"a cached step takes one new position per cached prefix, "
                             f"got tokens {tokens.shape}")

        ops = self._ops
        tree = self.params["at"]
        mass_rows = encode_float(masses, self.cfg.d).sum(axis=-2)
        packed = tokens != self.table.pad_id
        if cache.past or packed.all() or (packed[..., 1:] > packed[..., :-1]).any():
            packed = None  # no right-padding: every position is a token
        else:
            tokens, mass_rows = tokens[packed], mass_rows[packed]
        x = ops.add(ops.gather(tree["tok_emb"], tokens), ops.constant(mass_rows))
        x = self._stack(tree, x, causal, cache, packed)
        logits = ops.linear(x, *tree["out"])
        return logits if packed is None else ops.unpack(logits, packed)

    # ------------------------------------------------------------------
    # persistence

    def metadata(self, extra: dict | None = None) -> dict:
        return {"model": self.cfg.to_dict(), "vocabulary": self.table.to_dict(),
                "finetuned": self.finetuned, **(extra or {})}

    @classmethod
    def from_checkpoint_blob(cls, store: ParameterStore, blob: dict) -> "Model":
        if not isinstance(blob.get("model"), dict):
            raise ValueError('metadata has no "model" object')
        cfg = ModelConfig.from_dict(blob["model"])
        table = AminoAcidTable.from_dict(blob["vocabulary"])
        model = cls(cfg, table, store)
        model.finetuned = blob.get("finetuned", False)
        if type(model.finetuned) is not bool:
            raise ValueError(f"metadata field 'finetuned' must be true or false, got {model.finetuned!r}")
        return model


class _ArrayView(Model):
    """``model.arrays``: the model's forwards on plain arrays, for decoding.

    Its op set is :class:`autodiff.Kernels` and its ``params`` the tree of
    the store's arrays, each a parameter Tensor's ``.values``. AdamW writes
    those arrays in place, as does any in-place edit, so the view stays the
    model's; it reads ``finetuned`` from the model. It takes and returns
    arrays where the model takes and returns Tensors, and builds no Tensor.
    """

    _ops = ad.Kernels

    def __init__(self, model: Model):
        self.cfg, self.table, self.store = model.cfg, model.table, model.store
        self._model = model
        self.params = _layout(model.cfg, model.table,
                              lambda partition, name, *_: model.store.get(partition, name).values)

    @property
    def finetuned(self) -> bool:
        return self._model.finetuned
