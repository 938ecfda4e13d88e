"""Peptides, spectra, and their numeric embeddings.

Holds the monoisotopic residue mass table, the peptide/peak/spectrum value
types, the fixed sinusoidal encoding of real-valued features (m/z and
prefix/suffix masses over ``MZ_WAVELENGTHS``, normalized intensity over
``INTENSITY_WAVELENGTHS``), theoretical b/y fragment ions, and a
deterministic spectrum simulator used for the desk-scale corpora.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property
from typing import Iterable, NamedTuple, Sequence

import numpy as np

__all__ = [
    "WATER",
    "PROTON",
    "AminoAcidTable",
    "Peptide",
    "Peak",
    "Spectrum",
    "MZ_WAVELENGTHS",
    "INTENSITY_WAVELENGTHS",
    "encode_float",
    "embed_peak",
    "theoretical_ions",
    "NoiseConfig",
    "simulate_spectrum",
]

# Monoisotopic masses in daltons.
WATER = 18.010565
PROTON = 1.007276

# Residue masses of the 20 standard amino acids, alphabetical by one-letter
# code. L and I are isomers and share a mass on purpose.
STANDARD_RESIDUES: tuple[tuple[str, float], ...] = (
    ("A", 71.03711),
    ("C", 103.00919),
    ("D", 115.02694),
    ("E", 129.04259),
    ("F", 147.06841),
    ("G", 57.02146),
    ("H", 137.05891),
    ("I", 113.08406),
    ("K", 128.09496),
    ("L", 113.08406),
    ("M", 131.04049),
    ("N", 114.04293),
    ("P", 97.05276),
    ("Q", 128.05858),
    ("R", 156.10111),
    ("S", 87.03203),
    ("T", 101.04768),
    ("V", 99.06841),
    ("W", 186.07931),
    ("Y", 163.06333),
)


class VocabularyError(ValueError):
    """A residue symbol or token id outside the active vocabulary."""


@dataclass(frozen=True)
class AminoAcidTable:
    """Residue vocabulary plus the structural tokens of both decoders.

    Token id layout: residues occupy ids ``0 .. n-1`` in table order for
    both decoders. The autoregressive side appends PAD, BOS, EOS; the
    non-autoregressive (CTC) side appends only the blank ε. Keeping the
    residue block shared means a residue id never needs translation.
    """

    entries: tuple[tuple[str, float], ...] = STANDARD_RESIDUES

    def __post_init__(self):
        symbols = [s for s, _ in self.entries]
        if len(set(symbols)) != len(symbols):
            raise VocabularyError("duplicate residue symbols in table")
        if not self.entries:
            raise VocabularyError("empty residue table")
        for s, m in self.entries:
            if m <= 0:
                raise VocabularyError(f"residue {s!r} has non-positive mass {m}")

    @cached_property
    def symbols(self) -> tuple[str, ...]:
        return tuple(s for s, _ in self.entries)

    @cached_property
    def masses(self) -> np.ndarray:
        """Residue masses in table order; read-only, as it is built once."""
        masses = np.array([m for _, m in self.entries])
        masses.flags.writeable = False
        return masses

    def __getstate__(self) -> dict:
        # A copy or unpickled table builds its own read-only masses.
        return {"entries": self.entries}

    @property
    def n_residues(self) -> int:
        return len(self.entries)

    # Autoregressive vocabulary: residues + PAD + BOS + EOS.
    @property
    def pad_id(self) -> int:
        return self.n_residues

    @property
    def bos_id(self) -> int:
        return self.n_residues + 1

    @property
    def eos_id(self) -> int:
        return self.n_residues + 2

    @property
    def at_vocab_size(self) -> int:
        return self.n_residues + 3

    # CTC vocabulary: residues + blank.
    @property
    def blank_id(self) -> int:
        return self.n_residues

    @property
    def nat_vocab_size(self) -> int:
        return self.n_residues + 1

    def index_of(self, symbol: str) -> int:
        try:
            return self.symbols.index(symbol)
        except ValueError:
            raise VocabularyError(f"unknown residue symbol {symbol!r}") from None

    def mass_of(self, symbol: str) -> float:
        return self.entries[self.index_of(symbol)][1]

    def ids_of(self, peptide: "Peptide") -> list[int]:
        return [self.index_of(s) for s in peptide.residues]

    def peptide_from_ids(self, ids: Iterable[int]) -> "Peptide":
        out = []
        for i in ids:
            if not 0 <= i < self.n_residues:
                raise VocabularyError(f"token id {i} is not a residue id")
            out.append(self.symbols[i])
        return Peptide(tuple(out))

    def residue_mass(self, peptide: "Peptide") -> float:
        """Sum of residue masses (no water)."""
        return float(sum(self.mass_of(s) for s in peptide.residues))

    def peptide_mass(self, peptide: "Peptide") -> float:
        """Neutral monoisotopic mass: residues plus one water."""
        return self.residue_mass(peptide) + WATER

    def to_dict(self) -> dict:
        return {"entries": [[s, m] for s, m in self.entries]}

    @classmethod
    def from_dict(cls, d: dict) -> "AminoAcidTable":
        return cls(tuple((s, float(m)) for s, m in d["entries"]))


@dataclass(frozen=True)
class Peptide:
    """A residue sequence. May be empty when produced by CTC collapse."""

    residues: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "residues", tuple(self.residues))

    @classmethod
    def from_string(cls, s: str) -> "Peptide":
        return cls(tuple(s))

    def __len__(self) -> int:
        return len(self.residues)

    def __str__(self) -> str:
        return "".join(self.residues)

    def __iter__(self):
        return iter(self.residues)


class Peak(NamedTuple):
    mz: float
    intensity: float


@dataclass(frozen=True)
class Spectrum:
    """An observed (or simulated) MS/MS spectrum.

    ``peaks`` are stored sorted by m/z. ``truth`` carries the generating
    peptide for simulated/annotated data and is absent otherwise.
    """

    spectrum_id: str
    peaks: tuple[Peak, ...]
    precursor_mz: float
    charge: int
    truth: Peptide | None = None

    def __post_init__(self):
        if not self.peaks:
            raise ValueError(f"spectrum {self.spectrum_id!r} has no peaks")
        if self.charge < 1:
            raise ValueError(f"spectrum {self.spectrum_id!r} has charge {self.charge}")
        if self.precursor_mz <= PROTON:
            raise ValueError(
                f"spectrum {self.spectrum_id!r} precursor m/z {self.precursor_mz} too small"
            )
        cleaned = []
        for p in self.peaks:
            if p.mz <= 0 or p.intensity < 0:
                raise ValueError(
                    f"spectrum {self.spectrum_id!r} has invalid peak {p!r}"
                )
            cleaned.append(Peak(float(p.mz), float(p.intensity)))
        cleaned.sort(key=lambda p: p.mz)
        object.__setattr__(self, "peaks", tuple(cleaned))

    @property
    def neutral_mass(self) -> float:
        """Neutral (uncharged) precursor mass: (m/z - proton) * charge."""
        return (self.precursor_mz - PROTON) * self.charge

    @property
    def max_intensity(self) -> float:
        return max(p.intensity for p in self.peaks)


# ---------------------------------------------------------------------------
# sinusoidal encoding of real-valued features


# The (v_min, v_max) wavelength bounds of the two fixed encodings: m/z and
# masses in daltons, as Casanovo's, and max-normalized intensities.
MZ_WAVELENGTHS = (0.001, 10000.0)
INTENSITY_WAVELENGTHS = (1e-4, 1.0)


def encode_float(v: float | np.ndarray, d: int,
                 bounds: tuple[float, float] = MZ_WAVELENGTHS) -> np.ndarray:
    """Encode a value, or an array of values of shape [...], as [..., d].

    Component j in [0, d): the phase is v / (C * (v_min / 2π) ** (2j/d))
    with C = v_max / v_min; the first d/2 components take sin of the phase,
    the rest take cos. Values outside [v_min, v_max] are allowed; the bounds
    only set the wavelength range.
    """
    phase = np.asarray(v, dtype=np.float64)[..., None] / _wavelengths(d, *bounds)
    half = d // 2
    return np.concatenate([np.sin(phase[..., :half]), np.cos(phase[..., half:])], axis=-1)


@cache
def _wavelengths(d: int, v_min: float, v_max: float) -> np.ndarray:
    """encode_float's d divisors C * (v_min / 2π) ** (2j/d), built once per
    (d, bounds) and read-only."""
    j = np.arange(d, dtype=np.float64)
    denom = (v_max / v_min) * (v_min / (2.0 * math.pi)) ** (2.0 * j / d)
    denom.flags.writeable = False
    return denom


def embed_peak(peaks: Sequence[Peak], d: int, max_intensity: float) -> np.ndarray:
    """Sum of the m/z encoding and the max-normalized intensity encoding of
    each of k peaks: [k, d]."""
    if max_intensity <= 0:
        raise ValueError("cannot normalize intensities: spectrum maximum is not positive")
    mz_intensity = np.asarray(peaks, dtype=np.float64)
    if mz_intensity.ndim != 2:
        raise ValueError(f"embed_peak takes a sequence of peaks, got shape {mz_intensity.shape}")
    return encode_float(mz_intensity[:, 0], d) + encode_float(
        mz_intensity[:, 1] / max_intensity, d, INTENSITY_WAVELENGTHS
    )


# ---------------------------------------------------------------------------
# fragments and simulation


def theoretical_ions(peptide: Peptide, table: AminoAcidTable) -> list[Peak]:
    """All singly-charged b- and y-ions of a peptide, sorted by m/z.

    b_i is the i-residue prefix plus a proton; y_i is the i-residue suffix
    plus water plus a proton. Every ion gets unit intensity.
    """
    if len(peptide) < 1:
        raise ValueError("cannot fragment an empty peptide")
    masses = [table.mass_of(s) for s in peptide.residues]
    n = len(masses)
    peaks = []
    prefix = 0.0
    for i in range(n - 1):
        prefix += masses[i]
        peaks.append(Peak(prefix + PROTON, 1.0))
    suffix = 0.0
    for i in range(n - 1, 0, -1):
        suffix += masses[i]
        peaks.append(Peak(suffix + WATER + PROTON, 1.0))
    if not peaks:  # single-residue peptide has no internal cleavage sites
        peaks.append(Peak(masses[0] + WATER + PROTON, 1.0))
    peaks.sort(key=lambda p: p.mz)
    return peaks


# Uniform ranges of the intensity and m/z of each added noise peak.
NOISE_INTENSITY_RANGE = (0.05, 0.3)
NOISE_MZ_RANGE = (100.0, 1500.0)


@dataclass(frozen=True)
class NoiseConfig:
    """Corruption applied to theoretical ions. Defaults are noiseless."""

    mz_sigma: float = 0.0
    drop_prob: float = 0.0
    n_noise_peaks: int = 0

    def __post_init__(self):
        if self.mz_sigma < 0 or self.drop_prob < 0 or self.drop_prob >= 1:
            raise ValueError("mz_sigma must be >= 0 and drop_prob in [0, 1)")
        if self.n_noise_peaks < 0:
            raise ValueError("n_noise_peaks must be >= 0")


def simulate_spectrum(
    peptide: Peptide,
    seed: int,
    noise: NoiseConfig = NoiseConfig(),
    spectrum_id: str | None = None,
    table: AminoAcidTable | None = None,
) -> Spectrum:
    """Deterministically corrupt the theoretical ions of ``peptide``.

    The precursor is consistent with the peptide by construction: charge is
    drawn from {2, 3} and m/z set to (mass + c * proton) / c. With the
    default noiseless config the peaks equal the theoretical ions exactly.
    At least one signal peak always survives the dropout. Signal peaks keep
    intensity 1.0; noise peaks draw theirs from ``NOISE_INTENSITY_RANGE``.
    """
    table = table or AminoAcidTable()
    if len(peptide) < 1:
        raise ValueError("cannot simulate a spectrum for an empty peptide")
    rng = np.random.default_rng(seed)
    ions = theoretical_ions(peptide, table)

    charge = int(rng.integers(2, 4))
    mass = table.peptide_mass(peptide)
    precursor_mz = (mass + charge * PROTON) / charge

    kept: list[Peak] = []
    for ion in ions:
        if noise.drop_prob > 0 and rng.random() < noise.drop_prob:
            continue
        mz = ion.mz + (rng.normal(0.0, noise.mz_sigma) if noise.mz_sigma > 0 else 0.0)
        kept.append(Peak(mz, 1.0))
    if not kept:
        kept.append(ions[0])

    for _ in range(noise.n_noise_peaks):
        mz = float(rng.uniform(*NOISE_MZ_RANGE))
        kept.append(Peak(mz, float(rng.uniform(*NOISE_INTENSITY_RANGE))))

    sid = spectrum_id if spectrum_id is not None else f"synth-{seed:08d}"
    return Spectrum(
        spectrum_id=sid,
        peaks=tuple(kept),
        precursor_mz=precursor_mz,
        charge=charge,
        truth=peptide,
    )


def random_peptide(rng: np.random.Generator, min_len: int, max_len: int, table: AminoAcidTable) -> Peptide:
    """Uniform random peptide with length in [min_len, max_len]."""
    if not 1 <= min_len <= max_len:
        raise ValueError(f"bad length range [{min_len}, {max_len}]")
    n = int(rng.integers(min_len, max_len + 1))
    ids = rng.integers(0, table.n_residues, size=n)
    return table.peptide_from_ids(ids.tolist())
