"""Spectra-layer tests.

The residue mass table is checked against masses recomputed from elemental
composition (the independent reference); the float encoder against the
worked example the formula implies; fragments and the simulator against
hand-derived values.
"""

import copy
import math
import pickle

import numpy as np
import pytest
from numpy.testing import assert_allclose

from pepseq import network, spectra
from pepseq.spectra import (
    INTENSITY_WAVELENGTHS,
    MZ_WAVELENGTHS,
    PROTON,
    WATER,
    AminoAcidTable,
    NoiseConfig,
    Peptide,
    Spectrum,
    VocabularyError,
    embed_peak,
    encode_float,
    random_peptide,
    simulate_spectrum,
    theoretical_ions,
)

# Monoisotopic atomic masses (CODATA/AME): the independent source for the
# residue table.
H, C, N, O, S = 1.00782503207, 12.0, 14.0030740048, 15.9949146196, 31.97207100

RESIDUE_FORMULAS = {
    "A": (3, 5, 1, 1, 0),
    "C": (3, 5, 1, 1, 1),
    "D": (4, 5, 1, 3, 0),
    "E": (5, 7, 1, 3, 0),
    "F": (9, 9, 1, 1, 0),
    "G": (2, 3, 1, 1, 0),
    "H": (6, 7, 3, 1, 0),
    "I": (6, 11, 1, 1, 0),
    "K": (6, 12, 2, 1, 0),
    "L": (6, 11, 1, 1, 0),
    "M": (5, 9, 1, 1, 1),
    "N": (4, 6, 2, 2, 0),
    "P": (5, 7, 1, 1, 0),
    "Q": (5, 8, 2, 2, 0),
    "R": (6, 12, 4, 1, 0),
    "S": (3, 5, 1, 2, 0),
    "T": (4, 7, 1, 2, 0),
    "V": (5, 9, 1, 1, 0),
    "W": (11, 10, 2, 1, 0),
    "Y": (9, 9, 1, 2, 0),
}


def composition_mass(nc, nh, nn, no, ns):
    return nc * C + nh * H + nn * N + no * O + ns * S


class TestMassTable:
    def test_all_twenty_residues_match_elemental_composition(self):
        table = AminoAcidTable()
        assert set(table.symbols) == set(RESIDUE_FORMULAS)
        for sym, formula in RESIDUE_FORMULAS.items():
            expected = composition_mass(*formula)
            assert abs(table.mass_of(sym) - expected) < 6e-6, sym

    def test_water_and_proton_constants(self):
        assert abs(WATER - (2 * H + O)) < 5e-7
        assert abs(PROTON - 1.00727646688) < 5e-7

    def test_leucine_isoleucine_share_mass(self):
        table = AminoAcidTable()
        assert table.mass_of("L") == table.mass_of("I")

    def test_token_layout(self):
        table = AminoAcidTable()
        assert table.n_residues == 20
        assert table.pad_id == 20 and table.bos_id == 21 and table.eos_id == 22
        assert table.blank_id == 20
        assert table.at_vocab_size == 23 and table.nat_vocab_size == 21

    def test_unknown_symbol_rejected(self):
        with pytest.raises(VocabularyError):
            AminoAcidTable().index_of("B")

    def test_duplicate_symbols_rejected(self):
        with pytest.raises(VocabularyError):
            AminoAcidTable((("A", 71.0), ("A", 72.0)))

    def test_symbols_and_masses_are_built_once_and_masses_are_read_only(self):
        table = AminoAcidTable()
        assert table.symbols is table.symbols and table.masses is table.masses
        for t in (table, copy.deepcopy(table), pickle.loads(pickle.dumps(table))):
            assert t == table and not t.masses.flags.writeable
            with pytest.raises(ValueError):
                t.masses[0] = 0.0

    def test_roundtrip_through_dict(self):
        table = AminoAcidTable()
        again = AminoAcidTable.from_dict(table.to_dict())
        assert again == table

    def test_peptide_mass_adds_water(self):
        table = AminoAcidTable()
        p = Peptide.from_string("GA")
        assert_allclose(table.peptide_mass(p), 57.02146 + 71.03711 + WATER)


class TestFloatEncoder:
    def test_worked_example_top_of_range(self):
        # d=2, v_min=2π, v_max=2πe: at v = v_max both phases are exactly 2π,
        # so the output is [sin 2π, cos 2π] = [0, 1].
        out = encode_float(2 * math.pi * math.e, 2, (2 * math.pi, 2 * math.pi * math.e))
        assert_allclose(out, [0.0, 1.0], atol=1e-12)

    def test_zero_input_gives_zeros_then_ones(self):
        out = encode_float(0.0, 8, (0.001, 10000.0))
        assert_allclose(out[:4], np.zeros(4))
        assert_allclose(out[4:], np.ones(4))

    def test_output_bounded_and_deterministic(self):
        rng = np.random.default_rng(0)
        for v in rng.uniform(-1e5, 1e5, size=50):
            out = encode_float(float(v), 16, (0.001, 10000.0))
            assert np.all(np.abs(out) <= 1.0)
            assert np.array_equal(out, encode_float(float(v), 16, (0.001, 10000.0)))

    def test_array_input_equals_stacked_scalar_calls(self):
        values = np.random.default_rng(1).uniform(0.0, 3000.0, size=(7, 2))
        out = encode_float(values, 64, (0.001, 10000.0))
        assert out.shape == (7, 2, 64)
        want = np.stack([np.stack([encode_float(float(v), 64, (0.001, 10000.0)) for v in row])
                         for row in values])
        assert np.array_equal(out, want)

    @pytest.mark.parametrize("d", [2, 8, 64])
    @pytest.mark.parametrize("bounds", [MZ_WAVELENGTHS, INTENSITY_WAVELENGTHS])
    def test_cached_wavelengths_equal_the_written_out_formula_bit_for_bit(self, d, bounds):
        v_min, v_max = bounds
        j = np.arange(d, dtype=np.float64)
        denom = (v_max / v_min) * (v_min / (2.0 * math.pi)) ** (2.0 * j / d)
        values = np.random.default_rng(d).uniform(0.0, 3000.0 * v_max, size=(5, 3))
        phase = values[..., None] / denom
        want = np.concatenate([np.sin(phase[..., : d // 2]), np.cos(phase[..., d // 2 :])], axis=-1)
        for _ in range(2):  # the first call may build the wavelengths, the second reads them
            assert np.array_equal(encode_float(values, d, bounds), want)
        cached = spectra._wavelengths(d, *bounds)
        assert np.array_equal(cached, denom) and cached is spectra._wavelengths(d, *bounds)
        assert not cached.flags.writeable
        with pytest.raises(ValueError):
            cached[0] = 1.0

    def test_encode_float_keeps_the_names_the_benchmark_tracer_wraps(self):
        assert network.encode_float is spectra.encode_float

    def test_embed_peak_requires_positive_max(self):
        with pytest.raises(ValueError):
            embed_peak(np.array([[100.0, 1.0]]), 4, 0.0)
        out = embed_peak(np.array([[100.0, 0.5]]), 4, 2.0)
        assert_allclose(out, [encode_float(100.0, 4, (0.001, 10000.0))
                              + encode_float(0.25, 4, (1e-4, 1.0))])

    def test_embed_peak_takes_a_sequence_of_peaks(self):
        with pytest.raises(ValueError, match="sequence of peaks"):
            embed_peak(np.array([100.0, 1.0]), 4, 1.0)

    def test_embed_peak_over_a_spectrum_equals_stacked_per_peak_calls(self):
        noise = NoiseConfig(mz_sigma=0.01, n_noise_peaks=5)
        s = simulate_spectrum(Peptide.from_string("PEPTIDEK"), seed=3, noise=noise)
        out = embed_peak(s.peaks, 64, s.max_intensity)
        want = np.concatenate([embed_peak(s.peaks[i:i + 1], 64, s.max_intensity)
                               for i in range(len(s.peaks))])
        assert out.shape == (len(s.peaks), 64)
        assert np.array_equal(out, want)


class TestFragments:
    def test_ga_ions_by_hand(self):
        table = AminoAcidTable()
        peaks = theoretical_ions(Peptide.from_string("GA"), table)
        mzs = sorted(peaks[:, 0])
        assert_allclose(mzs[0], 58.028736, atol=1e-6)  # b1 = G + proton
        assert_allclose(mzs[1], 90.054951, atol=1e-6)  # y1 = A + water + proton
        assert all(peaks[:, 1] == 1.0)

    def test_ion_count_and_sorted(self):
        table = AminoAcidTable()
        p = Peptide.from_string("GASPV")
        peaks = theoretical_ions(p, table)
        assert len(peaks) == 2 * (len(p) - 1)
        mzs = list(peaks[:, 0])
        assert mzs == sorted(mzs)

    def test_ions_equal_running_sums_bit_for_bit(self):
        # The reference adds prefix and suffix masses one residue at a time.
        table, rng = AminoAcidTable(), np.random.default_rng(4)
        for n in [1, 1, 2, 3] + list(range(4, 30)):
            p = random_peptide(rng, n, n, table)
            masses = [table.mass_of(s) for s in p]
            want, prefix, suffix = [], 0.0, 0.0
            for i in range(n - 1):
                prefix += masses[i]
                want.append(prefix + PROTON)
            for i in range(n - 1, 0, -1):
                suffix += masses[i]
                want.append(suffix + WATER + PROTON)
            want = sorted(want) or [masses[0] + WATER + PROTON]
            ions = theoretical_ions(p, table)
            assert ions[:, 0].tolist() == want and ions[:, 1].tolist() == [1.0] * len(want)

    def test_by_pairs_sum_to_precursor_mass(self):
        # b_i + y_{n-i} = peptide mass + 2 protons, for every cleavage site.
        table = AminoAcidTable()
        p = Peptide.from_string("GASPVK")
        total = table.peptide_mass(p)
        masses = [table.mass_of(s) for s in p]
        prefix = 0.0
        for i in range(len(p) - 1):
            prefix += masses[i]
            b = prefix + PROTON
            y = (total - WATER - prefix) + WATER + PROTON
            assert_allclose(b + y, total + 2 * PROTON, atol=1e-9)


class TestSimulator:
    def test_noiseless_equals_theoretical(self):
        table = AminoAcidTable()
        p = Peptide.from_string("GASPV")
        s = simulate_spectrum(p, seed=7)
        expected = theoretical_ions(p, table)
        assert len(s.peaks) == len(expected)
        for got, want in zip(s.peaks, expected):
            assert got[0] == want[0]
            assert got[1] == want[1]

    def test_deterministic_for_seed(self):
        p = Peptide.from_string("GASPVK")
        noise = NoiseConfig(mz_sigma=0.01, drop_prob=0.2, n_noise_peaks=4)
        a = simulate_spectrum(p, seed=42, noise=noise)
        b = simulate_spectrum(p, seed=42, noise=noise)
        assert a == b
        c = simulate_spectrum(p, seed=43, noise=noise)
        assert a != c

    def test_precursor_consistent_with_truth(self):
        table = AminoAcidTable()
        rng = np.random.default_rng(5)
        for seed in range(30):
            p = random_peptide(rng, 5, 12, table)
            s = simulate_spectrum(p, seed=seed)
            assert s.charge in (2, 3)
            assert abs(s.neutral_mass - table.peptide_mass(p)) <= 1e-6

    def test_at_least_one_peak_survives_heavy_dropout(self):
        p = Peptide.from_string("GA")
        noise = NoiseConfig(drop_prob=0.99)
        for seed in range(50):
            s = simulate_spectrum(p, seed=seed, noise=noise)
            assert len(s.peaks) >= 1

    def test_empty_peptide_rejected(self):
        with pytest.raises(ValueError):
            simulate_spectrum(Peptide(()), seed=0)


class TestSpectrumType:
    def test_peaks_sorted_on_construction(self):
        s = Spectrum("x", ((300.0, 1.0), (100.0, 2.0)), 500.0, 2)
        assert list(s.peaks[:, 0]) == [100.0, 300.0]

    @pytest.mark.parametrize("given", [
        ((300.0, 1.0), (100.0, 2.0)),
        [[300.0, 1.0], [100.0, 2.0]],
        np.array([[300.0, 1.0], [100.0, 2.0]]),
        np.array([[300, 1], [100, 2]]),
    ], ids=["tuples", "lists", "array", "int-array"])
    def test_peaks_are_one_read_only_float64_array(self, given):
        s = Spectrum("x", given, 500.0, 2)
        assert isinstance(s.peaks, np.ndarray) and s.peaks.dtype == np.float64
        assert s.peaks.shape == (2, 2) and not s.peaks.flags.writeable
        assert s.peaks.tolist() == [[100.0, 2.0], [300.0, 1.0]]
        with pytest.raises(ValueError):
            s.peaks[0, 0] = 1.0
        if isinstance(given, np.ndarray):  # the spectrum holds its own copy
            given[:] = 7
            assert s.peaks.tolist() == [[100.0, 2.0], [300.0, 1.0]]
        assert s.max_intensity == 2.0

    def test_peaks_of_equal_mz_keep_their_input_order(self):
        s = Spectrum("x", ((300.0, 0.1), (100.0, 0.2), (300.0, 0.3), (100.0, 0.4), (300.0, 0.5)),
                     500.0, 2)
        assert s.peaks.tolist() == [[100.0, 0.2], [100.0, 0.4], [300.0, 0.1], [300.0, 0.3],
                                    [300.0, 0.5]]

    def test_equality_compares_values(self):
        s = Spectrum("x", ((300.0, 1.0), (100.0, 2.0)), 500.0, 2, Peptide.from_string("GA"))
        same = Spectrum("x", [[100.0, 2.0], [300.0, 1.0]], 500.0, 2, Peptide.from_string("GA"))
        assert s == same and not s != same
        assert s != Spectrum("x", ((300.0, 1.0), (100.0, 2.5)), 500.0, 2, Peptide.from_string("GA"))
        assert s != Spectrum("x", ((300.0, 1.0),), 500.0, 2, Peptide.from_string("GA"))
        assert s != Spectrum("x", ((300.0, 1.0), (100.0, 2.0)), 500.0, 2)
        assert s != "x"

    def test_neutral_mass_formula(self):
        s = Spectrum("x", ((100.0, 1.0),), precursor_mz=500.0, charge=2)
        assert_allclose(s.neutral_mass, (500.0 - PROTON) * 2)

    def test_invalid_spectra_rejected(self):
        with pytest.raises(ValueError):
            Spectrum("x", (), 500.0, 2)
        with pytest.raises(ValueError):
            Spectrum("x", ((100.0, 1.0),), 500.0, 0)
        with pytest.raises(ValueError):
            Spectrum("x", ((-1.0, 1.0),), 500.0, 2)
        with pytest.raises(ValueError):
            Spectrum("x", ((100.0, -0.5),), 500.0, 2)
        for mz, intensity in [(math.nan, 1.0), (math.inf, 1.0), (-math.inf, 1.0),
                              (100.0, math.nan), (100.0, math.inf), (100.0, -math.inf)]:
            with pytest.raises(ValueError, match="invalid peak"):
                Spectrum("x", ((200.0, 1.0), (mz, intensity)), 500.0, 2)
        for peaks in ([100.0, 1.0], [[100.0, 1.0, 2.0]], np.ones((2, 2, 2))):
            with pytest.raises(ValueError, match="pairs"):
                Spectrum("x", peaks, 500.0, 2)
