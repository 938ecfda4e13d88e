"""MGF subset parser/writer tests, including the byte-level round trip."""

import gc
import logging
import tracemalloc

import numpy as np
import pytest

from pepseq.mgf import MGFParseError, parse_mgf, write_mgf
from pepseq.spectra import NoiseConfig, Peptide, Spectrum, simulate_spectrum


def corpus(n=5):
    out = []
    noise = NoiseConfig(mz_sigma=0.005, drop_prob=0.1, n_noise_peaks=3)
    seqs = ["GASPV", "KHACK", "WYNDE", "LIMIT", "QRSTV"]
    for i in range(n):
        out.append(simulate_spectrum(Peptide.from_string(seqs[i % len(seqs)]),
                                     seed=100 + i, noise=noise,
                                     spectrum_id=f"s{i:04d}"))
    return out


class TestRoundTrip:
    def test_write_parse_write_is_byte_identical(self):
        text1 = write_mgf(corpus())
        text2 = write_mgf(parse_mgf(text1))
        assert text1.encode() == text2.encode()

    def test_fields_survive_within_write_precision(self):
        spectra = corpus()
        back = parse_mgf(write_mgf(spectra))
        assert len(back) == len(spectra)
        for a, b in zip(spectra, back):
            assert a.spectrum_id == b.spectrum_id
            assert a.charge == b.charge
            assert str(a.truth) == str(b.truth)
            assert abs(a.precursor_mz - b.precursor_mz) <= 5e-7
            assert len(a.peaks) == len(b.peaks)
            for pa, pb in zip(a.peaks, b.peaks):
                assert abs(pa[0] - pb[0]) <= 5e-7
                assert abs(pa[1] - pb[1]) <= 5e-7

    def test_spectrum_without_truth_roundtrips(self):
        s = corpus(1)[0]
        bare = type(s)(spectrum_id=s.spectrum_id, peaks=s.peaks,
                       precursor_mz=s.precursor_mz, charge=s.charge, truth=None)
        back = parse_mgf(write_mgf([bare]))
        assert back[0].truth is None


GOOD = """BEGIN IONS
TITLE=demo
PEPMASS=400.123456
CHARGE=2+
SEQ=GA
58.028736 1.000000
90.054951 0.500000
END IONS
"""


class TestPeakArrays:
    def test_a_block_parses_to_one_sorted_read_only_array(self):
        swapped = GOOD.replace("58.028736 1.000000\n90.054951 0.500000",
                               "90.054951 0.500000\n58.028736 1.000000")
        for text in (GOOD, swapped):
            (s,) = parse_mgf(text)
            assert s.peaks.dtype == np.float64 and not s.peaks.flags.writeable
            assert s.peaks.tolist() == [[58.028736, 1.0], [90.054951, 0.5]]

    def test_a_parsed_150_peak_spectrum_holds_at_most_3_kib(self):
        rng = np.random.default_rng(0)
        text = write_mgf([
            Spectrum(f"s{i:03d}", np.column_stack([rng.uniform(100.0, 1500.0, 150),
                                                   rng.uniform(0.0, 1.0, 150)]), 600.0, 2)
            for i in range(100)])
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            spectra = parse_mgf(text)
            gc.collect()
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(spectra) == 100
        assert held / len(spectra) <= 3 * 1024  # the average over 100 does not flake


class TestParseErrors:
    def test_good_block_parses(self):
        (s,) = parse_mgf(GOOD)
        assert s.spectrum_id == "demo"
        assert s.charge == 2
        assert len(s.peaks) == 2
        assert str(s.truth) == "GA"

    def test_pepmass_trailing_intensity_ignored(self):
        (s,) = parse_mgf(GOOD.replace("PEPMASS=400.123456", "PEPMASS=400.123456 1000"))
        assert s.precursor_mz == 400.123456

    @pytest.mark.parametrize(
        "mutation, expect_line",
        [
            (("CHARGE=2+", "CHARGE=2"), 4),
            (("CHARGE=2+", "CHARGE=+2"), 4),
            (("PEPMASS=400.123456", "PEPMASS=abc"), 3),
            (("SEQ=GA", "SEQ=GZ"), 5),
            (("58.028736 1.000000", "58.028736"), 6),
            (("58.028736 1.000000", "58.028736  1.0"), 6),
            (("58.028736 1.000000", "58.028736 xyz"), 6),
            (("PEPMASS=400.123456", "PEPMASS=abc 1000"), 3),
            (("PEPMASS=400.123456", "PEPMASS="), 3),
            # A second known header would otherwise overwrite the first.
            (("TITLE=demo", "TITLE=demo\nTITLE=other"), 3),
            (("PEPMASS=400.123456", "PEPMASS=400.123456\nPEPMASS=500.0"), 4),
            (("CHARGE=2+", "CHARGE=2+\nCHARGE=3+"), 5),
            (("SEQ=GA", "SEQ=GA\nSEQ=GA"), 6),
            # Values Spectrum would reject, reported at their own line.
            (("58.028736 1.000000", "-5.0 1.000000"), 6),
            (("58.028736 1.000000", "0 1.000000"), 6),
            (("90.054951 0.500000", "90.054951 -0.5"), 7),
            (("PEPMASS=400.123456", "PEPMASS=0.5"), 3),
            (("PEPMASS=400.123456", "PEPMASS=1.007276 1000"), 3),
        ],
    )
    def test_malformed_lines_report_line_number(self, mutation, expect_line):
        before, after = mutation
        bad = GOOD.replace(before, after)
        with pytest.raises(MGFParseError) as err:
            parse_mgf(bad)
        assert err.value.line == expect_line
        assert f"line {expect_line}" in str(err.value)

    @pytest.mark.parametrize(
        "before, after, expect_line",
        [
            ("PEPMASS=400.123456", "PEPMASS=nan", 3),
            ("PEPMASS=400.123456", "PEPMASS=inf 1000", 3),
            ("58.028736 1.000000", "nan 1.000000", 6),
            ("58.028736 1.000000", "-inf 1.000000", 6),
            ("58.028736 1.000000", "58.028736 nan", 6),
            ("58.028736 1.000000", "58.028736 inf", 6),
        ],
    )
    def test_non_finite_values_report_line_number(self, before, after, expect_line):
        with pytest.raises(MGFParseError, match="finite") as err:
            parse_mgf(GOOD.replace(before, after))
        assert err.value.line == expect_line

    def test_missing_required_headers_named(self):
        bad = GOOD.replace("PEPMASS=400.123456\n", "")
        with pytest.raises(MGFParseError) as err:
            parse_mgf(bad)
        assert "PEPMASS" in str(err.value)

    def test_unterminated_block(self):
        with pytest.raises(MGFParseError) as err:
            parse_mgf(GOOD.replace("END IONS\n", ""))
        assert "unterminated" in str(err.value)

    def test_content_outside_block(self):
        with pytest.raises(MGFParseError) as err:
            parse_mgf("stray\n" + GOOD)
        assert err.value.line == 1

    def test_end_without_begin(self):
        with pytest.raises(MGFParseError):
            parse_mgf("END IONS\n")

    def test_nested_begin(self):
        with pytest.raises(MGFParseError):
            parse_mgf(GOOD.replace("TITLE=demo", "BEGIN IONS"))

    def test_block_without_peaks(self):
        bad = "BEGIN IONS\nTITLE=x\nPEPMASS=400.0\nCHARGE=2+\nEND IONS\n"
        with pytest.raises(MGFParseError) as err:
            parse_mgf(bad)
        assert "no peaks" in str(err.value)

    def test_unknown_header_warns_and_continues(self, caplog):
        text = GOOD.replace("SEQ=GA\n", "SEQ=GA\nRTINSECONDS=12.5\n")
        with caplog.at_level(logging.WARNING, logger="pepseq.mgf"):
            (s,) = parse_mgf(text)
        assert s.spectrum_id == "demo"
        assert any("RTINSECONDS" in r.message for r in caplog.records)

    def test_blank_lines_between_blocks_ok(self):
        two = GOOD + "\n\n" + GOOD.replace("TITLE=demo", "TITLE=demo2")
        assert len(parse_mgf(two)) == 2

    def test_blank_line_inside_block_rejected(self):
        bad = GOOD.replace("SEQ=GA\n", "SEQ=GA\n\n")
        with pytest.raises(MGFParseError):
            parse_mgf(bad)
