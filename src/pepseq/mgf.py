"""Reading and writing the MGF subset used by the toolkit.

Each block is BEGIN IONS / header lines / peak lines / END IONS. Headers we
understand: TITLE (spectrum id), PEPMASS (precursor m/z; a trailing
intensity is ignored), CHARGE (``<int>+``) and the optional SEQ (ground-truth
peptide), each at most once per block. Unknown KEY=VALUE headers are
ignored with a warning. Each peak line is exactly two finite floats separated
by one space, m/z > 0 and intensity >= 0, and PEPMASS must be finite and
above the proton mass. A block's peaks become one float64 ``[k, 2]`` array
in its ``Spectrum``. All parse errors carry the 1-based offending line.
"""

from __future__ import annotations

import logging
import math
import re

from .spectra import PROTON, AminoAcidTable, Peptide, Spectrum, VocabularyError

__all__ = ["MGFParseError", "parse_mgf", "write_mgf"]

log = logging.getLogger(__name__)

_CHARGE_RE = re.compile(r"^(\d+)\+$")


class MGFParseError(ValueError):
    """Malformed MGF input; ``line`` is the 1-based offending line."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


def _pepmass(value: str, table: AminoAcidTable) -> float:
    try:
        pepmass = float(value.split()[0])
    except (ValueError, IndexError):
        raise ValueError(f"unparseable PEPMASS {value!r}") from None
    if not math.isfinite(pepmass):
        raise ValueError(f"PEPMASS must be finite, got {value!r}")
    if pepmass <= PROTON:
        raise ValueError(f"PEPMASS must be above the proton mass {PROTON}, got {value!r}")
    return pepmass


def _charge(value: str, table: AminoAcidTable) -> int:
    m = _CHARGE_RE.match(value)
    if not m:
        raise ValueError(f"CHARGE must look like '2+', got {value!r}")
    if int(m.group(1)) < 1:
        raise ValueError(f"charge must be positive, got {value!r}")
    return int(m.group(1))


def _seq(value: str, table: AminoAcidTable) -> Peptide:
    seq = Peptide.from_string(value)
    try:
        table.ids_of(seq)
    except VocabularyError as e:
        raise ValueError(f"bad SEQ {value!r}: {e}") from e
    if not seq:
        raise ValueError("SEQ must not be empty")
    return seq


def _peak(line: str) -> tuple[float, float]:
    parts = line.split(" ")
    if len(parts) != 2:
        raise ValueError(f"peak line must be two floats separated by one space: {line!r}")
    try:
        mz, intensity = float(parts[0]), float(parts[1])
    except ValueError:
        raise ValueError(f"unparseable peak line {line!r}") from None
    if not (math.isfinite(mz) and math.isfinite(intensity)):
        raise ValueError(f"peak values must be finite: {line!r}")
    if mz <= 0 or intensity < 0:
        raise ValueError(f"peak m/z must be positive and intensity non-negative: {line!r}")
    return mz, intensity


# Each understood header: the Spectrum field it sets, the parser of its
# value, and whether every block must have it.
_HEADERS = {
    "TITLE": ("spectrum_id", lambda value, table: value, True),
    "PEPMASS": ("precursor_mz", _pepmass, True),
    "CHARGE": ("charge", _charge, True),
    "SEQ": ("truth", _seq, False),
}


def parse_mgf(text: str, table: AminoAcidTable | None = None) -> list[Spectrum]:
    table = table or AminoAcidTable()
    spectra: list[Spectrum] = []
    start, fields, peaks = None, {}, []  # the open block's BEGIN IONS line, headers, peaks
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        try:
            if start is None:
                if line == "BEGIN IONS":
                    start, fields, peaks = lineno, {}, []
                elif line == "END IONS":
                    raise ValueError("END IONS without BEGIN IONS")
                elif line:
                    raise ValueError(f"content outside any block: {line!r}")
            elif not line:
                raise ValueError("blank line inside a spectrum block")
            elif line == "BEGIN IONS":
                raise ValueError("BEGIN IONS inside an open block")
            elif line == "END IONS":
                missing = [key for key, (name, _, required) in _HEADERS.items()
                           if required and name not in fields]
                if missing:
                    raise ValueError(f"block starting at line {start} is missing {', '.join(missing)}")
                if not peaks:
                    raise ValueError(f"block starting at line {start} has no peaks")
                spectra.append(Spectrum(peaks=peaks, **fields))
                start = None
            elif "=" in line and not line[0].isdigit() and not line.startswith("-"):
                key, _, value = line.partition("=")
                if key in _HEADERS:
                    name, parse, _ = _HEADERS[key]
                    if name in fields:
                        raise ValueError(f"second {key} header in the block starting at line {start}")
                    fields[name] = parse(value, table)
                else:
                    log.warning("line %d: ignoring unknown MGF header %r", lineno, key)
            else:
                peaks.append(_peak(line))
        except ValueError as e:
            raise MGFParseError(str(e), lineno) from e
    if start is not None:
        raise MGFParseError(f"unterminated block starting at line {start}", lineno)
    return spectra


def write_mgf(spectra: list[Spectrum]) -> str:
    """Serialize spectra in canonical form: 6-decimal floats, LF newlines."""
    lines: list[str] = []
    for s in spectra:
        lines.append("BEGIN IONS")
        lines.append(f"TITLE={s.spectrum_id}")
        lines.append(f"PEPMASS={s.precursor_mz:.6f}")
        lines.append(f"CHARGE={s.charge}+")
        if s.truth is not None:
            lines.append(f"SEQ={s.truth}")
        lines += [f"{mz:.6f} {intensity:.6f}" for mz, intensity in s.peaks.tolist()]
        lines.append("END IONS")
    return "\n".join(lines) + "\n"
