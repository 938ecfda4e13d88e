"""Reading and writing the MGF subset used by the toolkit.

Each block is BEGIN IONS / header lines / peak lines / END IONS. Headers we
understand: TITLE (spectrum id), PEPMASS (precursor m/z; a trailing
intensity is ignored), CHARGE (``<int>+``) and the optional SEQ (ground-truth
peptide). Unknown KEY=VALUE headers are ignored with a warning. Peak lines
are exactly two finite floats separated by one space, and PEPMASS must be
finite too. All parse errors carry a 1-based line number.
"""

from __future__ import annotations

import logging
import math
import re

from .spectra import AminoAcidTable, Peak, Peptide, Spectrum, VocabularyError

__all__ = ["MGFParseError", "parse_mgf", "write_mgf"]

log = logging.getLogger(__name__)

_CHARGE_RE = re.compile(r"^(\d+)\+$")


class MGFParseError(ValueError):
    """Malformed MGF input; ``line`` is the 1-based offending line."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


def parse_mgf(text: str | bytes, table: AminoAcidTable | None = None) -> list[Spectrum]:
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    table = table or AminoAcidTable()

    spectra: list[Spectrum] = []
    in_block = False
    block_start = 0
    title: str | None = None
    pepmass: float | None = None
    charge: int | None = None
    seq: Peptide | None = None
    peaks: list[Peak] = []

    def reset():
        nonlocal title, pepmass, charge, seq, peaks
        title, pepmass, charge, seq, peaks = None, None, None, None, []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            if in_block:
                raise MGFParseError("blank line inside a spectrum block", lineno)
            continue
        if line == "BEGIN IONS":
            if in_block:
                raise MGFParseError("BEGIN IONS inside an open block", lineno)
            in_block = True
            block_start = lineno
            reset()
            continue
        if line == "END IONS":
            if not in_block:
                raise MGFParseError("END IONS without BEGIN IONS", lineno)
            missing = [
                name
                for name, v in (("TITLE", title), ("PEPMASS", pepmass), ("CHARGE", charge))
                if v is None
            ]
            if missing:
                raise MGFParseError(
                    f"block starting at line {block_start} is missing {', '.join(missing)}",
                    lineno,
                )
            if not peaks:
                raise MGFParseError(
                    f"block starting at line {block_start} has no peaks", lineno
                )
            try:
                spectra.append(
                    Spectrum(
                        spectrum_id=title,
                        peaks=tuple(peaks),
                        precursor_mz=pepmass,
                        charge=charge,
                        truth=seq,
                    )
                )
            except ValueError as e:
                raise MGFParseError(str(e), lineno) from e
            in_block = False
            continue
        if not in_block:
            raise MGFParseError(f"content outside any block: {line!r}", lineno)

        if "=" in line and not line[0].isdigit() and not line.startswith("-"):
            key, _, value = line.partition("=")
            if key == "TITLE":
                title = value
            elif key == "PEPMASS":
                try:
                    pepmass = float(value.split()[0])
                except (ValueError, IndexError):
                    raise MGFParseError(f"unparseable PEPMASS {value!r}", lineno) from None
                if not math.isfinite(pepmass):
                    raise MGFParseError(f"PEPMASS must be finite, got {value!r}", lineno)
            elif key == "CHARGE":
                m = _CHARGE_RE.match(value)
                if not m:
                    raise MGFParseError(
                        f"CHARGE must look like '2+', got {value!r}", lineno
                    )
                charge = int(m.group(1))
                if charge < 1:
                    raise MGFParseError(f"charge must be positive, got {value!r}", lineno)
            elif key == "SEQ":
                try:
                    seq = Peptide.from_string(value)
                    for s in seq:
                        table.index_of(s)
                except VocabularyError as e:
                    raise MGFParseError(f"bad SEQ {value!r}: {e}", lineno) from e
                if len(seq) < 1:
                    raise MGFParseError("SEQ must not be empty", lineno)
            else:
                log.warning("line %d: ignoring unknown MGF header %r", lineno, key)
            continue

        parts = line.split(" ")
        if len(parts) != 2:
            raise MGFParseError(
                f"peak line must be two floats separated by one space: {line!r}", lineno
            )
        try:
            mz, intensity = float(parts[0]), float(parts[1])
        except ValueError:
            raise MGFParseError(f"unparseable peak line {line!r}", lineno) from None
        if not (math.isfinite(mz) and math.isfinite(intensity)):
            raise MGFParseError(f"peak values must be finite: {line!r}", lineno)
        peaks.append(Peak(mz, intensity))

    if in_block:
        raise MGFParseError(
            f"unterminated block starting at line {block_start}", lineno
        )
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
        for p in s.peaks:
            lines.append(f"{p.mz:.6f} {p.intensity:.6f}")
        lines.append("END IONS")
    return "\n".join(lines) + "\n"
