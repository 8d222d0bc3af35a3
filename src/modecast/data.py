"""Dated-series CSV ingestion and emission.

The on-disk format is two columns, ``date,value``: ISO dates (YYYY-MM-DD),
decimal values, UTF-8, LF or CRLF line endings.  The header is matched
case-insensitively and the second column may carry any name (exports from
data portals usually use the series identifier), which becomes the series
name.  Values are written with 17 significant digits so a write/load round
trip is exact.  `read_text` is how every text input (series and run
configuration) is read.
"""

from __future__ import annotations

from datetime import date
from pathlib import Path

from .errors import ParseError, TooShort, UnreadableFile
from .series import TimeSeries, validate


def read_text(path) -> str:
    """The UTF-8 text of an input file: `FileNotFoundError` if it does not
    exist, `UnreadableFile` naming it if it cannot be read as such text."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no such file: {path}")
    try:
        return path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:  # a directory, bad bytes, ...
        raise UnreadableFile(f"cannot read {path} as UTF-8 text: {exc}") from exc


def load_csv(path) -> TimeSeries:
    """Parse a `date,value` file into a validated series with timestamps."""
    return parse_csv_text(read_text(path), name_hint=Path(path).stem)


def parse_csv_text(text: str, name_hint: str = "") -> TimeSeries:
    lines = text.replace("\r\n", "\n").split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise ParseError(1, "empty file")
    header = [part.strip() for part in lines[0].split(",")]
    if len(header) != 2 or header[0].lower() != "date":
        raise ParseError(1, f"expected header 'date,<name>', got {lines[0]!r}")
    name = header[1] or name_hint
    values: list[float] = []
    stamps: list[date] = []
    for lineno, line in enumerate(lines[1:], start=2):
        if line.strip() == "":
            raise ParseError(lineno, "blank row")
        parts = line.split(",")
        if len(parts) != 2:
            raise ParseError(lineno, f"expected 2 fields, got {len(parts)}")
        try:
            stamp = date.fromisoformat(parts[0].strip())
        except ValueError as exc:
            raise ParseError(lineno, f"bad date {parts[0]!r}: {exc}") from exc
        try:
            value = float(parts[1])
        except ValueError as exc:
            raise ParseError(lineno, f"bad value {parts[1]!r}") from exc
        stamps.append(stamp)
        values.append(value)
    if len(values) < 2:
        raise TooShort(f"need at least 2 rows, got {len(values)}")
    return validate(TimeSeries(values, timestamps=tuple(stamps), name=name))


def write_csv(series: TimeSeries, path) -> Path:
    """Emit a series with timestamps; load_csv(write_csv(s)) == s exactly."""
    if series.timestamps is None:
        raise ValueError("write_csv needs a series with timestamps")
    path = Path(path)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"date,{series.name or 'value'}\n")
        for stamp, value in zip(series.timestamps, series.values):
            fh.write(f"{stamp.isoformat()},{value:.17g}\n")
    return path
