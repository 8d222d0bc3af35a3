"""Dated-series CSV ingestion/emission and an optional cached HTTP fetch.

The on-disk format is two columns, ``date,value``: ISO dates (YYYY-MM-DD),
decimal values, UTF-8, LF or CRLF line endings.  The header is matched
case-insensitively and the second column may carry any name (exports from
data portals usually use the series identifier), which becomes the series
name.  Values are written with 17 significant digits so a write/load round
trip is exact.

Everything except `fetch_series` runs offline; the fetch is a convenience
client that no other operation depends on.
"""

from __future__ import annotations

import logging
import os
import time
from datetime import date
from pathlib import Path

from .errors import HttpStatusError, NetworkError, ParseError, TooShort
from .series import TimeSeries, validate

log = logging.getLogger(__name__)

CACHE_ENV_VAR = "MODECAST_CACHE_DIR"


def load_csv(path) -> TimeSeries:
    """Parse a `date,value` file into a validated series with timestamps."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no such file: {path}")
    text = path.read_text(encoding="utf-8")
    return parse_csv_text(text, name_hint=path.stem)


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


def resolve_cache_dir(cache_dir=None) -> Path:
    """Precedence: explicit argument > environment variable > default."""
    if cache_dir is not None:
        return Path(cache_dir)
    env = os.environ.get(CACHE_ENV_VAR)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "modecast"


def fetch_series(series_id: str, endpoint_url: str, cache_dir=None,
                 timeout: float = 30.0, max_age_seconds: float = 86400.0) -> Path:
    """Download `<endpoint_url>?id=<series_id>` as CSV into the cache.

    A cached file younger than `max_age_seconds` short-circuits the network
    entirely.  The stored file is byte-identical to the response body; it is
    parsed first so malformed payloads never land in the cache.
    """
    cache = resolve_cache_dir(cache_dir)
    cache.mkdir(parents=True, exist_ok=True)
    target = cache / f"{series_id}.csv"
    if target.exists() and time.time() - target.stat().st_mtime < max_age_seconds:
        log.info("cache hit for %s at %s", series_id, target)
        return target
    # imported here: the HTTP client costs ~15 ms at import, and no other
    # operation needs it
    from urllib import error, request

    url = f"{endpoint_url}?id={series_id}"
    try:
        with request.urlopen(url, timeout=timeout) as response:
            status = response.status
            body = response.read()
    except error.HTTPError as exc:
        raise HttpStatusError(exc.code, url) from exc
    except OSError as exc:  # URLError, refused connections and timeouts
        raise NetworkError(
            f"could not reach {url}: {exc}; pass a cached file or check connectivity"
        ) from exc
    if status != 200:
        raise HttpStatusError(status, url)
    parse_csv_text(body.decode("utf-8"), name_hint=series_id)  # reject malformed payloads
    target.write_bytes(body)
    log.info("fetched %s (%d bytes) to %s", series_id, len(body), target)
    return target
