from __future__ import annotations

import io
import socket
import urllib.error
from datetime import date
from pathlib import Path

import numpy as np
import pytest

from modecast.config import (
    RunConfig,
    cell_kind,
    parse_config_text,
    render_config,
    require_modes,
    to_pipeline_config,
)
from modecast.data import fetch_series, load_csv, parse_csv_text, resolve_cache_dir, write_csv
from modecast.errors import (
    ConfigError,
    NetworkError,
    NonMonotonicTimestamps,
    ParseError,
)
from modecast.series import TimeSeries

FIXTURE = Path(__file__).resolve().parents[1] / "data" / "cpi_germany_synthetic.csv"


# ---------------------------------------------------------------------------
# CSV
# ---------------------------------------------------------------------------

def test_load_two_row_file(tmp_path):
    path = tmp_path / "tiny.csv"
    path.write_text("date,value\n2020-01-01,1.5\n2020-02-01,2.5\n")
    series = load_csv(path)
    assert len(series) == 2
    assert series.timestamps == (date(2020, 1, 1), date(2020, 2, 1))


def test_load_fred_style_header(tmp_path):
    path = tmp_path / "fred.csv"
    path.write_text("DATE,CPALTT01DEM661S\n1970-01-01,26.06\n1970-02-01,26.21\n")
    series = load_csv(path)
    assert series.name == "CPALTT01DEM661S"
    assert series.values[0] == pytest.approx(26.06)


def test_parse_error_carries_line_number(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("date,value\n1970-01-01,1.0\n1970-02-01,abc\n")
    with pytest.raises(ParseError) as err:
        load_csv(path)
    assert err.value.line == 3


def test_bad_header_rejected(tmp_path):
    path = tmp_path / "noheader.csv"
    path.write_text("1970-01-01,1.0\n1970-02-01,2.0\n")
    with pytest.raises(ParseError) as err:
        load_csv(path)
    assert err.value.line == 1


def test_unordered_dates_rejected():
    with pytest.raises(NonMonotonicTimestamps):
        parse_csv_text("date,value\n2020-02-01,1.0\n2020-01-01,2.0\n")


def test_missing_file():
    with pytest.raises(FileNotFoundError):
        load_csv("/nonexistent/series.csv")


def test_crlf_accepted():
    series = parse_csv_text("date,value\r\n2020-01-01,1\r\n2020-02-01,2\r\n")
    assert len(series) == 2


def test_write_load_round_trip_exact(tmp_path):
    rng = np.random.default_rng(3)
    stamps = tuple(date(2001 + i // 12, i % 12 + 1, 1) for i in range(30))
    series = TimeSeries(rng.standard_normal(30) * 133.7, timestamps=stamps, name="x")
    path = write_csv(series, tmp_path / "round.csv")
    back = load_csv(path)
    assert np.array_equal(back.values, series.values)
    assert back.timestamps == series.timestamps
    assert back.name == series.name


def test_fixture_loads():
    series = load_csv(FIXTURE)
    assert len(series) == 636
    assert series.timestamps[0] == date(1970, 1, 1)
    assert series.timestamps[-1] == date(2022, 12, 1)


# ---------------------------------------------------------------------------
# Fetch
# ---------------------------------------------------------------------------

def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def test_fetch_unreachable_endpoint(tmp_path):
    url = f"http://127.0.0.1:{_free_port()}/csv"
    with pytest.raises(NetworkError) as err:
        fetch_series("SERIES", url, cache_dir=tmp_path, timeout=0.5)
    assert "SERIES" in str(err.value) or "127.0.0.1" in str(err.value)


def test_fetch_cache_hit_skips_network(tmp_path, caplog):
    cached = tmp_path / "SERIES.csv"
    cached.write_text("date,value\n2020-01-01,1\n2020-02-01,2\n")
    url = f"http://127.0.0.1:{_free_port()}/csv"  # would fail if contacted
    with caplog.at_level("INFO", logger="modecast.data"):
        out = fetch_series("SERIES", url, cache_dir=tmp_path)
    assert out == cached
    assert any("cache hit" in record.message for record in caplog.records)


def test_fetch_writes_response_bytes(tmp_path, monkeypatch):
    body = b"date,value\n2020-01-01,1.25\n2020-02-01,2.5\n"

    class FakeResponse(io.BytesIO):
        status = 200

    def fake_urlopen(url, timeout):
        assert url.endswith("?id=SER")
        return FakeResponse(body)

    monkeypatch.setattr("urllib.request.urlopen", fake_urlopen)
    out = fetch_series("SER", "http://example.invalid/csv", cache_dir=tmp_path)
    assert out.read_bytes() == body


def test_fetch_http_error(tmp_path, monkeypatch):
    def fake_urlopen(url, timeout):
        raise urllib.error.HTTPError(url, 404, "Not Found", None, None)

    monkeypatch.setattr("urllib.request.urlopen", fake_urlopen)
    from modecast.errors import HttpStatusError

    with pytest.raises(HttpStatusError) as err:
        fetch_series("NOPE", "http://example.invalid/csv", cache_dir=tmp_path)
    assert err.value.status_code == 404


def test_cache_dir_precedence(tmp_path, monkeypatch):
    monkeypatch.setenv("MODECAST_CACHE_DIR", str(tmp_path / "env"))
    assert resolve_cache_dir(tmp_path / "arg") == tmp_path / "arg"
    assert resolve_cache_dir(None) == tmp_path / "env"
    monkeypatch.delenv("MODECAST_CACHE_DIR")
    assert resolve_cache_dir(None).name == "modecast"


# ---------------------------------------------------------------------------
# Config grammar
# ---------------------------------------------------------------------------

def test_parse_basic_config():
    cfg = parse_config_text("""
# reference settings
modes = 10
split.fraction = 0.85
vmd.alpha = 2000
garch.k = 10
garch.l = 10
network.cell = lstm
network.seq_len = 50
train.epochs = 100
horizons = 10,20,30
""")
    assert cfg.modes == 10
    assert cfg.horizons == (10, 20, 30)
    assert cfg.vmd_alpha == 2000.0
    assert cfg.network_seq_len == 50


def test_unknown_key_rejected():
    with pytest.raises(ConfigError) as err:
        parse_config_text("vmd.alhpa = 2000\n")
    assert "alhpa" in str(err.value)


def test_bad_value_names_key():
    with pytest.raises(ConfigError) as err:
        parse_config_text("train.epochs = soon\n")
    assert "train.epochs" in str(err.value)


def test_missing_equals_rejected():
    with pytest.raises(ConfigError):
        parse_config_text("modes 10\n")


def test_modes_required():
    with pytest.raises(ConfigError):
        require_modes(RunConfig())
    assert require_modes(RunConfig(modes=4)) == 4


def test_render_parse_round_trip():
    cfg = parse_config_text("modes = 4\nvmd.alpha = 750\nnetwork.cell = gru\nhorizons = 5,7\n")
    text = render_config(cfg, header_comments=["frozen run"])
    back = parse_config_text(text)
    assert back == cfg


def test_cell_kind_lookup():
    from modecast.neural import CellKind

    assert cell_kind("LSTM") is CellKind.LSTM
    with pytest.raises(ConfigError):
        cell_kind("transformer")


def test_to_pipeline_config_validates_through_modules():
    cfg = parse_config_text("modes = 3\nnetwork.cell = gru\n")
    pipe = to_pipeline_config(cfg)
    assert pipe.vmd.n_modes == 3
    with pytest.raises(ConfigError):
        to_pipeline_config(parse_config_text("modes = 0\n"))
    with pytest.raises(ConfigError):
        to_pipeline_config(parse_config_text("modes = 3\nnetwork.dropout = 1.5\n"))


def test_committed_reference_config_parses():
    from modecast.config import load_config

    path = Path(__file__).resolve().parents[1] / "configs" / "reference.cfg"
    pipe = to_pipeline_config(load_config(path))
    assert pipe.vmd.n_modes == 10
    assert (pipe.garch.k, pipe.garch.l) == (10, 10)
    assert pipe.seq_len == 50
    assert pipe.split.train_fraction == 0.85
    assert pipe.network.layers == 2
