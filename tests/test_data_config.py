from __future__ import annotations

from datetime import date
from pathlib import Path

import numpy as np
import pytest

from modecast.config import (
    cell_kind,
    load_config,
    parse_config_text,
    render_config,
    to_pipeline_config,
)
from modecast.data import load_csv, parse_csv_text, write_csv
from modecast.errors import (
    ConfigError,
    DataError,
    NonMonotonicTimestamps,
    ParseError,
    UnreadableFile,
)
from modecast.neural import CellKind, NetworkConfig, TrainConfig
from modecast.pipeline import PipelineConfig
from modecast.series import TimeSeries
from modecast.vmd import VmdConfig

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


@pytest.mark.parametrize("make", [lambda p: p.mkdir(),
                                  lambda p: p.write_bytes(b"date,value\n2020-01-01,1\xff\n")],
                         ids=["directory", "non-utf8"])
def test_unreadable_input_names_the_file(tmp_path, make):
    path = tmp_path / "series.csv"
    make(path)
    with pytest.raises(UnreadableFile, match="series.csv") as err:
        load_csv(path)
    assert isinstance(err.value, DataError)
    with pytest.raises(UnreadableFile, match="series.csv"):
        load_config(path)


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
    assert cfg == {"modes": 10, "split.fraction": 0.85, "vmd.alpha": 2000.0, "garch.k": 10,
                   "garch.l": 10, "network.cell": CellKind.LSTM, "network.seq_len": 50,
                   "train.epochs": 100, "horizons": (10, 20, 30)}


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
    with pytest.raises(ConfigError, match="modes"):
        to_pipeline_config(parse_config_text("vmd.alpha = 750\n"))
    assert to_pipeline_config({"modes": 4}).vmd.n_modes == 4


def test_defaults_are_the_dataclasses_own():
    assert to_pipeline_config({"modes": 3}) == PipelineConfig(vmd=VmdConfig(n_modes=3))


def test_render_parse_round_trip():
    cfg = to_pipeline_config(parse_config_text(
        "modes = 4\nvmd.alpha = 750\nnetwork.cell = GRU\ntrain.seed = 3\ngarch.max_iter = 9\n"))
    assert (cfg.network.cell, cfg.network.seed, cfg.garch_options.max_iter) == (CellKind.GRU, 3, 9)
    back = parse_config_text(render_config(cfg, (5, 7), header_comments=["frozen run"]))
    assert to_pipeline_config(back) == cfg
    assert back["horizons"] == (5, 7)


def test_rendered_text_lists_every_key_in_table_order():
    cfg = to_pipeline_config(parse_config_text(
        "modes = 3\nnetwork.cell = Rnn\ntrain.lr = 0.003\nvmd.dc_mode = true\n"
        "garch.max_iter = 40\n"))
    assert render_config(cfg, (5, 20), ["a comment"]) == """\
# a comment
modes = 3
split.fraction = 0.84999999999999998
vmd.alpha = 2000
vmd.tau = 0
vmd.tol = 9.9999999999999995e-08
vmd.max_iter = 500
vmd.init_omega = uniform
vmd.mirror = true
vmd.dc_mode = true
vmd.seed = 0
garch.k = 10
garch.l = 10
garch.max_iter = 40
network.cell = rnn
network.layers = 2
network.hidden = 64
network.dropout = 0.20000000000000001
network.seq_len = 50
train.epochs = 100
train.batch = 32
train.lr = 0.0030000000000000001
train.seed = 0
horizons = 5,20
retrain_every = 0
"""


def test_cell_kind_lookup():
    assert cell_kind("LSTM") is CellKind.LSTM
    with pytest.raises(ConfigError):
        cell_kind("transformer")


def test_to_pipeline_config_validates_through_modules():
    pipe = to_pipeline_config(parse_config_text("modes = 3\nnetwork.cell = gru\n"))
    assert pipe.vmd.n_modes == 3 and pipe.network.cell is CellKind.GRU
    with pytest.raises(ConfigError):
        to_pipeline_config(parse_config_text("modes = 0\n"))
    with pytest.raises(ConfigError):
        to_pipeline_config(parse_config_text("modes = 3\nnetwork.dropout = 1.5\n"))


@pytest.mark.parametrize("make", [lambda: TrainConfig(seed=-1),
                                  lambda: NetworkConfig(CellKind.RNN, seed=-1),
                                  lambda: VmdConfig(n_modes=2, seed=-1)],
                         ids=["train", "network", "vmd"])
def test_negative_seed_is_a_config_error(make):
    # numpy's generators take no negative seed
    with pytest.raises(ConfigError, match="seed"):
        make()


def test_committed_reference_config_parses():
    path = Path(__file__).resolve().parents[1] / "configs" / "reference.cfg"
    pipe = to_pipeline_config(load_config(path))
    assert pipe.vmd.n_modes == 10
    assert (pipe.garch.k, pipe.garch.l) == (10, 10)
    assert pipe.seq_len == 50
    assert pipe.split.train_fraction == 0.85
    assert pipe.network.layers == 2
