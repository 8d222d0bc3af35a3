from __future__ import annotations

import dataclasses
from datetime import date
from pathlib import Path

import numpy as np
import pytest

from modecast import config, persist
from modecast.config import (
    PIPELINE_KEYS,
    cell_kind,
    load_config,
    parse_config_text,
    render_config,
    settings_of,
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

from conftest import named_configs

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
    assert (cfg.network.cell, cfg.train.seed, cfg.garch.max_iter) == (CellKind.GRU, 3, 9)
    back = parse_config_text(render_config(cfg, (5, 7), header_comments=["frozen run"]))
    assert to_pipeline_config(back) == cfg
    assert back["horizons"] == (5, 7)


@pytest.mark.parametrize("name", list(named_configs()))
def test_every_shipped_config_survives_the_grammar(name):
    cfg = named_configs()[name]
    settings = settings_of(cfg)
    assert tuple(settings) == PIPELINE_KEYS
    assert to_pipeline_config(settings) == cfg
    assert to_pipeline_config(parse_config_text(render_config(cfg, (3,)))) == cfg


# a value of every key other than its default
_OTHER_VALUES = {
    "modes": 4, "split.fraction": 0.7, "vmd.alpha": 750.0, "vmd.tau": 0.1, "vmd.tol": 1e-6,
    "vmd.max_iter": 20, "vmd.init_omega": "zero", "vmd.mirror": False, "vmd.dc_mode": True,
    "vmd.seed": 3, "garch.k": 2, "garch.l": 3, "garch.max_iter": 9,
    "network.cell": CellKind.GRU, "network.layers": 1, "network.hidden": 8,
    "network.dropout": 0.0, "network.seq_len": 12, "train.epochs": 3, "train.batch": 16,
    "train.lr": 0.01, "train.seed": 4, "retrain_every": 5,
}


def _header_config(cfg) -> dict:
    """`cfg` as a model header's `config` holds it."""
    return {key: None if value is None else config.format_value(value)
            for key, value in settings_of(cfg).items()}


def test_each_setting_decodes_to_its_key_alone_and_through_a_header():
    # each section is built in one call from its defaults and the settings:
    # every key changes its own value and no other, as the text and as a header
    assert set(_OTHER_VALUES) == set(PIPELINE_KEYS)
    defaults = settings_of(to_pipeline_config({"modes": 3}))
    assert all(defaults[key] != value for key, value in _OTHER_VALUES.items())
    cases = [{"modes": 3, key: value} for key, value in _OTHER_VALUES.items()]
    for settings in cases + [_OTHER_VALUES, {"modes": 3}]:
        cfg = to_pipeline_config(settings)
        assert settings_of(cfg) == {**defaults, **settings}
        assert to_pipeline_config(parse_config_text(render_config(cfg, (3,)))) == cfg
        assert persist._config_from(_header_config(cfg)) == cfg
    for cfg in named_configs().values():
        assert persist._config_from(_header_config(cfg)) == cfg


def test_every_pipeline_value_is_one_key():
    def leaves(obj, prefix=""):
        for f in dataclasses.fields(obj):
            value = getattr(obj, f.name)
            if dataclasses.is_dataclass(value):
                yield from leaves(value, f"{prefix}{f.name}.")
            else:
                yield prefix + f.name

    derived = {"network.seed", "network.input_features"}  # per mode, `mode_network_config`
    settable = sorted(set(leaves(to_pipeline_config({"modes": 2}))) - derived)
    assert settable == sorted(path for _, path in config._KEYS.values() if path)
    assert len(settable) == len(PIPELINE_KEYS) == 23


def test_the_network_seed_and_width_are_derived_not_set():
    # `mode_network_config` derives both per mode, so the configuration keeps
    # neither: no key sets them, and the grammar reads back every value it holds
    cfg = PipelineConfig(vmd=VmdConfig(n_modes=2),
                         network=NetworkConfig(CellKind.GRU, hidden=5, input_features=3, seed=9))
    assert cfg.network == NetworkConfig(CellKind.GRU, hidden=5)
    assert to_pipeline_config(settings_of(cfg)) == cfg


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
