from __future__ import annotations

import json
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from modecast.charts import line_chart, panel_chart
from modecast.errors import CorruptModel
from modecast.neural import CellKind, flatten_parameters
from modecast.persist import load_forecaster, save_forecaster
from modecast.pipeline import Variant, fit_forecaster, rolling_forecast

from conftest import small_config, wavy_series

SVG_NS = "{http://www.w3.org/2000/svg}"


def test_line_chart_structure(tmp_path):
    path = tmp_path / "chart.svg"
    series = [("actual", np.arange(20.0)), ("predicted", np.arange(20.0) + 0.5)]
    line_chart(series, "twenty points", path)
    root = ET.parse(path).getroot()
    polylines = root.findall(f"{SVG_NS}polyline")
    assert len(polylines) == 2
    for poly in polylines:
        assert len(poly.attrib["points"].split()) == 20
    texts = [t.text for t in root.findall(f"{SVG_NS}text")]
    assert "twenty points" in texts
    assert "actual" in texts and "predicted" in texts


def test_line_chart_rejects_empty(tmp_path):
    with pytest.raises(ValueError):
        line_chart([], "empty", tmp_path / "x.svg")


def test_panel_chart_structure(tmp_path):
    path = tmp_path / "panels.svg"
    rows = [(f"mode_{i + 1}", np.sin(np.linspace(0, 6, 40) * (i + 1))) for i in range(4)]
    panel_chart(rows, "decomposition", path)
    root = ET.parse(path).getroot()
    polylines = root.findall(f"{SVG_NS}polyline")
    assert len(polylines) == 4
    assert all(len(p.attrib["points"].split()) == 40 for p in polylines)


def test_constant_series_chartable(tmp_path):
    line_chart([("flat", np.full(5, 3.0))], "flat", tmp_path / "flat.svg")


def test_forecaster_save_load_round_trip(tmp_path):
    series = wavy_series()
    cfg = small_config(n_modes=2)
    fc = fit_forecaster(series, Variant.VMD_GARCH, CellKind.GRU, cfg)
    save_forecaster(fc, tmp_path / "model")
    loaded = load_forecaster(tmp_path / "model")
    assert loaded.variant == fc.variant
    assert loaded.cell == fc.cell
    assert loaded.train_size == fc.train_size
    assert np.array_equal(loaded.mode_values, fc.mode_values)
    for a, b in zip(fc.mode_models, loaded.mode_models):
        assert a.scaler == b.scaler
        assert a.vol_kind == b.vol_kind
        pa, pb = flatten_parameters(a.network), flatten_parameters(b.network)
        assert all(np.array_equal(pa[k], pb[k]) for k in pa)
    # a reloaded forecaster forecasts bit-identically
    res_a = rolling_forecast(fc, series, 6)
    res_b = rolling_forecast(loaded, series, 6)
    assert np.array_equal(res_a.predictions, res_b.predictions)
    assert np.array_equal(res_a.per_mode, res_b.per_mode)


def test_forecaster_load_rejects_foreign_dir(tmp_path):
    (tmp_path / "forecaster.json").write_text('{"format": "something else"}')
    with pytest.raises(ValueError):
        load_forecaster(tmp_path)


def test_forecaster_load_with_missing_keys_is_typed(tmp_path):
    fc = fit_forecaster(wavy_series(), Variant.VMD_GARCH, CellKind.RNN, small_config(epochs=1))
    save_forecaster(fc, tmp_path / "model")
    manifest = tmp_path / "model" / "forecaster.json"
    full = json.loads(manifest.read_text())
    entry = full["mode_models"][0]
    config = full["config"]
    holders = [full, config, config["network"], config["vmd"], config["garch"],
               config["garch_options"], config["train"], full["modes"], entry,
               entry["scaler"], entry["garch"]]
    for holder in holders:
        for key in [k for k in holder if k != "format"]:
            value = holder.pop(key)
            manifest.write_text(json.dumps(full))
            with pytest.raises(CorruptModel, match="incomplete forecaster.json"):
                load_forecaster(tmp_path / "model")
            holder[key] = value
    manifest.write_text(json.dumps({"format": "modecast-forecaster v1"}))
    with pytest.raises(CorruptModel):
        load_forecaster(tmp_path / "model")
