from __future__ import annotations

import dataclasses
import json
import pickle
import xml.etree.ElementTree as ET
import zipfile

import numpy as np
import pytest

from modecast.charts import line_chart, panel_chart
from modecast.errors import CorruptModel
from modecast.garch import FitOptions
from modecast.neural import CellKind
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


def _assert_identical(a, b):
    """Equal field by field; arrays equal bit for bit and in dtype."""
    if dataclasses.is_dataclass(a):
        assert type(a) is type(b)
        for f in dataclasses.fields(a):
            _assert_identical(getattr(a, f.name), getattr(b, f.name))
    elif isinstance(a, np.ndarray):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    elif isinstance(a, (tuple, list)):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            _assert_identical(x, y)
    elif isinstance(a, dict):
        assert list(a) == list(b)
        for key in a:
            _assert_identical(a[key], b[key])
    else:
        assert type(a) is type(b) and a == b


def _saved(tmp_path, variant=Variant.VMD_GARCH, cell=CellKind.RNN, cfg=None):
    fc = fit_forecaster(wavy_series(), variant, cell, cfg or small_config(epochs=1))
    return fc, save_forecaster(fc, tmp_path / "model")


def _rewrite_arrays(model_dir, change):
    """Apply `change` to the saved arrays and write them back, pickling allowed."""
    with np.load(model_dir / "arrays.npz", allow_pickle=False) as npz:
        arrays = {name: npz[name] for name in npz.files}
    change(arrays)
    np.savez(model_dir / "arrays.npz", **arrays)


def test_forecaster_save_load_round_trip(tmp_path):
    series = wavy_series()
    cases = [(Variant.VMD_GARCH, kind) for kind in CellKind]
    cases += [(Variant.VMD, CellKind.GRU), (Variant.DIRECT, CellKind.LSTM)]
    for variant, cell in cases:
        fc, model_dir = _saved(tmp_path / variant.value / cell.value, variant, cell)
        loaded = load_forecaster(model_dir)
        # every field: config, scalers, network configs and flat vectors, the
        # GARCH scalars and arrays, the mode set and its converged flag
        _assert_identical(fc, loaded)
        res_a = rolling_forecast(fc, series, 6)
        res_b = rolling_forecast(loaded, series, 6)
        assert np.array_equal(res_a.predictions, res_b.predictions)
        assert np.array_equal(res_a.per_mode, res_b.per_mode)


def test_vmd_converged_flag_round_trips(tmp_path):
    cfg = small_config(epochs=1)
    cfg = dataclasses.replace(cfg, vmd=dataclasses.replace(cfg.vmd, max_iter=2))
    fc, model_dir = _saved(tmp_path, Variant.VMD, cfg=cfg)
    assert fc.modes.converged is False
    assert load_forecaster(model_dir).modes.converged is False
    assert json.loads((model_dir / "forecaster.json").read_text())["modes"]["converged"] is False


def test_saved_directory_holds_header_and_arrays_only(tmp_path):
    _, model_dir = _saved(tmp_path)
    assert sorted(p.name for p in model_dir.iterdir()) == ["arrays.npz", "forecaster.json"]


def test_forecaster_load_rejects_foreign_dir(tmp_path):
    (tmp_path / "forecaster.json").write_text('{"format": "something else"}')
    with pytest.raises(ValueError):
        load_forecaster(tmp_path)
    assert issubclass(CorruptModel, ValueError)


def test_forecaster_load_rejects_v1_dir(tmp_path):
    _, model_dir = _saved(tmp_path)
    manifest = model_dir / "forecaster.json"
    manifest.write_text(json.dumps({**json.loads(manifest.read_text()),
                                    "format": "modecast-forecaster v1"}))
    with pytest.raises(CorruptModel, match="re-run `modecast train`"):
        load_forecaster(model_dir)


def test_save_touches_no_other_file(tmp_path):
    fc, model_dir = _saved(tmp_path)
    header = model_dir / "forecaster.json"
    header.write_text(json.dumps({**json.loads(header.read_text()),
                                  "format": "modecast-forecaster v1"}))
    others = ["net_mode_1.txt", "net_mode_12.txt", "notes.txt"]
    for name in others:
        (model_dir / name).write_text("checkpoint\n")
    save_forecaster(fc, model_dir)
    assert sorted(p.name for p in model_dir.iterdir()) == sorted(
        ["arrays.npz", "forecaster.json"] + others)
    _assert_identical(fc, load_forecaster(model_dir))


@pytest.mark.parametrize("header", ['{"format": "modecast-forecaster v2"}',
                                    '{"format": "something else"}', "not json", None])
def test_resave_leaves_checkpoint_names_alone_without_a_v1_header(tmp_path, header):
    fc = fit_forecaster(wavy_series(), Variant.VMD, CellKind.RNN, small_config(epochs=1))
    model_dir = tmp_path / "model"
    model_dir.mkdir()
    if header is not None:
        (model_dir / "forecaster.json").write_text(header)
    (model_dir / "net_mode_1.txt").write_text("checkpoint\n")
    save_forecaster(fc, model_dir)
    assert sorted(p.name for p in model_dir.iterdir()) == [
        "arrays.npz", "forecaster.json", "net_mode_1.txt"]
    _assert_identical(fc, load_forecaster(model_dir))


def test_forecaster_load_rejects_foreign_arrays_file(tmp_path):
    _, model_dir = _saved(tmp_path)
    arrays = model_dir / "arrays.npz"
    arrays.write_text("not an archive\n")
    with pytest.raises(CorruptModel):
        load_forecaster(model_dir)
    np.save(arrays, np.zeros(3))  # a bare array, not an archive
    with pytest.raises(CorruptModel):
        load_forecaster(model_dir)
    with zipfile.ZipFile(arrays, "w") as zf:  # an archive of something else
        zf.writestr("mode_values.npy", "not an array")
    with pytest.raises(CorruptModel):
        load_forecaster(model_dir)
    arrays.unlink()
    with pytest.raises(CorruptModel):
        load_forecaster(model_dir)


def test_truncated_arrays_file_is_typed(tmp_path):
    _, model_dir = _saved(tmp_path)
    arrays = model_dir / "arrays.npz"
    data = arrays.read_bytes()
    for cut in sorted({0, 1, *range(64, len(data) - 1, 64), len(data) - 1}):
        arrays.write_bytes(data[:cut])
        with pytest.raises(CorruptModel):
            load_forecaster(model_dir)


def test_object_array_is_rejected_without_unpickling(tmp_path, monkeypatch):
    _, model_dir = _saved(tmp_path)

    def as_objects(arrays):
        arrays["residual"] = arrays["residual"].astype(object)

    _rewrite_arrays(model_dir, as_objects)
    calls = []
    for name in ("load", "loads"):
        original = getattr(pickle, name)
        monkeypatch.setattr(pickle, name,
                            lambda *a, _f=original, **k: calls.append(a) or _f(*a, **k))
    with pytest.raises(CorruptModel):
        load_forecaster(model_dir)
    assert calls == []


def test_float32_network_vector_is_rejected(tmp_path):
    _, model_dir = _saved(tmp_path)

    def as_float32(arrays):
        arrays["mode_1.flat"] = arrays["mode_1.flat"].astype(np.float32)

    _rewrite_arrays(model_dir, as_float32)
    with pytest.raises(CorruptModel, match="mode_1.flat"):
        load_forecaster(model_dir)


@pytest.mark.parametrize("name,shape", [("mode_1.flat", (7,)), ("mode_values", (3, 220)),
                                        ("residual", (219,)), ("mode_2.alphas", (2,)),
                                        ("mode_2.residuals", (5,))])
def test_misshapen_array_is_rejected(tmp_path, name, shape):
    _, model_dir = _saved(tmp_path)

    def misshape(arrays):
        arrays[name] = np.zeros(shape)

    _rewrite_arrays(model_dir, misshape)
    with pytest.raises(CorruptModel, match=name):
        load_forecaster(model_dir)


def test_out_of_range_header_values_are_typed(tmp_path):
    _, model_dir = _saved(tmp_path)
    manifest = model_dir / "forecaster.json"
    full = json.loads(manifest.read_text())
    for holder, key, bad in [(full["mode_models"][0]["garch"], "alpha0", -1.0),
                             (full["mode_models"][0]["network"], "layers", 0),
                             (full["config"]["vmd"], "max_iter", 0),
                             (full["config"], "vmd", None)]:
        value, holder[key] = holder[key], bad
        manifest.write_text(json.dumps(full))
        with pytest.raises(CorruptModel):
            load_forecaster(model_dir)
        holder[key] = value


@pytest.mark.parametrize("variant,path,key,value", [
    (Variant.VMD_GARCH, (), "extra", 1),
    (Variant.VMD_GARCH, ("config",), "extra", 1),
    (Variant.VMD_GARCH, ("modes",), "extra", 1),
    (Variant.VMD_GARCH, ("mode_models", 0), "extra", 1),
    (Variant.VMD_GARCH, ("mode_models", 0, "garch"), "extra", 1),
    (Variant.VMD_GARCH, ("mode_models", 0), "vol_kind", "bogus"),
    (Variant.VMD_GARCH, ("mode_models", 0), "vol_kind", "value"),
    (Variant.VMD_GARCH, ("mode_models", 0), "vol_kind", "rolling"),
    (Variant.VMD, ("mode_models", 1), "vol_kind", "garch"),
    (Variant.VMD_GARCH, ("mode_models", 0), "mode_index", 7),
    (Variant.VMD_GARCH, ("mode_models", 1), "mode_index", 2.0),
    (Variant.VMD_GARCH, (), "train_size", -5),
    (Variant.VMD_GARCH, (), "train_size", 0),
    (Variant.VMD_GARCH, (), "train_size", 220),
    (Variant.VMD_GARCH, (), "train_size", 176.0),
], ids=["extra-top", "extra-config", "extra-modes", "extra-mode", "extra-garch",
        "vol-kind-bogus", "vol-kind-value-on-garch", "vol-kind-rolling-on-fit",
        "vol-kind-garch-without-fit", "mode-index-7", "mode-index-float",
        "train-size-negative", "train-size-zero", "train-size-whole-series",
        "train-size-float"])
def test_tampered_header_is_rejected(tmp_path, variant, path, key, value):
    fc, model_dir = _saved(tmp_path, variant)
    assert len(fc.mode_values[0]) == 220 and fc.train_size == 176
    assert [m.vol_kind for m in fc.mode_models] == (
        ["garch", "garch"] if variant is Variant.VMD_GARCH else ["zeros", "zeros"])
    manifest = model_dir / "forecaster.json"
    header = json.loads(manifest.read_text())
    holder = header
    for step in path:
        holder = holder[step]
    holder[key] = value
    manifest.write_text(json.dumps(header))
    with pytest.raises(CorruptModel):
        load_forecaster(model_dir)


def test_rolling_fallback_round_trips_and_keeps_its_kind(tmp_path):
    cfg = dataclasses.replace(small_config(epochs=1), garch_options=FitOptions(max_iter=1))
    fc, model_dir = _saved(tmp_path, cfg=cfg)
    assert [m.vol_kind for m in fc.mode_models] == ["rolling", "rolling"]
    _assert_identical(fc, load_forecaster(model_dir))
    manifest = model_dir / "forecaster.json"
    header = json.loads(manifest.read_text())
    header["mode_models"][1]["vol_kind"] = "garch"
    manifest.write_text(json.dumps(header))
    with pytest.raises(CorruptModel, match="vol_kind"):
        load_forecaster(model_dir)


def test_forecaster_load_with_missing_keys_is_typed(tmp_path):
    fc, model_dir = _saved(tmp_path)
    manifest = model_dir / "forecaster.json"
    full = json.loads(manifest.read_text())
    entry = full["mode_models"][0]
    config = full["config"]
    holders = [full, config, config["network"], config["vmd"], config["garch"],
               config["garch_options"], config["train"], full["modes"], entry,
               entry["scaler"], entry["network"], entry["garch"]]
    for holder in holders:
        for key in [k for k in holder if k != "format"]:
            value = holder.pop(key)
            manifest.write_text(json.dumps(full))
            with pytest.raises(CorruptModel, match="incomplete forecaster.json"):
                load_forecaster(model_dir)
            holder[key] = value
    manifest.write_text(json.dumps(full))
    save_forecaster(fc, model_dir)
    with np.load(model_dir / "arrays.npz", allow_pickle=False) as npz:
        names = list(npz.files)
    assert len(names) == 3 + 5 * len(fc.mode_models)
    for name in names:
        _rewrite_arrays(model_dir, lambda arrays: arrays.pop(name))
        with pytest.raises(CorruptModel, match=name):
            load_forecaster(model_dir)
        save_forecaster(fc, model_dir)
    _rewrite_arrays(model_dir, lambda arrays: arrays.update(extra=np.zeros(2)))
    with pytest.raises(CorruptModel, match="extra"):
        load_forecaster(model_dir)
    manifest.write_text(json.dumps({"format": "modecast-forecaster v2"}))
    with pytest.raises(CorruptModel):
        load_forecaster(model_dir)
