from __future__ import annotations

import dataclasses
import json
import math
import pickle
import xml.etree.ElementTree as ET
import zipfile
import zlib

import numpy as np
import pytest

from modecast.charts import line_chart, panel_chart
from modecast.errors import CorruptModel
from modecast.garch import FitOptions, GarchSpec
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


def _header(model_dir):
    return json.loads((model_dir / "forecaster.json").read_text())


def _write_header(model_dir, header):
    (model_dir / "forecaster.json").write_text(json.dumps(header))


def _read_arrays(model_dir):
    """The saved arrays by the header's layout, read without the package."""
    flat = np.fromfile(model_dir / "arrays.f64", dtype="<f8")
    arrays, at = {}, 0
    for name, shape in _header(model_dir)["arrays"]:
        n = math.prod(shape)
        arrays[name] = flat[at:at + n].reshape(shape)
        at += n
    assert at == flat.size
    return arrays


def _rewrite_arrays(model_dir, change):
    """Apply `change` to the saved arrays and write them back, each as the raw
    bytes of its own dtype, under a layout and CRC that describe them."""
    arrays = _read_arrays(model_dir)
    change(arrays)
    blob = b"".join(np.ascontiguousarray(a).tobytes() for a in arrays.values())
    (model_dir / "arrays.f64").write_bytes(blob)
    _write_header(model_dir, {**_header(model_dir), "crc32": zlib.crc32(blob),
                              "arrays": [[name, list(a.shape)] for name, a in arrays.items()]})


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
    assert sorted(p.name for p in model_dir.iterdir()) == ["arrays.f64", "forecaster.json"]


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
        ["arrays.f64", "forecaster.json"] + others)
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
        "arrays.f64", "forecaster.json", "net_mode_1.txt"]
    _assert_identical(fc, load_forecaster(model_dir))


def test_forecaster_load_rejects_v2_dir(tmp_path):
    _, model_dir = _saved(tmp_path)
    manifest = model_dir / "forecaster.json"
    header = json.loads(manifest.read_text())
    # the v2 layout: the same settings plus the training size and per-mode entries
    manifest.write_text(json.dumps({**header, "format": "modecast-forecaster v2",
                                    "train_size": 176, "mode_models": []}))
    with pytest.raises(CorruptModel, match="re-run `modecast train`"):
        load_forecaster(model_dir)


def test_forecaster_load_rejects_v3_dir(tmp_path):
    _, model_dir = _saved(tmp_path)
    manifest = model_dir / "forecaster.json"
    header = json.loads(manifest.read_text())
    # the v3 layout: the same arrays, and the Nelder-Mead tolerances among the GARCH options
    options = {**header["config"]["garch_options"], "xatol": 1e-5, "fatol": 1e-8}
    manifest.write_text(json.dumps({**header, "format": "modecast-forecaster v3",
                                    "config": {**header["config"], "garch_options": options}}))
    with pytest.raises(CorruptModel, match="re-run `modecast train`"):
        load_forecaster(model_dir)


def test_forecaster_load_rejects_v4_dir(tmp_path):
    fc, model_dir = _saved(tmp_path)
    header = _header(model_dir)
    arrays = _read_arrays(model_dir)
    # the v4 layout: the same header without the layout and CRC, the arrays in one .npz
    del header["arrays"], header["crc32"]
    _write_header(model_dir, {**header, "format": "modecast-forecaster v4"})
    (model_dir / "arrays.f64").unlink()
    np.savez(model_dir / "arrays.npz", **arrays)
    with pytest.raises(CorruptModel, match="re-run `modecast train`"):
        load_forecaster(model_dir)
    save_forecaster(fc, model_dir)  # saved over, it loads; the stale archive stays
    assert sorted(p.name for p in model_dir.iterdir()) == [
        "arrays.f64", "arrays.npz", "forecaster.json"]
    _assert_identical(fc, load_forecaster(model_dir))


_FIXED_NAMES = {
    Variant.DIRECT: ["mode_values", "networks"],
    Variant.VMD: ["mode_values", "networks", "omegas", "residual"],
    Variant.VMD_GARCH: ["mode_values", "networks", "omegas", "residual",
                        "alphas", "betas", "sigma2_path", "residuals"],
}


@pytest.mark.parametrize("n_modes", [2, 3])
@pytest.mark.parametrize("variant", list(Variant))
def test_archive_holds_the_fixed_name_set(tmp_path, variant, n_modes):
    cfg = small_config(epochs=1, n_modes=n_modes)
    fc, model_dir = _saved(tmp_path, variant, cfg=cfg)
    k = 1 if variant is Variant.DIRECT else n_modes
    assert len(fc.mode_values) == k
    shapes = {name: a.shape for name, a in _read_arrays(model_dir).items()}
    assert list(shapes) == _FIXED_NAMES[variant]  # in file order
    assert (model_dir / "arrays.f64").stat().st_size == 8 * sum(map(math.prod, shapes.values()))
    assert shapes["mode_values"] == (k, 220)
    assert shapes["networks"] == (k, fc.networks[0].size)
    if variant is not Variant.DIRECT:
        assert shapes["omegas"] == (k,) and shapes["residual"] == (220,)
    if variant is Variant.VMD_GARCH:
        assert shapes["alphas"] == shapes["betas"] == (k, 1)
        assert shapes["sigma2_path"] == shapes["residuals"] == (k, 176)
    header = _header(model_dir)
    assert header["crc32"] == zlib.crc32((model_dir / "arrays.f64").read_bytes())
    assert set(header) == {"format", "variant", "cell", "config", "arrays", "crc32",
                           *(("modes",) if variant is not Variant.DIRECT else ()),
                           *(("garch",) if variant is Variant.VMD_GARCH else ())}
    if variant is Variant.VMD_GARCH:
        assert len(header["garch"]) == k
    # the record is the directory: every field comes back bit for bit
    loaded = load_forecaster(model_dir)
    assert [f.name for f in dataclasses.fields(loaded)] == [
        "variant", "cell", "config", "modes", "mode_values", "garch", "networks"]
    _assert_identical(fc, loaded)
    for name in ("mode_values", "networks"):
        assert getattr(fc, name).tobytes() == getattr(loaded, name).tobytes()
    if variant is not Variant.DIRECT:
        assert loaded.modes.modes is loaded.mode_values
        for name in ("omegas", "residual"):
            assert getattr(fc.modes, name).tobytes() == getattr(loaded.modes, name).tobytes()
    for fit, back in zip(fc.garch or (), loaded.garch or (), strict=True):
        for a, b in [(fit.params.alphas, back.params.alphas), (fit.params.betas, back.params.betas),
                     (fit.sigma2_path, back.sigma2_path), (fit.residuals, back.residuals)]:
            assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("order", [(0, 1), (1, 0)])
def test_garch_order_with_an_empty_lag_set_round_trips(tmp_path, order):
    cfg = dataclasses.replace(small_config(epochs=1), garch=GarchSpec(*order))
    fc, model_dir = _saved(tmp_path, cfg=cfg)
    arrays = _read_arrays(model_dir)
    assert arrays["alphas"].shape == (2, order[0]) and arrays["betas"].shape == (2, order[1])
    loaded = load_forecaster(model_dir)
    _assert_identical(fc, loaded)
    series = wavy_series()
    assert np.array_equal(rolling_forecast(fc, series, 20).predictions,
                          rolling_forecast(loaded, series, 20).predictions)


def test_mode_count_other_than_configured_is_rejected(tmp_path):
    # every array holds three modes, in agreement with each other, but the
    # configuration decomposes into two
    _, model_dir = _saved(tmp_path, Variant.VMD, cfg=small_config(epochs=1, n_modes=3))
    manifest = model_dir / "forecaster.json"
    header = json.loads(manifest.read_text())
    header["config"]["vmd"]["n_modes"] = 2
    manifest.write_text(json.dumps(header))
    with pytest.raises(CorruptModel, match="mode_values"):
        load_forecaster(model_dir)


def test_forecaster_load_rejects_foreign_arrays_file(tmp_path):
    _, model_dir = _saved(tmp_path)
    arrays = model_dir / "arrays.f64"
    size, flat = arrays.stat().st_size, np.fromfile(arrays, dtype="<f8")
    arrays.write_text("not an array file\n")
    with pytest.raises(CorruptModel, match="not the layout's"):
        load_forecaster(model_dir)
    with open(arrays, "wb") as fh:  # a bare .npy of the file's arrays
        np.save(fh, flat)
    with pytest.raises(CorruptModel, match="not the layout's"):
        load_forecaster(model_dir)
    with zipfile.ZipFile(arrays, "w") as zf:  # an archive of something else
        zf.writestr("mode_values.npy", "not an array")
    with pytest.raises(CorruptModel, match="not the layout's"):
        load_forecaster(model_dir)
    arrays.write_bytes(np.random.default_rng(0).bytes(size))  # the right size, other bytes
    with pytest.raises(CorruptModel, match="CRC"):
        load_forecaster(model_dir)
    arrays.unlink()
    with pytest.raises(CorruptModel, match="unreadable"):
        load_forecaster(model_dir)
    arrays.mkdir()
    with pytest.raises(CorruptModel, match="unreadable"):
        load_forecaster(model_dir)


def test_truncated_arrays_file_is_typed(tmp_path):
    _, model_dir = _saved(tmp_path)
    arrays = model_dir / "arrays.f64"
    data = arrays.read_bytes()
    for cut in sorted({0, 1, 7, 8, *range(64, len(data) - 1, 64), len(data) - 8, len(data) - 1}):
        arrays.write_bytes(data[:cut])
        with pytest.raises(CorruptModel, match="not the layout's"):
            load_forecaster(model_dir)


def test_extra_trailing_bytes_are_refused(tmp_path):
    # np.fromfile would read a file with a trailing partial item and drop it
    _, model_dir = _saved(tmp_path)
    arrays = model_dir / "arrays.f64"
    data = arrays.read_bytes()
    for extra in (b"\0", bytes(7), bytes(8), data[:8]):
        arrays.write_bytes(data + extra)
        with pytest.raises(CorruptModel, match="not the layout's"):
            load_forecaster(model_dir)


def test_flipped_byte_is_refused(tmp_path):
    _, model_dir = _saved(tmp_path)
    arrays = model_dir / "arrays.f64"
    data = arrays.read_bytes()
    offsets = {0, 1, 7, 8, len(data) // 2, len(data) - 1,
               *np.random.default_rng(0).integers(0, len(data), 24).tolist()}
    for offset in sorted(offsets):
        for mask in (0x01, 0x80, 0xFF):
            flipped = bytearray(data)
            flipped[offset] ^= mask
            arrays.write_bytes(flipped)
            with pytest.raises(CorruptModel, match="CRC"):
                load_forecaster(model_dir)
    arrays.write_bytes(data)
    load_forecaster(model_dir)


def test_object_array_is_rejected_without_unpickling(tmp_path, monkeypatch):
    _, model_dir = _saved(tmp_path)
    residual = _read_arrays(model_dir)["residual"]
    with open(model_dir / "arrays.f64", "wb") as fh:  # a pickled object array in its place
        np.save(fh, residual.astype(object), allow_pickle=True)
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
        arrays["networks"] = arrays["networks"].astype(np.float32)

    _rewrite_arrays(model_dir, as_float32)
    with pytest.raises(CorruptModel, match="not the layout's"):
        load_forecaster(model_dir)


@pytest.mark.parametrize("name,shape", [("networks", (2, 7)), ("mode_values", (3, 220)),
                                        ("residual", (219,)), ("alphas", (2, 2)),
                                        ("residuals", (2, 5))])
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
    for holder, key, bad in [(full["garch"][0], "alpha0", -1.0),
                             (full["config"]["network"], "layers", 0),
                             (full["config"], "seq_len", 0),
                             (full["config"]["train"], "batch_size", 0),
                             (full["config"]["vmd"], "max_iter", 0),
                             (full["config"]["vmd"], "alpha", float("nan")),
                             (full["config"]["garch_options"], "max_iter", 0),
                             (full["config"], "vmd", None)]:
        value, holder[key] = holder[key], bad
        manifest.write_text(json.dumps(full))
        with pytest.raises(CorruptModel):
            load_forecaster(model_dir)
        holder[key] = value


_GARCH_ENTRY = {"alpha0": 0.1, "mean": 0.0, "log_likelihood": -1.0, "converged": True,
                "used_differencing": False, "used_rolling_fallback": False}


@pytest.mark.parametrize("variant,path,key,value", [
    (Variant.VMD_GARCH, (), "extra", 1),
    (Variant.VMD_GARCH, ("config",), "extra", 1),
    (Variant.VMD_GARCH, ("modes",), "extra", 1),
    (Variant.VMD_GARCH, ("config", "network"), "extra", 1),
    (Variant.VMD_GARCH, ("garch", 0), "extra", 1),
    (Variant.VMD_GARCH, (), "garch", None),
    (Variant.VMD, (), "garch", [_GARCH_ENTRY, _GARCH_ENTRY]),
    (Variant.VMD_GARCH, (), "garch", lambda entries: entries[:-1]),
    (Variant.VMD, (), "modes", None),
    (Variant.DIRECT, (), "modes", {"iterations": 1, "final_delta": 0.0, "converged": True}),
    (Variant.VMD_GARCH, (), "train_size", 176),
    (Variant.VMD_GARCH, (), "mode_models", []),
], ids=["extra-top", "extra-config", "extra-modes", "extra-network", "extra-garch",
        "garch-null", "garch-on-vmd", "garch-one-short", "modes-null-on-vmd",
        "modes-on-direct", "leftover-train-size", "leftover-mode-models"])
def test_tampered_header_is_rejected(tmp_path, variant, path, key, value):
    fc, model_dir = _saved(tmp_path, variant)
    assert len(fc.mode_values[0]) == 220 and fc.train_size == 176
    assert [fit is None for fit in fc.garch or [None] * len(fc.mode_values)] == (
        [False, False] if variant is Variant.VMD_GARCH
        else [True, True] if variant is Variant.VMD else [True])
    manifest = model_dir / "forecaster.json"
    header = json.loads(manifest.read_text())
    holder = header
    for step in path:
        holder = holder[step]
    holder[key] = value(holder[key]) if callable(value) else value
    manifest.write_text(json.dumps(header))
    with pytest.raises(CorruptModel):
        load_forecaster(model_dir)


def test_rolling_fallback_round_trips_and_keeps_its_kind(tmp_path):
    cfg = dataclasses.replace(small_config(epochs=1), garch_options=FitOptions(max_iter=1))
    fc, model_dir = _saved(tmp_path, cfg=cfg)
    assert [fit.used_rolling_fallback for fit in fc.garch] == [True, True]
    _assert_identical(fc, load_forecaster(model_dir))


def test_forecaster_load_with_missing_keys_is_typed(tmp_path):
    fc, model_dir = _saved(tmp_path)
    manifest = model_dir / "forecaster.json"
    full = json.loads(manifest.read_text())
    config = full["config"]
    holders = [full, config, config["network"], config["vmd"], config["garch"],
               config["garch_options"], config["train"], full["modes"], full["garch"][0]]
    for holder in holders:
        for key in [k for k in holder if k != "format"]:
            value = holder.pop(key)
            manifest.write_text(json.dumps(full))
            with pytest.raises(CorruptModel, match="incomplete forecaster.json"):
                load_forecaster(model_dir)
            holder[key] = value
    manifest.write_text(json.dumps(full))
    save_forecaster(fc, model_dir)
    names = list(_read_arrays(model_dir))
    assert len(names) == 8
    for name in names:
        _rewrite_arrays(model_dir, lambda arrays: arrays.pop(name))
        assert name not in _read_arrays(model_dir)
        with pytest.raises(CorruptModel, match="do not list"):
            load_forecaster(model_dir)
        save_forecaster(fc, model_dir)
    for change in (lambda arrays: arrays.update(extra=np.zeros(2)),
                   lambda arrays: arrays.update(omega=arrays.pop("omegas"))):
        _rewrite_arrays(model_dir, change)
        with pytest.raises(CorruptModel, match="do not list"):
            load_forecaster(model_dir)
        save_forecaster(fc, model_dir)
    manifest.write_text(json.dumps({"format": "modecast-forecaster v2"}))
    with pytest.raises(CorruptModel):
        load_forecaster(model_dir)


def _shapes(**shapes):
    """A header change that gives each named array its shape, a list or a
    function of the saved one."""
    return lambda header: header.update(arrays=[
        [n, (shapes[n](s) if callable(shapes[n]) else shapes[n]) if n in shapes else s]
        for n, s in header["arrays"]])


@pytest.mark.parametrize("change", [
    # sizes that sum to the file, with the CRC intact, against the record's shapes
    _shapes(mode_values=[4, 110]),
    _shapes(sigma2_path=[1, 352]),
    _shapes(networks=lambda shape: shape[::-1]),
    _shapes(omegas=[3], residual=[219]),
    lambda h: h.update(arrays=h["arrays"][:6] + h["arrays"][7:5:-1]),  # names swapped
    # mistyped entries
    _shapes(omegas=[True]),
    _shapes(omegas=[2.0]),
    _shapes(alphas=[-2, -1]),
    _shapes(residual=220),
    _shapes(residual=[220, 1]),
    lambda h: h.update(arrays={n: s for n, s in h["arrays"]}),
    lambda h: h.update(arrays=[{"name": n, "shape": s} for n, s in h["arrays"]]),
    lambda h: h.update(arrays=[[n, s, "<f8"] for n, s in h["arrays"]]),
    lambda h: h.update(arrays=None),
    lambda h: h.update(crc32=float(h["crc32"])),
    lambda h: h.update(crc32=str(h["crc32"])),
    lambda h: h.update(crc32=True),
    lambda h: h.update(crc32=None),
    lambda h: h.update(crc32=h["crc32"] ^ 1),
], ids=["mode-values-sum", "sigma2-path-sum", "networks-sum", "omegas-residual-sum",
        "names-swapped", "bool-size", "float-size", "negative-sizes", "shape-no-list",
        "extra-dimension", "layout-dict", "entry-dict", "entry-triple", "layout-null",
        "crc-float", "crc-str", "crc-bool", "crc-null", "crc-other"])
def test_contradicting_or_mistyped_layout_is_refused(tmp_path, change):
    _, model_dir = _saved(tmp_path)
    data = (model_dir / "arrays.f64").read_bytes()
    header = _header(model_dir)
    change(header)
    _write_header(model_dir, header)
    with pytest.raises(CorruptModel):
        load_forecaster(model_dir)
    assert (model_dir / "arrays.f64").read_bytes() == data


@pytest.mark.parametrize("name", ["alphas", "sigma2_path"])
def test_garch_array_rows_must_match_the_garch_entries(tmp_path, name):
    # one row fewer than the K = 2 header entries, the sizes still summing to the
    # file with the CRC intact: refused by name before the file is read
    _, model_dir = _saved(tmp_path)
    header = _header(model_dir)
    shape = dict(header["arrays"])[name]
    _shapes(**{name: [1, shape[0] * shape[1]]})(header)
    _write_header(model_dir, header)
    with pytest.raises(CorruptModel, match=rf"array {name} shape \[1, {shape[0] * shape[1]}\] "
                                           r"has 1 rows for 2 garch entries"):
        load_forecaster(model_dir)
