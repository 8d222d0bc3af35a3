from __future__ import annotations

import json
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from modecast import garch as garch_mod
from modecast.cli import main
from modecast.config import load_config, to_pipeline_config
from modecast.data import write_csv
from modecast.persist import load_forecaster
from modecast.pipeline import aggregate

from conftest import wavy_series


@pytest.fixture()
def series_csv(tmp_path) -> Path:
    from datetime import date

    series = wavy_series(n=220)
    stamps = tuple(date(2000 + i // 12, i % 12 + 1, 1) for i in range(len(series)))
    dated = type(series)(series.values, timestamps=stamps, name="wavy")
    return write_csv(dated, tmp_path / "series.csv")


@pytest.fixture()
def config_file(tmp_path) -> Path:
    path = tmp_path / "run.cfg"
    path.write_text("""
modes = 2
split.fraction = 0.8
vmd.alpha = 500
garch.k = 1
garch.l = 1
network.cell = rnn
network.layers = 2
network.hidden = 6
network.dropout = 0.1
network.seq_len = 10
train.epochs = 2
train.batch = 32
train.lr = 0.003
train.seed = 5
horizons = 5
""")
    return path


def test_decompose_writes_modes_and_metadata(tmp_path, series_csv, config_file, capsys):
    out = tmp_path / "dec"
    code = main(["decompose", "--input", str(series_csv), "--config", str(config_file),
                 "--out-dir", str(out)])
    assert code == 0
    header = (out / "modes.csv").read_text().splitlines()[0]
    assert header == "mode_1,mode_2"
    meta = json.loads((out / "modes_meta.json").read_text())
    assert len(meta["omegas"]) == 2
    assert meta["omegas"] == sorted(meta["omegas"])
    rows = np.loadtxt(out / "modes.csv", delimiter=",", skiprows=1)
    assert rows.shape == (220, 2)
    assert (out / "run_manifest.txt").exists()


def test_decompose_modes_flag_overrides_config(tmp_path, series_csv, config_file):
    out = tmp_path / "dec3"
    code = main(["decompose", "--input", str(series_csv), "--config", str(config_file),
                 "--modes", "3", "--out-dir", str(out)])
    assert code == 0
    assert (out / "modes.csv").read_text().splitlines()[0] == "mode_1,mode_2,mode_3"


def test_garch_fit_outputs_per_mode_files(tmp_path, series_csv, config_file):
    out = tmp_path / "g"
    code = main(["garch-fit", "--input", str(series_csv), "--config", str(config_file),
                 "--out-dir", str(out)])
    assert code == 0
    for k in (1, 2):
        payload = json.loads((out / f"garch_mode_{k}.json").read_text())
        assert payload["alpha0"] > 0
        sigma = np.loadtxt(out / f"sigma2_mode_{k}.csv", delimiter=",", skiprows=1)
        assert np.all(sigma[:, 1] > 0)


def test_garch_fit_writes_no_coefficients_for_a_fallback_mode(tmp_path, series_csv,
                                                             config_file, capsys):
    config_file.write_text(config_file.read_text() + "garch.max_iter = 1\n")
    out = tmp_path / "g"
    assert main(["garch-fit", "--input", str(series_csv), "--config", str(config_file),
                 "--out-dir", str(out)]) == 0
    printed = capsys.readouterr().out
    for k in (1, 2):
        payload = json.loads((out / f"garch_mode_{k}.json").read_text())
        assert payload["used_rolling_fallback"] and not payload["converged"]
        assert payload["alpha0"] is None and payload["alphas"] is None and payload["betas"] is None
        assert f"mode {k}: rolling-variance fallback converged=False" in printed
    assert "persistence" not in printed


def test_garch_fit_files_equal_per_mode_fits_byte_for_byte(tmp_path, series_csv, config_file,
                                                          monkeypatch):
    args = ["garch-fit", "--input", str(series_csv), "--config", str(config_file)]
    assert main(args + ["--out-dir", str(tmp_path / "batched")]) == 0
    # the same command with each mode fitted on its own, as `garch.fit` does
    batched = garch_mod.fit_many
    monkeypatch.setattr(garch_mod, "fit_many", lambda sources, spec:
                        [batched([x], spec)[0] for x in sources])
    assert main(args + ["--out-dir", str(tmp_path / "alone")]) == 0
    names = sorted(p.name for p in (tmp_path / "alone").glob("*_mode_*"))
    assert names == sorted(p.name for p in (tmp_path / "batched").glob("*_mode_*"))
    assert len(names) == 4  # garch_mode_k.json and sigma2_mode_k.csv of both modes
    for name in names:
        assert (tmp_path / "batched" / name).read_bytes() == (tmp_path / "alone" / name).read_bytes()


def test_train_then_forecast_from_model_dir(tmp_path, series_csv, config_file):
    model_dir = tmp_path / "model"
    assert main(["train", "--input", str(series_csv), "--config", str(config_file),
                 "--out-dir", str(model_dir), "--variant", "vmd-garch"]) == 0
    assert (model_dir / "forecaster.json").exists()
    out = tmp_path / "fc"
    assert main(["forecast", "--input", str(series_csv), "--config", str(config_file),
                 "--model-dir", str(model_dir), "--steps", "6", "--out-dir", str(out)]) == 0
    lines = (out / "predictions.csv").read_text().splitlines()
    assert lines[0] == "step,actual,predicted,mode_1,mode_2"
    assert len(lines) == 7


def test_forecast_from_model_dir_rejects_another_series(tmp_path, series_csv, config_file,
                                                       capsys):
    from datetime import date

    model_dir = tmp_path / "model"
    assert main(["train", "--input", str(series_csv), "--config", str(config_file),
                 "--out-dir", str(model_dir), "--variant", "vmd-garch"]) == 0
    common = ["--config", str(config_file), "--steps", "6"]
    assert main(["forecast", "--input", str(series_csv), "--model-dir", str(model_dir),
                 "--out-dir", str(tmp_path / "saved"), *common]) == 0
    assert main(["forecast", "--input", str(series_csv), "--variant", "vmd-garch",
                 "--out-dir", str(tmp_path / "fresh"), *common]) == 0
    saved = (tmp_path / "saved" / "predictions.csv").read_text()
    assert saved == (tmp_path / "fresh" / "predictions.csv").read_text()

    other = wavy_series(n=220, seed=1)
    stamps = tuple(date(2000 + i // 12, i % 12 + 1, 1) for i in range(len(other)))
    other_csv = write_csv(type(other)(other.values, timestamps=stamps, name="other"),
                          tmp_path / "other.csv")
    capsys.readouterr()
    assert main(["forecast", "--input", str(other_csv), "--model-dir", str(model_dir),
                 "--out-dir", str(tmp_path / "other"), *common]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not (tmp_path / "other").exists()


def test_forecast_per_mode_columns_sum_to_predicted(tmp_path, series_csv, config_file):
    out = tmp_path / "fc2"
    assert main(["forecast", "--input", str(series_csv), "--config", str(config_file),
                 "--steps", "5", "--out-dir", str(out), "--variant", "vmd"]) == 0
    rows = np.loadtxt(out / "predictions.csv", delimiter=",", skiprows=1)
    for row in rows:
        assert row[2] == aggregate(row[3:])  # bit-exact correctly rounded sum


def test_manifest_rerun_is_bit_identical(tmp_path, series_csv, config_file):
    out1 = tmp_path / "r1"
    assert main(["forecast", "--input", str(series_csv), "--config", str(config_file),
                 "--steps", "4", "--out-dir", str(out1)]) == 0
    manifest = out1 / "run_manifest.txt"
    out2 = tmp_path / "r2"
    assert main(["forecast", "--input", str(series_csv), "--config", str(manifest),
                 "--steps", "4", "--out-dir", str(out2)]) == 0
    assert (out1 / "predictions.csv").read_bytes() == (out2 / "predictions.csv").read_bytes()


def test_forecast_from_model_dir_records_the_model_settings(tmp_path, series_csv, config_file):
    model_dir = tmp_path / "model"  # a GRU, trained over a config that names the RNN
    assert main(["train", "--input", str(series_csv), "--config", str(config_file),
                 "--cell", "gru", "--out-dir", str(model_dir), "--variant", "vmd"]) == 0
    out = tmp_path / "fc"  # flags equal to the model's settings pass
    assert main(["forecast", "--input", str(series_csv), "--model-dir", str(model_dir),
                 "--modes", "2", "--seed", "5", "--cell", "GRU", "--variant", "vmd",
                 "--steps", "4", "--out-dir", str(out)]) == 0
    manifest = out / "run_manifest.txt"
    lines = manifest.read_text().splitlines()
    for line in ("modes = 2", "network.cell = gru", "network.hidden = 6", "network.seq_len = 10",
                 "train.epochs = 2", "train.seed = 5"):
        assert line in lines
    assert to_pipeline_config(load_config(manifest)) == load_forecaster(model_dir).config


@pytest.mark.parametrize("flag,value", [("--variant", "direct"), ("--cell", "lstm"),
                                        ("--modes", "5"), ("--seed", "9"), ("--config", None)])
def test_forecast_from_model_dir_refuses_a_differing_setting(tmp_path, series_csv, config_file,
                                                            capsys, flag, value):
    model_dir = tmp_path / "model"
    assert main(["train", "--input", str(series_csv), "--config", str(config_file),
                 "--out-dir", str(model_dir), "--variant", "vmd"]) == 0
    if flag == "--config":  # the training config with one setting changed
        value = str(tmp_path / "other.cfg")
        Path(value).write_text(config_file.read_text().replace("network.hidden = 6",
                                                               "network.hidden = 7"))
    capsys.readouterr()
    out = tmp_path / "fc"
    assert main(["forecast", "--input", str(series_csv), "--model-dir", str(model_dir),
                 flag, value, "--steps", "4", "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag}" if flag != "--config" else
                          "error: 'network.hidden' of --config differs")
    assert "Traceback" not in err
    assert not out.exists()


def test_manifests_record_the_arguments_given_to_main(tmp_path, series_csv, config_file,
                                                      monkeypatch):
    monkeypatch.setattr(sys, "argv", ["host-program", "--unrelated"])
    out = tmp_path / "dec"
    argv = ["decompose", "--input", str(series_csv), "--config", str(config_file),
            "--out-dir", str(out)]
    assert main(argv) == 0
    assert f"# command: {' '.join(argv)}" in (out / "run_manifest.txt").read_text().splitlines()
    chart = tmp_path / "modes.svg"
    argv = ["plot", "--modes-csv", str(out / "modes.csv"), "--out", str(chart)]
    assert main(argv) == 0
    assert f"# command: {' '.join(argv)}" in Path(f"{chart}.manifest.txt").read_text().splitlines()


def test_empty_horizons_flag_exit_1_naming_it(tmp_path, series_csv, config_file, capsys):
    out = tmp_path / "cmp"
    assert main(["compare", "--input", str(series_csv), "--config", str(config_file),
                 "--out-dir", str(out), "--cells", "rnn", "--horizons", ","]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "--horizons" in err and "Traceback" not in err
    assert not out.exists()


def test_compare_emits_structured_metrics(tmp_path, series_csv, config_file):
    out = tmp_path / "cmp"
    code = main(["compare", "--input", str(series_csv), "--config", str(config_file),
                 "--out-dir", str(out), "--cells", "rnn", "--horizons", "5"])
    assert code == 0
    lines = (out / "metrics.txt").read_text().splitlines()
    assert len(lines) == 3  # one cell, three variants, one horizon
    for line in lines:
        fields = dict(part.split("=", 1) for part in line.split())
        assert {"model", "cell", "horizon", "rmse", "mae", "mape_percent"} <= set(fields)
    assert (out / "metrics_table.txt").exists()


def test_compare_nine_rows_for_three_cells(tmp_path, series_csv, config_file):
    out = tmp_path / "cmp9"
    code = main(["compare", "--input", str(series_csv), "--config", str(config_file),
                 "--out-dir", str(out), "--horizons", "5"])
    assert code == 0
    lines = (out / "metrics.txt").read_text().splitlines()
    assert len(lines) == 9


def test_plot_predictions(tmp_path, series_csv, config_file):
    fc_dir = tmp_path / "fc3"
    main(["forecast", "--input", str(series_csv), "--config", str(config_file),
          "--steps", "5", "--out-dir", str(fc_dir)])
    svg = tmp_path / "chart.svg"
    assert main(["plot", "--predictions", str(fc_dir / "predictions.csv"),
                 "--out", str(svg)]) == 0
    assert svg.read_text().count("<polyline") == 2


def test_plot_modes_panels(tmp_path, series_csv, config_file):
    dec = tmp_path / "dec4"
    main(["decompose", "--input", str(series_csv), "--config", str(config_file),
          "--out-dir", str(dec)])
    svg = tmp_path / "modes.svg"
    assert main(["plot", "--modes-csv", str(dec / "modes.csv"), "--out", str(svg)]) == 0
    assert svg.read_text().count("<polyline") == 2


@pytest.mark.parametrize("both", [True, False])
def test_plot_takes_exactly_one_input(tmp_path, capsys, both):
    table = tmp_path / "predictions.csv"
    table.write_text("step,actual,predicted\n1,2,3\n2,3,4\n")
    inputs = ["--predictions", str(table), "--modes-csv", str(table)] if both else []
    assert main(["plot", *inputs, "--out", str(tmp_path / "x.svg")]) == 1
    assert "--modes-csv" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [table]  # no chart, no manifest


@pytest.mark.parametrize("flag", ["--predictions", "--modes-csv"])
def test_plot_of_an_empty_path_is_an_unreadable_file(tmp_path, capsys, flag):
    assert main(["plot", flag, "", "--out", str(tmp_path / "x.svg")]) == 2
    assert capsys.readouterr().err.startswith("error: cannot read ")
    assert not any(tmp_path.iterdir())


# ---------------------------------------------------------------------------
# Exit codes
# ---------------------------------------------------------------------------

def test_usage_error_exit_1(capsys):
    assert main(["decompose"]) == 1  # missing --input


def test_unknown_config_key_exit_1(tmp_path, series_csv, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("modes = 2\nvmd.bogus = 1\n")
    assert main(["decompose", "--input", str(series_csv), "--config", str(bad),
                 "--out-dir", str(tmp_path / "x")]) == 1


# a header scalar of the wrong type, or a rolling-fallback flag, which a
# GARCH entry no longer holds (it is `not converged`), here contradicting the
# fit's convergence: (header block, entry, value)
_MISTYPED_SCALARS = {
    "garch-mean": ("garch", "mean", "x"),
    "garch-alpha0": ("garch", "alpha0", True),
    "garch-converged": ("garch", "converged", "no"),
    "garch-fallback-of-a-converged-fit": ("garch", "used_rolling_fallback", True),
    "modes-final-delta": ("modes", "final_delta", "x"),
    "modes-iterations": ("modes", "iterations", 12.0),
}

# a layout or CRC in the header that is mistyped or contradicts the record
_LAYOUT_DAMAGE = {
    "layout-sum": lambda h: h["arrays"][0].__setitem__(1, [h["arrays"][0][1][0] * 2,
                                                           h["arrays"][0][1][1] // 2]),
    "layout-bool-size": lambda h: h["arrays"][2].__setitem__(1, [True]),
    "layout-negative-size": lambda h: h["arrays"][2].__setitem__(1, [-1]),
    "layout-renamed": lambda h: h["arrays"][2].__setitem__(0, "omega"),
    "layout-missing": lambda h: h["arrays"].pop(),
    "crc-float": lambda h: h.update(crc32=float(h["crc32"])),
    "crc-bool": lambda h: h.update(crc32=True),
}


@pytest.mark.parametrize("damage", ["format", "json", "checkpoint", "keys", "truncated",
                                    "trailing-byte", "flipped-byte", "npz", "v4",
                                    *_MISTYPED_SCALARS, *_LAYOUT_DAMAGE])
def test_forecast_from_corrupt_model_dir_exit_2(tmp_path, series_csv, config_file, capsys,
                                                damage):
    model_dir = tmp_path / "model"
    assert main(["train", "--input", str(series_csv), "--config", str(config_file),
                 "--out-dir", str(model_dir), "--variant", "vmd-garch"]) == 0
    manifest = model_dir / "forecaster.json"
    arrays = model_dir / "arrays.f64"
    data = arrays.read_bytes()
    if damage in _MISTYPED_SCALARS:
        block, name, value = _MISTYPED_SCALARS[damage]
        payload = json.loads(manifest.read_text())
        entry = payload["garch"][0] if block == "garch" else payload["modes"]
        if name == "used_rolling_fallback":
            assert entry["converged"] is True  # the flag now contradicts it
        entry[name] = value
        manifest.write_text(json.dumps(payload))
    elif damage in _LAYOUT_DAMAGE:
        payload = json.loads(manifest.read_text())
        _LAYOUT_DAMAGE[damage](payload)
        manifest.write_text(json.dumps(payload))
    elif damage == "format":
        payload = json.loads(manifest.read_text())
        payload["format"] = "modecast-forecaster v0"
        manifest.write_text(json.dumps(payload))
    elif damage == "json":
        manifest.write_text(manifest.read_text()[:200])
    elif damage == "keys":
        manifest.write_text(json.dumps({"format": "modecast-forecaster v2"}))
    elif damage == "truncated":
        arrays.write_bytes(data[:300])
    elif damage == "trailing-byte":
        arrays.write_bytes(data + b"\0")
    elif damage == "flipped-byte":  # the last bit of a network weight: only the CRC tells
        layout = json.loads(manifest.read_text())["arrays"]
        at = 8 * layout[0][1][0] * layout[0][1][1] + 8
        arrays.write_bytes(data[:at] + bytes([data[at] ^ 1]) + data[at + 1:])
    elif damage in ("npz", "v4"):  # the v4 array archive, with its header or the v5 one
        with open(arrays, "wb") as fh:
            np.savez(fh, flat=np.frombuffer(data, dtype="<f8"))
        if damage == "v4":
            payload = json.loads(manifest.read_text())
            del payload["arrays"], payload["crc32"]
            manifest.write_text(json.dumps({**payload, "format": "modecast-forecaster v4"}))
            arrays.rename(model_dir / "arrays.npz")
    else:
        arrays.write_text("not an array file\n")
    capsys.readouterr()
    code = main(["forecast", "--input", str(series_csv), "--config", str(config_file),
                 "--model-dir", str(model_dir), "--steps", "6",
                 "--out-dir", str(tmp_path / "fc")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and "Traceback" not in err
    assert ("re-run `modecast train`" in err) == (damage in ("format", "keys", "v4"))


# a header `config` that is not the grammar's settings
_BAD_CONFIG = {
    "missing-key": lambda c: c.pop("vmd.tau"),
    "extra-key": lambda c: c.update({"train.clip_norm": "5"}),
    "int-not-string": lambda c: c.update({"network.hidden": 6}),
    "null-alpha": lambda c: c.update({"vmd.alpha": None}),
    "null-modes": lambda c: c.update({"modes": None}),
    "zero-modes": lambda c: c.update({"modes": "0"}),
}


@pytest.mark.parametrize("damage", list(_BAD_CONFIG))
def test_forecast_from_model_dir_with_a_bad_config_exit_2(tmp_path, series_csv, config_file,
                                                          capsys, damage):
    model_dir = tmp_path / "model"
    assert main(["train", "--input", str(series_csv), "--config", str(config_file),
                 "--out-dir", str(model_dir), "--variant", "vmd-garch"]) == 0
    manifest = model_dir / "forecaster.json"
    payload = json.loads(manifest.read_text())
    _BAD_CONFIG[damage](payload["config"])
    manifest.write_text(json.dumps(payload))
    capsys.readouterr()
    out = tmp_path / "fc"
    assert main(["forecast", "--input", str(series_csv), "--model-dir", str(model_dir),
                 "--steps", "6", "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "forecaster.json" in err and "Traceback" not in err
    assert "--modes" not in err  # a flag's hint does not apply to a model directory
    assert not out.exists()


def test_forecast_from_model_dir_refuses_a_cap_the_model_left_unset(tmp_path, series_csv,
                                                                   config_file, capsys):
    model_dir = tmp_path / "model"
    assert main(["train", "--input", str(series_csv), "--config", str(config_file),
                 "--out-dir", str(model_dir), "--variant", "vmd-garch"]) == 0
    capped = tmp_path / "capped.cfg"
    capped.write_text(config_file.read_text() + "garch.max_iter = 9\n")
    capsys.readouterr()
    assert main(["forecast", "--input", str(series_csv), "--config", str(capped),
                 "--model-dir", str(model_dir), "--steps", "6",
                 "--out-dir", str(tmp_path / "fc")]) == 1
    assert capsys.readouterr().err.startswith(
        "error: 'garch.max_iter' of --config differs from the model in "
        f"{model_dir}, fitted with garch.max_iter unset")


def test_missing_input_exit_2(tmp_path, config_file, capsys):
    assert main(["decompose", "--input", str(tmp_path / "absent.csv"),
                 "--config", str(config_file), "--out-dir", str(tmp_path / "y")]) == 2


def test_data_error_exit_2(tmp_path, config_file, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("date,value\n2020-01-01,1.0\n2020-02-01,oops\n")
    assert main(["decompose", "--input", str(bad), "--config", str(config_file),
                 "--out-dir", str(tmp_path / "z")]) == 2


def test_modes_required_without_config(tmp_path, series_csv, capsys):
    assert main(["decompose", "--input", str(series_csv),
                 "--out-dir", str(tmp_path / "w")]) == 1
    # the settings are checked before the input: with no modes and no input
    # file, every command refuses the settings
    for command, extra in [("decompose", []), ("garch-fit", []), ("train", []),
                           ("forecast", ["--steps", "3"]), ("compare", [])]:
        out = tmp_path / command
        assert main([command, "--input", str(tmp_path / "absent.csv"), "--out-dir", str(out),
                     *extra]) == 1, command
        assert "the number of modes is required" in capsys.readouterr().err
        assert not out.exists()


def test_compare_checks_cells_before_the_input(tmp_path, capsys):
    # `--cells` is refused as a usage error even when the input is missing
    out = tmp_path / "cmp"
    assert main(["compare", "--modes", "2", "--cells", "rnn,transformer",
                 "--input", str(tmp_path / "absent.csv"), "--out-dir", str(out)]) == 1
    assert "unknown cell 'transformer'" in capsys.readouterr().err
    assert not out.exists()


def test_numerical_failure_exit_3(monkeypatch, capsys):
    from modecast.errors import NumericalError

    def boom(args):
        raise NumericalError("synthetic numerical failure")

    monkeypatch.setitem(__import__("modecast.cli", fromlist=["_COMMANDS"])._COMMANDS,
                        "plot", boom)
    assert main(["plot", "--predictions", "x.csv", "--out", "y.svg"]) == 3


def test_decompose_ten_modes_on_index_fixture(tmp_path, capsys):
    fixture = Path(__file__).resolve().parents[1] / "data" / "cpi_germany_synthetic.csv"
    out = tmp_path / "dec10"
    code = main(["decompose", "--input", str(fixture), "--modes", "10",
                 "--out-dir", str(out)])
    assert code == 0
    summary = capsys.readouterr().out
    assert "500 iterations" in summary and "converged=False" in summary
    header = (out / "modes.csv").read_text().splitlines()[0]
    assert header == ",".join(f"mode_{i}" for i in range(1, 11))
    meta = json.loads((out / "modes_meta.json").read_text())
    assert meta["iterations"] == 500 and meta["converged"] is False
    omegas = meta["omegas"]
    assert len(omegas) == 10
    assert omegas == sorted(omegas)


@pytest.mark.parametrize("horizons", ["5,-2", "0"])
def test_compare_rejects_non_positive_horizon(tmp_path, series_csv, config_file, horizons):
    out = tmp_path / "cmp_bad"
    code = main(["compare", "--input", str(series_csv), "--config", str(config_file),
                 "--out-dir", str(out), "--cells", "rnn", "--horizons", horizons])
    assert code == 2
    assert not (out / "metrics.txt").exists()


@pytest.mark.parametrize("flag", ["--input", "--config"])
@pytest.mark.parametrize("make", [lambda p: p.mkdir(),
                                  lambda p: p.write_bytes(b"date,value\n2020-01-01,1\xff\n")],
                         ids=["directory", "non-utf8"])
def test_unreadable_input_exit_2(tmp_path, series_csv, config_file, capsys, flag, make):
    bad = tmp_path / "unreadable"
    make(bad)
    paths = {"--input": series_csv, "--config": config_file, flag: bad}
    code = main(["decompose", "--input", str(paths["--input"]), "--config",
                 str(paths["--config"]), "--modes", "2", "--out-dir", str(tmp_path / "u")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and str(bad) in err and "Traceback" not in err


def test_compare_rejects_non_integer_horizon(tmp_path, series_csv, config_file, capsys):
    out = tmp_path / "cmp_x"
    code = main(["compare", "--input", str(series_csv), "--config", str(config_file),
                 "--out-dir", str(out), "--cells", "rnn", "--horizons", "5,x"])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("flag,text", [
    ("--predictions", "step,foo\n1,2\n"),
    ("--predictions", "step,actual,predicted\n"),
    ("--modes-csv", "mode_1,mode_2\n"),
    ("--modes-csv", ""),
    ("--modes-csv", "mode_1,mode_2\n1,2\n3\n"),
], ids=["missing-column", "no-rows", "modes-no-rows", "modes-empty", "modes-ragged"])
def test_plot_rejects_a_csv_it_cannot_chart(tmp_path, capsys, flag, text):
    table = tmp_path / "table.csv"
    table.write_text(text)
    svg = tmp_path / "chart.svg"
    code = main(["plot", flag, str(table), "--out", str(svg)])
    err = capsys.readouterr().err
    assert code == 2
    assert "error: " in err and str(table) in err and "Traceback" not in err
    assert not svg.exists()


def test_plot_of_an_empty_csv_prints_only_the_error(tmp_path, capsys, monkeypatch):
    table = tmp_path / "table.csv"
    table.write_text("")
    with warnings.catch_warnings():
        # show warnings on stderr as a plain `modecast` run does
        warnings.simplefilter("always")
        monkeypatch.setattr(warnings, "showwarning", lambda message, category, filename, lineno,
                            file=None, line=None: sys.stderr.write(
                                warnings.formatwarning(message, category, filename, lineno, line)))
        code = main(["plot", "--modes-csv", str(table), "--out", str(tmp_path / "x.svg")])
    assert code == 2
    err = capsys.readouterr().err
    assert err == f"error: cannot read {table} as a CSV table: no header line\n"


@pytest.mark.parametrize("line", ["network.seq_len = 0", "network.seq_len = -3", "train.batch = 0",
                                  "train.epochs = -1", "train.lr = -1", "retrain_every = -2",
                                  "vmd.alpha = nan", "vmd.alpha = inf", "vmd.tol = nan",
                                  "train.lr = inf", "garch.max_iter = 0", "horizons = ,"])
def test_out_of_range_setting_exit_1(tmp_path, series_csv, config_file, capsys, line):
    bad = tmp_path / "bad.cfg"
    bad.write_text(config_file.read_text() + line + "\n")
    out = tmp_path / "fc"
    code = main(["forecast", "--modes", "2", "--variant", "vmd", "--config", str(bad),
                 "--input", str(series_csv), "--steps", "3", "--out-dir", str(out)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
    assert not (out / "predictions.csv").exists()


@pytest.mark.parametrize("command", ["decompose", "train", "plot"])
def test_unusable_output_path_exit_2(tmp_path, series_csv, config_file, capsys, command):
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory\n")
    if command == "plot":
        table = tmp_path / "predictions.csv"
        table.write_text("step,actual,predicted\n1,2,3\n2,3,4\n")
        argv = ["plot", "--predictions", str(table), "--out", str(blocker / "x.svg")]
    else:
        argv = [command, "--input", str(series_csv), "--config", str(config_file),
                "--out-dir", str(blocker)]
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and str(blocker) in err and "Traceback" not in err


@pytest.mark.parametrize("command,extra,setting,exit_code", [
    ("forecast", ["--steps", "3"], "network.seq_len = 0", 1),
    ("forecast", ["--steps", "9999"], "", 2),
    ("compare", ["--cells", "rnn", "--horizons", "9999"], "", 2),
    ("forecast", ["--steps", "3", "--seed", "-1"], "", 1),
    ("train", ["--seed", "-1"], "", 1),
    ("compare", ["--cells", "rnn", "--horizons", "3", "--seed", "-1"], "", 1),
    ("forecast", ["--steps", "3"], "train.seed = -5", 1),
    ("forecast", ["--steps", "3"], "vmd.seed = -5\nvmd.init_omega = random", 1),
], ids=["bad-setting", "steps-too-long", "horizon-too-long", "negative-seed-forecast",
        "negative-seed-train", "negative-seed-compare", "negative-train-seed",
        "negative-vmd-seed"])
def test_refused_run_leaves_no_output_dir_and_fits_nothing(tmp_path, series_csv, config_file,
                                                           capsys, monkeypatch, command, extra,
                                                           setting, exit_code):
    import modecast.cli as cli

    calls = []
    monkeypatch.setattr(cli, "fit_forecaster", lambda *a, **k: calls.append(a))
    monkeypatch.setattr(cli, "compare_models", lambda *a, **k: calls.append(a))
    cfg = tmp_path / "run2.cfg"
    cfg.write_text(config_file.read_text() + setting + "\n")
    out = tmp_path / "fcout"
    code = main([command, "--input", str(series_csv), "--config", str(cfg),
                 "--out-dir", str(out), *extra])
    assert code == exit_code
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()
    assert calls == []


def test_train_into_an_unwritable_out_dir_fits_nothing(tmp_path, series_csv, config_file,
                                                       capsys, monkeypatch):
    import modecast.cli as cli

    calls = []
    monkeypatch.setattr(cli, "fit_forecaster", lambda *a, **k: calls.append(a))
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory\n")
    code = main(["train", "--input", str(series_csv), "--config", str(config_file),
                 "--out-dir", str(blocker)])
    assert code == 2
    assert str(blocker) in capsys.readouterr().err
    assert calls == []


@pytest.mark.parametrize("command,extra", [
    ("train", []), ("forecast", ["--steps", "1"]), ("compare", ["--cells", "rnn", "--horizons", "1"]),
])
def test_run_failing_in_the_fit_leaves_no_output_dir(tmp_path, config_file, capsys, command,
                                                     extra):
    from datetime import date

    # 15 points split, but cannot hold 10 modes: the decomposition refuses them
    series = wavy_series(n=15)
    stamps = tuple(date(2000 + i // 12, i % 12 + 1, 1) for i in range(len(series)))
    short = write_csv(type(series)(series.values, timestamps=stamps), tmp_path / "short.csv")
    cfg = tmp_path / "short.cfg"
    cfg.write_text(config_file.read_text() + "network.seq_len = 4\n")
    out = tmp_path / "fit_out"
    code = main([command, "--input", str(short), "--config", str(cfg), "--modes", "10",
                 "--out-dir", str(out), *extra])
    assert code == 2
    assert "10 modes" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# Scripts
# ---------------------------------------------------------------------------

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script,writes", [
    ("make_cpi_fixture.py", "data/cpi_germany_synthetic.csv"),
    ("run_benchmark.py", "out/benchmark/comparison.txt"),
])
def test_script_help_prints_usage_and_writes_nothing(script, writes):
    before = (ROOT / writes).stat().st_mtime_ns
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / script), "--help"],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "usage:" in done.stdout
    assert (ROOT / writes).stat().st_mtime_ns == before
