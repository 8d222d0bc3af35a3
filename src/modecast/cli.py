"""Command-line driver: decompose | garch-fit | train | forecast | compare | plot.

Settings come from the `--config` file, outranked by `--modes`, `--seed`,
`--cell` and `--horizons`, which go through the same parsers (`config`).
Every run writes its outputs plus a `run_manifest.txt`: the configuration
that ran, in the config-file grammar (for `forecast --model-dir`, the loaded
model's), with the command line given to `main` recorded in comments.
Rerunning the same command with `--config run_manifest.txt` reproduces the
outputs bit-for-bit.  `forecast --model-dir` runs the model as saved: a
fitting flag or config setting that asks for another value than the model's
is refused.

Exit codes: 0 success, 1 usage/config error, 2 data error, 3 numerical failure;
a missing or unreadable file, or an output path that cannot be written, is a
data error whichever flag names it.  A command checks its settings, input,
model and horizons before it creates its output directory, and creates that
directory before it fits a forecaster, so an unwritable one fits nothing;
a run that fails removes the output directory it created if it is still
empty.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from . import garch as garch_mod
from . import charts, data, persist, vmd
from .config import (
    DEFAULT_HORIZONS,
    cell_kind,
    format_value,
    load_config,
    parse_setting,
    render_config,
    setting_value,
    to_pipeline_config,
)
from .errors import ConfigError, ModecastError, UnreadableFile
from .pipeline import (
    ForecastResult,
    PipelineConfig,
    Variant,
    check_horizons,
    compare_models,
    fit_forecaster,
    held_out_span,
    metrics,
    rolling_forecast,
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems must exit 1, not argparse's 2
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="modecast", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"modecast {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="run configuration file")
        p.add_argument("--input", required=True, help="date,value CSV series")
        p.add_argument("--out-dir", default="out", help="output directory")
        p.add_argument("--modes", help="number of decomposition modes")
        p.add_argument("--seed", help="training seed override")

    p = sub.add_parser("decompose", help="write mode CSV + center-frequency metadata")
    common(p)

    p = sub.add_parser("garch-fit", help="fit per-mode volatility models")
    common(p)

    p = sub.add_parser("train", help="fit a full forecaster and save it")
    common(p)
    p.add_argument("--variant", choices=sorted(v.value for v in Variant), default="vmd-garch")
    p.add_argument("--cell", help="rnn | gru | lstm (default from config)")

    p = sub.add_parser("forecast", help="rolling one-step-ahead forecast")
    common(p)
    p.add_argument("--variant", choices=sorted(v.value for v in Variant),
                   help="default vmd-garch when fitting")
    p.add_argument("--cell", help="rnn | gru | lstm (default from config)")
    p.add_argument("--model-dir", help="reuse a saved forecaster instead of training")
    p.add_argument("--steps", type=int, required=True)

    p = sub.add_parser("compare", help="run the 3 variants x 3 cells matrix")
    common(p)
    p.add_argument("--horizons", help="comma-separated step counts (default from config)")
    p.add_argument("--cells", default="rnn,gru,lstm")

    p = sub.add_parser("plot", help="render SVG charts from result CSVs")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--predictions", help="forecast CSV to chart")
    source.add_argument("--modes-csv", help="decomposition CSV to chart as panels")
    p.add_argument("--out", required=True, help="output SVG path")
    return parser


_FLAG_KEYS = {"modes": "modes", "seed": "train.seed", "cell": "network.cell",
              "horizons": "horizons"}


def _settings(args) -> dict[str, object]:
    """The config file's settings, outranked by the CLI flags given."""
    settings = {"horizons": DEFAULT_HORIZONS, **(load_config(args.config) if args.config else {})}
    for flag, key in _FLAG_KEYS.items():
        if getattr(args, flag, None) is not None:
            settings[key] = parse_setting(key, getattr(args, flag), f"--{flag}")
    return settings


def _check_model_settings(args, settings: dict, forecaster, cfg: PipelineConfig) -> None:
    """`--model-dir` runs the model as saved (`cfg`): a setting given by a flag or
    by `--config` that differs from the model's raises `ConfigError` naming it."""
    if args.variant is not None and Variant(args.variant) is not forecaster.variant:
        raise ConfigError(f"--variant {args.variant} differs from the model in "
                          f"{args.model_dir}, fitted as {forecaster.variant.value}")
    flags = {key: f"--{flag}" for flag, key in _FLAG_KEYS.items()
             if getattr(args, flag, None) is not None}
    for key, value in settings.items():
        fitted = setting_value(cfg, key)
        if fitted is not None and value != fitted:
            name = flags.get(key, f"{key!r} of --config")
            raise ConfigError(f"{name} differs from the model in {args.model_dir}, "
                              f"fitted with {key} = {format_value(fitted)}")


def _write_manifest(out_dir: Path, cfg: PipelineConfig, settings: dict, args) -> None:
    comments = [
        f"modecast {__version__} run manifest; rerun with --config {out_dir / 'run_manifest.txt'}",
        "command: " + " ".join(args.argv),
        f"input: {getattr(args, 'input', '-')}",
    ]
    (out_dir / "run_manifest.txt").write_text(render_config(cfg, settings["horizons"], comments),
                                              encoding="utf-8")


def _write_modes_csv(mode_set: vmd.ModeSet, out_dir: Path) -> Path:
    path = out_dir / "modes.csv"
    k = mode_set.n_modes
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(f"mode_{i + 1}" for i in range(k)) + "\n")
        for row in mode_set.modes.T:
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")
    meta = {
        "omegas": mode_set.omegas.tolist(),
        "iterations": mode_set.iterations,
        "final_delta": mode_set.final_delta,
        "converged": mode_set.converged,
        "residual": mode_set.residual.tolist(),
    }
    (out_dir / "modes_meta.json").write_text(json.dumps(meta, indent=1), encoding="utf-8")
    return path


def _cmd_decompose(args) -> int:
    settings = _settings(args)
    cfg = to_pipeline_config(settings)
    series = data.load_csv(args.input)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    mode_set = vmd.vmd_decompose(series, cfg.vmd)
    path = _write_modes_csv(mode_set, out_dir)
    _write_manifest(out_dir, cfg, settings, args)
    print(f"wrote {path} ({mode_set.n_modes} modes, {mode_set.iterations} iterations, "
          f"final delta {mode_set.final_delta:.3e}, converged={mode_set.converged})")
    return 0


def _cmd_garch_fit(args) -> int:
    settings = _settings(args)
    cfg = to_pipeline_config(settings)
    series = data.load_csv(args.input)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    mode_set = vmd.vmd_decompose(series, cfg.vmd)
    _write_modes_csv(mode_set, out_dir)
    fits = garch_mod.fit_many(mode_set.modes, cfg.garch, cfg.garch_options)
    for i, fit in enumerate(fits):
        fitted = not fit.used_rolling_fallback  # a fallback's search point is no fit
        payload = {
            "mode": i + 1,
            "alpha0": fit.params.alpha0 if fitted else None,
            "alphas": fit.params.alphas.tolist() if fitted else None,
            "betas": fit.params.betas.tolist() if fitted else None,
            "log_likelihood": fit.log_likelihood,
            "mean": fit.mean,
            "converged": fit.converged,
            "used_differencing": fit.used_differencing,
            "used_rolling_fallback": fit.used_rolling_fallback,
        }
        (out_dir / f"garch_mode_{i + 1}.json").write_text(json.dumps(payload, indent=1),
                                                          encoding="utf-8")
        with open(out_dir / f"sigma2_mode_{i + 1}.csv", "w", encoding="utf-8") as fh:
            fh.write("index,sigma2\n")
            for t, value in enumerate(fit.sigma2_path):
                fh.write(f"{t},{value:.17g}\n")
        volatility = (f"persistence {fit.params.persistence:.4f}" if fitted
                      else "rolling-variance fallback")
        print(f"mode {i + 1}: {volatility} "
              f"converged={fit.converged} differenced={fit.used_differencing}")
    _write_manifest(out_dir, cfg, settings, args)
    return 0


def _cmd_train(args) -> int:
    settings = _settings(args)
    cfg = to_pipeline_config(settings)
    series = data.load_csv(args.input)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    forecaster = fit_forecaster(series, Variant(args.variant), cfg.network.cell, cfg)
    persist.save_forecaster(forecaster, out_dir)
    _write_manifest(out_dir, cfg, settings, args)
    print(f"saved {args.variant}/{cfg.network.cell.value} forecaster "
          f"({len(forecaster.mode_values)} mode models) to {out_dir}")
    return 0


def _write_predictions_csv(result: ForecastResult, path: Path) -> None:
    k = result.per_mode.shape[1]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("step,actual,predicted," + ",".join(f"mode_{i + 1}" for i in range(k)) + "\n")
        for s in range(result.predictions.size):
            row = [str(s + 1), f"{result.actuals[s]:.17g}", f"{result.predictions[s]:.17g}"]
            row += [f"{v:.17g}" for v in result.per_mode[s]]
            fh.write(",".join(row) + "\n")


def _cmd_forecast(args) -> int:
    settings = _settings(args)
    series = data.load_csv(args.input)
    out_dir = Path(args.out_dir)
    if args.model_dir:  # nothing to fit: every check runs in the forecast itself
        forecaster = persist.load_forecaster(args.model_dir)
        cfg = replace(forecaster.config,
                      network=replace(forecaster.config.network, cell=forecaster.cell))
        _check_model_settings(args, settings, forecaster, cfg)
        result = rolling_forecast(forecaster, series, args.steps)
        out_dir.mkdir(parents=True, exist_ok=True)
    else:
        cfg = to_pipeline_config(settings)
        check_horizons([args.steps], held_out_span(series, cfg), least=0)
        out_dir.mkdir(parents=True, exist_ok=True)
        variant = Variant(args.variant or Variant.VMD_GARCH.value)
        forecaster = fit_forecaster(series, variant, cfg.network.cell, cfg)
        result = rolling_forecast(forecaster, series, args.steps)
    path = out_dir / "predictions.csv"
    _write_predictions_csv(result, path)
    _write_manifest(out_dir, cfg, settings, args)
    if result.predictions.size:
        report = metrics(result.actuals, result.predictions, horizon=args.steps)
        mape = "n/a" if report.mape is None else f"{report.mape:.4f}%"
        print(f"{args.steps} steps: rmse={report.rmse:.6g} mae={report.mae:.6g} mape={mape}")
    print(f"wrote {path}")
    return 0


def _format_rows(rows) -> tuple[str, str]:
    structured_lines = []
    widths = (16, 6, 7)
    pretty = [f"{'model':<{widths[0]}} {'cell':<{widths[1]}} {'horizon':<{widths[2]}} "
              f"{'rmse':>12} {'mae':>12} {'mape_percent':>12}"]
    for row in rows:
        mape = "nan" if row.report.mape is None else f"{row.report.mape:.17g}"
        structured_lines.append(
            f"model={row.model} cell={row.cell.name} horizon={row.horizon} "
            f"rmse={row.report.rmse:.17g} mae={row.report.mae:.17g} mape_percent={mape}")
        mape_h = "n/a" if row.report.mape is None else f"{row.report.mape:.4f}"
        pretty.append(f"{row.model:<{widths[0]}} {row.cell.name:<{widths[1]}} "
                      f"{row.horizon:<{widths[2]}} {row.report.rmse:>12.4f} "
                      f"{row.report.mae:>12.4f} {mape_h:>12}")
    return "\n".join(structured_lines) + "\n", "\n".join(pretty) + "\n"


def _cmd_compare(args) -> int:
    settings = _settings(args)
    cfg = to_pipeline_config(settings)
    series = data.load_csv(args.input)
    cells = [cell_kind(c) for c in args.cells.split(",")]
    check_horizons(settings["horizons"], held_out_span(series, cfg))
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = compare_models(series, list(settings["horizons"]), cells, cfg)
    structured, pretty = _format_rows(rows)
    (out_dir / "metrics.txt").write_text(structured, encoding="utf-8")
    (out_dir / "metrics_table.txt").write_text(pretty, encoding="utf-8")
    _write_manifest(out_dir, cfg, settings, args)
    print(pretty, end="")
    print(f"wrote {out_dir / 'metrics.txt'}")
    return 0


def _read_table(path, columns=()) -> np.ndarray:
    """The rows of a CSV file with a header line, as a structured array that
    holds every name in `columns`; any other file raises `UnreadableFile`."""
    try:
        with warnings.catch_warnings():  # an empty file is reported below, not warned of
            warnings.filterwarnings("ignore", "genfromtxt: Empty input file", UserWarning)
            table = np.genfromtxt(path, delimiter=",", names=True)
    except IndexError as exc:  # numpy's report of a file with no non-blank line
        raise UnreadableFile(f"cannot read {path} as a CSV table: no header line") from exc
    except (OSError, ValueError) as exc:  # bad UTF-8, ragged rows
        raise UnreadableFile(f"cannot read {path} as a CSV table: {exc}") from exc
    if table.size == 0 or not set(columns) <= set(table.dtype.names or ()):
        named = f" naming {', '.join(columns)}" if columns else ""
        raise UnreadableFile(f"{path}: need a header line{named} and at least one data row")
    return table


def _cmd_plot(args) -> int:
    out = Path(args.out)
    if args.predictions is not None:
        rows = _read_table(args.predictions, ("step", "actual", "predicted"))
        series = [("actual", np.atleast_1d(rows["actual"])),
                  ("predicted", np.atleast_1d(rows["predicted"]))]
        charts.line_chart(series, "Rolling one-step-ahead forecast", out,
                          x_values=np.atleast_1d(rows["step"]))
    else:
        table = _read_table(args.modes_csv)
        names = table.dtype.names
        panels = [(name, np.atleast_1d(table[name])) for name in names]
        charts.panel_chart(panels, "Decomposition", out)
    source = args.modes_csv if args.predictions is None else args.predictions
    Path(f"{out}.manifest.txt").write_text(
        f"# modecast {__version__} plot manifest\n# command: " + " ".join(args.argv)
        + f"\n# source: {source}\n", encoding="utf-8")
    print(f"wrote {out}")
    return 0


_COMMANDS = {
    "decompose": _cmd_decompose,
    "garch-fit": _cmd_garch_fit,
    "train": _cmd_train,
    "forecast": _cmd_forecast,
    "compare": _cmd_compare,
    "plot": _cmd_plot,
}


def _run(args) -> int:
    """Run the command; if it fails, remove an `--out-dir` it created and left empty."""
    out_dir = Path(args.out_dir) if getattr(args, "out_dir", None) else None
    fresh = out_dir is not None and not out_dir.exists()
    try:
        return _COMMANDS[args.command](args)
    except BaseException:
        if fresh and out_dir.is_dir() and not any(out_dir.iterdir()):
            out_dir.rmdir()
        raise


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(argv)
        args.argv = argv  # what the manifests record as the command
        return _run(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # a missing input, an output path that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ModecastError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    return 0


if __name__ == "__main__":
    sys.exit(main())
