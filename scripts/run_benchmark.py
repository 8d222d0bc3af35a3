#!/usr/bin/env python3
"""Run the committed synthetic benchmark end to end and write a report.

Produces the nine-model comparison at horizon 10, the multi-horizon table for
the volatility-aware LSTM, a forecast chart and a decomposition chart under
out/benchmark/.  Everything is seeded, so reruns reproduce the numbers
bit-for-bit.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np

from modecast.charts import line_chart, panel_chart
from modecast.neural import CellKind
from modecast.pipeline import Variant, compare_models, fit_forecaster, rolling_forecast
from modecast.synthetic import benchmark_config, benchmark_series
from modecast.vmd import vmd_decompose

OUT = Path(__file__).resolve().parents[1] / "out" / "benchmark"


def write_comparison(rows, path: Path) -> None:
    """Write the comparison rows to `path` as a fixed-width table, and print it."""
    lines = [f"{'model':<16} {'horizon':>7} {'rmse':>10} {'mae':>10} {'mape%':>8}"]
    for row in rows:
        mape = "n/a" if row.report.mape is None else f"{row.report.mape:.4f}"
        lines.append(f"{row.model:<16} {row.horizon:>7} {row.report.rmse:>10.4f} "
                     f"{row.report.mae:>10.4f} {mape:>8}")
    report = "\n".join(lines) + "\n"
    path.write_text(report)
    print(report)


def main() -> None:
    argparse.ArgumentParser(description=__doc__).parse_args()
    OUT.mkdir(parents=True, exist_ok=True)
    series = benchmark_series()
    cfg = benchmark_config()

    print(f"benchmark series: {len(series)} points, "
          f"range [{series.values.min():.2f}, {series.values.max():.2f}]")
    mode_set = vmd_decompose(series, cfg.vmd)
    print(f"decomposition: centers {np.round(mode_set.omegas, 4)} "
          f"in {mode_set.iterations} sweeps")
    panel_chart([(f"mode {i + 1} (omega={mode_set.omegas[i]:.3f})", mode_set.modes[i])
                 for i in range(mode_set.n_modes)],
                "Benchmark decomposition", OUT / "decomposition.svg")

    t0 = time.time()
    rows = compare_models(series, [10, 20, 30, 40, 50, 60, 70],
                          [CellKind.RNN, CellKind.GRU, CellKind.LSTM], cfg)
    print(f"nine-model matrix finished in {time.time() - t0:.0f} s")

    write_comparison(rows, OUT / "comparison.txt")

    forecaster = fit_forecaster(series, Variant.VMD_GARCH, CellKind.LSTM, cfg)
    result = rolling_forecast(forecaster, series, 70)
    line_chart([("actual", result.actuals), ("predicted", result.predictions)],
               "Volatility-aware LSTM, 70-step rolling forecast",
               OUT / "forecast.svg")
    print(f"wrote {OUT / 'comparison.txt'}, {OUT / 'forecast.svg'}, "
          f"{OUT / 'decomposition.svg'}")


if __name__ == "__main__":
    main()
