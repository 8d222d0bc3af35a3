#!/usr/bin/env python3
"""Reference monthly-index experiment on the committed fixture.

Runs the full protocol of `configs/reference.cfg`: ten modes, tenth-order
variance recursions, 50-step windows over (value, volatility) pairs, 85/15
split, one-step-ahead rolling forecasts, nine-model comparison at the
config's horizons.  The default trims the epoch count to 20; --epochs 100
gives the published settings.

Cost, estimated from measured epoch times rather than from a full run: one
epoch of one reference-size network (490 windows, 2x64, seq 50, dropout 0.2)
took 0.067 s (RNN), 0.214 s (GRU) and 0.268 s (LSTM) on one pinned CPU of a
shared 2-vCPU VM.  The nine models train 21 networks per cell kind (one
direct, ten per decomposition variant), so 100 epochs come to about
21 x 100 x (0.067 + 0.214 + 0.268) s, roughly 20 minutes of training, and
the default 20 epochs to about 4 minutes.  Measured: a default run's
comparison took 299 s on one CPU of that VM (`OPENBLAS_NUM_THREADS=1`), of
which the ten (10,10) volatility fits, one `garch.fit_many`, take 0.18 s
(`scripts/bench_layers.py --only garch`, one pinned CPU of that VM).

Usage:
    python scripts/run_cpi_reference.py [--epochs N] [--horizons 10,20]
    python scripts/run_cpi_reference.py --quick   # 2-mode smoke run
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from modecast.config import cell_kind, load_config, parse_setting, to_pipeline_config
from modecast.data import load_csv
from modecast.errors import ConfigError
from modecast.garch import GarchSpec
from modecast.pipeline import compare_models

ROOT = Path(__file__).resolve().parents[1]
FIXTURE = ROOT / "data" / "cpi_germany_synthetic.csv"
CONFIG = ROOT / "configs" / "reference.cfg"
OUT = ROOT / "out" / "cpi_reference"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--epochs", type=int, default=20)
    parser.add_argument("--horizons", help="comma-separated step counts (default from the config)")
    parser.add_argument("--cells", default="rnn,gru,lstm")
    parser.add_argument("--quick", action="store_true",
                        help="2 modes, first-order variance model, 3 epochs")
    args = parser.parse_args()

    settings = load_config(CONFIG)
    try:
        if args.horizons is not None:
            settings["horizons"] = parse_setting("horizons", args.horizons, "--horizons")
        cells = [cell_kind(c.strip()) for c in args.cells.split(",")]
    except ConfigError as exc:
        parser.error(str(exc))
    series = load_csv(FIXTURE)
    cfg = to_pipeline_config(settings)
    cfg = replace(cfg, train=replace(cfg.train, epochs=args.epochs))
    if args.quick:
        cfg = replace(cfg, vmd=replace(cfg.vmd, n_modes=2), garch=GarchSpec(1, 1),
                      seq_len=20, train=replace(cfg.train, epochs=3))

    OUT.mkdir(parents=True, exist_ok=True)
    t0 = time.time()
    rows = compare_models(series, list(settings["horizons"]), cells, cfg)
    print(f"finished in {time.time() - t0:.0f} s")
    lines = [f"{'model':<16} {'horizon':>7} {'rmse':>10} {'mae':>10} {'mape%':>8}"]
    for row in rows:
        mape = "n/a" if row.report.mape is None else f"{row.report.mape:.4f}"
        lines.append(f"{row.model:<16} {row.horizon:>7} {row.report.rmse:>10.4f} "
                     f"{row.report.mae:>10.4f} {mape:>8}")
    report = "\n".join(lines) + "\n"
    (OUT / "comparison.txt").write_text(report)
    print(report)


if __name__ == "__main__":
    main()
