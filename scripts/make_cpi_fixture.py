#!/usr/bin/env python3
"""Regenerate the committed offline consumer-price-index lookalike fixture.

The fixture is fully synthetic (seeded generator in modecast.synthetic); it
exists so every pipeline and CLI test runs offline with a realistic monthly
index shape: 636 monthly points, 1970-01 through 2022-12, rebased so 2015
averages 100.
"""

import argparse
from pathlib import Path
import sys

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from modecast.data import write_csv
from modecast.synthetic import cpi_like

OUT = Path(__file__).resolve().parents[1] / "data" / "cpi_germany_synthetic.csv"


def main() -> None:
    argparse.ArgumentParser(description=__doc__).parse_args()
    series = cpi_like()
    OUT.parent.mkdir(parents=True, exist_ok=True)
    write_csv(series, OUT)
    print(f"wrote {OUT} ({len(series)} rows, "
          f"{series.timestamps[0]} .. {series.timestamps[-1]})")


if __name__ == "__main__":
    main()
