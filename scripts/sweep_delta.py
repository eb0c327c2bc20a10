#!/usr/bin/env python3
"""Sweep the footprint-of-uncertainty delta and watch the centroid interval grow.

For each symbol of a seeded fixture basket, prints the crisp output and the
Karnik-Mendel interval width at several delta values. delta = 0 reproduces the
pure type-1 result; widening the footprint widens the interval while the
midpoint stays near the type-1 centroid.

    python3 scripts/sweep_delta.py [--seed N] [--symbols N]
"""

import argparse

from fuzzsig.config import ResolvedConfig
from fuzzsig.fixtures import portfolio_fixture
from fuzzsig.inference import PipelineError, recommend_block

DELTAS = (0.0, 0.02, 0.05, 0.10, 0.15)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=2017)
    parser.add_argument("--symbols", type=int, default=4)
    args = parser.parse_args()

    basket = portfolio_fixture(seed=args.seed, symbols=args.symbols, periods=52)
    header = "symbol  " + "  ".join(f"delta={d:<4}" for d in DELTAS)
    print(header)
    print("-" * len(header))
    # one block evaluation of the whole basket per delta; rows are per symbol
    columns = [recommend_block(basket, ResolvedConfig(delta=delta)) for delta in DELTAS]
    for series, row in zip(basket, zip(*columns)):
        cells = []
        for rec in row:
            if isinstance(rec, PipelineError):
                raise rec
            if rec.centroid_interval is None:
                cells.append(f"{rec.crisp:.3f}/----")
            else:
                y_l, y_r = rec.centroid_interval
                cells.append(f"{rec.crisp:.3f}/{y_r - y_l:.3f}")
        print(f"{series.symbol:7s} " + "  ".join(cells))
    print("\ncells are crisp/interval-width; ---- marks the type-1 path")


if __name__ == "__main__":
    main()
