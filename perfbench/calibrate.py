"""A fixed job whose run time tracks the host's current speed.

run.py starts it as a fresh process next to every timed pass and scales each
pass's time by how long this job took. It imports nothing from fuzzsig, so no
change to the program moves it. Its mix follows the CLI's: interpreter start,
the numpy import, CSV parsing into Python objects, and small-array numpy work.
"""

import csv
from datetime import date, timedelta

import numpy as np

ROWS = 25_000
START = date(2017, 1, 3)


def main() -> None:
    lines = [
        f"S{i % 50},{START + timedelta(days=i // 50)},{100 + i % 97 * 0.37:.4f},"
        f"{101 + i % 89 * 0.41:.4f},{99 - i % 83 * 0.13:.4f},{100 + i % 79 * 0.29:.4f},{1000 + i}"
        for i in range(ROWS)
    ]
    groups: dict[str, list[tuple]] = {}
    for row in csv.reader(lines):
        bar = (date.fromisoformat(row[1]), *(float(cell) for cell in row[2:]))
        groups.setdefault(row[0], []).append(bar)
    grid = np.linspace(0.0, 1.0, 1001)
    acc = np.zeros(1001)
    for bars in groups.values():
        closes = np.array([bar[4] for bar in bars])
        for close in closes[:100]:
            np.maximum(acc, np.minimum(grid, close / 200.0), out=acc)
    print(f"{acc.sum():.6f}")


if __name__ == "__main__":
    main()
