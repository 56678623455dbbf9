#!/usr/bin/env python3
"""Sweep the correlation weight of the gold scenario and write the CSV report."""

import sys
from fractions import Fraction
from pathlib import Path

from corrpoly import run_finance, sweep_csv
from corrpoly import scenario as sc

F = Fraction


def main():
    scn = sc.load(Path(__file__).resolve().parent.parent / "scenarios" / "finance.scn")
    out_path = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("finance_sweep.csv")
    out_path.write_text(sweep_csv(scn))
    print(f"wrote {out_path}")
    print(f"{'a':>5s} {'E[return]':>9s} {'threshold rho':>13s}")
    for a in scn.sweep.grid:
        report = run_finance(scn, a)
        threshold = "-inf" if report.crra_threshold is None else f"{report.crra_threshold:.6f}"
        print(f"{str(a):>5s} {str(report.expected_return):>9s} {threshold:>13s}")


if __name__ == "__main__":
    main()
