#!/usr/bin/env python3
"""Worst-case strategy values along a chain of growing prior sets.

Strategies that ignore the second subspace are flat across the chain; the
engineering option, exposed to the correlation, deteriorates weakly as the
prior set inflates from the independent product to the full coupling set.
"""

from fractions import Fraction
from pathlib import Path

from corrpoly import PriorSet, mix, run_climate
from corrpoly import scenario as sc

F = Fraction


def main():
    scn = sc.load(Path(__file__).resolve().parent.parent / "scenarios" / "climate.scn")
    cs = scn.correlation_set()
    p_ind = cs.independent_product
    print(f"{'scale':>6s} {'inaction':>10s} {'mitigation':>10s} {'engineering':>11s}")
    for k in range(11):
        t = F(k, 10)
        prior = PriorSet(cs.space, [mix(p_ind, v, t) for v in cs.vertices()])
        rows = {r.name: r.value for r in run_climate(scn, prior)}
        print(
            f"{str(t):>6s} {str(rows['business_as_usual']):>10s} "
            f"{str(rows['mitigation']):>10s} {str(rows['climate_engineering']):>11s}"
        )


if __name__ == "__main__":
    main()
