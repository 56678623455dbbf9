#!/usr/bin/env python3
"""Run the three shipped decision scenarios end to end and print reports."""

from fractions import Fraction
from pathlib import Path

from corrpoly import (
    PriorSet,
    decimal_string,
    dimension,
    run_climate,
    run_finance,
    run_insurance,
)
from corrpoly import scenario as sc

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
F = Fraction


def climate():
    scn = sc.load(SCENARIOS / "climate.scn")
    cs = scn.correlation_set()
    print("== climate ==")
    print(f"coupling polytope dimension: {dimension(cs)}, vertices: {len(cs.vertices())}")
    for prior_name, prior in (
        ("independent", PriorSet.singleton(cs.independent_product)),
        ("full correlation set", scn.prior_set(cs)),
    ):
        rows = run_climate(scn, prior)
        print(f"prior = {prior_name}:")
        for row in rows:
            print(f"  {row.name:22s} {str(row.value):>8s}  ({row.value_decimal})")


def insurance():
    scn = sc.load(SCENARIOS / "insurance.scn")
    neglect = sc.load(SCENARIOS / "insurance_neglect.scn")
    insurer = scn.prior_set(param_value=F(0)).vertices[0]
    insuree = neglect.prior_set(param_value=F(0)).vertices[0]
    report = run_insurance(scn, insurer, insuree)
    print("== insurance ==")
    print(f"insurer reservation price: {report.insurer_reservation}")
    print(f"insuree reservation price: {report.insuree_reservation}")
    print(f"verdict: {report.verdict.value}")
    print(f"insurer profit at the insuree's price: {report.insurer_profit_at_insuree_price}")


def finance():
    scn = sc.load(SCENARIOS / "finance.scn")
    print("== finance ==")
    for a in scn.sweep.grid:
        report = run_finance(scn, a, rho=0.25)
        threshold = "-inf" if report.crra_threshold is None else f"{report.crra_threshold:.4f}"
        print(
            f"a = {str(a):>4s}: expected return {str(report.expected_return):>5s} "
            f"({decimal_string(report.expected_return)}), CRRA(0.25) threshold {threshold}, "
            f"buy: {report.buy}"
        )


if __name__ == "__main__":
    climate()
    insurance()
    finance()
