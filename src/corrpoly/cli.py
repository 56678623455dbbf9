"""Command line interface.

    corrpoly dim|vertices|capacity|mi|independence|evaluate|check-axiom|compare|sweep

All subcommands take a scenario file; the randomized ones (mi, check-axiom)
take --seed, those that evaluate a prior set at a sweep value (mi,
independence, evaluate, check-axiom, compare) take --at, and the tabular
ones --format csv|table.  Collections and event families use 1-based
subspace indices.  Exit codes: 0 on success, 2 when a check subcommand
reaches a negative verdict, 1 on any error.
"""

from __future__ import annotations

import argparse
import csv
import io
import sys
from fractions import Fraction
from typing import Optional, Sequence

from . import applications, capacity, independence, info, polytope, preferences, scenario
from .applications import decimal_string
from .errors import CorrpolyError, NonlinearCollectionError
from .scenario import parse_collection_spec, parse_event, parse_family_spec
from .space import Event, JointDistribution, expectation


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; keep 2 for verdicts only
        raise CorrpolyError(message)


def _render(columns: Sequence[str], rows: Sequence[Sequence], fmt: str) -> str:
    cells = [[str(c) for c in row] for row in rows]
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(cells)
        return buf.getvalue()
    widths = [len(c) for c in columns]
    for row in cells:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = ["  ".join(c.ljust(w) for c, w in zip(columns, widths)).rstrip()]
    for row in cells:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return "\n".join(lines) + "\n"


def _param_value(scn: scenario.Scenario, raw: Optional[str]) -> Optional[Fraction]:
    if raw is None:
        if scn.parameters():
            raise CorrpolyError(
                "scenario uses a sweep parameter; pass --at VALUE to evaluate"
            )
        return None
    return scenario.parse_rational(raw)


def _prior_at(
    scn: scenario.Scenario, raw: Optional[str], cs: Optional[polytope.CorrelationSet] = None
) -> preferences.PriorSet:
    """The scenario's prior set with the sweep parameter bound to ``--at``."""
    return scn.prior_set(cs, param_value=_param_value(scn, raw))


def _single_vertex(prior: preferences.PriorSet, message: str) -> JointDistribution:
    """The one vertex of a singleton prior set; ``message`` is the error otherwise."""
    if len(prior.vertices) != 1:
        raise CorrpolyError(message)
    return prior.vertices[0]


def _restricted_dimension(cs: polytope.CorrelationSet, collections) -> int | str:
    """`independence.restricted_dimension`, or "nonlinear" where it does not apply."""
    try:
        return independence.restricted_dimension(cs, collections)
    except NonlinearCollectionError:
        return "nonlinear"


def _event_from_arg(scn: scenario.Scenario, text: str) -> Event:
    if text in scn.events:
        return scn.event(text)
    return parse_event(scn.space, text)


def cmd_dim(args) -> int:
    scn = scenario.load(args.scenario)
    cs = scn.correlation_set()
    rows = [["dimension", polytope.dimension(cs)]]
    colls = [parse_collection_spec(c, scn.space.n_subspaces) for c in args.collection or []]
    for spec, coll in zip(args.collection or [], colls):
        rows.append([f"dimension[{spec}]", _restricted_dimension(cs, coll)])
    if len(colls) > 1:
        rows.append(["dimension[intersection]", _restricted_dimension(cs, colls)])
    sys.stdout.write(_render(["quantity", "value"], rows, args.format))
    return 0


def cmd_vertices(args) -> int:
    scn = scenario.load(args.scenario)
    cs = scn.correlation_set()
    vertices = cs.vertices(guard=args.guard)
    if args.format == "prior":
        lines = ["PRIOR"]
        for v in vertices:
            lines.append("vertex: " + " ".join(str(w) for w in v.weights))
        sys.stdout.write("\n".join(lines) + "\n")
        return 0
    labels = ["/".join(scn.space.label_of(s)) for s in scn.space.states()]
    rows = [[k, *[str(w) for w in v.weights]] for k, v in enumerate(vertices)]
    sys.stdout.write(_render(["vertex", *labels], rows, args.format))
    return 0


def cmd_capacity(args) -> int:
    scn = scenario.load(args.scenario)
    cs = scn.correlation_set()
    event = _event_from_arg(scn, args.event)
    value = capacity.capacity_value(cs, event)
    rows = [[args.event, str(value), decimal_string(value)]]
    sys.stdout.write(_render(["event", "value_rational", "value_decimal"], rows, args.format))
    return 0


def cmd_mi(args) -> int:
    scn = scenario.load(args.scenario)
    cs = scn.correlation_set()
    _param_value(scn, args.at)  # checked even where --weights or --vertex leave it unused
    if args.weights is not None:
        weights = [scenario.parse_rational(t) for t in args.weights.split()]
        p = JointDistribution(scn.space, tuple(weights))
    elif args.vertex is not None:
        vertices = cs.vertices()
        if not 0 <= args.vertex < len(vertices):
            raise CorrpolyError(
                f"--vertex {args.vertex} out of range: the set has {len(vertices)} vertices"
            )
        p = vertices[args.vertex]
    else:
        p = _single_vertex(
            _prior_at(scn, args.at, cs),
            "non-singleton prior: pick a distribution with --vertex or --weights",
        )
    try:
        step = Fraction(args.step)
    except (ValueError, ZeroDivisionError):
        raise CorrpolyError(f"--step must be a rational number, got {args.step!r}") from None
    report = info.certify_local_max_mi(cs, p, probes=args.probes, step=step, seed=args.seed)
    rows = [
        ["mutual_information_bits", report.value],
        ["entropy_bits", info.entropy(p)],
    ]
    for i, m in enumerate(cs.marginals):
        rows.append([f"marginal_entropy_bits[{i}]", info.marginal_entropy(m)])
    rows += [
        ["is_local_max", report.is_local_max],
        ["probe_count", report.probe_count],
        ["max_observed_increase", report.max_observed_increase],
    ]
    sys.stdout.write(_render(["quantity", "value"], rows, args.format))
    return 0


def cmd_independence(args) -> int:
    scn = scenario.load(args.scenario)
    cs = scn.correlation_set()
    prior = _prior_at(scn, args.at, cs)
    coll = parse_collection_spec(args.collection, scn.space.n_subspaces)
    p = _single_vertex(prior, "independence verdicts need a singleton prior")
    verdict = independence.is_independent_on(p, coll)
    rows = [
        ["holds", verdict.holds],
        ["max_abs_defect", str(verdict.max_abs_defect)],
    ]
    if verdict.witness is not None:
        rows.append(["witness", " x ".join(str(t) for t in verdict.witness)])
    rows.append(["dimension", _restricted_dimension(cs, coll)])
    sys.stdout.write(_render(["quantity", "value"], rows, args.format))
    return 0 if verdict.holds else 2


def cmd_evaluate(args) -> int:
    scn = scenario.load(args.scenario)
    cs = scn.correlation_set()
    value = _param_value(scn, args.at)
    prior = scn.prior_set(cs, param_value=value)
    acts = scn.acts(param_value=value)
    names = args.acts.split(",") if args.acts else list(acts)
    rows = []
    for name in names:
        if name not in acts:
            raise CorrpolyError(f"unknown act {name!r}")
        act = acts[name]
        meu, argmin = preferences.meu_minimizer(prior, act)
        ceu = preferences.ceu_value(cs, act)
        seu = expectation(prior.vertices[0], act) if len(prior.vertices) == 1 else ""
        rows.append(
            [
                name,
                str(seu),
                str(meu),
                decimal_string(meu),
                str(ceu),
                decimal_string(ceu),
                argmin,
            ]
        )
    sys.stdout.write(
        _render(
            ["act", "seu", "meu", "meu_decimal", "ceu", "ceu_decimal", "argmin_vertex"],
            rows,
            args.format,
        )
    )
    return 0


def cmd_check_axiom(args) -> int:
    scn = scenario.load(args.scenario)
    prior = _prior_at(scn, args.at)
    if args.axiom == "subspace-consistency":
        subs = [
            preferences.SubspacePreference(i, m) for i, m in enumerate(scn.marginals)
        ]
        report = preferences.check_subspace_consistency(prior, subs)
        print(f"holds: {report.holds}")
        for vertex, subspace in report.violations:
            print(f"violation: vertex {vertex} has a wrong marginal on subspace {subspace}")
        return 0 if report.holds else 2
    if args.axiom == "subspace-independence":
        holds, ce = preferences.check_subspace_independence_axiom(
            prior, trials=args.trials, seed=args.seed
        )
        print(f"holds: {holds}")
        if ce is not None:
            print(f"counterexample: subspace {ce.subspace_index}")
            print(f"  f_i values: {[str(v) for v in ce.f_i.values]}")
            print(f"  g_i values: {[str(v) for v in ce.g_i.values]}")
            print(f"  conditioning event: {sorted(ce.conditioning_event.members)}")
            print(f"  outside value: {ce.outside_value}")
            print(
                "  base ranking "
                f"{ce.base_values[0]} vs {ce.base_values[1]}; conditioned "
                f"{ce.conditioned_values[0]} vs {ce.conditioned_values[1]}"
            )
        return 0 if holds else 2
    if args.axiom == "collection-independence":
        if not args.collection:
            raise CorrpolyError("collection-independence needs --collection")
        coll = parse_collection_spec(args.collection, scn.space.n_subspaces)
        p = _single_vertex(prior, "collection independence is checked for a singleton prior")
        holds, witness = preferences.check_collection_independence_axiom(p, coll)
        print(f"holds: {holds}")
        if witness is not None:
            print(f"witness on member {sorted(witness.anchor_member)}:")
            print(f"  E   = {sorted(witness.e.members)}")
            print(f"  E'  = {sorted(witness.e_prime.members)}")
            print(f"  F   = {sorted(witness.f.members)}")
            print(f"  F'  = {sorted(witness.f_prime.members)}")
            print(f"  p(ExF) p(E'xF') = {witness.lhs} != {witness.rhs} = p(ExF') p(E'xF)")
        return 0 if holds else 2
    raise CorrpolyError(f"unknown axiom {args.axiom!r}")


def cmd_compare(args) -> int:
    first = scenario.load(args.scenario)
    second = scenario.load(args.second)
    prior_a = _prior_at(first, args.at)
    prior_b = _prior_at(second, args.at_second)
    rows = [
        ["first_more_correlation_averse", preferences.more_correlation_averse(prior_a, prior_b)],
        ["second_more_correlation_averse", preferences.more_correlation_averse(prior_b, prior_a)],
    ]
    if args.family:
        coll, events = parse_family_spec(args.family, first.space)
        message = "revealed correlation compares singleton priors"
        p_a = _single_vertex(prior_a, message)
        p_b = _single_vertex(prior_b, message)
        ordering = preferences.compare_revealed_correlation(p_a, p_b, coll, events)
        rows.append(["revealed_correlation", ordering.value])
        sign = preferences.absolute_revealed_correlation(p_a, coll, events)
        rows.append(["first_absolute_sign", sign])
    sys.stdout.write(_render(["quantity", "value"], rows, args.format))
    return 0


def cmd_sweep(args) -> int:
    scn = scenario.load(args.scenario)
    text = applications.sweep_csv(scn, parameter=args.param)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="corrpoly", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, formats=("csv", "table"), at: bool = True):
        """The scenario file, ``--format`` (when ``formats``) and ``--at``."""
        p.add_argument("scenario", help="scenario file")
        if formats:
            p.add_argument("--format", choices=formats, default="table")
        if at:
            p.add_argument("--at", help="value of the sweep parameter", default=None)

    p = sub.add_parser("dim", help="polytope dimension, optionally restricted by collections")
    common(p, at=False)
    p.add_argument("--collection", action="append", help="e.g. '{1},{2,3}' (repeatable)")
    p.set_defaults(func=cmd_dim)

    p = sub.add_parser("vertices", help="enumerate extreme points")
    common(p, formats=("csv", "table", "prior"), at=False)
    p.add_argument("--guard", type=int, default=4096)
    p.set_defaults(func=cmd_vertices)

    p = sub.add_parser("capacity", help="worst-case probability of an event")
    common(p, at=False)
    p.add_argument("--event", required=True, help="event name or expression")
    p.set_defaults(func=cmd_capacity)

    p = sub.add_parser("mi", help="mutual information and local-max certificate")
    common(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--weights", help="inline distribution, row-major rationals")
    p.add_argument("--vertex", type=int, help="index into the vertex list")
    p.add_argument("--probes", type=int, default=64)
    p.add_argument("--step", default="1/8")
    p.set_defaults(func=cmd_mi)

    p = sub.add_parser("independence", help="independence verdict on a collection")
    common(p)
    p.add_argument("--collection", required=True)
    p.set_defaults(func=cmd_independence)

    p = sub.add_parser("evaluate", help="SEU/MEU/CEU values of the scenario acts")
    common(p)
    p.add_argument("--acts", help="comma-separated act names (default: all)")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("check-axiom", help="axiom checkers with counterexamples")
    common(p, formats=())
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--axiom",
        required=True,
        choices=["subspace-consistency", "subspace-independence", "collection-independence"],
    )
    p.add_argument("--collection")
    p.add_argument("--trials", type=int, default=10000)
    p.set_defaults(func=cmd_check_axiom)

    p = sub.add_parser("compare", help="correlation aversion and revealed correlation")
    common(p)
    p.add_argument("second", help="second scenario file")
    p.add_argument("--at-second", default=None)
    p.add_argument("--family", help="event family, e.g. '1:[Hcs];2:[Ha]'")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("sweep", help="parameter sweep as CSV")
    common(p, formats=(), at=False)
    p.add_argument("--param", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (CorrpolyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
