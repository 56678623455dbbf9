"""Three worked decision scenarios and the sweep engine.

Each runner evaluates the acts and beliefs of its loaded scenario file
with the generic machinery and checks every number against a closed form:
the 2x2 coupling identity for climate and insurance, the gold return and
CRRA threshold for finance.  A file outside a runner's assumptions raises
CorrpolyError; a disagreement raises ConsistencyError instead of silently
reporting either number.
"""

from __future__ import annotations

import csv
import decimal
import enum
import io
import math
from fractions import Fraction
from typing import Iterable, NamedTuple, Optional, Sequence

from .errors import ConsistencyError, CorrpolyError
from .linalg import fraction_tuple
from .preferences import PriorSet, RiskUtility, meu_minimizer
from .independence import is_independent_on
from .scenario import Scenario
from .space import (
    Act,
    Collection,
    JointDistribution,
    Marginal,
    expectation,
    marginalize,
    shared_marginals,
)


def decimal_string(value: Fraction) -> str:
    """Decimal rendering to 12 significant digits, round half to even."""
    ctx = decimal.Context(prec=12, rounding=decimal.ROUND_HALF_EVEN)
    d = ctx.divide(decimal.Decimal(value.numerator), decimal.Decimal(value.denominator))
    return str(d)


class ReportRow(NamedTuple):
    name: str
    value: Fraction
    value_decimal: str
    argmin_vertex: Optional[int] = None
    param: Optional[Fraction] = None

    @classmethod
    def of(
        cls,
        name: str,
        value: Fraction,
        argmin_vertex: Optional[int] = None,
        param: Optional[Fraction] = None,
    ) -> "ReportRow":
        return cls(name, value, decimal_string(value), argmin_vertex, param)


def _render(columns: Sequence[str], rows: Sequence[Sequence], fmt: str) -> str:
    """``rows`` under ``columns`` as CSV (``fmt == "csv"``) or as a table of
    left-aligned columns; every cell is written as its ``str``."""
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


def _maxmin_rows(
    prior: PriorSet, acts: Iterable[tuple[str, Act]], param: Optional[Fraction] = None
) -> list[ReportRow]:
    """One row per act: its worst-case expected utility over the prior set
    and the index of a minimizing vertex."""
    return [ReportRow.of(name, *meu_minimizer(prior, act), param=param) for name, act in acts]


def _require_2x2_identity(
    what: str,
    value: Fraction,
    f: Act,
    marginals: Sequence[Marginal],
    beliefs: Sequence[JointDistribution],
    **context,
) -> None:
    """Check that ``value`` is the least expectation of ``f`` over
    ``beliefs`` on a 2x2 space whose beliefs all have ``marginals``.

    Every such belief is p_ind + d*(1, -1, -1, 1), with p_ind the product of
    the marginals and d = p(0,0) - p_ind(0,0), so
    E_p[f] = E_ind[f] + d*(f00 - f01 - f10 + f11).  The identity holds for
    every valid input, so a miss raises ConsistencyError with the values
    of ``f`` and ``context``.
    """
    (a0, a1), (b0, b1) = (m.weights for m in marginals)
    f00, f01, f10, f11 = f.values
    independent = a0 * b0 * f00 + a0 * b1 * f01 + a1 * b0 * f10 + a1 * b1 * f11
    interaction = f00 - f01 - f10 + f11
    expected = min(independent + (p.prob((0, 0)) - a0 * b0) * interaction for p in beliefs)
    if value != expected:
        raise ConsistencyError(
            f"{what} disagrees with the 2x2 coupling identity",
            values=[str(x) for x in f.values],
            **context,
        )


def _scenario_acts(
    scenario: Scenario, what: str, shape: tuple[int, ...], param_value: Optional[Fraction] = None
) -> dict[str, Act]:
    """The scenario's acts, checked to live on a space of ``shape``."""
    sizes = scenario.space.subspace_sizes
    if sizes != shape:
        shown = "x".join(map(str, shape))
        raise CorrpolyError(f"{what} scenario needs a {shown} space, got shape {sizes}")
    return scenario.acts(param_value)


def _single_vertex(prior: PriorSet, message: str) -> JointDistribution:
    """The one vertex of a singleton prior set; ``message`` is the error otherwise."""
    if len(prior.vertices) != 1:
        raise CorrpolyError(message)
    return prior.vertices[0]


# ---------------------------------------------------------------------------
# climate: mitigation versus an engineering option with correlated side risk


def run_climate(scenario: Scenario, prior: PriorSet) -> list[ReportRow]:
    """Evaluate the climate scenario's acts at worst-case expected payoff.

    One row per act of ``scenario`` (``climate.scn``: business_as_usual,
    mitigation, climate_engineering), in the file's order.  The space is
    2x2 with coordinate 0 the adverse state on each subspace (high climate
    sensitivity; fragile atmosphere).  Acts that only depend on the first
    subspace are valued identically by every prior with the same marginals;
    the engineering option loses extra payoff exactly on the doubly adverse
    state, so its worst case charges the highest probability the prior set
    puts there.  Each value is checked against the 2x2 coupling identity at
    the prior's vertices.
    """
    acts = _scenario_acts(scenario, "climate", (2, 2))
    marginals = prior.shared_marginals()
    rows = _maxmin_rows(prior, acts.items())
    vertices = [[str(w) for w in v.weights] for v in prior.vertices]
    for row in rows:
        _require_2x2_identity(
            f"maxmin value of {row.name}", row.value, acts[row.name], marginals,
            prior.vertices, act=row.name, vertices=vertices,
        )
    return rows


# ---------------------------------------------------------------------------
# insurance: mispriced correlation between two total-loss perils


class InsuranceVerdict(enum.Enum):
    UNIQUE_PRICE = "unique-price"
    POSITIVE_PROFIT = "positive-profit-trade"
    MARKET_FAILURE = "market-failure"


class InsuranceReport(NamedTuple):
    insurer_reservation: Fraction
    insuree_reservation: Fraction
    trade_interval: Optional[tuple[Fraction, Fraction]]
    verdict: InsuranceVerdict
    insurer_profit_at_insuree_price: Fraction


def run_insurance(
    scenario: Scenario,
    insurer_belief: JointDistribution,
    insuree_belief: JointDistribution,
) -> InsuranceReport:
    """Reservation prices and trade verdict for fire cover on a 2x2 space
    (coordinate 0: burn; flood).

    The acts of ``scenario`` (``insurance.scn``) are read at price 0.  The
    insurer's transfer is ``no_cover_insurer - cover_insurer``, the
    insuree's ``cover_insuree - no_cover_insuree``, and each reservation
    price is the expectation of its transfer under its own belief, checked
    against the 2x2 coupling identity.  Both beliefs must share marginals;
    the insurer's profit at the insuree's price is the price gap, and the
    verdict is read from its sign.  With the shipped payoffs both transfers
    are (50, 100, 0, 0), so the verdict flips exactly at equal joint
    probability of the double-damage state.
    """
    acts = _scenario_acts(scenario, "insurance", (2, 2), param_value=Fraction(0))
    for name in ("no_cover_insurer", "cover_insurer", "no_cover_insuree", "cover_insuree"):
        if name not in acts:
            raise CorrpolyError(f"insurance scenario has no act {name!r}")
    marginals = shared_marginals([insurer_belief, insuree_belief], "insurer and insuree beliefs")

    prices = []
    for who, belief, gain, loss in (
        ("insurer", insurer_belief, acts["no_cover_insurer"], acts["cover_insurer"]),
        ("insuree", insuree_belief, acts["cover_insuree"], acts["no_cover_insuree"]),
    ):
        f = Act(gain.space, tuple(g - l for g, l in zip(gain.values, loss.values)))
        price = expectation(belief, f)
        _require_2x2_identity(
            f"{who} reservation price", price, f, marginals, [belief],
            transfer=who, belief=[str(w) for w in belief.weights],
        )
        prices.append(price)
    insurer_reservation, insuree_reservation = prices

    profit = insuree_reservation - insurer_reservation
    if profit == 0:
        verdict = InsuranceVerdict.UNIQUE_PRICE
    elif profit > 0:
        verdict = InsuranceVerdict.POSITIVE_PROFIT
    else:
        verdict = InsuranceVerdict.MARKET_FAILURE
    interval = (insurer_reservation, insuree_reservation) if profit >= 0 else None
    return InsuranceReport(
        insurer_reservation, insuree_reservation, interval, verdict, profit
    )


# ---------------------------------------------------------------------------
# finance: gold returns under correlated inflation and uncertainty


# wealth before the trade: the CRRA threshold of `run_finance` is exact there
FINANCE_WEALTH = 6


class FinanceReport(NamedTuple):
    averaged_returns: tuple[Fraction, ...]
    expected_return: Fraction
    rho: Optional[float]
    crra_threshold: Optional[float]
    buy: bool


def run_finance(scenario: Scenario, a: Fraction, rho: Optional[float] = None) -> FinanceReport:
    """Evaluate ``buy_gold`` of ``scenario`` (``finance.scn``) at parameter ``a``.

    The prior at ``a`` must be one belief with the deposit independent of
    the pair (inflation, uncertainty), and the deposit-averaged returns must
    be (6, 0, 0, -3); else CorrpolyError.  With p_HH and p_LL the pair's
    weights on (H, H) and (L, L), the expected return is 6*p_HH - 3*p_LL, and
    CRRA on wealth ``FINANCE_WEALTH`` buys iff rho < 1 + log2(p_HH/p_LL),
    checked against the direct expected utility.  Both verdicts buy only on
    a strict gain, so an indifferent investor keeps the cash and ``rho=0``
    decides as ``rho=None`` does.
    """
    (a,) = fraction_tuple((a,))
    context = {"a": str(a), "rho": str(rho)}
    acts = _scenario_acts(scenario, "finance", (2, 2, 2), param_value=a)
    if "buy_gold" not in acts:
        raise CorrpolyError("finance scenario has no act 'buy_gold'")
    gold = acts["buy_gold"]
    message = f"finance scenario needs one prior vertex at a={a}"
    belief = _single_vertex(scenario.prior_set(param_value=a), message)
    if not is_independent_on(belief, Collection.of({0, 1}, {2})).holds:
        raise CorrpolyError("finance belief must make the deposit independent of the pair")

    deposit = scenario.marginals[2].weights
    averaged = tuple(
        sum((w * r for w, r in zip(deposit, gold.values[2 * k : 2 * k + 2])), Fraction(0))
        for k in range(4)
    )
    if averaged != (6, 0, 0, -3):
        shown = ", ".join(map(str, averaged))
        raise CorrpolyError(f"finance deposit-averaged returns are ({shown}), not (6, 0, 0, -3)")

    pair = marginalize(belief, [0, 1]).weights
    p_hh, p_ll = pair[0], pair[3]
    expected = expectation(belief, gold)
    averaged_expected = sum((w * r for w, r in zip(pair, averaged)), Fraction(0))
    if not expected == averaged_expected == 6 * p_hh - 3 * p_ll:
        raise ConsistencyError("expected return disagrees with 6*p_HH - 3*p_LL", **context)

    threshold = None  # no rho buys a trade that cannot gain
    if p_hh > 0 and p_ll == 0:
        threshold = math.inf  # and none declines one that gains and cannot lose
    elif p_hh > 0:
        ratio = p_hh / p_ll
        try:
            threshold = 1.0 + math.log2(ratio)
        except (OverflowError, ValueError):  # the ratio is outside the float range
            threshold = 1.0 + (math.log2(ratio.numerator) - math.log2(ratio.denominator))
    if rho is None:
        buy = expected > 0
    else:
        utility = RiskUtility(rho=rho, scale=FINANCE_WEALTH)
        buy = threshold is not None and rho < threshold
        eu_buy = sum(float(w) * utility.apply(FINANCE_WEALTH + r) for w, r in zip(pair, averaged))
        eu_keep = utility.apply(FINANCE_WEALTH)
        direct_buy = eu_buy > eu_keep + 1e-12
        margin = math.inf if threshold is None else abs(rho - threshold)
        if margin > 1e-9 and direct_buy != buy:
            raise ConsistencyError("threshold disagrees with direct expected utility", **context)
    return FinanceReport(averaged, expected, rho, threshold, buy)


# ---------------------------------------------------------------------------
# sweeps


SWEEP_CSV_HEADER = ("param", "act", "value_rational", "value_decimal", "argmin_vertex")


def sweep_rows(scenario: Scenario, parameter: Optional[str] = None) -> list[ReportRow]:
    """One maxmin report row per grid point of the scenario's sweep per act,
    ordered by grid index."""
    spec = scenario.sweep
    if parameter is None:
        if spec is None:
            raise CorrpolyError("scenario declares no sweep parameter")
        parameter = spec.param
    if spec is None or spec.param != parameter:
        raise CorrpolyError(f"parameter {parameter!r} is not bound in the scenario")
    cs = scenario.correlation_set()
    rows = []
    for value in spec.grid:
        prior = scenario.prior_set(cs, param_value=value)
        rows += _maxmin_rows(prior, scenario.acts(param_value=value).items(), value)
    return rows


def sweep_csv(scenario: Scenario, parameter: Optional[str] = None) -> str:
    rows = [
        [row.param, row.name, row.value, row.value_decimal, row.argmin_vertex]
        for row in sweep_rows(scenario, parameter)
    ]
    return _render(SWEEP_CSV_HEADER, rows, "csv")
