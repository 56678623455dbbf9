"""Scenario files: the package's on-disk interface.

A scenario is a line-oriented text file with explicit section headers
(SPACE / MARGINALS / ACTS / EVENTS / PRIOR / SWEEP).  All probabilities
and act payoffs (utilities, see `space.Act`) are exact rationals written
``num/den`` (or plain integers); floats are rejected everywhere.  Act
payoffs and explicit prior vertices may be linear expressions in the
single sweep parameter.  ``serialize`` emits the canonical form; loading a
canonical file and serializing it again is byte-identical.

`loads` collects the ``(line, payload)`` pairs of each section in one
table and parses each section in one place; an error about a line names
it (``line N: ...``).

Event expressions combine atoms with ``~`` (complement), ``&`` and ``|``
and parentheses.  Atoms are either ``subspace=label`` cylinders or
bracketed state tuples like ``[H_infl,*,G]`` with ``*`` as a free
coordinate.  Collections (``{1},{2,3}``) and event families
(``1:[Hcs];2,3:[Ha,*]``) name subspaces by 1-based indices, read by one
helper.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction
from typing import Optional

from ._value import Value, record
from .errors import CorrpolyError, ScenarioError
from .linalg import fraction_tuple
from .independence import partition_factorize, product_of_components
from .polytope import CorrelationSet
from .preferences import PriorSet
from .space import Act, Collection, Event, JointDistribution, Marginal, ProductSpace, cylinder

_RATIONAL_RE = re.compile(r"-?[0-9]+(/[0-9]+)?")
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_SIGN_RE = re.compile(r"([+-])")
# a name, an operator, or (group 2) any other character that is not white space
_EVENT_TOKEN_RE = re.compile(r"\s*(?:([A-Za-z_][A-Za-z0-9_]*|[=\[\],()|&~*])|(\S))")

SECTIONS = ("SPACE", "MARGINALS", "ACTS", "EVENTS", "PRIOR", "SWEEP")


def _rational_parts(token: str, line: Optional[int]) -> tuple[int, int]:
    """The integer numerator and positive denominator that ``token`` writes."""
    if not _RATIONAL_RE.fullmatch(token):
        raise ScenarioError(f"not an exact rational: {token!r}", line)
    num, _, den = token.partition("/")
    try:
        num, den = int(num), int(den or 1)
    except ValueError:  # longer than int()'s digit limit
        raise ScenarioError(f"too many digits in rational {token[:20]}...", line) from None
    if den == 0:
        raise ScenarioError(f"zero denominator in {token!r}", line)
    return num, den


def parse_rational(token: str, line: Optional[int] = None) -> Fraction:
    num, den = _rational_parts(token, line)
    return Fraction(num, den)


@record
class LinExpr:
    """const + coeff * param, with at most one parameter name."""

    const: Fraction = Fraction(0)
    coeff: Fraction = Fraction(0)
    param: Optional[str] = None

    def evaluate(self, value: Optional[Fraction]) -> Fraction:
        if self.coeff == 0:
            return self.const
        if value is None:
            raise CorrpolyError(f"unbound parameter {self.param!r}")
        return self.const + self.coeff * fraction_tuple((value,))[0]

    def __str__(self) -> str:
        if self.coeff == 0:
            return str(self.const)
        mag = abs(self.coeff)
        part = self.param if mag == 1 else f"{mag}*{self.param}"
        if self.const == 0:
            return part if self.coeff > 0 else f"-{part}"
        sign = "+" if self.coeff > 0 else "-"
        return f"{self.const}{sign}{part}"


def parse_expr(text: str, line: Optional[int] = None) -> LinExpr:
    """Parse a rational-linear expression like ``1/6+a``, ``1/2-a`` or ``2*a``.

    The value is a signed sum of terms ``r``, ``r*name`` and ``name``, with
    white space allowed around each part and at most one parameter name.
    One pass over the terms sums the constant and the coefficient as integer
    numerator/denominator pairs; each is made a `Fraction` once, at the end.
    Errors name the first bad term, with the sign that precedes it dropped.
    """
    s = text.strip()
    if not s:
        raise ScenarioError("empty expression", line)
    if _RATIONAL_RE.fullmatch(s):  # one constant term, the common case
        return LinExpr(-parse_rational(s[1:], line) if s[0] == "-" else parse_rational(s, line))
    parts = _SIGN_RE.split(s)  # [term, sign, term, sign, term, ...]
    if not all(parts[2::2]):  # a sign followed by another sign or by nothing
        raise ScenarioError(f"stray sign in expression {s!r}", line)
    cn, cd = 0, 1  # the constant, cn / cd
    kn, kd = 0, 1  # the coefficient of param, kn / kd
    param: Optional[str] = None
    for k in range(0 if parts[0] else 2, len(parts), 2):
        term = parts[k].strip()
        if "*" in term:
            mag, name = term.split("*", 1)
            name = name.strip()
            if not _NAME_RE.fullmatch(name):
                raise ScenarioError(f"bad parameter name {name!r}", line)
        elif _NAME_RE.fullmatch(term):
            mag, name = "1", term
        else:
            mag, name = term, None
        if name is not None:
            if param is not None and param != name:
                raise ScenarioError("at most one parameter per expression", line)
            param = name
        n, d = _rational_parts(mag.strip(), line)
        if k and parts[k - 1] == "-":
            n = -n
        if name is None:
            cn, cd = cn * d + n * cd, cd * d
        else:
            kn, kd = kn * d + n * kd, kd * d
    if kn == 0:
        return LinExpr(Fraction(cn, cd))
    return LinExpr(Fraction(cn, cd), Fraction(kn, kd), param)


# ---------------------------------------------------------------------------
# event expressions


class _EventParser:
    def __init__(self, space: ProductSpace, text: str):
        self.space = space
        self.tokens = self._tokenize(text)
        self.pos = 0

    @staticmethod
    def _tokenize(text: str) -> list[str]:
        tokens = []
        for token, unknown in _EVENT_TOKEN_RE.findall(text):
            if unknown:
                raise CorrpolyError(f"unexpected character {unknown!r} in event expression")
            tokens.append(token)
        return tokens

    def peek(self) -> Optional[str]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self, expected: Optional[str] = None) -> str:
        tok = self.peek()
        if tok is None:
            raise CorrpolyError("unexpected end of event expression")
        if expected is not None and tok != expected:
            raise CorrpolyError(f"expected {expected!r}, found {tok!r}")
        self.pos += 1
        return tok

    def parse(self) -> Event:
        ev = self.expr()
        if self.peek() is not None:
            raise CorrpolyError(f"trailing tokens in event expression: {self.peek()!r}")
        return ev

    def expr(self) -> Event:
        ev = self.term()
        while self.peek() == "|":
            self.take()
            ev = ev | self.term()
        return ev

    def term(self) -> Event:
        ev = self.factor()
        while self.peek() == "&":
            self.take()
            ev = ev & self.factor()
        return ev

    def factor(self) -> Event:
        tok = self.peek()
        if tok == "~":
            self.take()
            return ~self.factor()
        if tok == "(":
            self.take()
            ev = self.expr()
            self.take(")")
            return ev
        if tok == "[":
            return self.tuple_atom()
        return self.cylinder_atom()

    def tuple_atom(self) -> Event:
        self.take("[")
        pattern: list[Optional[int]] = []
        for i in range(self.space.n_subspaces):
            if i > 0:
                self.take(",")
            tok = self.take()
            if tok == "*":
                pattern.append(None)
            else:
                pattern.append(self.space.coordinate_of_label(i, tok))
        self.take("]")
        return cylinder(self.space, {i: c for i, c in enumerate(pattern) if c is not None})

    def cylinder_atom(self) -> Event:
        name = self.take()
        if self.space.subspace_names is None or name not in self.space.subspace_names:
            raise CorrpolyError(f"unknown subspace {name!r} in event expression")
        i = self.space.subspace_names.index(name)
        self.take("=")
        label = self.take()
        return cylinder(self.space, {i: self.space.coordinate_of_label(i, label)})


def parse_event(space: ProductSpace, text: str) -> Event:
    try:
        return _EventParser(space, text).parse()
    except RecursionError:
        raise CorrpolyError("event expression nested too deeply") from None


def _subspace_indices(group: str, n_subspaces: int, text: str) -> frozenset[int]:
    """The 0-based subspace indices of a comma-separated list of 1-based
    ones, each ASCII digits ``[0-9]+``; white space and empty entries are
    skipped.  ``text`` is the spec that errors quote."""
    entries = [t for t in "".join(group.split()).split(",") if t]
    try:
        if not all(t.isascii() and t.isdigit() for t in entries):
            raise ValueError
        idx = frozenset(int(t) - 1 for t in entries)
    except ValueError:  # not ASCII digits, or longer than int()'s digit limit
        raise CorrpolyError(f"subspace index not an integer or too long in {text[:40]!r}") from None
    if any(not 0 <= i < n_subspaces for i in idx):
        raise CorrpolyError(f"subspace index out of range in {text[:40]!r}")
    return idx


def parse_collection_spec(text: str, n_subspaces: int) -> Collection:
    """Parse a collection written with 1-based indices, e.g. ``{1},{2,3}``."""
    groups = re.findall(r"\{([0-9,\s]+)\}", text)
    if not groups or "".join(text.split()) != ",".join("{%s}" % "".join(g.split()) for g in groups):
        raise CorrpolyError(f"malformed collection spec {text!r}")
    return Collection(tuple(_subspace_indices(g, n_subspaces, text) for g in groups))


def parse_family_spec(text: str, space: ProductSpace) -> tuple[Collection, list[Event]]:
    """Parse an event family written with 1-based indices, e.g.
    ``1:[Hcs];2:[Ha]|[La]``: one event per member on that member's
    sub-product, returned in the order of the collection's members."""
    members, events = [], []
    for part in text.split(";"):
        head, _, expr = part.partition(":")
        if not expr:
            raise CorrpolyError("family members look like '1,2:<event expr>'")
        members.append(_subspace_indices(head, space.n_subspaces, part))
        events.append(parse_event(space.subspace(members[-1]), expr.strip()))
    coll = Collection(tuple(members))  # sorts its members, rejects overlaps
    event_of = dict(zip(members, events))
    return coll, [event_of[m] for m in coll.members]


def format_collection_spec(coll: Collection) -> str:
    return ",".join("{" + ",".join(str(i + 1) for i in sorted(m)) + "}" for m in coll.members)


# ---------------------------------------------------------------------------
# scenario model


@record
class PriorSpec:
    kind: str  # full | independent | vertices | partition
    vertex_exprs: tuple[tuple[LinExpr, ...], ...] = ()
    partition: Optional[Collection] = None


@record
class SweepSpec:
    param: str
    grid: tuple[Fraction, ...]


class Scenario(Value):
    """A loaded scenario file: its space and marginals, the act payoffs and
    named event expressions as written, the prior and the sweep.  Unlike
    the other value types it is mutable, and so unhashable."""

    space: ProductSpace
    marginals: tuple[Marginal, ...]
    act_exprs: dict[str, tuple[LinExpr, ...]]
    events: dict[str, str]  # name -> expression text
    prior: PriorSpec
    sweep: Optional[SweepSpec]

    def __init__(
        self,
        space: ProductSpace,
        marginals: tuple[Marginal, ...],
        act_exprs: Optional[dict[str, tuple[LinExpr, ...]]] = None,
        events: Optional[dict[str, str]] = None,
        prior: PriorSpec = PriorSpec("full"),
        sweep: Optional[SweepSpec] = None,
    ):
        act_exprs = {} if act_exprs is None else act_exprs
        events = {} if events is None else events
        self._set(space, marginals, act_exprs, events, prior, sweep)

    def parameters(self) -> set[str]:
        used = set()
        for exprs in self.act_exprs.values():
            used |= {e.param for e in exprs if e.param}
        for vec in self.prior.vertex_exprs:
            used |= {e.param for e in vec if e.param}
        return used

    def event(self, name: str) -> Event:
        if name not in self.events:
            raise CorrpolyError(f"unknown event {name!r}")
        return parse_event(self.space, self.events[name])

    def acts(self, param_value: Optional[Fraction] = None) -> dict[str, Act]:
        return {
            name: Act(self.space, tuple(e.evaluate(param_value) for e in exprs))
            for name, exprs in self.act_exprs.items()
        }

    def correlation_set(self) -> CorrelationSet:
        return CorrelationSet(self.space, self.marginals)

    def prior_set(
        self, cs: Optional[CorrelationSet] = None, param_value: Optional[Fraction] = None
    ) -> PriorSet:
        if cs is None:
            cs = self.correlation_set()
        if self.prior.kind == "full":
            return PriorSet.from_correlation_set(cs)
        if self.prior.kind == "independent":
            return PriorSet.singleton(cs.independent_product)
        if self.prior.kind == "vertices":
            vertices = []
            for k, vec in enumerate(self.prior.vertex_exprs):
                weights = tuple(e.evaluate(param_value) for e in vec)
                try:
                    vertices.append(JointDistribution(self.space, weights))
                except CorrpolyError as exc:
                    params = {e.param for e in vec if e.param}
                    at = f" at {params.pop()}={param_value}" if params else ""
                    raise CorrpolyError(f"prior vertex {k}{at}: {exc}") from None
            for k, v in enumerate(vertices):
                cs.require_member(v, f"prior vertex {k}")
            return PriorSet(self.space, vertices)
        if self.prior.kind == "partition":
            components = partition_factorize(cs, self.prior.partition)
            return PriorSet(self.space, [
                product_of_components(self.space, self.prior.partition, chosen)
                for chosen in itertools.product(*(comp.vertices() for comp in components))
            ])
        raise CorrpolyError(f"unknown prior kind {self.prior.kind!r}")


# ---------------------------------------------------------------------------
# loading


def _sections(text: str) -> dict[str, list[tuple[int, str]]]:
    """The ``(line, payload)`` pairs of each section present, keyed by its
    header; comments, blank lines and surrounding white space are dropped."""
    sections: dict[str, list[tuple[int, str]]] = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line in SECTIONS:
            if line in sections:
                raise ScenarioError(f"duplicate section {line}", lineno)
            current = sections[line] = []
        elif line.isalpha() and line.isupper():  # no content line is a bare upper-case word
            raise ScenarioError(f"unknown section {line}", lineno)
        elif current is None:
            raise ScenarioError("content before the first section header", lineno)
        else:
            current.append((lineno, line))
    return sections


def _named(rows):
    """``(line, name, rest)`` for each ``name: rest`` payload, both stripped."""
    for lineno, payload in rows:
        name, _, rest = payload.partition(":")
        yield lineno, name.strip(), rest.strip()


def loads(text: str) -> Scenario:
    sections = _sections(text)
    space = _parse_space(sections.get("SPACE", []))
    scenario = Scenario(
        space,
        _parse_marginals(sections.get("MARGINALS", []), space),
        _parse_acts(sections.get("ACTS", []), space),
        _parse_events(sections.get("EVENTS", []), space),
        _parse_prior(sections.get("PRIOR", []), space),
        _parse_sweep(sections.get("SWEEP", [])),
    )
    params = scenario.parameters()
    if len(params) > 1:
        raise ScenarioError(f"multiple sweep parameters used: {sorted(params)}")
    if params and (scenario.sweep is None or scenario.sweep.param not in params):
        raise ScenarioError(
            f"parameter {sorted(params)[0]!r} is used but not declared in SWEEP"
        )
    return scenario


def _parse_space(rows) -> ProductSpace:
    names, labels = [], []
    for lineno, name, rest in _named(rows):
        toks = rest.split()
        if not name or not toks:
            raise ScenarioError("SPACE lines read 'name: label label ...'", lineno)
        if not _NAME_RE.fullmatch(name) or any(not _NAME_RE.fullmatch(t) for t in toks):
            raise ScenarioError("subspace and state names must be identifiers", lineno)
        if name in names:
            raise ScenarioError(f"duplicate subspace name {name!r}", lineno)
        if len(set(toks)) != len(toks):
            raise ScenarioError(f"duplicate labels on subspace {name!r}", lineno)
        names.append(name)
        labels.append(tuple(toks))
    if not names:
        raise ScenarioError("missing SPACE section")
    return ProductSpace(tuple(len(ls) for ls in labels), tuple(labels), tuple(names))


def _parse_marginals(rows, space: ProductSpace) -> tuple[Marginal, ...]:
    names = space.subspace_names
    marginals: list[Marginal] = []
    for lineno, name, rest in _named(rows):
        weights = tuple(parse_rational(t, lineno) for t in rest.split())
        if name not in names:
            raise ScenarioError(f"unknown subspace {name!r} in MARGINALS", lineno)
        i = names.index(name)
        if any(m.subspace_index == i for m in marginals):
            raise ScenarioError(f"second MARGINALS line for {name!r}", lineno)
        if len(weights) != space.subspace_sizes[i]:
            raise ScenarioError(f"marginal for {name!r} has wrong length", lineno)
        try:
            marginals.append(Marginal(i, weights))
        except CorrpolyError as exc:
            raise ScenarioError(str(exc), lineno) from exc
    if len(marginals) != len(names):
        raise ScenarioError("need exactly one MARGINALS line per subspace")
    return tuple(sorted(marginals, key=lambda m: m.subspace_index))


def _parse_acts(rows, space: ProductSpace) -> dict[str, tuple[LinExpr, ...]]:
    acts: dict[str, tuple[LinExpr, ...]] = {}
    for lineno, name, rest in _named(rows):
        exprs = tuple(parse_expr(t, lineno) for t in rest.split())
        if len(exprs) != space.total_size:
            raise ScenarioError(
                f"act {name!r} needs {space.total_size} values, got {len(exprs)}", lineno
            )
        if name in acts:
            raise ScenarioError(f"duplicate act {name!r}", lineno)
        acts[name] = exprs
    return acts


def _parse_events(rows, space: ProductSpace) -> dict[str, str]:
    events: dict[str, str] = {}
    for lineno, name, rest in _named(rows):
        if name in events:
            raise ScenarioError(f"duplicate event {name!r}", lineno)
        try:
            parse_event(space, rest)
        except CorrpolyError as exc:
            raise ScenarioError(f"bad event {name!r}: {exc}", lineno) from exc
        events[name] = rest
    return events


def _parse_prior(rows, space: ProductSpace) -> PriorSpec:
    if not rows:
        return PriorSpec("full")
    first_line, first = rows[0]
    if first in ("full", "independent"):
        if len(rows) > 1:
            raise ScenarioError("extra lines after prior kind", rows[1][0])
        return PriorSpec(first)
    if first.startswith("partition:"):
        spec = first.partition(":")[2].strip()
        try:
            coll = parse_collection_spec(spec, space.n_subspaces)
        except CorrpolyError as exc:
            raise ScenarioError(str(exc), first_line) from exc
        if not coll.is_partition_of(space):
            raise ScenarioError("prior partition must cover all subspaces", first_line)
        return PriorSpec("partition", partition=coll)
    vertices = []
    for lineno, payload in rows:
        if not payload.startswith("vertex:"):
            raise ScenarioError(
                "PRIOR is 'full', 'independent', 'partition: ...' or 'vertex: ...' lines",
                lineno,
            )
        exprs = tuple(parse_expr(t, lineno) for t in payload.partition(":")[2].split())
        if len(exprs) != space.total_size:
            raise ScenarioError(
                f"prior vertex needs {space.total_size} weights", lineno
            )
        vertices.append(exprs)
    return PriorSpec("vertices", vertex_exprs=tuple(vertices))


def _parse_sweep(rows) -> Optional[SweepSpec]:
    if not rows:
        return None
    param = None
    grid = None
    for lineno, key, rest in _named(rows):
        if key == "param":
            param = rest
            if not _NAME_RE.fullmatch(param):
                raise ScenarioError(f"bad parameter name {param!r}", lineno)
        elif key == "grid":
            grid = tuple(parse_rational(t, lineno) for t in rest.split())
        else:
            raise ScenarioError("SWEEP lines are 'param: name' and 'grid: r r ...'", lineno)
    if param is None or grid is None:
        raise ScenarioError("SWEEP needs both a param and a grid line")
    return SweepSpec(param, grid)


def load(path) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ScenarioError(f"{path} is not UTF-8 text (byte {exc.start})") from None
    return loads(text)


# ---------------------------------------------------------------------------
# serialization


def serialize(scenario: Scenario) -> str:
    space = scenario.space
    names = space.subspace_names or tuple(f"s{i}" for i in range(space.n_subspaces))
    out = ["SPACE"]
    for i, name in enumerate(names):
        labels = (
            space.state_labels[i]
            if space.state_labels is not None
            else tuple(f"x{c}" for c in range(space.subspace_sizes[i]))
        )
        out.append(f"{name}: {' '.join(labels)}")
    out.append("")
    out.append("MARGINALS")
    for i, m in enumerate(scenario.marginals):
        out.append(f"{names[i]}: {' '.join(str(w) for w in m.weights)}")
    if scenario.act_exprs:
        out.append("")
        out.append("ACTS")
        for name, exprs in scenario.act_exprs.items():
            out.append(f"{name}: {' '.join(str(e) for e in exprs)}")
    if scenario.events:
        out.append("")
        out.append("EVENTS")
        for name, expr_text in scenario.events.items():
            out.append(f"{name}: {expr_text}")
    out.append("")
    out.append("PRIOR")
    if scenario.prior.kind in ("full", "independent"):
        out.append(scenario.prior.kind)
    elif scenario.prior.kind == "partition":
        out.append(f"partition: {format_collection_spec(scenario.prior.partition)}")
    else:
        for vec in scenario.prior.vertex_exprs:
            out.append(f"vertex: {' '.join(str(e) for e in vec)}")
    if scenario.sweep is not None:
        out.append("")
        out.append("SWEEP")
        out.append(f"param: {scenario.sweep.param}")
        out.append(f"grid: {' '.join(str(g) for g in scenario.sweep.grid)}")
    return "\n".join(out) + "\n"
