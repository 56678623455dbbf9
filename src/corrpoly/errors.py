"""Exception hierarchy shared across the package."""


class CorrpolyError(Exception):
    """Base class for all errors raised by this package; raised as such by
    the input checks of each module (`ProductSpace`, `Marginal`, ...)."""


class SpaceMismatchError(CorrpolyError):
    """Two objects that must live on the same product space do not: the one
    check is `space.require_same_space` (and `space.sorted_marginals`)."""


class MarginalMismatchError(CorrpolyError):
    """Distributions or prior sets that must share marginals do not: the
    one check is `space.shared_marginals`."""


class NotInCorrelationSetError(CorrpolyError):
    """A distribution or a probe point is no member of the correlation set:
    a negative weight, or not its marginals.  The one check is
    `polytope.CorrelationSet.require_numerators`, on integer weights."""


class GuardExceededError(CorrpolyError):
    """A desk-scale enumeration guard was exceeded (`polytope.enumerate_extreme_points`)."""


class InfeasibleError(CorrpolyError):
    """The linear program has an empty feasible region (`lp.feasible_start`)."""


class UnboundedError(CorrpolyError):
    """The linear program is unbounded below (`lp` phase 2)."""


class NonlinearCollectionError(CorrpolyError):
    """Dimension was requested for a collection whose independence
    constraints are not linear (two or more non-singleton members), by
    `independence.restricted_dimension`."""


class ConsistencyError(CorrpolyError):
    """An internal cross-check that must hold mathematically failed.

    Raised by the cross-checks of `polytope`, `lp`, `capacity`, `info`,
    `independence`, `preferences` and `applications`, when two independent
    computations of the same quantity
    disagree or a certificate fails; always indicates a bug, never bad user
    input.  Keyword ``context`` (the inputs that reproduce the failure) is
    appended to the message and kept as the ``context`` attribute; the
    message without it is the ``reason`` attribute."""

    def __init__(self, message: str, **context):
        self.reason = message
        if context:
            message += " (" + ", ".join(f"{k}={v}" for k, v in context.items()) + ")"
        super().__init__(message)
        self.context = context


class ScenarioError(CorrpolyError):
    """A scenario file is malformed or inconsistent (`scenario.loads`)."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
