"""The public contract of the fourteen value types.

For a few instances of each type, `tests/fixtures/value_types.txt` pins the
repr text, the fields with the types of their values, the hash, equality
with a copy rebuilt from the fields (positionally and by keyword) and with
the next instance, and the pickle, copy and deepcopy round trips.  Then
every validation error keeps its `CorrpolyError` message, assignment to a
frozen type raises `AttributeError`, and importing the CLI loads neither
`dataclasses` nor `inspect`.

To record the fixture again: ``PYTHONPATH=src:tests python
tests/test_value_types.py > tests/fixtures/value_types.txt``."""

import copy
import math
import pickle
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from corrpoly import (
    Act,
    Collection,
    CorrpolyError,
    Event,
    JointDistribution,
    KernelBasis,
    LinearProgram,
    Marginal,
    ProductSpace,
    RiskUtility,
    SubspacePreference,
    UtilityAlignment,
    certify_local_max_mi,
    feasible_start,
    kernel_basis_rectangles,
    loads,
)
from corrpoly.info import MutualInformationReport
from corrpoly.lp import FeasibleStart
from corrpoly.scenario import Scenario
from conftest import random_correlation_set

F = Fraction
FIXTURE = Path(__file__).resolve().parent / "fixtures" / "value_types.txt"
SRC = Path(__file__).resolve().parent.parent / "src"

# type -> its field names in order
FIELDS = {
    ProductSpace: ("subspace_sizes", "state_labels", "subspace_names"),
    Marginal: ("subspace_index", "weights"),
    JointDistribution: ("space", "weights"),
    Event: ("space", "mask"),
    Collection: ("members",),
    Act: ("space", "values"),
    KernelBasis: ("basis_vectors",),
    UtilityAlignment: ("scale", "shift"),
    SubspacePreference: ("subspace_index", "marginal", "utility"),
    RiskUtility: ("rho", "scale"),
    LinearProgram: ("objective", "eq_matrix", "eq_rhs"),
    FeasibleStart: ("rows", "rhs", "basis", "flipped", "system"),
    Scenario: ("space", "marginals", "act_exprs", "events", "prior", "sweep"),
    MutualInformationReport: ("value", "is_local_max", "probe_count", "max_observed_increase"),
}

HALF = (F(1, 2), F(1, 2))
SPACE_2X2 = ProductSpace((2, 2))
LABELLED = ProductSpace((2, 2), (("H", "L"), ("G", "B")), ("x", "y"))
SCENARIO_TEXT = (
    "SPACE\nx: H L\ny: G B\n\n"
    "MARGINALS\nx: 1/2 1/2\ny: 1/3 2/3\n\n"
    "ACTS\nf: 1/2-a 2*a 0 1\n\n"
    "EVENTS\nE: (x=H)\n\n"
    "PRIOR\nindependent\n\n"
    "SWEEP\nparam: a\ngrid: 0 1/4\n"
)


def _program():
    rows = ((1, 1, 0, 0), (0, 0, 1, 1), (1, 0, 1, 0))
    return LinearProgram((1, 0, 2, 1), rows, (F(1, 2), F(1, 2), F(1, 3)))


def _start_with_its_caches():
    start = feasible_start(_program())
    start._table  # noqa: B018  (fills the start's caches)
    return start


def _space_with_its_table():
    space = ProductSpace((2, 3))
    space.state_table  # noqa: B018  (fills the cached property)
    return space


def _instances():
    """name -> a list of instances, with defaults and converted fields."""
    cs = random_correlation_set((2, 2), random.Random(3))
    return {
        ProductSpace: [
            ProductSpace((2, 3)),
            LABELLED,
            ProductSpace([3], [["a", "b", "c"]]),
            ProductSpace(subspace_sizes=(1, 2), subspace_names=["u", "v"]),
            _space_with_its_table(),
        ],
        Marginal: [
            Marginal(0, HALF),
            Marginal(1, [1, 0, 0]),
            Marginal(subspace_index=2, weights=("1/3", 0.5, F(1, 6))),
        ],
        JointDistribution: [
            JointDistribution(SPACE_2X2, (F(1, 2), 0, 0, F(1, 2))),
            JointDistribution(LABELLED, [F(1, 4)] * 4),
            JointDistribution(ProductSpace((1,)), (1,)),
        ],
        Event: [
            Event(SPACE_2X2, 5),
            Event.empty(LABELLED),
            Event.full(SPACE_2X2),
            Event(space=ProductSpace((3,)), mask=2),
        ],
        Collection: [
            Collection.of({0}, {1, 2}),
            Collection((frozenset({3}), [0, 2], {1})),
        ],
        Act: [
            Act(SPACE_2X2, (1, F(1, 2), 0, -3)),
            Act.constant(LABELLED, "2/3"),
            Act(space=ProductSpace((2,)), values=[0.25, 7]),
        ],
        KernelBasis: [
            kernel_basis_rectangles(ProductSpace((2, 3))),
            KernelBasis(()),
            KernelBasis(basis_vectors=((1, -1, -1, 1),)),
        ],
        UtilityAlignment: [
            UtilityAlignment(),
            UtilityAlignment(2, F(-1, 3)),
            UtilityAlignment(shift="1/4"),
        ],
        SubspacePreference: [
            SubspacePreference(0, Marginal(0, HALF)),
            SubspacePreference(1, Marginal(1, (F(1, 3), F(2, 3))), UtilityAlignment(3, 1)),
        ],
        RiskUtility: [
            RiskUtility(),
            RiskUtility(0.5, 2.0),
            RiskUtility(rho=2),
            RiskUtility(scale=F(1, 2)),
        ],
        LinearProgram: [
            _program(),
            LinearProgram(objective=[], eq_matrix=[], eq_rhs=[]),
        ],
        FeasibleStart: [
            feasible_start(_program()),
            _start_with_its_caches(),
            feasible_start(LinearProgram((1, 1), ((1, 1),), (1,))),
        ],
        Scenario: [
            loads(SCENARIO_TEXT),
            Scenario(SPACE_2X2, (Marginal(0, HALF), Marginal(1, HALF))),
        ],
        MutualInformationReport: [
            MutualInformationReport(0.5, True, 3, 0.0),
            certify_local_max_mi(cs, cs.independent_product, probes=2, seed=1),
            MutualInformationReport(
                value=math.inf, is_local_max=False, probe_count=0, max_observed_increase=1e-300
            ),
        ],
    }


def _shape(value) -> str:
    """The type of ``value``, with the types of a tuple's or a dict's items."""
    if type(value) is tuple:
        return "tuple[" + ",".join(sorted({_shape(v) for v in value})) + "]"
    if type(value) is frozenset:
        return "frozenset[" + ",".join(sorted({_shape(v) for v in value})) + "]"
    if type(value) is dict:
        items = {f"{_shape(k)}:{_shape(v)}" for k, v in value.items()}
        return "dict[" + ",".join(sorted(items)) + "]"
    return type(value).__name__


def _stable(value) -> bool:
    """Whether ``hash(value)`` is the same in every process and on every
    supported Python: no str (hash seeds) and no None (an address before
    Python 3.12) anywhere inside."""
    if isinstance(value, (bool, int, float, Fraction)):
        return True
    if isinstance(value, (tuple, frozenset)):
        return all(map(_stable, value))
    if type(value) in FIELDS:
        return all(_stable(getattr(value, name)) for name in FIELDS[type(value)])
    return False


def _fields(value) -> tuple:
    return tuple(getattr(value, name) for name in FIELDS[type(value)])


def _render() -> str:
    lines = []
    for kind, instances in _instances().items():
        names = FIELDS[kind]
        for k, x in enumerate(instances):
            following = instances[(k + 1) % len(instances)]
            values = _fields(x)
            lines.append(f"[{kind.__name__} {k}]")
            lines.append(f"repr: {x!r}")
            lines.extend(f"field {n}: {_shape(v)}" for n, v in zip(names, values))
            if kind.__hash__ is None:
                lines.append("hash: unhashable")
            else:
                shown = hash(x) if _stable(x) else "(a str or None inside)"
                lines.append(f"hash: {shown}; of the field tuple: {hash(x) == hash(values)}")
            rebuilt = kind(*values)
            keywords = kind(**dict(zip(names, values)))
            lines.append(
                f"equal to a rebuilt copy: {x == rebuilt and keywords == x and not x != rebuilt};"
                f" to the next instance: {x == following}"
            )
            for how, twin in (
                ("pickle", pickle.loads(pickle.dumps(x))),
                ("copy", copy.copy(x)),
                ("deepcopy", copy.deepcopy(x)),
            ):
                same = type(twin) is kind and twin == x and repr(twin) == repr(x)
                lines.append(f"{how}: {'equal, same type and repr' if same else 'DIFFERS'}")
    return "\n".join(lines) + "\n"


def test_value_types_keep_their_repr_fields_equality_hash_and_round_trips():
    assert _render() == FIXTURE.read_text()


def test_the_field_tuple_is_what_each_type_hashes():
    for kind, instances in _instances().items():
        for x in instances:
            if kind.__hash__ is not None:
                assert hash(x) == hash(_fields(x))
                assert hash(copy.deepcopy(x)) == hash(x)


def test_a_copy_starts_with_empty_caches():
    start, space = _start_with_its_caches(), _space_with_its_table()
    for how in (copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))):
        twin = how(start)
        assert "_bases" not in vars(twin) and "_table" not in vars(twin)
        assert twin._table == start._table and twin._bases.keys() == start._bases.keys()
        assert "state_table" not in vars(how(space))


BAD_VALUES = [
    (lambda: ProductSpace(("2",)), "subspace sizes must be integers, got ('2',)"),
    (lambda: ProductSpace((True, 2)), "subspace sizes must be integers, got (True, 2)"),
    (lambda: ProductSpace(()), "a product space needs at least one subspace"),
    (lambda: ProductSpace((2, 0)), "subspace sizes must be positive"),
    (lambda: ProductSpace((2,), (("a", "b"), ("c",))), "one label list per subspace required"),
    (lambda: ProductSpace((2, 2), (("a", "b"), ("c",))), "label count mismatch on subspace 1"),
    (lambda: ProductSpace((2,), (("a", "a"),)), "duplicate labels on subspace 0"),
    (
        lambda: ProductSpace((2, 2), None, ("x", "x")),
        "subspace names must be unique, one per subspace",
    ),
    (lambda: Marginal(0, (F(1, 2), F(1, 3))), "marginal weights must sum to exactly 1"),
    (lambda: Marginal(0, (F(3, 2), F(-1, 2))), "marginal weights must be nonnegative"),
    (lambda: Marginal(0, ("x",)), "not a finite rational: Invalid literal for Fraction: 'x'"),
    (lambda: JointDistribution(SPACE_2X2, HALF), "need 4 weights, got 2"),
    (lambda: JointDistribution(SPACE_2X2, (1, 1, -1, 0)), "joint weights must be nonnegative"),
    (lambda: Event(SPACE_2X2, 16), "mask 16 is not an event of a space with 4 states"),
    (lambda: Event(SPACE_2X2, True), "mask True is not an event of a space with 4 states"),
    (lambda: Event(SPACE_2X2, -1), "mask -1 is not an event of a space with 4 states"),
    (lambda: Collection.of({0}), "a collection needs at least two members"),
    (lambda: Collection.of({0}, ()), "collection members must be non-empty"),
    (lambda: Collection.of({0, 1}, {1}), "collection members must be pairwise disjoint"),
    (lambda: Collection.of({-1}, {1}), "subspace indices must be nonnegative"),
    (lambda: Act(SPACE_2X2, (1, 2)), "need 4 values, got 2"),
    (lambda: Act(SPACE_2X2, (1, 2, None, 0)), "not a finite rational: "),
    (lambda: UtilityAlignment(0), "utility alignment scale must be positive"),
    (lambda: UtilityAlignment(1, True), "not a finite rational: True is a bool"),
    (lambda: SubspacePreference(1, Marginal(0, HALF)), "marginal belongs to a different subspace"),
    (lambda: RiskUtility(math.nan), "CRRA rho must be finite, got nan"),
    (lambda: RiskUtility(True), "CRRA rho must be finite, got True"),
    (lambda: RiskUtility(1.0, 0.0), "CRRA scale must be finite and positive, got 0.0"),
    (lambda: RiskUtility(None, math.inf), "CRRA scale must be finite and positive, got inf"),
    (lambda: LinearProgram((1, 2), ((1, 1),), (1, 2)), "constraint matrix and rhs sizes differ"),
    (
        lambda: LinearProgram((1, 2), ((1,),), (1,)),
        "constraint row length does not match objective length",
    ),
]


@pytest.mark.parametrize("build, message", BAD_VALUES)
def test_validation_errors_keep_their_messages(build, message):
    with pytest.raises(CorrpolyError) as info:
        build()
    assert type(info.value) is CorrpolyError
    assert str(info.value).startswith(message)
    if not message.endswith(": "):
        assert str(info.value) == message


def test_frozen_types_refuse_assignment_and_deletion():
    for kind, instances in _instances().items():
        if kind is Scenario:
            continue
        for x in instances:
            before = repr(x)
            name = FIELDS[kind][0]
            with pytest.raises(AttributeError):
                setattr(x, name, None)
            with pytest.raises(AttributeError):
                delattr(x, name)
            assert repr(x) == before


def test_a_scenario_stays_mutable_and_unhashable():
    scenario = loads(SCENARIO_TEXT)
    scenario.events = {}
    assert scenario.events == {} and scenario != loads(SCENARIO_TEXT)
    with pytest.raises(TypeError):
        hash(scenario)
    first, second = (Scenario(SPACE_2X2, ()) for _ in range(2))
    assert first.act_exprs == {} and first.act_exprs is not second.act_exprs


def test_the_cli_imports_neither_dataclasses_nor_inspect():
    code = (
        "import sys, corrpoly.cli\n"
        "print(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={"PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert out == "[]\n"


if __name__ == "__main__":
    sys.stdout.write(_render())
