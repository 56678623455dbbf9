import contextlib
import csv
import io
import itertools
import math
import os
import random
import resource
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import corrpoly
from corrpoly import (
    Collection,
    CorrelationSet,
    JointDistribution,
    Marginal,
    PriorSet,
    ProductSpace,
    dimension_formula,
    sample_member,
)
from corrpoly.cli import build_parser, main
from conftest import SCENARIO_DIR, random_correlation_set, random_marginal
from bruteforce import (
    check_collection_independence_axiom_reference,
    check_subspace_independence_axiom_reference,
    frechet_rectangle_value,
    is_independent_on_reference,
    oracle_vertices,
)

FIXTURES = Path(__file__).resolve().parent / "fixtures"

CLIMATE = str(SCENARIO_DIR / "climate.scn")
FINANCE = str(SCENARIO_DIR / "finance.scn")
INSURANCE = str(SCENARIO_DIR / "insurance.scn")
NEGLECT = str(SCENARIO_DIR / "insurance_neglect.scn")


def run(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_dim_subcommand(capsys):
    code, out, _ = run(capsys, "dim", CLIMATE)
    assert code == 0
    assert "dimension" in out and " 1" in out


def test_dim_with_collections(capsys):
    code, out, _ = run(
        capsys, "dim", FINANCE, "--collection", "{1},{2}", "--collection", "{1},{3}"
    )
    assert code == 0
    assert "dimension[{1},{2}]" in out
    assert "dimension[intersection]" in out
    lines = dict(
        (parts[0], parts[-1])
        for parts in (line.split() for line in out.splitlines()[1:])
    )
    assert lines["dimension"] == "4"
    assert lines["dimension[{1},{2}]"] == "3"
    assert lines["dimension[intersection]"] == "2"


def test_vertices_formats(capsys):
    code, out, _ = run(capsys, "vertices", CLIMATE, "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0][0] == "vertex"
    assert len(rows) == 3  # header + two extreme points
    code, out, _ = run(capsys, "vertices", CLIMATE, "--format", "prior")
    assert code == 0
    assert out.startswith("PRIOR\nvertex: ")


def test_capacity_subcommand(capsys):
    code, out, _ = run(capsys, "capacity", CLIMATE, "--event", "catastrophe", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[1][1] == "0"
    code, out, _ = run(
        capsys, "capacity", CLIMATE, "--event", "climate_sensitivity=Hcs", "--format", "csv"
    )
    assert rows is not None and code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[1][1] == "1/3"


def test_mi_subcommand(capsys):
    code, out, _ = run(capsys, "mi", CLIMATE, "--vertex", "0", "--probes", "16")
    assert code == 0
    assert "mutual_information_bits" in out
    assert "is_local_max" in out and "True" in out
    code, out, _ = run(capsys, "mi", CLIMATE, "--weights", "1/12 1/4 1/6 1/2")
    assert code == 0
    assert "False" in out  # the independent product is the global minimum


def test_mi_is_exact_on_tiny_marginals(capsys):
    # the float ladder alone rejects this vertex; the verdict is exact
    code, out, err = run(capsys, "mi", str(FIXTURES / "tiny_marginals.scn"), "--vertex", "0")
    assert (code, err) == (0, "")
    assert out == (FIXTURES / "tiny_marginals_mi_vertex0.txt").read_text()
    assert out.splitlines()[-3].split() == ["is_local_max", "True"]


def test_mi_of_a_weight_beyond_the_float_range(capsys):
    # the prior (1/2 - e, e, e, 1/2 - e), e = 10^-400, on uniform marginals:
    # the ratio of e to its product weight 1/4 underflows a float to 0.0
    path = str(FIXTURES / "tiny_weight.scn")
    weights = " ".join(map(str, corrpoly.load(path).prior_set().vertices[0].weights))
    want = (FIXTURES / "tiny_weight_mi.txt").read_text()
    assert run(capsys, "mi", path) == (0, want, "")
    assert run(capsys, "mi", path, "--weights", weights) == (0, want, "")


def test_mi_face_points_are_pinned(capsys):
    # with no random probe the ladder reads face points only, so this pins
    # the boundary points of the face directions on every Python
    code, out, err = run(
        capsys, "mi", CLIMATE, "--weights", "1/12 1/4 1/6 1/2", "--probes", "0"
    )
    assert (code, err) == (0, "")
    assert out == (FIXTURES / "climate_mi_face_points.txt").read_text()
    assert out.splitlines()[-2].split() == ["probe_count", "1"]


def test_mi_face_points_are_pinned_on_a_face_with_halves(capsys):
    # on this (2,2,2,2) point the face basis has entries 1/2 (its least
    # common denominator is 2), so an integer face direction that is scaled
    # wrongly leaves the face and changes the pinned bytes; the (2,2) climate
    # point cannot show that, since all of its pivots are 1 or -1
    weights = "1/18 0 0 1/6 1/36 0 0 0 0 13/36 1/12 1/12 0 2/9 0 0"
    code, out, err = run(
        capsys, "mi", str(FIXTURES / "face_2x2x2x2.scn"), "--weights", weights, "--probes", "0"
    )
    assert (code, err) == (0, "")
    assert out == (FIXTURES / "face_2x2x2x2_mi_face_points.txt").read_text()
    assert out.splitlines()[-2].split() == ["probe_count", "2"]


def test_vertices_csv_is_pinned_on_a_3x4_shape(capsys):
    # vertex order and exact rationals on a shape larger than the shipped
    # scenarios, with tied partial sums (1/12 + 1/4 = 1/3); the pinned
    # vertex set is the oracle's
    code, out, err = run(capsys, "vertices", str(FIXTURES / "shape_3x4.scn"), "--format", "csv")
    assert (code, err) == (0, "")
    assert out == (FIXTURES / "shape_3x4_vertices.csv").read_text()
    pinned = {tuple(Fraction(w) for w in row[1:]) for row in list(csv.reader(io.StringIO(out)))[1:]}
    marginals = [(Fraction(1, 6), Fraction(1, 3), Fraction(1, 2)),
                 (Fraction(1, 12), Fraction(1, 4), Fraction(1, 3), Fraction(1, 3))]
    assert pinned == oracle_vertices((3, 4), marginals)


def test_vertices_csv_is_pinned_on_a_2x2x3_shape(capsys):
    # three subspaces, so the eliminations leave out two implied marginal
    # rows; the pinned vertex set is the oracle's
    code, out, err = run(capsys, "vertices", str(FIXTURES / "shape_2x2x3.scn"), "--format", "csv")
    assert (code, err) == (0, "")
    assert out == (FIXTURES / "shape_2x2x3_vertices.csv").read_text()
    pinned = {tuple(Fraction(w) for w in row[1:]) for row in list(csv.reader(io.StringIO(out)))[1:]}
    marginals = [(Fraction(1, 3), Fraction(2, 3)), (Fraction(1, 4), Fraction(3, 4)),
                 (Fraction(1, 6), Fraction(1, 3), Fraction(1, 2))]
    assert pinned == oracle_vertices((2, 2, 3), marginals)


def test_mi_needs_at_only_where_it_reads_the_prior(capsys):
    for args in (("--vertex", "0"), ("--weights", "1/24 1/8 1/24 1/8 1/12 1/4 1/12 1/4")):
        code, out, err = run(capsys, "mi", FINANCE, *args, "--probes", "2")
        assert (code, err) == (0, ""), args
        assert "is_local_max" in out
        code, out, err = run(capsys, "mi", FINANCE, *args, "--at", "abc")
        assert code == 1 and out == "" and err.startswith("error: "), args
    code, out, err = run(capsys, "mi", FINANCE)
    assert code == 1 and out == "" and "pass --at VALUE" in err


def test_mi_takes_one_distribution(capsys):
    # --vertex and --weights each name the distribution to certify; given
    # both, neither is dropped in silence
    code, out, err = run(
        capsys, "mi", CLIMATE, "--vertex", "0", "--weights", "1/12 1/4 1/6 1/2"
    )
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "not allowed with argument" in err


def test_independence_subcommand_exit_codes(capsys):
    code, out, _ = run(
        capsys, "independence", FINANCE, "--collection", "{1},{2}", "--at", "1/6"
    )
    assert code == 0
    assert "holds" in out and "True" in out
    code, out, _ = run(
        capsys, "independence", FINANCE, "--collection", "{1},{2}", "--at", "1/4"
    )
    assert code == 2
    assert "witness" in out


def test_evaluate_subcommand(capsys):
    code, out, _ = run(capsys, "evaluate", CLIMATE, "--format", "csv")
    assert code == 0
    rows = {r[0]: r for r in list(csv.reader(io.StringIO(out)))[1:]}
    assert rows["business_as_usual"][2] == "-10/3"
    assert rows["mitigation"][2] == "-10/3"
    assert rows["climate_engineering"][2] == "-3"
    code, out, _ = run(capsys, "evaluate", FINANCE, "--at", "1/4", "--acts", "buy_gold", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[1][1] == "1/4"  # SEU under the singleton belief


def test_check_axiom_subspace_independence(capsys):
    code, out, _ = run(
        capsys,
        "check-axiom",
        FINANCE,
        "--axiom",
        "subspace-independence",
        "--at",
        "1/6",
        "--trials",
        "200",
    )
    assert code == 0 and "holds: True" in out
    code, out, _ = run(
        capsys,
        "check-axiom",
        FINANCE,
        "--axiom",
        "subspace-independence",
        "--at",
        "1/4",
        "--trials",
        "0",
    )
    assert code == 2
    assert "counterexample" in out


def test_check_axiom_consistency_and_collection(capsys):
    code, out, _ = run(capsys, "check-axiom", CLIMATE, "--axiom", "subspace-consistency")
    assert code == 0 and "holds: True" in out
    code, out, _ = run(
        capsys,
        "check-axiom",
        FINANCE,
        "--axiom",
        "collection-independence",
        "--collection",
        "{1,2},{3}",
        "--at",
        "1/4",
    )
    assert code == 0 and "holds: True" in out
    code, out, _ = run(
        capsys,
        "check-axiom",
        FINANCE,
        "--axiom",
        "collection-independence",
        "--collection",
        "{1},{2}",
        "--at",
        "1/4",
    )
    assert code == 2 and "witness" in out


def test_compare_subcommand(capsys):
    code, out, _ = run(
        capsys,
        "compare",
        INSURANCE,
        NEGLECT,
        "--at",
        "0",
        "--at-second",
        "0",
        "--family",
        "1:[B];2:[F]",
        "--format",
        "csv",
    )
    assert code == 0
    rows = {r[0]: r[1] for r in list(csv.reader(io.StringIO(out)))[1:]}
    assert rows["revealed_correlation"] == "more-positive"
    assert rows["first_absolute_sign"] == "1"


def test_compare_without_family(capsys):
    code, out, _ = run(
        capsys, "compare", INSURANCE, NEGLECT, "--at", "0", "--at-second", "0",
        "--format", "csv",
    )
    assert code == 0
    rows = {r[0]: r[1] for r in list(csv.reader(io.StringIO(out)))[1:]}
    # both priors are singletons with the same marginals, one correlated and
    # one not: neither hull contains the other
    assert rows["first_more_correlation_averse"] == "False"
    assert rows["second_more_correlation_averse"] == "False"


def test_sweep_subcommand(capsys, tmp_path):
    code, out, _ = run(capsys, "sweep", FINANCE)
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["param", "act", "value_rational", "value_decimal", "argmin_vertex"]
    target = tmp_path / "sweep.csv"
    code, out, _ = run(capsys, "sweep", FINANCE, "--out", str(target))
    assert code == 0 and out == ""
    assert target.read_text().startswith("param,act,")


def test_error_paths(capsys):
    code, _, err = run(capsys, "dim", "/nonexistent/file.scn")
    assert code == 1
    code, _, err = run(capsys, "capacity", CLIMATE, "--event", "nonsense=Hcs")
    assert code == 1 and "error" in err
    code, _, err = run(capsys, "frobnicate", CLIMATE)
    assert code == 1
    code, _, err = run(capsys, "evaluate", FINANCE)  # unbound parameter
    assert code == 1 and "--at" in err


def test_a_prior_vertex_error_names_the_vertex_and_the_parameter(capsys):
    code, out, err = run(capsys, "independence", FINANCE, "--collection", "{1},{2}", "--at", "99")
    assert (code, out) == (1, "")
    assert err == "error: prior vertex 0 at a=99: joint weights must be nonnegative\n"


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (10**9, 10**9))


@pytest.mark.parametrize("axiom, args", [
    ("collection", ["--axiom", "collection-independence", "--collection", "{1},{2,3,4}"]),
    ("subspace", ["--axiom", "subspace-independence", "--trials", "0"]),
])
def test_independence_axioms_are_pinned_on_a_3x3x3x3_shape(axiom, args):
    # the rest of one subspace has 27 states: the list of its 2^27 - 1
    # subsets would not fit in the 1 GB of address space the call is given
    src = str(Path(corrpoly.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-m", "corrpoly.cli", "check-axiom",
         str(FIXTURES / "independence_3x3x3x3.scn"), *args],
        env={**os.environ, "PYTHONPATH": src}, preexec_fn=_limit_address_space,
        capture_output=True, text=True, timeout=60,
    )
    assert (done.returncode, done.stderr) == (2, "")
    assert done.stdout == (FIXTURES / f"independence_3x3x3x3_{axiom}.txt").read_text()


@pytest.mark.parametrize("n", [6, 8])
def test_subspace_independence_is_pinned_on_a_prior_independent_in_subspace_0(n):
    # (2,)^n with uniform marginals and two vertices, the product and one
    # coupling of the second and third coordinates: subspace 0 is independent
    # of the rest under both, so none of the 2 * (2^(2^(n-1)) - 1) identities
    # of subspace 0 fails, and the witness lies in subspace 1
    src = str(Path(corrpoly.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-m", "corrpoly.cli", "check-axiom",
         str(FIXTURES / f"independence_binary{n}.scn"),
         "--axiom", "subspace-independence", "--trials", "0"],
        env={**os.environ, "PYTHONPATH": src}, preexec_fn=_limit_address_space,
        capture_output=True, text=True, timeout=60,
    )
    assert (done.returncode, done.stderr) == (2, "")
    assert done.stdout == (FIXTURES / f"independence_binary{n}_subspace.txt").read_text()


@pytest.mark.parametrize("args", [
    ("evaluate", FINANCE, "--at", "1/" + "3" * 5000),
    ("dim", FINANCE, "--collection", "{" + "1" * 5000 + "},{2}"),
    ("capacity", FINANCE, "--event", "inflation=H_infl $ 42"),
    ("evaluate", FINANCE, "--at", "١/٤"),
])
def test_overlong_numbers_and_unknown_characters_are_errors(capsys, args):
    code, out, err = run(capsys, *args)
    assert code == 1 and out == "" and err.startswith("error: ")


@pytest.mark.parametrize("args", [
    ("mi", CLIMATE, "--vertex", "١", "--probes", "2"),
    ("mi", CLIMATE, "--vertex", "0_0", "--probes", "1_0"),
    ("mi", CLIMATE, "--vertex", "0", "--probes", " 2"),
    ("mi", CLIMATE, "--vertex", "0", "--probes", "+2"),
    ("mi", CLIMATE, "--vertex", "0", "--seed", "٣"),
    ("mi", CLIMATE, "--vertex", "0", "--seed", "--3"),
    ("mi", CLIMATE, "--vertex", "0", "--seed", "3\n"),
    ("mi", CLIMATE, "--vertex", "0", "--seed", "-"),
    ("vertices", CLIMATE, "--guard", "４"),
    ("vertices", CLIMATE, "--guard", ""),
    ("check-axiom", FINANCE, "--axiom", "subspace-independence", "--at", "1/6",
     "--trials", "1_0"),
    ("check-axiom", FINANCE, "--axiom", "subspace-independence", "--at", "1/6",
     "--seed", "١"),
    ("evaluate", FINANCE, "--at", "1/4\n"),
])
def test_numbers_in_options_are_ascii_digits(capsys, args):
    # int() alone reads any Unicode decimal digit, "_" separators and
    # surrounding white space; an option takes ASCII digits only
    code, out, err = run(capsys, *args)
    assert code == 1 and out == "" and err.startswith("error: "), args


def test_integer_options_read_ascii_digits(capsys):
    code, out, err = run(capsys, "mi", CLIMATE, "--vertex", "01", "--probes", "2", "--seed", "-3")
    assert (code, err) == (0, "")
    scn = corrpoly.load(CLIMATE)
    cs = scn.correlation_set()
    report = corrpoly.certify_local_max_mi(cs, cs.vertices()[1], probes=2, seed=-3)
    values = dict(line.split() for line in out.splitlines()[1:])
    assert values["probe_count"] == str(report.probe_count)
    assert values["max_observed_increase"] == str(report.max_observed_increase)


def test_mi_bad_input_is_an_error(capsys):
    for args in (
        ("--vertex", "0", "--step", "abc"),
        ("--vertex", "0", "--step", "1/0"),
        ("--vertex", "0", "--step", "0"),
        ("--vertex", "0", "--step", " \u0661/\u0668\n"),  # Arabic-Indic digits, white space
        ("--vertex", "0", "--step", "1_2e-2"),
        ("--vertex", "0", "--step", "1e-1"),
        ("--vertex", "0", "--step", "-1/8"),
        ("--vertex", "0", "--probes", "-3"),
        ("--vertex", "99"),
        ("--vertex", "-1"),
    ):
        code, out, err = run(capsys, "mi", CLIMATE, *args)
        assert code == 1, args
        assert out == "" and err.startswith("error: "), args
    code, out, err = run(capsys, "mi", CLIMATE, "--vertex", "1", "--step", "0.125")
    assert code == 0 and "is_local_max" in out


def test_check_axiom_rejects_negative_trials(capsys):
    args = ("check-axiom", FINANCE, "--axiom", "subspace-independence", "--at", "1/6")
    code, out, err = run(capsys, *args, "--trials", "-5")
    assert code == 1 and out == "" and "trials must be an integer >= 0" in err
    code, out, _ = run(capsys, *args, "--trials", "0")
    assert code == 0 and out == "holds: True\n"


@pytest.mark.parametrize("seed", [0, 3])
def test_mi_seed_reaches_the_certificate(capsys, seed):
    scn = corrpoly.load(CLIMATE)
    p = corrpoly.JointDistribution(
        scn.space, tuple(Fraction(w) for w in ("1/12", "1/4", "1/6", "1/2"))
    )
    code, out, err = run(
        capsys, "mi", CLIMATE, "--weights", "1/12 1/4 1/6 1/2", "--seed", str(seed)
    )
    assert (code, err) == (0, "")
    values = dict(line.split() for line in out.splitlines()[1:])
    report = corrpoly.certify_local_max_mi(scn.correlation_set(), p, seed=seed)
    assert values["probe_count"] == str(report.probe_count)
    assert values["max_observed_increase"] == str(report.max_observed_increase)


def test_check_axiom_seed_reaches_the_checker(capsys, monkeypatch):
    from corrpoly import preferences

    original = preferences.check_subspace_independence_axiom
    seeds = []

    def recording(prior, trials, seed):
        seeds.append(seed)
        return original(prior, trials=trials, seed=seed)

    monkeypatch.setattr(preferences, "check_subspace_independence_axiom", recording)
    code, out, _ = run(
        capsys, "check-axiom", FINANCE, "--axiom", "subspace-independence", "--at", "1/6",
        "--seed", "5", "--trials", "50",
    )
    assert (code, out) == (0, "holds: True\n")
    assert seeds == [5]


@pytest.mark.parametrize("guard, code, expected", [
    ("3", 1, "guarded at 3 states"),
    ("4", 0, None),
    ("-1", 1, "guard must be an integer >= 0"),
])
def test_vertices_guard(capsys, guard, code, expected):
    # the climate space has 4 states and 2 vertices
    result, out, err = run(capsys, "vertices", CLIMATE, "--guard", guard, "--format", "csv")
    assert result == code
    if expected is None:
        assert err == "" and len(list(csv.reader(io.StringIO(out)))) == 3  # header + both
    else:
        assert out == "" and expected in err


def test_compare_bad_family_index_is_an_error(capsys):
    code, out, err = run(
        capsys, "compare", INSURANCE, NEGLECT, "--at", "0", "--at-second", "0",
        "--family", "a:[B];2:[F]",
    )
    assert code == 1 and out == "" and err.startswith("error: ")


@pytest.mark.parametrize("head", ["\u0661", "+1"], ids=["arabic-indic digit", "plus sign"])
def test_compare_family_index_takes_ascii_digits_only(capsys, head):
    # int() reads both as 1; a family head takes the [0-9]+ of --collection
    code, out, err = run(
        capsys, "compare", INSURANCE, NEGLECT, "--at", "0", "--at-second", "0",
        "--family", f"{head}:[B];2:[F]",
    )
    assert code == 1 and out == "" and err.startswith("error: ")


@pytest.mark.parametrize("args", [
    ("dim",), ("vertices",), ("capacity", "--event", "catastrophe"), ("mi",),
    ("independence", "--collection", "{1},{2}"), ("evaluate",),
    ("check-axiom", "--axiom", "subspace-consistency"), ("compare", CLIMATE), ("sweep",),
])
def test_non_utf8_scenario_is_an_error(capsys, tmp_path, args):
    path = tmp_path / "latin1.scn"
    path.write_bytes(Path(CLIMATE).read_bytes().replace(b"Hcs", b"H\xe9cs"))
    code, out, err = run(capsys, args[0], str(path), *args[1:])
    assert code == 1 and out == "" and err.startswith("error: ")
    assert "not UTF-8" in err


def test_scenario_with_a_utility_section_is_an_error(capsys, tmp_path):
    text = Path(CLIMATE).read_text()
    path = tmp_path / "old_format.scn"
    path.write_text(text + "\nUTILITY\nidentity\n")
    code, out, err = run(capsys, "dim", str(path))
    line = text.count("\n") + 2
    assert code == 1 and out == ""
    assert err == f"error: line {line}: unknown section UTILITY\n"


def test_zero_weight_states_have_restricted_dimensions(capsys, tmp_path):
    path = tmp_path / "zero.scn"
    path.write_text(
        "SPACE\na: x y\nb: u v\nc: s t\n\n"
        "MARGINALS\na: 1/2 1/2\nb: 1 0\nc: 1/2 1/2\n\n"
        "ACTS\nf: 1 2 3 4 5 6 7 8\n\nPRIOR\npartition: {1,2},{3}\n"
    )
    code, out, err = run(capsys, "dim", str(path), "--collection", "{1},{3}", "--format", "csv")
    assert (code, out, err) == (0, 'quantity,value\ndimension,1\n"dimension[{1},{3}]",0\n', "")
    code, out, err = run(capsys, "independence", str(path), "--collection", "{1,2},{3}")
    assert code == 0 and out.splitlines()[-1].split() == ["dimension", "0"] and err == ""
    code, out, err = run(capsys, "evaluate", str(path), "--format", "csv")
    assert (code, out.splitlines()[1], err) == (0, "f,7/2,7/2,3.5,3,3,0", "")


_names = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,3}", fullmatch=True)


@st.composite
def small_scenarios(draw, n_subspaces=None):
    """Scenario text in the style of `test_scenario.canonical_scenarios`, with
    its subspace sizes, marginal weights, events and act: at most 9 states,
    1-state subspaces and zero-weight states included, on 1-3 subspaces or
    on ``n_subspaces``.  The events are returned by name as the flat indices
    of their states: the first is a tuple atom with ``*`` wildcards, the
    second an expression that combines a tuple atom and a cylinder atom
    ``name=label`` with ``~``, ``&`` and ``|``.  The one act has small
    integer payoffs."""
    lengths = {"min_size": n_subspaces or 1, "max_size": n_subspaces or 3}
    sizes = draw(st.lists(st.integers(1, 3), **lengths).filter(lambda s: math.prod(s) <= 9))
    names = draw(st.lists(_names, min_size=len(sizes), max_size=len(sizes), unique=True))
    out = ["SPACE"]
    labels = []
    for name, size in zip(names, sizes):
        labels.append(draw(st.lists(_names, min_size=size, max_size=size, unique=True)))
        out.append(f"{name}: {' '.join(labels[-1])}")
    out += ["", "MARGINALS"]
    weights = []
    for name, size in zip(names, sizes):
        counts = draw(st.lists(st.integers(0, 4), min_size=size, max_size=size))
        counts[draw(st.integers(0, size - 1))] += 1
        weights.append(tuple(Fraction(c, sum(counts)) for c in counts))
        out.append(f"{name}: {' '.join(map(str, weights[-1]))}")
    cells = list(itertools.product(*(range(size) for size in sizes)))

    def atom(kind):
        """The text of a drawn atom and the flat indices of its states."""
        if kind == "tuple":  # a coordinate is a state index or None for ``*``
            pattern = [draw(st.one_of(st.none(), st.integers(0, size - 1))) for size in sizes]
            text = "[" + ",".join("*" if j is None else ls[j] for j, ls in zip(pattern, labels)) + "]"
            return text, {
                k for k, cell in enumerate(cells)
                if all(j is None or j == c for j, c in zip(pattern, cell))
            }
        i = draw(st.integers(0, len(sizes) - 1))
        j = draw(st.integers(0, sizes[i] - 1))
        return f"{names[i]}={labels[i][j]}", {k for k, cell in enumerate(cells) if cell[i] == j}

    def complement(term, negated):
        text, members = term
        return (f"~{text}", set(range(len(cells))) - members) if negated else term

    # (a & b) | c written without parentheses, or (a | b) & c with them, the
    # pair first or last; a tuple atom and a cylinder atom among a, b and c,
    # in a drawn order, and at least one complement, of an atom or the pair
    kinds = draw(st.permutations(["tuple", "cylinder", draw(st.sampled_from(["tuple", "cylinder"]))]))
    negated = draw(st.lists(st.booleans(), min_size=4, max_size=4).filter(any))
    (ta, a), (tb, b), (tc, c) = (complement(atom(k), n) for k, n in zip(kinds, negated))
    if draw(st.booleans()):
        pair = complement((f"({ta} & {tb})" if negated[3] else f"{ta} & {tb}", a & b), negated[3])
        op, members = "|", pair[1] | c
    else:
        pair = complement((f"({ta} | {tb})", a | b), negated[3])
        op, members = "&", pair[1] & c
    terms = (pair[0], tc) if draw(st.booleans()) else (tc, pair[0])
    expression = (f" {op} ".join(terms), members)
    event_names = draw(st.lists(_names, min_size=2, max_size=2, unique=True))
    drawn = dict(zip(event_names, (atom("tuple"), expression)))
    payoffs = draw(st.lists(st.integers(-3, 3), min_size=len(cells), max_size=len(cells)))
    out += ["", "ACTS", f"{draw(_names)}: {' '.join(map(str, payoffs))}"]
    out += ["", "EVENTS", *(f"{name}: {text}" for name, (text, _) in drawn.items())]
    events = {name: members for name, (_, members) in drawn.items()}
    return "\n".join(out) + "\n", tuple(sizes), weights, events, payoffs


def _main_in_process(*argv):
    """Exit code, stdout and stderr of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=25, deadline=None)
@given(small_scenarios())
def test_dim_and_vertices_match_their_oracles_on_drawn_scenarios(drawn):
    text, sizes, weights, _, _ = drawn
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "drawn.scn")
        Path(path).write_text(text, encoding="utf-8")
        dim = _main_in_process("dim", path, "--format", "csv")
        vertices = _main_in_process("vertices", path, "--format", "csv")
    reduced = [sum(1 for w in ws if w > 0) for ws in weights]
    assert dim == (0, f"quantity,value\ndimension,{dimension_formula(reduced)}\n", "")
    code, out, err = vertices
    assert (code, err) == (0, "")
    rows = list(csv.reader(io.StringIO(out)))[1:]
    assert {tuple(Fraction(w) for w in row[1:]) for row in rows} == oracle_vertices(sizes, weights)
    # the MI verdict is exact: every vertex is a local maximum, and the
    # independent product is one exactly when it is the only member
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "drawn.scn")
        Path(path).write_text(text, encoding="utf-8")
        for k in range(len(rows)):
            assert _mi_verdict(path, "--vertex", str(k), "--probes", "4") == "True"
        product = [math.prod(ws) for ws in itertools.product(*weights)]
        verdict = _mi_verdict(path, "--weights", " ".join(map(str, product)), "--probes", "4")
    assert verdict == str(dimension_formula(reduced) == 0)


@settings(max_examples=25, deadline=None)
@given(small_scenarios())
def test_capacity_and_evaluate_match_their_oracles_on_drawn_scenarios(drawn):
    # over the full prior both are minima of a linear function over the
    # oracle vertices: p(E) for the event and the expectation for the act;
    # the first event, a tuple atom, is a rectangle, whose capacity is also
    # Fréchet's lower bound on its sides
    text, sizes, weights, events, payoffs = drawn
    vertices = oracle_vertices(sizes, weights)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "drawn.scn")
        Path(path).write_text(text, encoding="utf-8")
        capacities = {
            name: _main_in_process("capacity", path, "--event", name, "--format", "csv")
            for name in events
        }
        evaluate = _main_in_process("evaluate", path, "--format", "csv")
    for name, event in events.items():
        code, out, err = capacities[name]
        assert (code, err) == (0, "")
        (row,) = list(csv.reader(io.StringIO(out)))[1:]
        assert row[0] == name
        assert Fraction(row[1]) == min(sum(v[k] for k in event) for v in vertices)
    rectangle = next(iter(events))
    cells = list(itertools.product(*map(range, sizes)))
    sides = [{cells[k][i] for k in events[rectangle]} for i in range(len(sizes))]
    assert math.prod(map(len, sides)) == len(events[rectangle])
    (row,) = list(csv.reader(io.StringIO(capacities[rectangle][1])))[1:]
    assert Fraction(row[1]) == frechet_rectangle_value(weights, sides)
    code, out, err = evaluate
    assert (code, err) == (0, "")
    (row,) = list(csv.DictReader(io.StringIO(out)))
    assert Fraction(row["meu"]) == min(sum(w * x for w, x in zip(v, payoffs)) for v in vertices)


def _witness_lines(holds, w):
    """What ``check-axiom --axiom collection-independence`` prints."""
    lines = [f"holds: {holds}"]
    if w is not None:
        lines += [
            f"witness on member {sorted(w.anchor_member)}:",
            f"  E   = {sorted(w.e.members)}",
            f"  E'  = {sorted(w.e_prime.members)}",
            f"  F   = {sorted(w.f.members)}",
            f"  F'  = {sorted(w.f_prime.members)}",
            f"  p(ExF) p(E'xF') = {w.lhs} != {w.rhs} = p(ExF') p(E'xF)",
        ]
    return "".join(line + "\n" for line in lines)


def _counterexample_lines(holds, ce):
    """What ``check-axiom --axiom subspace-independence`` prints."""
    lines = [f"holds: {holds}"]
    if ce is not None:
        lines += [
            f"counterexample: subspace {ce.subspace_index}",
            f"  f_i values: {[str(v) for v in ce.f_i.values]}",
            f"  g_i values: {[str(v) for v in ce.g_i.values]}",
            f"  conditioning event: {sorted(ce.conditioning_event.members)}",
            f"  outside value: {ce.outside_value}",
            f"  base ranking {ce.base_values[0]} vs {ce.base_values[1]}; "
            f"conditioned {ce.conditioned_values[0]} vs {ce.conditioned_values[1]}",
        ]
    return "".join(line + "\n" for line in lines)


@settings(max_examples=25, deadline=None)
@given(small_scenarios().filter(lambda drawn: len(drawn[1]) >= 2), st.data())
def test_independence_verdicts_match_their_oracles_on_drawn_scenarios(drawn, data):
    # one explicit belief: an oracle vertex, the independent product or a
    # sampled member, tested on the first two subspaces
    text, sizes, weights, _, _ = drawn
    space = ProductSpace(sizes)
    belief = _drawn_belief(sizes, weights, data)
    text += f"\nPRIOR\nvertex: {' '.join(map(str, belief))}\n"
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "drawn.scn")
        Path(path).write_text(text, encoding="utf-8")
        verdict = _main_in_process(
            "independence", path, "--collection", "{1},{2}", "--format", "csv"
        )
        collection = _main_in_process(
            "check-axiom", path, "--axiom", "collection-independence", "--collection", "{1},{2}"
        )
        subspace = _main_in_process(
            "check-axiom", path, "--axiom", "subspace-independence", "--trials", "0"
        )
    p = JointDistribution(space, belief)
    coll = Collection.of({0}, {1})
    want = is_independent_on_reference(p, coll)
    code, out, err = verdict
    assert (code, err) == (0 if want.holds else 2, "")
    rows = dict(list(csv.reader(io.StringIO(out)))[1:])
    assert rows["holds"] == str(want.holds)
    assert rows["max_abs_defect"] == str(want.max_abs_defect)
    assert rows.get("witness") == (
        None if want.witness is None else " x ".join(str(t) for t in want.witness)
    )
    holds, witness = check_collection_independence_axiom_reference(p, coll)
    assert collection == (0 if holds else 2, _witness_lines(holds, witness), "")
    holds, ce = check_subspace_independence_axiom_reference(PriorSet.singleton(p), trials=0)
    assert subspace == (0 if holds else 2, _counterexample_lines(holds, ce), "")


def _drawn_belief(sizes, weights, data):
    """One explicit belief: an oracle vertex, the independent product or a
    sampled member."""
    cs = CorrelationSet(ProductSpace(sizes), [Marginal(i, ws) for i, ws in enumerate(weights)])
    rng = random.Random(data.draw(st.integers(0, 1000)))
    beliefs = [
        *sorted(oracle_vertices(sizes, weights)),
        tuple(math.prod(ws) for ws in itertools.product(*weights)),
        sample_member(cs, rng).weights,
    ]
    return data.draw(st.sampled_from(beliefs))


def _prior_text(sizes, weights, vertices):
    """Scenario text over ``sizes`` with marginal ``weights`` and a PRIOR of
    ``vertices``; subspace i is ``s<i>``, with states ``s<i>x<j>``."""
    out = ["SPACE"]
    out += [f"s{i}: {' '.join(f's{i}x{j}' for j in range(n))}" for i, n in enumerate(sizes)]
    out += ["", "MARGINALS"]
    out += [f"s{i}: {' '.join(map(str, ws))}" for i, ws in enumerate(weights)]
    out += ["", "PRIOR", *(f"vertex: {' '.join(map(str, v))}" for v in vertices)]
    return "\n".join(out) + "\n"


@st.composite
def multi_vertex_priors(draw):
    """Sizes, marginal weights and the 2-4 distinct vertices of a prior:
    oracle vertices and `sample_member` draws of a drawn scenario in which
    two subspaces have two states of positive weight (so its set is no
    single point), or a lifted prior, as `test_preferences.lifted_priors`
    draws them (one marginal on subspace 0 times oracle vertices, the
    product or draws of a set on two more subspaces, sometimes with one
    coupled draw of the whole set), under which subspace 0 is independent
    of the rest."""
    rng = random.Random(draw(st.integers(0, 10 ** 6)))
    if draw(st.booleans()):
        _, sizes, weights, _, _ = draw(small_scenarios().filter(
            lambda drawn: sum(sum(w > 0 for w in ws) >= 2 for ws in drawn[2]) >= 2
        ))
        cs = CorrelationSet(ProductSpace(sizes), [Marginal(i, ws) for i, ws in enumerate(weights)])
        members = sorted(oracle_vertices(sizes, weights))
        members += [sample_member(cs, rng).weights for _ in range(2)]
        extra = []
    else:
        size0 = draw(st.sampled_from([2, 3]))
        rest = random_correlation_set(draw(st.sampled_from([(2, 2), (2, 3), (3, 2)])), rng)
        rest_sizes, rest_weights = rest.space.subspace_sizes, [m.weights for m in rest.marginals]
        mu0 = random_marginal(0, size0, rng).weights
        sizes, weights = (size0, *rest_sizes), [mu0, *rest_weights]
        rest_members = [
            *sorted(oracle_vertices(rest_sizes, rest_weights)),
            rest.independent_product.weights,
            *(sample_member(rest, rng).weights for _ in range(2)),
        ]
        members = [tuple(a * w for a in mu0 for w in m) for m in rest_members]
        whole = CorrelationSet(ProductSpace(sizes), [Marginal(i, ws) for i, ws in enumerate(weights)])
        extra = [sample_member(whole, rng).weights] if draw(st.booleans()) else []
    members = list(dict.fromkeys(members))
    picks = draw(st.lists(st.sampled_from(range(len(members))), min_size=2, max_size=3, unique=True))
    vertices = list(dict.fromkeys([*(members[k] for k in picks), *extra]))
    return tuple(sizes), weights, vertices


@settings(max_examples=25, deadline=None)
@given(multi_vertex_priors())
def test_subspace_independence_on_multi_vertex_priors_matches_its_oracle(drawn):
    sizes, weights, vertices = drawn
    space = ProductSpace(sizes)
    prior = PriorSet(space, [JointDistribution(space, v) for v in vertices])
    holds, ce = check_subspace_independence_axiom_reference(prior, trials=0)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "drawn.scn")
        Path(path).write_text(_prior_text(sizes, weights, vertices), encoding="utf-8")
        got = _main_in_process(
            "check-axiom", path, "--axiom", "subspace-independence", "--trials", "0"
        )
    assert got == (0 if holds else 2, _counterexample_lines(holds, ce), "")


THREE_SUBSPACE_COLLECTIONS = {
    "{1},{2},{3}": Collection.of({0}, {1}, {2}),
    "{1,3},{2}": Collection.of({0, 2}, {1}),
    "{1},{2,3}": Collection.of({0}, {1, 2}),
}


@settings(max_examples=25, deadline=None)
@given(small_scenarios(n_subspaces=3), st.data())
def test_collection_axiom_matches_its_oracle_on_drawn_three_subspace_scenarios(drawn, data):
    text, sizes, weights, _, _ = drawn
    belief = _drawn_belief(sizes, weights, data)
    text += f"\nPRIOR\nvertex: {' '.join(map(str, belief))}\n"
    p = JointDistribution(ProductSpace(sizes), belief)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "drawn.scn")
        Path(path).write_text(text, encoding="utf-8")
        for spec, coll in THREE_SUBSPACE_COLLECTIONS.items():
            got = _main_in_process(
                "check-axiom", path, "--axiom", "collection-independence", "--collection", spec
            )
            holds, witness = check_collection_independence_axiom_reference(p, coll)
            assert got == (0 if holds else 2, _witness_lines(holds, witness), ""), spec


def _mi_verdict(path, *args):
    """The ``is_local_max`` cell of one in-process ``mi`` call."""
    code, out, err = _main_in_process("mi", path, "--format", "csv", *args)
    assert (code, err) == (0, ""), args
    verdicts = [row[1] for row in csv.reader(io.StringIO(out)) if row[0] == "is_local_max"]
    assert len(verdicts) == 1
    return verdicts[0]


# Successes, an exit-2 verdict, argparse errors, help (SystemExit(0)) and an
# `append` option followed by a call that must not see its values.
REUSE_SEQUENCE = [
    ["dim", CLIMATE],
    ["independence", FINANCE, "--collection", "{1},{2}", "--at", "1/4"],
    ["capacity", CLIMATE],
    ["check-axiom", CLIMATE, "--axiom", "no-such-axiom"],
    ["--help"],
    ["mi", "--help"],
    ["dim", FINANCE, "--collection", "{1},{2}", "--collection", "{1},{3}"],
    ["dim", FINANCE],
    ["frobnicate", CLIMATE],
    ["dim", CLIMATE],
]


def _outcome(capsys, argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = ("SystemExit", exc.code)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_one_parser_serves_every_call_as_a_fresh_one_would(capsys):
    build_parser.cache_clear()
    reused = [_outcome(capsys, argv) for argv in REUSE_SEQUENCE]
    assert build_parser.cache_info().misses == 1
    fresh = []
    for argv in REUSE_SEQUENCE:
        build_parser.cache_clear()
        fresh.append(_outcome(capsys, argv))
    assert reused == fresh
    codes = [code for code, _, _ in reused]
    assert codes == [0, 2, 1, 1, ("SystemExit", 0), ("SystemExit", 0), 0, 0, 1, 0]
    assert "dimension[intersection]" in reused[6][1]
    assert "dimension[" not in reused[7][1]
    assert build_parser() is build_parser()


def test_importing_the_cli_builds_no_parser():
    src = str(Path(corrpoly.__file__).resolve().parent.parent)
    probe = "import corrpoly.cli as c; print(c.build_parser.cache_info().currsize)"
    done = subprocess.run(
        [sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, timeout=60, check=True,
    )
    assert done.stdout == "0\n"
