import csv
import io
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import corrpoly
from corrpoly.cli import build_parser, main
from conftest import SCENARIO_DIR
from bruteforce import oracle_vertices

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


def test_mi_needs_at_only_where_it_reads_the_prior(capsys):
    for args in (("--vertex", "0"), ("--weights", "1/24 1/8 1/24 1/8 1/12 1/4 1/12 1/4")):
        code, out, err = run(capsys, "mi", FINANCE, *args, "--probes", "2")
        assert (code, err) == (0, ""), args
        assert "is_local_max" in out
        code, out, err = run(capsys, "mi", FINANCE, *args, "--at", "abc")
        assert code == 1 and out == "" and err.startswith("error: "), args
    code, out, err = run(capsys, "mi", FINANCE)
    assert code == 1 and out == "" and "pass --at VALUE" in err


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


@pytest.mark.parametrize("args", [
    ("evaluate", FINANCE, "--at", "1/" + "3" * 5000),
    ("dim", FINANCE, "--collection", "{" + "1" * 5000 + "},{2}"),
    ("capacity", FINANCE, "--event", "inflation=H_infl $ 42"),
])
def test_overlong_numbers_and_unknown_characters_are_errors(capsys, args):
    code, out, err = run(capsys, *args)
    assert code == 1 and out == "" and err.startswith("error: ")


def test_mi_bad_input_is_an_error(capsys):
    for args in (
        ("--vertex", "0", "--step", "abc"),
        ("--vertex", "0", "--step", "1/0"),
        ("--vertex", "0", "--step", "0"),
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
    assert code == 1 and out == "" and "trials must be nonnegative" in err
    code, out, _ = run(capsys, *args, "--trials", "0")
    assert code == 0 and out == "holds: True\n"


def test_compare_bad_family_index_is_an_error(capsys):
    code, out, err = run(
        capsys, "compare", INSURANCE, NEGLECT, "--at", "0", "--at-second", "0",
        "--family", "a:[B];2:[F]",
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
