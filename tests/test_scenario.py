import math
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corrpoly import (
    Collection,
    CorrpolyError,
    ScenarioError,
    SubspacePreference,
    check_subspace_consistency,
)
from corrpoly import scenario as sc
from bruteforce import parse_expr_reference, parse_rational_reference
from conftest import SCENARIO_DIR

F = Fraction

SCN_FILES = sorted(
    [*SCENARIO_DIR.glob("*.scn"), *(Path(__file__).resolve().parent / "fixtures").glob("*.scn")]
)


def test_fixture_round_trips_are_byte_identical():
    assert len(SCN_FILES) >= 7
    for path in SCN_FILES:
        text = path.read_text()
        assert sc.serialize(sc.loads(text)) == text, path.name


def test_readme_scenario_example_loads():
    readme = (SCENARIO_DIR.parent / "README.md").read_text()
    section = readme.split("## Scenario file format", 1)[1]
    example = section.split("```\n", 2)[1]
    scn = sc.loads(example)
    assert scn.space.subspace_names == ("inflation", "uncertainty")
    assert scn.sweep is not None and scn.sweep.param == "a"


def test_climate_fixture_contents():
    scn = sc.load(SCENARIO_DIR / "climate.scn")
    assert scn.space.subspace_sizes == (2, 2)
    assert scn.space.subspace_names == ("climate_sensitivity", "atmosphere")
    acts = scn.acts()
    assert acts["business_as_usual"].values == (F(-10), F(-10), F(0), F(0))
    assert acts["mitigation"].values == (F(-6), F(-6), F(-2), F(-2))
    assert acts["climate_engineering"].values == (F(-9), F(-1), F(-1), F(-1))
    assert scn.event("catastrophe").members == {(0, 0)}
    prior = scn.prior_set()
    subs = [SubspacePreference(i, m) for i, m in enumerate(scn.marginals)]
    assert check_subspace_consistency(prior, subs).holds


def test_finance_fixture_prior_binds_parameter():
    scn = sc.load(SCENARIO_DIR / "finance.scn")
    assert scn.sweep is not None and scn.sweep.param == "a"
    prior = scn.prior_set(param_value=F(1, 6))
    assert len(prior.vertices) == 1
    from corrpoly import independent_product

    assert prior.vertices[0].weights == independent_product(list(scn.marginals)).weights
    with pytest.raises(Exception):
        scn.prior_set()  # unbound parameter


def test_empty_acts_scenario_parses():
    text = "SPACE\na: x y\n\nMARGINALS\na: 1/2 1/2\n\nPRIOR\nfull\n"
    scn = sc.loads(text)
    assert scn.act_exprs == {}
    assert scn.prior.kind == "full"


def test_act_length_mismatch_rejected():
    text = "SPACE\na: x y\n\nMARGINALS\na: 1/2 1/2\n\nACTS\nf: 1 2 3\n"
    with pytest.raises(ScenarioError):
        sc.loads(text)


def test_float_literals_rejected():
    text = "SPACE\na: x y\n\nMARGINALS\na: 0.5 0.5\n"
    with pytest.raises(ScenarioError):
        sc.loads(text)


def test_malformed_and_inconsistent_scenarios():
    with pytest.raises(ScenarioError):
        sc.loads("MARGINALS\na: 1/2 1/2\n")  # no space
    with pytest.raises(ScenarioError):
        sc.loads("SPACE\na: x y\n\nMARGINALS\nb: 1/2 1/2\n")  # unknown subspace
    with pytest.raises(ScenarioError):
        sc.loads("SPACE\na: x y\n\nMARGINALS\na: 1/3 1/3\n")  # does not sum to one
    with pytest.raises(ScenarioError):
        sc.loads("junk before section\n")
    with pytest.raises(ScenarioError):
        sc.loads("SPACE\na: x y\n\nSPACE\nb: u v\n")  # duplicate section
    with pytest.raises(ScenarioError):
        sc.loads(
            "SPACE\na: x y\n\nMARGINALS\na: 1/2 1/2\n\nPRIOR\nnonsense\n"
        )


def test_unbound_parameter_rejected():
    text = "SPACE\na: x y\n\nMARGINALS\na: 1/2 1/2\n\nACTS\nf: a 1-a\n"
    with pytest.raises(ScenarioError):
        sc.loads(text)


def test_linear_expressions_round_trip():
    cases = ["1/3", "-2", "a", "-a", "1/6+a", "1/2-a", "3/4*a", "1/8-1/4*a", "0"]
    for text in cases:
        expr = sc.parse_expr(text)
        assert str(expr) == text
        again = sc.parse_expr(str(expr))
        assert again == expr
    assert sc.parse_expr("1/6+a").evaluate(F(1, 12)) == F(1, 4)
    with pytest.raises(Exception):
        sc.parse_expr("a+b")
    with pytest.raises(Exception):
        sc.parse_expr("0.5")


@pytest.mark.parametrize("text", ["+", "-", "--3", "3-", "+-2", "1/2+-a", "a-"])
def test_stray_signs_rejected(text):
    with pytest.raises(ScenarioError, match="stray sign"):
        sc.parse_expr(text)


def _read_expr(parse, text):
    """An equal `LinExpr` and its field types, or the error's message and line."""
    try:
        expr = parse(text, 7)
    except ScenarioError as exc:
        return str(exc), exc.line
    return expr, type(expr.const), type(expr.coeff)


def _shipped_values():
    """Every white-space separated value after a colon in the shipped files."""
    return sorted({
        token
        for path in SCN_FILES
        for raw in path.read_text().splitlines()
        for token in raw.split("#", 1)[0].partition(":")[2].split()
    })


_EXPR_ALPHABET = "0123456789/+-*ab_ \n١٣１"
_RATIONALS = st.builds(
    lambda num, den: num + den, st.sampled_from(["0", "1", "3", "36", "9" * 4400]),
    st.sampled_from(["", "/0", "/1", "/4", "/12", "/", "/" + "7" * 4400]),
)
_TERMS = st.one_of(
    _RATIONALS,
    st.sampled_from(["a", "b", "_", "a_1", "1a", "a*b", "", " "]),
    st.builds(lambda r, sp, name: r + sp + "*" + sp + name, _RATIONALS,
              st.sampled_from(["", " "]), st.sampled_from(["a", "b", "", "2"])),
)
_SIGNED_SUMS = st.builds(
    lambda lead, terms, signs: lead + "".join(s + t for s, t in zip(["", *signs], terms)),
    st.sampled_from(["", "-", "+", " - "]),
    st.lists(_TERMS, min_size=1, max_size=4),
    st.lists(st.sampled_from(["+", "-", " + ", "- ", "--", "+-"]), min_size=3, max_size=3),
)


@settings(max_examples=400, deadline=None)
@given(st.one_of(st.text(_EXPR_ALPHABET, max_size=14), _SIGNED_SUMS))
@example("-36/0")
@example("1/6+1/12")
@example("1/2 - 3*a + a/4")
@example("-" + "9" * 4400 + "/2")
@example("3*a\n")
@example("1/2\n+a")
@example("١/٢+a")
def test_parse_expr_matches_the_reference(text):
    # the one-pass integer reader returns what the per-term Fraction reader
    # returned, and fails with its message: the sign before a bad term is
    # never part of the quoted token
    assert _read_expr(sc.parse_expr, text) == _read_expr(parse_expr_reference, text)


def test_parse_expr_matches_the_reference_on_every_shipped_value():
    values = _shipped_values()
    assert {"1/4*a", "-50+c", "1/24+1/4*a", "-10", "175/8"} <= set(values)
    for text in values:
        assert _read_expr(sc.parse_expr, text) == _read_expr(parse_expr_reference, text), text


def test_second_marginals_line_for_a_subspace_rejected():
    text = "SPACE\na: x y\nb: u v\n\nMARGINALS\na: 1/2 1/2\na: 1/3 2/3\n"
    with pytest.raises(ScenarioError, match="line 7: second MARGINALS line") as exc:
        sc.loads(text)
    assert exc.value.line == 7


_B2 = "SPACE\na: x y\nb: u v\n\nMARGINALS\na: 1/2 1/2\nb: 1/2 1/2\n"
_B3 = "SPACE\na: x y\nb: u v\nc: s t\n\nMARGINALS\na: 1/2 1/2\nb: 1/2 1/2\nc: 1/2 1/2\n"


# (text, expected line or None when the error names no line, message fragment)
@pytest.mark.parametrize("text, line, message", [
    ("SPACE\n1a: x y\n\nMARGINALS\n1a: 1/2 1/2\n", 2, "must be identifiers"),
    ("SPACE\na: x y\na: u v\n\nMARGINALS\na: 1/2 1/2\n", 3, "duplicate subspace name 'a'"),
    ("SPACE\na: x y\nb: u u\n\nMARGINALS\na: 1/2 1/2\n", 3, "duplicate labels on subspace 'b'"),
    ("SPACE\na: x y\nb: u v\n\nMARGINALS\na: 1/2 1/2\n", None, "exactly one MARGINALS line"),
    ("SPACE\na: x y\n\nMARGINALS\na: 1/3 1/3 1/3\n", 5, "wrong length"),
    ("SPACE\na: x y\n\nMARGINALS\na: 1/0 1/2\n", 5, "zero denominator"),
    (_B2 + "\nACTS\nf: 1 2 3\n", 10, "needs 4 values, got 3"),
    (_B2 + "\nACTS\nf: 1 2 3 4\nf: 4 3 2 1\n", 11, "duplicate act 'f'"),
    (_B2 + "\nACTS\nf: a+b 0 0 0\n", 10, "at most one parameter"),
    (_B2 + "\nACTS\nf: a 0 0 0\ng: b 0 0 0\n", None, "multiple sweep parameters"),
    (_B2 + "\nACTS\nf: a 0 0 0\n", None, "not declared in SWEEP"),
    (_B2 + "\nEVENTS\nE: a=x\nE: b=u\n", 11, "duplicate event 'E'"),
    (_B2 + "\nEVENTS\nE: a=z\n", 10, "bad event 'E': unknown label 'z'"),
    (_B2 + "\nPRIOR\nfull\nindependent\n", 11, "extra lines after prior kind"),
    (_B3 + "\nPRIOR\npartition: {1}{2,3}\n", 12, "malformed collection spec"),
    (_B3 + "\nPRIOR\npartition: {1},{2}\n", 12, "must cover all subspaces"),
    (_B2 + "\nPRIOR\nvertex: 1/2 1/2\n", 10, "prior vertex needs 4 weights"),
    (_B2 + "\nSWEEP\nparam: 1a\ngrid: 0\n", 10, "bad parameter name '1a'"),
    (_B2 + "\nSWEEP\nparam: a\nstep: 1\n", 11, "SWEEP lines are"),
])
def test_loads_errors_name_their_line(text, line, message):
    with pytest.raises(ScenarioError, match=re.escape(message)) as exc:
        sc.loads(text)
    assert exc.value.line == line


def test_serialize_names_an_unlabeled_space():
    from corrpoly import Marginal, ProductSpace

    scn = sc.Scenario(
        ProductSpace((2, 3)),
        (Marginal(0, (F(1, 2), F(1, 2))), Marginal(1, (F(1, 3), F(1, 3), F(1, 3)))),
    )
    text = sc.serialize(scn)
    assert text == (
        "SPACE\ns0: x0 x1\ns1: x0 x1 x2\n\nMARGINALS\ns0: 1/2 1/2\ns1: 1/3 1/3 1/3\n\n"
        "PRIOR\nfull\n"
    )
    assert sc.serialize(sc.loads(text)) == text


@pytest.mark.parametrize("tail", [
    "PRIOR\npartition: {1,3},{2}\n",
    "PRIOR\nfull\n",
    "PRIOR\nindependent\n",
])
def test_serialize_round_trips_prior_kinds(tail):
    text = _B3 + "\n" + tail
    scn = sc.loads(text)
    assert sc.serialize(scn) == text
    assert sc.loads(sc.serialize(scn)) == scn


def test_event_expressions():
    scn = sc.load(SCENARIO_DIR / "finance.scn")
    space = scn.space
    both_high = sc.parse_event(space, "[H_infl,H_unc,*]")
    assert both_high.members == {(0, 0, 0), (0, 0, 1)}
    named = sc.parse_event(space, "inflation=H_infl & uncertainty=H_unc")
    assert named == both_high
    union = sc.parse_event(space, "[H_infl,*,*] | [*,H_unc,*]")
    assert len(union) == 6
    complement = sc.parse_event(space, "~inflation=H_infl")
    assert len(complement) == 4
    grouped = sc.parse_event(space, "~(inflation=H_infl | uncertainty=H_unc)")
    assert grouped.members == {(1, 1, 0), (1, 1, 1)}
    with pytest.raises(Exception):
        sc.parse_event(space, "[H_infl,H_unc]")
    with pytest.raises(Exception):
        sc.parse_event(space, "bogus=H_infl")
    for text in ("inflation=H_infl $ 42", "inflation=H_inflé", "[H_infl,H_unc,*] + 1"):
        with pytest.raises(CorrpolyError, match="unexpected character"):
            sc.parse_event(space, text)
    assert sc.parse_event(space, " \tinflation = H_infl\n") == sc.parse_event(space, "inflation=H_infl")


def test_collection_spec_parsing():
    coll = sc.parse_collection_spec("{1},{2,3}", 3)
    assert tuple(sorted(tuple(sorted(m)) for m in coll.members)) == ((0,), (1, 2))
    assert sc.format_collection_spec(coll) == "{1},{2,3}"
    with pytest.raises(Exception):
        sc.parse_collection_spec("{0},{1}", 3)  # 1-based indexing
    with pytest.raises(Exception):
        sc.parse_collection_spec("nonsense", 3)
    with pytest.raises(CorrpolyError, match="too long"):
        sc.parse_collection_spec("{" + "1" * 5000 + "},{2}", 3)


def test_family_spec_pairs_each_event_with_its_member():
    space = sc.load(SCENARIO_DIR / "finance.scn").space
    for text in ("3:[NG];1, 2:[H_infl,*]", "1,,2:[H_infl,*];3:[NG]"):
        coll, events = sc.parse_family_spec(text, space)
        assert coll.members == (frozenset({0, 1}), frozenset({2}))
        assert events[0].space.subspace_names == ("inflation", "uncertainty")
        assert events[0].members == {(0, 0), (0, 1)}
        assert events[1].space.subspace_names == ("deposit",)
        assert events[1].members == {(1,)}


@pytest.mark.parametrize("text, message", [
    ("a:[G];1:[H_infl]", "not an integer or too long"),
    ("1" * 5000 + ":[G];1:[H_infl]", "not an integer or too long"),
    ("4:[G];1:[H_infl]", "out of range"),
    ("0:[G];1:[H_infl]", "out of range"),
    ("1:[H_infl];1:[L_infl]", "pairwise disjoint"),
    ("1:[H_infl]", "at least two members"),
    ("1[H_infl];3:[G]", "family members look like"),
    ("1:[G];3:[G]", "unknown label 'G'"),
])
def test_bad_family_specs_are_errors(text, message):
    space = sc.load(SCENARIO_DIR / "finance.scn").space
    with pytest.raises(CorrpolyError, match=re.escape(message)):
        sc.parse_family_spec(text, space)


@pytest.mark.parametrize("token", ["3" * 5000, "1/" + "3" * 5000, "-" + "7" * 4400 + "/2"])
def test_rationals_beyond_the_int_digit_limit_are_scenario_errors(token):
    with pytest.raises(ScenarioError, match="too many digits"):
        sc.parse_rational(token)
    marginals = "MARGINALS\nx: " + token + " 1/2\n"
    with pytest.raises(ScenarioError, match="line 5: too many digits"):
        sc.loads("SPACE\nx: a b\n\n" + marginals)


def test_rationals_in_non_ascii_digits_are_scenario_errors():
    # int() reads any Unicode decimal digit; a scenario writes ASCII ones only
    assert sc.parse_rational("12/34") == F(6, 17)
    for token in ("١/٢", "٣", "1/٢", "１２"):
        with pytest.raises(ScenarioError, match=re.escape(f"not an exact rational: {token!r}")):
            sc.parse_rational(token)
    with pytest.raises(ScenarioError, match=re.escape("line 5: not an exact rational: '١/٢'")):
        sc.loads("SPACE\nx: a b\n\nMARGINALS\nx: ١/٢ 1/2\n")
    acts = "SPACE\nx: a b\n\nMARGINALS\nx: 1/2 1/2\n\nACTS\nf: ٣*a 0\n\nSWEEP\nparam: a\ngrid: 0\n"
    with pytest.raises(ScenarioError, match=re.escape("line 8: not an exact rational: '٣'")):
        sc.loads(acts)


@pytest.mark.parametrize("token", ["1/2\n", "3\n", "-1/4\n", "1\n/2", "1/2 "])
def test_rationals_end_at_their_last_digit(token):
    # a pattern ending in "$" also matches before a final newline, and int()
    # strips white space: the whole token must be the rational
    with pytest.raises(ScenarioError, match=re.escape(f"not an exact rational: {token!r}")):
        sc.parse_rational(token)
    with pytest.raises(ScenarioError, match=re.escape(f"not an exact rational: {token!r}")):
        parse_rational_reference(token)


def test_partition_prior_spec():
    text = (
        "SPACE\na: x y\nb: u v\nc: s t\n\n"
        "MARGINALS\na: 1/2 1/2\nb: 1/2 1/2\nc: 1/2 1/2\n\n"
        "PRIOR\npartition: {1},{2,3}\n"
    )
    scn = sc.loads(text)
    prior = scn.prior_set()
    # one component is a point, the other a segment: two product vertices
    assert len(prior.vertices) == 2
    subs = [SubspacePreference(i, m) for i, m in enumerate(scn.marginals)]
    assert check_subspace_consistency(prior, subs).holds


def test_explicit_vertex_prior_requires_valid_weights():
    text = (
        "SPACE\na: x y\nb: u v\n\n"
        "MARGINALS\na: 1/2 1/2\nb: 1/2 1/2\n\n"
        "PRIOR\nvertex: 1/2 0 0 1/2\nvertex: 0 1/2 1/2 0\n"
    )
    prior = sc.loads(text).prior_set()
    assert len(prior.vertices) == 2
    bad = text.replace("vertex: 0 1/2 1/2 0", "vertex: 1 0 0 0")
    with pytest.raises(Exception):
        sc.loads(bad).prior_set()  # vertex breaks the declared marginals


@pytest.mark.parametrize("text, value, message", [
    # finance's vertex has a negative weight outside [0, 1/3]
    ((SCENARIO_DIR / "finance.scn").read_text(), F(99),
     "prior vertex 0 at a=99: joint weights must be nonnegative"),
    ((SCENARIO_DIR / "finance.scn").read_text(), F(-1, 12),
     "prior vertex 0 at a=-1/12: joint weights must be nonnegative"),
    # a vertex without the parameter is named without a value
    (_B2 + "\nPRIOR\nvertex: 1/4 1/4 1/4 1/4\nvertex: 1/2 0 0 1/4\n", None,
     "prior vertex 1: joint weights must sum to exactly 1"),
], ids=["a=99", "a=-1/12", "constant"])
def test_prior_vertex_errors_name_the_vertex(text, value, message):
    with pytest.raises(CorrpolyError) as info:
        sc.loads(text).prior_set(param_value=value)
    assert str(info.value) == message


@pytest.mark.parametrize("text, line, header", [
    (_B2 + "\nUTILITY\nidentity\n", 9, "UTILITY"),  # the section that left the format
    (_B2 + "\nPRIOR\nfull\n\nUTILITY\ncrra rho=0.5 scale=6.0\n", 12, "UTILITY"),
    ("SPACE\na: x y\n\nMARGINAL\na: 1/2 1/2\n", 4, "MARGINAL"),
    ("PRIORS\nfull\n", 1, "PRIORS"),
])
def test_unknown_section_headers_name_their_line(text, line, header):
    with pytest.raises(ScenarioError, match=f"^line {line}: unknown section {header}$") as exc:
        sc.loads(text)
    assert exc.value.line == line


def test_sweep_section_errors():
    base = "SPACE\na: x y\n\nMARGINALS\na: 1/2 1/2\n\nSWEEP\n"
    with pytest.raises(ScenarioError):
        sc.loads(base + "param: a\n")  # missing grid
    with pytest.raises(ScenarioError):
        sc.loads(base + "grid: 1/2\n")  # missing param
    scn = sc.loads(base + "param: a\ngrid: 0 1/2 1\n")
    assert scn.sweep.grid == (F(0), F(1, 2), F(1))


# ---------------------------------------------------------------------------
# fuzzing the front end

_GRAMMAR = "0123456789/+-*=[](){},|&~:#_ abxyAB\t\n"
_texts = st.one_of(st.text(max_size=60), st.text(alphabet=_GRAMMAR, max_size=60))
_scenario_texts = st.one_of(
    _texts,
    st.lists(st.one_of(st.sampled_from(sc.SECTIONS), _texts), max_size=12).map("\n".join),
)
_FINANCE_SPACE = sc.load(SCENARIO_DIR / "finance.scn").space


@settings(max_examples=300, deadline=None)
@given(_scenario_texts)
@example("SPACE\nx: a b\nMARGINALS\nx: 1/" + "3" * 5000 + " 1/2")
def test_loads_raises_only_corrpoly_errors(text):
    try:
        sc.loads(text)
    except CorrpolyError:
        pass


@settings(max_examples=300, deadline=None)
@given(_texts, st.integers(1, 4))
@example("{1\t2},{3}", 3)  # whitespace inside an index
@example("1/" + "3" * 5000, 2)  # beyond int()'s digit limit
@example("{" + "1" * 5000 + "},{2}", 2)
@example("inflation=H_infl $ 42", 3)
@example("1:[H_infl];2,3:[H_unc,G]", 3)
def test_expression_grammars_raise_only_corrpoly_errors(text, n_subspaces):
    for parse in (
        lambda: sc.parse_expr(text),
        lambda: sc.parse_event(_FINANCE_SPACE, text),
        lambda: sc.parse_collection_spec(text, n_subspaces),
        lambda: sc.parse_family_spec(text, _FINANCE_SPACE),
    ):
        try:
            parse()
        except CorrpolyError:
            pass


@settings(max_examples=300, deadline=None)
@given(_texts)
@example("inflation=H_infl $ 42")
@example("inflation=H_infl #")
def test_events_are_made_only_of_known_characters(text):
    try:
        sc.parse_event(_FINANCE_SPACE, text)
    except CorrpolyError:
        return
    assert re.fullmatch(r"[A-Za-z0-9_=\[\],()|&~*\s]*", text)


def test_deeply_nested_event_is_an_error():
    with pytest.raises(CorrpolyError, match="nested too deeply"):
        sc.parse_event(_FINANCE_SPACE, "(" * 5000 + "inflation=H_infl" + ")" * 5000)


_names = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,3}", fullmatch=True)
_rationals = st.fractions(min_value=-3, max_value=3, max_denominator=12)


@st.composite
def canonical_scenarios(draw):
    """Canonical scenario text: at most 3 subspaces of at most 3 labels."""
    names = draw(st.lists(_names, min_size=1, max_size=3, unique=True))
    labels = [draw(st.lists(_names, min_size=1, max_size=3, unique=True)) for _ in names]
    total = math.prod(len(ls) for ls in labels)
    param = draw(st.none() | _names)

    def exprs():
        return " ".join(
            str(sc.LinExpr(draw(_rationals), draw(_rationals) if param else F(0), param))
            for _ in range(total)
        )

    out = ["SPACE", *(f"{n}: {' '.join(ls)}" for n, ls in zip(names, labels)), "", "MARGINALS"]
    for n, ls in zip(names, labels):
        counts = draw(st.lists(st.integers(0, 4), min_size=len(ls), max_size=len(ls)))
        counts[0] += 1
        out.append(f"{n}: {' '.join(str(F(c, sum(counts))) for c in counts)}")
    acts = draw(st.lists(_names, max_size=2, unique=True))
    if acts:
        out += ["", "ACTS", *(f"{a}: {exprs()}" for a in acts)]
    events = draw(st.lists(_names, max_size=2, unique=True))
    if events:
        out += ["", "EVENTS"]
        for e in events:
            atoms = []
            for _ in range(draw(st.integers(1, 3))):
                i = draw(st.integers(0, len(names) - 1))
                if draw(st.booleans()):
                    atoms.append(f"{names[i]}={draw(st.sampled_from(labels[i]))}")
                else:
                    coords = [draw(st.sampled_from(["*", *ls])) for ls in labels]
                    atoms.append(f"~[{','.join(coords)}]")
            out.append(f"{e}: {draw(st.sampled_from([' | ', ' & ', '&'])).join(atoms)}")
    out += ["", "PRIOR"]
    kinds = ["full", "independent", "vertices"] + (["partition"] if len(names) > 1 else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "partition":
        groups = draw(st.lists(st.integers(0, 1), min_size=len(names), max_size=len(names)))
        groups[0], groups[-1] = 0, 1
        coll = Collection.of(*({i for i, g in enumerate(groups) if g == k} for k in (0, 1)))
        out.append(f"partition: {sc.format_collection_spec(coll)}")
    elif kind == "vertices":
        out += [f"vertex: {exprs()}" for _ in range(draw(st.integers(1, 2)))]
    else:
        out.append(kind)
    if param:
        grid = draw(st.lists(_rationals, min_size=1, max_size=3))
        out += ["", "SWEEP", f"param: {param}", f"grid: {' '.join(map(str, grid))}"]
    return "\n".join(out) + "\n"


@settings(max_examples=150, deadline=None)
@given(canonical_scenarios())
def test_canonical_scenarios_round_trip(text):
    assert sc.serialize(sc.loads(text)) == text


@st.composite
def unlabeled_scenarios(draw):
    """Scenarios built in Python on a space without names or labels."""
    from corrpoly import Marginal, ProductSpace

    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    marginals = []
    for i, size in enumerate(sizes):
        counts = draw(st.lists(st.integers(0, 4), min_size=size, max_size=size))
        counts[0] += 1
        marginals.append(Marginal(i, tuple(F(c, sum(counts)) for c in counts)))
    total = math.prod(sizes)
    acts = draw(st.lists(_names, max_size=2, unique=True))
    act_exprs = {
        a: tuple(sc.LinExpr(draw(_rationals)) for _ in range(total)) for a in acts
    }
    prior = sc.PriorSpec(draw(st.sampled_from(["full", "independent"])))
    return sc.Scenario(ProductSpace(tuple(sizes)), tuple(marginals), act_exprs, prior=prior)


@settings(max_examples=100, deadline=None)
@given(unlabeled_scenarios())
def test_unlabeled_scenarios_round_trip(scn):
    text = sc.serialize(scn)
    loaded = sc.loads(text)
    assert sc.serialize(loaded) == text
    assert loaded.space.subspace_sizes == scn.space.subspace_sizes
    assert loaded.marginals == scn.marginals
    assert (loaded.act_exprs, loaded.prior) == (scn.act_exprs, scn.prior)
