"""The value contract of bohrlab's record types: the four operator kinds, the
solver's and the sharpness layer's results, and the one corpus member.

Each is immutable, equal only to a record of its own type with equal fields,
hashed by those fields (the ``_weights`` cache key and the baseline test
``problem == ClassicalBohr()`` rely on it) and printed as
``Type(field=value, ...)``, which error messages and test ids show.  A
report's keys follow the record's field order."""

import copy
import json
import pickle

import numpy as np
import pytest

import bohrlab as bl
from bohrlab import cli, operators
from bohrlab.errors import ParameterDomainError

# (record, its repr): one of every record type.
RECORDS = [
    (bl.CesaroBeta(2), "CesaroBeta(beta=2.0)"),
    (bl.Bernardi(1, 0), "Bernardi(gamma=1.0)"),
    (bl.ClassicalBohr(), "ClassicalBohr()"),
    (bl.CBeta(2.0), "Shifted(family=CesaroBeta(beta=2.0), s=1, d=1)"),
    (bl.PrimitiveI(), "Shifted(family=Bernardi(gamma=1.0), s=1, d=0)"),
    (bl.Blaschke((0.5,)), "Blaschke(zeros=((0.5+0j),), scale=(1+0j))"),
    (
        bl.RadiusResult(0.5, -0.0, (0.25, 0.75), 3),
        "RadiusResult(root=0.5, residual=-0.0, bracket=(0.25, 0.75), iterations=3)",
    ),
    (bl.CurveRow(1.0, 0.5, 0.0), "CurveRow(parameter=1.0, root=0.5, residual=0.0)"),
    (
        bl.Decomposition(1.0, 0.25, 0.125, 0.875),
        "Decomposition(bound_term=1.0, deficit_term=0.25, remainder=0.125, total=0.875)",
    ),
    (
        bl.ViolationReport(None, 0.5, 1.0, -0.5, 40),
        "ViolationReport(witness=None, majorant=0.5, bound=1.0, margin=-0.5, attempts=40)",
    ),
]
RECORD_IDS = [text.split("(")[0] for _, text in RECORDS]


@pytest.mark.parametrize("record,text", RECORDS, ids=RECORD_IDS)
def test_repr_names_every_field(record, text):
    assert repr(record) == text


@pytest.mark.parametrize("record,text", RECORDS, ids=RECORD_IDS)
def test_fields_cannot_be_assigned_or_deleted(record, text):
    fields = text[text.index("(") + 1 : -1]
    name = fields.split("=")[0] if fields else "s"  # ClassicalBohr's s is a class constant
    with pytest.raises(AttributeError):
        setattr(record, name, 0)
    with pytest.raises(AttributeError):
        delattr(record, name)
    assert repr(record) == text


@pytest.mark.parametrize("record,text", RECORDS, ids=RECORD_IDS)
def test_copies_and_pickles_are_equal_records(record, text):
    for clone in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(clone) is type(record) and clone == record and repr(clone) == text


class TestEquality:
    def test_integer_parameter_is_the_float_family(self):
        assert bl.CesaroBeta(1) == bl.CesaroBeta(1.0)
        assert hash(bl.CesaroBeta(1)) == hash(bl.CesaroBeta(1.0))
        assert type(bl.CesaroBeta(1).beta) is float

    def test_named_operator_is_its_family(self):
        assert bl.Libera() == bl.Bernardi(1.0, 0)
        assert hash(bl.Libera()) == hash(bl.Bernardi(1.0, 0))
        assert bl.Alexander() == bl.Bernardi(0, 1)
        assert bl.CBeta(1) == bl.Shifted(bl.CesaroBeta(1.0), 1, 1)
        assert hash(bl.CBeta(1)) == hash(bl.Shifted(bl.CesaroBeta(1.0), 1, 1))

    def test_families_of_different_types_differ(self):
        assert bl.CesaroBeta(1.0) != bl.Bernardi(1.0, 0)
        assert bl.Bernardi(1.0, 0) != bl.PrimitiveI()
        assert bl.CBeta(1.0) != bl.Shifted(bl.CesaroBeta(1.0), 1, 0)

    def test_a_record_is_not_its_field_tuple(self):
        assert bl.CesaroBeta(1.0) != (1.0,)
        assert bl.Bernardi(1.0, 0) != (1.0, 0)
        assert bl.ClassicalBohr() != ()
        assert bl.CurveRow(1.0, 0.5, 0.0) != (1.0, 0.5, 0.0)

    def test_baseline_is_recognised_by_equality(self):
        from bohrlab.sharpness import BOHR_BASELINE_RADIUS, critical_radius

        problem = bl.ClassicalBohr()
        assert problem == bl.ClassicalBohr()
        assert hash(problem) == hash(bl.ClassicalBohr())
        assert problem != bl.CesaroBeta(1.0)
        assert critical_radius(problem) == BOHR_BASELINE_RADIUS

    def test_corpus_members_compare_by_zeros_and_scale(self):
        assert bl.Blaschke([0.5], 1) == bl.Blaschke((0.5 + 0j,), 1 + 0j)
        assert bl.Blaschke((0.5,)) != bl.Blaschke((0.5,), -1)


def test_equal_family_hits_the_weight_cache():
    operators._weights(bl.CesaroBeta(1.5), 0.4375, 1e-12)
    hits = operators._weights.cache_info().hits
    # A freshly built, equal family is the same cache key.
    operators._weights(bl.CesaroBeta(1.5), 0.4375, 1e-12)
    assert operators._weights.cache_info().hits == hits + 1


@pytest.mark.parametrize("gamma,m", [(0.0, 1), (-0.5, 1), (2.0, 1), (-2.85, 3), (1.0, 52)])
def test_origin_zeros_are_a_shift_of_the_one_parameter_family(gamma, m):
    kind = bl.Bernardi(gamma, m)
    assert kind == bl.Shifted(bl.Bernardi(m + gamma), m, m)
    assert hash(kind) == hash(bl.Shifted(bl.Bernardi(m + gamma), m, m))
    assert (kind.family, kind.s, kind.d) == (bl.Bernardi(m + gamma, 0), m, m)
    # shifts compose
    assert bl.Shifted(kind, 1, 1) == bl.Shifted(bl.Bernardi(m + gamma), m + 1, m + 1)
    assert bl.Shifted(kind, 2, 0) == bl.Shifted(bl.Bernardi(m + gamma), m + 2, m)


def test_alexander_and_libera_share_one_weight_vector():
    assert bl.Alexander() == bl.Shifted(bl.Libera(), 1, 1)
    assert hash(bl.Alexander().family) == hash(bl.Libera())
    r = 0.40625
    libera = operators._weights(bl.Libera(), r, 1e-12)
    hits = operators._weights.cache_info().hits
    row = np.zeros(80, dtype=complex)
    row[1] = 1.0
    assert bl.majorant_value(bl.Alexander(), row, r) == r * libera[0]
    assert operators._weights.cache_info().hits == hits + 1


# (constructor arguments, the first check each breaks): the checks run in order.
REFUSED = [
    (lambda: bl.CesaroBeta(0), "beta must be positive and finite, got 0.0"),
    (lambda: bl.CesaroBeta(float("nan")), "beta must be positive and finite, got nan"),
    (lambda: bl.Bernardi(float("nan"), -1), "m must be nonnegative, got -1"),
    (lambda: bl.Bernardi(float("inf"), 0), "gamma must be finite, got inf"),
    (lambda: bl.Bernardi(-1, 1), "gamma must exceed -m, got gamma=-1.0, m=1"),
    (lambda: bl.Shifted(bl.CesaroBeta(1), 0, 1), "need 0 <= d <= s, got s=0, d=1"),
    (lambda: bl.Blaschke((1.0,), 2), "Blaschke zero must lie in the disk, got |(1+0j)|"),
    (lambda: bl.Blaschke((0.5,), 2), "|scale| must be <= 1, got 2.0"),
]


@pytest.mark.parametrize("build,message", REFUSED, ids=[m for _, m in REFUSED])
def test_constructor_refuses_with_the_first_failed_check(build, message):
    with pytest.raises(ParameterDomainError) as info:
        build()
    assert str(info.value) == message


@pytest.mark.parametrize("gamma,m", [(1.0, 10**400), (1e308, 10**308)],
                         ids=["m-past-the-float-range", "sum-past-the-float-range"])
def test_m_plus_gamma_past_the_float_range_is_refused(gamma, m):
    # 10**400 cannot convert to a float; 10**308 + 1e308 rounds to inf
    with pytest.raises(ParameterDomainError) as info:
        bl.Bernardi(gamma, m)
    assert str(info.value) == f"m+gamma must be finite, got m={m}, gamma={gamma}"


def _report(tmp_path, *argv):
    out = tmp_path / "report.json"
    assert cli.main([*argv, "--out", str(out)]) == 0
    return json.loads(out.read_text())["results"]


def _as_reported(record):
    """The record's fields as the JSON report writes them."""
    return json.loads(json.dumps(record._asdict()))


def test_radius_report_is_the_result_record(tmp_path):
    results = _report(tmp_path, "radius", "--op", "cesaro", "--beta", "1")
    record = bl.solve_radius(bl.CesaroBeta(1.0), cli.DEFAULT_SOLVER_TOL)
    assert list(record._asdict()) == ["root", "residual", "bracket", "iterations"]
    assert list(results) == list(record._asdict())
    assert results == _as_reported(record)


def test_witness_report_is_the_violation_record(tmp_path):
    results = _report(tmp_path, "verify", "--op", "libera", "--r-mode", "above", "--r", "0.6")
    record = bl.violation_search(bl.Libera(), 0.6, cli.DEFAULT_MAJORANT_EPS)
    assert list(record._asdict()) == ["witness", "majorant", "bound", "margin", "attempts"]
    assert list(results) == list(record._asdict())
    assert results == _as_reported(record)


def test_sharpness_row_holds_the_decomposition_record(tmp_path):
    rows = _report(
        tmp_path, "sharpness", "--op", "cesaro", "--beta", "1", "--r", "0.5", "--a-values", "0.5"
    )["rows"]
    record = bl.decompositions(bl.CesaroBeta(1.0), [0.5], 0.5, cli.DEFAULT_MAJORANT_EPS)[0]
    names = list(record._asdict())
    assert names == ["bound_term", "deficit_term", "remainder", "total"]
    assert list(rows[0]) == ["a", *names, "reconstruction_error", "remainder_ratio"]
    assert {name: rows[0][name] for name in names} == _as_reported(record)


def test_records_are_built_by_position_or_by_field_name():
    assert bl.CurveRow(1.0, 0.5, 0.0) == bl.CurveRow(residual=0.0, parameter=1.0, root=0.5)
    assert bl.Bernardi(m=1, gamma=0) == bl.Alexander()
    assert bl.Blaschke(zeros=(0.5,)) == bl.Blaschke((0.5,), 1)


@pytest.mark.parametrize(
    "args,named",
    [((1.0, 0.5), {}), ((1.0, 0.5, 0.0, 1.0), {}), ((1.0, 0.5, 0.0), {"root": 0.5}),
     ((1.0, 0.5), {"residual": 0.0, "order": 3})],
    ids=["missing", "extra", "twice", "unknown"],
)
def test_wrong_fields_are_refused(args, named):
    with pytest.raises(TypeError, match="CurveRow"):
        bl.CurveRow(*args, **named)
