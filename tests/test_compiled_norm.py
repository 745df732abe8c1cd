"""The geodesic oracle's compiled norm against the tree walk it replaces.

``geodesics._norm_batch`` runs a straight-line program that the emitter of
``geodrev.scalarfield`` builds once per bundle; ``_norm_walk`` walks nu, b1,
b2 and phi.  The program must give the walk's bits, and where it fails a
check the walk must run again and name the same point.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geodrev import IsothermalMetric, LinearForm, MetricBundle, PhiFunction, Rectangle, geodesics
from geodrev.geodesics import _STENCIL, _integrate_batch, _norm_batch, _norm_walk, _oracle
from geodrev.metric import BASE_VARS, PHI_VAR
from geodrev.reversibility import classify
from geodrev.scalarfield import (
    Binary,
    Const,
    EvalDomainError,
    ScalarField,
    Var,
    _Emitter,
    _Fallback,
    parse_expr,
)

from conftest import scan_table
from oracles import reversibility_error
from test_cli import _expressions

DOMAIN = Rectangle(-1.0, 1.0, -1.0, 1.0)

# Base points and tangent vectors; the first sits on x1 = x2 = 0.
STATES = np.array([
    [0.0, 0.0, 0.5, 0.0],
    [0.1, -0.2, 0.6, 0.3],
    [-0.7, 0.4, -0.2, 1.1],
    [0.9, 0.9, 0.3, -0.3],
    [-1.0, -1.0, -1.0, 0.2],
    [0.5, -0.5, 0.0, 2.0],
    [0.25, 0.75, 1.5, 1.5],
    [-0.3, 0.0, -0.4, -0.9],
])


def _bundle(nu, b1, b2, phi, b0=0.9) -> MetricBundle:
    """A bundle over DOMAIN from texts or from hand-built trees."""
    def field(e, variables):
        return ScalarField.parse(e, variables) if isinstance(e, str) else ScalarField(e, variables)

    metric = IsothermalMetric(field(nu, BASE_VARS), DOMAIN)
    form = LinearForm(field(b1, BASE_VARS), field(b2, BASE_VARS))
    return MetricBundle(metric, form, PhiFunction(field(phi, (PHI_VAR,)), b0))


def _stencil_columns(rows: int):
    """The four columns of the spray's stencil around the first ``rows`` states."""
    states = STATES[:rows]
    steps = np.column_stack([np.full(rows, 2e-5), np.full(rows, 2e-5),
                             np.full(rows, 1e-4), np.full(rows, 1e-4)])
    pts = (states[:, None, :] + _STENCIL * steps[:, None, :]).reshape(-1, 4)
    return tuple(pts[:, i] for i in range(4))


def _value(value):
    return type(value), np.asarray(value).tobytes()


def _outcome(fn, *args):
    """The type and bytes of what fn returns, or the type and text of what it raises."""
    try:
        return _value(fn(*args))
    except Exception as exc:  # the exception is the outcome
        return type(exc), str(exc)


def _assert_program_matches_walk(bundle, args):
    """The program gives the walk's value or declines; _norm_batch gives the walk's outcome."""
    want = _outcome(_norm_walk, bundle, *args)
    try:
        assert _value(_oracle(bundle).norm(*args)) == want
    except (_Fallback, FloatingPointError):
        pass  # _norm_batch reruns the walk
    assert _outcome(_norm_batch, bundle, *args) == want
    return want


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    nu=_expressions(BASE_VARS),
    b1=_expressions(BASE_VARS),
    b2=_expressions(BASE_VARS),
    phi=_expressions((PHI_VAR,)),
    rows=st.sampled_from([1, 8]),
)
def test_compiled_norm_equals_the_walk(nu, b1, b2, phi, rows):
    bundle = _bundle(nu, b1, b2, phi)
    columns = _stencil_columns(rows)
    _assert_program_matches_walk(bundle, columns)
    # Python floats, as the probe passes the relaunch's start
    _assert_program_matches_walk(bundle, tuple(float(c[0]) for c in columns))


FLAT = ("0", "0.2", "0.1", "1 + s")


@pytest.mark.parametrize(
    "field, text, message",
    [
        ("nu", "ln(x1)", "ln of non-positive value at x1=0.0, x2=0.0"),
        ("b1", "0.1*sqrt(x2 + 0.5)", "sqrt of negative value at x1=-1.0, x2=-1.0"),
        ("b2", "0.1/(x1 - x2)", "division by zero at x1=0.0, x2=0.0"),
        ("b2", "x1/0", "division by zero at x1=0.0, x2=0.0"),
        ("nu", "0.1*x1^(-2)", "zero raised to a negative power at x1=0.0, x2=0.0"),
        ("nu", "(1e10*(x1 - 1))^400", "integer power overflows at x1=0.0, x2=0.0"),
        ("phi", "1 + s + ln(1 - 50*s)", "ln of non-positive value at s="),
    ],
)
def test_a_failing_check_names_the_walks_point(field, text, message):
    texts = dict(zip(("nu", "b1", "b2", "phi"), FLAT), **{field: text})
    bundle = _bundle(**texts)
    columns = _stencil_columns(8)
    with pytest.raises((_Fallback, FloatingPointError)):
        _oracle(bundle).norm(*columns)
    kind, text_raised = _assert_program_matches_walk(bundle, columns)
    assert kind is EvalDomainError
    assert text_raised.startswith(message)


def test_an_overflowing_exp_returns_the_walks_inf():
    # The power puts the whole program under np.errstate(over="raise"), so
    # exp(exp(10)) raises there; the walk lets it overflow to inf.
    bundle = _bundle("exp(exp(10*x1)) + 0.1*x2^2", *FLAT[1:])
    columns = _stencil_columns(8)
    with pytest.raises(FloatingPointError), np.errstate(over="ignore"):
        _oracle(bundle).norm(*columns)
    with np.errstate(over="ignore"):
        values = _norm_batch(bundle, *columns)
        assert values.tobytes() == _norm_walk(bundle, *columns).tobytes()
    assert np.isinf(values).any() and not np.isnan(values).any()


def _harmless_overflow_bundle(nu="0.1*x2^2") -> MetricBundle:
    # exp(800*x1) overflows past x1 ~ 0.887, harmlessly: x1/inf = 0
    b1 = "0.1 + 0.1*x1/exp(800*x1)"
    return _bundle(nu, b1, "0.1", PhiFunction.randers(0.9).phi.expr)


def _count_walks(monkeypatch) -> list:
    calls = []
    walk = geodesics._norm_walk

    def counted(*args):
        calls.append(args)
        return walk(*args)

    monkeypatch.setattr(geodesics, "_norm_walk", counted)
    return calls


def test_a_harmless_overflow_rebuilds_the_program_once(monkeypatch):
    # exp(800*x1) overflows on every stencil past x1 ~ 0.887: with the whole
    # program under one errstate, each of the probe's 402 norm calls would
    # run the walk as well.
    bundle = _harmless_overflow_bundle()
    walks = _count_walks(monkeypatch)
    with np.errstate(over="ignore"):
        error = reversibility_error(bundle, (0.95, 0.0), (0.0, 0.5), 0.05, 1e-3)
    assert error == 2.0630709753266382e-09
    assert len(walks) <= 1
    assert _oracle(bundle).each_power


def test_a_bundle_that_never_overflows_keeps_its_program():
    bundle = _bundle("0.1*x2^2", "0.2", "0.1", "1 + s")
    program = _oracle(bundle).norm
    _integrate_batch(bundle, [(0.0, 0.0)], [(0.5, 0.0)], [0.01], 1e-3)
    assert _oracle(bundle).norm is program and not _oracle(bundle).each_power


def test_a_power_that_overflows_after_the_rebuild_names_the_walks_point(monkeypatch):
    # (1e10*x2)^40 overflows near x2 = 0.9 and is finite near x2 = 0
    bundle = _harmless_overflow_bundle("0.1*x2^2 + 1e-300*(1e10*x2)^40")
    x1, x2, y1, y2 = _stencil_columns(1)
    with np.errstate(over="ignore"):
        first = _norm_batch(bundle, x1 + 0.95, x2, y1, y2)
        assert first.tobytes() == _norm_walk(bundle, x1 + 0.95, x2, y1, y2).tobytes()
        program = _oracle(bundle).norm
        assert _oracle(bundle).each_power
        walks = _count_walks(monkeypatch)
        kind, text = _assert_program_matches_walk(bundle, (x1 + 0.95, x2 + 0.9, y1, y2))
        assert _oracle(bundle).norm is program  # rebuilt once, on the first overflow
    assert kind is EvalDomainError
    assert text.startswith("integer power overflows at x1=0.95")
    assert len(walks) == 1  # _norm_batch ran the walk, which named the point


@pytest.mark.parametrize("nu", ["0", "0.3", "-2.5", "1e-300", "700", "800", "-800"])
def test_a_constant_nu(nu):
    # exp(nu) of a constant, finite, overflowing at 800 or underflowing to 0 at -800
    bundle = _bundle(nu, "0.2 + 0.1*x1", "0.1", "1 / (1 - s)")
    columns = _stencil_columns(8)
    with np.errstate(all="ignore"):
        _assert_program_matches_walk(bundle, columns)
        _assert_program_matches_walk(bundle, tuple(float(c[0]) for c in columns))


def test_signed_zero_inf_and_nan_constants():
    x1, x2 = Var("x1"), Var("x2")
    nu = Binary("+", Binary("*", Const(-0.0), x1), Binary("/", x2, Const(math.inf)))
    b1 = Binary("+", Const(0.2), Binary("*", Const(0.0), x1))
    b2 = Binary("*", Const(math.nan), x2)
    bundle = _bundle(nu, b1, b2, "1 + s")
    columns = _stencil_columns(8)
    values = _oracle(bundle).norm(*columns)
    assert values.tobytes() == _norm_walk(bundle, *columns).tobytes()
    assert np.isnan(values).all()

    emitter = _Emitter(("x1",))
    negative = emitter.emit(Binary("*", Const(-0.0), x1), {"x1": "x1"})
    positive = emitter.emit(Binary("*", Const(0.0), x1), {"x1": "x1"})
    assert negative != positive
    assert not any(word in line for line in emitter.lines for word in ("inf", "nan", "0.0"))
    program = emitter.compile(emitter.binary("-", negative, positive))
    assert math.copysign(1.0, program(2.0)) == -1.0  # -0.0 - 0.0


def test_equal_subtrees_are_emitted_once():
    # two parses of sin(x1): equal trees, distinct objects
    e = Binary("+", parse_expr("sin(x1)", BASE_VARS), parse_expr("sin(x1)", BASE_VARS))
    emitter = _Emitter(("x1",))
    result = emitter.emit(e, {"x1": "x1"})
    assert emitter.lines == ["t0 = sin(x1)", "t1 = t0 + t0"]
    assert emitter.compile(result)(0.5) == math.sin(0.5) + math.sin(0.5)


def test_the_program_is_built_once_per_bundle_and_only_by_geodesics():
    bundle = _bundle("0.1*x1*x2", "0.2", "0.1", "1 + s")
    bundle.validate()
    classify(bundle)
    scan_table(bundle, "residual")
    assert bundle._oracle is None
    _integrate_batch(bundle, [(0.0, 0.0)], [(0.5, 0.0)], [0.01], 1e-3)
    oracle = bundle._oracle
    assert oracle is not None and oracle.hx == 2e-5
    _integrate_batch(bundle, [(0.0, 0.0)], [(0.5, 0.0)], [0.01], 1e-3)
    assert bundle._oracle is oracle
