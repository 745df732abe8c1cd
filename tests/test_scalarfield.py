import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geodrev.scalarfield import (
    Binary,
    Const,
    EvalDomainError,
    ParseError,
    ScalarField,
    UnknownVariableError,
    Var,
    fd_check,
    parse_expr,
    to_text,
)

from conftest import CORPUS_PROFILES


class TestParser:
    def test_simple_sum(self):
        tree = parse_expr("1+s", ("s",))
        assert tree == Binary("+", Const(1.0), Var("s"))

    def test_nested_division(self):
        tree = parse_expr("1/(1-s)", ("s",))
        assert tree == Binary("/", Const(1.0), Binary("-", Const(1.0), Var("s")))

    def test_unclosed_function_reports_offset(self):
        with pytest.raises(ParseError) as info:
            parse_expr("sin(", ("s",))
        assert info.value.offset == 4

    def test_unknown_identifier(self):
        with pytest.raises(UnknownVariableError):
            parse_expr("1 + q", ("s",))

    def test_precedence(self):
        f = ScalarField.parse("1 + 2*3", ())
        assert f.eval({}) == 7.0
        f = ScalarField.parse("2 * 3^2", ())
        assert f.eval({}) == 18.0
        f = ScalarField.parse("-s^2", ("s",))
        assert f(s=2.0) == -4.0
        f = ScalarField.parse("2 - 3 - 4", ())
        assert f.eval({}) == -5.0
        f = ScalarField.parse("12 / 3 / 2", ())
        assert f.eval({}) == 2.0

    def test_negative_and_parenthesized_exponents(self):
        f = ScalarField.parse("s^-1", ("s",))
        assert f(s=4.0) == 0.25
        f = ScalarField.parse("s^(-2)", ("s",))
        assert f(s=2.0) == 0.25

    def test_non_integer_exponent_rejected(self):
        with pytest.raises(ParseError):
            parse_expr("s^s", ("s",))
        with pytest.raises(ParseError):
            parse_expr("s^1.5", ("s",))

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse_expr("   ", ("s",))

    def test_scientific_notation(self):
        f = ScalarField.parse("1e-3 + 2.5E2", ())
        assert f.eval({}) == 0.001 + 250.0


class TestEval:
    def test_arithmetic(self):
        f = ScalarField.parse("1+s", ("s",))
        assert f(s=0.1) == pytest.approx(1.1, abs=1e-15)

    def test_pole_raises(self):
        f = ScalarField.parse("1/(1-s)", ("s",))
        with pytest.raises(EvalDomainError):
            f(s=1.0)

    def test_exp_of_zero_product(self):
        f = ScalarField.parse("exp(0 * x1)", ("x1",))
        for v in (-3.0, 0.0, 17.5):
            assert f(x1=v) == 1.0

    def test_ln_and_sqrt_domains(self):
        assert ScalarField.parse("ln(s)", ("s",))(s=math.e) == pytest.approx(1.0)
        with pytest.raises(EvalDomainError):
            ScalarField.parse("ln(s)", ("s",))(s=0.0)
        with pytest.raises(EvalDomainError):
            ScalarField.parse("sqrt(s)", ("s",))(s=-1.0)

    def test_missing_binding_rejected(self):
        f = ScalarField.parse("x1 + x2", ("x1", "x2"))
        with pytest.raises(Exception):
            f.eval({"x1": 1.0})

    def test_array_eval_matches_scalar(self):
        f = ScalarField.parse("sin(s) * exp(s) / (2 + s^2)", ("s",))
        grid = np.linspace(-2.0, 2.0, 41)
        batch = f(s=grid)
        singles = np.array([f(s=float(v)) for v in grid])
        np.testing.assert_allclose(batch, singles, rtol=0, atol=0)

    def test_array_eval_domain_error(self):
        f = ScalarField.parse("1/(1-s)", ("s",))
        with pytest.raises(EvalDomainError):
            f(s=np.array([0.0, 1.0, 2.0]))

    def test_domain_error_names_first_failing_point(self):
        f = ScalarField.parse("sqrt(x2) + 1/(x1 - x2)", ("x1", "x2"))
        grid = {"x1": np.array([0.0, 1.0, 2.0])[:, None], "x2": np.array([2.0, 1.0])[None, :]}
        with pytest.raises(EvalDomainError, match=r"^division by zero at x1=1\.0, x2=1\.0$"):
            f.eval(grid)
        # the failing subexpression depends on x2 alone, so x1 is left out
        with pytest.raises(EvalDomainError, match=r"^sqrt of negative value at x2=-1\.0$"):
            f(x1=np.array([3.0, 4.0]), x2=-1.0)


class TestDiff:
    def test_linear(self):
        d = ScalarField.parse("1+s", ("s",)).diff("s")
        assert d(s=0.7) == 1.0

    def test_reciprocal(self):
        d = ScalarField.parse("1/(1-s)", ("s",)).diff("s")
        assert d(s=0.5) == pytest.approx(4.0, rel=1e-14)

    def test_second_derivative_of_cubic(self):
        f = ScalarField.parse("s^3", ("s",))
        d2 = f.diff("s").diff("s")
        assert d2(s=0.2) == pytest.approx(1.2, rel=1e-14)

    def test_undeclared_variable_rejected(self):
        with pytest.raises(Exception):
            ScalarField.parse("s", ("s",)).diff("t")

    def test_diff_cache_returns_same_object(self):
        f = ScalarField.parse("sin(s)", ("s",))
        assert f.diff("s") is f.diff("s")


class TestFdCheck:
    def test_quadratic(self):
        f = ScalarField.parse("s^2", ("s",))
        assert fd_check(f, "s", {"s": 1.0}, 1e-5) == pytest.approx(2.0, abs=1e-9)

    def test_sine(self):
        f = ScalarField.parse("sin(s)", ("s",))
        assert fd_check(f, "s", {"s": 0.0}, 1e-5) == pytest.approx(1.0, abs=1e-10)

    def test_reciprocal_against_diff(self):
        f = ScalarField.parse("1/(1-s)", ("s",))
        sym = f.diff("s")(s=0.5)
        num = fd_check(f, "s", {"s": 0.5}, 1e-5)
        assert num == pytest.approx(sym, abs=1e-6)
        assert sym == pytest.approx(4.0, rel=1e-13)


@pytest.mark.parametrize("name", sorted(CORPUS_PROFILES))
def test_diff_agrees_with_central_differences(name, rng):
    text, b0 = CORPUS_PROFILES[name]
    f = ScalarField.parse(text, ("s",))
    d = f.diff("s")
    interior = 0.8 * b0
    for s in rng.uniform(-interior, interior, 100):
        sym = d(s=float(s))
        num = fd_check(f, "s", {"s": float(s)}, 1e-6)
        assert abs(sym - num) <= 1e-6 * (1.0 + abs(sym))


@settings(max_examples=100, deadline=None)
@given(
    a=st.floats(-5, 5, allow_nan=False),
    b=st.floats(-5, 5, allow_nan=False),
    s=st.floats(-0.7, 0.7, allow_nan=False),
)
def test_diff_is_linear(a, b, s):
    f = ScalarField.parse("sin(s) * s", ("s",))
    g = ScalarField.parse("exp(s) + s^3", ("s",))
    combo = ScalarField.parse(f"{a!r} * (sin(s) * s) + {b!r} * (exp(s) + s^3)", ("s",))
    lhs = combo.diff("s")(s=s)
    rhs = a * f.diff("s")(s=s) + b * g.diff("s")(s=s)
    assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(lhs) + abs(rhs))


@pytest.mark.parametrize(
    "text,variables",
    [
        ("1 + s^2 - 0.3*s", ("s",)),
        ("exp(s^2) - 0.5*s", ("s",)),
        ("1/(1-s)", ("s",)),
        ("-ln(1 + (x1^2 + x2^2)/4)", ("x1", "x2")),
        ("sin(x1)*cos(x2) + sqrt(2 + x1)", ("x1", "x2")),
        ("x1^(-2) + 2^3", ("x1",)),
    ],
)
def test_parse_print_parse_round_trip(text, variables, rng):
    f = ScalarField.parse(text, variables)
    printed = to_text(f.expr)
    g = ScalarField.parse(printed, variables)
    for _ in range(100):
        point = {v: float(rng.uniform(0.1, 0.7)) for v in variables}
        left = f.eval(point)
        right = g.eval(point)
        assert abs(left - right) <= 1e-15 * (1.0 + abs(left))


def test_diff_cache_is_thread_safe():
    from concurrent.futures import ThreadPoolExecutor

    f = ScalarField.parse("sin(s) * exp(s) / (1 + s^2)", ("s",))
    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(lambda _: f.diff("s"), range(64)))
    assert all(r is results[0] for r in results)
    assert results[0](s=0.3) == pytest.approx(fd_check(f, "s", {"s": 0.3}, 1e-6), abs=1e-8)


def test_derivative_round_trips_through_printer(rng):
    f = ScalarField.parse("1/(1-s) + sin(s)*exp(s)", ("s",))
    d2 = f.diff("s").diff("s")
    g = ScalarField.parse(to_text(d2.expr), ("s",))
    for s in rng.uniform(-0.6, 0.6, 50):
        assert g(s=float(s)) == pytest.approx(d2(s=float(s)), rel=1e-14, abs=1e-14)
