import hashlib
import math
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import geodrev.scalarfield as scalarfield
from geodrev.metric import PhiFunction
from geodrev.scalarfield import (
    Binary,
    Const,
    EvalDomainError,
    ExpressionError,
    ParseError,
    Power,
    ScalarField,
    Unary,
    UnknownVariableError,
    Var,
    diff_expr,
    eval_expr,
    parse_expr,
    substitute,
    to_text,
)

from conftest import (
    CORPUS_PROFILES,
    make_class_a_bundle,
    make_class_b_bundle,
    make_even_bundle,
    make_irreversible_bundle,
)
from oracles import fd_check, reverse_phi


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


def test_derivative_round_trips_through_printer(rng):
    f = ScalarField.parse("1/(1-s) + sin(s)*exp(s)", ("s",))
    d2 = f.diff("s").diff("s")
    g = ScalarField.parse(to_text(d2.expr), ("s",))
    for s in rng.uniform(-0.6, 0.6, 50):
        assert g(s=float(s)) == pytest.approx(d2(s=float(s)), rel=1e-14, abs=1e-14)


class TestConstantFolding:
    """Constants fold to what Python's arithmetic returns; where it raises,
    the node is kept so that evaluation reports the error."""

    @pytest.mark.parametrize(
        "text,value",
        [("2^3 - 1", 7.0), ("ln(1)", 0.0), ("sqrt(4) / 2", 1.0), ("1e200 * 1e200", math.inf)],
    )
    def test_representable_results_fold(self, text, value):
        assert parse_expr(text, ()) == Const(value)

    @pytest.mark.parametrize(
        "text,node",
        [
            ("1/0", Binary("/", Const(1.0), Const(0.0))),
            ("0^(-1)", Power(Const(0.0), -1)),
            ("ln(0)", Unary("ln", Const(0.0))),
            ("sqrt(-1)", Unary("sqrt", Const(-1.0))),
            ("exp(1000)", Unary("exp", Const(1000.0))),
            ("1e200^2", Power(Const(1e200), 2)),
            ("sin(1e400)", Unary("sin", Const(math.inf))),
        ],
    )
    def test_raising_folds_keep_the_node(self, text, node):
        assert parse_expr(text, ()) == node

    def test_derivative_with_overflowing_constant_builds(self):
        # the quotient rule divides twice by a constant whose square
        # overflows or underflows
        for text, slope in (("0.1 + x1/1e200", 1e-200), ("x1/1e-200", 1e200)):
            d = ScalarField.parse(text, ("x1",)).diff("x1")
            assert d.expr == Const(slope)
            assert d(x1=0.5) == slope
        d = ScalarField.parse("x1^2/1e200", ("x1",)).diff("x1")
        assert to_text(d.expr) == "2.0 * x1 * 1e+200 / 1e+200 / 1e+200"
        assert d(x1=0.5) == pytest.approx(1e-200, rel=1e-15)

    def test_double_negation_cancels(self):
        assert parse_expr("--s", ("s",)) == Var("s")
        minus_s = parse_expr("-s", ("s",))
        assert substitute(minus_s, "s", minus_s) == Var("s")


class TestPowerOverflow:
    def test_overflow_names_first_point_in_row_order(self):
        f = ScalarField.parse("0.1 + 1e-300*(10*x1*x2)^400", ("x1", "x2"))
        # (10 x1 x2)^400 overflows at (0.5, -3) and at (2, 1), (2, -3)
        grid = {"x1": np.array([0.5, 2.0])[:, None], "x2": np.array([1.0, -3.0])[None, :]}
        with pytest.raises(EvalDomainError, match=r"^integer power overflows at x1=0\.5, x2=-3\.0$"):
            f.eval(grid)
        with pytest.raises(EvalDomainError, match=r"^integer power overflows at x1=2\.0$"):
            ScalarField.parse("(10*x1)^400", ("x1",))(x1=np.array([0.0, 0.5, 2.0, 3.0]))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_negative_exponent_overflow(self):
        # 1/x^2 overflows at 1e-160; at 1e-170, x^2 underflows to 0 first
        f = ScalarField.parse("x^(-2)", ("x",))
        with pytest.raises(EvalDomainError, match=r"^integer power overflows at x=1e-160$"):
            f(x=np.array([1.0, 1e-160, 1e-170]))
        with pytest.raises(EvalDomainError, match=r"^integer power overflows at x=1e\+200$"):
            f(x=np.array([1.0, 1e200]))

    def test_in_range_powers_are_unchanged(self):
        f = ScalarField.parse("x^400", ("x",))
        x = np.array([0.5, 1.0, 1.5])
        assert f(x=x).tobytes() == np.power(x, 400).tobytes()


class TestOperationTable:
    @pytest.mark.parametrize("node", [Unary("tan", Var("s")), Binary("%", Var("s"), Const(2.0))])
    def test_unknown_operation_is_an_expression_error(self, node):
        with pytest.raises(ExpressionError, match="bad operation"):
            eval_expr(node, {"s": 0.5})
        with pytest.raises(ExpressionError, match="bad operation"):
            diff_expr(node, "s")
        with pytest.raises(ExpressionError, match="bad operation"):
            substitute(node, "s", Const(1.0))

    def test_overlong_exponent_rejected(self):
        with pytest.raises(ParseError, match="exponent longer than 15 digits"):
            parse_expr("s^" + "9" * 400, ("s",))
        assert parse_expr("s^(-" + "9" * 15 + ")", ("s",)) == Power(Var("s"), -(10**15 - 1))

    def test_public_functions_are_the_known_ones(self):
        # perfbench/tracing.py wraps every public function of the module
        # except the per-node ones it lists; a new public function would be
        # traced once per AST node.
        public = {
            name
            for name, obj in vars(scalarfield).items()
            if isinstance(obj, types.FunctionType)
            and obj.__module__ == scalarfield.__name__
            and not name.startswith("_")
        }
        assert public == {
            "add", "const", "diff_expr", "div", "eval_expr", "func", "mul",
            "neg", "parse_expr", "power", "sub", "substitute", "to_text",
        }


# sha256 of the reprs of every field (phi, phi', phi'', phi'''; nu and its
# four partials; b1, b2 and their four partials) built for the corpus
# profiles, their reverses and the four witnesses, recorded with the
# per-operation if chains that the operation tables replaced.
RECORDED_AST_DIGESTS = {
    "even_quadratic": "5a277d6348aace98a3a21fca29ac72a2e2e5d7665da22369d3e4c9c22b522837",
    "exp_plus_linear": "21f365437e727ce93ab545734df9f897d224603e8d8e8ff9aa3dc438f221477b",
    "matsumoto": "28eb39cada55bda7d5a24db78112964cdb8c3a7ebc86ba3afdbb72f5982cb637",
    "quadratic_plus_linear": "fac7af03191ba0e66ed8abf3d9fef503f71f7d2adbf4bc8317e9aa2dda373e40",
    "randers": "9107ceb4ffed46fc63722795e858e1390ce33b146bfe59e7b08224a89e5d243f",
    "reverse_even_quadratic": "9ee5c059c1f295eb07608e58fc8b809aad6aa4f302a58c34084c8d887badcb0f",
    "reverse_exp_plus_linear": "4d9b8bbbd7d138a112b0eda6c544d88ac383864c34684b5097334b441259939e",
    "reverse_matsumoto": "b0c67423af790bdf96e50d20e07b5bbeeacbff27953889a3e9416e161fccb28d",
    "reverse_quadratic_plus_linear": "da7f273172623b1ab0ebab76fea3c7ea746747e700aebbc42e26058fcf62f2ed",
    "reverse_randers": "6fca2ccc707738ef73814121d99aa59b369d5afe0f4a141b7aaf4e3bf11f22cb",
    "class_a": "47a7e58997dc7607fd588d876f20c141b676d93251079c1737f53f1a766abc46",
    "class_b": "c48caf51ffc816b31bf970a53d9e351052ddda150c3d7ed3687f65fd03b8e78b",
    "irreversible": "97d8fdc6e229bf765a29c927bd693068a6b54bed7e946211c238a5f2e0030ad4",
    "even": "1898efd07ba6988dc3813f409dbdb9a843feb052ee8c225677e605390226d45f",
}

WITNESS_MAKERS = {
    "class_a": make_class_a_bundle,
    "class_b": make_class_b_bundle,
    "irreversible": make_irreversible_bundle,
    "even": make_even_bundle,
}


def _profile_fields(phi):
    return [phi.phi, phi.d1, phi.d2, phi.d2.diff("s")]


def _built_fields(name):
    if name in WITNESS_MAKERS:
        bundle = WITNESS_MAKERS[name]()
        m, f = bundle.metric, bundle.form
        return _profile_fields(bundle.phi) + [
            m.nu, m.nu1, m.nu2, m.nu1.diff("x1"), m.nu2.diff("x2"),
            f.b1, f.b2, f.db1_d1, f.db1_d2, f.db2_d1, f.db2_d2,
        ]
    if name.startswith("reverse_"):
        profile = PhiFunction.from_text(*CORPUS_PROFILES[name[len("reverse_"):]])
        return _profile_fields(reverse_phi(profile))
    return _profile_fields(PhiFunction.from_text(*CORPUS_PROFILES[name]))


@pytest.mark.parametrize("name", sorted(RECORDED_AST_DIGESTS))
def test_derivative_asts_match_recorded_digests(name):
    text = "\n".join(repr(field.expr) for field in _built_fields(name))
    assert hashlib.sha256(text.encode()).hexdigest() == RECORDED_AST_DIGESTS[name]


# DSL strings with huge and tiny constants, exponents up to +-2000 and nested
# exp/ln/sqrt/sin/cos: parsing, differentiating twice and evaluating may
# fail only with an ExpressionError.
_ATOMS = st.sampled_from(
    ["s", "0", "1", "0.5", "2", "10", "1e-300", "1e200", "1e308", "1e400", "1e-400"]
) | st.floats(min_value=0.0, max_value=1e308).map(repr)


def _compound(children):
    return st.one_of(
        st.tuples(st.sampled_from(["exp", "ln", "sqrt", "sin", "cos"]), children).map(
            lambda p: f"{p[0]}({p[1]})"
        ),
        st.tuples(children, st.sampled_from("+-*/"), children).map(
            lambda p: f"({p[0]}) {p[1]} ({p[2]})"
        ),
        st.tuples(children, st.integers(-2000, 2000)).map(lambda p: f"({p[0]})^({p[1]})"),
        children.map(lambda c: f"-({c})"),
    )


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=300, deadline=None)
@given(text=st.recursive(_ATOMS, _compound, max_leaves=8))
def test_extreme_expressions_raise_only_expression_errors(text):
    points = (0.5, -1e-3, np.array([-2.0, -0.5, 0.0, 1e-160, 0.7, 3.0]))
    try:
        f = ScalarField.parse(text, ("s",))
        fields = (f, f.diff("s"), f.diff("s").diff("s"))
    except ExpressionError:
        return
    for field in fields:
        for s in points:
            try:
                field(s=s)
            except ExpressionError:
                pass
