"""Tiny expression DSL: parse, evaluate and exactly differentiate scalar fields.

Expressions are finite trees over decimal constants, declared variables,
the unary operations neg/sin/cos/exp/ln/sqrt and the binary operations
+ - * / plus integer powers written with ``^``.  Differentiation is exact
and symbolic; the only rewriting ever applied is constant folding, so
correctness is semantic (evaluation), never syntactic.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Mapping, Union

import numpy as np

Value = Union[float, np.ndarray]

_FUNCTIONS = ("sin", "cos", "exp", "ln", "sqrt")


class ExpressionError(ValueError):
    """Base class for every error raised by this module."""


class ParseError(ExpressionError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class UnknownVariableError(ParseError):
    pass


class EvalDomainError(ExpressionError):
    """Evaluation hit a pole, ln of a non-positive value or sqrt of a negative one."""


# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class Expr:
    pass


@dataclass(frozen=True)
class Const(Expr):
    value: float


@dataclass(frozen=True)
class Var(Expr):
    name: str


@dataclass(frozen=True)
class Unary(Expr):
    op: str  # neg sin cos exp ln sqrt
    arg: Expr


@dataclass(frozen=True)
class Binary(Expr):
    op: str  # + - * /
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Power(Expr):
    base: Expr
    exponent: int  # any integer, possibly negative


ZERO = Const(0.0)
ONE = Const(1.0)


def _is_const(e: Expr, v: float | None = None) -> bool:
    return isinstance(e, Const) and (v is None or e.value == v)


# Smart constructors fold constants and neutral elements; nothing else.

def const(v: float) -> Const:
    return Const(float(v))


def var(name: str) -> Var:
    return Var(name)


def add(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value + b.value)
    if _is_const(a, 0.0):
        return b
    if _is_const(b, 0.0):
        return a
    return Binary("+", a, b)


def sub(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value - b.value)
    if _is_const(b, 0.0):
        return a
    if _is_const(a, 0.0):
        return neg(b)
    return Binary("-", a, b)


def mul(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value * b.value)
    if _is_const(a, 0.0) or _is_const(b, 0.0):
        return ZERO
    if _is_const(a, 1.0):
        return b
    if _is_const(b, 1.0):
        return a
    return Binary("*", a, b)


def div(a: Expr, b: Expr) -> Expr:
    # never fold a zero denominator: the error belongs to evaluation time
    if isinstance(a, Const) and isinstance(b, Const) and b.value != 0.0:
        return Const(a.value / b.value)
    if _is_const(a, 0.0) and not _is_const(b, 0.0):
        return ZERO
    if _is_const(b, 1.0):
        return a
    return Binary("/", a, b)


def neg(a: Expr) -> Expr:
    if isinstance(a, Const):
        return Const(-a.value)
    if isinstance(a, Unary) and a.op == "neg":
        return a.arg
    return Unary("neg", a)


def power(base: Expr, exponent: int) -> Expr:
    if exponent == 0:
        return ONE
    if exponent == 1:
        return base
    if isinstance(base, Const) and not (base.value == 0.0 and exponent < 0):
        return Const(base.value ** exponent)
    return Power(base, int(exponent))


def func(name: str, arg: Expr) -> Expr:
    if name not in _FUNCTIONS:
        raise ExpressionError(f"unknown function {name!r}")
    if isinstance(arg, Const):
        if name == "sin":
            return Const(math.sin(arg.value))
        if name == "cos":
            return Const(math.cos(arg.value))
        if name == "exp":
            return Const(math.exp(arg.value))
        if name == "ln" and arg.value > 0.0:
            return Const(math.log(arg.value))
        if name == "sqrt" and arg.value >= 0.0:
            return Const(math.sqrt(arg.value))
        # out-of-domain constants keep the node so evaluation reports them
    return Unary(name, arg)


# ---------------------------------------------------------------------------
# Parser: infix grammar with functions as name(arg) and ^ for integer powers.
#
#   expr   := term (('+'|'-') term)*
#   term   := unary (('*'|'/') unary)*
#   unary  := '-' unary | power
#   power  := atom ('^' exponent)*          exponent: [-]digits or ([-]digits)
#   atom   := number | name '(' expr ')' | name | '(' expr ')'


class _Lexer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""


class _Parser:
    def __init__(self, text: str, allowed_vars: tuple[str, ...]):
        self.lx = _Lexer(text)
        self.allowed = tuple(allowed_vars)

    def parse(self) -> Expr:
        e = self.expr()
        self.lx.skip_ws()
        if self.lx.pos != len(self.lx.text):
            raise ParseError(f"unexpected {self.lx.text[self.lx.pos]!r}", self.lx.pos)
        return e

    def expr(self) -> Expr:
        e = self.term()
        while self.lx.peek() in ("+", "-"):
            op = self.lx.text[self.lx.pos]
            self.lx.pos += 1
            rhs = self.term()
            e = add(e, rhs) if op == "+" else sub(e, rhs)
        return e

    def term(self) -> Expr:
        e = self.unary()
        while self.lx.peek() in ("*", "/"):
            op = self.lx.text[self.lx.pos]
            self.lx.pos += 1
            rhs = self.unary()
            e = mul(e, rhs) if op == "*" else div(e, rhs)
        return e

    def unary(self) -> Expr:
        if self.lx.peek() == "-":
            self.lx.pos += 1
            return neg(self.unary())
        return self.power()

    def power(self) -> Expr:
        e = self.atom()
        while self.lx.peek() == "^":
            self.lx.pos += 1
            e = power(e, self.exponent())
        return e

    def exponent(self) -> int:
        self.lx.skip_ws()
        text, pos = self.lx.text, self.lx.pos
        parenthesized = pos < len(text) and text[pos] == "("
        if parenthesized:
            pos += 1
        start = pos
        if pos < len(text) and text[pos] == "-":
            pos += 1
        digits_start = pos
        while pos < len(text) and text[pos].isdigit():
            pos += 1
        if pos == digits_start:
            raise ParseError("expected integer exponent", pos)
        if parenthesized:
            if pos >= len(text) or text[pos] != ")":
                raise ParseError("expected ')' after exponent", pos)
            pos += 1
            value = int(text[start:pos - 1])
        else:
            value = int(text[start:pos])
        self.lx.pos = pos
        return value

    def atom(self) -> Expr:
        self.lx.skip_ws()
        text, pos = self.lx.text, self.lx.pos
        if pos >= len(text):
            raise ParseError("unexpected end of input", pos)
        ch = text[pos]
        if ch == "(":
            self.lx.pos += 1
            e = self.expr()
            if self.lx.peek() != ")":
                raise ParseError("expected ')'", self.lx.pos)
            self.lx.pos += 1
            return e
        if ch.isdigit() or ch == ".":
            return self.number()
        if ch.isalpha() or ch == "_":
            return self.identifier()
        raise ParseError(f"unexpected {ch!r}", pos)

    def number(self) -> Expr:
        text, start = self.lx.text, self.lx.pos
        pos = start
        while pos < len(text) and (text[pos].isdigit() or text[pos] == "."):
            pos += 1
        if pos < len(text) and text[pos] in "eE":
            mark = pos
            pos += 1
            if pos < len(text) and text[pos] in "+-":
                pos += 1
            if pos < len(text) and text[pos].isdigit():
                while pos < len(text) and text[pos].isdigit():
                    pos += 1
            else:
                pos = mark  # the e/E belongs to an identifier, not this literal
        try:
            value = float(text[start:pos])
        except ValueError:
            raise ParseError(f"bad number {text[start:pos]!r}", start) from None
        self.lx.pos = pos
        return Const(value)

    def identifier(self) -> Expr:
        text, start = self.lx.text, self.lx.pos
        pos = start
        while pos < len(text) and (text[pos].isalnum() or text[pos] == "_"):
            pos += 1
        name = text[start:pos]
        self.lx.pos = pos
        if name in _FUNCTIONS:
            if self.lx.peek() != "(":
                raise ParseError(f"expected '(' after {name}", self.lx.pos)
            self.lx.pos += 1
            arg = self.expr()
            if self.lx.peek() != ")":
                raise ParseError("expected ')'", self.lx.pos)
            self.lx.pos += 1
            return func(name, arg)
        if name not in self.allowed:
            raise UnknownVariableError(f"unknown identifier {name!r}", start)
        return Var(name)


def parse_expr(text: str, allowed_vars) -> Expr:
    """Parse ``text`` into an AST; identifiers must come from ``allowed_vars``."""
    if not text or not text.strip():
        raise ParseError("empty expression", 0)
    return _Parser(text, tuple(allowed_vars)).parse()


# ---------------------------------------------------------------------------
# Evaluation.  Works on floats and on numpy arrays alike; domain violations
# raise EvalDomainError in both cases.


def _domain_error(message: str, bad: np.ndarray, env: Mapping[str, Value]) -> EvalDomainError:
    """EvalDomainError naming the first point of ``env`` at which ``bad`` holds.

    Variables that do not broadcast to the shape of ``bad`` are left out;
    the failing subexpression does not depend on them.
    """
    index = np.unravel_index(int(np.argmax(bad)), bad.shape)
    coords = []
    for name, value in env.items():
        try:
            coords.append(f"{name}={float(np.broadcast_to(value, bad.shape)[index])!r}")
        except (TypeError, ValueError):
            continue
    return EvalDomainError(f"{message} at {', '.join(coords)}" if coords else message)


def eval_expr(e: Expr, env: Mapping[str, Value]) -> Value:
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        try:
            return env[e.name]
        except KeyError:
            raise ExpressionError(f"unbound variable {e.name!r}") from None
    if isinstance(e, Unary):
        a = eval_expr(e.arg, env)
        op = e.op
        if op == "neg":
            return -a
        if op == "sin":
            return np.sin(a)
        if op == "cos":
            return np.cos(a)
        if op == "exp":
            return np.exp(a)
        if op == "ln":
            if np.any(np.asarray(a) <= 0.0):
                raise _domain_error("ln of non-positive value", np.asarray(a) <= 0.0, env)
            return np.log(a)
        if op == "sqrt":
            if np.any(np.asarray(a) < 0.0):
                raise _domain_error("sqrt of negative value", np.asarray(a) < 0.0, env)
            return np.sqrt(a)
        raise ExpressionError(f"bad unary op {op!r}")
    if isinstance(e, Binary):
        a = eval_expr(e.left, env)
        b = eval_expr(e.right, env)
        op = e.op
        if op == "+":
            return a + b
        if op == "-":
            return a - b
        if op == "*":
            return a * b
        if op == "/":
            if np.any(np.asarray(b) == 0.0):
                raise _domain_error("division by zero", np.asarray(b) == 0.0, env)
            return a / b
        raise ExpressionError(f"bad binary op {op!r}")
    if isinstance(e, Power):
        a = eval_expr(e.base, env)
        if e.exponent < 0 and np.any(np.asarray(a) == 0.0):
            raise _domain_error("zero raised to a negative power", np.asarray(a) == 0.0, env)
        with np.errstate(over="raise"):
            return np.power(a, e.exponent) if e.exponent >= 0 else 1.0 / np.power(a, -e.exponent)
    raise ExpressionError(f"bad node {e!r}")


# ---------------------------------------------------------------------------
# Exact symbolic differentiation.


def diff_expr(e: Expr, name: str) -> Expr:
    if isinstance(e, Const):
        return ZERO
    if isinstance(e, Var):
        return ONE if e.name == name else ZERO
    if isinstance(e, Unary):
        da = diff_expr(e.arg, name)
        if e.op == "neg":
            return neg(da)
        if e.op == "sin":
            return mul(func("cos", e.arg), da)
        if e.op == "cos":
            return neg(mul(func("sin", e.arg), da))
        if e.op == "exp":
            return mul(e, da)
        if e.op == "ln":
            return div(da, e.arg)
        if e.op == "sqrt":
            return div(da, mul(const(2.0), e))
        raise ExpressionError(f"bad unary op {e.op!r}")
    if isinstance(e, Binary):
        da = diff_expr(e.left, name)
        db = diff_expr(e.right, name)
        if e.op == "+":
            return add(da, db)
        if e.op == "-":
            return sub(da, db)
        if e.op == "*":
            return add(mul(da, e.right), mul(e.left, db))
        if e.op == "/":
            numerator = sub(mul(da, e.right), mul(e.left, db))
            return div(numerator, power(e.right, 2))
        raise ExpressionError(f"bad binary op {e.op!r}")
    if isinstance(e, Power):
        da = diff_expr(e.base, name)
        return mul(mul(const(float(e.exponent)), power(e.base, e.exponent - 1)), da)
    raise ExpressionError(f"bad node {e!r}")


def substitute(e: Expr, name: str, replacement: Expr) -> Expr:
    """Replace every occurrence of the variable ``name`` by ``replacement``."""
    if isinstance(e, Const):
        return e
    if isinstance(e, Var):
        return replacement if e.name == name else e
    if isinstance(e, Unary):
        arg = substitute(e.arg, name, replacement)
        return neg(arg) if e.op == "neg" else func(e.op, arg)
    if isinstance(e, Binary):
        left = substitute(e.left, name, replacement)
        right = substitute(e.right, name, replacement)
        return {"+": add, "-": sub, "*": mul, "/": div}[e.op](left, right)
    if isinstance(e, Power):
        return power(substitute(e.base, name, replacement), e.exponent)
    raise ExpressionError(f"bad node {e!r}")


# ---------------------------------------------------------------------------
# Pretty printing.  Output always reparses to an evaluation-equal AST.

_PREC_ADD, _PREC_MUL, _PREC_NEG, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


def _prec(e: Expr) -> int:
    if isinstance(e, (Const, Var)):
        return _PREC_ATOM
    if isinstance(e, Unary):
        return _PREC_NEG if e.op == "neg" else _PREC_ATOM
    if isinstance(e, Power):
        return _PREC_POW
    return _PREC_ADD if e.op in "+-" else _PREC_MUL


def to_text(e: Expr) -> str:
    if isinstance(e, Const):
        return repr(e.value) if e.value >= 0 else f"({e.value!r})"
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Unary):
        if e.op == "neg":
            inner = to_text(e.arg)
            if _prec(e.arg) < _PREC_NEG:
                inner = f"({inner})"
            return f"-{inner}"
        return f"{e.op}({to_text(e.arg)})"
    if isinstance(e, Power):
        base = to_text(e.base)
        if _prec(e.base) < _PREC_ATOM:
            base = f"({base})"
        return f"{base}^{e.exponent}" if e.exponent >= 0 else f"{base}^({e.exponent})"
    if isinstance(e, Binary):
        lp, rp = _prec(e.left), _prec(e.right)
        mine = _prec(e)
        left = to_text(e.left)
        right = to_text(e.right)
        if lp < mine:
            left = f"({left})"
        # -, / are left-associative: the right operand needs parens at equal precedence
        if rp < mine or (rp == mine and e.op in "-/"):
            right = f"({right})"
        return f"{left} {e.op} {right}"
    raise ExpressionError(f"bad node {e!r}")


# ---------------------------------------------------------------------------
# ScalarField: an expression plus its declared variables, with lazily cached
# symbolic partial derivatives.  Immutable after construction; the derivative
# cache is populated under a lock so concurrent readers are safe.


class ScalarField:
    def __init__(self, expr: Expr, variables):
        self._expr = expr
        self._vars = tuple(variables)
        self._dcache: dict[str, "ScalarField"] = {}
        self._lock = threading.Lock()

    @classmethod
    def parse(cls, text: str, variables) -> "ScalarField":
        variables = tuple(variables)
        return cls(parse_expr(text, variables), variables)

    @property
    def expr(self) -> Expr:
        return self._expr

    @property
    def variables(self) -> tuple[str, ...]:
        return self._vars

    def eval(self, point: Mapping[str, Value]) -> Value:
        for name in self._vars:
            if name not in point:
                raise ExpressionError(f"point does not bind variable {name!r}")
        return eval_expr(self._expr, point)

    def __call__(self, **bindings: Value) -> Value:
        return self.eval(bindings)

    def diff(self, name: str) -> "ScalarField":
        if name not in self._vars:
            raise ExpressionError(f"variable {name!r} is not declared for this field")
        with self._lock:
            cached = self._dcache.get(name)
            if cached is None:
                cached = ScalarField(diff_expr(self._expr, name), self._vars)
                self._dcache[name] = cached
            return cached

    def __repr__(self) -> str:
        return f"ScalarField({to_text(self._expr)!r}, vars={self._vars})"


def fd_check(field: ScalarField, name: str, point: Mapping[str, float], h: float) -> float:
    """Central difference (f(p+h) - f(p-h)) / 2h used as the derivative oracle."""
    if h <= 0:
        raise ExpressionError("step h must be positive")
    hi = dict(point)
    lo = dict(point)
    hi[name] = point[name] + h
    lo[name] = point[name] - h
    return (field.eval(hi) - field.eval(lo)) / (2.0 * h)
