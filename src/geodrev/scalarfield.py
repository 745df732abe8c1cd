"""Tiny expression DSL: parse, evaluate and exactly differentiate scalar fields.

Expressions are finite trees over decimal constants, declared variables,
the unary operations neg/sin/cos/exp/ln/sqrt and the binary operations
+ - * / plus integer powers written with ``^``.  Differentiation is exact
and symbolic; the only rewriting ever applied is constant folding, so
correctness is semantic (evaluation), never syntactic.

Each operation is one row of ``_UNARY`` or ``_BINARY``: constant fold,
numpy evaluation, domain check and derivative rule.  Constant operands fold
to what Python's arithmetic returns; where it raises (``ArithmeticError``
or ``ValueError``: a pole, ln or sqrt outside its domain, an overflow) the
node is kept, so that evaluation reports the error.
"""

from __future__ import annotations

import itertools
import math
import operator
import struct
from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Union

import numpy as np

Value = Union[float, np.ndarray]


class ExpressionError(ValueError):
    """Base class for every error raised by this module."""


class ParseError(ExpressionError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class UnknownVariableError(ParseError):
    pass


class EvalDomainError(ExpressionError):
    """Evaluation hit a pole, ln or sqrt outside its domain, or an overflowing power."""


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


def _fold(op: Callable[..., float], *values) -> Optional[Const]:
    """The constant ``op(*values)``, or None when Python's arithmetic raises."""
    try:
        return Const(op(*values))
    except (ArithmeticError, ValueError):
        return None


# Smart constructors fold constants and neutral elements; nothing else.

def const(v: float) -> Const:
    return Const(float(v))


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
    if isinstance(a, Const) and isinstance(b, Const):
        if folded := _fold(operator.truediv, a.value, b.value):
            return folded
    if _is_const(a, 0.0) and not _is_const(b, 0.0):
        return ZERO
    if _is_const(b, 1.0):
        return a
    return Binary("/", a, b)


def power(base: Expr, exponent: int) -> Expr:
    if exponent == 0:
        return ONE
    if exponent == 1:
        return base
    if isinstance(base, Const) and (folded := _fold(operator.pow, base.value, exponent)):
        return folded
    return Power(base, int(exponent))


def _unary(op: str, arg: Expr) -> Expr:
    """Smart constructor of every unary operation."""
    row = _UNARY[op]
    if isinstance(arg, Const) and (folded := _fold(row.fold, arg.value)):
        return folded
    if row.self_inverse and isinstance(arg, Unary) and arg.op == op:
        return arg.arg
    return Unary(op, arg)


def neg(a: Expr) -> Expr:
    return _unary("neg", a)


def func(name: str, arg: Expr) -> Expr:
    if name not in _FUNCTIONS:
        raise ExpressionError(f"unknown function {name!r}")
    return _unary(name, arg)


# Operation tables: every operation of the DSL, defined once.

class _OpTable(dict):
    def __missing__(self, op: str):  # an operation the DSL does not have
        raise ExpressionError(f"bad operation {op!r}")


@dataclass(frozen=True, slots=True)
class _UnaryOp:
    fold: Callable[[float], float]           # constant fold
    evaluate: Callable[[Value], Value]       # numpy evaluation
    outside: Optional[Callable[[np.ndarray], np.ndarray]]  # mask of points outside the domain
    message: str                             # EvalDomainError text for those points
    derivative: Callable[[Unary, Expr], Expr]  # d(node) from the node and d(arg)
    self_inverse: bool = False               # op(op(a)) is rewritten to a


@dataclass(frozen=True, slots=True)
class _BinaryOp:
    build: Callable[[Expr, Expr], Expr]      # smart constructor
    evaluate: Callable[[Value, Value], Value]
    outside: Optional[Callable[[np.ndarray], np.ndarray]]  # mask on the right operand
    message: str
    derivative: Callable[[Binary, Expr, Expr], Expr]  # from the node, d(left) and d(right)


def _quotient_rule(e: Binary, da: Expr, db: Expr) -> Expr:
    """(da*c - a*dc) / c^2 for e = a/c; a constant c whose square overflows or
    underflows divides twice, so that d(x/1e200) = 1e-200 evaluates."""
    numerator = sub(mul(da, e.right), mul(e.left, db))
    square = power(e.right, 2)
    if isinstance(e.right, Const) and not (isinstance(square, Const) and 0.0 < square.value < math.inf):
        return div(div(numerator, e.right), e.right)
    return div(numerator, square)


_UNARY = _OpTable(
    neg=_UnaryOp(operator.neg, operator.neg, None, "", lambda e, da: neg(da), self_inverse=True),
    sin=_UnaryOp(math.sin, np.sin, None, "", lambda e, da: mul(func("cos", e.arg), da)),
    cos=_UnaryOp(math.cos, np.cos, None, "", lambda e, da: neg(mul(func("sin", e.arg), da))),
    exp=_UnaryOp(math.exp, np.exp, None, "", lambda e, da: mul(e, da)),
    ln=_UnaryOp(math.log, np.log, lambda a: a <= 0.0, "ln of non-positive value",
                lambda e, da: div(da, e.arg)),
    sqrt=_UnaryOp(math.sqrt, np.sqrt, lambda a: a < 0.0, "sqrt of negative value",
                  lambda e, da: div(da, mul(const(2.0), e))),
)

# Unary operations written as name(arg); neg is written as a prefix minus.
_FUNCTIONS = tuple(op for op in _UNARY if op != "neg")

_BINARY = _OpTable({
    "+": _BinaryOp(add, operator.add, None, "", lambda e, da, db: add(da, db)),
    "-": _BinaryOp(sub, operator.sub, None, "", lambda e, da, db: sub(da, db)),
    "*": _BinaryOp(mul, operator.mul, None, "",
                   lambda e, da, db: add(mul(da, e.right), mul(e.left, db))),
    "/": _BinaryOp(div, operator.truediv, lambda b: b == 0.0, "division by zero", _quotient_rule),
})


# ---------------------------------------------------------------------------
# Parser: infix grammar with functions as name(arg) and ^ for integer powers.
#
#   expr   := term (('+'|'-') term)*
#   term   := unary (('*'|'/') unary)*
#   unary  := '-' unary | power
#   power  := atom ('^' exponent)*          exponent: [-]digits or ([-]digits)
#   atom   := number | name '(' expr ')' | name | '(' expr ')'

# Deepest parenthesis nesting and tree that an expression may have.  The
# parser recurses about six times per parenthesis, eval and diff once per
# tree level, and phi'' is about twice as deep as phi: at this bound all of
# it stays well inside Python's default recursion limit.
MAX_DEPTH = 100


class _Parser:
    def __init__(self, text: str, allowed_vars: tuple[str, ...]):
        self.text = text
        self.pos = 0
        self.allowed = tuple(allowed_vars)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def parse(self) -> Expr:
        e = self.expr()
        self.skip_ws()
        if self.pos != len(self.text):
            raise ParseError(f"unexpected {self.text[self.pos]!r}", self.pos)
        return e

    def expr(self) -> Expr:
        e = self.term()
        while (op := self.peek()) and op in "+-":
            self.pos += 1
            e = _BINARY[op].build(e, self.term())
        return e

    def term(self) -> Expr:
        e = self.unary()
        while (op := self.peek()) and op in "*/":
            self.pos += 1
            e = _BINARY[op].build(e, self.unary())
        return e

    def closing(self, e: Expr) -> Expr:
        if self.peek() != ")":
            raise ParseError("expected ')'", self.pos)
        self.pos += 1
        return e

    def unary(self) -> Expr:
        signs = 0
        while self.peek() == "-":
            self.pos += 1
            signs += 1
        e = self.power()
        return neg(e) if signs % 2 else e  # neg is self-inverse

    def power(self) -> Expr:
        e = self.atom()
        while self.peek() == "^":
            self.pos += 1
            e = power(e, self.exponent())
        return e

    def exponent(self) -> int:
        self.skip_ws()
        text, pos = self.text, self.pos
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
        if pos - digits_start > 15:  # longer exponents do not convert to floats exactly
            raise ParseError("exponent longer than 15 digits", digits_start)
        value = int(text[start:pos])
        if parenthesized:
            if pos >= len(text) or text[pos] != ")":
                raise ParseError("expected ')' after exponent", pos)
            pos += 1
        self.pos = pos
        return value

    def atom(self) -> Expr:
        self.skip_ws()
        text, pos = self.text, self.pos
        if pos >= len(text):
            raise ParseError("unexpected end of input", pos)
        ch = text[pos]
        if ch == "(":
            self.pos += 1
            return self.closing(self.expr())
        if ch.isdigit() or ch == ".":
            return self.number()
        if ch.isalpha() or ch == "_":
            return self.identifier()
        raise ParseError(f"unexpected {ch!r}", pos)

    def number(self) -> Expr:
        text, start = self.text, self.pos
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
        self.pos = pos
        return Const(value)

    def identifier(self) -> Expr:
        text, start = self.text, self.pos
        pos = start
        while pos < len(text) and (text[pos].isalnum() or text[pos] == "_"):
            pos += 1
        name = text[start:pos]
        self.pos = pos
        if name in _FUNCTIONS:
            if self.peek() != "(":
                raise ParseError(f"expected '(' after {name}", self.pos)
            self.pos += 1
            return func(name, self.closing(self.expr()))
        if name not in self.allowed:
            raise UnknownVariableError(f"unknown identifier {name!r}", start)
        return Var(name)


def parse_expr(text: str, allowed_vars) -> Expr:
    """Parse ``text`` into an AST; identifiers must come from ``allowed_vars``."""
    if not text or not text.strip():
        raise ParseError("empty expression", 0)
    nesting = list(itertools.accumulate((ch == "(") - (ch == ")") for ch in text))
    if max(nesting) > MAX_DEPTH:
        raise ParseError(f"parentheses nested deeper than {MAX_DEPTH}", nesting.index(MAX_DEPTH + 1))
    e = _Parser(text, tuple(allowed_vars)).parse()
    height, level = 0, [e]
    while level:
        height += 1
        level = [c for node in level for c in vars(node).values() if isinstance(c, Expr)]
    if height > MAX_DEPTH:
        raise ParseError(f"expression tree deeper than {MAX_DEPTH} levels", 0)
    return e


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


def _require_finite(fields: Mapping[str, Value], env: Mapping[str, Value]) -> None:
    """Raise EvalDomainError naming the first of ``fields`` with a value that is not
    finite and the first point of ``env``, in row order, where it has one.

    eval_expr does not check: every RK4 stage would pay for it."""
    for name, values in fields.items():
        if not np.isfinite(values).all():
            bad = np.broadcast_to(~np.isfinite(values), np.broadcast(values, *env.values()).shape)
            raise _domain_error(f"{name} is not finite", bad, env)


def eval_expr(e: Expr, env: Mapping[str, Value]) -> Value:
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        try:
            return env[e.name]
        except KeyError:
            raise ExpressionError(f"unbound variable {e.name!r}") from None
    if isinstance(e, Binary):  # inner node kinds in order of frequency in derivative trees
        row = _BINARY[e.op]
        a = eval_expr(e.left, env)
        b = eval_expr(e.right, env)
        if row.outside is not None:
            if isinstance(e.right, Const):  # b is a Python float: one test, no array
                if row.outside(b):
                    everywhere = np.broadcast_shapes(*map(np.shape, env.values()))
                    raise _domain_error(row.message, np.broadcast_to(True, everywhere), env)
            elif (bad := row.outside(np.asarray(b))).any():
                raise _domain_error(row.message, bad, env)
        return row.evaluate(a, b)
    if isinstance(e, Power):
        a = eval_expr(e.base, env)
        k = e.exponent
        if k < 0 and (zero := np.asarray(a) == 0.0).any():
            raise _domain_error("zero raised to a negative power", zero, env)
        try:
            with np.errstate(over="raise"):
                return np.power(a, k) if k >= 0 else 1.0 / np.power(a, -k)
        except FloatingPointError:
            with np.errstate(all="ignore"):  # finite bases where a^|k| or, for k < 0, 1/a^|k| overflows
                p = np.power(np.asarray(a, dtype=float), abs(k))
                bad = np.isfinite(a) & (np.isinf(p) | ((k < 0) & (p != 0.0) & np.isinf(1.0 / p)))
            raise _domain_error("integer power overflows", bad, env) from None
    if isinstance(e, Unary):
        row = _UNARY[e.op]
        a = eval_expr(e.arg, env)
        if row.outside is not None and (bad := row.outside(np.asarray(a))).any():
            raise _domain_error(row.message, bad, env)
        return row.evaluate(a)
    raise ExpressionError(f"bad node {e!r}")


# ---------------------------------------------------------------------------
# Straight-line programs.  An emitter turns expression trees into one Python
# function with a line per distinct node: equal subtrees share a register,
# and each line makes the call that eval_expr makes for its node, operands
# in the same order, so every value is bitwise the walk's.  A domain check
# that fails raises _Fallback instead of naming a point: the caller reruns
# the walk, which names it.


class _Fallback(Exception):
    """A domain check of a compiled program failed; the walk names the point."""


class _Emitter:
    def __init__(self, params):
        self.params = tuple(params)
        self.lines: list[str] = []
        self.scope = {"asarray": np.asarray, "power": np.power, "errstate": np.errstate,
                      "_Fallback": _Fallback}
        self.scope.update((op, row.evaluate) for op, row in _UNARY.items())
        self._names: dict = {}    # key of a bound object -> its name in scope
        self._regs: dict = {}     # (kind, op, operand registers) -> register
        self._powers: set = set()  # indices of the lines that raise to a power

    def _bind(self, key, value) -> str:
        name = self._names.get(key)
        if name is None:
            name = self._names[key] = f"k{len(self._names)}"
            self.scope[name] = value
        return name

    def _assign(self, key, text: str, check: Optional[str] = None) -> str:
        reg = self._regs.get(key)
        if reg is None:
            if check:
                self.lines.append(check)
            reg = self._regs[key] = f"t{len(self._regs)}"
            self.lines.append(f"{reg} = {text}")
        return reg

    def _outside(self, row, operand: str) -> str:
        return f"if {self._bind(row.outside, row.outside)}(asarray({operand})).any(): raise _Fallback"

    def call(self, fn: Callable, *args: str) -> str:
        """Register holding ``fn(*args)``."""
        return self._assign(("call", fn, args), f"{self._bind(fn, fn)}({', '.join(args)})")

    def binary(self, op: str, a: str, b: str) -> str:
        """Register holding ``a op b`` for op in + - * /, without a domain check."""
        return self._assign(("unchecked", op, a, b), f"{a} {op} {b}")

    def emit(self, e: Expr, env: Mapping[str, str], memo: Optional[dict] = None) -> str:
        """Register holding the value of ``e``; ``env`` maps each variable to a register."""
        memo = {} if memo is None else memo
        reg = memo.get(id(e))
        if reg is not None:
            return reg
        if isinstance(e, Const):
            # by bit pattern: 0.0 and -0.0 stay apart, nan and inf need no repr
            reg = self._bind(("const", type(e.value), struct.pack("<d", e.value)), e.value)
        elif isinstance(e, Var):
            try:
                reg = env[e.name]
            except KeyError:
                raise ExpressionError(f"unbound variable {e.name!r}") from None
        elif isinstance(e, Binary):
            row = _BINARY[e.op]
            a = self.emit(e.left, env, memo)
            b = self.emit(e.right, env, memo)
            check = None
            if row.outside is not None:
                if not isinstance(e.right, Const):
                    check = self._outside(row, b)
                elif row.outside(e.right.value):
                    check = "raise _Fallback"
            reg = self._assign(("bin", e.op, a, b), f"{a} {e.op} {b}", check)
        elif isinstance(e, Power):
            a = self.emit(e.base, env, memo)
            k = int(e.exponent)
            lines = len(self.lines)
            if k >= 0:
                reg = self._assign(("pow", k, a), f"power({a}, {k})")
            else:
                check = f"if (asarray({a}) == 0.0).any(): raise _Fallback"
                reg = self._assign(("pow", k, a), f"1.0 / power({a}, {-k})", check)
            if len(self.lines) > lines:
                self._powers.add(len(self.lines) - 1)
        elif isinstance(e, Unary):
            row = _UNARY[e.op]
            a = self.emit(e.arg, env, memo)
            check = None if row.outside is None else self._outside(row, a)
            reg = self._assign(("un", e.op, a), f"{e.op}({a})", check)
        else:
            raise ExpressionError(f"bad node {e!r}")
        memo[id(e)] = reg
        return reg

    def compile(self, result: str, each_power: bool = False) -> Callable:
        """The function of ``params`` that runs every emitted line and returns ``result``.

        With a power in it, the whole body runs under one
        ``np.errstate(over="raise")``: an overflow anywhere raises
        FloatingPointError, and the walk tells a failing power from a
        harmless overflow.  With ``each_power``, each power line runs under
        its own errstate, as in the walk, and an overflow elsewhere gives
        the walk's inf; that costs an errstate per power on every call."""
        body = [*self.lines, f"return {result}"]
        if each_power:
            raising = 'with errstate(over="raise"): '
            body = [raising + line if i in self._powers else line for i, line in enumerate(body)]
        elif self._powers:
            body = ['with errstate(over="raise"):', *(f"    {line}" for line in body)]
        source = "".join(f"    {line}\n" for line in body)
        exec(compile(f"def program({', '.join(self.params)}):\n{source}", "<program>", "exec"), self.scope)
        return self.scope["program"]


# ---------------------------------------------------------------------------
# Exact symbolic differentiation.


def diff_expr(e: Expr, name: str) -> Expr:
    if isinstance(e, Const):
        return ZERO
    if isinstance(e, Var):
        return ONE if e.name == name else ZERO
    if isinstance(e, Unary):
        return _UNARY[e.op].derivative(e, diff_expr(e.arg, name))
    if isinstance(e, Binary):
        return _BINARY[e.op].derivative(e, diff_expr(e.left, name), diff_expr(e.right, name))
    if isinstance(e, Power):
        da = diff_expr(e.base, name)
        return mul(mul(const(float(e.exponent)), power(e.base, e.exponent - 1)), da)
    raise ExpressionError(f"bad node {e!r}")


# ---------------------------------------------------------------------------
# ScalarField: an expression plus its declared variables.  Immutable; each
# diff builds a new field, which the caller keeps.


class ScalarField:
    def __init__(self, expr: Expr, variables):
        self._expr = expr
        self._vars = tuple(variables)

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
        return ScalarField(diff_expr(self._expr, name), self._vars)

    def __repr__(self) -> str:
        return f"ScalarField({self._expr!r}, vars={self._vars})"
