"""Experiment configuration: [section] headers, key = value lines, # comments.

Strings are double-quoted, numbers are plain decimals.  Example:

    [metric]
    nu = "0"                  # expression in x1, x2
    x1min = -1.0
    x1max = 1.0
    x2min = -1.0
    x2max = 1.0

    [form]
    b1 = "0.2 + 0.1 * x1"
    b2 = "0"

    [phi]
    kind = "matsumoto"        # randers | matsumoto | expr
    b0 = 0.4

    [sampling]                # optional, defaults shown in Sampling
    n_x1 = 21

    [geodesics]               # optional
    T = 1.0
    h = 0.001
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .metric import (
    BASE_VARS,
    PHI_TEXTS,
    PHI_VAR,
    IsothermalMetric,
    LinearForm,
    MetricBundle,
    PhiFunction,
    Rectangle,
    Sampling,
)
from .scalarfield import Expr, ExpressionError, ScalarField, parse_expr


class ConfigError(ValueError):
    def __init__(self, message: str, line: int = 0):
        super().__init__(f"line {line}: {message}" if line else message)
        self.line = line


def _parse_value(raw: str, line: int):
    raw = raw.strip()
    if not raw:
        raise ConfigError("missing value", line)
    if raw.startswith('"'):
        if not raw.endswith('"') or len(raw) < 2:
            raise ConfigError("unterminated string", line)
        return raw[1:-1]
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"bad value {raw!r}", line) from None


def _strip_comment(text: str) -> str:
    out = []
    in_string = False
    for ch in text:
        if ch == '"':
            in_string = not in_string
        if ch == "#" and not in_string:
            break
        out.append(ch)
    return "".join(out)


def parse_raw(text: str) -> dict:
    """Raw sections: {section: {key: (value, line)}}.

    A section or a key within a section given twice is an error.
    """
    sections: dict[str, dict] = {}
    current = None
    for number, raw_line in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw_line).strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigError("bad section header", number)
            name = line[1:-1].strip()
            if not name:
                raise ConfigError("empty section name", number)
            if name in sections:
                raise ConfigError(f"duplicate section [{name}]", number)
            current = sections[name] = {}
            continue
        if "=" not in line:
            raise ConfigError("expected key = value", number)
        if current is None:
            raise ConfigError("key outside of any [section]", number)
        key, _, raw_value = line.partition("=")
        key = key.strip()
        if not key:
            raise ConfigError("empty key", number)
        if key in current:
            raise ConfigError(f"duplicate key {key!r}, first given on line {current[key][1]}", number)
        current[key] = (_parse_value(raw_value, number), number)
    return sections


@dataclass(frozen=True)
class ExperimentConfig:
    nu: Expr  # in x1, x2
    domain: Rectangle
    b1: Expr  # in x1, x2
    b2: Expr  # in x1, x2
    phi: Expr  # in s
    b0: float
    sampling: Sampling
    T: float
    h: float

    def build_bundle(self) -> MetricBundle:
        metric = IsothermalMetric(ScalarField(self.nu, BASE_VARS), self.domain)
        form = LinearForm(ScalarField(self.b1, BASE_VARS), ScalarField(self.b2, BASE_VARS))
        phi = PhiFunction(ScalarField(self.phi, (PHI_VAR,)), self.b0)
        return MetricBundle(metric, form, phi, self.sampling)


class _Section:
    def __init__(self, name: str, data: dict):
        self.name = name
        self.data = data

    def require(self, key: str, kind):
        if key not in self.data:
            raise ConfigError(f"missing key {key!r} in section [{self.name}]")
        value, line = self.data[key]
        return self._coerce(key, value, line, kind)

    def get(self, key: str, kind, default):
        if key not in self.data:
            return default
        value, line = self.data[key]
        return self._coerce(key, value, line, kind)

    def _coerce(self, key, value, line, kind):
        if kind is float and isinstance(value, (int, float)) and not isinstance(value, bool):
            try:
                number = float(value)
            except OverflowError:  # an integer beyond the float range
                number = math.inf
            if not math.isfinite(number):
                raise ConfigError(f"key {key!r} must be a finite number, got {number}", line)
            return number
        if kind is int and isinstance(value, int):
            return value
        if kind is str and isinstance(value, str):
            return value
        raise ConfigError(f"key {key!r} must be a {kind.__name__}", line)

    def expression(self, key: str, variables, what: str) -> Expr:
        """The key's string parsed; a parse error names the key's line."""
        text = self.require(key, str)
        try:
            return parse_expr(text, variables)
        except ExpressionError as exc:
            raise ConfigError(f"bad expression for {what}: {exc}", self.data[key][1]) from None


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from None
    return parse_config(text)


def parse_config(text: str) -> ExperimentConfig:
    sections = parse_raw(text)

    def section(name: str, required: bool = True) -> _Section:
        if name not in sections:
            if required:
                raise ConfigError(f"missing section [{name}]")
            return _Section(name, {})
        return _Section(name, sections[name])

    metric = section("metric")
    metric.require("nu", str)  # parsed last, after the structural checks
    domain = Rectangle(
        metric.require("x1min", float),
        metric.require("x1max", float),
        metric.require("x2min", float),
        metric.require("x2max", float),
    )
    if domain.x1min >= domain.x1max or domain.x2min >= domain.x2max:
        raise ConfigError("domain rectangle must have positive extent")

    form = section("form")
    form.require("b1", str)
    form.require("b2", str)

    phi = section("phi")
    kind = phi.require("kind", str)
    if kind != "expr" and kind not in PHI_TEXTS:
        raise ConfigError(f"phi kind must be randers, matsumoto or expr, got {kind!r}")
    expr = phi.get("expr", str, "")
    if kind == "expr" and not expr:
        raise ConfigError("phi kind 'expr' requires an 'expr' key")
    b0 = phi.require("b0", float)
    if not 0.0 < b0 <= 1.0:
        raise ConfigError("b0 must lie in (0, 1]")

    sampling_section = section("sampling", required=False)
    defaults = Sampling()
    sampling = Sampling(
        n_x1=sampling_section.get("n_x1", int, defaults.n_x1),
        n_x2=sampling_section.get("n_x2", int, defaults.n_x2),
        n_t=sampling_section.get("n_t", int, defaults.n_t),
        n_s=sampling_section.get("n_s", int, defaults.n_s),
        eps_zero=sampling_section.get("eps_zero", float, defaults.eps_zero),
    )
    for label, count in (
        ("n_x1", sampling.n_x1),
        ("n_x2", sampling.n_x2),
        ("n_t", sampling.n_t),
        ("n_s", sampling.n_s),
    ):
        if count < 8:
            raise ConfigError(f"sampling count {label} must be at least 8")
    if sampling.eps_zero <= 0:
        raise ConfigError("eps_zero must be positive")

    geo = section("geodesics", required=False)
    T = geo.get("T", float, 1.0)
    h = geo.get("h", float, 1e-3)
    if T <= 0 or h <= 0:
        raise ConfigError("T and h must be positive")

    return ExperimentConfig(
        nu=metric.expression("nu", BASE_VARS, "nu"),
        domain=domain,
        b1=form.expression("b1", BASE_VARS, "b1"),
        b2=form.expression("b2", BASE_VARS, "b2"),
        phi=(
            phi.expression("expr", (PHI_VAR,), "phi")
            if kind == "expr"
            else parse_expr(PHI_TEXTS[kind], (PHI_VAR,))
        ),
        b0=b0,
        sampling=sampling,
        T=T,
        h=h,
    )
