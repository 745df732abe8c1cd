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
    IsothermalMetric,
    LinearForm,
    MetricBundle,
    PhiFunction,
    Rectangle,
    Sampling,
)
from .scalarfield import ExpressionError, ScalarField


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
    """Raw sections: {section: {key: (value, line)}}."""
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
            current = sections.setdefault(name, {})
            continue
        if "=" not in line:
            raise ConfigError("expected key = value", number)
        if current is None:
            raise ConfigError("key outside of any [section]", number)
        key, _, raw_value = line.partition("=")
        key = key.strip()
        if not key:
            raise ConfigError("empty key", number)
        current[key] = (_parse_value(raw_value, number), number)
    return sections


@dataclass(frozen=True)
class ExperimentConfig:
    nu_text: str
    domain: Rectangle
    b1_text: str
    b2_text: str
    phi_kind: str
    phi_expr: str
    b0: float
    sampling: Sampling
    T: float
    h: float

    def build_phi(self) -> PhiFunction:
        if self.phi_kind == "randers":
            return PhiFunction.randers(self.b0)
        if self.phi_kind == "matsumoto":
            return PhiFunction.matsumoto(self.b0)
        return PhiFunction.from_text(self.phi_expr, self.b0)

    def build_bundle(self) -> MetricBundle:
        metric = IsothermalMetric.from_text(self.nu_text, self.domain)
        form = LinearForm.from_text(self.b1_text, self.b2_text)
        return MetricBundle(metric, form, self.build_phi(), self.sampling)


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


def _check_expression(text: str, variables, what: str, line: int = 0) -> None:
    try:
        ScalarField.parse(text, variables)
    except ExpressionError as exc:
        raise ConfigError(f"bad expression for {what}: {exc}", line) from None


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
    nu_text = metric.require("nu", str)
    domain = Rectangle(
        metric.require("x1min", float),
        metric.require("x1max", float),
        metric.require("x2min", float),
        metric.require("x2max", float),
    )
    if domain.x1min >= domain.x1max or domain.x2min >= domain.x2max:
        raise ConfigError("domain rectangle must have positive extent")

    form = section("form")
    b1_text = form.require("b1", str)
    b2_text = form.require("b2", str)

    phi = section("phi")
    kind = phi.require("kind", str)
    if kind not in ("randers", "matsumoto", "expr"):
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

    _check_expression(nu_text, ("x1", "x2"), "nu")
    _check_expression(b1_text, ("x1", "x2"), "b1")
    _check_expression(b2_text, ("x1", "x2"), "b2")
    if kind == "expr":
        _check_expression(expr, ("s",), "phi")

    return ExperimentConfig(
        nu_text=nu_text,
        domain=domain,
        b1_text=b1_text,
        b2_text=b2_text,
        phi_kind=kind,
        phi_expr=expr,
        b0=b0,
        sampling=sampling,
        T=T,
        h=h,
    )
