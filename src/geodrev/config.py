"""Experiment configuration: [section] headers, key = value lines, # comments.

Strings are double-quoted, numbers are plain decimals.  FORMAT lists every
section and key with its type, its default and its range; any other section
or key is an error that names its line.  README.md shows an example.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Callable, Optional

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


REQUIRED = object()  # the default of a key that the config must give

# Sampling counts run in bounded memory up to these bounds, which turn the
# hours of a mistyped count into an error.  At 1e5, validation's triangle of
# n_s^2 values takes minutes; at 1000 x 1000 x 1000, classify's 1e9 values
# at ~150 ns each take minutes, and b_sup's one-pass fine grid of
# 9 n_x1 n_x2 values takes 72 MB a temporary.
SAMPLING_MAX = {"n_x1": 1000, "n_x2": 1000, "n_t": 1000, "n_s": 100_000}


class Key:
    """A key's type (str, int or float; object takes any value), its default
    or REQUIRED, and for a key with a range the condition on the coerced
    value and its error, where {value} stands for the value's repr.  A plain
    class, because a NamedTuple adds 0.25 ms to every command's import."""

    __slots__ = ("kind", "default", "valid", "wording")

    def __init__(self, kind: type, default=REQUIRED, valid: Optional[Callable] = None, wording: str = ""):
        self.kind, self.default, self.valid, self.wording = kind, default, valid, wording


_SAMPLING = {f.name: f.default for f in fields(Sampling)}


def _count(name: str) -> Key:
    top = SAMPLING_MAX[name]
    return Key(int, _SAMPLING[name], lambda n: 8 <= n <= top, f"sampling count {name} must lie in [8, {top}]")


def _positive(default: float, wording: str) -> Key:
    return Key(float, default, lambda v: v > 0, wording)


# The config format: section -> key -> row.  A section with a required key
# is required.  Expressions are strings here; parse_config parses them last.
FORMAT = {
    "metric": {
        "nu": Key(str),
        "x1min": Key(float),
        "x1max": Key(float),
        "x2min": Key(float),
        "x2max": Key(float),
    },
    "form": {"b1": Key(str), "b2": Key(str)},
    "phi": {
        "kind": Key(
            str,
            valid=lambda kind: kind == "expr" or kind in PHI_TEXTS,
            wording="phi kind must be randers, matsumoto or expr, got {value}",
        ),
        "expr": Key(str, ""),
        "b0": Key(float, valid=lambda b0: 0.0 < b0 <= 1.0, wording="b0 must lie in (0, 1]"),
    },
    "sampling": {
        **{name: _count(name) for name in SAMPLING_MAX},
        "eps_zero": _positive(_SAMPLING["eps_zero"], "eps_zero must be positive"),
    },
    "geodesics": {
        "T": _positive(1.0, "T and h must be positive"),
        "h": _positive(1e-3, "T and h must be positive"),
        # Read by nothing: an earlier version of the format had this key,
        # and configs written for it still load, whatever its value.
        "seeds": Key(object, None),
    },
}


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

    A section or key that FORMAT does not list, or one given twice, is an
    error that names its line.
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
            if name not in FORMAT:
                raise ConfigError(f"unknown section [{name}]", number)
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
        if key not in FORMAT[name]:
            raise ConfigError(f"unknown key {key!r} in section [{name}]", number)
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


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(
            f"cannot read config: {path!r} is not UTF-8 at byte offset {exc.start}: {exc.reason}"
        ) from None
    return parse_config(text)


def _coerce(key: str, value, line: int, kind: type):
    if kind is float and not isinstance(value, str):
        try:
            number = float(value)
        except OverflowError:  # an integer beyond the float range
            number = math.inf
        if not math.isfinite(number):
            raise ConfigError(f"key {key!r} must be a finite number, got {number}", line)
        return number
    if isinstance(value, kind):
        return value
    wording = {int: "an integer", str: "a quoted string", float: "a number"}[kind]
    raise ConfigError(f"key {key!r} must be {wording}", line)


def parse_config(text: str) -> ExperimentConfig:
    sections = parse_raw(text)
    values = {}
    for name, rows in FORMAT.items():
        if name not in sections and any(row.default is REQUIRED for row in rows.values()):
            raise ConfigError(f"missing section [{name}]")
        given = sections.get(name, {})
        values[name] = section = {}
        for key, row in rows.items():
            if key not in given:
                if row.default is REQUIRED:
                    raise ConfigError(f"missing key {key!r} in section [{name}]")
                section[key] = row.default
                continue
            raw, line = given[key]
            section[key] = value = _coerce(key, raw, line, row.kind)
            if row.valid is not None and not row.valid(value):
                raise ConfigError(row.wording.format(value=repr(value)), line)

    metric, phi, geodesics = values["metric"], values["phi"], values["geodesics"]
    for axis in ("x1", "x2"):
        low, high = metric[f"{axis}min"], metric[f"{axis}max"]
        if low >= high:
            raise ConfigError(
                f"domain rectangle must have positive extent:"
                f" {axis}max = {high!r} is not above {axis}min = {low!r}",
                sections["metric"][f"{axis}max"][1],
            )
    domain = Rectangle(metric["x1min"], metric["x1max"], metric["x2min"], metric["x2max"])
    if phi["kind"] == "expr" and not phi["expr"]:
        raise ConfigError("phi kind 'expr' requires an 'expr' key")
    if phi["kind"] != "expr" and "expr" in sections["phi"]:
        message = f'phi expr is read only when kind is "expr", got kind {phi["kind"]!r}'
        raise ConfigError(message, sections["phi"]["expr"][1])

    def expression(section: str, key: str, variables, what: str) -> Expr:
        try:
            return parse_expr(values[section][key], variables)
        except ExpressionError as exc:
            raise ConfigError(f"bad expression for {what}: {exc}", sections[section][key][1]) from None

    return ExperimentConfig(
        nu=expression("metric", "nu", BASE_VARS, "nu"),
        domain=domain,
        b1=expression("form", "b1", BASE_VARS, "b1"),
        b2=expression("form", "b2", BASE_VARS, "b2"),
        phi=(
            expression("phi", "expr", (PHI_VAR,), "phi")
            if phi["kind"] == "expr"
            else parse_expr(PHI_TEXTS[phi["kind"]], (PHI_VAR,))
        ),
        b0=phi["b0"],
        sampling=Sampling(**values["sampling"]),
        T=geodesics["T"],
        h=geodesics["h"],
    )
