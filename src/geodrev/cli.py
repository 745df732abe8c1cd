"""Command-line front end: validate, classify, scan and geodesic runs.

Exit codes: 0 success; 1 usage, config or I/O error, including an
expression evaluated outside its domain (EvalDomainError), a non-finite
number, an F^2 that underflows to 0 or is not finite along a geodesic, a
start point outside the domain, a start vector of extreme length, an
expression nested deeper than scalarfield.MAX_DEPTH, a sampling grid that
cannot be allocated (MemoryError) and a geodesic run too long for its
trajectory buffer (PathTooLongError);
2 validation failure, including a fiber Hessian of F^2 that is not
positive definite along a geodesic (SingularHessianError) and
classification evidence that contradicts itself
(InconsistentEvidenceError); 3 geodesic truncated at the domain boundary.
"""

from __future__ import annotations

import argparse
import functools
import math
import re
import sys

import numpy as np

from .config import ConfigError, ExperimentConfig, load_config
from .frames import crosscheck
from .geodesics import (
    SPEED_DECADES,
    PathTooLongError,
    SingularHessianError,
    backward_duration,
    integrate,
    path_distance,
    path_prefix,
)
from .metric import FinslerValidationError, MetricBundle, _ec1_margin, _triangular_grid, sample_grid
from .reversibility import InconsistentEvidenceError, _ladder, classify, residual
from .scalarfield import EvalDomainError

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_VALIDATION = 2
EXIT_TRUNCATED = 3


# Rows formatted per string operation; bounds the size of each written chunk.
CSV_BLOCK_ROWS = 4096


def _block_text(block: np.ndarray) -> str:
    """The lines of a (rows, columns) block, every value as %.17g.

    A column that repeats a value, as a scan's grid coordinates do, formats
    each distinct value once and its lines take the strings by %s.  Values
    are keyed by their 64-bit pattern, so 0.0 and -0.0, and nans of
    different sign or payload, keep their own text.  A column without
    repeats, as a geodesic's are, is formatted in the line itself.
    """
    n, width = block.shape
    texts = []  # per column: its strings in row order, or None if no value repeats
    for c in range(width):
        keys = block[:, c].view(np.int64)
        ranked = np.sort(keys)
        first = np.concatenate(([True], ranked[1:] != ranked[:-1]))
        if first.all():
            texts.append(None)
            continue
        distinct = ranked[first]
        text = ("\n".join(["%.17g"] * len(distinct)) % tuple(distinct.view(float).tolist())).split("\n")
        texts.append(np.array(text, dtype=object)[np.searchsorted(distinct, keys)])
    line = ",".join("%.17g" if text is None else "%s" for text in texts) + "\n"
    if all(text is None for text in texts):
        # Python floats made in row order, which the formatting pass reads
        # faster than floats made column by column.
        return line * n % tuple(block.ravel().tolist())
    args = np.empty((n, width), dtype=object)
    for c, text in enumerate(texts):
        args[:, c] = block[:, c] if text is None else text
    return line * n % tuple(args.ravel().tolist())


def write_csv(path: str, header: list[str], rows: np.ndarray) -> None:
    """Write a header line, then one line per row, every value as %.17g.

    ``rows`` is a (rows, len(header)) array, written CSV_BLOCK_ROWS rows at
    a time.
    """
    width = len(header)
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2 or rows.shape[1] != width:
        raise ValueError(f"rows of {width} values expected, got an array of shape {rows.shape}")
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(",".join(header) + "\n")
        for i in range(0, len(rows), CSV_BLOCK_ROWS):
            handle.write(_block_text(rows[i : i + CSV_BLOCK_ROWS]))


def cmd_validate(args, bundle: MetricBundle, cfg: ExperimentConfig) -> int:
    report = bundle.validate()
    print(report.as_text())
    if args.out:
        _write_validation_csv(args.out, bundle)
    return EXIT_OK if report.passed else EXIT_VALIDATION


def _write_validation_csv(path: str, bundle: MetricBundle) -> None:
    """Write the convexity margin on validate_finsler's (s, b) grid.

    Each b is a block of rows; a block that leaves the profile's domain is
    written as NaN.
    """
    n = max(bundle.sampling.n_s, 64)
    s, b = (v.reshape(n, n) for v in _triangular_grid(bundle.phi.b0, n))
    margin = np.full_like(s, np.nan)
    for i in range(n):
        try:
            margin[i] = _ec1_margin(bundle.phi, s[i], b[i])
        except EvalDomainError:
            pass
    write_csv(path, ["s", "b", "ec1_margin"], np.column_stack((s.ravel(), b.ravel(), margin.ravel())))


def cmd_classify(args, bundle: MetricBundle, cfg: ExperimentConfig) -> int:
    result = classify(bundle)
    print(result.as_text())
    return EXIT_OK


def _scan_rows(bundle: MetricBundle, what: str) -> tuple[list[str], np.ndarray]:
    """Header and (rows, columns) table of a scan.

    Grid scans evaluate the whole base x fiber grid in one broadcast call;
    rows run over x1 outermost, then x2, then t.
    """
    sampling = bundle.sampling
    report = bundle.validate()
    if what in ("E", "F"):
        s = np.linspace(-report.b_sup, report.b_sup, sampling.n_s)
        ladder = _ladder(bundle.phi, s)
        e_vals = np.broadcast_to(ladder.E(), s.shape)
        f_vals = np.broadcast_to(ladder.F(report.b_sup), s.shape)
        return ["s", "E", "F"], np.column_stack((s, e_vals, f_vals))
    if what == "residual":
        header = ["x1", "x2", "t", "residual"]

        def evaluate(x1, x2, t):
            return [residual(bundle, (x1, x2), t)]
    else:  # crosscheck, the last of the parser's choices
        header = ["x1", "x2", "t", "direct", "closed_form", "gap"]

        def evaluate(x1, x2, t):
            result = crosscheck(bundle, (x1, x2), t)
            return [result.direct, result.closed_form, result.relative_gap]

    X1, X2, t = sample_grid(bundle.metric.domain, sampling)
    try:
        values = evaluate(X1, X2, t)
    except EvalDomainError:
        # The grid call evaluates each expression at every point before the
        # next one, so its error may name a later point than the first to
        # fail.  Walk the points in row order to name the first.
        for x1, x2 in zip(X1.ravel(), X2.ravel()):
            evaluate(x1, x2, t)
        raise
    shape = (X1.size, t.size)
    columns = [np.broadcast_to(v, shape).ravel() for v in (X1, X2, t, *values)]
    return header, np.column_stack(columns)


def cmd_scan(args, bundle: MetricBundle, cfg: ExperimentConfig) -> int:
    bundle.require_valid()
    header, rows = _scan_rows(bundle, args.what)
    write_csv(args.out, header, rows)
    return EXIT_OK


def _parse_pair(text: str, label: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ConfigError(f"{label} must be two comma-separated numbers")
    try:
        pair = float(parts[0]), float(parts[1])
    except ValueError:
        raise ConfigError(f"{label} must be two comma-separated numbers") from None
    if not all(math.isfinite(v) for v in pair):
        raise ConfigError(f"{label} must be two finite numbers, got {text}")
    return pair


def _rev_path_name(path: str) -> str:
    stem, dot, ext = path.rpartition(".")
    return f"{stem}_rev.{ext}" if dot else f"{path}_rev"


def cmd_geodesic(args, bundle: MetricBundle, cfg: ExperimentConfig) -> int:
    bundle.require_valid()
    x0 = _parse_pair(args.x0, "--x0")
    d = bundle.metric.domain
    if not d.contains(*x0):
        raise ConfigError(
            f"--x0 point ({x0[0]}, {x0[1]}) lies outside the domain "
            f"[{d.x1min}, {d.x1max}] x [{d.x2min}, {d.x2max}]"
        )
    y0 = _parse_pair(args.y0, "--y0")
    # 50 decades inside the range the spray accepts, so that the speed may
    # drift along the path and its relaunch without leaving that range.
    decades = SPEED_DECADES - 50
    speed = math.hypot(*y0)
    if not 10.0**-decades <= speed <= 10.0**decades:
        raise ConfigError(
            f"--y0 must have a length in [1e-{decades}, 1e{decades}], got {speed} for {args.y0}"
        )
    T = args.T if args.T is not None else cfg.T
    h = args.h if args.h is not None else cfg.h
    for label, value in (("--T", T), ("--h", h)):
        if not 0.0 < value < math.inf:
            raise ConfigError(f"{label} must be a positive finite number, got {value}")

    forward = integrate(bundle, x0, y0, T, h)
    # One backward run serves both paths: the one the error is measured on,
    # of duration t_back, and the _rev path, which runs for the forward
    # path's covered duration.
    t_back = backward_duration(bundle, forward)
    t_rev = max(forward.duration, h)
    relaunched = integrate(
        bundle, forward.samples[-1], -forward.velocities[-1], max(t_back, t_rev), h
    )
    error = path_distance(forward, path_prefix(relaunched, t_back))
    backward = path_prefix(relaunched, t_rev)

    for path, run in ((args.out, forward), (_rev_path_name(args.out), backward)):
        steps = np.arange(len(run.samples), dtype=float)
        write_csv(path, ["step", "x1", "x2"], np.column_stack((steps, run.samples)))
    print(f"reversibility_error = {error:.12g}")
    if forward.truncated or backward.truncated:
        print("path truncated at the domain boundary", file=sys.stderr)
        return EXIT_TRUNCATED
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Exits with EXIT_CONFIG on a usage error, so that 2 keeps meaning a
    validation failure."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


_NEGATIVE_VALUE = re.compile(r"-\.?\d")


def _attach_negative_values(argv: list[str]) -> list[str]:
    """Spell "--x0 -0.5,0" as "--x0=-0.5,0".

    argparse reads a separate value that starts with a minus sign as an
    option unless it is a plain negative number, which a pair is not.
    """
    out: list[str] = []
    for arg in argv:
        prev = out[-1] if out else ""
        if prev.startswith("--") and "=" not in prev and _NEGATIVE_VALUE.match(arg):
            out[-1] = f"{prev}={arg}"
        else:
            out.append(arg)
    return out


@functools.cache  # one parser per process, built by the first main call
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="geodrev",
        description="Decide whether a 2-dimensional (alpha,beta) Finsler structure "
        "has reversible geodesics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="check the positivity conditions")
    p_validate.add_argument("config")
    p_validate.add_argument("--out", default=None, help="optional CSV of the convexity margin")

    p_classify = sub.add_parser("classify", help="run the reversibility classification")
    p_classify.add_argument("config")

    p_scan = sub.add_parser("scan", help="dump criterion quantities as CSV")
    p_scan.add_argument("config")
    p_scan.add_argument("--what", required=True, choices=("E", "F", "residual", "crosscheck"))
    p_scan.add_argument("--out", required=True)

    p_geo = sub.add_parser("geodesic", help="integrate a geodesic and its reverse")
    p_geo.add_argument("config")
    p_geo.add_argument("--x0", required=True, help="start point, e.g. 0,0")
    p_geo.add_argument("--y0", required=True, help="start direction, e.g. 1,0.5")
    p_geo.add_argument("--T", type=float, default=None)
    p_geo.add_argument("--h", type=float, default=None)
    p_geo.add_argument("--out", required=True)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(_attach_negative_values(argv))
    try:
        # Every non-finite sample raises EvalDomainError, so numpy's own
        # warnings would only repeat that message on stderr.
        with np.errstate(all="ignore"):
            cfg = load_config(args.config)
            bundle = cfg.build_bundle()
            # Looked up when it runs, so that a rebound cmd_* name is the one called.
            return globals()[f"cmd_{args.command}"](args, bundle, cfg)
    except (ConfigError, EvalDomainError, PathTooLongError, MemoryError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (FinslerValidationError, SingularHessianError, InconsistentEvidenceError) as exc:
        print(f"validation failure:\n{exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
