"""Command-line front end: validate, classify, scan and geodesic runs.

Exit codes: 0 success; 1 config or I/O error, including an expression
evaluated outside its domain (EvalDomainError); 2 validation failure,
including a fiber Hessian of F^2 that is not positive definite along a
geodesic (SingularHessianError), a failed convexity check of the frame
oracle (ConvexityError) and classification evidence that contradicts
itself (InconsistentEvidenceError); 3 geodesic truncated at the domain
boundary.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .config import ConfigError, load_config
from .frames import ConvexityError, crosscheck
from .geodesics import (
    SingularHessianError,
    backward_duration,
    integrate,
    path_distance,
    path_prefix,
    relaunch,
)
from .metric import FinslerValidationError, MetricBundle
from .reversibility import InconsistentEvidenceError, calE, calF, classify, residual
from .scalarfield import EvalDomainError

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_VALIDATION = 2
EXIT_TRUNCATED = 3


def _format(value: float) -> str:
    return f"{value:.17g}"


def write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(",".join(header) + "\n")
        for row in rows:
            handle.write(",".join(_format(v) for v in row) + "\n")


def _load_bundle(path: str) -> tuple[MetricBundle, "ExperimentConfig"]:
    cfg = load_config(path)
    return cfg.build_bundle(), cfg


def cmd_validate(args) -> int:
    bundle, _ = _load_bundle(args.config)
    report = bundle.validate()
    print(report.as_text())
    if args.out:
        _write_validation_csv(args.out, bundle)
    return EXIT_OK if report.passed else EXIT_VALIDATION


def _write_validation_csv(path: str, bundle: MetricBundle) -> None:
    phi = bundle.phi
    n = max(bundle.sampling.n_s, 64)
    rows = []
    bs = phi.b0 * (np.arange(1, n + 1) / (n + 1.0))
    for b in bs:
        s = np.linspace(-b, b, n)
        try:
            margin = phi.phi(s=s) - s * phi.d1(s=s) + (b * b - s * s) * phi.d2(s=s)
        except EvalDomainError:
            margin = np.full_like(s, float("nan"))
        rows.extend((float(sv), float(b), float(m)) for sv, m in zip(s, np.broadcast_to(margin, s.shape)))
    write_csv(path, ["s", "b", "ec1_margin"], rows)


def cmd_classify(args) -> int:
    bundle, _ = _load_bundle(args.config)
    result = classify(bundle)
    print(result.as_text())
    return EXIT_OK


def _scan_rows(bundle: MetricBundle, what: str):
    sampling = bundle.sampling
    report = bundle.validate()
    if what in ("E", "F"):
        s = np.linspace(-report.b_sup, report.b_sup, sampling.n_s)
        e_vals = np.broadcast_to(calE(bundle.phi, s), s.shape)
        f_vals = np.broadcast_to(calF(bundle.phi, s, report.b_sup), s.shape)
        return ["s", "E", "F"], zip(s, e_vals, f_vals)

    d = bundle.metric.domain
    xs1 = np.linspace(d.x1min, d.x1max, sampling.n_x1)
    xs2 = np.linspace(d.x2min, d.x2max, sampling.n_x2)
    ts = bundle.t_grid()
    rows = []
    if what == "residual":
        for x1 in xs1:
            for x2 in xs2:
                values = np.broadcast_to(residual(bundle, (x1, x2), ts), ts.shape)
                rows.extend((x1, x2, t, v) for t, v in zip(ts, values))
        return ["x1", "x2", "t", "residual"], rows
    if what == "crosscheck":
        for x1 in xs1:
            for x2 in xs2:
                result = crosscheck(bundle, (x1, x2), ts)
                direct = np.broadcast_to(result.direct, ts.shape)
                closed = np.broadcast_to(result.closed_form, ts.shape)
                gap = np.broadcast_to(result.relative_gap, ts.shape)
                rows.extend(
                    (x1, x2, t, dv, cv, gv)
                    for t, dv, cv, gv in zip(ts, direct, closed, gap)
                )
        return ["x1", "x2", "t", "direct", "closed_form", "gap"], rows
    raise ConfigError(f"unknown scan kind {what!r}")


def cmd_scan(args) -> int:
    bundle, _ = _load_bundle(args.config)
    bundle.require_valid()
    header, rows = _scan_rows(bundle, args.what)
    try:
        write_csv(args.out, header, rows)
    except OSError as exc:
        print(f"cannot write {args.out}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


def _parse_pair(text: str, label: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ConfigError(f"{label} must be two comma-separated numbers")
    try:
        return float(parts[0]), float(parts[1])
    except ValueError:
        raise ConfigError(f"{label} must be two comma-separated numbers") from None


def _rev_path_name(path: str) -> str:
    stem, dot, ext = path.rpartition(".")
    return f"{stem}_rev.{ext}" if dot else f"{path}_rev"


def cmd_geodesic(args) -> int:
    bundle, cfg = _load_bundle(args.config)
    bundle.require_valid()
    x0 = _parse_pair(args.x0, "--x0")
    y0 = _parse_pair(args.y0, "--y0")
    if y0 == (0.0, 0.0):
        raise ConfigError("--y0 must be nonzero")
    T = args.T if args.T is not None else cfg.T
    h = args.h if args.h is not None else cfg.h

    forward = integrate(bundle, x0, y0, T, h)
    # One backward run serves both paths: the one the error is measured on,
    # of duration t_back, and the _rev path, which runs for the forward
    # path's covered duration.
    t_back = backward_duration(bundle, forward)
    t_rev = max(forward.duration, h)
    relaunched = relaunch(bundle, forward, max(t_back, t_rev))
    error = path_distance(forward, path_prefix(relaunched, t_back))
    backward = path_prefix(relaunched, t_rev)

    write_csv(
        args.out,
        ["step", "x1", "x2"],
        ((float(i), p[0], p[1]) for i, p in enumerate(forward.samples)),
    )
    write_csv(
        _rev_path_name(args.out),
        ["step", "x1", "x2"],
        ((float(i), p[0], p[1]) for i, p in enumerate(backward.samples)),
    )
    print(f"reversibility_error = {error:.12g}")
    if forward.truncated or backward.truncated:
        print("path truncated at the domain boundary", file=sys.stderr)
        return EXIT_TRUNCATED
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="geodrev",
        description="Decide whether a 2-dimensional (alpha,beta) Finsler structure "
        "has reversible geodesics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="check the positivity conditions")
    p_validate.add_argument("config")
    p_validate.add_argument("--out", default=None, help="optional CSV of the convexity margin")
    p_validate.set_defaults(fn=cmd_validate)

    p_classify = sub.add_parser("classify", help="run the reversibility classification")
    p_classify.add_argument("config")
    p_classify.set_defaults(fn=cmd_classify)

    p_scan = sub.add_parser("scan", help="dump criterion quantities as CSV")
    p_scan.add_argument("config")
    p_scan.add_argument("--what", required=True, choices=("E", "F", "residual", "crosscheck"))
    p_scan.add_argument("--out", required=True)
    p_scan.set_defaults(fn=cmd_scan)

    p_geo = sub.add_parser("geodesic", help="integrate a geodesic and its reverse")
    p_geo.add_argument("config")
    p_geo.add_argument("--x0", required=True, help="start point, e.g. 0,0")
    p_geo.add_argument("--y0", required=True, help="start direction, e.g. 1,0.5")
    p_geo.add_argument("--T", type=float, default=None)
    p_geo.add_argument("--h", type=float, default=None)
    p_geo.add_argument("--out", required=True)
    p_geo.set_defaults(fn=cmd_geodesic)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, EvalDomainError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (
        FinslerValidationError, SingularHessianError, ConvexityError, InconsistentEvidenceError
    ) as exc:
        print(f"validation failure:\n{exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
