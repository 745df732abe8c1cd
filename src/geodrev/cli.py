"""Command-line front end: validate, classify, scan and geodesic runs.

Exit codes: 0 success; 1 usage, config or I/O error, including an
expression evaluated outside its domain (EvalDomainError), a non-finite
number, an F^2 that underflows to 0 or is not finite along a geodesic, a
start point outside the domain, a start vector of extreme length, an
expression nested deeper than scalarfield.MAX_DEPTH, a grid within the
sampling bounds that the host cannot allocate (MemoryError) and a geodesic
run too long for its trajectory buffer (PathTooLongError);
2 validation failure, including a fiber Hessian of F^2 that is not
positive definite along a geodesic (SingularHessianError) and
classification evidence that contradicts itself
(InconsistentEvidenceError); 3 geodesic truncated at the domain boundary,
including a step whose RK4 stage fails outside the domain.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import re
import sys

import numpy as np

from .config import ConfigError, ExperimentConfig, load_config
from .frames import crosscheck
from .geodesics import SPEED_DECADES, PathTooLongError, SingularHessianError, _probe
from .metric import FinslerValidationError, MetricBundle, _margin_blocks, _row_blocks, _run_block, sample_grid
from .reversibility import InconsistentEvidenceError, _profile_ladder, classify, residual
from .scalarfield import EvalDomainError

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_VALIDATION = 2
EXIT_TRUNCATED = 3


def _texts(keys: np.ndarray):
    """The strings of a column of 64-bit patterns as %.17g, or None if more
    than half of its values are distinct.

    Each distinct value is formatted once.  Values are keyed by their 64-bit
    pattern, so 0.0 and -0.0, and nans of different sign or payload, keep
    their own text.  Deduplicating costs about 0.34 us per row (the sort,
    the gather into strings and a %s pass), formatting 0.6-1.1 us per
    distinct value, so once more than half the values are distinct, the
    column is cheaper formatted as %.17g in row order, repeats and all.
    """
    ranked = np.sort(keys)
    first = np.concatenate(([True], ranked[1:] != ranked[:-1]))
    if 2 * np.count_nonzero(first) > len(keys):
        return None
    distinct = ranked[first]
    text = ("\n".join(["%.17g"] * len(distinct)) % tuple(distinct.view(float).tolist())).split("\n")
    return np.array(text, dtype=object)[np.searchsorted(distinct, keys)]


def _args(table: np.ndarray, texts: list) -> tuple:
    """The % arguments of a (rows, columns) table in row order: a column's
    strings, or its floats where ``texts`` holds None."""
    if all(text is None for text in texts):
        # Python floats made in row order, which the formatting pass reads
        # faster than floats made column by column.
        return tuple(table.ravel().tolist())
    args = np.empty(table.shape, dtype=object)
    for c, text in enumerate(texts):
        args[:, c] = table[:, c] if text is None else text
    return tuple(args.ravel().tolist())


def _spec(text) -> str:
    return "%.17g" if text is None else "%s"


def _grid_text(grid: np.ndarray) -> str:
    """The lines of a (base points, angles, columns) block, every value as %.17g.

    Each column is classified from its 64-bit patterns.  A column with the
    same sequence in every base point, as t or a constant has, is baked into
    one template of a base point's lines.  The first run of adjacent columns
    that are constant within every base point, as x1 and x2 are, is one
    placeholder in the template, filled once per base point.  The remaining
    columns are inserted row by row in one % pass over the block.  A block of
    one base point bakes every column.  In each of the three, a column of
    which at most half the values are distinct goes in as the texts of its
    distinct values, each formatted once; any other column goes in as floats
    for the pass to format, which costs less than deduplicating values that
    barely repeat (see _texts).
    """
    nb, nt, width = grid.shape
    keys = grid.view(np.int64).transpose(2, 0, 1).copy()  # column, base point, angle
    same = (keys == keys[:, :1]).reshape(width, -1).all(axis=1)
    flat = (keys == keys[:, :, :1]).reshape(width, -1).all(axis=1)
    line, baked, baked_texts, prefix, inserted, inserted_texts = [], [], [], [], [], []
    for c in range(width):
        if same[c]:
            baked.append(c)
            baked_texts.append(_texts(keys[c, 0]))
            line.append(_spec(baked_texts[-1]))
        elif flat[c] and (not prefix or prefix[-1] == c - 1):
            if not prefix:
                line.append("\0")
            prefix.append(c)
        else:
            inserted.append(c)
            inserted_texts.append(_texts(keys[c].ravel()))
            line.append("%" + _spec(inserted_texts[-1]))
    template = (",".join(line) + "\n") * nt % _args(grid[0][:, baked], baked_texts)
    if prefix:
        texts = [_texts(keys[c, :, 0]) for c in prefix]
        pattern = ",".join(map(_spec, texts))
        subs = ("\n".join([pattern] * nb) % _args(grid[:, 0, prefix], texts)).split("\n")
        pieces = template.split("\0")
        body = "".join([sub.join(pieces) for sub in subs])
    else:
        body = template * nb
    if inserted:
        body %= _args(grid[:, :, inserted].reshape(-1, len(inserted)), inserted_texts)
    return body


def write_csv(path: str, header: list[str], blocks) -> None:
    """Write a header line, then each block's lines as it arrives, every value as %.17g.

    A block is a (rows, len(header)) table or a grid scan's (base points,
    angles, len(header)) one, lines over base points, then angles; one base
    point is written in _row_blocks slices.  A new file is created at
    ``path``, or next to an existing one that it replaces after the last
    block, and removed if a block or a write fails.  A symlink, device or
    pipe, or a file or directory that this process may not write, is written
    in place, as open(path, "w") does.
    """
    exists = os.path.lexists(path)
    direct = exists and (os.path.islink(path) or not os.path.isfile(path) or not os.access(path, os.W_OK)
                         or not os.access(os.path.dirname(path) or ".", os.W_OK))
    temp = f"{path}.{os.getpid()}.tmp" if exists and not direct else path
    handle = open(temp, "w" if direct else "x", encoding="utf-8", newline="\n")
    try:
        with handle:
            handle.write(",".join(header) + "\n")
            for block in blocks:
                block = np.asarray(block, dtype=float)
                if block.ndim not in (2, 3) or block.shape[-1] != len(header):
                    raise ValueError(f"rows of {len(header)} values expected, got shape {block.shape}")
                grid = block if block.ndim == 3 else block[None]
                for rows in _row_blocks(grid.shape[1], len(header)) if len(grid) == 1 else [slice(None)]:
                    handle.write(_grid_text(grid[:, rows]))
        if temp != path:
            os.chmod(temp, os.stat(path).st_mode & 0o7777)  # open(path, "w") keeps an existing file's mode
            os.replace(temp, path)
    except BaseException:
        if not direct:
            os.unlink(temp)
        raise


def cmd_validate(args, bundle: MetricBundle, cfg: ExperimentConfig) -> int:
    report = bundle.validate()
    print(report.as_text())
    if args.out is not None:
        blocks = _margin_blocks(bundle.phi, bundle.sampling.validation_n)
        write_csv(args.out, ["s", "b", "ec1_margin"], blocks)
    return EXIT_OK if report.passed else EXIT_VALIDATION


def cmd_classify(args, bundle: MetricBundle, cfg: ExperimentConfig) -> int:
    result = classify(bundle)
    print(result.as_text())
    return EXIT_OK


SCAN_HEADERS = {
    "E": ["s", "E", "F"],
    "F": ["s", "E", "F"],
    "residual": ["x1", "x2", "t", "residual"],
    "crosscheck": ["x1", "x2", "t", "direct", "closed_form", "gap"],
}


def _scan_rows(bundle: MetricBundle, what: str):
    """The blocks of a scan's rows, each evaluated when the writer asks for it:
    E and F are one (rows, 3) table over s; a grid scan runs in _row_blocks
    of whole base points x angles, x1 outermost, then x2, then t.
    """
    report = bundle.validate()
    if what in ("E", "F"):
        ladder = _profile_ladder(bundle)
        yield np.stack(np.broadcast_arrays(ladder.s, ladder.E(), ladder.F(report.b_sup)), axis=-1)
        return
    X1, X2, t = sample_grid(bundle.metric.domain, bundle.sampling)
    def evaluate(rows):
        x = X1[rows], X2[rows]
        if what == "residual":
            return [residual(bundle, x, t)]
        result = crosscheck(bundle, x, t)
        return [result.direct, result.closed_form, result.relative_gap]
    for rows in _row_blocks(len(X1), t.size):
        values = _run_block(evaluate, rows, len(X1))
        yield np.stack(np.broadcast_arrays(X1[rows], X2[rows], t, *values), axis=-1)


def cmd_scan(args, bundle: MetricBundle, cfg: ExperimentConfig) -> int:
    bundle.require_valid()
    write_csv(args.out, SCAN_HEADERS[args.what], _scan_rows(bundle, args.what))
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
    if T / h <= 0.5:  # _steps would round the run up to one whole step
        raise ConfigError(f"T = {T} is at most half the step h = {h}: the geodesic would take no step")

    ((forward, backward, error),) = _probe(bundle, x0, [y0], T, h)
    rev = "_rev".join(os.path.splitext(args.out))  # "_rev" before the extension: g.csv -> g_rev.csv
    for path, run in ((args.out, forward), (rev, backward)):
        table = np.column_stack((np.arange(len(run.samples), dtype=float), run.samples))
        write_csv(path, ["step", "x1", "x2"], [table])
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
    p_scan.add_argument("--what", required=True, choices=tuple(SCAN_HEADERS))
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
