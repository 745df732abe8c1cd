"""Assembly and validation of the norm F = alpha * phi(beta/alpha).

The Riemannian factor is isothermal, a_ij = e^{2 nu} delta_ij, the linear
form is beta = b1*y^1 + b2*y^2 and the profile phi is a scalar field in s
defined on the open interval (-b0, b0).  On the unit circle bundle the norm
restricts to p(x, t) = phi(beta(x, t)) with

    beta   = e^{-nu} * (b1*cos t + b2*sin t)
    beta_t = e^{-nu} * (-b1*sin t + b2*cos t)
    b^2    = e^{-2 nu} * (b1^2 + b2^2)

and the identity beta_t^2 = b^2 - beta^2 holds pointwise.
"""

from __future__ import annotations

import contextlib
import itertools
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .scalarfield import EvalDomainError, ScalarField, _domain_error, _require_finite

PHI_VAR = "s"
BASE_VARS = ("x1", "x2")
# The named profiles, by the [phi] kind that selects them in a config.
PHI_TEXTS = {"randers": "1 + s", "matsumoto": "1 / (1 - s)"}


class FinslerValidationError(ValueError):
    """Raised when an operation requires a bundle that failed validation."""


def zero_threshold(eps_zero: float, scale: float) -> float:
    """Scale-aware tolerance for deciding that a sampled quantity vanishes."""
    return eps_zero * (1.0 + abs(scale))


@dataclass(frozen=True)
class ZeroTest:
    max_abs: float
    threshold: float
    passed: bool


def _zero_test(values, eps_zero: float, scale: Optional[float] = None) -> ZeroTest:
    """Whether max |values| is zero to eps_zero at ``scale``, by default that
    peak itself; values may also be the peak.  Never passes on inf or nan."""
    peak = float(np.max(np.abs(values)))
    thr = zero_threshold(eps_zero, peak if scale is None else scale)
    return ZeroTest(peak, thr, peak <= thr < np.inf)


# ---------------------------------------------------------------------------
# Profile phi


class PhiFunction:
    """Profile phi(s) with symbolic first and second derivatives and bound b0."""

    def __init__(self, phi: ScalarField, b0: float):
        if b0 <= 0:
            raise ValueError("b0 must be positive")
        if phi.variables != (PHI_VAR,):
            raise ValueError(f"phi must be a field in the single variable {PHI_VAR!r}")
        self.phi = phi
        self.d1 = phi.diff(PHI_VAR)
        self.d2 = self.d1.diff(PHI_VAR)
        self.b0 = float(b0)

    @classmethod
    def from_text(cls, text: str, b0: float) -> "PhiFunction":
        return cls(ScalarField.parse(text, (PHI_VAR,)), b0)

    @classmethod
    def randers(cls, b0: float = 0.9) -> "PhiFunction":
        return cls.from_text(PHI_TEXTS["randers"], b0)

    @classmethod
    def matsumoto(cls, b0: float = 0.4) -> "PhiFunction":
        return cls.from_text(PHI_TEXTS["matsumoto"], b0)

    def check_s(self, s) -> None:
        values = np.asarray(s, dtype=float)
        bad = np.abs(values) >= self.b0
        if bad.any():
            raise _domain_error(f"|s| >= b0 = {self.b0}", bad, {"s": values})

    def __repr__(self) -> str:
        return f"PhiFunction({self.phi!r}, b0={self.b0})"


# ---------------------------------------------------------------------------
# Validation of the positivity conditions


@dataclass(frozen=True)
class ValidationReport:
    min_margin_ec1: float   # min of phi - s*phi' + (b^2 - s^2)*phi'' over |s| <= b < b0
    min_margin_ec2: float   # min of phi - s*phi' over (-b0, b0)
    min_phi: float          # min of phi over (-b0, b0)
    passed: bool
    witness: dict

    def as_text(self) -> str:
        lines = [
            f"finsler validation: {'PASS' if self.passed else 'FAIL'}",
            f"min_margin_ec1 = {self.min_margin_ec1:.12g}",
            f"min_margin_ec2 = {self.min_margin_ec2:.12g}",
            f"min_phi = {self.min_phi:.12g}",
        ]
        if self.witness:
            pieces = ", ".join(f"{k}={v:.12g}" for k, v in self.witness.items())
            lines.append(f"witness: {pieces}")
        return "\n".join(lines)


# Values per temporary of a blocked grid evaluation: 2^13 float64 (64 KB)
# keep a block's few dozen temporaries in cache and under glibc's 128 KB
# mmap threshold.  Classify's base x fiber grid and the grid scans run in
# blocks of this size.  On a 2-core Xeon a doubled classify's fiber part
# (42 x 42 x 128) took 29-41 ms from 2^13 to 2^15 values, ~40 ms at 2^16,
# 48-56 ms at 2^17 and ~64 ms unblocked.  Default sampling (21 x 21 x 64)
# runs as 4 blocks, a few per cent slower than one pass once the allocator
# is warm; 2^14 or 2^15 would make that 2 or 1 block but raise a doubled
# classify's tracemalloc peak from ~1.8 MB to ~3.5 or ~6.5 MB.
_BLOCK_VALUES = 1 << 13

# Validation's (s, b) triangle runs in blocks of this many budgets.  Its
# margin keeps a few temporaries per value, not dozens, so a block's fixed
# cost (linspace, three walks, a dozen numpy calls: ~45 us) weighs more.
# With the allocator warm, three profiles validated at n = 201 in
# 0.56-1.44 ms as one block of 2^16 values and in 1.02-2.16 ms as 6 of
# 2^13, and at n = 402 in 2.54-4.70 ms as 3 blocks of 2^16 and in
# 3.42-6.71 ms as 21 of 2^13; 2^17 blocks were slower again at n = 402.
_MARGIN_BUDGETS = 8


def _row_blocks(rows: int, width: int, budgets: int = 1):
    """Consecutive slices of ``rows`` rows of ``width`` values each, as many
    whole rows per slice as fit in ``budgets`` blocks of _BLOCK_VALUES
    values, and at least one."""
    step = max(1, budgets * _BLOCK_VALUES // max(width, 1))
    return (slice(a, a + step) for a in range(0, rows, step))


def _run_block(call, rows: slice, n: int):
    """call(rows) for a _row_blocks slice of n rows.  If it raises EvalDomainError, each row of the
    slice runs alone, in row order, and the first that fails raises its own error: a block call
    evaluates each expression at every point before the next, so its error may name a later point."""
    try:
        return call(rows)
    except EvalDomainError:
        for i in range(*rows.indices(n)):
            call(slice(i, i + 1))
        raise


def _triangle_rows(b0: float, n: int, rows: slice) -> tuple[np.ndarray, np.ndarray]:
    """The rows ``rows`` of the triangular grid of pairs (s, b) with |s| <= b < b0.

    Row i holds n values of s from -b_i to b_i at b_i = b0 (i + 1) / (n + 1),
    b strictly inside the interval; the rows come flattened in row order.
    """
    bs = b0 * (np.arange(1, n + 1) / (n + 1.0))
    # linspace takes its denormal branch for every row once one row's step is
    # 0; the first row has the smallest step, so leading with it keeps the
    # whole grid's branch in every block.
    lead = np.concatenate((bs[:1], bs[rows]))
    return np.linspace(-lead, lead, n, axis=1)[1:].ravel(), np.repeat(bs[rows], n)


def _ec1_margin(phi: PhiFunction, s, b):
    """Convexity margin phi - s*phi' + (b^2 - s^2)*phi'' at the pairs (s, b)."""
    return phi.phi(s=s) - s * phi.d1(s=s) + (b * b - s * s) * phi.d2(s=s)


def _margin_blocks(phi: PhiFunction, grid_n: int):
    """validate_finsler's convexity margin, one of its triangle's blocks at a
    time, as (rows, 3) tables of (s, b, margin) in the triangle's row order;
    in a block that leaves phi's domain, each triangle row that does is NaN."""
    for rows in _row_blocks(grid_n, grid_n, _MARGIN_BUDGETS):
        s, b = (v.reshape(-1, grid_n) for v in _triangle_rows(phi.b0, grid_n, rows))
        try:
            margin = _ec1_margin(phi, s, b)
        except EvalDomainError:
            margin = np.full_like(s, np.nan)
            for i in range(len(s)):
                with contextlib.suppress(EvalDomainError):
                    margin[i] = _ec1_margin(phi, s[i], b[i])
        yield np.stack(np.broadcast_arrays(s, b, margin), axis=-1).reshape(-1, 3)


def _locate_domain_witness(phi: PhiFunction, chunks) -> dict:
    """{"s": s} at the first s of ``chunks``, arrays taken in order, at which
    phi, phi' or phi'' raises EvalDomainError; {} if none does.  Each chunk
    is evaluated as an array, and only the first that raises is walked one
    scalar at a time: every domain check holds elementwise, so a chunk
    raises exactly when one of its values does."""
    fields = (phi.phi, phi.d1, phi.d2)
    for chunk in chunks:
        try:
            for field in fields:
                field(s=chunk)
        except EvalDomainError:
            for s in chunk:
                try:
                    for field in fields:
                        field(s=float(s))
                except EvalDomainError:
                    return {"s": float(s)}
    return {}


def validate_finsler(phi: PhiFunction, grid_n: int = 201) -> ValidationReport:
    """Check positivity of phi, of phi - s*phi' and of the full convexity margin.

    The convexity margin phi - s*phi' + (b^2 - s^2)*phi'' is evaluated on a
    triangular grid {|s| <= b < b0}, in blocks of whole rows; the other two
    quantities on (-b0, b0).  The minima, their first grid points and the
    first non-finite s are bitwise those of one pass over the whole grid.
    A pole of phi inside the interval is reported as a failure with witness.
    """
    if grid_n < 64:
        raise ValueError("grid_n must be at least 64")
    b0 = phi.b0
    edge = b0 * grid_n / (grid_n + 1.0)
    s_line = np.linspace(-edge, edge, 2 * grid_n + 1)
    bad_s = None  # the first s where phi leaves its domain, else (line first) where a value is not finite
    worst_ec1 = None  # (ec1, s, b) at the first occurrence of the triangle's minimum
    s_tri = np.empty(0)  # the triangle block being evaluated; the blocks before it ran without an error
    try:
        # a constant profile evaluates to one value
        phi_line = np.broadcast_to(np.asarray(phi.phi(s=s_line), dtype=float), s_line.shape)
        d1_line = np.asarray(phi.d1(s=s_line), dtype=float)
        ec2 = phi_line - s_line * d1_line
        finite = np.isfinite(phi_line) & np.isfinite(ec2)
        if not finite.all():
            bad_s = float(s_line[int(np.argmin(finite))])
        # every block runs, so that a later domain error still wins
        for rows in _row_blocks(grid_n, grid_n, _MARGIN_BUDGETS):
            s_tri, b_tri = _triangle_rows(b0, grid_n, rows)
            ec1 = _ec1_margin(phi, s_tri, b_tri)
            if bad_s is not None:
                continue
            finite = np.isfinite(ec1)
            if not finite.all():
                bad_s = float(s_tri[int(np.argmin(finite))])
                continue
            i = int(np.argmin(ec1))
            if worst_ec1 is None or ec1[i] < worst_ec1[0]:
                worst_ec1 = (float(ec1[i]), float(s_tri[i]), float(b_tri[i]))
    except EvalDomainError:
        # the line, then the block one triangle row at a time, in chunks of at most grid_n values
        line = (s_line[a : a + grid_n] for a in range(0, len(s_line), grid_n))
        chunks = itertools.chain(line, s_tri.reshape(-1, grid_n))
        bad_s = _locate_domain_witness(phi, chunks).get("s", float("nan"))
    if bad_s is not None:
        return ValidationReport(float("-inf"), float("-inf"), float("-inf"), False, {"s": bad_s})

    min_ec1, s1, b1 = worst_ec1
    i2 = int(np.argmin(ec2))
    i3 = int(np.argmin(phi_line))
    min_ec2 = float(ec2[i2])
    min_phi = float(phi_line[i3])
    passed = min_ec1 > 0.0 and min_ec2 > 0.0 and min_phi > 0.0
    worst = min(
        (min_ec1, {"s": s1, "b": b1}),
        (min_ec2, {"s": float(s_line[i2])}),
        (min_phi, {"s": float(s_line[i3])}),
        key=lambda pair: pair[0],
    )
    return ValidationReport(min_ec1, min_ec2, min_phi, passed, worst[1])


# ---------------------------------------------------------------------------
# Even/odd split of the profile


@dataclass(frozen=True)
class EvenOddDecomposition:
    is_class_A_shape: bool  # odd part is a constant multiple of s
    k2: Optional[float]     # twice that constant when the shape holds


def even_odd_decompose(
    phi: PhiFunction, n_samples: int = 201, eps_zero: float = 1e-9
) -> EvenOddDecomposition:
    """Test whether the odd part (phi(s) - phi(-s))/2 of phi is a constant multiple of s."""
    edge = phi.b0 * n_samples / (n_samples + 1.0)
    grid = np.linspace(0.05 * edge, edge, n_samples)
    plus, minus = np.broadcast_to(phi.phi(s=np.stack([grid, -grid])), (2, n_samples))
    ratios = (plus - minus) / grid  # twice the odd part over s
    spread = float(np.max(ratios) - np.min(ratios))
    scale = float(np.max(np.abs(ratios)))
    constant = _zero_test(spread, eps_zero, scale).passed
    k2 = float(np.mean(ratios)) if constant else None
    return EvenOddDecomposition(constant, k2)


# ---------------------------------------------------------------------------
# Base geometry


@dataclass(frozen=True)
class Rectangle:
    x1min: float
    x1max: float
    x2min: float
    x2max: float

    def contains(self, x1, x2):
        """Whether (x1, x2) lies in the closed rectangle; elementwise on arrays."""
        return (self.x1min <= x1) & (x1 <= self.x1max) & (self.x2min <= x2) & (x2 <= self.x2max)

    @property
    def extent(self) -> float:
        return max(self.x1max - self.x1min, self.x2max - self.x2min)


class IsothermalMetric:
    """Riemannian factor a_ij = e^{2 nu} delta_ij on a coordinate rectangle."""

    def __init__(self, nu: ScalarField, domain: Rectangle):
        if nu.variables != BASE_VARS:
            raise ValueError(f"nu must be a field in {BASE_VARS}")
        self.nu = nu
        self.nu1 = nu.diff("x1")
        self.nu2 = nu.diff("x2")
        self.domain = domain

    @classmethod
    def from_text(cls, text: str, domain: Rectangle) -> "IsothermalMetric":
        return cls(ScalarField.parse(text, BASE_VARS), domain)


class LinearForm:
    """Linear form beta = b1*y^1 + b2*y^2 with symbolic first partials."""

    def __init__(self, b1: ScalarField, b2: ScalarField):
        for f in (b1, b2):
            if f.variables != BASE_VARS:
                raise ValueError(f"form components must be fields in {BASE_VARS}")
        self.b1 = b1
        self.b2 = b2
        self.db1_d1 = b1.diff("x1")
        self.db1_d2 = b1.diff("x2")
        self.db2_d1 = b2.diff("x1")
        self.db2_d2 = b2.diff("x2")

    @classmethod
    def from_text(cls, b1_text: str, b2_text: str) -> "LinearForm":
        return cls(ScalarField.parse(b1_text, BASE_VARS), ScalarField.parse(b2_text, BASE_VARS))


@dataclass(frozen=True)
class Sampling:
    n_x1: int = 21
    n_x2: int = 21
    n_t: int = 64
    n_s: int = 201
    eps_zero: float = 1e-9

    def doubled(self) -> "Sampling":
        return Sampling(2 * self.n_x1, 2 * self.n_x2, 2 * self.n_t, 2 * self.n_s, self.eps_zero)

    @property
    def validation_n(self) -> int:  # the side of validation's grids, at least validate_finsler's 64
        return max(self.n_s, 64)


def sample_grid(domain: Rectangle, sampling: Sampling) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Base x fiber grid on which the criterion is sampled.

    Returns X1 and X2 as (n_x1*n_x2, 1) columns, x1 outermost, and t as a
    (1, n_t) row of angles in [0, 2 pi), so that broadcasting them gives
    one row per base point and one column per fiber angle.
    """
    xs1 = np.linspace(domain.x1min, domain.x1max, sampling.n_x1)
    xs2 = np.linspace(domain.x2min, domain.x2max, sampling.n_x2)
    g1, g2 = np.meshgrid(xs1, xs2, indexing="ij")
    t = np.linspace(0.0, 2.0 * np.pi, sampling.n_t, endpoint=False)
    return g1.reshape(-1, 1), g2.reshape(-1, 1), t[None, :]


@dataclass(frozen=True)
class BundleValidationReport:
    phi_report: ValidationReport
    b_sup: float
    b_margin: float  # b0 - sup of b(x); must stay strictly positive
    passed: bool

    def as_text(self) -> str:
        lines = [self.phi_report.as_text()]
        lines.append(f"b_sup = {self.b_sup:.12g}")
        lines.append(f"b_margin = {self.b_margin:.12g}")
        lines.append(f"bundle validation: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)


class MetricBundle:
    """The triple (isothermal metric, linear form, profile) plus sampling policy."""

    def __init__(
        self,
        metric: IsothermalMetric,
        form: LinearForm,
        phi: PhiFunction,
        sampling: Sampling = Sampling(),
    ):
        self.metric = metric
        self.form = form
        self.phi = phi
        self.sampling = sampling
        self._report: Optional[BundleValidationReport] = None
        self._oracle = None  # geodesics' compiled norm and spray step, built on first use

    def b_norm(self, x1, x2):
        """Riemannian length b(x) of the form, e^{-nu} * sqrt(b1^2 + b2^2)."""
        env = {"x1": x1, "x2": x2}
        b1 = self.form.b1.eval(env)
        b2 = self.form.b2.eval(env)
        nu = self.metric.nu.eval(env)
        e_mnu = np.exp(-nu)
        _require_finite({"nu": nu, "b1": b1, "b2": b2, "exp(-nu)": e_mnu}, env)
        return e_mnu * np.hypot(b1, b2)

    def b_sup(self) -> float:
        """Max of b(x) on a base grid three times finer than the sampling's."""
        fine = replace(self.sampling, n_x1=3 * self.sampling.n_x1, n_x2=3 * self.sampling.n_x2)
        X1, X2, _ = sample_grid(self.metric.domain, fine)
        return float(np.max(self.b_norm(X1, X2)))

    def validate(self) -> BundleValidationReport:
        if self._report is None:
            phi_report = validate_finsler(self.phi, self.sampling.validation_n)
            b_sup = self.b_sup()
            margin = self.phi.b0 - b_sup
            self._report = BundleValidationReport(
                phi_report=phi_report,
                b_sup=b_sup,
                b_margin=margin,
                passed=phi_report.passed and margin > 0.0,
            )
        return self._report

    def require_valid(self) -> None:
        report = self.validate()
        if not report.passed:
            raise FinslerValidationError(report.as_text())


# ---------------------------------------------------------------------------
# The linear form on the indicatrix


def _beta_pair(e_mnu, b1, b2, ct, st):
    """(beta, beta_t) at the fiber angle with cosine ct and sine st."""
    return e_mnu * (b1 * ct + b2 * st), e_mnu * (-b1 * st + b2 * ct)
