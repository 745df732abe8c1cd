"""Closed-form reversibility criterion and classification.

The decision rests on four scalar quantities.  Two depend only on the
profile phi,

    E(s) = s*(phi'(s)*phi''(-s) + phi'(-s)*phi''(s))
           + (phi(-s)*phi''(s) - phi(s)*phi''(-s))
    F(s, b) = (b^2 - s^2)*(phi'(s)*phi''(-s) + phi'(-s)*phi''(s))
              + (phi(-s)*phi'(s) + phi(s)*phi'(-s))

(E is odd in s, F is even), and two depend only on the base data,

    curl = d(b2)/dx1 - d(b1)/dx2
    M(x, t) = K1 + K2*cos 2t + K3*sin 2t   (up to the conformal weight e^{-nu})

with K1 = (d1b1 + d2b2)/2, K2 = (d1b1 - d2b2)/2 - (nu1*b1 - nu2*b2),
K3 = (d1b2 + d2b1)/2 - (nu2*b1 + nu1*b2).  Geodesics reverse exactly when
the combined residual  beta_t * E(beta) * M + F(beta, b) * e^{-nu} * curl
vanishes identically on the unit circle bundle.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .metric import (
    IsothermalMetric,
    LinearForm,
    MetricBundle,
    PhiFunction,
    _beta_pair,
    _row_blocks,
    _zero_test,
    even_odd_decompose,
    sample_grid,
)
from .scalarfield import ExpressionError, _require_finite


# ---------------------------------------------------------------------------
# Profile-level quantities


@dataclass(frozen=True)
class _Ladder:
    """phi, phi' and phi'' at +s and -s, and the product term E and F share."""

    s: np.ndarray
    pp: np.ndarray
    pm: np.ndarray
    d1p: np.ndarray
    d1m: np.ndarray
    d2p: np.ndarray
    d2m: np.ndarray
    cross: np.ndarray  # phi'(s)*phi''(-s) + phi'(-s)*phi''(s)

    def E(self):
        return self.s * self.cross + (self.pm * self.d2p - self.pp * self.d2m)

    def F(self, b):
        return (b * b - self.s * self.s) * self.cross + (self.pm * self.d1p + self.pp * self.d1m)


def _ladder(phi: PhiFunction, s) -> _Ladder:
    """Check |s| < b0, evaluate the six profile fields at +-s once, check them finite."""
    phi.check_s(s)
    pp = phi.phi(s=s)
    pm = phi.phi(s=-s)
    d1p = phi.d1(s=s)
    d1m = phi.d1(s=-s)
    d2p = phi.d2(s=s)
    d2m = phi.d2(s=-s)
    _require_finite({"phi": pp, "phi'": d1p, "phi''": d2p}, {"s": s})
    _require_finite({"phi": pm, "phi'": d1m, "phi''": d2m}, {"s": -s})
    return _Ladder(s, pp, pm, d1p, d1m, d2p, d2m, d1p * d2m + d1m * d2p)


# ---------------------------------------------------------------------------
# Base-point data shared with the frames module


@dataclass(frozen=True)
class PointData:
    nu: np.ndarray
    nu1: np.ndarray
    nu2: np.ndarray
    e_mnu: np.ndarray
    b1: np.ndarray
    b2: np.ndarray
    db1_dx1: np.ndarray
    db1_dx2: np.ndarray
    db2_dx1: np.ndarray
    db2_dx2: np.ndarray


def point_data(form: LinearForm, metric: IsothermalMetric, x1, x2) -> PointData:
    """Evaluate nu, the form components and their first partials at x; all must be finite."""
    env = {"x1": x1, "x2": x2}
    nu = metric.nu.eval(env)
    pd = PointData(
        nu=nu,
        nu1=metric.nu1.eval(env),
        nu2=metric.nu2.eval(env),
        e_mnu=np.exp(-nu),
        b1=form.b1.eval(env),
        b2=form.b2.eval(env),
        db1_dx1=form.db1_d1.eval(env),
        db1_dx2=form.db1_d2.eval(env),
        db2_dx1=form.db2_d1.eval(env),
        db2_dx2=form.db2_d2.eval(env),
    )
    _require_finite(vars(pd), env)
    return pd


@dataclass(frozen=True)
class _Fiber:
    """The fiber quantities at angles t over the base points of a PointData."""

    ct: np.ndarray
    st: np.ndarray
    beta: np.ndarray
    beta_t: np.ndarray
    nu_plus: np.ndarray  # nu1*cos t + nu2*sin t
    nu_minus: np.ndarray  # nu2*cos t - nu1*sin t


def _fiber(pd: PointData, t) -> _Fiber:
    ct, st = np.cos(t), np.sin(t)
    beta, beta_t = _beta_pair(pd.e_mnu, pd.b1, pd.b2, ct, st)
    return _Fiber(ct, st, beta, beta_t, pd.nu1 * ct + pd.nu2 * st, pd.nu2 * ct - pd.nu1 * st)


@dataclass(frozen=True)
class _CoordData:
    """Coordinate partials of p to second order at one fiber angle."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray
    f0: np.ndarray  # phi(beta)
    dp_dx1: np.ndarray
    dp_dx2: np.ndarray
    dp_dt: np.ndarray
    dp_dx1dt: np.ndarray
    dp_dx2dt: np.ndarray
    dp_dtt: np.ndarray


def _coord_data(pd: PointData, fb: _Fiber, f0, f1, f2) -> _CoordData:
    """Partials of p from phi, phi' and phi'' (f0, f1, f2) at the fiber's beta."""
    ct, st, beta, beta_t = fb.ct, fb.st, fb.beta, fb.beta_t
    a = pd.e_mnu * (pd.db1_dx1 * ct + pd.db2_dx1 * st) - pd.nu1 * beta
    b = pd.e_mnu * (pd.db1_dx2 * ct + pd.db2_dx2 * st) - pd.nu2 * beta
    c = pd.e_mnu * (-pd.db1_dx1 * st + pd.db2_dx1 * ct) - pd.nu1 * beta_t
    d = pd.e_mnu * (-pd.db1_dx2 * st + pd.db2_dx2 * ct) - pd.nu2 * beta_t
    return _CoordData(
        a=a,
        b=b,
        c=c,
        d=d,
        f0=f0,
        dp_dx1=f1 * a,
        dp_dx2=f1 * b,
        dp_dt=f1 * beta_t,
        dp_dx1dt=f2 * beta_t * a + f1 * c,
        dp_dx2dt=f2 * beta_t * b + f1 * d,
        dp_dtt=f2 * (beta_t * beta_t) - f1 * beta,
    )


def _p1(pd: PointData, fb: _Fiber, cd: _CoordData):
    return pd.e_mnu * (-cd.dp_dx1 * fb.st + cd.dp_dx2 * fb.ct - cd.dp_dt * fb.nu_plus)


def _p32(pd: PointData, fb: _Fiber, cd: _CoordData):
    return pd.e_mnu * (cd.dp_dx1dt * fb.ct + cd.dp_dx2dt * fb.st + cd.dp_dtt * fb.nu_minus)


def _m_direct_from_point(pd: PointData, fb: _Fiber):
    """Literal evaluation of the base obstruction M at fiber angle t.

    This is the form that appears in the reversibility residual; it carries
    the conformal weight, i.e. it equals e^{-nu} * (K1 + K2 cos2t + K3 sin2t).
    """
    ct, st = fb.ct, fb.st
    block = pd.e_mnu * (
        pd.db1_dx1 * ct * ct
        + st * ct * (pd.db1_dx2 + pd.db2_dx1)
        + pd.db2_dx2 * st * st
    )
    return block + fb.beta_t * fb.nu_minus - fb.beta * fb.nu_plus


# ---------------------------------------------------------------------------
# The reversibility residual


def _criterion_at(pd: PointData, phi: PhiFunction, t):
    """The fiber at the angles t over pd's base points, phi's ladder at its
    beta, M there and the residual beta_t*E*M + F*e^{-nu}*curl."""
    fb = _fiber(pd, t)
    ladder = _ladder(phi, fb.beta)
    m = _m_direct_from_point(pd, fb)
    b = pd.e_mnu * np.hypot(pd.b1, pd.b2)
    curl = pd.db2_dx1 - pd.db1_dx2
    return fb, ladder, m, fb.beta_t * ladder.E() * m + ladder.F(b) * pd.e_mnu * curl


def residual(bundle: MetricBundle, x, t):
    """Signed reversibility defect beta_t*E*M + F*e^{-nu}*curl at (x, t).

    beta_t is used instead of the unsigned root sqrt(b^2 - beta^2); the two
    agree up to sign by the identity beta_t^2 = b^2 - beta^2, so zero-set
    decisions (which use |residual|) are unaffected.
    """
    pd = point_data(bundle.form, bundle.metric, x[0], x[1])
    return _criterion_at(pd, bundle.phi, t)[-1]


# ---------------------------------------------------------------------------
# Classification


class InconsistentEvidenceError(ValueError):
    """Two pieces of classification evidence contradict each other."""


class Verdict(enum.Enum):
    CLASS_A = "ClassA"
    CLASS_B = "ClassB"
    ABSOLUTELY_HOMOGENEOUS = "AbsolutelyHomogeneous"
    TRIVIALLY_PROJECTIVELY_FLAT = "TriviallyProjectivelyFlat"
    IRREVERSIBLE = "Irreversible"
    UNDETERMINED = "Undetermined"


@dataclass(frozen=True)
class Classification:
    verdict: Verdict
    evidence: dict
    residual_max: float
    residual_cutoff: float
    k2: Optional[float]

    def as_text(self) -> str:
        lines = [f"verdict: {self.verdict.value}"]
        lines.append(f"{'zero-test':<12} {'max|value|':>14} {'threshold':>14} pass")
        for name, test in self.evidence.items():
            lines.append(
                f"{name:<12} {test.max_abs:>14.6g} {test.threshold:>14.6g} "
                f"{'yes' if test.passed else 'no'}"
            )
        lines.append(
            f"residual_max = {self.residual_max:.6g} "
            f"(irreversible above {self.residual_cutoff:.6g})"
        )
        if self.k2 is not None:
            lines.append(f"k2 = {self.k2:.12g}")
        return "\n".join(lines)


def _fiber_evidence(pd: PointData, phi: PhiFunction, x1, x2, t):
    """M2, M and the residual at the angles t over pd's base points x, checked finite."""
    fb, beta_ladder, m_values, residual_values = _criterion_at(pd, phi, t)
    # phi, phi' and phi'' at beta serve the frame partials too
    cd = _coord_data(pd, fb, beta_ladder.pp, beta_ladder.d1p, beta_ladder.d2p)
    m2_values = _p32(pd, fb, cd) - _p1(pd, fb, cd)
    # a product can overflow where its factors are finite; name it, not a verdict
    _require_finite(
        {"M": m_values, "residual": residual_values, "M2": m2_values}, {"x1": x1, "x2": x2, "t": t}
    )
    return m2_values, m_values, residual_values


def _fiber_peaks(pd: PointData, phi: PhiFunction, x1, x2, t) -> list:
    """max |M2|, |M| and |residual| over the base x fiber grid, a block of base rows at a time.

    Base data that are constant everywhere give fiber arrays of one row,
    which stay one block.  Max is exact, so the peaks are those of the
    whole grid.  When a block raises, the whole grid runs through the same
    function once, so that the error names the first failing field and
    point of the whole grid.
    """
    varying = [name for name, values in vars(pd).items() if np.ndim(values)]  # (n, 1) columns
    blocks = _row_blocks(len(x1), np.size(t)) if varying else [slice(None)]
    peaks = [0.0, 0.0, 0.0]
    for rows in blocks:
        block = replace(pd, **{name: getattr(pd, name)[rows] for name in varying})
        try:
            values = _fiber_evidence(block, phi, x1[rows], x2[rows], t)
        except ExpressionError:
            _fiber_evidence(pd, phi, x1, x2, t)
            raise
        peaks = [max(p, float(np.max(np.abs(v)))) for p, v in zip(peaks, values)]
    return peaks


def classify(bundle: MetricBundle) -> Classification:
    """Grid-based verdict for the bundle, with the evidence behind it.

    Pattern checks run from the strongest structural property downward:
    an even profile, then the even-plus-linear profile with closed form,
    then the locked-down base (M == 0, curl == 0, constant data), then
    base-projective triviality, and finally a frankly nonzero residual.
    """
    bundle.require_valid()
    sampling = bundle.sampling
    eps0 = sampling.eps_zero
    report = bundle.validate()

    X1, X2, t = sample_grid(bundle.metric.domain, sampling)
    pd = point_data(bundle.form, bundle.metric, X1, X2)
    s_grid = np.linspace(-report.b_sup, report.b_sup, sampling.n_s)

    ladder = _ladder(bundle.phi, s_grid)
    even_gap = ladder.pp - ladder.pm
    e_values = ladder.E()
    curl_values = pd.db2_dx1 - pd.db1_dx2
    b_variation = max(float(np.ptp(pd.b1)), float(np.ptp(pd.b2)))
    b_scale = max(float(np.max(np.abs(pd.b1))), float(np.max(np.abs(pd.b2))))
    nu_variation = float(np.ptp(pd.nu))
    nu_scale = float(np.max(np.abs(pd.nu)))

    m2_peak, m_peak, residual_peak = _fiber_peaks(pd, bundle.phi, X1, X2, t)
    _require_finite({"E": e_values, "even gap": even_gap}, {"s": s_grid})

    evidence = {
        "M2": _zero_test(m2_peak, eps0),
        "even": _zero_test(even_gap, eps0),
        "E": _zero_test(e_values, eps0),
        "curl": _zero_test(curl_values, eps0),
        "M": _zero_test(m_peak, eps0),
        "b_const": _zero_test(b_variation, eps0, b_scale),
        "nu_const": _zero_test(nu_variation, eps0, nu_scale),
        "residual": _zero_test(residual_peak, eps0),
    }

    residual_max = evidence["residual"].max_abs
    residual_cutoff = 1e3 * evidence["residual"].threshold

    decomposition = even_odd_decompose(bundle.phi, sampling.n_s, eps0)
    k2 = decomposition.k2

    if evidence["even"].passed:
        verdict = Verdict.ABSOLUTELY_HOMOGENEOUS
    elif evidence["E"].passed and evidence["curl"].passed:
        # the profile-level split must agree with the vanishing of E
        if not decomposition.is_class_A_shape:
            raise InconsistentEvidenceError(
                f"E vanishes on the grid over |s| <= b_sup = {report.b_sup:.6g}, but the "
                f"odd part of phi is not a multiple of s on (0, b0 = {bundle.phi.b0:.6g})"
            )
        verdict = Verdict.CLASS_A
    elif all(evidence[key].passed for key in ("M", "curl", "b_const", "nu_const")):
        verdict = Verdict.CLASS_B
    elif evidence["M2"].passed:
        verdict = Verdict.TRIVIALLY_PROJECTIVELY_FLAT
    elif residual_max > residual_cutoff:
        verdict = Verdict.IRREVERSIBLE
    else:
        verdict = Verdict.UNDETERMINED

    return Classification(
        verdict=verdict,
        evidence=evidence,
        residual_max=residual_max,
        residual_cutoff=residual_cutoff,
        k2=k2,
    )
