"""Direct computations on the unit circle bundle of the Riemannian factor.

The bundle carries the coframe

    a1 = -e^nu sin t dx1 + e^nu cos t dx2
    a2 =  e^nu cos t dx1 + e^nu sin t dx2
    a3 = -nu_2 dx1 + nu_1 dx2 + dt

whose dual frame drives the directional derivatives p_1, p_2, p_3, p_31,
p_32, p_33 (and the third-order p_332, p_333) of the restricted norm
p(x, t) = phi(beta(x, t)).  These feed the deformed coframe w1, w2, w3 of
the Finsler structure and the raw projective-equivalence defect

    (p_32 - p_1)(r + r_33) - (r_32 - r_1)(p + p_33),      r(x,t) = p(x,t+pi)

which is checked against the closed-form residual of the reversibility
module; the two agree up to the positive factor e^{-nu}.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .metric import IsothermalMetric, MetricBundle, PhiFunction, beta_on_indicatrix
from .reversibility import (
    PointData,
    _CoordData,
    _Fiber,
    _coord_data,
    _fiber,
    _ladder,
    _m_direct_from_point,
    _p1,
    _p32,
    _residual_from_point,
    point_data,
)
from .scalarfield import (
    Expr,
    Var,
    add,
    const,
    diff_expr,
    eval_expr,
    func,
    mul,
    neg,
    sub,
)


class ConvexityError(ValueError):
    """The fiberwise convexity quantity p + p_33 failed to stay positive."""

    def __init__(self, x, t, value):
        super().__init__(f"p + p33 = {value:.6g} <= 0 at x={x}, t={t:.6g}")
        self.witness = (x, t, value)


# ---------------------------------------------------------------------------
# Coframe and dual frame


def alpha_coframe(metric: IsothermalMetric, x, t) -> np.ndarray:
    """Rows a1, a2, a3 in the coordinate cobasis (dx1, dx2, dt), shape (3, 3)."""
    pd_env = {"x1": x[0], "x2": x[1]}
    e_nu = np.exp(metric.nu.eval(pd_env))
    nu1 = metric.nu1.eval(pd_env)
    nu2 = metric.nu2.eval(pd_env)
    ct, st = np.cos(t), np.sin(t)
    return np.array(
        [
            [-e_nu * st, e_nu * ct, 0.0],
            [e_nu * ct, e_nu * st, 0.0],
            [-nu2, nu1, 1.0],
        ]
    )


def dual_frame(metric: IsothermalMetric, x, t) -> np.ndarray:
    """Vectors e1, e2, e3 (rows, coefficients on d/dx1, d/dx2, d/dt) dual to the coframe."""
    pd_env = {"x1": x[0], "x2": x[1]}
    e_mnu = np.exp(-metric.nu.eval(pd_env))
    nu1 = metric.nu1.eval(pd_env)
    nu2 = metric.nu2.eval(pd_env)
    ct, st = np.cos(t), np.sin(t)
    return np.array(
        [
            [-e_mnu * st, e_mnu * ct, -e_mnu * (nu1 * ct + nu2 * st)],
            [e_mnu * ct, e_mnu * st, e_mnu * (nu2 * ct - nu1 * st)],
            [0.0, 0.0, 1.0],
        ]
    )


# ---------------------------------------------------------------------------
# Directional derivatives of p along the dual frame


@dataclass(frozen=True)
class DirectionalDerivs:
    p: np.ndarray
    p1: np.ndarray
    p2: np.ndarray
    p3: np.ndarray
    p31: np.ndarray
    p32: np.ndarray
    p33: np.ndarray
    p332: np.ndarray
    p333: np.ndarray


def _coord_at(pd: PointData, phi: PhiFunction, fb: _Fiber) -> _CoordData:
    """_coord_data with phi, phi' and phi'' evaluated at the fiber's beta."""
    phi.check_s(fb.beta)
    return _coord_data(pd, fb, phi.phi(s=fb.beta), phi.d1(s=fb.beta), phi.d2(s=fb.beta))


def directional_grid(pd: PointData, phi: PhiFunction, t) -> DirectionalDerivs:
    """Vectorized closed-form directional derivatives over base x fiber grids."""
    fb = _fiber(pd, t)
    ct, st, beta, beta_t = fb.ct, fb.st, fb.beta, fb.beta_t
    phi.check_s(beta)
    f0, f1, f2, f3 = (field(s=beta) for field in (phi.phi, phi.d1, phi.d2, phi.d3))
    cd = _coord_data(pd, fb, f0, f1, f2)
    bt2 = beta_t * beta_t
    dp_dttt = f3 * beta_t * bt2 - 3.0 * f2 * beta * beta_t - f1 * beta_t
    dp_dx1dtt = f3 * cd.a * bt2 + 2.0 * f2 * beta_t * cd.c - f2 * cd.a * beta - f1 * cd.a
    dp_dx2dtt = f3 * cd.b * bt2 + 2.0 * f2 * beta_t * cd.d - f2 * cd.b * beta - f1 * cd.b
    return DirectionalDerivs(
        p=f0,
        p1=_p1(pd, fb, cd),
        p2=pd.e_mnu * (cd.dp_dx1 * ct + cd.dp_dx2 * st + cd.dp_dt * fb.nu_minus),
        p3=cd.dp_dt,
        p31=pd.e_mnu * (-cd.dp_dx1dt * st + cd.dp_dx2dt * ct - cd.dp_dtt * fb.nu_plus),
        p32=_p32(pd, fb, cd),
        p33=cd.dp_dtt,
        p332=pd.e_mnu * (dp_dx1dtt * ct + dp_dx2dtt * st + dp_dttt * fb.nu_minus),
        p333=dp_dttt,
    )


def frame_fd_derivs(bundle: MetricBundle, x, t) -> DirectionalDerivs:
    """Directional derivatives by central differences along the dual frame,
    the oracle that directional_derivs is tested against.

    The step sizes are tiered: plain 1e-5 (scaled by the coordinate extent)
    is optimal for first derivatives but drowns third-order stencils in
    rounding noise, so the second- and third-order ladders use larger steps.
    """
    scale = max(1.0, bundle.metric.domain.extent / 2.0)
    h1 = 1e-5 * scale
    h2 = 1e-4 * scale
    h3 = 1e-3 * scale

    def p(q):
        beta, _, _ = beta_on_indicatrix(bundle, q[:2], q[2])
        return float(bundle.phi.phi(s=beta))

    frame = dual_frame(bundle.metric, (x[0], x[1]), t)
    q0 = np.array([x[0], x[1], t], dtype=float)

    def along(fn, vec, h, q=q0):
        return (fn(q + h * vec) - fn(q - h * vec)) / (2.0 * h)

    e1, e2 = frame[0], frame[1]
    et = np.array([0.0, 0.0, 1.0])

    def p3(q, h=h2):
        return (p(q + h * et) - p(q - h * et)) / (2.0 * h)

    def p33(q, h=h2):
        return (p(q + h * et) - 2.0 * p(q) + p(q - h * et)) / (h * h)

    p333 = (p(q0 + 2 * h3 * et) - 2 * p(q0 + h3 * et) + 2 * p(q0 - h3 * et) - p(q0 - 2 * h3 * et)) / (
        2.0 * h3 ** 3
    )
    return DirectionalDerivs(
        p=p(q0),
        p1=along(p, e1, h1),
        p2=along(p, e2, h1),
        p3=p3(q0, h1),
        p31=along(lambda q: p3(q), e1, h2),
        p32=along(lambda q: p3(q), e2, h2),
        p33=p33(q0),
        p332=along(lambda q: p33(q, h3), e2, h3),
        p333=p333,
    )


def directional_derivs(bundle: MetricBundle, x, t) -> DirectionalDerivs:
    """Closed-form directional derivatives of p at (x, t)."""
    pd = point_data(bundle.form, bundle.metric, x[0], x[1])
    return directional_grid(pd, bundle.phi, t)


# ---------------------------------------------------------------------------
# Deformed coframe of the Finsler structure


def omega_coframe(bundle: MetricBundle, x, t) -> np.ndarray:
    """Coframe rows w1, w2, w3 built from the directional derivatives of p."""
    alpha = alpha_coframe(bundle.metric, x, t)
    dd = directional_derivs(bundle, x, t)
    convexity = dd.p + dd.p33
    if convexity <= 0.0:
        raise ConvexityError(x, t, float(convexity))
    root = np.sqrt(dd.p * convexity)
    p_p = 0.5 * (
        dd.p3 * dd.p32 * dd.p33
        - dd.p3 * dd.p33 * dd.p1
        + dd.p * dd.p333 * dd.p32
        - dd.p * dd.p1 * dd.p333
        + 2.0 * dd.p * dd.p32 * dd.p3
        - 2.0 * dd.p * dd.p1 * dd.p3
        - 3.0 * dd.p * dd.p2 * dd.p33
        - dd.p ** 2 * dd.p332
        - 2.0 * dd.p ** 2 * dd.p2
        - dd.p2 * dd.p33 ** 2
        - dd.p * dd.p332 * dd.p33
    )
    w1 = root * alpha[0]
    w2 = dd.p * alpha[1] + dd.p3 * alpha[0]
    w3 = (convexity * alpha[2] + (dd.p32 - dd.p1) * alpha[1]) / root + (
        p_p / np.sqrt(dd.p ** 3 * convexity ** 3)
    ) * alpha[0]
    return np.array([w1, w2, w3])


# ---------------------------------------------------------------------------
# Frame-level intermediates and the raw projective-equivalence defect


@dataclass(frozen=True)
class FrameIntermediates:
    T1: np.ndarray
    T2: np.ndarray
    T3: np.ndarray
    T4: np.ndarray
    G: np.ndarray
    H: np.ndarray
    nu_plus: np.ndarray
    nu_minus: np.ndarray


def frame_intermediates(bundle: MetricBundle, x, t) -> FrameIntermediates:
    pd = point_data(bundle.form, bundle.metric, x[0], x[1])
    fb = _fiber(pd, t)
    cp = _coord_at(pd, bundle.phi, fb)
    cr = _coord_at(pd, bundle.phi, _fiber(pd, np.asarray(t) + np.pi))
    ct, st = fb.ct, fb.st
    t1 = ct * (cp.dp_dx1dt - cp.dp_dx2) + st * (cp.dp_dx2dt + cp.dp_dx1)
    t2 = ct * (cr.dp_dx1dt - cr.dp_dx2) + st * (cr.dp_dx2dt + cr.dp_dx1)
    t3 = cp.dp_dtt * cr.f0 - cr.dp_dtt * cp.f0
    t4 = cp.dp_dt * (cr.dp_dtt + cr.f0) - cr.dp_dt * (cp.dp_dtt + cp.f0)
    return FrameIntermediates(
        T1=t1,
        T2=t2,
        T3=t3,
        T4=t4,
        G=cp.a * ct + cp.b * st,
        H=(cp.c - cp.b) * ct + (cp.a + cp.d) * st,
        nu_plus=fb.nu_plus,
        nu_minus=fb.nu_minus,
    )


def ecprinc_direct(bundle: MetricBundle, x, t):
    """Raw defect (p32 - p1)(r + r33) - (r32 - r1)(p + p33) at (x, t).

    Every r-quantity comes from the p-ladder evaluated at t + pi, combined
    with the frame at angle t; nothing about r is coded independently.
    """
    pd = point_data(bundle.form, bundle.metric, x[0], x[1])
    fb = _fiber(pd, t)
    return _ecprinc_from_point(pd, bundle.phi, t, fb, _coord_at(pd, bundle.phi, fb))


def _ecprinc_from_point(pd: PointData, phi: PhiFunction, t, fb: _Fiber, cp: _CoordData):
    """The raw defect from the p-partials cp at angle t (fiber fb)."""
    cr = _coord_at(pd, phi, _fiber(pd, np.asarray(t, dtype=float) + np.pi))

    def p32_minus_p1(c):
        # one sum, not _p32 - _p1, which rounds differently; r-partials at
        # angle t are the p-partials at t + pi, while the frame angle stays t
        return pd.e_mnu * (
            c.dp_dx1dt * fb.ct
            + c.dp_dx2dt * fb.st
            + c.dp_dtt * fb.nu_minus
            + c.dp_dx1 * fb.st
            - c.dp_dx2 * fb.ct
            + c.dp_dt * fb.nu_plus
        )

    return p32_minus_p1(cp) * (cr.f0 + cr.dp_dtt) - p32_minus_p1(cr) * (cp.f0 + cp.dp_dtt)


@dataclass(frozen=True)
class CrosscheckResult:
    direct: np.ndarray
    closed_form: np.ndarray
    relative_gap: np.ndarray


def crosscheck(bundle: MetricBundle, x, t) -> CrosscheckResult:
    """Compare the raw defect against the closed-form residual at (x, t).

    The two vanish together; away from the zero set the empirical ratio is
    the positive factor e^{-nu(x)}, which the relative gap accounts for.
    Both sides share one evaluation of the base-point data and of phi,
    phi' and phi'' at beta.
    """
    pd = point_data(bundle.form, bundle.metric, x[0], x[1])
    fb = _fiber(pd, t)
    ladder = _ladder(bundle.phi, fb.beta)
    closed = _residual_from_point(pd, fb, ladder, _m_direct_from_point(pd, fb))
    cp = _coord_data(pd, fb, ladder.pp, ladder.d1p, ladder.d2p)
    direct = _ecprinc_from_point(pd, bundle.phi, t, fb, cp)
    scaled = pd.e_mnu * np.abs(np.asarray(closed, dtype=float))
    mag = np.abs(np.asarray(direct, dtype=float))
    denom = np.maximum(np.maximum(mag, scaled), 1e-300)
    gap = np.abs(mag - scaled) / denom
    return CrosscheckResult(direct=direct, closed_form=closed, relative_gap=gap)


# ---------------------------------------------------------------------------
# Structure-equation verification for the coframe (symbolic exterior calculus)

_BUNDLE_VARS = ("x1", "x2", "t")


def _d_oneform(coeffs: tuple[Expr, Expr, Expr]) -> tuple[Expr, Expr, Expr]:
    """Exterior derivative; coefficients on (dx1^dx2, dx1^dt, dx2^dt)."""
    f, g, h = coeffs
    return (
        sub(diff_expr(g, "x1"), diff_expr(f, "x2")),
        sub(diff_expr(h, "x1"), diff_expr(f, "t")),
        sub(diff_expr(h, "x2"), diff_expr(g, "t")),
    )


def _wedge(u: tuple[Expr, Expr, Expr], v: tuple[Expr, Expr, Expr]) -> tuple[Expr, Expr, Expr]:
    f1, g1, h1 = u
    f2, g2, h2 = v
    return (
        sub(mul(f1, g2), mul(g1, f2)),
        sub(mul(f1, h2), mul(h1, f2)),
        sub(mul(g1, h2), mul(h1, g2)),
    )


def structure_residuals(metric: IsothermalMetric, x1, x2, t):
    """Max absolute defect of each structure equation at the given points.

    Returns (r1, r2, r3) for d(a1) = a2^a3, d(a2) = a3^a1 and
    d(a3) = k a1^a2 with k the Gauss curvature.
    """
    nu = metric.nu.expr
    nu1 = diff_expr(nu, "x1")
    nu2 = diff_expr(nu, "x2")
    e_nu = func("exp", nu)
    tvar = Var("t")
    a1 = (neg(mul(e_nu, func("sin", tvar))), mul(e_nu, func("cos", tvar)), const(0.0))
    a2 = (mul(e_nu, func("cos", tvar)), mul(e_nu, func("sin", tvar)), const(0.0))
    a3 = (neg(nu2), nu1, const(1.0))
    laplacian = add(diff_expr(nu1, "x1"), diff_expr(nu2, "x2"))
    k = neg(mul(func("exp", mul(const(-2.0), nu)), laplacian))

    lhs1, lhs2 = _d_oneform(a1), _d_oneform(a2)
    lhs3 = _d_oneform(a3)
    rhs1, rhs2 = _wedge(a2, a3), _wedge(a3, a1)
    rhs3 = tuple(mul(k, comp) for comp in _wedge(a1, a2))

    env = {"x1": np.asarray(x1, dtype=float), "x2": np.asarray(x2, dtype=float), "t": np.asarray(t, dtype=float)}

    def max_gap(lhs, rhs):
        gaps = [np.max(np.abs(eval_expr(sub(le, re), env))) for le, re in zip(lhs, rhs)]
        return float(max(gaps))

    return max_gap(lhs1, rhs1), max_gap(lhs2, rhs2), max_gap(lhs3, rhs3)
