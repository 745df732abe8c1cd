"""Reference mathematics that the tests check geodrev against.

No geodrev command runs any of this.  The paper's identities are checked
with it: the structure equations of the circle-bundle coframe, the Gauss
curvature, the base PDE system, and the directional derivatives of
p = phi(beta) along the dual frame, in closed form and by central
differences.  The ref_* functions are earlier versions of product code
that evaluated the same quantities more than once; the product must match
them bit for bit.
"""

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from geodrev.geodesics import GeodesicPath, _rk4_batch
from geodrev.metric import PHI_VAR, IsothermalMetric, LinearForm, MetricBundle, PhiFunction, _beta_pair
from geodrev.reversibility import point_data
from geodrev.scalarfield import (
    _BINARY,
    Binary,
    Const,
    Expr,
    ExpressionError,
    Power,
    ScalarField,
    Unary,
    Var,
    _unary,
    add,
    const,
    diff_expr,
    eval_expr,
    func,
    mul,
    neg,
    power,
    sub,
)


def fd_check(field: ScalarField, name: str, point, h: float) -> float:
    """Central difference (f(p+h) - f(p-h)) / 2h used as the derivative oracle."""
    if h <= 0:
        raise ExpressionError("step h must be positive")
    hi = dict(point)
    lo = dict(point)
    hi[name] = point[name] + h
    lo[name] = point[name] - h
    return (field.eval(hi) - field.eval(lo)) / (2.0 * h)


# ---------------------------------------------------------------------------
# Profile reversal and indicatrix quantities


def substitute(e: Expr, name: str, replacement: Expr) -> Expr:
    """Replace every occurrence of the variable ``name`` by ``replacement``."""
    if isinstance(e, Const):
        return e
    if isinstance(e, Var):
        return replacement if e.name == name else e
    if isinstance(e, Unary):
        return _unary(e.op, substitute(e.arg, name, replacement))
    if isinstance(e, Binary):
        build = _BINARY[e.op].build
        return build(substitute(e.left, name, replacement), substitute(e.right, name, replacement))
    if isinstance(e, Power):
        return power(substitute(e.base, name, replacement), e.exponent)
    raise ExpressionError(f"bad node {e!r}")


def reverse_phi(phi: PhiFunction) -> PhiFunction:
    """Profile of the reverse norm F(x, -y): s -> phi(-s), same b0."""
    flipped = substitute(phi.phi.expr, PHI_VAR, neg(Var(PHI_VAR)))
    return PhiFunction(ScalarField(flipped, (PHI_VAR,)), phi.b0)


def beta_on_indicatrix(bundle: MetricBundle, x, t):
    """Return (beta, beta_t, b^2) at base point x and fiber angle t.

    Accepts scalars or numpy arrays for t (and for the components of x).
    """
    x1, x2 = x
    env = {"x1": x1, "x2": x2}
    e_m = np.exp(-bundle.metric.nu.eval(env))
    b1 = bundle.form.b1.eval(env)
    b2 = bundle.form.b2.eval(env)
    beta, beta_t = _beta_pair(e_m, b1, b2, np.cos(t), np.sin(t))
    bsq = e_m * e_m * (b1 * b1 + b2 * b2)
    return beta, beta_t, bsq


def indicatrix_p(bundle: MetricBundle, x, t):
    """Return (p, r) = (phi(beta), phi(-beta)) at (x, t); r(x, t) = p(x, t + pi)."""
    beta, _, _ = beta_on_indicatrix(bundle, x, t)
    bundle.phi.check_s(beta)
    p = bundle.phi.phi(s=beta)
    r = bundle.phi.phi(s=-beta)
    return p, r


# ---------------------------------------------------------------------------
# Base obstruction, PDE system and curvature


def curl21(form: LinearForm, x) -> float:
    """d(b2)/dx1 - d(b1)/dx2 at the base point x."""
    env = {"x1": x[0], "x2": x[1]}
    return form.db2_d1.eval(env) - form.db1_d2.eval(env)


@dataclass(frozen=True)
class MCoefficients:
    K1: float
    K2: float
    K3: float

    def value(self, t):
        return self.K1 + self.K2 * np.cos(2.0 * t) + self.K3 * np.sin(2.0 * t)


def _m_coeffs_from_point(pd) -> MCoefficients:
    k1 = 0.5 * (pd.db1_dx1 + pd.db2_dx2)
    k2 = 0.5 * (pd.db1_dx1 - pd.db2_dx2) - (pd.nu1 * pd.b1 - pd.nu2 * pd.b2)
    k3 = 0.5 * (pd.db2_dx1 + pd.db1_dx2) - (pd.nu2 * pd.b1 + pd.nu1 * pd.b2)
    return MCoefficients(k1, k2, k3)


def m_coeffs(form: LinearForm, metric: IsothermalMetric, x) -> MCoefficients:
    """Angular Fourier coefficients K1, K2, K3 of the base obstruction."""
    return _m_coeffs_from_point(point_data(form, metric, x[0], x[1]))


def pde_residuals(form: LinearForm, metric: IsothermalMetric, x):
    """Left-hand sides (curl, divergence, K2, K3) of the constancy system."""
    pd = point_data(form, metric, x[0], x[1])
    k = _m_coeffs_from_point(pd)
    return (
        pd.db2_dx1 - pd.db1_dx2,
        pd.db1_dx1 + pd.db2_dx2,
        k.K2,
        k.K3,
    )


def integrability_obstruction(metric: IsothermalMetric, x):
    """Laplacian of nu; the constancy system is solvable only where it vanishes."""
    env = {"x1": x[0], "x2": x[1]}
    return metric.nu1.diff("x1").eval(env) + metric.nu2.diff("x2").eval(env)


def gauss_curvature(metric: IsothermalMetric, x):
    """k = -e^{-2 nu} * (nu_11 + nu_22) in isothermal coordinates."""
    lap = integrability_obstruction(metric, x)
    return -np.exp(-2.0 * metric.nu.eval({"x1": x[0], "x2": x[1]})) * lap


def riemann_geodesic(metric: IsothermalMetric, x0, y0, T: float, h: float) -> GeodesicPath:
    """Geodesic of the conformal factor alone, via closed-form Christoffels,
    on the product's RK4 engine."""
    nu1, nu2 = metric.nu1, metric.nu2

    def rate(z):
        x1, x2, y1, y2 = z.T
        env = {"x1": x1, "x2": x2}
        n1 = nu1.eval(env)
        n2 = nu2.eval(env)
        a1 = -(n1 * y1 * y1 + 2.0 * n2 * y1 * y2 - n1 * y2 * y2)
        a2 = -(-n2 * y1 * y1 + 2.0 * n1 * y1 * y2 + n2 * y2 * y2)
        return np.column_stack((y1, y2, a1, a2))

    return _rk4_batch(rate, metric.domain, [x0], [y0], [T], h)[0]


# ---------------------------------------------------------------------------
# Reference implementations of the criterion's partials


def ref_m_direct(pd, t):
    ct, st = np.cos(t), np.sin(t)
    beta = pd.e_mnu * (pd.b1 * ct + pd.b2 * st)
    beta_t = pd.e_mnu * (-pd.b1 * st + pd.b2 * ct)
    block = pd.e_mnu * (
        pd.db1_dx1 * ct * ct
        + st * ct * (pd.db1_dx2 + pd.db2_dx1)
        + pd.db2_dx2 * st * st
    )
    return block + beta_t * (pd.nu2 * ct - pd.nu1 * st) - beta * (pd.nu1 * ct + pd.nu2 * st)


def ref_coord_data(pd, phi, t):
    """Coordinate partials of p = phi(beta) to third order, phi evaluated here."""
    ct, st = np.cos(t), np.sin(t)
    beta = pd.e_mnu * (pd.b1 * ct + pd.b2 * st)
    beta_t = pd.e_mnu * (-pd.b1 * st + pd.b2 * ct)
    big_a = pd.e_mnu * (pd.db1_dx1 * ct + pd.db2_dx1 * st)
    big_b = pd.e_mnu * (pd.db1_dx2 * ct + pd.db2_dx2 * st)
    big_c = pd.e_mnu * (-pd.db1_dx1 * st + pd.db2_dx1 * ct)
    big_d = pd.e_mnu * (-pd.db1_dx2 * st + pd.db2_dx2 * ct)
    a = big_a - pd.nu1 * beta
    b = big_b - pd.nu2 * beta
    c = big_c - pd.nu1 * beta_t
    d = big_d - pd.nu2 * beta_t
    phi.check_s(beta)
    f0 = phi.phi(s=beta)
    f1 = phi.d1(s=beta)
    f2 = phi.d2(s=beta)
    f3 = phi.d2.diff(PHI_VAR)(s=beta)
    bt2 = beta_t * beta_t
    return SimpleNamespace(
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
        dp_dtt=f2 * bt2 - f1 * beta,
        dp_dttt=f3 * beta_t * bt2 - 3.0 * f2 * beta * beta_t - f1 * beta_t,
        dp_dx1dtt=f3 * a * bt2 + 2.0 * f2 * beta_t * c - f2 * a * beta - f1 * a,
        dp_dx2dtt=f3 * b * bt2 + 2.0 * f2 * beta_t * d - f2 * b * beta - f1 * b,
    )


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


def ref_frame_combine(pd, cd, t):
    """Directional derivatives along the dual frame from the coordinate partials cd."""
    ct, st = np.cos(t), np.sin(t)
    nu_plus = pd.nu1 * ct + pd.nu2 * st
    nu_minus = pd.nu2 * ct - pd.nu1 * st
    return DirectionalDerivs(
        p=cd.f0,
        p1=pd.e_mnu * (-cd.dp_dx1 * st + cd.dp_dx2 * ct - cd.dp_dt * nu_plus),
        p2=pd.e_mnu * (cd.dp_dx1 * ct + cd.dp_dx2 * st + cd.dp_dt * nu_minus),
        p3=cd.dp_dt,
        p31=pd.e_mnu * (-cd.dp_dx1dt * st + cd.dp_dx2dt * ct - cd.dp_dtt * nu_plus),
        p32=pd.e_mnu * (cd.dp_dx1dt * ct + cd.dp_dx2dt * st + cd.dp_dtt * nu_minus),
        p33=cd.dp_dtt,
        p332=pd.e_mnu * (cd.dp_dx1dtt * ct + cd.dp_dx2dtt * st + cd.dp_dttt * nu_minus),
        p333=cd.dp_dttt,
    )


def ref_directional_derivs(bundle: MetricBundle, x, t) -> DirectionalDerivs:
    """Closed-form directional derivatives of p at (x, t)."""
    pd = point_data(bundle.form, bundle.metric, x[0], x[1])
    return ref_frame_combine(pd, ref_coord_data(pd, bundle.phi, t), t)


def ref_ecprinc(pd, phi, t):
    """The raw defect with p32 - p1 and r32 - r1 each as one fused sum."""
    t = np.asarray(t, dtype=float)
    ct, st = np.cos(t), np.sin(t)
    nu_plus = pd.nu1 * ct + pd.nu2 * st
    nu_minus = pd.nu2 * ct - pd.nu1 * st
    cp = ref_coord_data(pd, phi, t)
    cr = ref_coord_data(pd, phi, t + np.pi)

    def p32_minus_p1(c):
        return pd.e_mnu * (
            c.dp_dx1dt * ct
            + c.dp_dx2dt * st
            + c.dp_dtt * nu_minus
            + c.dp_dx1 * st
            - c.dp_dx2 * ct
            + c.dp_dt * nu_plus
        )

    return p32_minus_p1(cp) * (cr.f0 + cr.dp_dtt) - p32_minus_p1(cr) * (cp.f0 + cp.dp_dtt)


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


def ref_frame_intermediates(bundle, x, t):
    pd = point_data(bundle.form, bundle.metric, x[0], x[1])
    cp = ref_coord_data(pd, bundle.phi, t)
    cr = ref_coord_data(pd, bundle.phi, np.asarray(t) + np.pi)
    ct, st = np.cos(t), np.sin(t)
    return FrameIntermediates(
        T1=ct * (cp.dp_dx1dt - cp.dp_dx2) + st * (cp.dp_dx2dt + cp.dp_dx1),
        T2=ct * (cr.dp_dx1dt - cr.dp_dx2) + st * (cr.dp_dx2dt + cr.dp_dx1),
        T3=cp.dp_dtt * cr.f0 - cr.dp_dtt * cp.f0,
        T4=cp.dp_dt * (cr.dp_dtt + cr.f0) - cr.dp_dt * (cp.dp_dtt + cp.f0),
        G=cp.a * ct + cp.b * st,
        H=(cp.c - cp.b) * ct + (cp.a + cp.d) * st,
        nu_plus=pd.nu1 * ct + pd.nu2 * st,
        nu_minus=pd.nu2 * ct - pd.nu1 * st,
    )


# ---------------------------------------------------------------------------
# Coframes of the unit circle bundle:
#
#     a1 = -e^nu sin t dx1 + e^nu cos t dx2
#     a2 =  e^nu cos t dx1 + e^nu sin t dx2
#     a3 = -nu_2 dx1 + nu_1 dx2 + dt
#
# and the deformed coframe w1, w2, w3 of the Finsler structure.  Both are
# (3, 3) arrays whose rows are the 1-forms in the cobasis (dx1, dx2, dt).


class ConvexityError(ValueError):
    """The fiberwise convexity quantity p + p_33 failed to stay positive."""

    def __init__(self, x, t, value):
        super().__init__(f"p + p33 = {value:.6g} <= 0 at x={x}, t={t:.6g}")
        self.witness = (x, t, value)


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


def frame_fd_derivs(bundle: MetricBundle, x, t) -> DirectionalDerivs:
    """Directional derivatives by central differences along the dual frame,
    the oracle that the closed-form derivatives are tested against.

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


def omega_coframe(bundle: MetricBundle, x, t) -> np.ndarray:
    """Coframe rows w1, w2, w3 built from the directional derivatives of p."""
    alpha = alpha_coframe(bundle.metric, x, t)
    dd = ref_directional_derivs(bundle, x, t)
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
# Structure equations of the coframe (symbolic exterior calculus)


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


def ref_points_to_polyline(points, poly):
    """Distance from each point to the nearest location on the polyline, by
    the all-pairs formula with (n, m - 1, 2) temporaries; the pruned
    geodesics._points_to_polyline must match it bit for bit."""
    if len(poly) == 1:
        return np.linalg.norm(points - poly[0], axis=1)
    p = poly[:-1]
    d = poly[1:] - p
    lensq = np.sum(d * d, axis=1)
    lensq = np.where(lensq == 0.0, 1.0, lensq)
    w = points[:, None, :] - p[None, :, :]
    tpar = np.clip(np.sum(w * d[None, :, :], axis=2) / lensq[None, :], 0.0, 1.0)
    proj = p[None, :, :] + tpar[:, :, None] * d[None, :, :]
    dist = np.linalg.norm(points[:, None, :] - proj, axis=2)
    return np.min(dist, axis=1)
