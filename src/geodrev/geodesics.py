"""Geodesic integration used as an independent dynamical oracle.

The spray coefficients G1, G2 come from nested central differences of the
energy F^2, never from the symbolic pipeline, so trajectory-level checks
are independent of the closed-form machinery they confirm.  One engine
integrates every path: fixed-step RK4 that advances a batch of rows in
lockstep, a single path being a batch of one.  Reversibility of a
configuration is probed by running a geodesic forward, relaunching it
backward from the endpoint and measuring the unparametrized distance
between the two paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .metric import IsothermalMetric, MetricBundle
from .runtime import ordered_map
from .scalarfield import EvalDomainError


# A tangent vector's length must lie in [1e-SPEED_DECADES, 1e+SPEED_DECADES]:
# the spray's finite differences take steps of 1e-4 |y| and square them;
# beyond about 1e-155 and 1e154 they lose precision, underflow or overflow.
SPEED_DECADES = 150


class SingularHessianError(ValueError):
    """The numerically computed fiber Hessian of F^2 was not positive definite."""


class PathTooLongError(ValueError):
    """The trajectory buffer of a run could not be allocated."""


@dataclass(frozen=True)
class GeodesicPath:
    """A fixed-step run, which starts at samples[0] with velocity velocities[0]."""

    samples: np.ndarray      # (n, 2) base points
    velocities: np.ndarray   # (n, 2) matching velocities
    h: float
    duration: float
    truncated: bool          # True when the path left the domain rectangle early


# ---------------------------------------------------------------------------
# Norm evaluation (vectorized over batches of (x, y) pairs)


def _norm_batch(bundle: MetricBundle, x1, x2, y1, y2):
    env = {"x1": x1, "x2": x2}
    alpha = np.exp(bundle.metric.nu.eval(env)) * np.hypot(y1, y2)
    beta = bundle.form.b1.eval(env) * y1 + bundle.form.b2.eval(env) * y2
    return alpha * bundle.phi.phi(s=beta / alpha)


def finsler_norm(bundle: MetricBundle, x, y) -> float:
    """F(x, y) for a single base point and nonzero tangent vector."""
    if y[0] == 0.0 and y[1] == 0.0:
        raise ValueError("tangent vector must be nonzero")
    return float(_norm_batch(bundle, float(x[0]), float(x[1]), float(y[0]), float(y[1])))


def _energy_batch(bundle: MetricBundle, pts: np.ndarray) -> np.ndarray:
    """F^2 on rows (x1, x2, y1, y2)."""
    values = _norm_batch(bundle, pts[:, 0], pts[:, 1], pts[:, 2], pts[:, 3])
    return values * values


# ---------------------------------------------------------------------------
# Spray coefficients by nested central differences of F^2


# Row layout of the finite-difference stencil on (x1, x2, y1, y2):
#   0        center
#   1..4     y1 +/-, y2 +/-            (fiber second differences)
#   5..8     (y1, y2) in (++, +-, -+, --) (fiber cross difference)
#   9..12    x1 +/-, x2 +/-            (base first differences)
#   13..28   four-point blocks for d2/dx_k dy_i, (k, i) row-major
_STENCIL = np.zeros((29, 4))
_STENCIL[1:5] = [(0, 0, 1, 0), (0, 0, -1, 0), (0, 0, 0, 1), (0, 0, 0, -1)]
_STENCIL[5:9] = [(0, 0, 1, 1), (0, 0, 1, -1), (0, 0, -1, 1), (0, 0, -1, -1)]
_STENCIL[9:13] = [(1, 0, 0, 0), (-1, 0, 0, 0), (0, 1, 0, 0), (0, -1, 0, 0)]
_row = 13
for _k in (0, 1):
    for _i in (2, 3):
        for _sx, _sy in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
            _STENCIL[_row, _k] = _sx
            _STENCIL[_row, _i] = _sy
            _row += 1
del _row, _k, _i, _sx, _sy


def _singular_hessian(x1: float, x2: float, y1: float, y2: float) -> SingularHessianError:
    return SingularHessianError(
        f"fiber Hessian of F^2 not positive definite at x=({x1}, {x2}), y=({y1}, {y2})"
    )


def _rates(bundle: MetricBundle, states: np.ndarray) -> np.ndarray:
    """Geodesic flow (y1, y2, -2 G1, -2 G2) at each row (x1, x2, y1, y2) of ``states``.

    One ``_energy_batch`` call evaluates the stencils of all rows.  The
    Hessian and the 2x2 solve then run row by row on Python floats: for one
    path or a fan of a few directions, that is cheaper than the same solve
    spelled as dozens of small-array operations.  Rows never mix, so a row's
    result does not depend on the batch it is in.  The lowest-index failing
    row raises.
    """
    speeds = np.hypot(states[:, 2], states[:, 3]).tolist()
    low, high = 10.0**-SPEED_DECADES, 10.0**SPEED_DECADES
    for row, speed in enumerate(speeds):
        if speed < low or speed > high:
            x1, x2, y1, y2 = states[row].tolist()
            raise ValueError(
                f"tangent vector length {speed} outside [1e-{SPEED_DECADES}, 1e{SPEED_DECADES}]"
                f" at x=({x1}, {x2}), y=({y1}, {y2})"
            )
    hys = [1e-4 * speed for speed in speeds]
    hx = 1e-5 * max(1.0, bundle.metric.domain.extent)

    steps = np.array([(hx, hx, hy, hy) for hy in hys])
    pts = (states[:, None, :] + _STENCIL * steps[:, None, :]).reshape(-1, 4)
    energies = _energy_batch(bundle, pts).reshape(len(states), len(_STENCIL))

    rates = []
    for (x1, x2, y1, y2), hy, L in zip(states.tolist(), hys, energies.tolist()):
        # Python's float power is libm pow(hy, 2), which need not equal hy * hy.
        hy_sq = hy**2
        h11 = (L[1] - 2.0 * L[0] + L[2]) / hy_sq
        h22 = (L[3] - 2.0 * L[0] + L[4]) / hy_sq
        h12 = (L[5] - L[6] - L[7] + L[8]) / (4.0 * hy_sq)
        det = h11 * h22 - h12 * h12
        if h11 <= 0.0 or det <= 0.0:
            # A 0 or non-finite F^2 is an underflow or overflow, not a
            # Hessian of a structure that fails to be Finsler.
            if 0.0 in L or not all(map(math.isfinite, L)):
                raise EvalDomainError(
                    f"F^2 underflows to 0 or is not finite near x=({x1}, {x2}), y=({y1}, {y2})"
                )
            raise _singular_hessian(x1, x2, y1, y2)
        lx1 = (L[9] - L[10]) / (2.0 * hx)
        lx2 = (L[11] - L[12]) / (2.0 * hx)
        scale = 4.0 * hx * hy
        m11 = (L[13] - L[14] - L[15] + L[16]) / scale  # d2L/dx1 dy1
        m12 = (L[17] - L[18] - L[19] + L[20]) / scale  # d2L/dx1 dy2
        m21 = (L[21] - L[22] - L[23] + L[24]) / scale  # d2L/dx2 dy1
        m22 = (L[25] - L[26] - L[27] + L[28]) / scale  # d2L/dx2 dy2
        rhs1 = m11 * y1 + m21 * y2 - lx1
        rhs2 = m12 * y1 + m22 * y2 - lx2
        two_g1 = (h22 * rhs1 - h12 * rhs2) / det
        two_g2 = (h11 * rhs2 - h12 * rhs1) / det
        rates.append((y1, y2, -two_g1, -two_g2))
    return np.array(rates)


def spray(bundle: MetricBundle, x, y):
    """Coefficients (G1, G2) of the geodesic equation x'' = -2 G(x, x'), at one point."""
    _, _, a1, a2 = _rates(bundle, np.array([[x[0], x[1], y[0], y[1]]], dtype=float))[0].tolist()
    return -0.5 * a1, -0.5 * a2


# ---------------------------------------------------------------------------
# Fixed-step 4th order integration


def _steps(T: float, h: float) -> int:
    """Number of fixed steps of size h that a run of duration T takes."""
    return max(1, int(round(T / h)))


def _rk4_batch(rate, domain, x0s, y0s, Ts, h: float) -> list[GeodesicPath]:
    """Fixed-step RK4 paths from every (x0, y0) for its duration T, in lockstep.

    ``rate`` maps the live rows (x1, x2, y1, y2) to their (N, 4) derivatives.
    A row runs ``_steps(T, h)`` steps, or stops at the first step that leaves
    the domain, and then drops out of the batch.
    """
    if not 0.0 < h < math.inf or not all(0.0 < T < math.inf for T in Ts):
        raise ValueError("T and h must be positive and finite")
    state = np.array(
        [[x0[0], x0[1], y0[0], y0[1]] for x0, y0 in zip(x0s, y0s)], dtype=float
    ).reshape(-1, 4)
    rows = len(state)
    try:
        n_steps = [_steps(T, h) for T in Ts]
        traj = np.empty((rows, max(n_steps, default=0) + 1, 4))
    except (OverflowError, ValueError, MemoryError):
        raise PathTooLongError(
            f"cannot allocate the trajectory of a run of {max(Ts) / h:.6g} steps"
        ) from None
    traj[:, 0] = state
    n_steps = np.array(n_steps)
    counts = np.zeros(rows, dtype=int)
    truncated = np.zeros(rows, dtype=bool)
    live = np.arange(rows)

    step = 0
    while live.size:
        k1 = rate(state)
        k2 = rate(state + 0.5 * h * k1)
        k3 = rate(state + 0.5 * h * k2)
        k4 = rate(state + h * k3)
        state = state + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        step += 1
        traj[live, step] = state
        inside = domain.contains(state[:, 0], state[:, 1])
        done = ~inside | (n_steps[live] <= step)
        if done.any():
            # A non-finite state is never inside.  An overflowing or nan flow
            # is no exit from the domain: name the first such row's last
            # finite state.
            finite = np.isfinite(state).all(axis=1)
            if not finite.all():
                x1, x2, y1, y2 = traj[live[finite.argmin()], step - 1].tolist()
                raise EvalDomainError(
                    f"geodesic flow is not finite at x=({x1}, {x2}), y=({y1}, {y2})"
                )
            # a row that left the domain keeps the steps before this one
            left = live[~inside]
            counts[live[done]] = step
            counts[left] = step - 1
            truncated[left] = True
            live, state = live[~done], state[~done]
    return [
        GeodesicPath(traj[i, : c + 1, :2].copy(), traj[i, : c + 1, 2:].copy(), h, c * h, t)
        for i, (c, t) in enumerate(zip(counts.tolist(), truncated.tolist()))
    ]


def _integrate_batch(bundle: MetricBundle, x0s, y0s, Ts, h: float) -> list[GeodesicPath]:
    """``integrate`` for every (x0, y0, T), advanced as one lockstep batch."""
    return _rk4_batch(lambda z: _rates(bundle, z), bundle.metric.domain, x0s, y0s, Ts, h)


def integrate(bundle: MetricBundle, x0, y0, T: float, h: float) -> GeodesicPath:
    """Integrate x'' = -2 G(x, x') from (x0, y0) for duration T with fixed step h."""
    return _integrate_batch(bundle, [x0], [y0], [T], h)[0]


def path_prefix(path: GeodesicPath, T: float) -> GeodesicPath:
    """The path ``integrate`` returns for duration T, cut from a run from the
    same start that is at least that long.

    Fixed-step RK4 visits the same states whatever the duration, so the
    prefix is bitwise equal to the shorter run.  It is truncated only when
    the longer run stopped before the prefix's last step.
    """
    n = _steps(T, path.h)
    count = len(path.samples) - 1
    if count < n and not path.truncated:
        raise ValueError("path is shorter than the requested duration")
    k = min(n, count)
    return GeodesicPath(
        path.samples[: k + 1], path.velocities[: k + 1], path.h, k * path.h, count < n
    )


def riemann_geodesic(metric: IsothermalMetric, x0, y0, T: float, h: float) -> GeodesicPath:
    """Geodesic of the conformal factor alone, via closed-form Christoffels."""
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
# Unparametrized path comparison


# Size of the (rows, segments) temporaries of _points_to_polyline, in
# float64 values: 1 MB each, three of them in one workspace allocated once
# per call.  Speed was flat from 2^15 to 2^17 values.  At this size the
# freed workspace also lifts glibc's dynamic mmap threshold above the
# 0.2-2 MB arrays of classify and scan, as the 16 MB all-pairs temporaries
# did before; with 256 KB temporaries, a classify after a geodesic run in
# the same process took ~20 % longer.
_BLOCK_VALUES = 1 << 17


def _points_to_polyline(points: np.ndarray, poly: np.ndarray) -> np.ndarray:
    """Distance from each point to the nearest location on the polyline.

    Works on blocks of points against all segments, with the x and y
    components in separate arrays, so memory is O(n + m) whatever the path
    lengths.  It takes one square root per point, of the smallest squared
    distance; the square root is monotone and correctly rounded, so this
    equals the smallest of the distances.
    """
    if len(poly) == 1:
        return np.linalg.norm(points - poly[0], axis=1)
    px, py = poly[:-1, 0], poly[:-1, 1]
    dx = poly[1:, 0] - px
    dy = poly[1:, 1] - py
    lensq = dx * dx + dy * dy
    lensq[lensq == 0.0] = 1.0
    qx, qy = points[:, 0, None], points[:, 1, None]
    nearest = np.empty(len(points))
    block = max(1, min(len(points), _BLOCK_VALUES // len(px)))
    work = np.empty((3, block, len(px)))
    for lo in range(0, len(points), block):
        bx, by = qx[lo : lo + block], qy[lo : lo + block]
        tpar, ex, ey = work[:, : len(bx)]
        # projection parameter of each point on each segment, clipped to it
        np.subtract(bx, px, out=tpar)
        tpar *= dx
        np.subtract(by, py, out=ey)
        ey *= dy
        tpar += ey
        tpar /= lensq
        np.clip(tpar, 0.0, 1.0, out=tpar)
        # offsets from the projections, point - (start + tpar * direction)
        np.multiply(tpar, dx, out=ex)
        ex += px
        np.subtract(bx, ex, out=ex)
        np.multiply(tpar, dy, out=ey)
        ey += py
        np.subtract(by, ey, out=ey)
        ex *= ex
        ey *= ey
        ex += ey
        np.min(ex, axis=1, out=nearest[lo : lo + block])
    return np.sqrt(nearest)


def path_distance(a: GeodesicPath, b: GeodesicPath) -> float:
    """Symmetric mean nearest-point distance between two sampled paths.

    Insensitive to parametrization and to sample order by construction.
    """
    if len(a.samples) == 0 or len(b.samples) == 0:
        raise ValueError("paths must be non-empty")
    d_ab = float(np.mean(_points_to_polyline(a.samples, b.samples)))
    d_ba = float(np.mean(_points_to_polyline(b.samples, a.samples)))
    return 0.5 * (d_ab + d_ba)


# ---------------------------------------------------------------------------
# Reversibility probe


def _reverse_arc_length(bundle: MetricBundle, path: GeodesicPath) -> float:
    """Length of the forward path measured by the reverse norm F(x, -y)."""
    deltas = np.diff(path.samples, axis=0)
    mids = 0.5 * (path.samples[:-1] + path.samples[1:])
    keep = np.any(deltas != 0.0, axis=1)
    if not np.any(keep):
        return 0.0
    values = _norm_batch(
        bundle, mids[keep, 0], mids[keep, 1], -deltas[keep, 0], -deltas[keep, 1]
    )
    return float(np.sum(values))


def backward_duration(bundle: MetricBundle, forward: GeodesicPath) -> float:
    """Duration of the backward relaunch of a forward path.

    It is the forward path's length under the reverse norm F(x, -y) over
    the relaunch speed, and at least one step.
    """
    back_speed = finsler_norm(bundle, forward.samples[-1], -forward.velocities[-1])
    t_back = _reverse_arc_length(bundle, forward) / back_speed
    return max(t_back, forward.h)


def relaunch(bundle: MetricBundle, forward: GeodesicPath, T: float) -> GeodesicPath:
    """Geodesic from the end of a forward path with its end velocity reversed."""
    return integrate(bundle, forward.samples[-1], -forward.velocities[-1], T, forward.h)


def _probe(bundle: MetricBundle, x0, y0s, T: float, h: float) -> list[float]:
    """``reversibility_error`` from x0 along each of y0s: all forward runs
    advance as one lockstep batch, then all backward runs."""
    forwards = _integrate_batch(bundle, [x0] * len(y0s), y0s, [T] * len(y0s), h)
    backwards = _integrate_batch(
        bundle,
        [path.samples[-1] for path in forwards],
        [-path.velocities[-1] for path in forwards],
        [backward_duration(bundle, path) for path in forwards],
        h,
    )
    return ordered_map(lambda pair: path_distance(*pair), zip(forwards, backwards))


def reversibility_error(bundle: MetricBundle, x0, y0, T: float, h: float) -> float:
    """Unparametrized distance between a geodesic and its reverse relaunch.

    The forward run ends at (x_T, y_T); the probe restarts at (x_T, -y_T)
    for the duration that the reverse norm assigns to the forward path, so
    a reversible structure retraces the same set of points.
    """
    return _probe(bundle, x0, [y0], T, h)[0]


def reversibility_scan(
    bundle: MetricBundle, x0, T: float, h: float, n_directions: int
) -> list[tuple[tuple[float, float], float]]:
    """``reversibility_error`` along unit directions fanned around the base point."""
    angles = 2.0 * np.pi * np.arange(n_directions) / n_directions + 0.137
    y0s = [(float(np.cos(angle)), float(np.sin(angle))) for angle in angles]
    return list(zip(y0s, _probe(bundle, x0, y0s, T, h)))
