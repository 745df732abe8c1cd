"""Geodesic integration used as an independent dynamical oracle.

The spray coefficients G1, G2 come from nested central differences of the
energy F^2, never from the symbolic pipeline, so trajectory-level checks
are independent of the closed-form machinery they confirm.  One engine
integrates every path: fixed-step RK4 that advances a batch of rows in
lockstep, a single path being a batch of one.  One probe tests
reversibility, for the direction fan and for the ``geodesic`` command
alike: it runs a geodesic forward, relaunches it backward from the
endpoint and measures the unparametrized distance between the two paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .metric import MetricBundle
from .runtime import ordered_map
from .scalarfield import EvalDomainError, _Emitter, _Fallback


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


def _norm_walk(bundle: MetricBundle, x1, x2, y1, y2):
    """F at each (x1, x2, y1, y2), by walking nu, b1, b2 and phi."""
    env = {"x1": x1, "x2": x2}
    alpha = np.exp(bundle.metric.nu.eval(env)) * np.hypot(y1, y2)
    beta = bundle.form.b1.eval(env) * y1 + bundle.form.b2.eval(env) * y2
    return alpha * bundle.phi.phi(s=beta / alpha)


class _Oracle:
    """What the geodesic oracle computes once per bundle: ``_norm_walk`` as one
    straight-line program (its four trees share their common subexpressions)
    and the spray's base step hx."""

    def __init__(self, bundle: MetricBundle):
        em = _Emitter(("x1", "x2", "y1", "y2"))
        base = {"x1": "x1", "x2": "x2"}
        # the walk's operations, in its order
        nu = em.emit(bundle.metric.nu.expr, base)
        alpha = em.binary("*", em.call(np.exp, nu), em.call(np.hypot, "y1", "y2"))
        b1y1 = em.binary("*", em.emit(bundle.form.b1.expr, base), "y1")
        beta = em.binary("+", b1y1, em.binary("*", em.emit(bundle.form.b2.expr, base), "y2"))
        phi = em.emit(bundle.phi.phi.expr, {"s": em.binary("/", beta, alpha)})
        self.norm = em.compile(em.binary("*", alpha, phi))
        self.hx = 1e-5 * max(1.0, bundle.metric.domain.extent)


def _oracle(bundle: MetricBundle) -> _Oracle:
    """The bundle's ``_Oracle``, built on its first geodesic use."""
    if bundle._oracle is None:
        bundle._oracle = _Oracle(bundle)
    return bundle._oracle


def _norm_batch(bundle: MetricBundle, x1, x2, y1, y2):
    """``_norm_walk`` through the bundle's compiled program: bitwise the same
    values.  Where a domain check or a power fails, or anything overflows,
    the walk runs again and raises or returns what it always did."""
    try:
        return _oracle(bundle).norm(x1, x2, y1, y2)
    except (_Fallback, FloatingPointError):
        return _norm_walk(bundle, x1, x2, y1, y2)


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


def _rates(bundle: MetricBundle, states: np.ndarray) -> np.ndarray:
    """Geodesic flow (y1, y2, -2 G1, -2 G2) at each row (x1, x2, y1, y2) of ``states``.

    One ``_norm_batch`` call evaluates F on the stencils of all rows.  The
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
            raise EvalDomainError(
                f"tangent vector length {speed} outside [1e-{SPEED_DECADES}, 1e{SPEED_DECADES}]"
                f" at x=({x1}, {x2}), y=({y1}, {y2})"
            )
    hys = [1e-4 * speed for speed in speeds]
    hx = _oracle(bundle).hx

    steps = np.array([(hx, hx, hy, hy) for hy in hys])
    pts = (states[:, None, :] + _STENCIL * steps[:, None, :]).reshape(-1, 4)
    norms = _norm_batch(bundle, pts[:, 0], pts[:, 1], pts[:, 2], pts[:, 3])
    energies = (norms * norms).reshape(len(states), len(_STENCIL))

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
            raise SingularHessianError(
                f"fiber Hessian of F^2 not positive definite at x=({x1}, {x2}), y=({y1}, {y2})"
            )
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


# ---------------------------------------------------------------------------
# Fixed-step 4th order integration


def _steps(T: float, h: float) -> int:
    """Number of fixed steps of size h that a run of duration T takes."""
    return max(1, int(round(T / h)))


def _rk4_step(rate, state: np.ndarray, h: float) -> np.ndarray:
    """One classical RK4 step of every row of ``state``."""
    k1 = rate(state)
    k2 = rate(state + 0.5 * h * k1)
    k3 = rate(state + 0.5 * h * k2)
    k4 = rate(state + h * k3)
    return state + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _fails_outside(rate, domain, state: np.ndarray, h: float) -> bool:
    """Whether the RK4 step of the one row ``state`` first fails at a stage
    k2, k3 or k4 whose point is finite and outside the domain rectangle."""
    k = rate(state)
    for c in (0.5, 0.5, 1.0):
        point = state + c * h * k
        try:
            k = rate(point)
        except (SingularHessianError, EvalDomainError):
            x1, x2 = point[0, :2].tolist()
            return math.isfinite(x1) and math.isfinite(x2) and not domain.contains(x1, x2)
    return False


def _rk4_batch(rate, domain, x0s, y0s, Ts, h: float) -> list[GeodesicPath]:
    """Fixed-step RK4 paths from every (x0, y0) for its duration T, in lockstep.

    ``rate`` maps the live rows (x1, x2, y1, y2) to their (N, 4) derivatives.
    A row runs ``_steps(T, h)`` steps, or stops at the first step that leaves
    the domain, and then drops out of the batch.  A row whose step fails at
    an RK4 stage outside the domain, as a fast start's first step can, ends
    at its previous step, truncated, and the step runs again for the other
    rows; the rows are found one at a time only after such a failure.  A
    failure at a stage inside the domain raises.
    """
    if not 0.0 < h < math.inf or not all(0.0 < T < math.inf for T in Ts):
        raise ValueError("T and h must be positive and finite")
    for T in Ts:
        if T / h <= 0.5:  # _steps would round the run up to one whole step
            raise ValueError(f"T = {T} is at most half the step h = {h}: the run would take no step")
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
        try:
            state_next = _rk4_step(rate, state, h)
        except (SingularHessianError, EvalDomainError):
            gone = np.array([_fails_outside(rate, domain, row[None], h) for row in state])
            if not gone.any():
                raise
            counts[live[gone]] = step
            truncated[live[gone]] = True
            live, state = live[~gone], state[~gone]
            continue
        state = state_next
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
    """Runs of x'' = -2 G(x, x') from every (x0, y0) for its duration T with
    fixed step h, advanced as one lockstep batch."""
    return _rk4_batch(lambda z: _rates(bundle, z), bundle.metric.domain, x0s, y0s, Ts, h)


def path_prefix(path: GeodesicPath, T: float) -> GeodesicPath:
    """The run of duration T, cut from a run from the same start that is at
    least that long.

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


# ---------------------------------------------------------------------------
# Unparametrized path comparison


# Size of the workspace rows of _points_to_polyline, in float64 values:
# 1 MB each, three of them in one workspace allocated once per call (less
# when the inputs are small).  The chunk stage slices it into (points,
# chunks) blocks, the exact stage into (pairs, chunk size) blocks.  Speed
# was flat from 2^15 to 2^17 values.  At this size the freed workspace also
# lifts glibc's dynamic mmap threshold above the 0.2-2 MB arrays of
# scan's grid tables, as the 16 MB all-pairs temporaries once did; with
# 256 KB rows, a whole-grid classify after a geodesic run in the same
# process took ~20 % longer.
_BLOCK_VALUES = 1 << 17


def _points_to_polyline(points: np.ndarray, poly: np.ndarray) -> np.ndarray:
    """Distance from each point to the nearest location on the polyline.

    An exact two-stage search, pruned as in Taha & Hanbury's exact
    Hausdorff distance (IEEE TPAMI 37(11), 2015).  The m segments are cut
    into chunks of K = max(4, round(sqrt(m) / 2)) consecutive segments; a
    ragged last chunk repeats its last segment, which leaves every minimum
    as it is.

    1. Chunk stage, on blocks of points against all chunks: a squared
       lower bound lb to each chunk's bounding box (the exact min and max
       over the endpoints of its segments) and a squared upper bound ub,
       the smallest squared distance to a chunk's first vertex.  A chunk
       is a candidate unless lb exceeds a threshold just above ub, set
       so that rounding cannot make a pruned chunk hold the minimum.
    2. Exact stage, on blocks of (point, candidate chunk) pairs: the
       all-pairs segment formula in its operation order, the min over each
       chunk's segments, then over each point's chunks, and one square root
       of the smallest squared distance.  The square root is monotone and
       correctly rounded, so this equals the smallest of the distances.

    A segment dropped in stage 1 has a computed distance no smaller than a
    kept one, so the result is bitwise that of the all-pairs search, with
    memory O(n + m) whatever the path lengths.  Inputs of at most
    _BLOCK_VALUES / 16 (point, segment) pairs, such as short probes, skip
    the chunks and take the formula on all pairs at once: below about
    10^4 pairs the numpy calls of the two stages cost more than the
    distances they save.
    """
    n, m = len(points), len(poly) - 1
    if m == 0:
        return np.linalg.norm(points - poly[0], axis=1)
    px, py = poly[:-1, 0], poly[:-1, 1]
    dx = poly[1:, 0] - px
    dy = poly[1:, 1] - py
    lensq = dx * dx + dy * dy
    lensq[lensq == 0.0] = 1.0
    if n * m <= _BLOCK_VALUES // 16:
        bx, by = points[:, 0, None], points[:, 1, None]
        tpar = ((bx - px) * dx + (by - py) * dy) / lensq
        tpar.clip(0.0, 1.0, out=tpar)
        ex = bx - (tpar * dx + px)
        ey = by - (tpar * dy + py)
        return np.sqrt((ex * ex + ey * ey).min(axis=1))
    size = max(4, round(math.sqrt(m) / 2))
    n_chunks = -(-m // size)
    seg = np.minimum(np.arange(n_chunks * size), m - 1).reshape(n_chunks, size)
    # a chunk's vertices are its segments' starts and its last segment's end
    corners = poly[np.column_stack((seg, seg[:, -1] + 1))]
    (xlo, ylo), (xhi, yhi) = corners.min(axis=1).T, corners.max(axis=1).T
    # from here on, one row of segments per chunk
    px, py, dx, dy, lensq = (v[seg] for v in (px, py, dx, dy, lensq))
    vx, vy = px[:, 0], py[:, 0]
    # The threshold ub (1 + 2^-20) + 2^24 eta^2 is conservative under
    # rounding.  Let u = 2^-53, M the largest coordinate magnitude and
    # eta = 32 u M + 2^-499.
    # - For a point q and a segment S, the computed squared distance e2
    #   has (1 - u)^2 (d(q, S) - eta) <= sqrt(e2)
    #   <= (1 + u)^2 (d(q, S) + eta).
    #   The rounded direction moves S by at most 2.9 u M; the clipped
    #   parameter is off by at most 6.1 u |q - start| / |direction|, which
    #   moves the projection by at most 17.3 u M (or by the segment's
    #   length, below 2^-500, when its squares underflow); forming
    #   start + t * direction adds 7.1 u M.
    # - A segment of a pruned chunk lies in the chunk's box, so its true
    #   distance is at least L with L^2 >= lb / (1 + u)^4.  The chunk that
    #   attains ub has a segment starting at a vertex V with
    #   |q - V|^2 <= ub / (1 - u)^4.
    # - So a pruned segment cannot undercut that one once
    #   L >= (1 + 4.1 u) (|q - V| + 2 eta).  As (x + 2 eta)^2 <=
    #   (1 + 2^-21) x^2 + (2^23 + 4) eta^2 for every x, lb > ub (1 + 2^-20)
    #   + 2^24 eta^2 is enough, with room for the rounding of the bounds and
    #   of the threshold, and for underflow: its absolute errors, below
    #   2^-1070, are far under 2^24 eta^2 >= 2^-974.  Coordinates of
    #   magnitude 2^509 or more could overflow a square, and then every
    #   chunk is kept.
    # Every point keeps the chunk that attains its ub: fl(a - b) = -fl(b - a)
    # and rounding is monotone, so each computed box offset is at most the
    # computed offset to the chunk's first vertex, which lies in the box:
    # lb <= ub <= threshold.  So each point has a pair for reduceat.  A nan
    # bound compares false, so a point with one keeps every chunk.
    big = float(max(abs(points).max(), abs(poly).max()))
    eta = 2.0**-48 * big + 2.0**-499
    slack = 2.0**24 * eta * eta if big < 2.0**509 else math.inf
    qx, qy = points[:, 0, None], points[:, 1, None]
    nearest = np.empty(n)
    width = max(min(_BLOCK_VALUES, n * n_chunks * size), n_chunks, size)
    work = np.empty((3, width))
    rows_per_block = max(1, width // n_chunks)
    pairs_per_block = max(1, width // size)
    for lo in range(0, n, rows_per_block):
        bx, by = qx[lo : lo + rows_per_block], qy[lo : lo + rows_per_block]
        b = len(bx)
        a, c, e = work[:, : b * n_chunks].reshape(3, b, n_chunks)
        # upper bound: squared distance to each chunk's first vertex
        np.subtract(bx, vx, out=a)
        a *= a
        np.subtract(by, vy, out=c)
        c *= c
        a += c
        thr = a.min(axis=1)
        thr *= 1.0 + 2.0**-20
        thr += slack
        # lower bound: squared distance to each chunk's box
        np.subtract(xlo, bx, out=a)
        np.subtract(bx, xhi, out=c)
        np.maximum(a, c, out=a)
        np.maximum(a, 0.0, out=a)
        a *= a
        np.subtract(ylo, by, out=c)
        np.subtract(by, yhi, out=e)
        np.maximum(c, e, out=c)
        np.maximum(c, 0.0, out=c)
        c *= c
        a += c
        keep = a > thr[:, None]
        np.logical_not(keep, out=keep)
        rows, chunks = np.nonzero(keep)
        first = np.searchsorted(rows, np.arange(b))  # rows ascend, each point is there
        pair_min = np.empty(len(rows))
        for plo in range(0, len(rows), pairs_per_block):
            r = rows[plo : plo + pairs_per_block]
            k = chunks[plo : plo + pairs_per_block]
            sx, sy = bx[r], by[r]
            tpar, ex, ey = work[:, : len(r) * size].reshape(3, len(r), size)
            # projection parameter of each point on each segment, clipped to it;
            # take(mode="clip") writes straight into out, mode="raise" buffers
            px.take(k, axis=0, out=tpar, mode="clip")
            np.subtract(sx, tpar, out=tpar)
            dx.take(k, axis=0, out=ex, mode="clip")
            tpar *= ex
            py.take(k, axis=0, out=ey, mode="clip")
            np.subtract(sy, ey, out=ey)
            dy.take(k, axis=0, out=ex, mode="clip")
            ey *= ex
            tpar += ey
            lensq.take(k, axis=0, out=ex, mode="clip")
            tpar /= ex
            tpar.clip(0.0, 1.0, out=tpar)
            # offsets from the projections, point - (start + tpar * direction)
            dx.take(k, axis=0, out=ex, mode="clip")
            ex *= tpar
            px.take(k, axis=0, out=ey, mode="clip")
            ex += ey
            np.subtract(sx, ex, out=ex)
            dy.take(k, axis=0, out=ey, mode="clip")
            ey *= tpar
            py.take(k, axis=0, out=tpar, mode="clip")
            ey += tpar
            np.subtract(sy, ey, out=ey)
            ex *= ex
            ey *= ey
            ex += ey
            ex.min(axis=1, out=pair_min[plo : plo + pairs_per_block])
        np.minimum.reduceat(pair_min, first, out=nearest[lo : lo + b])
    return np.sqrt(nearest)


def path_distance(a: GeodesicPath, b: GeodesicPath) -> float:
    """Symmetric mean nearest-point distance between two sampled paths.

    Insensitive to parametrization and to sample order by construction.
    Raises ValueError for an empty path or a non-finite sample.
    """
    if len(a.samples) == 0 or len(b.samples) == 0:
        raise ValueError("paths must be non-empty")
    for name, path in (("a", a), ("b", b)):
        finite = np.isfinite(path.samples).all(axis=1)
        if not finite.all():
            raise ValueError(f"path {name} has a non-finite sample at index {int(np.argmin(finite))}")
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


def _backward_duration(bundle: MetricBundle, forward: GeodesicPath) -> float:
    """Duration of the relaunch that the error is measured on.

    It is the forward path's length under the reverse norm F(x, -y) over
    the relaunch speed, and at least one step.
    """
    (x1, x2), (y1, y2) = forward.samples[-1].tolist(), (-forward.velocities[-1]).tolist()
    back_speed = float(_norm_batch(bundle, x1, x2, y1, y2))
    return max(_reverse_arc_length(bundle, forward) / back_speed, forward.h)


def _probe(
    bundle: MetricBundle, x0, y0s, T: float, h: float
) -> list[tuple[GeodesicPath, GeodesicPath, float]]:
    """(forward path, _rev path, error) of the reversibility probe from x0
    along each of y0s.

    The forward runs advance as one lockstep batch.  Each relaunch starts
    at (x_T, -y_T) and runs, again as one batch, for the longer of two
    durations, from which ``path_prefix`` cuts two paths:
    - the one the error is measured on, of ``_backward_duration``: a
      reversible structure retraces the forward path's points, and the
      error is the unparametrized distance between the two;
    - the _rev path, of the forward path's covered duration.
    """
    forwards = _integrate_batch(bundle, [x0] * len(y0s), y0s, [T] * len(y0s), h)
    t_backs = [_backward_duration(bundle, path) for path in forwards]
    t_revs = [max(path.duration, h) for path in forwards]
    relaunches = _integrate_batch(
        bundle,
        [path.samples[-1] for path in forwards],
        [-path.velocities[-1] for path in forwards],
        [max(t_back, t_rev) for t_back, t_rev in zip(t_backs, t_revs)],
        h,
    )
    backwards = [path_prefix(run, t_back) for run, t_back in zip(relaunches, t_backs)]
    errors = ordered_map(lambda pair: path_distance(*pair), zip(forwards, backwards))
    return [
        (forward, path_prefix(run, t_rev), error)
        for forward, run, t_rev, error in zip(forwards, relaunches, t_revs, errors)
    ]


def reversibility_scan(
    bundle: MetricBundle, x0, T: float, h: float, n_directions: int
) -> list[tuple[tuple[float, float], float]]:
    """The probe's error along unit directions fanned around the base point."""
    angles = 2.0 * np.pi * np.arange(n_directions) / n_directions + 0.137
    y0s = [(float(np.cos(angle)), float(np.sin(angle))) for angle in angles]
    return [(y0, error) for y0, (_, _, error) in zip(y0s, _probe(bundle, x0, y0s, T, h))]
