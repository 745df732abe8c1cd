"""The raw defect on the unit circle bundle of the Riemannian factor.

The bundle carries the coframe

    a1 = -e^nu sin t dx1 + e^nu cos t dx2
    a2 =  e^nu cos t dx1 + e^nu sin t dx2
    a3 = -nu_2 dx1 + nu_1 dx2 + dt

whose dual frame gives the directional derivatives p_1 and p_32 of the
restricted norm p(x, t) = phi(beta(x, t)).  They make up the raw
projective-equivalence defect

    (p_32 - p_1)(r + r_33) - (r_32 - r_1)(p + p_33),      r(x,t) = p(x,t+pi)

which is checked against the closed-form residual of the reversibility
module; the two agree up to the positive factor e^{-nu}.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .metric import MetricBundle, PhiFunction
from .reversibility import (
    PointData,
    _CoordData,
    _Fiber,
    _coord_data,
    _fiber,
    _ladder,
    _m_direct_from_point,
    _residual_from_point,
    point_data,
)


def _coord_at(pd: PointData, phi: PhiFunction, fb: _Fiber) -> _CoordData:
    """_coord_data with phi, phi' and phi'' evaluated at the fiber's beta."""
    phi.check_s(fb.beta)
    return _coord_data(pd, fb, phi.phi(s=fb.beta), phi.d1(s=fb.beta), phi.d2(s=fb.beta))


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
