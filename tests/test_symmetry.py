"""Metamorphic tests: the pipeline commutes with the symmetries of the square.

The paper's condition is coordinate-free, so an isometry of the base that
keeps the isothermal form and the sampling grid keeps every verdict.  The
witnesses' domains are squares centred at 0, mapped onto themselves by the
eight dihedral maps R.  The pulled-back structure has nu'(x) = nu(R^-1 x),
b'(x) = R b(R^-1 x) and the same phi.  Its expressions differ from the
original's, so values are compared within stated tolerances, not by bits.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geodrev import (
    IsothermalMetric,
    LinearForm,
    MetricBundle,
    PhiFunction,
    Rectangle,
    classify,
    crosscheck,
    reversibility_scan,
)
from geodrev.metric import BASE_VARS, sample_grid
from geodrev.scalarfield import ScalarField, Var, neg

from conftest import CORPUS_PROFILES, make_class_a_bundle, make_class_b_bundle, make_even_bundle, make_irreversible_bundle
from oracles import substitute

WITNESSES = {
    "class_a": make_class_a_bundle,
    "class_b": make_class_b_bundle,
    "irreversible": make_irreversible_bundle,
    "even": make_even_bundle,
}

# Rotations by k * 90 degrees and reflections in the line at k * 45 degrees.
_COS_SIN = [(1, 0), (0, 1), (-1, 0), (0, -1)]
DIHEDRAL = {
    **{f"rot{90 * k}": np.array([[c, -s], [s, c]]) for k, (c, s) in enumerate(_COS_SIN)},
    **{f"ref{45 * k}": np.array([[c, s], [s, -c]]) for k, (c, s) in enumerate(_COS_SIN)},
}

# b_sup and residual_max came out bitwise equal under every map (numpy 2.4.6, x86-64).
REL_TOL = 1e-12
# The crosscheck gap is itself a relative rounding error (~5e-12 on Irreversible).
GAP_TOL = 1e-9
# The T = 0.3 fan errors agreed to within 3e-11 of each other.
FAN_TOL = 1e-10


def _signed(sign, e):
    return e if sign > 0 else neg(e)


def _pull_back(field: ScalarField, R) -> ScalarField:
    """x -> field(R^-1 x); each row of R^-1 = R^T has one entry, +1 or -1."""
    e = substitute(substitute(field.expr, "x1", Var("u1")), "x2", Var("u2"))
    for i, row in enumerate(R.T):
        j = int(np.flatnonzero(row)[0])
        e = substitute(e, f"u{i + 1}", _signed(row[j], Var(BASE_VARS[j])))
    return ScalarField(e, BASE_VARS)


def _transformed(bundle: MetricBundle, R) -> MetricBundle:
    d = bundle.metric.domain
    assert d.x1min == -d.x1max == d.x2min == -d.x2max
    pulled = [_pull_back(bundle.form.b1, R), _pull_back(bundle.form.b2, R)]
    components = []
    for row in R:
        j = int(np.flatnonzero(row)[0])
        components.append(ScalarField(_signed(row[j], pulled[j].expr), BASE_VARS))
    metric = IsothermalMetric(_pull_back(bundle.metric.nu, R), d)
    return MetricBundle(metric, LinearForm(*components), bundle.phi, bundle.sampling)


def _evidence(bundle: MetricBundle) -> dict:
    result = classify(bundle)
    X1, X2, t = sample_grid(bundle.metric.domain, bundle.sampling)
    check = crosscheck(bundle, (X1, X2), t)
    direct = np.broadcast_to(check.direct, check.relative_gap.shape)
    live = np.abs(direct) > 1e-9  # where the gap is not a ratio of rounding noise
    return {
        "verdict": result.verdict,
        "b_sup": bundle.validate().b_sup,
        "residual_max": result.residual_max,
        "crosscheck_gap": float(np.max(check.relative_gap[live], initial=0.0)),
    }


@pytest.fixture(scope="module")
def original_evidence():
    return {name: _evidence(make()) for name, make in WITNESSES.items()}


@pytest.mark.parametrize("map_name", DIHEDRAL)
@pytest.mark.parametrize("witness", WITNESSES)
def test_dihedral_map_keeps_verdict_and_evidence(witness, map_name, original_evidence):
    want = original_evidence[witness]
    got = _evidence(_transformed(WITNESSES[witness](), DIHEDRAL[map_name]))
    assert got["verdict"] == want["verdict"]
    assert got["b_sup"] == pytest.approx(want["b_sup"], rel=REL_TOL, abs=0.0)
    assert got["residual_max"] == pytest.approx(want["residual_max"], rel=REL_TOL, abs=0.0)
    assert got["crosscheck_gap"] == pytest.approx(want["crosscheck_gap"], rel=0.0, abs=GAP_TOL)


@pytest.mark.parametrize("witness", ["class_a", "irreversible"])
def test_quarter_turn_shifts_the_fan_by_two_directions(witness):
    # The fan's directions are 2 pi k / 8 + 0.137, so a quarter turn maps
    # direction k to direction k + 2.
    bundle = WITNESSES[witness]()
    original = [e for _, e in reversibility_scan(bundle, (0.0, 0.0), 0.3, 1e-3, 8)]
    turned = _transformed(bundle, DIHEDRAL["rot90"])
    rotated = [e for _, e in reversibility_scan(turned, (0.0, 0.0), 0.3, 1e-3, 8)]
    shifted = rotated[2:] + rotated[:2]
    np.testing.assert_allclose(shifted, original, rtol=0.0, atol=FAN_TOL)
    if witness == "irreversible":
        assert max(original) > 1e4 * FAN_TOL  # the comparison is not between noise


# The generated families of the benchmark corpus, drawn as its draw_family
# draws them: coefficients as 6-decimal texts, each family over [-1, 1]^2.
# Hypothesis also draws the ends of each range, 0 among them, where a
# family's verdict may differ from the one its construction aims at.
def _num(draw, lo: float, hi: float) -> str:
    return f"{draw(st.floats(lo, hi)):.6f}"


@st.composite
def _family(draw):
    """(nu, b1, b2, profile name) of one generated config."""
    family = draw(st.sampled_from(["even", "exact", "const_flat", "xdep_matsumoto"]))
    if family == "even":
        nu = f"{_num(draw, -0.1, 0.1)}*x1 + {_num(draw, -0.1, 0.1)}*x2^2 + {_num(draw, -0.1, 0.1)}*x1*x2"
        b1 = f"{_num(draw, -0.2, 0.2)} + {_num(draw, -0.15, 0.15)}*x2"
        b2 = f"{_num(draw, -0.2, 0.2)} + {_num(draw, -0.15, 0.15)}*x1"
        return nu, b1, b2, "even_quadratic"
    if family == "exact":
        nu = f"{_num(draw, -0.05, 0.05)}*x1 + {_num(draw, -0.05, 0.05)}*x2^2 + {_num(draw, -0.05, 0.05)}*x1*x2"
        a1, a2, c = _num(draw, -0.12, 0.12), _num(draw, -0.12, 0.12), _num(draw, -0.04, 0.04)
        d = draw(st.floats(-0.03, 0.03))
        # b = grad(a1*x1 + a2*x2 + c*x1*x2 + d*(x1^2 - x2^2)), so curl(b) = c - c = 0
        b1 = f"{a1} + {c}*x2 + {2 * d:.6f}*x1"
        b2 = f"{a2} + {c}*x1 + {-2 * d:.6f}*x2"
        profile = draw(st.sampled_from(["randers", "quadratic_plus_linear", "exp_plus_linear"]))
        return nu, b1, b2, profile
    if family == "const_flat":
        nu, b1, b2 = _num(draw, -0.1, 0.1), _num(draw, -0.18, 0.18), _num(draw, -0.18, 0.18)
        return nu, b1, b2, "matsumoto"
    sign = draw(st.sampled_from([1.0, -1.0]))
    b1 = f"{_num(draw, 0.1, 0.2)} + {sign * draw(st.floats(0.05, 0.12)):.6f}*x1"
    return "0", b1, _num(draw, -0.08, 0.08), "matsumoto"


# A generated family's residual_max and crosscheck gap may be rounding
# noise, whose bits the mapped expressions change: below this they count
# as equal zeros.
NOISE = 1e-15


@settings(max_examples=20, deadline=None, derandomize=True)
@given(drawn=_family(), map_name=st.sampled_from(sorted(DIHEDRAL)))
def test_dihedral_map_keeps_generated_family_evidence(drawn, map_name):
    nu, b1, b2, profile = drawn
    metric = IsothermalMetric.from_text(nu, Rectangle(-1.0, 1.0, -1.0, 1.0))
    bundle = MetricBundle(metric, LinearForm.from_text(b1, b2), PhiFunction.from_text(*CORPUS_PROFILES[profile]))
    want = _evidence(bundle)
    got = _evidence(_transformed(bundle, DIHEDRAL[map_name]))
    assert got["verdict"] == want["verdict"]
    assert got["b_sup"] == pytest.approx(want["b_sup"], rel=REL_TOL, abs=0.0)
    assert got["residual_max"] == pytest.approx(want["residual_max"], rel=REL_TOL, abs=NOISE)
    assert got["crosscheck_gap"] == pytest.approx(want["crosscheck_gap"], rel=0.0, abs=GAP_TOL)
