"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
PASS/FAIL lines as they are produced.
"""

import math
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

from geodrev import (
    IsothermalMetric,
    Rectangle,
    Verdict,
    classify,
    crosscheck,
    reversibility_scan,
)
from geodrev.scalarfield import ScalarField

from conftest import CORPUS_PROFILES, EVEN_PLUS_LINEAR, doubled, random_points
from oracles import (
    beta_on_indicatrix,
    calE,
    calF,
    fd_check,
    frame_fd_derivs,
    gauss_curvature,
    integrability_obstruction,
    integrate,
    ref_directional_derivs,
    riemann_geodesic,
    spray,
    structure_residuals,
)


@contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({label}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({label}): PASS")


def test_criterion_1_parity(corpus):
    with criterion(1, "parity of E and F"):
        assert len(corpus) == 5
        for phi in corpus.values():
            s = np.linspace(-0.85 * phi.b0, 0.85 * phi.b0, 200)
            b = 0.9 * phi.b0
            e_plus = np.asarray(calE(phi, s))
            e_minus = np.asarray(calE(phi, -s))
            f_plus = np.asarray(calF(phi, s, b))
            f_minus = np.asarray(calF(phi, -s, b))
            e_scale = 1.0 + float(np.max(np.abs(e_plus)))
            f_scale = 1.0 + float(np.max(np.abs(f_plus)))
            assert float(np.max(np.abs(e_plus + e_minus))) <= 1e-12 * e_scale
            assert float(np.max(np.abs(f_plus - f_minus))) <= 1e-12 * f_scale


def test_criterion_2_linear_plus_even_profiles(corpus):
    with criterion(2, "E characterizes even-plus-linear profiles"):
        for name in EVEN_PLUS_LINEAR:
            phi = corpus[name]
            s = np.linspace(-0.9 * phi.b0, 0.9 * phi.b0, 201)
            values = np.abs(np.asarray(calE(phi, s)))
            peak = float(np.max(values))
            assert peak <= 1e-9 * (1.0 + peak), name
        matsumoto = corpus["matsumoto"]
        window = np.linspace(0.05, 0.3, 200)
        assert float(np.max(np.abs(np.asarray(calE(matsumoto, window))))) >= 0.1
        # exact-rational substitution oracle at s = 1/10
        s = Fraction(1, 10)
        phi = lambda u: 1 / (1 - u)
        d1 = lambda u: 1 / (1 - u) ** 2
        d2 = lambda u: 2 / (1 - u) ** 3
        oracle = float(
            s * (d1(s) * d2(-s) + d1(-s) * d2(s)) + (phi(-s) * d2(s) - phi(s) * d2(-s))
        )
        assert calE(matsumoto, 0.1) == pytest.approx(oracle, abs=1e-12)
        assert calE(matsumoto, 0.1) == pytest.approx(1.23673, abs=1e-5)


def test_criterion_3_F_vanishes_only_for_even_profiles(corpus):
    with criterion(3, "F vanishes exactly for even profiles"):
        for name, phi in corpus.items():
            s = np.linspace(-0.9 * phi.b0, 0.9 * phi.b0, 201)
            b = 0.95 * phi.b0
            f_values = np.abs(np.asarray(calF(phi, s, b)))
            even_gap = float(
                np.max(np.abs(np.asarray(phi.phi(s=s)) - np.asarray(phi.phi(s=-s))))
            )
            d1 = np.abs(np.asarray(phi.d1(s=s)))
            if even_gap <= 1e-12:
                assert float(np.max(f_values)) <= 1e-9, name
            elif float(np.min(d1)) > 0.0:
                assert float(np.min(f_values)) > 0.0, name
        randers = corpus["randers"]
        s = np.linspace(-0.8, 0.8, 201)
        np.testing.assert_allclose(np.asarray(calF(randers, s, 0.85)), 2.0, rtol=0, atol=1e-12)


def test_criterion_4_fiber_derivative_identity(witness_bundles, rng):
    with criterion(4, "beta_t^2 = b^2 - beta^2"):
        for bundle in witness_bundles.values():
            x1s, x2s, ts = random_points(bundle, rng, 334)
            beta, beta_t, bsq = beta_on_indicatrix(bundle, (x1s, x2s), ts)
            gap = np.abs(beta_t * beta_t - (bsq - beta * beta))
            scale = 1.0 + np.abs(bsq)
            assert float(np.max(gap / scale)) <= 1e-12


def test_criterion_5_crosscheck_oracle(witness_bundles, rng):
    with criterion(5, "direct defect vs closed-form residual"):
        irked = witness_bundles["irreversible"]
        x1s, x2s, ts = random_points(irked, rng, 100)
        result = crosscheck(irked, (x1s, x2s), ts)
        live = np.abs(result.direct) > 1e-9
        assert np.count_nonzero(live) > 50
        assert float(np.max(result.relative_gap[live])) <= 1e-6
        for key in ("class_a", "class_b"):
            bundle = witness_bundles[key]
            x1s, x2s, ts = random_points(bundle, rng, 100)
            result = crosscheck(bundle, (x1s, x2s), ts)
            eps = bundle.sampling.eps_zero
            assert float(np.max(np.abs(result.direct))) <= eps
            assert float(np.max(np.abs(result.closed_form))) <= eps


def test_criterion_6_classification(witness_bundles):
    with criterion(6, "classification of the canonical bundles"):
        expected = {
            "class_a": Verdict.CLASS_A,
            "class_b": Verdict.CLASS_B,
            "irreversible": Verdict.IRREVERSIBLE,
        }
        for key, bundle in witness_bundles.items():
            coarse = classify(bundle)
            assert coarse.verdict is expected[key], key
            fine = classify(doubled(bundle))
            assert fine.verdict is expected[key], key


def test_criterion_7_dynamical_oracle(witness_bundles):
    with criterion(7, "dynamical reversibility probes"):
        class_a = witness_bundles["class_a"]
        for _, error in reversibility_scan(class_a, (0.0, 0.0), 1.0, 1e-3, 8):
            assert error <= 1e-6
        irked = witness_bundles["irreversible"]
        errors = [e for _, e in reversibility_scan(irked, (0.0, 0.0), 1.0, 1e-3, 8)]
        assert max(errors) >= 1e-3
        class_b = witness_bundles["class_b"]
        rng = np.random.default_rng(7)
        for k in range(8):
            angle = 2.0 * math.pi * k / 8 + 0.05
            y0 = (math.cos(angle), math.sin(angle))
            path = integrate(class_b, (0.0, 0.0), y0, 1.0, 1e-3)
            start, end = path.samples[0], path.samples[-1]
            direction = (end - start) / np.linalg.norm(end - start)
            rel = path.samples - start
            sag = np.abs(rel[:, 0] * direction[1] - rel[:, 1] * direction[0])
            assert float(np.max(sag)) <= 1e-8
            x = (rng.uniform(-0.8, 0.8), rng.uniform(-0.8, 0.8))
            g1, g2 = spray(class_b, x, y0)
            assert max(abs(g1), abs(g2)) <= 1e-10


def test_criterion_8_geometry_backbone(rng):
    with criterion(8, "curvature and structure equations"):
        metric = IsothermalMetric.from_text(
            "-ln(1 + (x1^2 + x2^2)/4)", Rectangle(-2, 2, -2, 2)
        )
        for _ in range(50):
            x = (rng.uniform(-1.9, 1.9), rng.uniform(-1.9, 1.9))
            assert gauss_curvature(metric, x) == pytest.approx(1.0, abs=1e-8)
        x1 = rng.uniform(-1.9, 1.9, 50)
        x2 = rng.uniform(-1.9, 1.9, 50)
        t = rng.uniform(0, 2 * math.pi, 50)
        r1, r2, r3 = structure_residuals(metric, x1, x2, t)
        assert max(r1, r2, r3) <= 1e-8
        bumpy = IsothermalMetric.from_text(
            "0.3*x1 + 0.1*x2^2 - 0.05*x1^2*x2", Rectangle(-1, 1, -1, 1)
        )
        for _ in range(50):
            x = (rng.uniform(-0.9, 0.9), rng.uniform(-0.9, 0.9))
            lap = integrability_obstruction(bumpy, x)
            k = gauss_curvature(bumpy, x)
            nu = bumpy.nu.eval({"x1": x[0], "x2": x[1]})
            assert abs(lap - (-math.exp(2.0 * nu) * k)) <= 1e-12 * (1.0 + abs(lap))


def test_criterion_9_derivative_pipeline(witness_bundles, rng):
    with criterion(9, "derivative pipeline and integrator order"):
        for text, b0 in CORPUS_PROFILES.values():
            field = ScalarField.parse(text, ("s",))
            d = field.diff("s")
            for s in rng.uniform(-0.8 * b0, 0.8 * b0, 40):
                sym = d(s=float(s))
                num = fd_check(field, "s", {"s": float(s)}, 1e-6)
                assert abs(sym - num) <= 1e-6 * (1.0 + abs(sym))
        for bundle in witness_bundles.values():
            x1s, x2s, ts = random_points(bundle, rng, 4)
            for x1, x2, t in zip(x1s, x2s, ts):
                closed = ref_directional_derivs(bundle, (x1, x2), t)
                fd = frame_fd_derivs(bundle, (x1, x2), t)
                for name in ("p", "p1", "p2", "p3", "p31", "p32", "p33", "p332", "p333"):
                    c = float(getattr(closed, name))
                    f = float(getattr(fd, name))
                    assert abs(c - f) <= 1e-6 * (1.0 + abs(c)), name
        sphere = IsothermalMetric.from_text(
            "-ln(1 + (x1^2 + x2^2)/4)", Rectangle(-3, 3, -3, 3)
        )
        ends = []
        for h in (0.05, 0.025, 0.0125):
            path = riemann_geodesic(sphere, (0.3, 0.1), (0.8, 0.55), 1.0, h)
            assert not path.truncated
            ends.append(path.samples[-1])
        ratio = np.linalg.norm(ends[0] - ends[1]) / np.linalg.norm(ends[1] - ends[2])
        assert 8.0 <= ratio <= 32.0
