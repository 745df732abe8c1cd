import math

import numpy as np
import pytest

from geodrev import (
    ConvexityError,
    IsothermalMetric,
    LinearForm,
    MetricBundle,
    PhiFunction,
    Rectangle,
    alpha_coframe,
    calE,
    calF,
    crosscheck,
    directional_derivs,
    dual_frame,
    ecprinc_direct,
    frame_intermediates,
    omega_coframe,
    residual,
    structure_residuals,
)
from geodrev.frames import frame_fd_derivs
from geodrev.metric import beta_on_indicatrix

from conftest import random_points


@pytest.fixture(scope="module")
def generic_bundle():
    """Curved factor, non-constant non-closed form; exercises every term."""
    metric = IsothermalMetric.from_text("0.3*x1 - 0.2*x2^2", Rectangle(-1, 1, -1, 1))
    form = LinearForm.from_text("0.1 + 0.05*x2", "0.1*x1")
    return MetricBundle(metric, form, PhiFunction.matsumoto(0.4))


class TestAlphaCoframe:
    def test_flat_at_zero_angle(self):
        metric = IsothermalMetric.from_text("0", Rectangle(-1, 1, -1, 1))
        rows = alpha_coframe(metric, (0.0, 0.0), 0.0)
        np.testing.assert_allclose(rows[0], [0.0, 1.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(rows[1], [1.0, 0.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(rows[2], [0.0, 0.0, 1.0], atol=1e-15)

    def test_flat_at_quarter_turn(self):
        metric = IsothermalMetric.from_text("0", Rectangle(-1, 1, -1, 1))
        rows = alpha_coframe(metric, (0.0, 0.0), math.pi / 2)
        np.testing.assert_allclose(rows[0], [-1.0, 0.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(rows[1], [0.0, 1.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(rows[2], [0.0, 0.0, 1.0], atol=1e-15)

    def test_linear_nu(self):
        metric = IsothermalMetric.from_text("x1", Rectangle(-2, 2, -2, 2))
        rows = alpha_coframe(metric, (1.0, 0.0), 0.0)
        e = math.e
        np.testing.assert_allclose(rows[0], [0.0, e, 0.0], rtol=1e-15)
        np.testing.assert_allclose(rows[1], [e, 0.0, 0.0], rtol=1e-15)
        np.testing.assert_allclose(rows[2], [0.0, 1.0, 1.0], rtol=1e-15)

    def test_determinant_is_conformal_factor_squared(self, generic_bundle, rng):
        metric = generic_bundle.metric
        for _ in range(20):
            x = (rng.uniform(-0.9, 0.9), rng.uniform(-0.9, 0.9))
            t = rng.uniform(0, 2 * math.pi)
            rows = alpha_coframe(metric, x, t)
            nu = metric.nu.eval({"x1": x[0], "x2": x[1]})
            assert abs(np.linalg.det(rows)) == pytest.approx(math.exp(2 * nu), rel=1e-12)


def test_dual_frame_pairing_is_identity(generic_bundle, rng):
    metric = generic_bundle.metric
    for _ in range(100):
        x = (rng.uniform(-0.9, 0.9), rng.uniform(-0.9, 0.9))
        t = rng.uniform(0, 2 * math.pi)
        forms = alpha_coframe(metric, x, t)
        vectors = dual_frame(metric, x, t)
        pairing = forms @ vectors.T
        np.testing.assert_allclose(pairing, np.eye(3), atol=1e-12)


def test_structure_equations(rng):
    for nu_text in ("-ln(1 + (x1^2 + x2^2)/4)", "0.3*x1 - 0.2*x2^2"):
        metric = IsothermalMetric.from_text(nu_text, Rectangle(-1, 1, -1, 1))
        x1 = rng.uniform(-0.9, 0.9, 50)
        x2 = rng.uniform(-0.9, 0.9, 50)
        t = rng.uniform(0, 2 * math.pi, 50)
        r1, r2, r3 = structure_residuals(metric, x1, x2, t)
        assert r1 <= 1e-8
        assert r2 <= 1e-8
        assert r3 <= 1e-8


class TestDirectionalDerivs:
    def test_constant_form_flat_metric(self, class_b_bundle, rng):
        phi = class_b_bundle.phi
        for _ in range(10):
            x = (rng.uniform(-1, 1), rng.uniform(-1, 1))
            t = rng.uniform(0, 2 * math.pi)
            dd = directional_derivs(class_b_bundle, x, t)
            beta, beta_t, _ = beta_on_indicatrix(class_b_bundle, x, t)
            assert dd.p1 == pytest.approx(0.0, abs=1e-15)
            assert dd.p2 == pytest.approx(0.0, abs=1e-15)
            assert dd.p3 == pytest.approx(phi.d1(s=beta) * beta_t, rel=1e-13)

    def test_randers_convexity_is_one(self, class_a_bundle, rng):
        # phi'' == 0 and phi' == 1 collapse p + p33 to phi(beta) - beta = 1
        for _ in range(10):
            x = (rng.uniform(-1.4, 1.4), rng.uniform(-1.4, 1.4))
            t = rng.uniform(0, 2 * math.pi)
            dd = directional_derivs(class_a_bundle, x, t)
            assert dd.p + dd.p33 == pytest.approx(1.0, rel=1e-13)

    @pytest.mark.parametrize("key", ["class_a", "class_b", "irreversible"])
    def test_closed_form_matches_frame_differences(self, key, witness_bundles, rng):
        bundle = witness_bundles[key]
        x1s, x2s, ts = random_points(bundle, rng, 5)
        for x1, x2, t in zip(x1s, x2s, ts):
            closed = directional_derivs(bundle, (x1, x2), t)
            fd = frame_fd_derivs(bundle, (x1, x2), t)
            for name in ("p", "p1", "p2", "p3", "p31", "p32", "p33", "p332", "p333"):
                c = float(getattr(closed, name))
                f = float(getattr(fd, name))
                assert abs(c - f) <= 1e-6 * (1.0 + abs(c)), name

    def test_closed_form_matches_frame_differences_generic(self, generic_bundle, rng):
        x1s, x2s, ts = random_points(generic_bundle, rng, 5)
        for x1, x2, t in zip(x1s, x2s, ts):
            closed = directional_derivs(generic_bundle, (x1, x2), t)
            fd = frame_fd_derivs(generic_bundle, (x1, x2), t)
            for name in ("p", "p1", "p2", "p3", "p31", "p32", "p33", "p332", "p333"):
                c = float(getattr(closed, name))
                f = float(getattr(fd, name))
                assert abs(c - f) <= 1e-6 * (1.0 + abs(c)), name


class TestOmegaCoframe:
    def test_riemannian_profile_collapses_to_alpha(self, rng):
        metric = IsothermalMetric.from_text("0.2*x1", Rectangle(-1, 1, -1, 1))
        form = LinearForm.from_text("0.1", "0.05")
        bundle = MetricBundle(metric, form, PhiFunction.from_text("1", 0.5))
        for _ in range(10):
            x = (rng.uniform(-1, 1), rng.uniform(-1, 1))
            t = rng.uniform(0, 2 * math.pi)
            omega = omega_coframe(bundle, x, t)
            alpha = alpha_coframe(metric, x, t)
            np.testing.assert_allclose(omega, alpha, atol=1e-14)

    def test_flat_randers_rows(self, rng):
        metric = IsothermalMetric.from_text("0", Rectangle(-1, 1, -1, 1))
        form = LinearForm.from_text("0.2", "0.1")
        bundle = MetricBundle(metric, form, PhiFunction.randers(0.9))
        for _ in range(10):
            x = (rng.uniform(-1, 1), rng.uniform(-1, 1))
            t = rng.uniform(0, 2 * math.pi)
            beta, beta_t, _ = beta_on_indicatrix(bundle, x, t)
            p = 1.0 + beta
            alpha = alpha_coframe(metric, x, t)
            omega = omega_coframe(bundle, x, t)
            np.testing.assert_allclose(omega[0], math.sqrt(p) * alpha[0], rtol=1e-12)
            np.testing.assert_allclose(
                omega[1], p * alpha[1] + beta_t * alpha[0], rtol=1e-12, atol=1e-15
            )
            # x-independent data kill every term of the third-row correction
            np.testing.assert_allclose(omega[2], alpha[2] / math.sqrt(p), rtol=1e-12, atol=1e-15)

    def test_first_row_structure(self, generic_bundle, rng):
        for _ in range(10):
            x = (rng.uniform(-0.9, 0.9), rng.uniform(-0.9, 0.9))
            t = rng.uniform(0, 2 * math.pi)
            dd = directional_derivs(generic_bundle, x, t)
            omega = omega_coframe(generic_bundle, x, t)
            alpha = alpha_coframe(generic_bundle.metric, x, t)
            assert np.all(np.isfinite(omega))
            root = math.sqrt(dd.p * (dd.p + dd.p33))
            np.testing.assert_allclose(omega[0], root * alpha[0], rtol=1e-12)

    def test_convexity_violation_reported(self):
        metric = IsothermalMetric.from_text("0", Rectangle(-1, 1, -1, 1))
        form = LinearForm.from_text("0.65", "0")
        bundle = MetricBundle(metric, form, PhiFunction.matsumoto(0.7))
        with pytest.raises(ConvexityError):
            omega_coframe(bundle, (0.0, 0.0), 0.0)


class TestFrameIntermediates:
    @pytest.mark.parametrize("key", ["class_a", "class_b", "irreversible"])
    def test_coefficient_identities(self, key, witness_bundles, rng):
        bundle = witness_bundles[key]
        self._check_identities(bundle, rng)

    def test_coefficient_identities_generic(self, generic_bundle, rng):
        self._check_identities(generic_bundle, rng)

    @staticmethod
    def _check_identities(bundle, rng):
        phi = bundle.phi
        x1s, x2s, ts = random_points(bundle, rng, 100)
        for x1, x2, t in zip(x1s, x2s, ts):
            fi = frame_intermediates(bundle, (x1, x2), t)
            beta, beta_t, bsq = beta_on_indicatrix(bundle, (x1, x2), t)
            b = math.sqrt(bsq)
            e_val = calE(phi, beta)
            f_val = calF(phi, beta, b)
            scale = 1.0 + abs(e_val) * (1.0 + beta_t * beta_t)
            # coeff_minus = T3 + F*beta collapses to beta_t^2 * E
            coeff_minus = fi.T3 + f_val * beta
            assert abs(coeff_minus - beta_t**2 * e_val) <= 1e-10 * scale
            # coeff_plus = -beta_t*beta*E - beta_t*F + T4 collapses to -beta_t*beta*E
            coeff_plus = -beta_t * beta * e_val - beta_t * f_val + fi.T4
            assert abs(coeff_plus - (-beta_t * beta * e_val)) <= 1e-10 * scale
            # equivalently T4 = beta_t * F
            assert abs(fi.T4 - beta_t * f_val) <= 1e-10 * (1.0 + abs(f_val))

    def test_t1_t2_chain_forms(self, generic_bundle, rng):
        phi = generic_bundle.phi
        x1s, x2s, ts = random_points(generic_bundle, rng, 50)
        for x1, x2, t in zip(x1s, x2s, ts):
            fi = frame_intermediates(generic_bundle, (x1, x2), t)
            beta, beta_t, _ = beta_on_indicatrix(generic_bundle, (x1, x2), t)
            t1 = phi.d2(s=beta) * beta_t * fi.G + phi.d1(s=beta) * fi.H
            t2 = phi.d2(s=-beta) * beta_t * fi.G - phi.d1(s=-beta) * fi.H
            assert fi.T1 == pytest.approx(t1, rel=1e-12, abs=1e-14)
            assert fi.T2 == pytest.approx(t2, rel=1e-12, abs=1e-14)


class TestEcprincDirect:
    def test_constant_data_vanishes(self, rng):
        metric = IsothermalMetric.from_text("0.4", Rectangle(-1, 1, -1, 1))
        form = LinearForm.from_text("0.2", "0.1")
        bundle = MetricBundle(metric, form, PhiFunction.matsumoto(0.4))
        for _ in range(10):
            x = (rng.uniform(-1, 1), rng.uniform(-1, 1))
            t = rng.uniform(0, 2 * math.pi)
            assert ecprinc_direct(bundle, x, t) == pytest.approx(0.0, abs=1e-15)

    def test_closed_form_with_curved_factor_vanishes(self, class_a_bundle, rng):
        x1s, x2s, ts = random_points(class_a_bundle, rng, 100)
        for x1, x2, t in zip(x1s, x2s, ts):
            assert abs(ecprinc_direct(class_a_bundle, (x1, x2), t)) <= 1e-8

    def test_irreversible_matches_residual(self, irreversible_bundle, rng):
        # flat factor: the raw defect and the closed-form residual coincide
        x1s, x2s, ts = random_points(irreversible_bundle, rng, 20)
        nonzero = 0
        for x1, x2, t in zip(x1s, x2s, ts):
            direct = ecprinc_direct(irreversible_bundle, (x1, x2), t)
            closed = residual(irreversible_bundle, (x1, x2), t)
            if abs(direct) > 1e-6:
                nonzero += 1
                assert abs(direct - closed) <= 1e-6 * abs(direct)
        assert nonzero > 10

    def test_half_turn_symmetry(self, generic_bundle, rng):
        # the defect is invariant under t -> t + pi: both factors flip signs
        # that cancel (odd E against beta_t, even F against the pair swap)
        x1s, x2s, ts = random_points(generic_bundle, rng, 50)
        for x1, x2, t in zip(x1s, x2s, ts):
            here = ecprinc_direct(generic_bundle, (x1, x2), t)
            there = ecprinc_direct(generic_bundle, (x1, x2), t + math.pi)
            assert abs(here - there) <= 1e-10 * (1.0 + abs(here))

    def test_swapping_roles_flips_sign(self, generic_bundle, rng):
        # exchanging the two profiles in the defect is a literal antisymmetry
        from geodrev.frames import _coord_at
        from geodrev.reversibility import _fiber, point_data

        x1s, x2s, ts = random_points(generic_bundle, rng, 20)
        for x1, x2, t in zip(x1s, x2s, ts):
            pd = point_data(generic_bundle.form, generic_bundle.metric, x1, x2)
            ct, st = math.cos(t), math.sin(t)
            nu_plus = pd.nu1 * ct + pd.nu2 * st
            nu_minus = pd.nu2 * ct - pd.nu1 * st
            cp = _coord_at(pd, generic_bundle.phi, _fiber(pd, t))
            cr = _coord_at(pd, generic_bundle.phi, _fiber(pd, t + math.pi))

            def row(c):
                return pd.e_mnu * (
                    c.dp_dx1dt * ct + c.dp_dx2dt * st + c.dp_dtt * nu_minus
                    + c.dp_dx1 * st - c.dp_dx2 * ct + c.dp_dt * nu_plus
                )

            original = row(cp) * (cr.f0 + cr.dp_dtt) - row(cr) * (cp.f0 + cp.dp_dtt)
            swapped = row(cr) * (cp.f0 + cp.dp_dtt) - row(cp) * (cr.f0 + cr.dp_dtt)
            assert swapped == pytest.approx(-original, rel=1e-12, abs=1e-18)


class TestCrosscheck:
    def test_reversible_witnesses_vanish(self, class_a_bundle, class_b_bundle, rng):
        for bundle in (class_a_bundle, class_b_bundle):
            x1s, x2s, ts = random_points(bundle, rng, 30)
            for x1, x2, t in zip(x1s, x2s, ts):
                result = crosscheck(bundle, (x1, x2), t)
                assert abs(float(result.direct)) <= 1e-9
                assert abs(float(result.closed_form)) <= 1e-9

    def test_irreversible_magnitudes_agree(self, irreversible_bundle, rng):
        x1s, x2s, ts = random_points(irreversible_bundle, rng, 100)
        result = crosscheck(irreversible_bundle, (x1s, x2s), ts)
        live = np.abs(result.direct) > 1e-9
        assert np.count_nonzero(live) > 50
        assert float(np.max(result.relative_gap[live])) <= 1e-6

    def test_shared_point_data_is_bitwise_equal(self, witness_bundles, generic_bundle, rng):
        """One point_data evaluation gives what three separate ones gave."""
        for bundle in (*witness_bundles.values(), generic_bundle):
            x1s, x2s, ts = random_points(bundle, rng, 40)
            x = (x1s[:, None], x2s[:, None])
            t = ts[None, :]
            result = crosscheck(bundle, x, t)
            direct = ecprinc_direct(bundle, x, t)
            closed = residual(bundle, x, t)
            weight = np.exp(-bundle.metric.nu.eval({"x1": x[0], "x2": x[1]}))
            mag = np.abs(np.asarray(direct, dtype=float))
            scaled = weight * np.abs(np.asarray(closed, dtype=float))
            gap = np.abs(mag - scaled) / np.maximum(np.maximum(mag, scaled), 1e-300)
            for got, want in ((result.direct, direct), (result.closed_form, closed), (result.relative_gap, gap)):
                assert np.shape(got) == np.shape(want)
                assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    def test_gap_accounts_for_conformal_weight(self, generic_bundle, rng):
        x1s, x2s, ts = random_points(generic_bundle, rng, 50)
        result = crosscheck(generic_bundle, (x1s, x2s), ts)
        live = np.abs(result.direct) > 1e-8
        assert np.count_nonzero(live) > 20
        assert float(np.max(result.relative_gap[live])) <= 1e-6
