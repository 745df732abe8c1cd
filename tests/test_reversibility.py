import math
from fractions import Fraction

import numpy as np
import pytest

from geodrev import (
    EvalDomainError,
    IsothermalMetric,
    LinearForm,
    MetricBundle,
    PhiFunction,
    Rectangle,
    Verdict,
    classify,
    even_odd_decompose,
    residual,
)
from geodrev.reversibility import _ladder, _zero_test, point_data

from conftest import CORPUS_PROFILES, EVEN_PLUS_LINEAR, doubled
from oracles import (
    calE,
    calF,
    curl21,
    gauss_curvature,
    integrability_obstruction,
    m_coeffs,
    pde_residuals,
    ref_m_direct,
)


def exact_matsumoto_E(s: Fraction) -> Fraction:
    """Rational-arithmetic evaluation for phi(s) = 1/(1-s)."""
    phi = lambda u: 1 / (1 - u)
    d1 = lambda u: 1 / (1 - u) ** 2
    d2 = lambda u: 2 / (1 - u) ** 3
    return s * (d1(s) * d2(-s) + d1(-s) * d2(s)) + (phi(-s) * d2(s) - phi(s) * d2(-s))


def exact_matsumoto_F(s: Fraction, b: Fraction) -> Fraction:
    phi = lambda u: 1 / (1 - u)
    d1 = lambda u: 1 / (1 - u) ** 2
    d2 = lambda u: 2 / (1 - u) ** 3
    return (b * b - s * s) * (d1(s) * d2(-s) + d1(-s) * d2(s)) + (
        phi(-s) * d1(s) + phi(s) * d1(-s)
    )


class TestCalE:
    def test_randers_vanishes(self):
        phi = PhiFunction.randers(0.9)
        for s in (-0.5, 0.0, 0.3, 0.77):
            assert calE(phi, s) == 0.0

    def test_even_profile_vanishes(self, rng):
        phi = PhiFunction.from_text("1 + s^2", 0.9)
        for s in rng.uniform(-0.8, 0.8, 50):
            assert abs(calE(phi, float(s))) <= 1e-14

    def test_matsumoto_against_rational_oracle(self):
        phi = PhiFunction.matsumoto(0.4)
        expected = float(exact_matsumoto_E(Fraction(1, 10)))
        assert calE(phi, 0.1) == pytest.approx(expected, rel=1e-12)
        assert calE(phi, 0.1) == pytest.approx(1.23673, abs=1e-5)

    def test_vanishes_at_origin(self, corpus):
        for phi in corpus.values():
            assert abs(calE(phi, 0.0)) <= 1e-15

    def test_out_of_domain_rejected(self):
        phi = PhiFunction.matsumoto(0.4)
        with pytest.raises(Exception):
            calE(phi, 0.5)


class TestCalF:
    def test_randers_is_two(self, rng):
        phi = PhiFunction.randers(0.9)
        for s in rng.uniform(-0.7, 0.7, 50):
            assert calF(phi, float(s), 0.8) == pytest.approx(2.0, abs=1e-12)

    def test_even_profile_vanishes(self, rng):
        phi = PhiFunction.from_text("1 + s^2", 0.9)
        for s in rng.uniform(-0.7, 0.7, 50):
            assert abs(calF(phi, float(s), 0.8)) <= 1e-13

    def test_matsumoto_against_rational_oracle(self):
        phi = PhiFunction.matsumoto(0.4)
        expected = float(exact_matsumoto_F(Fraction(1, 10), Fraction(3, 10)))
        assert calF(phi, 0.1, 0.3) == pytest.approx(expected, rel=1e-12)
        assert calF(phi, 0.1, 0.3) == pytest.approx(2.37040, abs=1e-5)


@pytest.mark.parametrize("name", sorted(CORPUS_PROFILES))
def test_parity_of_E_and_F(name, corpus):
    phi = corpus[name]
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


@pytest.mark.parametrize("name", sorted(EVEN_PLUS_LINEAR))
def test_E_vanishes_for_even_plus_linear_profiles(name, corpus):
    phi = corpus[name]
    s = np.linspace(-0.9 * phi.b0, 0.9 * phi.b0, 201)
    peak = float(np.max(np.abs(np.asarray(calE(phi, s)))))
    assert peak <= 1e-9 * (1.0 + peak)


def test_E_stays_large_for_matsumoto(corpus):
    phi = corpus["matsumoto"]
    s = np.linspace(0.05, 0.3, 200)
    assert float(np.max(np.abs(np.asarray(calE(phi, s))))) >= 0.1


def test_F_nonvanishing_for_monotone_noneven_profiles(corpus):
    b = None
    for name, phi in corpus.items():
        s = np.linspace(-0.9 * phi.b0, 0.9 * phi.b0, 201)
        b = 0.95 * phi.b0
        d1 = np.asarray(phi.d1(s=s))
        even_gap = float(np.max(np.abs(np.asarray(phi.phi(s=s)) - np.asarray(phi.phi(s=-s)))))
        if even_gap <= 1e-12:
            assert float(np.max(np.abs(np.asarray(calF(phi, s, b))))) <= 1e-12
        elif float(np.min(np.abs(d1))) > 0.0:
            assert float(np.min(np.abs(np.asarray(calF(phi, s, b))))) > 0.0


class TestCurl:
    def test_gradient_form(self):
        form = LinearForm.from_text("x2", "x1")
        assert curl21(form, (0.3, -0.7)) == 0.0

    def test_rotation_form(self):
        form = LinearForm.from_text("-x2", "x1")
        assert curl21(form, (0.3, -0.7)) == 2.0

    def test_constants(self):
        form = LinearForm.from_text("0.2", "0.1")
        assert curl21(form, (0.0, 0.0)) == 0.0


class TestMCoefficients:
    def test_saddle_form(self):
        metric = IsothermalMetric.from_text("0", Rectangle(-1, 1, -1, 1))
        form = LinearForm.from_text("x1", "-x2")
        k = m_coeffs(form, metric, (0.2, 0.4))
        assert (k.K1, k.K2, k.K3) == pytest.approx((0.0, 1.0, 0.0), abs=1e-15)
        for t in np.linspace(0, 2 * math.pi, 9):
            assert k.value(t) == pytest.approx(math.cos(2 * t), abs=1e-15)

    def test_constant_form_flat_metric(self):
        metric = IsothermalMetric.from_text("0", Rectangle(-1, 1, -1, 1))
        form = LinearForm.from_text("0.2", "0.3")
        k = m_coeffs(form, metric, (0.1, 0.1))
        assert (k.K1, k.K2, k.K3) == (0.0, 0.0, 0.0)

    def test_conformal_gradient_contribution(self):
        metric = IsothermalMetric.from_text("x1", Rectangle(-1, 1, -1, 1))
        form = LinearForm.from_text("1", "0")
        k = m_coeffs(form, metric, (0.0, 0.0))
        assert (k.K1, k.K2, k.K3) == pytest.approx((0.0, -1.0, 0.0), abs=1e-15)

    def test_direct_form_carries_conformal_weight(self, rng):
        # the literal angular obstruction equals e^{-nu} * (K1 + K2 cos2t + K3 sin2t)
        metric = IsothermalMetric.from_text("0.3*x1 - 0.2*x2^2", Rectangle(-1, 1, -1, 1))
        form = LinearForm.from_text("0.1 + 0.05*x2", "0.1*x1")
        x = (0.37, -0.21)
        k = m_coeffs(form, metric, x)
        weight = math.exp(-metric.nu.eval({"x1": x[0], "x2": x[1]}))
        for t in np.linspace(0.0, 2.0 * math.pi, 16, endpoint=False):
            direct = ref_m_direct(point_data(form, metric, *x), t)
            assert direct == pytest.approx(weight * k.value(t), rel=1e-12, abs=1e-15)

    def test_direct_form_equals_coefficients_for_flat_metric(self, rng):
        metric = IsothermalMetric.from_text("0", Rectangle(-1, 1, -1, 1))
        form = LinearForm.from_text("0.1 + 0.05*x2", "0.1*x1")
        x = (0.4, 0.2)
        k = m_coeffs(form, metric, x)
        for t in np.linspace(0.0, 2.0 * math.pi, 16, endpoint=False):
            assert ref_m_direct(point_data(form, metric, *x), t) == pytest.approx(k.value(t), rel=1e-12, abs=1e-15)


class TestResidual:
    def test_constant_form_flat_metric(self, class_b_bundle, rng):
        for _ in range(20):
            x = (rng.uniform(-1, 1), rng.uniform(-1, 1))
            t = rng.uniform(0, 2 * math.pi)
            assert residual(class_b_bundle, x, t) == pytest.approx(0.0, abs=1e-15)

    def test_closed_form_with_randers(self, class_a_bundle, rng):
        for _ in range(20):
            x = (rng.uniform(-1.4, 1.4), rng.uniform(-1.4, 1.4))
            t = rng.uniform(0, 2 * math.pi)
            assert residual(class_a_bundle, x, t) == pytest.approx(0.0, abs=1e-13)

    def test_rotation_form_gives_four(self, rng):
        metric = IsothermalMetric.from_text("0", Rectangle(-1, 1, -1, 1))
        form = LinearForm.from_text("-0.2*x2", "0.2*x1")
        bundle = MetricBundle(metric, form, PhiFunction.randers(0.9))
        # E == 0 and calF == 2, so the residual is 2 * curl21 = 2 * 0.4 everywhere
        for _ in range(10):
            x = (rng.uniform(-0.9, 0.9), rng.uniform(-0.9, 0.9))
            t = rng.uniform(0, 2 * math.pi)
            assert residual(bundle, x, t) == pytest.approx(0.8, rel=1e-12)

    def test_unit_rotation_form(self, rng):
        metric = IsothermalMetric.from_text("0", Rectangle(-1, 1, -1, 1))
        form = LinearForm.from_text("-x2", "x1")
        phi = PhiFunction.randers(0.9)
        bundle = MetricBundle(metric, form, phi)
        # curl21 = 2 with calF = 2: residual = 4 wherever |beta| < b0
        assert residual(bundle, (0.1, 0.1), 0.3) == pytest.approx(4.0, rel=1e-12)


class TestPdeResiduals:
    def test_all_constant(self):
        metric = IsothermalMetric.from_text("0.7", Rectangle(-1, 1, -1, 1))
        form = LinearForm.from_text("0.2", "0.1")
        assert pde_residuals(form, metric, (0.3, -0.3)) == (0.0, 0.0, 0.0, 0.0)

    def test_saddle(self):
        metric = IsothermalMetric.from_text("0", Rectangle(-1, 1, -1, 1))
        form = LinearForm.from_text("x1", "-x2")
        assert pde_residuals(form, metric, (0.5, 0.5)) == pytest.approx((0.0, 0.0, 1.0, 0.0))

    def test_exponential_at_origin(self):
        metric = IsothermalMetric.from_text("x1", Rectangle(-1, 1, -1, 1))
        form = LinearForm.from_text("exp(x1)", "0")
        values = pde_residuals(form, metric, (0.0, 0.0))
        assert values == pytest.approx((0.0, 1.0, -0.5, 0.0), abs=1e-15)


class TestCurvature:
    def test_constant_nu_is_flat(self):
        metric = IsothermalMetric.from_text("0.8", Rectangle(-1, 1, -1, 1))
        assert gauss_curvature(metric, (0.2, 0.2)) == 0.0

    def test_harmonic_nu_is_flat(self):
        metric = IsothermalMetric.from_text("x1", Rectangle(-1, 1, -1, 1))
        assert gauss_curvature(metric, (0.2, -0.4)) == pytest.approx(0.0, abs=1e-15)

    def test_round_metric_has_curvature_one(self, rng):
        metric = IsothermalMetric.from_text(
            "-ln(1 + (x1^2 + x2^2)/4)", Rectangle(-2, 2, -2, 2)
        )
        for _ in range(50):
            x = (rng.uniform(-1.9, 1.9), rng.uniform(-1.9, 1.9))
            assert gauss_curvature(metric, x) == pytest.approx(1.0, abs=1e-8)

    def test_obstruction_values(self):
        metric = IsothermalMetric.from_text("x1^2", Rectangle(-1, 1, -1, 1))
        assert integrability_obstruction(metric, (0.3, 0.1)) == pytest.approx(2.0)
        metric = IsothermalMetric.from_text("x1^2 - x2^2", Rectangle(-1, 1, -1, 1))
        assert integrability_obstruction(metric, (0.3, 0.1)) == pytest.approx(0.0, abs=1e-15)
        assert gauss_curvature(metric, (0.3, 0.1)) == pytest.approx(0.0, abs=1e-15)

    def test_obstruction_matches_curvature(self, rng):
        metric = IsothermalMetric.from_text(
            "0.3*x1 + 0.1*x2^2 - 0.05*x1^2*x2", Rectangle(-1, 1, -1, 1)
        )
        for _ in range(50):
            x = (rng.uniform(-0.9, 0.9), rng.uniform(-0.9, 0.9))
            lap = integrability_obstruction(metric, x)
            k = gauss_curvature(metric, x)
            nu = metric.nu.eval({"x1": x[0], "x2": x[1]})
            assert lap == pytest.approx(-math.exp(2 * nu) * k, rel=1e-12, abs=1e-15)


def _trivial_bundle() -> MetricBundle:
    metric = IsothermalMetric.from_text("x1", Rectangle(-1, 1, -1, 1))
    form = LinearForm.from_text("0.2*exp(x1)*cos(x2)", "-0.2*exp(x1)*sin(x2)")
    return MetricBundle(metric, form, PhiFunction.matsumoto(0.4))


class TestClassify:
    def test_class_a(self, class_a_bundle):
        result = classify(class_a_bundle)
        assert result.verdict is Verdict.CLASS_A
        assert result.evidence["E"].passed
        assert result.evidence["curl"].passed
        assert result.k2 == pytest.approx(2.0, rel=1e-9)

    def test_class_b(self, class_b_bundle):
        result = classify(class_b_bundle)
        assert result.verdict is Verdict.CLASS_B
        assert result.evidence["M"].passed
        assert result.evidence["b_const"].passed
        assert not result.evidence["E"].passed

    def test_irreversible(self, irreversible_bundle):
        result = classify(irreversible_bundle)
        assert result.verdict is Verdict.IRREVERSIBLE
        assert result.residual_max > result.residual_cutoff
        assert result.residual_max > 1e3 * result.evidence["residual"].threshold

    def test_absolutely_homogeneous(self, even_bundle):
        result = classify(even_bundle)
        assert result.verdict is Verdict.ABSOLUTELY_HOMOGENEOUS

    def test_residual_vanishes_on_reversible_witnesses(self, class_a_bundle, class_b_bundle):
        for bundle in (class_a_bundle, class_b_bundle):
            assert classify(bundle).evidence["residual"].passed

    def test_verdicts_stable_under_denser_sampling(self, witness_bundles, even_bundle):
        bundles = list(witness_bundles.values()) + [even_bundle, _trivial_bundle()]
        for bundle in bundles:
            coarse = classify(bundle)
            fine = classify(doubled(bundle))
            assert coarse.verdict is fine.verdict

    def test_class_a_shape_agrees_with_decomposition(self, class_a_bundle):
        result = classify(class_a_bundle)
        decomposition = even_odd_decompose(class_a_bundle.phi)
        assert result.verdict is Verdict.CLASS_A
        assert decomposition.is_class_A_shape

    def test_evidence_text_lists_all_tests(self, class_b_bundle):
        text = classify(class_b_bundle).as_text()
        for name in ("M2", "even", "E", "curl", "M", "b_const", "nu_const", "residual"):
            assert name in text

    def test_invalid_bundle_rejected(self):
        metric = IsothermalMetric.from_text("0", Rectangle(-1, 1, -1, 1))
        form = LinearForm.from_text("0.5", "0")
        bundle = MetricBundle(metric, form, PhiFunction.matsumoto(0.4))
        with pytest.raises(Exception):
            classify(bundle)

    def test_trivially_projectively_flat(self):
        # harmonic nu = x1 with b = 0.2 e^{x1} (cos x2, -sin x2) solves the
        # full constancy system: M == 0 and curl == 0 with non-constant data,
        # so the structure shares its geodesics with the conformal factor
        bundle = _trivial_bundle()
        assert bundle.validate().passed
        assert bundle.validate().b_sup == pytest.approx(0.2, rel=1e-12)
        result = classify(bundle)
        assert result.verdict is Verdict.TRIVIALLY_PROJECTIVELY_FLAT
        assert result.evidence["M2"].passed
        assert result.evidence["M"].passed
        assert result.evidence["curl"].passed
        assert not result.evidence["b_const"].passed
        assert not result.evidence["E"].passed

    def test_undetermined_for_borderline_gradient(self):
        # a 1e-7 gradient leaves every zero test failing while the residual
        # stays far below the irreversibility cutoff
        metric = IsothermalMetric.from_text("0", Rectangle(-1, 1, -1, 1))
        form = LinearForm.from_text("0.2 + 0.0000001*x1", "0")
        bundle = MetricBundle(metric, form, PhiFunction.matsumoto(0.4))
        result = classify(bundle)
        assert result.verdict is Verdict.UNDETERMINED
        assert result.residual_max <= result.residual_cutoff
        assert not result.evidence["residual"].passed


class TestNonFiniteSamples:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_point_data_names_first_point_in_row_order(self):
        form = LinearForm.from_text("0.2", "exp(exp(20*x1))")
        metric = IsothermalMetric.from_text("0", Rectangle(-1.0, 1.0, -1.0, 1.0))
        x1 = np.array([[0.0], [0.6], [0.6], [0.4]])
        x2 = np.array([[0.3], [-0.1], [0.2], [0.0]])
        with pytest.raises(EvalDomainError, match=r"^b2 is not finite at x1=0.6, x2=-0.1$"):
            point_data(form, metric, x1, x2)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_ladder_names_field_and_s(self):
        phi = PhiFunction.from_text("1 + 0.1*s + 1e-300*exp(800*s)", 1.0)
        with pytest.raises(EvalDomainError, match=r"^phi is not finite at s=0.9$"):
            _ladder(phi, np.array([0.0, -0.9, 0.9]))

    def test_zero_tests_fail_on_non_finite_values(self):
        for values in ([0.0, math.inf], [math.nan, 0.0]):
            assert not _zero_test(np.array(values), 1e-9).passed
        assert _zero_test(np.array([0.0, 1e-12]), 1e-9).passed

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_infinite_odd_part_is_not_linear(self):
        split = even_odd_decompose(PhiFunction.from_text("1 + 0.1*s + 1e-300*exp(800*s)", 1.0))
        assert not split.is_class_A_shape
        assert split.k2 is None
