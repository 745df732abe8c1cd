import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geodrev import (
    EvalDomainError,
    FinslerValidationError,
    IsothermalMetric,
    LinearForm,
    MetricBundle,
    PhiFunction,
    Rectangle,
    even_odd_decompose,
    validate_finsler,
)

from geodrev import cli, metric
from geodrev.metric import Sampling, _triangle_rows

from conftest import CORPUS_PROFILES, make_class_a_bundle
from oracles import (
    beta_on_indicatrix,
    indicatrix_p,
    ref_triangular_grid,
    ref_validate_finsler,
    ref_validation_table,
    reverse_phi,
)


class TestValidateFinsler:
    def test_randers_margin_is_one(self):
        report = validate_finsler(PhiFunction.randers(0.9))
        assert report.passed
        assert report.min_margin_ec1 == pytest.approx(1.0, abs=1e-12)
        assert report.min_margin_ec2 == pytest.approx(1.0, abs=1e-12)

    def test_pure_linear_profile_fails(self):
        report = validate_finsler(PhiFunction.from_text("s", 0.5))
        assert not report.passed
        assert abs(report.min_margin_ec2) <= 1e-12

    def test_matsumoto_passes_with_closed_form_margin(self):
        # margin has the closed form (1 - 3s + 2b^2) / (1 - s)^3 on |s| <= b
        phi = PhiFunction.matsumoto(0.4)
        report = validate_finsler(phi, grid_n=201)
        assert report.passed
        assert report.min_margin_ec1 > 0
        bs = 0.4 * (np.arange(1, 202) / 202.0)
        expected = min(
            float(np.min((1 - 3 * s + 2 * b * b) / (1 - s) ** 3))
            for b in bs
            for s in (np.linspace(-b, b, 201),)
        )
        assert report.min_margin_ec1 == pytest.approx(expected, rel=1e-12)

    def test_pole_inside_interval_reported(self):
        report = validate_finsler(PhiFunction.matsumoto(1.2))
        assert not report.passed
        assert report.witness

    def test_odd_cubic_profile_rejected(self):
        report = validate_finsler(PhiFunction.from_text("s + s^3", 0.5))
        assert not report.passed

    def test_small_grid_rejected(self):
        with pytest.raises(ValueError):
            validate_finsler(PhiFunction.randers(0.9), grid_n=32)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_profile_names_a_witness(self):
        # phi' = 0.1 + 1e-300*(exp(800 s)*800) overflows once exp(800 s) > 2.2e305,
        # i.e. for s > 0.87886: the first such point of the s line is the witness.
        phi = PhiFunction.from_text("1 + 0.1*s + 1e-300*exp(800*s)", 1.0)
        report = validate_finsler(phi)
        assert not report.passed
        edge = 201 / 202
        s_line = np.linspace(-edge, edge, 403)
        first = s_line[np.argmax(s_line > math.log(1.7976931348623157e308 / 800) / 800)]
        assert report.witness == {"s": float(first)}
        assert f"witness: s={first:.12g}" in report.as_text()


@pytest.mark.parametrize("b0", [0.1, 0.4, 0.5, 0.9, 1.0, 1 / 3])
@pytest.mark.parametrize("n", [64, 201, 402])
def test_triangular_grid_matches_row_by_row_construction(b0, n):
    bs = b0 * (np.arange(1, n + 1) / (n + 1.0))
    s_rows = np.concatenate([np.linspace(-b, b, n) for b in bs])
    b_rows = np.concatenate([np.full(n, b) for b in bs])
    s_tri, b_tri = _triangle_rows(b0, n, slice(None))
    assert s_tri.tobytes() == s_rows.tobytes()
    assert b_tri.tobytes() == b_rows.tobytes()


# Profiles whose reports the blocked validation must reproduce: the corpus
# (Randers' ec1 margin ties at many points), domain errors, a pole, failing
# and overflowing margins, a constant profile whose margin ties everywhere,
# and a b0 so small that linspace takes its denormal branch.
BLOCK_PROFILES = {
    **CORPUS_PROFILES,
    "domain_errors": ("sqrt(0.25 - s^2) + 1", 0.9),
    "pole": ("1/(0.3 - s)", 0.9),
    "odd": ("s", 0.9),
    "cubic": ("1 + s^3", 0.9),
    "overflow": ("exp(800*s)", 0.9),
    "triangle_overflow": ("1.7e308 + 5e307*s^2", 0.4),  # only the margin, at b > 0.31
    "constant": ("1", 0.5),
    "denormal_b0": ("1 + s", 2e-320),
}


def _block_rows(monkeypatch, rows, width):
    """Triangle blocks of ``rows`` rows of ``width`` values, or the default for None."""
    if rows is not None:
        monkeypatch.setattr(metric, "_BLOCK_VALUES", rows * width)
        monkeypatch.setattr(metric, "_MARGIN_BUDGETS", 1)


class TestValidationInBlocks:
    """Validation's triangle in blocks gives the bits of one pass over it."""

    @pytest.mark.parametrize("rows", [1, 3, None])
    @pytest.mark.parametrize("n", [64, 201, 402])  # the default budget: 1, 1 and 3 blocks
    @pytest.mark.parametrize("name", sorted(BLOCK_PROFILES))
    def test_report_equals_one_pass(self, name, n, rows, monkeypatch):
        phi = PhiFunction.from_text(*BLOCK_PROFILES[name])
        with np.errstate(all="ignore"):
            want = ref_validate_finsler(phi, n)
            _block_rows(monkeypatch, rows, n)
            got = validate_finsler(phi, n)
        assert repr(got) == repr(want)

    @pytest.mark.parametrize("rows", [1, 3, None])
    def test_a_later_domain_error_wins_over_an_earlier_non_finite_value(self, rows, monkeypatch):
        # exp overflows on the line; the pole sits on a triangle point of
        # row 50, after the first block of 1 or 3 rows, which no point of
        # the line hits
        n = 201
        s, _ = _triangle_rows(0.9, n, slice(50, 51))
        line = np.linspace(-0.9 * n / (n + 1), 0.9 * n / (n + 1), 2 * n + 1)
        pole = float([v for v in s if v > 0 and v not in line][3])
        phi = PhiFunction.from_text(f"exp(800*s) + 1/(s - {pole!r})", 0.9)
        walked, walk = [], metric._locate_domain_witness

        def recording_walk(phi, s_values):
            walked.append(list(s_values))
            return walk(phi, walked[-1])

        monkeypatch.setattr(metric, "_locate_domain_witness", recording_walk)
        _block_rows(monkeypatch, rows, n)
        with np.errstate(all="ignore"):
            report = validate_finsler(phi, n)
        assert (report.min_margin_ec1, report.min_margin_ec2, report.min_phi) == (-math.inf,) * 3
        assert not report.passed and report.witness == {"s": pole}
        # the witness walk gets the line and the block that raised, not the
        # blocks before it, which evaluated without an error
        assert len(walked) == 1 and len(walked[0]) <= 2 * n + 1 + (rows or n) * n

    @pytest.mark.parametrize("rows", [1, 3, 40, 163])
    @pytest.mark.parametrize("b0", [0.9, 1 / 3, 2e-320, 5e-320])
    def test_triangle_rows_in_blocks_equal_the_whole_grid(self, b0, rows):
        # at b0 = 2e-320 the first rows' steps underflow to 0, later ones not
        n = 201
        blocks = [_triangle_rows(b0, n, slice(a, a + rows)) for a in range(0, n, rows)]
        for got, want in zip(map(np.concatenate, zip(*blocks)), ref_triangular_grid(b0, n)):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("rows", [1, 3, None])
    def test_a_margin_that_ties_everywhere_names_the_triangles_first_point(self, rows, monkeypatch):
        # phi = 1: the three quantities are 1 everywhere, and ec1 comes first
        _block_rows(monkeypatch, rows, 201)
        report = validate_finsler(PhiFunction.from_text("1", 0.5), 201)
        s, b = _triangle_rows(0.5, 201, slice(0, 1))
        assert report.passed
        assert report.witness == {"s": float(s[0]), "b": float(b[0])}

    @pytest.mark.parametrize(
        "text, b0, n_s",
        # rows 112 and up leave the domain of the first; at n_s = 402, rows
        # 223 and up, from inside the second of three blocks
        [
            ("sqrt(0.25 - s^2) + 1", 0.9, 201),
            ("sqrt(0.25 - s^2) + 1", 0.9, 402),
            ("1/(1 - s)", 0.4, 64),
            ("1/(0.3 - s)", 0.9, 64),
            ("1 + s", 2e-320, 201),
        ],
    )
    def test_validation_csv_equals_row_by_row(self, tmp_path, text, b0, n_s):
        bundle = make_class_a_bundle()
        bundle = MetricBundle(bundle.metric, bundle.form, PhiFunction.from_text(text, b0), Sampling(n_s=n_s))
        header = ["s", "b", "ec1_margin"]
        with np.errstate(all="ignore"):
            table = ref_validation_table(bundle)
            cli.write_csv(str(tmp_path / "want.csv"), header, [table])
            cli.write_csv(str(tmp_path / "got.csv"), header, metric._margin_blocks(bundle.phi, n_s))
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
        if text.startswith("sqrt"):
            nan_rows = np.isnan(table[:, 2]).reshape(n_s, n_s).all(axis=1)
            first = {201: 112, 402: 223}[n_s]
            assert nan_rows.tolist() == [False] * first + [True] * (n_s - first)


class TestBuiltinFamilies:
    def test_even_polynomial(self):
        phi = PhiFunction.from_text("1.0 + 0.5 * s^2 + 0.25 * s^4", 0.8)
        for s in (-0.5, 0.2, 0.7):
            assert phi.phi(s=s) == pytest.approx(1.0 + 0.5 * s**2 + 0.25 * s**4, rel=1e-15)
        assert validate_finsler(phi).passed

    def test_even_plus_linear(self):
        phi = PhiFunction.from_text("(exp(s^2)) + -0.5 * s", 0.6)
        for s in (-0.4, 0.0, 0.5):
            assert phi.phi(s=s) == pytest.approx(math.exp(s * s) - 0.5 * s, rel=1e-15)
        assert validate_finsler(phi).passed
        result = even_odd_decompose(phi)
        assert result.is_class_A_shape
        assert result.k2 == pytest.approx(-1.0, rel=1e-9)


class TestReversePhi:
    def test_randers_reverses_to_one_minus_s(self):
        rev = reverse_phi(PhiFunction.randers(0.9))
        for s in (-0.5, 0.0, 0.3):
            assert rev.phi(s=s) == pytest.approx(1.0 - s, abs=1e-15)

    def test_even_profile_is_fixed(self, rng):
        phi = PhiFunction.from_text("1 + s^2", 0.9)
        rev = reverse_phi(phi)
        for s in rng.uniform(-0.8, 0.8, 100):
            assert rev.phi(s=float(s)) == pytest.approx(phi.phi(s=float(s)), rel=1e-15)

    def test_matsumoto_reverse_validates(self):
        phi = PhiFunction.matsumoto(0.4)
        rev = reverse_phi(phi)
        assert rev.phi(s=0.1) == pytest.approx(1.0 / 1.1, rel=1e-15)
        assert validate_finsler(phi).passed
        assert validate_finsler(rev).passed

    @pytest.mark.parametrize("name", sorted(CORPUS_PROFILES))
    def test_accepted_profiles_have_accepted_reverses(self, name, corpus):
        phi = corpus[name]
        assert validate_finsler(phi).passed
        assert validate_finsler(reverse_phi(phi)).passed

    @pytest.mark.parametrize("name", sorted(CORPUS_PROFILES))
    def test_no_accepted_profile_is_odd(self, name, corpus):
        phi = corpus[name]
        grid = np.linspace(-0.8 * phi.b0, 0.8 * phi.b0, 101)
        odd_gap = np.abs(np.asarray(phi.phi(s=grid)) + np.asarray(phi.phi(s=-grid)))
        assert np.max(odd_gap) > 1e-3


class TestEvenOddDecompose:
    def test_randers(self):
        result = even_odd_decompose(PhiFunction.randers(0.9))
        assert result.is_class_A_shape
        assert result.k2 == pytest.approx(2.0, rel=1e-12)
        phi = PhiFunction.randers(0.9).phi
        for s in (0.1, -0.4, 0.7):
            assert 0.5 * (phi(s=s) + phi(s=-s)) == pytest.approx(1.0, abs=1e-14)
            assert 0.5 * (phi(s=s) - phi(s=-s)) == pytest.approx(s, abs=1e-14)

    def test_even_profile_has_zero_k2(self):
        result = even_odd_decompose(PhiFunction.from_text("1 + s^2", 0.9))
        assert result.is_class_A_shape
        assert result.k2 == pytest.approx(0.0, abs=1e-12)

    def test_matsumoto_is_not_linear_plus_even(self):
        phi = PhiFunction.matsumoto(0.4)
        result = even_odd_decompose(phi)
        assert not result.is_class_A_shape
        assert result.k2 is None
        # odd(s)/s = 1/(1 - s^2) drifts across the grid
        for s, ratio in ((0.1, 1.0101), (0.3, 1.0989)):
            assert 0.5 * (phi.phi(s=s) - phi.phi(s=-s)) / s == pytest.approx(ratio, abs=5e-5)


class TestBetaOnIndicatrix:
    def test_axis_aligned(self, class_b_bundle):
        metric = IsothermalMetric.from_text("0", Rectangle(-1, 1, -1, 1))
        form = LinearForm.from_text("0.3", "0")
        bundle = MetricBundle(metric, form, PhiFunction.randers(0.9))
        beta, beta_t, bsq = beta_on_indicatrix(bundle, (0.0, 0.0), 0.0)
        assert (beta, beta_t, bsq) == pytest.approx((0.3, 0.0, 0.09), abs=1e-15)
        beta, beta_t, bsq = beta_on_indicatrix(bundle, (0.0, 0.0), math.pi / 2)
        assert (beta, beta_t, bsq) == pytest.approx((0.0, -0.3, 0.09), abs=1e-15)

    def test_conformal_weight(self):
        metric = IsothermalMetric.from_text("ln(2)", Rectangle(-1, 1, -1, 1))
        form = LinearForm.from_text("0.4", "0.2")
        bundle = MetricBundle(metric, form, PhiFunction.randers(0.9))
        beta, beta_t, bsq = beta_on_indicatrix(bundle, (0.5, -0.5), math.pi / 4)
        root2 = math.sqrt(2.0)
        assert beta == pytest.approx(0.6 / (2 * root2), rel=1e-14)
        assert beta_t == pytest.approx(-0.2 / (2 * root2), rel=1e-14)
        assert bsq == pytest.approx(0.05, rel=1e-14)

    def test_t_derivative_identity(self, witness_bundles, rng):
        # 1000 samples spread over the three witness configurations
        from conftest import random_points

        for bundle in witness_bundles.values():
            x1s, x2s, ts = random_points(bundle, rng, 334)
            for x1, x2, t in zip(x1s, x2s, ts):
                beta, beta_t, bsq = beta_on_indicatrix(bundle, (x1, x2), t)
                lhs = beta_t * beta_t
                rhs = bsq - beta * beta
                assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(lhs))


class TestIndicatrixP:
    def test_randers_values(self):
        metric = IsothermalMetric.from_text("0", Rectangle(-1, 1, -1, 1))
        form = LinearForm.from_text("0.2", "0")
        bundle = MetricBundle(metric, form, PhiFunction.randers(0.9))
        p, r = indicatrix_p(bundle, (0.0, 0.0), 0.0)
        assert (p, r) == pytest.approx((1.2, 0.8), abs=1e-15)

    def test_symmetry_point(self, class_b_bundle):
        # beta vanishes where the direction is orthogonal to the form
        t0 = math.atan2(0.2, -0.1)
        beta, _, _ = beta_on_indicatrix(class_b_bundle, (0.3, 0.3), t0)
        assert abs(beta) < 1e-15
        p, r = indicatrix_p(class_b_bundle, (0.3, 0.3), t0)
        assert p == pytest.approx(r, rel=1e-15)

    def test_matsumoto_values(self):
        metric = IsothermalMetric.from_text("0", Rectangle(-1, 1, -1, 1))
        form = LinearForm.from_text("0.1", "0")
        bundle = MetricBundle(metric, form, PhiFunction.matsumoto(0.4))
        p, r = indicatrix_p(bundle, (0.0, 0.0), 0.0)
        assert p == pytest.approx(1.1111, abs=5e-5)
        assert r == pytest.approx(0.9091, abs=5e-5)

    def test_half_turn_relation(self, witness_bundles, rng):
        from conftest import random_points

        for bundle in witness_bundles.values():
            x1s, x2s, ts = random_points(bundle, rng, 334)
            p_here, _ = indicatrix_p(bundle, (x1s, x2s), ts)
            p_there, _ = indicatrix_p(bundle, (x1s, x2s), ts + np.pi)
            _, r_here = indicatrix_p(bundle, (x1s, x2s), ts)
            np.testing.assert_allclose(r_here, p_there, rtol=0, atol=1e-14)

    def test_out_of_range_beta_raises(self):
        metric = IsothermalMetric.from_text("0", Rectangle(-1, 1, -1, 1))
        form = LinearForm.from_text("0.3", "0")
        bundle = MetricBundle(metric, form, PhiFunction.randers(0.2))
        with pytest.raises(EvalDomainError):
            indicatrix_p(bundle, (0.0, 0.0), 0.0)


class TestBundleValidation:
    def test_b_sup_margin(self, class_b_bundle):
        report = class_b_bundle.validate()
        assert report.passed
        assert report.b_sup == pytest.approx(math.sqrt(0.05), rel=1e-12)
        assert report.b_margin == pytest.approx(0.4 - math.sqrt(0.05), rel=1e-12)

    def test_witnesses_validate(self, witness_bundles):
        for bundle in witness_bundles.values():
            assert bundle.validate().passed

    def test_form_exceeding_b0_fails(self):
        metric = IsothermalMetric.from_text("0", Rectangle(-1, 1, -1, 1))
        form = LinearForm.from_text("0.5", "0")
        bundle = MetricBundle(metric, form, PhiFunction.matsumoto(0.4))
        assert not bundle.validate().passed
        with pytest.raises(FinslerValidationError):
            bundle.require_valid()


@settings(max_examples=60, deadline=None)
@given(
    b1=st.floats(-0.3, 0.3, allow_nan=False),
    b2=st.floats(-0.3, 0.3, allow_nan=False),
    t=st.floats(0, 2 * math.pi, allow_nan=False),
)
def test_beta_t_identity_for_constant_forms(b1, b2, t):
    metric = IsothermalMetric.from_text("0.2", Rectangle(-1, 1, -1, 1))
    form = LinearForm.from_text(repr(b1), repr(b2))
    bundle = MetricBundle(metric, form, PhiFunction.randers(0.9))
    beta, beta_t, bsq = beta_on_indicatrix(bundle, (0.0, 0.0), t)
    assert abs(beta_t * beta_t - (bsq - beta * beta)) <= 1e-12 * (1.0 + bsq)
