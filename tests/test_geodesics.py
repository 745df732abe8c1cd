import hashlib
import math
import re
import tracemalloc

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from geodrev import (
    GeodesicPath,
    IsothermalMetric,
    LinearForm,
    MetricBundle,
    PhiFunction,
    Rectangle,
    SingularHessianError,
    path_distance,
    reversibility_scan,
)
from geodrev import geodesics
from geodrev.geodesics import _integrate_batch, _points_to_polyline, _rates, path_prefix
from oracles import (
    finsler_norm,
    integrate,
    ref_points_to_polyline,
    reversibility_error,
    riemann_geodesic,
    spray,
)

SPHERE_NU = "-ln(1 + (x1^2 + x2^2)/4)"


@pytest.fixture(scope="module")
def sphere_metric():
    return IsothermalMetric.from_text(SPHERE_NU, Rectangle(-3, 3, -3, 3))


@pytest.fixture(scope="module")
def riemann_bundle(sphere_metric):
    return MetricBundle(
        sphere_metric, LinearForm.from_text("0", "0"), PhiFunction.from_text("1", 0.5)
    )


def chord_deviation(path: GeodesicPath) -> float:
    start, end = path.samples[0], path.samples[-1]
    direction = end - start
    length = np.linalg.norm(direction)
    if length == 0:
        return float(np.max(np.linalg.norm(path.samples - start, axis=1)))
    direction = direction / length
    rel = path.samples - start
    cross = rel[:, 0] * direction[1] - rel[:, 1] * direction[0]
    return float(np.max(np.abs(cross)))


class TestSpray:
    def test_flat_constant_data_gives_zero(self, class_b_bundle, rng):
        for _ in range(10):
            x = (rng.uniform(-1, 1), rng.uniform(-1, 1))
            y = (rng.uniform(-2, 2), rng.uniform(-2, 2))
            if abs(y[0]) + abs(y[1]) < 0.1:
                continue
            g1, g2 = spray(class_b_bundle, x, y)
            assert abs(g1) <= 1e-10
            assert abs(g2) <= 1e-10

    def test_homogeneity(self, class_a_bundle, rng):
        for _ in range(10):
            x = (rng.uniform(-1, 1), rng.uniform(-1, 1))
            y = (rng.uniform(0.3, 1.5), rng.uniform(-1.5, -0.3))
            g = np.array(spray(class_a_bundle, x, y))
            g2 = np.array(spray(class_a_bundle, x, (2.0 * y[0], 2.0 * y[1])))
            scale = 1.0 + np.linalg.norm(g2)
            assert np.max(np.abs(g2 - 4.0 * g)) <= 1e-5 * scale

    @pytest.mark.parametrize("nu_text", ["x1", SPHERE_NU])
    def test_riemannian_case_matches_christoffels(self, nu_text, rng):
        metric = IsothermalMetric.from_text(nu_text, Rectangle(-2, 2, -2, 2))
        bundle = MetricBundle(
            metric, LinearForm.from_text("0", "0"), PhiFunction.from_text("1", 0.5)
        )
        for _ in range(10):
            x = (rng.uniform(-1, 1), rng.uniform(-1, 1))
            y = (rng.uniform(-1, 1), rng.uniform(0.2, 1.2))
            env = {"x1": x[0], "x2": x[1]}
            n1 = metric.nu1.eval(env)
            n2 = metric.nu2.eval(env)
            expected = (
                0.5 * (n1 * y[0] ** 2 + 2 * n2 * y[0] * y[1] - n1 * y[1] ** 2),
                0.5 * (-n2 * y[0] ** 2 + 2 * n1 * y[0] * y[1] + n2 * y[1] ** 2),
            )
            g = spray(bundle, x, y)
            assert g[0] == pytest.approx(expected[0], abs=1e-6)
            assert g[1] == pytest.approx(expected[1], abs=1e-6)

    def test_nonconvex_data_raises(self):
        metric = IsothermalMetric.from_text("0", Rectangle(-1, 1, -1, 1))
        form = LinearForm.from_text("0.65", "0")
        bundle = MetricBundle(metric, form, PhiFunction.matsumoto(0.7))
        with pytest.raises(SingularHessianError):
            spray(bundle, (0.0, 0.0), (1.0, 0.0))

    def test_zero_vector_rejected(self, class_b_bundle):
        with pytest.raises(ValueError):
            spray(class_b_bundle, (0.0, 0.0), (0.0, 0.0))

    @pytest.mark.parametrize("scale", [1e-150, 1e150])
    def test_homogeneity_holds_at_the_accepted_length_range_edges(self, class_a_bundle, scale):
        g = np.array(spray(class_a_bundle, (0.3, -0.2), (0.6, 0.8)))
        g_scaled = np.array(spray(class_a_bundle, (0.3, -0.2), (0.6 * scale, 0.8 * scale)))
        assert np.max(np.abs(g_scaled / scale**2 - g)) <= 1e-6 * np.max(np.abs(g))

    @pytest.mark.parametrize("y", [(1e-200, 0.0), (0.0, 1e200)])
    def test_extreme_vector_lengths_rejected(self, class_b_bundle, y):
        message = re.escape(f"outside [1e-150, 1e150] at x=(0.25, 0.0), y=({y[0]!r}, {y[1]!r})")
        with pytest.raises(ValueError, match=message):
            spray(class_b_bundle, (0.25, 0.0), y)
        with pytest.raises(ValueError, match=message):
            integrate(class_b_bundle, (0.25, 0.0), y, 0.01, 1e-3)


class TestIntegrate:
    def test_flat_path_is_straight(self, class_b_bundle):
        path = integrate(class_b_bundle, (0.0, 0.0), (0.6, 0.3), 1.0, 1e-3)
        assert not path.truncated
        assert chord_deviation(path) <= 1e-8

    def test_constant_nu_arc_length(self):
        metric = IsothermalMetric.from_text("0.3", Rectangle(-3, 3, -3, 3))
        bundle = MetricBundle(
            metric, LinearForm.from_text("0", "0"), PhiFunction.from_text("1", 0.5)
        )
        y0 = (0.8, 0.4)
        path = integrate(bundle, (0.0, 0.0), y0, 1.0, 1e-3)
        segs = np.diff(path.samples, axis=0)
        riemann_length = math.exp(0.3) * float(np.sum(np.hypot(segs[:, 0], segs[:, 1])))
        expected = math.exp(0.3) * math.hypot(*y0) * 1.0
        assert riemann_length == pytest.approx(expected, rel=1e-6)

    def test_fourth_order_convergence(self, sphere_metric):
        x0, y0, T = (0.3, 0.1), (0.8, 0.55), 1.0
        ends = []
        for h in (0.05, 0.025, 0.0125):
            path = riemann_geodesic(sphere_metric, x0, y0, T, h)
            assert not path.truncated
            ends.append(path.samples[-1])
        e_coarse = np.linalg.norm(ends[0] - ends[1])
        e_fine = np.linalg.norm(ends[1] - ends[2])
        assert 8.0 <= e_coarse / e_fine <= 32.0

    def test_sample_spacing_bound(self, class_a_bundle):
        path = integrate(class_a_bundle, (0.0, 0.0), (1.0, 0.4), 0.5, 1e-3)
        gaps = np.linalg.norm(np.diff(path.samples, axis=0), axis=1)
        max_speed = float(np.max(np.linalg.norm(path.velocities, axis=1)))
        assert float(np.max(gaps)) <= 2.0 * path.h * max_speed

    def test_domain_exit_truncates(self):
        metric = IsothermalMetric.from_text("0", Rectangle(-0.1, 0.1, -0.1, 0.1))
        bundle = MetricBundle(
            metric, LinearForm.from_text("0.01", "0"), PhiFunction.randers(0.9)
        )
        path = integrate(bundle, (0.0, 0.0), (1.0, 0.0), 1.0, 1e-3)
        assert path.truncated
        assert path.duration < 1.0
        assert np.all(np.abs(path.samples) <= 0.1 + 1e-12)


class TestRiemannGeodesic:
    def test_constant_nu_is_straight(self):
        metric = IsothermalMetric.from_text("0.5", Rectangle(-2, 2, -2, 2))
        path = riemann_geodesic(metric, (0.1, -0.1), (0.5, 0.2), 1.0, 1e-3)
        assert chord_deviation(path) <= 1e-10

    def test_radial_geodesic_stays_radial(self, sphere_metric):
        path = riemann_geodesic(sphere_metric, (0.0, 0.0), (1.0, 0.3), 1.5, 1e-3)
        direction = np.array([1.0, 0.3]) / math.hypot(1.0, 0.3)
        cross = path.samples[:, 0] * direction[1] - path.samples[:, 1] * direction[0]
        assert float(np.max(np.abs(cross))) <= 1e-8

    def test_matches_spray_integration_for_unit_profile(self, sphere_metric, riemann_bundle):
        x0, y0 = (0.1, -0.2), (0.9, 0.4)
        via_spray = integrate(riemann_bundle, x0, y0, 1.0, 1e-3)
        via_christoffel = riemann_geodesic(sphere_metric, x0, y0, 1.0, 1e-3)
        gap = np.max(np.linalg.norm(via_spray.samples - via_christoffel.samples, axis=1))
        assert gap <= 1e-6


class TestPathDistance:
    @staticmethod
    def _path(samples):
        samples = np.asarray(samples, dtype=float)
        vel = np.gradient(samples, axis=0)
        return GeodesicPath(samples, vel, 0.1, 1.0, False)

    def test_identical_paths(self):
        a = self._path([[0, 0], [1, 0], [2, 0]])
        assert path_distance(a, a) == 0.0

    def test_parallel_offset(self):
        xs = np.linspace(0.0, 1.0, 50)
        a = self._path(np.column_stack([xs, np.zeros_like(xs)]))
        b = self._path(np.column_stack([xs, np.full_like(xs, 0.25)]))
        assert path_distance(a, b) == pytest.approx(0.25, abs=1e-12)

    def test_reversal_invariance(self):
        xs = np.linspace(0.0, 1.0, 50)
        samples = np.column_stack([xs, xs**2])
        a = self._path(samples)
        b = self._path(samples[::-1])
        assert path_distance(a, b) == 0.0


class TestReversibility:
    def test_riemannian_bundle_reverses(self, riemann_bundle):
        error = reversibility_error(riemann_bundle, (0.2, 0.1), (0.8, -0.4), 0.5, 1e-3)
        assert error <= 1e-6

    def test_class_a_witness_reverses(self, class_a_bundle):
        error = reversibility_error(class_a_bundle, (0.0, 0.0), (0.7, 0.7), 0.5, 1e-3)
        assert error <= 1e-6

    def test_irreversible_witness_fails(self, irreversible_bundle):
        # the fan direction 0.137 rad is a known failing probe at T = 1
        error = reversibility_error(
            irreversible_bundle, (0.0, 0.0), (math.cos(0.137), math.sin(0.137)), 1.0, 1e-3
        )
        assert error >= 1e-3

    def test_class_b_paths_match_straight_lines(self, class_b_bundle):
        y0 = (1.0, 0.5)
        finsler = integrate(class_b_bundle, (0.0, 0.0), y0, 1.0, 1e-3)
        straight = riemann_geodesic(class_b_bundle.metric, (0.0, 0.0), y0, 1.0, 1e-3)
        assert float(np.max(np.linalg.norm(finsler.samples - straight.samples, axis=1))) <= 1e-6

    def test_error_invariant_under_direction_scaling(self, class_a_bundle):
        base = reversibility_error(class_a_bundle, (0.0, 0.0), (0.6, 0.3), 0.5, 1e-3)
        scaled = reversibility_error(class_a_bundle, (0.0, 0.0), (1.2, 0.6), 0.25, 1e-3)
        assert abs(base - scaled) <= 1e-6

    def test_projectively_trivial_paths_follow_riemannian_ones(self, class_a_bundle):
        # p_32 - p_1 vanishes identically here, so the profile only
        # reparametrizes the underlying Riemannian geodesics
        x0, y0 = (0.0, 0.0), (1.0, 0.5)
        fwd = integrate(class_a_bundle, x0, y0, 0.5, 1e-3)
        segs = np.diff(fwd.samples, axis=0)
        mids = 0.5 * (fwd.samples[:-1] + fwd.samples[1:])
        env = {"x1": mids[:, 0], "x2": mids[:, 1]}
        nu = class_a_bundle.metric.nu.eval(env)
        alpha_length = float(np.sum(np.exp(nu) * np.hypot(segs[:, 0], segs[:, 1])))
        nu0 = class_a_bundle.metric.nu.eval({"x1": x0[0], "x2": x0[1]})
        alpha_speed = math.exp(nu0) * math.hypot(*y0)
        rie = riemann_geodesic(
            class_a_bundle.metric, x0, y0, alpha_length / alpha_speed, 1e-3
        )
        assert path_distance(fwd, rie) <= 1e-5

    def test_scan_fans_unit_directions(self, class_b_bundle):
        results = reversibility_scan(class_b_bundle, (0.0, 0.0), 0.2, 2e-3, 4)
        assert len(results) == 4
        expected = [2 * math.pi * k / 4 + 0.137 for k in range(4)]
        for (y0, error), angle in zip(results, expected):
            assert y0 == pytest.approx((math.cos(angle), math.sin(angle)), abs=1e-15)
            assert math.hypot(*y0) == pytest.approx(1.0, rel=1e-12)
            assert error <= 1e-6


def test_finsler_norm_positive_and_homogeneous(class_b_bundle, rng):
    for _ in range(20):
        x = (rng.uniform(-1, 1), rng.uniform(-1, 1))
        y = (rng.uniform(-1, 1), rng.uniform(0.1, 1.0))
        value = finsler_norm(class_b_bundle, x, y)
        assert value > 0
        assert finsler_norm(class_b_bundle, x, (3 * y[0], 3 * y[1])) == pytest.approx(
            3 * value, rel=1e-12
        )


def _same_path(got: GeodesicPath, want: GeodesicPath) -> None:
    np.testing.assert_array_equal(got.samples, want.samples)
    np.testing.assert_array_equal(got.velocities, want.velocities)
    assert got.truncated == want.truncated
    assert got.duration == want.duration
    assert got.h == want.h


class TestBatchedEngine:
    @pytest.mark.parametrize("T", [1.0, 0.02])
    @pytest.mark.parametrize("witness", ["class_a", "class_b", "irreversible", "even"])
    def test_scan_equals_per_direction_errors(self, witness, T, request):
        bundle = request.getfixturevalue(f"{witness}_bundle")
        scan = reversibility_scan(bundle, (0.0, 0.0), T, 1e-3, 8)
        # single-row probes, the batch of one that the geodesic command runs
        reference = [
            reversibility_error(bundle, (0.0, 0.0), y0, T, 1e-3) for y0, _ in scan
        ]
        assert [error for _, error in scan] == reference

    def test_mixed_step_counts_and_truncation_match_single_runs(self, irreversible_bundle):
        starts = [
            ((0.0, 0.0), (1.0, 0.3), 0.3),
            ((0.2, -0.1), (-0.5, 0.8), 0.1),
            ((0.9, 0.0), (1.0, 0.0), 0.5),     # leaves the domain after ~0.1
            ((0.0, 0.5), (0.3, -1.0), 0.002),
            ((-0.3, 0.4), (0.6, 0.6), 0.25),
        ]
        batch = _integrate_batch(
            irreversible_bundle, *(list(column) for column in zip(*starts)), 1e-3
        )
        singles = [integrate(irreversible_bundle, x0, y0, T, 1e-3) for x0, y0, T in starts]
        assert [path.truncated for path in singles] == [False, False, True, False, False]
        for (x0, y0, _), got, want in zip(starts, batch, singles):
            _same_path(got, want)
            assert tuple(got.samples[0]) == x0 and tuple(got.velocities[0]) == y0

    @pytest.mark.parametrize("speed", [1e50, 1e99])
    def test_a_start_that_fails_outside_leaves_the_other_rows_alone(self, speed):
        # The README example: the fast start's first step fails at an RK4
        # stage far outside the domain, and ends the row there, truncated.
        metric = IsothermalMetric.from_text("0", Rectangle(-1, 1, -1, 1))
        bundle = MetricBundle(metric, LinearForm.from_text("0.2 + 0.1 * x1", "0"), PhiFunction.matsumoto(0.4))
        y0s = [(1.0, 0.3), (speed, 0.0), (-0.5, 0.8), (0.3, -1.0)]
        batch = geodesics._probe(bundle, (0.1, 0.2), y0s, 0.3, 1e-3)
        for y0, (forward, rev, error) in zip(y0s, batch):
            if y0[0] == speed:
                for path in (forward, rev):
                    assert path.truncated and path.duration == 0.0
                    assert path.samples.tolist() == [[0.1, 0.2]]
                assert error == 0.0
                continue
            ((want_forward, want_rev, want_error),) = geodesics._probe(bundle, (0.1, 0.2), [y0], 0.3, 1e-3)
            _same_path(forward, want_forward)
            _same_path(rev, want_rev)
            assert error == want_error
            assert not forward.truncated

    def test_a_failure_inside_the_domain_still_raises(self):
        # The Hessian fails along (1, 0) inside the domain; the fast row,
        # whose stages leave the domain, does not hide that failure.
        metric = IsothermalMetric.from_text("0", Rectangle(-1, 1, -1, 1))
        bundle = MetricBundle(metric, LinearForm.from_text("0.65", "0"), PhiFunction.matsumoto(0.7))
        with pytest.raises(SingularHessianError, match=r"at x=\(0\.3, -0\.4\), y=\(1\.0, 0\.0\)"):
            _integrate_batch(bundle, [(0.3, -0.4)] * 2, [(0.0, 1e99), (1.0, 0.0)], [0.1, 0.1], 1e-3)

    @pytest.mark.parametrize("T", [0.0004, 0.0005])
    def test_a_run_of_at_most_half_a_step_is_refused(self, irreversible_bundle, T):
        # _steps would round it up to one whole step, 2.5 T for T = 0.0004
        message = rf"^T = {T} is at most half the step h = 0.001: the run would take no step$"
        with pytest.raises(ValueError, match=message):
            geodesics._probe(irreversible_bundle, (0.0, 0.0), [(0.5, 0.0)], T, 1e-3)
        with pytest.raises(ValueError, match=message):
            reversibility_scan(irreversible_bundle, (0.0, 0.0), T, 1e-3, 4)
        # just over half a step is one step
        ((forward, _, _),) = geodesics._probe(irreversible_bundle, (0.0, 0.0), [(0.5, 0.0)], 0.00051, 1e-3)
        assert len(forward.samples) == 2 and forward.duration == 1e-3

    def test_spray_batch_rows_equal_scalar_spray(self, class_a_bundle, rng):
        states = np.column_stack(
            [rng.uniform(-1, 1, 6), rng.uniform(-1, 1, 6), rng.uniform(-2, 2, 6), rng.uniform(0.2, 2, 6)]
        )
        rates = _rates(class_a_bundle, states)
        for row, rate in zip(states, rates):
            g1, g2 = spray(class_a_bundle, row[:2], row[2:])
            assert rate.tolist() == [row[2], row[3], -2.0 * g1, -2.0 * g2]

    def test_spray_batch_names_lowest_failing_row(self):
        metric = IsothermalMetric.from_text("0", Rectangle(-1, 1, -1, 1))
        bundle = MetricBundle(metric, LinearForm.from_text("0.65", "0"), PhiFunction.matsumoto(0.7))
        states = np.array(
            [[0.1, 0.2, 0.0, 1.0], [0.3, -0.4, 1.0, 0.0], [0.0, 0.0, 0.0, -1.0], [0.5, 0.5, 2.0, 0.0]]
        )
        with pytest.raises(SingularHessianError) as one_row:
            spray(bundle, states[1, :2], states[1, 2:])
        with pytest.raises(SingularHessianError) as batched:
            _rates(bundle, states)
        assert str(batched.value) == str(one_row.value)
        assert "x=(0.3, -0.4), y=(1.0, 0.0)" in str(batched.value)

    def test_spray_batch_rejects_zero_vector(self, class_b_bundle):
        with pytest.raises(ValueError):
            _rates(class_b_bundle, np.array([[0.0, 0.0, 1.0, 0.0], [0.1, 0.1, 0.0, 0.0]]))

    def test_prefix_equals_shorter_run(self, irreversible_bundle):
        x0, y0, h = (0.6, 0.0), (1.0, 0.1), 1e-3
        long = integrate(irreversible_bundle, x0, y0, 1.0, h)
        assert long.truncated
        steps = len(long.samples) - 1
        for T in (0.05, steps * h, (steps + 1) * h, 0.9):
            _same_path(path_prefix(long, T), integrate(irreversible_bundle, x0, y0, T, h))
        done = integrate(irreversible_bundle, x0, y0, 0.1, h)
        with pytest.raises(ValueError):
            path_prefix(done, 0.2)


def _path_digest(path: GeodesicPath) -> str:
    return hashlib.sha256(path.samples.tobytes() + path.velocities.tobytes()).hexdigest()


class TestRecordedBytes:
    """sha256 digests recorded with the scalar spray and single-path RK4
    that the lockstep engine replaced (numpy 2.4.6, x86-64)."""

    @pytest.mark.parametrize(
        "witness, digest",
        [
            ("class_a", "dc6537ff774743e114e22d6dc50fe033eb38e912a736dc793ac9d829de16e780"),
            ("class_b", "281a8155973e74c20bbd60461b1984e4edb32a6ccad48c212d7a9c14f8e7ba83"),
            ("irreversible", "b68ce996c9bd6b155784e412f6da9bd22b8bb90c5a3ac0bbe67256840e031aba"),
            ("even", "455329ba3d8ae62d86dfabc55aaf8e6da8774e37fd910e093905da34fad58015"),
        ],
    )
    def test_integrate(self, witness, digest, request):
        bundle = request.getfixturevalue(f"{witness}_bundle")
        path = integrate(bundle, (0.1, -0.2), (0.6, 0.3), 1.0, 1e-3)
        assert len(path.samples) == 1001 and not path.truncated
        assert _path_digest(path) == digest

    def test_truncated_integrate(self, irreversible_bundle):
        path = integrate(irreversible_bundle, (0.6, 0.0), (1.0, 0.1), 1.0, 1e-3)
        assert len(path.samples) == 412 and path.truncated
        assert _path_digest(path) == "246f3eebce93b9641e7ef2cb5308fbbd15107e614ac8c278c7427bea8d5b3425"

    def test_riemann_geodesic(self, sphere_metric):
        path = riemann_geodesic(sphere_metric, (0.3, 0.1), (0.8, 0.55), 1.0, 1e-3)
        assert len(path.samples) == 1001
        assert _path_digest(path) == "c88667daf2a1e11168c08ab27972c34c76210199b0e4200a7c9e8a3710acbfc3"

    @pytest.mark.parametrize(
        "witness, digest",
        [
            ("class_a", "2b6c7752bffdba4ed096af1e4913dedea008b9b8c547c19932889dcb33314884"),
            ("irreversible", "d836d2ff556d624917c043d8acf57209d1f8d30a24be8f34e66601946c24128c"),
        ],
    )
    def test_reversibility_scan(self, witness, digest, request):
        bundle = request.getfixturevalue(f"{witness}_bundle")
        errors = [error for _, error in reversibility_scan(bundle, (0.0, 0.0), 1.0, 1e-3, 8)]
        assert hashlib.sha256(np.array(errors).tobytes()).hexdigest() == digest


_COORDINATE = st.floats(-1e8, 1e8, allow_nan=False)


@st.composite
def _polyline_cases(draw):
    """(points, poly, _BLOCK_VALUES): a polyline of random steps from an
    offset up to 1e8, steps down to 1e-12 or to an ulp of the offset, runs
    of zero-length segments that fill whole chunks, and points near it or
    exactly on its vertices.  _BLOCK_VALUES = 50 prunes every input and
    splits it into many blocks; at the default, inputs of up to 8192 pairs
    take the all-pairs branch."""
    n_vertices = draw(st.integers(1, 150))
    n_points = draw(st.integers(1, 200))
    origin = np.array([draw(_COORDINATE), draw(_COORDINATE)])
    ulps = draw(st.sampled_from([0, 1, 8]))
    if ulps:  # steps of a few ulps of the offset, where rounding is as large as the distances
        scale = ulps * float(np.spacing(max(1.0, np.max(np.abs(origin)))))
    else:
        scale = 10.0 ** draw(st.integers(-12, 0))
    stall = draw(st.sampled_from([0.0, 0.5, 0.95]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    steps = rng.normal(size=(n_vertices, 2)) * scale
    steps[rng.random(n_vertices) < stall] = 0.0
    poly = origin + np.cumsum(steps, axis=0)
    points = origin + rng.normal(size=(n_points, 2)) * scale * math.sqrt(n_vertices)
    on_vertex = rng.random(n_points) < 0.3
    points[on_vertex] = poly[rng.integers(0, n_vertices, int(on_vertex.sum()))]
    return points, poly, draw(st.sampled_from([50, 1 << 17]))


class TestBlockedPolylineDistance:
    @pytest.mark.parametrize("n, m", [(1, 1), (7, 1), (1, 5), (37, 53), (300, 2), (10_000, 11)])
    def test_equals_all_pairs(self, n, m, rng):
        points = rng.normal(size=(n, 2))
        poly = np.cumsum(rng.normal(size=(m, 2)), axis=0)
        np.testing.assert_array_equal(
            _points_to_polyline(points, poly), ref_points_to_polyline(points, poly)
        )

    def test_zero_length_segments_and_ragged_blocks(self, rng, monkeypatch):
        monkeypatch.setattr(geodesics, "_BLOCK_VALUES", 50)
        poly = np.cumsum(rng.normal(size=(40, 2)), axis=0)
        poly[10:14] = poly[10]          # three zero-length segments
        poly[-2] = poly[-1]
        points = np.vstack([rng.normal(size=(201, 2)) * 3.0, poly[8:16]])
        np.testing.assert_array_equal(
            _points_to_polyline(points, poly), ref_points_to_polyline(points, poly)
        )

    def test_memory_is_bounded(self):
        s = np.linspace(0.0, 1.0, 4001)
        a = GeodesicPath(np.column_stack([s, s * s]), None, 1e-3, 4.0, False)
        b = GeodesicPath(np.column_stack([s, s * s + 1e-3]), None, 1e-3, 4.0, False)
        tracemalloc.start()
        try:
            distance = path_distance(a, b)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert 0.0 < distance <= 1e-3
        assert peak < 4 * 2**20

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(case=_polyline_cases())
    @example(case=(np.array([[0.3, -0.2]]), np.array([[1.0, 2.0]]), 1 << 17))
    @example(case=(np.array([[0.3, -0.2]]), np.array([[1.0, 2.0], [1.5, 2.5]]), 50))
    def test_pruned_equals_all_pairs(self, case):
        points, poly, block_values = case
        with mock.patch.object(geodesics, "_BLOCK_VALUES", block_values):
            pruned = _points_to_polyline(points, poly)
        np.testing.assert_array_equal(pruned, ref_points_to_polyline(points, poly))

    def test_absolute_slack_keeps_the_minimum(self, monkeypatch):
        # Steps of an ulp or two at 1e8: the chunk that holds the smallest
        # computed distance has a box just beyond the nearest chunk vertex,
        # and a threshold with only the relative margin would prune it.
        monkeypatch.setattr(geodesics, "_BLOCK_VALUES", 50)  # prune even 5 pairs
        points = np.array([[-97649986.20452344, 14842614.48281347]])
        poly = np.array([
            [-97649986.20452346, 14842614.482813489], [-97649986.20452343, 14842614.48281351],
            [-97649986.20452344, 14842614.482813505], [-97649986.20452346, 14842614.482813518],
            [-97649986.20452344, 14842614.482813498], [-97649986.20452344, 14842614.482813494],
        ])
        np.testing.assert_array_equal(
            _points_to_polyline(points, poly), ref_points_to_polyline(points, poly)
        )

    @pytest.mark.parametrize("scale", [1e-300, 1e-160, 1e150, 1e300])
    def test_extreme_magnitudes_equal_all_pairs(self, scale, rng):
        # squares that underflow or overflow: the threshold keeps every chunk
        # whose segments could still hold the minimum
        poly = np.cumsum(rng.normal(size=(300, 2)), axis=0) * scale
        points = np.vstack([rng.normal(size=(100, 2)) * 10.0 * scale, poly[::7]])
        with np.errstate(all="ignore"):
            pruned = _points_to_polyline(points, poly)
            np.testing.assert_array_equal(pruned, ref_points_to_polyline(points, poly))

    @pytest.mark.parametrize("which, index", [("a", 0), ("a", 3), ("b", 6)])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_sample_is_named(self, which, index, bad):
        s = np.linspace(0.0, 1.0, 7)
        paths = {
            name: GeodesicPath(np.column_stack([s, s + shift]), None, 1e-3, 1.0, False)
            for name, shift in (("a", 0.0), ("b", 1e-3))
        }
        paths[which].samples[index, 1] = bad
        with pytest.raises(ValueError, match=f"^path {which} has a non-finite sample at index {index}$"):
            path_distance(paths["a"], paths["b"])

