"""Each criterion quantity is evaluated once per call.

The reference implementations below are the earlier versions that
evaluated the same quantities more than once: a residual with separate
E and F ladders that also recomputed beta, beta_t and M, frame partials
that evaluated phi, phi', phi'' and phi''' at beta on their own, a
classify that evaluated the base-point data twice, a meshgrid-per-caller
grid and a per-b validation CSV loop.  The current code must give
bitwise-equal results with fewer evaluations.  The references that other
test modules share live in oracles.py.
"""

import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from geodrev import (
    IsothermalMetric,
    LinearForm,
    MetricBundle,
    PhiFunction,
    Rectangle,
    cli,
    frames,
    metric,
    reversibility,
)
from geodrev.cli import main
from geodrev.metric import Sampling, even_odd_decompose, zero_threshold
from geodrev.reversibility import (
    InconsistentEvidenceError,
    Verdict,
    ZeroTest,
    point_data,
)
from geodrev.scalarfield import EvalDomainError, ScalarField

from conftest import (
    doubled,
    make_class_a_bundle,
    make_class_b_bundle,
    make_even_bundle,
    make_irreversible_bundle,
    scan_table,
)
from oracles import ref_coord_data, ref_ecprinc, ref_frame_combine, ref_m_direct

WITNESSES = {
    "class_a": make_class_a_bundle,
    "class_b": make_class_b_bundle,
    "irreversible": make_irreversible_bundle,
    "even": make_even_bundle,
}


def _generated(nu, b1, b2, phi):
    return MetricBundle(
        IsothermalMetric.from_text(nu, Rectangle(-1.0, 1.0, -1.0, 1.0)), LinearForm.from_text(b1, b2), phi
    )


# One config of each family that perfbench's corpus draws, with fixed coefficients.
FAMILIES = {
    "family_even": lambda: _generated(
        "0.06*x1 - 0.04*x2^2 + 0.03*x1*x2", "0.12 - 0.1*x2", "-0.08 + 0.07*x1",
        PhiFunction.from_text("1 + s^2", 0.9),
    ),
    "family_exact": lambda: _generated(  # b = grad(0.05*x1 - 0.07*x2 + 0.02*x1*x2 + 0.02*(x1^2 - x2^2))
        "0.03*x1 - 0.02*x2^2 + 0.04*x1*x2", "0.05 + 0.02*x2 + 0.04*x1", "-0.07 + 0.02*x1 - 0.04*x2",
        PhiFunction.from_text("exp(s^2) - 0.5*s", 0.6),
    ),
    "family_const_flat": lambda: _generated("0.05", "-0.12", "0.09", PhiFunction.matsumoto(0.4)),
    "family_xdep_matsumoto": lambda: _generated(
        "0", "0.15 - 0.09*x1", "0.05", PhiFunction.matsumoto(0.4)
    ),
}

SAMPLINGS = {"default": Sampling(), "doubled": Sampling().doubled()}


def witness(name, sampling_name="default"):
    base = {**WITNESSES, **FAMILIES}[name]()
    return MetricBundle(base.metric, base.form, base.phi, SAMPLINGS[sampling_name])


# ---------------------------------------------------------------------------
# Reference implementations


def ref_calE(phi, s):
    phi.check_s(s)
    pp = phi.phi(s=s)
    pm = phi.phi(s=-s)
    d1p = phi.d1(s=s)
    d1m = phi.d1(s=-s)
    d2p = phi.d2(s=s)
    d2m = phi.d2(s=-s)
    return s * (d1p * d2m + d1m * d2p) + (pm * d2p - pp * d2m)


def ref_calF(phi, s, b):
    phi.check_s(s)
    pp = phi.phi(s=s)
    pm = phi.phi(s=-s)
    d1p = phi.d1(s=s)
    d1m = phi.d1(s=-s)
    d2p = phi.d2(s=s)
    d2m = phi.d2(s=-s)
    return (b * b - s * s) * (d1p * d2m + d1m * d2p) + (pm * d1p + pp * d1m)


def ref_residual_from_point(pd, phi, t):
    """Two ladders: E and F each evaluate phi, phi', phi'' at +-s."""
    ct, st = np.cos(t), np.sin(t)
    beta = pd.e_mnu * (pd.b1 * ct + pd.b2 * st)
    beta_t = pd.e_mnu * (-pd.b1 * st + pd.b2 * ct)
    b = pd.e_mnu * np.hypot(pd.b1, pd.b2)
    curl = pd.db2_dx1 - pd.db1_dx2
    m = ref_m_direct(pd, t)
    return beta_t * ref_calE(phi, beta) * m + ref_calF(phi, beta, b) * pd.e_mnu * curl


def ref_grid(bundle, sampling):
    d = bundle.metric.domain
    xs1 = np.linspace(d.x1min, d.x1max, sampling.n_x1)
    xs2 = np.linspace(d.x2min, d.x2max, sampling.n_x2)
    g1, g2 = np.meshgrid(xs1, xs2, indexing="ij")
    t = np.linspace(0.0, 2.0 * np.pi, sampling.n_t, endpoint=False)[None, :]
    return g1.ravel()[:, None], g2.ravel()[:, None], t


def ref_b_sup(bundle):
    d = bundle.metric.domain
    xs1 = np.linspace(d.x1min, d.x1max, 3 * bundle.sampling.n_x1)
    xs2 = np.linspace(d.x2min, d.x2max, 3 * bundle.sampling.n_x2)
    g1, g2 = np.meshgrid(xs1, xs2, indexing="ij")
    return float(np.max(bundle.b_norm(g1.ravel(), g2.ravel())))


def ref_table(bundle, what):
    """Scan table: grid scans as one broadcast call of the reference residual."""
    report = bundle.validate()
    sampling = bundle.sampling
    if what == "EF":
        s = np.linspace(-report.b_sup, report.b_sup, sampling.n_s)
        e_vals = np.broadcast_to(ref_calE(bundle.phi, s), s.shape)
        f_vals = np.broadcast_to(ref_calF(bundle.phi, s, report.b_sup), s.shape)
        return np.column_stack((s, e_vals, f_vals))
    X1, X2, t = ref_grid(bundle, sampling)
    pd = point_data(bundle.form, bundle.metric, X1, X2)
    closed = ref_residual_from_point(pd, bundle.phi, t)
    if what == "residual":
        values = [closed]
    else:
        direct = ref_ecprinc(pd, bundle.phi, t)
        scaled = pd.e_mnu * np.abs(np.asarray(closed, dtype=float))
        mag = np.abs(np.asarray(direct, dtype=float))
        denom = np.maximum(np.maximum(mag, scaled), 1e-300)
        values = [direct, closed, np.abs(mag - scaled) / denom]
    shape = (X1.size, t.size)
    return np.column_stack([np.broadcast_to(v, shape).ravel() for v in (X1, X2, t, *values)])


def _ref_zero_test(values, eps_zero):
    peak = float(np.max(np.abs(values)))
    thr = zero_threshold(eps_zero, peak)
    return ZeroTest(peak, thr, peak <= thr)


def ref_classify(bundle):
    """Evaluates point_data once directly and once inside the frame derivatives."""
    bundle.require_valid()
    sampling = bundle.sampling
    eps0 = sampling.eps_zero
    report = bundle.validate()
    X1, X2, t = ref_grid(bundle, sampling)

    pd = point_data(bundle.form, bundle.metric, X1, X2)
    s_grid = np.linspace(-report.b_sup, report.b_sup, sampling.n_s)
    even_gap = bundle.phi.phi(s=s_grid) - bundle.phi.phi(s=-s_grid)
    e_values = ref_calE(bundle.phi, s_grid)
    curl_values = pd.db2_dx1 - pd.db1_dx2
    m_values = ref_m_direct(pd, t)
    b_variation = max(
        float(np.ptp(pd.b1)) if np.ndim(pd.b1) else 0.0,
        float(np.ptp(pd.b2)) if np.ndim(pd.b2) else 0.0,
    )
    b_scale = max(float(np.max(np.abs(pd.b1))), float(np.max(np.abs(pd.b2))))
    nu_variation = float(np.ptp(pd.nu)) if np.ndim(pd.nu) else 0.0
    nu_scale = float(np.max(np.abs(pd.nu)))

    pd_frames = point_data(bundle.form, bundle.metric, X1, X2)
    derivs = ref_frame_combine(pd_frames, ref_coord_data(pd_frames, bundle.phi, t), t)
    m2_values = derivs.p32 - derivs.p1
    residual_values = ref_residual_from_point(pd, bundle.phi, t)

    values = {
        "M2": m2_values,
        "even": even_gap,
        "E": e_values,
        "curl": curl_values,
        "M": m_values,
        "residual": residual_values,
    }
    b_thr = zero_threshold(eps0, b_scale)
    nu_thr = zero_threshold(eps0, nu_scale)
    evidence = {
        "M2": _ref_zero_test(m2_values, eps0),
        "even": _ref_zero_test(even_gap, eps0),
        "E": _ref_zero_test(e_values, eps0),
        "curl": _ref_zero_test(curl_values, eps0),
        "M": _ref_zero_test(m_values, eps0),
        "b_const": ZeroTest(b_variation, b_thr, b_variation <= b_thr),
        "nu_const": ZeroTest(nu_variation, nu_thr, nu_variation <= nu_thr),
        "residual": _ref_zero_test(residual_values, eps0),
    }
    residual_max = evidence["residual"].max_abs
    residual_cutoff = 1e3 * evidence["residual"].threshold
    decomposition = even_odd_decompose(bundle.phi, sampling.n_s, eps0)
    if evidence["even"].passed:
        verdict = Verdict.ABSOLUTELY_HOMOGENEOUS
    elif evidence["E"].passed and evidence["curl"].passed:
        if not decomposition.is_class_A_shape:
            raise InconsistentEvidenceError("E vanishes but the odd part is not linear")
        verdict = Verdict.CLASS_A
    elif all(evidence[k].passed for k in ("M", "curl", "b_const", "nu_const")):
        verdict = Verdict.CLASS_B
    elif evidence["M2"].passed:
        verdict = Verdict.TRIVIALLY_PROJECTIVELY_FLAT
    elif residual_max > residual_cutoff:
        verdict = Verdict.IRREVERSIBLE
    else:
        verdict = Verdict.UNDETERMINED
    return verdict, evidence, residual_max, residual_cutoff, decomposition.k2, values


def ref_write_validation_csv(path, bundle):
    """One row block per b, each margin evaluated separately."""
    phi = bundle.phi
    n = max(bundle.sampling.n_s, 64)
    rows = []
    bs = phi.b0 * (np.arange(1, n + 1) / (n + 1.0))
    for b in bs:
        s = np.linspace(-b, b, n)
        try:
            margin = phi.phi(s=s) - s * phi.d1(s=s) + (b * b - s * s) * phi.d2(s=s)
        except EvalDomainError:
            margin = np.full_like(s, float("nan"))
        rows.extend((float(sv), float(b), float(m)) for sv, m in zip(s, np.broadcast_to(margin, s.shape)))
    cli.write_csv(path, ["s", "b", "ec1_margin"], [np.array(rows)])


# ---------------------------------------------------------------------------
# Bitwise equality with the references


def assert_same_bits(actual, expected):
    actual = np.asarray(actual)
    assert actual.dtype == np.float64
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


def check_classify_evidence(bundle):
    result = reversibility.classify(bundle)
    verdict, evidence, residual_max, cutoff, k2, _ = ref_classify(bundle)
    assert result.verdict is verdict
    assert list(result.evidence) == list(evidence)
    for key, test in evidence.items():
        got = result.evidence[key]
        assert np.float64(got.max_abs).tobytes() == np.float64(test.max_abs).tobytes(), key
        assert np.float64(got.threshold).tobytes() == np.float64(test.threshold).tobytes(), key
        assert got.passed == test.passed, key
    assert result.residual_max == residual_max
    assert result.residual_cutoff == cutoff
    assert result.k2 == k2


@pytest.mark.parametrize("sampling", sorted(SAMPLINGS))
@pytest.mark.parametrize("name", sorted(WITNESSES) + sorted(FAMILIES))
class TestBitwiseAgainstReference:
    def test_b_sup(self, name, sampling):
        bundle = witness(name, sampling)
        assert np.float64(bundle.b_sup()).tobytes() == np.float64(ref_b_sup(bundle)).tobytes()

    @pytest.mark.parametrize("what", ["residual", "crosscheck"])
    def test_grid_scan_tables(self, name, sampling, what):
        bundle = witness(name, sampling)
        _, table = scan_table(bundle, what)
        assert_same_bits(table, ref_table(bundle, what))

    @pytest.mark.parametrize("what", ["E", "F"])
    def test_profile_scan_table(self, name, sampling, what):
        bundle = witness(name, sampling)
        _, table = scan_table(bundle, what)
        assert_same_bits(table, ref_table(bundle, "EF"))

    def test_classify_evidence(self, name, sampling):
        check_classify_evidence(witness(name, sampling))

    @pytest.mark.parametrize("block", ["one_row", "ragged"])
    def test_classify_evidence_in_blocks(self, name, sampling, block, monkeypatch):
        # one base row per block, or three rows and a shorter last block
        bundle = witness(name, sampling)
        values = 1 if block == "one_row" else 3 * bundle.sampling.n_t + 1
        monkeypatch.setattr(metric, "_BLOCK_VALUES", values)
        check_classify_evidence(bundle)

    def test_classify_evidence_arrays(self, name, sampling, monkeypatch):
        seen, blocks = [], []
        original_zero_test = reversibility._zero_test
        original_fiber_evidence = reversibility._fiber_evidence

        def recording_zero_test(values, eps_zero):
            seen.append(values)
            return original_zero_test(values, eps_zero)

        def recording_fiber_evidence(pd, phi, x1, x2, t):
            values = original_fiber_evidence(pd, phi, x1, x2, t)
            blocks.append(values)
            return values

        monkeypatch.setattr(reversibility, "_zero_test", recording_zero_test)
        monkeypatch.setattr(reversibility, "_fiber_evidence", recording_fiber_evidence)
        bundle = witness(name, sampling)
        reversibility.classify(bundle)
        expected = ref_classify(bundle)[-1]
        assert len(seen) == len(expected)
        # M2, M and the residual reach their zero tests as peaks over blocks of base rows
        blocked = dict(zip(("M2", "M", "residual"), map(np.concatenate, zip(*blocks))))
        for (key, want), got in zip(expected.items(), seen):
            want = np.asarray(want, dtype=float)
            if key in blocked:
                assert got == np.max(np.abs(blocked[key])), key
                got = blocked[key]
            assert_same_bits(np.broadcast_to(got, want.shape), want)

VALIDATE_CONFIG = """
[metric]
nu = "0"
x1min = -1.0
x1max = 1.0
x2min = -1.0
x2max = 1.0

[form]
b1 = "0.2"
b2 = "0.1"

[phi]
{phi}
"""


@pytest.mark.parametrize(
    "phi_lines, nan_rows",
    [
        ('kind = "matsumoto"\nb0 = 0.4', 0),
        ('kind = "expr"\nexpr = "sqrt(0.25 - s^2) + 1"\nb0 = 0.9', 17889),
    ],
    ids=["matsumoto", "sqrt_pole"],
)
def test_validate_csv_bytes(tmp_path, capsys, phi_lines, nan_rows):
    config = tmp_path / "exp.cfg"
    config.write_text(VALIDATE_CONFIG.format(phi=phi_lines), encoding="utf-8")
    out = tmp_path / "margins.csv"
    main(["validate", str(config), "--out", str(out)])
    capsys.readouterr()
    ref = tmp_path / "ref.csv"
    ref_write_validation_csv(str(ref), cli.load_config(str(config)).build_bundle())
    data = out.read_bytes()
    assert data == ref.read_bytes()
    lines = data.decode().splitlines()
    assert len(lines) == 1 + 201 * 201
    assert sum(line.endswith(",nan") for line in lines) == nan_rows


# ---------------------------------------------------------------------------
# Evaluation counts


@pytest.fixture()
def counts(monkeypatch):
    """Count point_data calls (through both module bindings) and field evaluations."""
    found = SimpleNamespace(point_data=0, profile_evals=0, evals=0, profile_points=[])
    original_pd = reversibility.point_data
    original_eval = ScalarField.eval

    def counting_point_data(*args, **kwargs):
        found.point_data += 1
        return original_pd(*args, **kwargs)

    def counting_eval(self, point):
        found.evals += 1
        if self.variables == ("s",):
            found.profile_evals += 1
            found.profile_points.append((self, np.ravel(point["s"])))
        return original_eval(self, point)

    monkeypatch.setattr(reversibility, "point_data", counting_point_data)
    monkeypatch.setattr(frames, "point_data", counting_point_data)
    monkeypatch.setattr(ScalarField, "eval", counting_eval)
    return found


LADDER_EVALS = 6  # phi, phi' and phi'' at +s and -s
POINT_DATA_EVALS = 9  # nu, nu1, nu2, b1, b2 and the four partials of b


@pytest.fixture(params=sorted(WITNESSES))
def validated(request):
    bundle = WITNESSES[request.param]()
    bundle.validate()
    return bundle


def test_classify_evaluates_point_data_once(validated, counts):
    reversibility.classify(validated)
    assert counts.point_data == 1


def test_classify_doubled_evaluates_point_data_once(validated, counts):
    reversibility.classify(doubled(validated))
    assert counts.point_data == 1


def test_classify_evaluates_each_profile_value_once(validated, counts):
    reversibility.classify(validated)
    assert counts.evals - counts.profile_evals == POINT_DATA_EVALS
    # one ladder over the s grid, one at beta shared by the residual and
    # the frame partials, and the odd part of the even/odd split; the beta
    # ladder runs over blocks of base rows, so count evaluated values
    sampling, phi = validated.sampling, validated.phi
    b_sup = validated.validate().b_sup
    s = np.linspace(-b_sup, b_sup, sampling.n_s)
    X1, X2, t = ref_grid(validated, sampling)
    pd = point_data(validated.form, validated.metric, X1, X2)
    beta = np.ravel(pd.e_mnu * (pd.b1 * np.cos(t) + pd.b2 * np.sin(t)))

    def bits(points):  # the multiset of bit patterns, which tells -0.0 from 0.0
        return np.sort(np.concatenate(points).view(np.int64))

    ladder_points = bits([s, -s, beta, -beta])
    evaluated = {id(f): [] for f in (phi.phi, phi.d1, phi.d2)}
    for field, points in counts.profile_points:
        evaluated[id(field)].append(points)
    odd_part = evaluated[id(phi.phi)].pop()  # the split evaluates phi last, at 2 n_s points
    assert odd_part.size == 2 * sampling.n_s
    for points in evaluated.values():
        np.testing.assert_array_equal(bits(points), ladder_points)
    assert sum(points.size for _, points in counts.profile_points) == (
        LADDER_EVALS * (sampling.n_s + beta.size) + 2 * sampling.n_s
    )


def test_classify_memory_is_bounded(validated):
    # the fiber part runs in blocks of 2^13 values: no full 42 x 42 x 128 grid
    bundle = doubled(validated)
    bundle.validate()
    tracemalloc.start()
    try:
        reversibility.classify(bundle)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_residual_evaluates_one_ladder(validated, counts):
    X1, X2, t = ref_grid(validated, validated.sampling)
    reversibility.residual(validated, (X1, X2), t)
    assert counts.point_data == 1
    assert counts.profile_evals == LADDER_EVALS
    assert counts.evals == POINT_DATA_EVALS + LADDER_EVALS


def test_crosscheck_evaluates_one_ladder(validated, counts):
    X1, X2, t = ref_grid(validated, validated.sampling)
    frames.crosscheck(validated, (X1, X2), t)
    assert counts.point_data == 1
    # the ladder at beta(t) serves both sides; phi, phi', phi'' at
    # beta(t + pi) for the frame side's r-partials
    assert counts.profile_evals == LADDER_EVALS + 3
    assert counts.evals == POINT_DATA_EVALS + LADDER_EVALS + 3


@pytest.mark.parametrize("what", ["E", "F"])
def test_profile_scan_evaluates_one_ladder(validated, counts, what):
    scan_table(validated, what)
    assert counts.profile_evals == LADDER_EVALS
    assert counts.evals == LADDER_EVALS
