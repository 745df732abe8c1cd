import numpy as np
import pytest

from geodrev import (
    IsothermalMetric,
    LinearForm,
    MetricBundle,
    PhiFunction,
    Rectangle,
)

# Profile corpus: the two classical families, an even profile, an
# even-plus-linear profile, and an even-plus-linear profile built from exp.
CORPUS_PROFILES = {
    "randers": ("1 + s", 0.9),
    "matsumoto": ("1 / (1 - s)", 0.4),
    "even_quadratic": ("1 + s^2", 0.9),
    "quadratic_plus_linear": ("1 + s^2 + 0.3*s", 0.5),
    "exp_plus_linear": ("exp(s^2) - 0.5*s", 0.6),
}

EVEN_PLUS_LINEAR = {"randers", "even_quadratic", "quadratic_plus_linear", "exp_plus_linear"}


@pytest.fixture(scope="session")
def corpus():
    return {name: PhiFunction.from_text(text, b0) for name, (text, b0) in CORPUS_PROFILES.items()}


def make_class_a_bundle() -> MetricBundle:
    """Curved conformal factor, closed form, profile 1 + s."""
    metric = IsothermalMetric.from_text(
        "-ln(1 + (x1^2 + x2^2)/4)", Rectangle(-1.5, 1.5, -1.5, 1.5)
    )
    form = LinearForm.from_text("0.1*x2", "0.1*x1")
    return MetricBundle(metric, form, PhiFunction.randers(0.9))


def make_class_b_bundle() -> MetricBundle:
    """Flat factor, constant form, Matsumoto profile."""
    metric = IsothermalMetric.from_text("0", Rectangle(-1.0, 1.0, -1.0, 1.0))
    form = LinearForm.from_text("0.2", "0.1")
    return MetricBundle(metric, form, PhiFunction.matsumoto(0.4))


def make_irreversible_bundle() -> MetricBundle:
    """Flat factor, x1-dependent form, Matsumoto profile."""
    metric = IsothermalMetric.from_text("0", Rectangle(-1.0, 1.0, -1.0, 1.0))
    form = LinearForm.from_text("0.2 + 0.1*x1", "0")
    return MetricBundle(metric, form, PhiFunction.matsumoto(0.4))


def make_even_bundle() -> MetricBundle:
    """Even profile over a curved factor with a non-closed form."""
    metric = IsothermalMetric.from_text("0.1*x1 + 0.05*x2^2", Rectangle(-1.0, 1.0, -1.0, 1.0))
    form = LinearForm.from_text("0.2 - 0.1*x2", "0.1*x1")
    return MetricBundle(metric, form, PhiFunction.from_text("1 + s^2", 0.9))


@pytest.fixture(scope="session")
def class_a_bundle():
    return make_class_a_bundle()


@pytest.fixture(scope="session")
def class_b_bundle():
    return make_class_b_bundle()


@pytest.fixture(scope="session")
def irreversible_bundle():
    return make_irreversible_bundle()


@pytest.fixture(scope="session")
def even_bundle():
    return make_even_bundle()


@pytest.fixture(scope="session")
def witness_bundles(class_a_bundle, class_b_bundle, irreversible_bundle):
    return {
        "class_a": class_a_bundle,
        "class_b": class_b_bundle,
        "irreversible": irreversible_bundle,
    }


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)


def doubled(bundle):
    """The same structure with every sampling count doubled."""
    return MetricBundle(bundle.metric, bundle.form, bundle.phi, bundle.sampling.doubled())


def random_points(bundle, rng, n):
    """Random interior (x, t) samples for a bundle, away from the boundary."""
    d = bundle.metric.domain
    pad1 = 0.02 * (d.x1max - d.x1min)
    pad2 = 0.02 * (d.x2max - d.x2min)
    x1 = rng.uniform(d.x1min + pad1, d.x1max - pad1, n)
    x2 = rng.uniform(d.x2min + pad2, d.x2max - pad2, n)
    t = rng.uniform(0.0, 2.0 * np.pi, n)
    return x1, x2, t
