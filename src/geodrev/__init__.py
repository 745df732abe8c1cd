"""geodrev: reversible-geodesic analysis of 2-dimensional (alpha,beta)-metrics."""

from .scalarfield import (
    EvalDomainError,
    ExpressionError,
    ParseError,
    UnknownVariableError,
)
from .metric import (
    FinslerValidationError,
    IsothermalMetric,
    LinearForm,
    MetricBundle,
    PhiFunction,
    Rectangle,
    Sampling,
    even_odd_decompose,
    validate_finsler,
)
from .reversibility import (
    InconsistentEvidenceError,
    Verdict,
    calE,
    calF,
    classify,
    residual,
)
from .frames import crosscheck
from .geodesics import (
    GeodesicPath,
    SingularHessianError,
    finsler_norm,
    integrate,
    path_distance,
    reversibility_error,
    reversibility_scan,
    spray,
)
from .config import ConfigError

__version__ = "0.1.0"
