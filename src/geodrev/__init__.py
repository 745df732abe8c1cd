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
    beta_on_indicatrix,
    even_odd_decompose,
    indicatrix_p,
    reverse_phi,
    validate_finsler,
)
from .reversibility import (
    InconsistentEvidenceError,
    Verdict,
    calE,
    calF,
    classify,
    curl21,
    gauss_curvature,
    integrability_obstruction,
    m_coeffs,
    m_direct,
    pde_residuals,
    residual,
)
from .frames import (
    ConvexityError,
    alpha_coframe,
    crosscheck,
    directional_derivs,
    dual_frame,
    ecprinc_direct,
    frame_intermediates,
    omega_coframe,
    structure_residuals,
)
from .geodesics import (
    GeodesicPath,
    SingularHessianError,
    finsler_norm,
    integrate,
    path_distance,
    reversibility_error,
    reversibility_scan,
    riemann_geodesic,
    spray,
)
from .config import ConfigError

__version__ = "0.1.0"
