"""Pathwise fractional calculus, FBM sampling, and a windowed Picard solver
for the driven integral equation Y(t, xi) = phi(xi) + int_0^t int_0^xi
A(Y(s, eta)) dg(s, eta) ds, with the existence proof's constants and
inequalities computed and checked numerically."""

from .grids import GridError, GridFunction, SpaceTimeField
from .frac_calc import (
    beta_b1,
    weyl_derivative_left,
    weyl_derivative_right,
)
from .norms import (
    norm_1malpha_infty0,
    norm_alpha_1,
    norm_alpha_infty,
)
from .fbm import (
    CovarianceReport,
    DrivingField,
    FbmConfig,
    covariance_validator,
    driving_field,
    fbm_path,
    field_from_path,
    stub_driving_field,
)
from .stieltjes import (
    PAIRING_SIGN,
    BoundReport,
    IndicatorReport,
    bound_357_check,
    pathwise_integral_bound_check,
    stieltjes_indicator_consistency,
    stieltjes_integral,
)
from .coefficients import (
    CoefficientFunction,
    coefficient_from_kind,
    constant_coefficient,
    gaussian_bump,
    smoothed_biot_savart,
    tanh_coefficient,
    zero_coefficient,
)
from .solver import (
    RunConstants,
    SolverConfig,
    SolverReport,
    WindowConstants,
    ball_invariance_check,
    compute_constants,
    contraction_probe,
    gronwall_check,
    quadruple_inequality_check,
    run_constants,
    solve,
)

__version__ = "0.1.0"

__all__ = [
    "GridError", "GridFunction", "SpaceTimeField",
    "beta_b1", "weyl_derivative_left", "weyl_derivative_right",
    "norm_1malpha_infty0", "norm_alpha_1", "norm_alpha_infty",
    "CovarianceReport", "DrivingField", "FbmConfig", "covariance_validator",
    "driving_field", "fbm_path", "field_from_path", "stub_driving_field",
    "PAIRING_SIGN", "BoundReport", "IndicatorReport", "bound_357_check",
    "pathwise_integral_bound_check", "stieltjes_indicator_consistency",
    "stieltjes_integral",
    "CoefficientFunction", "coefficient_from_kind", "constant_coefficient",
    "gaussian_bump", "smoothed_biot_savart", "tanh_coefficient",
    "zero_coefficient",
    "RunConstants", "SolverConfig", "SolverReport", "WindowConstants",
    "ball_invariance_check", "compute_constants",
    "contraction_probe", "gronwall_check", "quadruple_inequality_check",
    "run_constants", "solve",
]
