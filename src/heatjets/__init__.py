"""Exact heat-kernel coefficients for conformally flat 2-D metrics.

The diagonal heat kernel of a surface expands as K(t,x,x) ~ sum a_n(x)
t^(n-1); this package computes the a_n exactly, either as closed-form
polynomials in the derivatives of the conformal factor or as rational
multiples of powers of 1/pi for a concrete metric jet.  Everything in the
computation path is exact rational arithmetic; floating point exists only
in the independent spectral oracle.
"""

from .commutator import (
    RationalMatrix,
    commutator,
    filtration_vectors,
    multiple_commutator,
    x_operator_by_sum,
    x_operator_closed,
    x_operator_recurrence,
)
from .curvature import (
    CurvatureFrame,
    curvature_frame,
    frame_via_identities,
    heat_invariant_curvature_form,
)
from .errors import (
    DegenerateCurvatureCoordinates,
    HeatjetsError,
    IllConditionedFit,
    IndexOutOfRange,
    InvalidMetric,
    NonInvertibleConstantTerm,
    OrderExhausted,
    SchemaError,
    TailNotConverged,
    ValueTooLong,
)
from .heatinv import (
    WEYL_A0,
    ClosedForm,
    HeatInvariantResult,
    closed_form_to_json,
    generic_rho_jet,
    heat_constant,
    heat_invariant,
    heat_invariant_via_frozen,
    parse_closed_form_json,
    render_closed_form,
    render_pi_scaled,
    required_order,
    symbolic_heat_invariant,
)
from .jets import Jet2D
from .laplace import ConformalLaplacian, FrozenLaplacian, gaussian_curvature_jet
from .metrics import MetricSpec, expand_metric, load_metric_spec, parse_metric_spec
from .oracle import (
    AsymptoticFit,
    SphereSpectrum,
    fit_diagonal_coefficients,
    golden_a1,
    sphere_heat_trace,
)
from .rhopoly import PiScaled, RhoPoly

__version__ = "0.1.0"

__all__ = [
    "AsymptoticFit",
    "ClosedForm",
    "ConformalLaplacian",
    "CurvatureFrame",
    "DegenerateCurvatureCoordinates",
    "FrozenLaplacian",
    "HeatInvariantResult",
    "HeatjetsError",
    "IllConditionedFit",
    "IndexOutOfRange",
    "InvalidMetric",
    "Jet2D",
    "MetricSpec",
    "NonInvertibleConstantTerm",
    "OrderExhausted",
    "PiScaled",
    "RationalMatrix",
    "RhoPoly",
    "SchemaError",
    "SphereSpectrum",
    "TailNotConverged",
    "ValueTooLong",
    "WEYL_A0",
    "closed_form_to_json",
    "commutator",
    "curvature_frame",
    "expand_metric",
    "filtration_vectors",
    "fit_diagonal_coefficients",
    "frame_via_identities",
    "gaussian_curvature_jet",
    "generic_rho_jet",
    "golden_a1",
    "heat_constant",
    "heat_invariant",
    "heat_invariant_curvature_form",
    "heat_invariant_via_frozen",
    "load_metric_spec",
    "multiple_commutator",
    "parse_closed_form_json",
    "parse_metric_spec",
    "render_closed_form",
    "render_pi_scaled",
    "required_order",
    "sphere_heat_trace",
    "symbolic_heat_invariant",
    "x_operator_by_sum",
    "x_operator_closed",
    "x_operator_recurrence",
]
