"""Curvature data of Kähler charts from symbolic potentials, with numerical
verification of the pointwise identities tying curvature, Ricci and scalar
curvature to the Bochner tensor, and of the submanifold relations (second
fundamental form, umbilicity, parallel mean curvature, Codazzi)."""

from .expr import (
    Binary,
    Const,
    EvaluationDomainError,
    Expr,
    ParseError,
    Power,
    Unary,
    Var,
    parse_expression,
    unparse,
)
from .geometry import (
    ChartDomain,
    ChristoffelData,
    ComplexCurvature,
    DomainError,
    FrameError,
    HermitianMetric,
    KahlerManifold,
    MetricError,
    PointData,
    RealTangentVector,
    RicciData,
    ball,
    curvature_at,
    metric_at,
    orthonormal_antiholomorphic_frame,
    orthonormal_holomorphic_basis,
    point_data,
    polydisc,
    real_curvature,
    tangent,
)
from .invariants import (
    CheckReport,
    FrameConditionError,
    basis_sum,
    bochner_at,
    chsc_fit,
    einstein_residual,
    holomorphic_sectional_curvature,
    lemma_residual,
    reconstruct_curvature_from_ricci,
    ricci_offdiagonal_check,
)
from .models import (
    build_model,
    builtin_descriptors,
    builtin_immersion,
    builtin_immersions,
    load_immersion,
    load_manifold,
)
from .submanifold import (
    Immersion,
    ParameterBox,
    ParameterDomainError,
    RankError,
    codazzi_residual_general,
    codazzi_residual_umbilical,
    mean_curvature,
    parallel_h_check,
    second_fundamental_form,
    umbilical_residual,
)
from .cli import RunConfig, run_check, run_suite

__version__ = "0.1.0"
