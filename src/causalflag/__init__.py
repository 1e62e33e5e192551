"""Numerics for causal flag manifolds: Lagrangian boundaries, Maslov
indices, causal hulls, and desk-scale subgroup dynamics."""

from .errors import CausalFlagError
from .groups import (
    GroupElement,
    GroupModel,
    group_exp,
    lyapunov_projection,
    model_preset,
    random_lie_perturbation,
    shilov_root,
    tau_p,
)
from .linalg import Signature, hermitian_eigenvalues, signature
from .shilov import (
    ShilovPoint,
    act,
    base_points,
    chart_coordinates,
    chart_point,
    standardize_pair,
    transversality_margin,
    transverse,
)
from .causal import (
    ChartedChart,
    Diamond,
    FutureRelation,
    Hull,
    causal_hull,
    chart_independence_check,
    future_membership,
    sylvester_orbit_check,
)
from .maslov import TripleType, maslov_index, maslov_invariance_report
from .reps import (
    LimitSample,
    Representation,
    WordBall,
    anosov_gap_report,
    convex_core_sample,
    deform,
    domain_center,
    dual_center,
    enumerate_ball,
    pingpong_certificate,
    preset,
    proper_domain_certificate,
    relator_residual,
    sample_limit_set,
    verify_maslov_zero,
)
from .einstein import (
    ein_maslov_sign,
    hilbert_distance,
    invisible_domain_membership,
    lightcone_membership,
    photon_convexity_check,
)

__version__ = "0.1.0"
