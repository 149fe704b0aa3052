# src/postdist/__init__.py

"""
Distance measures for postselected quantum channels.

Channels are Kraus-operator collections of trace-nonincreasing completely
positive maps.  The package provides the standard state/operator/diamond
distances, their renormalized (postselected) counterparts, multi-start
estimation with reproducible witnesses, and numerical verification suites for
the inequalities and counterexamples relating the measures.
"""

from .linalg import (
    DIM_CAP,
    CapacityError,
    InvalidInputError,
    hermitian_eig,
    hermitianize,
    is_hermitian,
    operator_norm,
    partial_trace,
    tensor,
    trace_norm,
)
from .channels import (
    Channel,
    ChoiMatrix,
    DensityMatrix,
    ParameterError,
    PureState,
    StinespringOp,
    ValidityError,
    ValidityReport,
    apply,
    apply_renormalized,
    channel_from_json,
    channel_to_json,
    choi_to_kraus,
    compose,
    contractivity_triple,
    conversion_pair,
    alpha_necessity_pair,
    gallery,
    GALLERY_NAMES,
    isometry,
    kraus_to_choi,
    nonconvexity_pair,
    random_channel,
    random_density,
    random_pure,
    read_channel,
    require_postselection,
    scale,
    stinespring,
    teleportation,
    tensor_with_identity,
    validate,
    write_channel,
)
from .distances import (
    MEASURES,
    AscentResult,
    DistanceEstimate,
    OptimizerConfig,
    dense_oracle,
    diamond_distance,
    diamond_norm_channel,
    distance,
    evaluate_witness,
    maximize,
    postselected_diamond_distance,
    postselected_trace_distance,
    renormalized_distance,
    trace_distance_operators,
    trace_distance_states,
)
from .theorems import (
    ConversionResult,
    TheoremReport,
    alpha_necessity_report,
    check_conversion,
    check_diamond_from_state_distance,
    check_dilation_norm_identity,
    check_isometry_approximation,
    check_postselected_contractivity,
    check_postselected_diamond_bound,
    check_postselected_dilation_bound,
    check_postselected_subadditivity,
    check_state_distance_doubling,
    check_subadditivity,
    check_trace_preserving_diamond_bound,
    contractivity_curve,
    contractivity_report,
    conversion_factor,
    conversion_report,
    environment_vector,
    nonconvexity_curve,
    nonconvexity_report,
    output_separation,
    phase_mixture_states,
)
from .suites import (
    RunConfig,
    STATEMENT_IDS,
    format_suite_results,
    normalize_suite_ids,
    run_statement,
    run_suite,
    suite_passed,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
