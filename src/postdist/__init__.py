# src/postdist/__init__.py

"""
Distance measures for postselected quantum channels.

Channels are Kraus-operator collections of trace-nonincreasing completely
positive maps.  The package provides the standard state/operator/diamond
distances, their renormalized (postselected) counterparts, multi-start
estimation with reproducible witnesses, and numerical verification suites for
the inequalities and counterexamples relating the measures.
"""

import importlib as _importlib

from .linalg import (
    DIM_CAP,
    CapacityError,
    InvalidInputError,
    hermitian_eig,
    hermitianize,
    is_hermitian,
    operator_norm,
    partial_trace,
    trace_norm,
)
from .channels import (
    Channel,
    DensityMatrix,
    PureState,
    ValidityError,
    apply,
    apply_renormalized,
    channel_from_json,
    channel_to_json,
    choi_to_kraus,
    compose,
    contractivity_triple,
    conversion_pair,
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
    write_channel,
)
from .distances import (
    MEASURES,
    AscentResult,
    DistanceEstimate,
    OptimizerConfig,
    dense_oracle,
    diamond_norm_channel,
    distance,
    distance_batch,
    evaluate_witness,
    maximize,
    output_separation_bound,
)

__version__ = "0.1.0"

# The verification layer loads on first use (PEP 562), so `import postdist`
# compiles only linalg, channels and distances. The core stays eager: a lazy
# core would move its import into the caller's first call.
_LAZY = {
    "theorems": (
        "TheoremReport", "alpha_necessity_report", "check_conversion",
        "check_diamond_from_state_distance", "check_dilation_norm_identity",
        "check_isometry_approximation", "check_postselected_contractivity",
        "check_postselected_diamond_bound", "check_postselected_dilation_bound",
        "check_postselected_subadditivity", "check_state_distance_doubling",
        "check_subadditivity", "check_trace_preserving_diamond_bound", "contractivity_curve",
        "contractivity_report", "conversion_factor", "environment_vector", "nonconvexity_curve",
        "nonconvexity_report", "phase_mixture_states",
    ),
    "suites": (
        "RunConfig", "STATEMENT_IDS", "format_suite_results", "normalize_suite_ids",
        "run_statement", "run_suite", "suite_passed",
    ),
}
_HOME = {name: module for module, names in _LAZY.items() for name in (module, *names)}

__all__ = sorted({name for name in dir() if not name.startswith("_")} | _HOME.keys())


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = _importlib.import_module(f"{__name__}.{_HOME[name]}")
    return module if name == _HOME[name] else getattr(module, name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
