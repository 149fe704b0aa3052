# src/postdist/suites.py

"""
Seeded verification suites: for each supported statement, a corpus generator
drawing random instances from the regime the statement speaks about, run
through the corresponding checker from `theorems`.

Instance streams are independent per (seed, statement, index), so changing the
trial count or running a subset of statements never reshuffles the instances
that remain.  Report formatting uses repr floats, making the output byte-stable
for identical invocations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import (
    Channel,
    ParameterError,
    depolarizing_kraus,
    haar_isometry,
    isometry,
    random_channel,
    scale,
    teleportation,
)
from .distances import SEED_MASK, OptimizerConfig
from .theorems import (
    TheoremReport,
    alpha_necessity_report,
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
    contractivity_report,
    conversion_report,
    nonconvexity_report,
)

STATEMENT_IDS = (
    "L1",
    "F2",
    "T1",
    "T2",
    "T3",
    "C1",
    "T4",
    "T5",
    "T6",
    "C2",
    "L2",
    "CE1",
    "CE2",
    "CE3",
)

# The counterexample statements are fixed parameter sweeps, not random corpora.
FIXED_SWEEP_IDS = ("CE1", "CE2", "CE3")

NONCONVEXITY_EPSILONS = (1.0 / 32.0, 1.0 / 8.0, 1.0 / 4.0)
CONTRACTIVITY_EPSILONS = (1.0 / 10.0, 1.0 / 3.0, 1.0 / 2.0)


@dataclass(frozen=True)
class RunConfig:
    """Suite settings; the optimizer knobs trade accuracy for corpus size."""

    seed: int = 0
    trials: int = 20
    dims: tuple[int, ...] = (2, 3)
    restarts: int = 6
    max_iterations: int = 150
    step_tolerance: float = 1e-9
    value_tolerance: float = 1e-8


def _instance_rng(cfg: RunConfig, statement: str, index: int) -> np.random.Generator:
    code = STATEMENT_IDS.index(statement)
    return np.random.default_rng([cfg.seed & SEED_MASK, code, index])


def _opt(cfg: RunConfig, rng: np.random.Generator, boost: bool = False) -> OptimizerConfig:
    # Boosted budgets serve equality-style checks that need the optimizer to
    # actually attain a known value rather than merely lower-bound it.
    return OptimizerConfig(
        restarts=cfg.restarts,
        max_iterations=max(cfg.max_iterations, 1000) if boost else cfg.max_iterations,
        step_tolerance=min(cfg.step_tolerance, 1e-10) if boost else cfg.step_tolerance,
        value_tolerance=min(cfg.value_tolerance, 1e-11) if boost else cfg.value_tolerance,
        master_seed=int(rng.integers(0, 2**62)),
    )


def _dim(cfg: RunConfig, index: int) -> int:
    return cfg.dims[index % len(cfg.dims)]


# ---------------------------------------------------------------------------
# corpus building blocks
# ---------------------------------------------------------------------------


def _noisy_isometry(u: np.ndarray, eta: float) -> Channel:
    """Trace-preserving:  (1-eta) U . U^H  +  eta . depolarizing."""
    dim_out, dim_in = u.shape
    ops = [np.sqrt(1.0 - eta) * u]
    ops.extend(depolarizing_kraus(dim_in, dim_out, eta))
    return Channel(tuple(ops), name=f"noisy_isometry(eta={eta!r})")


def _noisy_scaled_reference(
    reference: Channel, c: float, eta: float, rng: np.random.Generator
) -> Channel:
    """
    c [ (1-eta) reference + eta R ] for a random postselection-valid R: stays
    postselection-valid (effect >= c (1-eta) E_ref with E_ref = 1) and close to
    c * reference for small eta.
    """
    ops = [np.sqrt(c * (1.0 - eta)) * op for op in reference.kraus]
    if eta > 0.0:
        noise = random_channel(
            reference.dim_in, reference.dim_out, rank=2, kind="postselection", seed=rng
        )
        ops.extend(np.sqrt(c * eta) * op for op in noise.kraus)
    return Channel(tuple(ops), name=f"near_{reference.name or 'reference'}")


# ---------------------------------------------------------------------------
# per-statement runners
# ---------------------------------------------------------------------------


def _run_state_distance_doubling(cfg: RunConfig) -> list[TheoremReport]:
    reports = []
    for idx in range(cfg.trials):
        rng = _instance_rng(cfg, "L1", idx)
        d = _dim(cfg, idx)
        kind_a = "cptp" if idx % 2 == 0 else "postselection"
        kind_b = "postselection" if idx % 3 == 0 else "cptp"
        a = random_channel(d, d, rank=2, kind=kind_a, seed=rng)
        b = random_channel(d, d, rank=2, kind=kind_b, seed=rng)
        reports.append(check_state_distance_doubling(a, b, _opt(cfg, rng)))
    return reports


def _run_dilation_norm_identity(cfg: RunConfig) -> list[TheoremReport]:
    reports = []
    for idx in range(cfg.trials):
        rng = _instance_rng(cfg, "F2", idx)
        d = _dim(cfg, idx)
        kind = "cptp" if idx % 2 == 0 else "postselection"
        ch = random_channel(d, d, rank=1 + idx % 3, kind=kind, seed=rng)
        reports.append(check_dilation_norm_identity(ch, _opt(cfg, rng, boost=True)))
    return reports


def _run_subadditivity(cfg: RunConfig) -> list[TheoremReport]:
    reports = []
    for idx in range(cfg.trials):
        rng = _instance_rng(cfg, "T1", idx)
        d = _dim(cfg, idx)
        links = 2 + idx % 2
        pairs = []
        for _ in range(links):
            a = random_channel(d, d, rank=2, kind="cptp", seed=rng)
            b = random_channel(d, d, rank=2, kind="cptp", seed=rng)
            if idx % 3 == 2:
                a = scale(a, 0.9)
                b = scale(b, 0.95)
            pairs.append((a, b))
        reports.append(check_subadditivity(pairs, _opt(cfg, rng)))
    return reports


def _isometry_instance(cfg: RunConfig, statement: str, idx: int):
    rng = _instance_rng(cfg, statement, idx)
    d = _dim(cfg, idx)
    dim_out = d if idx % 2 == 0 else d + 1
    u = haar_isometry(rng, dim_out, d)
    eta = float(rng.uniform(0.01, 0.15))
    return rng, u, eta


def _run_trace_preserving_diamond(cfg: RunConfig) -> list[TheoremReport]:
    reports = []
    for idx in range(cfg.trials):
        rng, u, eta = _isometry_instance(cfg, "T2", idx)
        ch = _noisy_isometry(u, eta)
        reports.append(check_trace_preserving_diamond_bound(ch, u, _opt(cfg, rng)))
    return reports


def _run_isometry_approximation(cfg: RunConfig) -> list[TheoremReport]:
    reports = []
    for idx in range(cfg.trials):
        rng, u, eta = _isometry_instance(cfg, "T3", idx)
        ch = _noisy_isometry(u, eta)
        if idx % 2 == 1:
            ch = scale(ch, float(rng.uniform(0.85, 1.0)))
        reports.append(check_isometry_approximation(ch, u, _opt(cfg, rng)))
    return reports


def _run_diamond_from_state_distance(cfg: RunConfig) -> list[TheoremReport]:
    reports = []
    for idx in range(cfg.trials):
        rng, u, eta = _isometry_instance(cfg, "C1", idx)
        ch = _noisy_isometry(u, eta)
        if idx % 2 == 1:
            ch = scale(ch, float(rng.uniform(0.85, 1.0)))
        reports.append(check_diamond_from_state_distance(ch, u, _opt(cfg, rng)))
    return reports


def _run_postselected_subadditivity(cfg: RunConfig) -> list[TheoremReport]:
    reports = []
    for idx in range(cfg.trials):
        rng = _instance_rng(cfg, "T4", idx)
        d = _dim(cfg, idx)
        inner_a = random_channel(d, d, rank=2, kind="postselection", seed=rng)
        inner_b = random_channel(d, d, rank=2, kind="postselection", seed=rng)
        outer_a = random_channel(d, d, rank=2, kind="postselection", seed=rng)
        outer_b = random_channel(d, d, rank=2, kind="cptp", seed=rng)
        reports.append(
            check_postselected_subadditivity(
                inner_a, inner_b, outer_a, outer_b, anc_dim=1, cfg=_opt(cfg, rng)
            )
        )
    return reports


def _postselected_isometry_instance(cfg: RunConfig, statement: str, idx: int):
    rng = _instance_rng(cfg, statement, idx)
    d = _dim(cfg, idx)
    dim_out = d if idx % 2 == 0 else d + 1
    u = haar_isometry(rng, dim_out, d)
    c = float(rng.uniform(0.7, 1.0))
    eta = float(rng.uniform(0.0, 0.1))
    ch = _noisy_scaled_reference(isometry(u, name="target"), c, eta, rng)
    return rng, u, ch


def _run_postselected_isometry_diamond(cfg: RunConfig) -> list[TheoremReport]:
    reports = []
    for idx in range(cfg.trials):
        rng, u, ch = _postselected_isometry_instance(cfg, "T5", idx)
        reports.append(check_postselected_diamond_bound(ch, u, _opt(cfg, rng)))
    return reports


def _run_postselected_isometry_dilation(cfg: RunConfig) -> list[TheoremReport]:
    reports = []
    for idx in range(cfg.trials):
        rng, u, ch = _postselected_isometry_instance(cfg, "T6", idx)
        reports.append(check_postselected_dilation_bound(ch, u, _opt(cfg, rng)))
    return reports


def _run_postselected_contractivity(cfg: RunConfig) -> list[TheoremReport]:
    reports = []
    for idx in range(cfg.trials):
        rng = _instance_rng(cfg, "C2", idx)
        d = _dim(cfg, idx)
        tau = random_channel(d, d, rank=2, kind="cptp", seed=rng)
        a = random_channel(d, d, rank=2, kind="postselection", seed=rng)
        b = random_channel(d, d, rank=2, kind="postselection", seed=rng)
        reports.append(check_postselected_contractivity(tau, a, b, _opt(cfg, rng)))
    return reports


def _run_conversion(cfg: RunConfig) -> list[TheoremReport]:
    reports = []
    for idx in range(cfg.trials):
        rng = _instance_rng(cfg, "L2", idx)
        if idx < 2:
            d = 2 + idx
            ch = teleportation(d)
            ref = isometry(np.eye(d), name="identity")
        else:
            d = _dim(cfg, idx)
            if idx % 3 == 0:
                ref = random_channel(d, d, rank=2, kind="cptp", seed=rng)
            else:
                ref = isometry(haar_isometry(rng, d, d), name="target_unitary")
            c = float(rng.uniform(0.5, 1.0))
            eta = float(rng.uniform(0.0, 0.2))
            ch = _noisy_scaled_reference(ref, c, eta, rng)
        reports.append(conversion_report(ch, ref, _opt(cfg, rng)))
    return reports


def _run_nonconvexity(cfg: RunConfig) -> list[TheoremReport]:
    return [nonconvexity_report(eps) for eps in NONCONVEXITY_EPSILONS]


def _run_contractivity_counterexample(cfg: RunConfig) -> list[TheoremReport]:
    return [contractivity_report(eps) for eps in CONTRACTIVITY_EPSILONS]


def _run_alpha_necessity(cfg: RunConfig) -> list[TheoremReport]:
    rng = _instance_rng(cfg, "CE3", 0)
    return [alpha_necessity_report(_opt(cfg, rng, boost=True))]


_RUNNERS = {
    "L1": _run_state_distance_doubling,
    "F2": _run_dilation_norm_identity,
    "T1": _run_subadditivity,
    "T2": _run_trace_preserving_diamond,
    "T3": _run_isometry_approximation,
    "C1": _run_diamond_from_state_distance,
    "T4": _run_postselected_subadditivity,
    "T5": _run_postselected_isometry_diamond,
    "T6": _run_postselected_isometry_dilation,
    "C2": _run_postselected_contractivity,
    "L2": _run_conversion,
    "CE1": _run_nonconvexity,
    "CE2": _run_contractivity_counterexample,
    "CE3": _run_alpha_necessity,
}


# ---------------------------------------------------------------------------
# running and formatting
# ---------------------------------------------------------------------------


def normalize_suite_ids(spec: str) -> tuple[str, ...]:
    """'all' or a comma-separated subset of statement ids, order-preserving."""
    if spec.strip().lower() == "all":
        return STATEMENT_IDS
    ids = []
    for token in spec.split(","):
        token = token.strip()
        if not token:
            continue
        if token not in STATEMENT_IDS:
            raise ParameterError(
                f"unknown statement id {token!r}; known: {', '.join(STATEMENT_IDS)}"
            )
        if token not in ids:
            ids.append(token)
    if not ids:
        raise ParameterError("no statement ids given")
    return tuple(ids)


def run_statement(statement: str, cfg: RunConfig = RunConfig()) -> list[TheoremReport]:
    if statement not in _RUNNERS:
        raise ParameterError(
            f"unknown statement id {statement!r}; known: {', '.join(STATEMENT_IDS)}"
        )
    return _RUNNERS[statement](cfg)


def run_suite(
    ids: tuple[str, ...] = STATEMENT_IDS, cfg: RunConfig = RunConfig()
) -> dict[str, list[TheoremReport]]:
    return {statement: run_statement(statement, cfg) for statement in ids}


def suite_passed(results: dict[str, list[TheoremReport]]) -> bool:
    return all(r.passed for reports in results.values() for r in reports)


def format_report_line(report: TheoremReport, index: int) -> str:
    status = "PASS" if report.passed else "FAIL"
    slack = report.rhs - report.lhs
    return (
        f"{report.statement} {index:03d} lhs={report.lhs!r} rhs={report.rhs!r} "
        f"slack={slack!r} {status}"
    )


def format_suite_results(results: dict[str, list[TheoremReport]]) -> str:
    lines = []
    total = 0
    failed = 0
    for statement, reports in results.items():
        ok = 0
        for index, report in enumerate(reports):
            lines.append(format_report_line(report, index))
            for violation in report.aux_violations:
                lines.append(f"{statement} {index:03d}   aux: {violation}")
            ok += report.passed
        total += len(reports)
        failed += len(reports) - ok
        lines.append(f"{statement}: {ok}/{len(reports)} passed")
    lines.append("OK" if failed == 0 else f"FAIL ({failed} of {total} checks failed)")
    return "\n".join(lines) + "\n"
