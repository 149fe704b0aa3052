# src/postdist/suites.py

"""
Seeded verification suites: each statement is one `STATEMENTS` entry whose
builder draws random instances from the regime the statement speaks about and
runs them through the corresponding checker from `theorems`.

Instance streams are independent per (seed, statement, index), so changing the
trial count or running a subset of statements never reshuffles the instances
that remain.  Report formatting uses repr floats, making the output byte-stable
for identical invocations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

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
    value_tolerance: float = 1e-8

    def __post_init__(self):
        if self.trials < 1:
            raise ParameterError(f"trials must be >= 1, got {self.trials}")
        if not self.dims:
            raise ParameterError("dims must name at least one dimension")


def _instance_rng(cfg: RunConfig, statement: str, index: int) -> np.random.Generator:
    code = STATEMENT_IDS.index(statement)
    return np.random.default_rng([cfg.seed & SEED_MASK, code, index])


def _opt(cfg: RunConfig, rng: np.random.Generator, boost: bool = False) -> OptimizerConfig:
    # Boosted budgets serve equality-style checks that need the optimizer to
    # actually attain a known value rather than merely lower-bound it.
    return OptimizerConfig(
        restarts=cfg.restarts,
        max_iterations=max(cfg.max_iterations, 1000) if boost else cfg.max_iterations,
        step_tolerance=1e-10 if boost else OptimizerConfig.step_tolerance,
        value_tolerance=min(cfg.value_tolerance, 1e-11) if boost else cfg.value_tolerance,
        master_seed=int(rng.integers(0, 2**62)),
    )


def _dim(cfg: RunConfig, index: int) -> int:
    return cfg.dims[index % len(cfg.dims)]


# ---------------------------------------------------------------------------
# corpus building blocks
# ---------------------------------------------------------------------------


def _noisy_scaled_reference(
    reference: Channel, c_low: float, eta_high: float, rng: np.random.Generator
) -> Channel:
    """
    c [ (1-eta) reference + eta R ] for c drawn from [c_low, 1), eta from
    [0, eta_high) and a random postselection-valid R: stays postselection-valid
    (effect >= c (1-eta) E_ref with E_ref = 1) and close to c * reference for
    small eta.
    """
    c = float(rng.uniform(c_low, 1.0))
    eta = float(rng.uniform(0.0, eta_high))
    ops = [np.sqrt(c * (1.0 - eta)) * op for op in reference.kraus]
    if eta > 0.0:
        noise = random_channel(
            reference.dim_in, reference.dim_out, rank=2, kind="postselection", seed=rng
        )
        ops.extend(np.sqrt(c * eta) * op for op in noise.kraus)
    return Channel(tuple(ops), name=f"near_{reference.name or 'reference'}")


def _isometry_case(cfg: RunConfig, rng: np.random.Generator, idx: int, rescale_odd: bool = False):
    """
    T2 / T3 / C1 checker arguments: the trace-preserving (1-eta) U . U^H +
    eta . depolarizing for a Haar isometry U from d to d (even idx) or d + 1
    (odd idx) outputs; with `rescale_odd`, odd instances are also scaled by a
    factor in [0.85, 1).
    """
    d = _dim(cfg, idx)
    u = haar_isometry(rng, d if idx % 2 == 0 else d + 1, d)
    eta = float(rng.uniform(0.01, 0.15))
    ops = (np.sqrt(1.0 - eta) * u, *depolarizing_kraus(d, u.shape[0], eta))
    ch = Channel(ops, name=f"noisy_isometry(eta={eta!r})")
    if rescale_odd and idx % 2 == 1:
        ch = scale(ch, float(rng.uniform(0.85, 1.0)))
    return ch, u, _opt(cfg, rng)


def _scaled_isometry_case(cfg: RunConfig, rng: np.random.Generator, idx: int):
    """T5 / T6 checker arguments: U as above, scaled by c in [0.7, 1) and noised."""
    d = _dim(cfg, idx)
    u = haar_isometry(rng, d if idx % 2 == 0 else d + 1, d)
    ch = _noisy_scaled_reference(isometry(u, name="target"), 0.7, 0.1, rng)
    return ch, u, _opt(cfg, rng)


# ---------------------------------------------------------------------------
# the statements: one instance builder each
# ---------------------------------------------------------------------------


class Statement(NamedTuple):
    """
    One verified statement.  `build(cfg, rng, idx)` draws instance `idx` from
    its own stream `rng` and returns the checker's report; `sweep` is the fixed
    instance count of a counterexample sweep, None for a corpus of cfg.trials.
    """

    build: Callable[[RunConfig, np.random.Generator, int], TheoremReport]
    sweep: int | None = None


def _doubling(cfg: RunConfig, rng: np.random.Generator, idx: int) -> TheoremReport:
    d = _dim(cfg, idx)
    kind_a = "cptp" if idx % 2 == 0 else "postselection"
    kind_b = "postselection" if idx % 3 == 0 else "cptp"
    a = random_channel(d, d, rank=2, kind=kind_a, seed=rng)
    b = random_channel(d, d, rank=2, kind=kind_b, seed=rng)
    return check_state_distance_doubling(a, b, _opt(cfg, rng))


def _dilation_norm(cfg: RunConfig, rng: np.random.Generator, idx: int) -> TheoremReport:
    d = _dim(cfg, idx)
    kind = "cptp" if idx % 2 == 0 else "postselection"
    ch = random_channel(d, d, rank=1 + idx % 3, kind=kind, seed=rng)
    return check_dilation_norm_identity(ch, _opt(cfg, rng, boost=True))


def _subadditivity(cfg: RunConfig, rng: np.random.Generator, idx: int) -> TheoremReport:
    d = _dim(cfg, idx)
    pairs = []
    for _ in range(2 + idx % 2):
        a = random_channel(d, d, rank=2, kind="cptp", seed=rng)
        b = random_channel(d, d, rank=2, kind="cptp", seed=rng)
        if idx % 3 == 2:
            a = scale(a, 0.9)
            b = scale(b, 0.95)
        pairs.append((a, b))
    return check_subadditivity(pairs, _opt(cfg, rng))


def _weak_subadditivity(cfg: RunConfig, rng: np.random.Generator, idx: int) -> TheoremReport:
    d = _dim(cfg, idx)
    inner_a = random_channel(d, d, rank=2, kind="postselection", seed=rng)
    inner_b = random_channel(d, d, rank=2, kind="postselection", seed=rng)
    outer_a = random_channel(d, d, rank=2, kind="postselection", seed=rng)
    outer_b = random_channel(d, d, rank=2, kind="cptp", seed=rng)
    return check_postselected_subadditivity(inner_a, inner_b, outer_a, outer_b, cfg=_opt(cfg, rng))


def _weak_contractivity(cfg: RunConfig, rng: np.random.Generator, idx: int) -> TheoremReport:
    d = _dim(cfg, idx)
    tau = random_channel(d, d, rank=2, kind="cptp", seed=rng)
    a = random_channel(d, d, rank=2, kind="postselection", seed=rng)
    b = random_channel(d, d, rank=2, kind="postselection", seed=rng)
    return check_postselected_contractivity(tau, a, b, _opt(cfg, rng))


def _conversion(cfg: RunConfig, rng: np.random.Generator, idx: int) -> TheoremReport:
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
        ch = _noisy_scaled_reference(ref, 0.5, 0.2, rng)
    return conversion_report(ch, ref, _opt(cfg, rng))


# Entries call their checkers by name at run time, so a wrapper installed on a
# checker's module attribute (as perfbench's tracer does) sees every call.
# The order is part of every corpus: _instance_rng seeds each instance with
# its statement's position here.
STATEMENTS = {
    "L1": Statement(_doubling),
    "F2": Statement(_dilation_norm),
    "T1": Statement(_subadditivity),
    "T2": Statement(
        lambda cfg, rng, idx: check_trace_preserving_diamond_bound(*_isometry_case(cfg, rng, idx))
    ),
    "T3": Statement(
        lambda cfg, rng, idx: check_isometry_approximation(*_isometry_case(cfg, rng, idx, True))
    ),
    "C1": Statement(
        lambda cfg, rng, idx: check_diamond_from_state_distance(*_isometry_case(cfg, rng, idx, True))
    ),
    "T4": Statement(_weak_subadditivity),
    "T5": Statement(
        lambda cfg, rng, idx: check_postselected_diamond_bound(*_scaled_isometry_case(cfg, rng, idx))
    ),
    "T6": Statement(
        lambda cfg, rng, idx: check_postselected_dilation_bound(*_scaled_isometry_case(cfg, rng, idx))
    ),
    "C2": Statement(_weak_contractivity),
    "L2": Statement(_conversion),
    "CE1": Statement(
        lambda cfg, rng, idx: nonconvexity_report(NONCONVEXITY_EPSILONS[idx]),
        sweep=len(NONCONVEXITY_EPSILONS),
    ),
    "CE2": Statement(
        lambda cfg, rng, idx: contractivity_report(CONTRACTIVITY_EPSILONS[idx]),
        sweep=len(CONTRACTIVITY_EPSILONS),
    ),
    "CE3": Statement(
        lambda cfg, rng, idx: alpha_necessity_report(_opt(cfg, rng, boost=True)), sweep=1
    ),
}

STATEMENT_IDS = tuple(STATEMENTS)

# The counterexample statements are fixed parameter sweeps, not random corpora.
FIXED_SWEEP_IDS = tuple(sid for sid, entry in STATEMENTS.items() if entry.sweep is not None)


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
    entry = STATEMENTS.get(statement)
    if entry is None:
        raise ParameterError(
            f"unknown statement id {statement!r}; known: {', '.join(STATEMENT_IDS)}"
        )
    count = cfg.trials if entry.sweep is None else entry.sweep
    return [entry.build(cfg, _instance_rng(cfg, statement, idx), idx) for idx in range(count)]


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
