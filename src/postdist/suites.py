# src/postdist/suites.py

"""
Seeded verification suites: each statement is one `STATEMENTS` entry whose
builder draws random instances from the regime the statement speaks about and
hands them to the corresponding checker from `theorems`; `run_statement` runs
all of a statement's instances in lockstep (see `theorems.run_checks`).

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
    depolarizing_kraus,
    haar_isometry,
    isometry,
    random_channel,
    scale,
    teleportation,
)
from .distances import OptimizerConfig
from .linalg import InvalidInputError, check_integer
from .theorems import (
    CheckSteps,
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
    contractivity_report,
    nonconvexity_report,
    run_checks,
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
        check_integer("seed", self.seed, 0)
        check_integer("trials", self.trials, 1)
        if not isinstance(self.dims, tuple) or not self.dims:
            raise InvalidInputError(f"dims must be a nonempty tuple of integers, got {self.dims!r}")
        for dim in self.dims:
            check_integer("dims entry", dim, 1)
        OptimizerConfig(self.restarts, self.max_iterations, value_tolerance=self.value_tolerance)


def _instance_rng(cfg: RunConfig, statement: str, index: int) -> np.random.Generator:
    code = STATEMENT_IDS.index(statement)
    return np.random.default_rng([cfg.seed, code, index])


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


def _isometry_case(check, rescale_odd: bool = False):
    """
    The T2 / T3 / C1 instance builder for `check`: the trace-preserving
    (1-eta) U . U^H + eta . depolarizing for a Haar isometry U from d to d
    (even idx) or d + 1 (odd idx) outputs; with `rescale_odd`, odd instances
    are also scaled by a factor in [0.85, 1).
    """

    def build(cfg: RunConfig, rng: np.random.Generator, idx: int) -> CheckSteps:
        d = _dim(cfg, idx)
        u = haar_isometry(rng, d if idx % 2 == 0 else d + 1, d)
        eta = float(rng.uniform(0.01, 0.15))
        ops = (np.sqrt(1.0 - eta) * u, *depolarizing_kraus(d, u.shape[0], eta))
        ch = Channel(ops, name=f"noisy_isometry(eta={eta!r})")
        if rescale_odd and idx % 2 == 1:
            ch = scale(ch, float(rng.uniform(0.85, 1.0)))
        return check.steps(ch, u, _opt(cfg, rng))

    return build


def _scaled_isometry_case(check):
    """The T5 / T6 instance builder for `check`: U as above, scaled by c in [0.7, 1) and noised."""

    def build(cfg: RunConfig, rng: np.random.Generator, idx: int) -> CheckSteps:
        d = _dim(cfg, idx)
        u = haar_isometry(rng, d if idx % 2 == 0 else d + 1, d)
        ch = _noisy_scaled_reference(isometry(u, name="target"), 0.7, 0.1, rng)
        return check.steps(ch, u, _opt(cfg, rng))

    return build


# ---------------------------------------------------------------------------
# the statements: one instance builder each
# ---------------------------------------------------------------------------


class Statement(NamedTuple):
    """
    One verified statement.  `build(cfg, rng, idx)` draws instance `idx` from
    its own stream `rng` and returns the checker's steps (or, for a check that
    needs no estimate, its report); `sweep` is the fixed instance count of a
    counterexample sweep, None for a corpus of cfg.trials.
    """

    build: Callable[[RunConfig, np.random.Generator, int], CheckSteps | TheoremReport]
    sweep: int | None = None


def _doubling(cfg: RunConfig, rng: np.random.Generator, idx: int) -> CheckSteps:
    d = _dim(cfg, idx)
    kind_a = "cptp" if idx % 2 == 0 else "postselection"
    kind_b = "postselection" if idx % 3 == 0 else "cptp"
    a = random_channel(d, d, rank=2, kind=kind_a, seed=rng)
    b = random_channel(d, d, rank=2, kind=kind_b, seed=rng)
    return check_state_distance_doubling.steps(a, b, _opt(cfg, rng))


def _dilation_norm(cfg: RunConfig, rng: np.random.Generator, idx: int) -> CheckSteps:
    d = _dim(cfg, idx)
    kind = "cptp" if idx % 2 == 0 else "postselection"
    ch = random_channel(d, d, rank=1 + idx % 3, kind=kind, seed=rng)
    return check_dilation_norm_identity.steps(ch, _opt(cfg, rng, boost=True))


def _subadditivity(cfg: RunConfig, rng: np.random.Generator, idx: int) -> CheckSteps:
    d = _dim(cfg, idx)
    pairs = []
    for _ in range(2 + idx % 2):
        a = random_channel(d, d, rank=2, kind="cptp", seed=rng)
        b = random_channel(d, d, rank=2, kind="cptp", seed=rng)
        if idx % 3 == 2:
            a = scale(a, 0.9)
            b = scale(b, 0.95)
        pairs.append((a, b))
    return check_subadditivity.steps(pairs, _opt(cfg, rng))


def _weak_subadditivity(cfg: RunConfig, rng: np.random.Generator, idx: int) -> CheckSteps:
    d = _dim(cfg, idx)
    inner_a = random_channel(d, d, rank=2, kind="postselection", seed=rng)
    inner_b = random_channel(d, d, rank=2, kind="postselection", seed=rng)
    outer_a = random_channel(d, d, rank=2, kind="postselection", seed=rng)
    outer_b = random_channel(d, d, rank=2, kind="cptp", seed=rng)
    return check_postselected_subadditivity.steps(
        inner_a, inner_b, outer_a, outer_b, cfg=_opt(cfg, rng)
    )


def _weak_contractivity(cfg: RunConfig, rng: np.random.Generator, idx: int) -> CheckSteps:
    d = _dim(cfg, idx)
    tau = random_channel(d, d, rank=2, kind="cptp", seed=rng)
    a = random_channel(d, d, rank=2, kind="postselection", seed=rng)
    b = random_channel(d, d, rank=2, kind="postselection", seed=rng)
    return check_postselected_contractivity.steps(tau, a, b, _opt(cfg, rng))


def _conversion(cfg: RunConfig, rng: np.random.Generator, idx: int) -> CheckSteps:
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
    return check_conversion.steps(ch, ref, _opt(cfg, rng))


# The order is part of every corpus: _instance_rng seeds each instance with
# its statement's position here.
STATEMENTS = {
    "L1": Statement(_doubling),
    "F2": Statement(_dilation_norm),
    "T1": Statement(_subadditivity),
    "T2": Statement(_isometry_case(check_trace_preserving_diamond_bound)),
    "T3": Statement(_isometry_case(check_isometry_approximation, rescale_odd=True)),
    "C1": Statement(_isometry_case(check_diamond_from_state_distance, rescale_odd=True)),
    "T4": Statement(_weak_subadditivity),
    "T5": Statement(_scaled_isometry_case(check_postselected_diamond_bound)),
    "T6": Statement(_scaled_isometry_case(check_postselected_dilation_bound)),
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
        lambda cfg, rng, idx: alpha_necessity_report.steps(_opt(cfg, rng, boost=True)), sweep=1
    ),
}

STATEMENT_IDS = tuple(STATEMENTS)

# The counterexample statements are fixed parameter sweeps, not random corpora.
FIXED_SWEEP_IDS = tuple(sid for sid, entry in STATEMENTS.items() if entry.sweep is not None)


# ---------------------------------------------------------------------------
# running and formatting
# ---------------------------------------------------------------------------


def _statement(sid: str) -> Statement:
    entry = STATEMENTS.get(sid)
    if entry is None:
        raise InvalidInputError(f"unknown statement id {sid!r}; known: {', '.join(STATEMENT_IDS)}")
    return entry


def normalize_suite_ids(spec: str) -> tuple[str, ...]:
    """'all' or a comma-separated subset of statement ids, order-preserving."""
    if not isinstance(spec, str):
        raise InvalidInputError(f"suite ids must be a string such as 'all' or 'T1,CE2', got {spec!r}")
    if spec.strip().lower() == "all":
        return STATEMENT_IDS
    ids = tuple(dict.fromkeys(token.strip() for token in spec.split(",") if token.strip()))
    if not ids:
        raise InvalidInputError("no statement ids given")
    for sid in ids:
        _statement(sid)
    return ids


def run_statement(statement: str, cfg: RunConfig = RunConfig()) -> list[TheoremReport]:
    entry = _statement(statement)
    count = cfg.trials if entry.sweep is None else entry.sweep
    return run_checks(
        [entry.build(cfg, _instance_rng(cfg, statement, idx), idx) for idx in range(count)]
    )


def run_suite(
    ids: tuple[str, ...] = STATEMENT_IDS, cfg: RunConfig = RunConfig()
) -> dict[str, list[TheoremReport]]:
    return {statement: run_statement(statement, cfg) for statement in ids}


def suite_passed(results: dict[str, list[TheoremReport]]) -> bool:
    return all(r.passed for reports in results.values() for r in reports)


def format_report_line(report: TheoremReport, index: int) -> str:
    status = "PASS" if report.passed else "FAIL"
    return (
        f"{report.statement} {index:03d} lhs={report.lhs!r} rhs={report.rhs!r} "
        f"slack={report.slack!r} {status}"
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
