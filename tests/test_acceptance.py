# tests/test_acceptance.py
#
# End-to-end acceptance gate.  Each test is one criterion; `pytest -v` on this
# file yields one pass/fail line per criterion.  The slow corpus criteria are
# kept in this module only, so the fast unit suites stay fast.

import math
import subprocess
import sys
import time

import numpy as np
import pytest

from postdist.channels import (
    DensityMatrix,
    compose,
    contractivity_triple,
    conversion_pair,
    isometry,
    nonconvexity_pair,
    random_density,
    teleportation,
    apply_renormalized,
)
from postdist.distances import (
    MEASURES,
    OptimizerConfig,
    dense_oracle,
    distance,
    evaluate_witness,
)
from postdist.suites import FIXED_SWEEP_IDS, STATEMENT_IDS, RunConfig, run_suite
from postdist.theorems import (
    check_conversion,
    contractivity_curve,
    conversion_factor,
    nonconvexity_curve,
)

STRONG = OptimizerConfig(master_seed=5, restarts=8, max_iterations=400, value_tolerance=1e-11)


def test_nonconvexity_values_and_curve_match_closed_form():
    start = time.monotonic()
    for eps in (1.0 / 32.0, 1.0 / 8.0, 1.0 / 4.0):
        psi, phi = nonconvexity_pair(eps)
        f0 = evaluate_witness("hat-tr", psi, phi, DensityMatrix(np.diag([1.0, 0.0]).astype(complex)))
        f1 = evaluate_witness("hat-tr", psi, phi, DensityMatrix(np.diag([0.0, 1.0]).astype(complex)))
        fm = evaluate_witness("hat-tr", psi, phi, DensityMatrix.maximally_mixed(2))
        assert abs(f0) <= 1e-9
        assert abs(f1) <= 1e-9
        assert abs(fm - (2.0 - 4.0 * eps)) <= 1e-9
        rows = nonconvexity_curve(eps, grid=200)
        assert rows.shape == (201, 2)
        p = rows[:, 0]
        expected = np.zeros_like(p)
        inner = (p > 0.0) & (p < 1.0)
        q = p[inner] * (1.0 - p[inner])
        expected[inner] = (
            2.0 * q * (1.0 - 2.0 * eps) / (eps * (1.0 - eps) + q * (1.0 - 2.0 * eps) ** 2)
        )
        assert np.max(np.abs(rows[:, 1] - expected)) <= 1e-9
    assert time.monotonic() - start < 1.0


def test_contractivity_failure_direct_and_optimizer():
    start = time.monotonic()
    for eps in (1.0 / 10.0, 1.0 / 3.0, 1.0 / 2.0):
        _, before, after = contractivity_curve(eps)
        assert abs(before - 1.0) <= 1e-9
        assert abs(after - 2.0 / (1.0 + eps)) <= 1e-9
        psi, phi, tau = contractivity_triple(eps)
        est_before = distance("hat-diamond", psi, phi, STRONG).value
        est_after = distance(
            "hat-diamond", compose(tau, psi), compose(tau, phi), STRONG
        ).value
        assert abs(est_before - 1.0) <= 1e-4
        assert abs(est_after - 2.0 / (1.0 + eps)) <= 1e-4
    assert time.monotonic() - start < 30.0


def test_conversion_alpha_necessity():
    start = time.monotonic()
    psi, phi = conversion_pair()
    assert distance("hat-tr", psi, phi, STRONG).value <= 1e-6
    assert abs(distance("dtrD", psi, phi, STRONG).value - 0.5) <= 1e-6
    assert math.isinf(conversion_factor(phi))
    assert time.monotonic() - start < 10.0


def test_teleportation_probability_and_conversion():
    start = time.monotonic()
    for dim in (2, 3):
        tele = teleportation(dim)
        ident = isometry(np.eye(dim), name="identity")
        rng = np.random.default_rng(dim)
        for _ in range(100):
            _, prob = apply_renormalized(tele, random_density(dim, seed=rng))
            assert abs(prob - dim ** -2) <= 1e-12
        assert distance("hat-diamond", tele, ident, STRONG).value <= 1e-5
        rep = check_conversion(tele, ident, STRONG)
        assert rep.passed
        assert rep.witnesses["k"] == (1.0 / dim) ** 2
        assert rep.witnesses["probability_spread"] < 1e-12
    assert time.monotonic() - start < 30.0


def test_randomized_statement_suites_have_zero_failures():
    start = time.monotonic()
    randomized = tuple(s for s in STATEMENT_IDS if s not in FIXED_SWEEP_IDS)
    cfg = RunConfig(seed=0, trials=200, dims=(2, 3))
    results = run_suite(randomized, cfg)
    failures = [
        (sid, idx, rep)
        for sid, reports in results.items()
        for idx, rep in enumerate(reports)
        if not rep.passed
    ]
    assert len(randomized) == 11
    assert all(len(reports) == cfg.trials for reports in results.values())
    assert not failures, failures[:5]
    assert time.monotonic() - start < 600.0


def test_optimizer_matches_dense_oracle_on_gallery():
    start = time.monotonic()
    psi_c, phi_c, tau = contractivity_triple(1.0 / 3.0)
    pairs = [
        nonconvexity_pair(1.0 / 32.0),
        nonconvexity_pair(1.0 / 8.0),
        nonconvexity_pair(1.0 / 4.0),
        (psi_c, phi_c),
        (compose(tau, psi_c), compose(tau, phi_c)),
        conversion_pair(),
        (teleportation(2), isometry(np.eye(2), name="identity")),
        (teleportation(3), isometry(np.eye(3), name="identity")),
    ]
    for chan_a, chan_b in pairs:
        for measure in MEASURES:
            est = distance(measure, chan_a, chan_b, STRONG).value
            oracle = dense_oracle(measure, chan_a, chan_b, samples=100_000, seed=0)
            assert abs(est - oracle) <= 5e-3, (
                chan_a.name, chan_b.name, measure, est, oracle
            )
    assert time.monotonic() - start < 300.0


def test_verify_reports_are_byte_identical_across_processes():
    command = [
        sys.executable, "-m", "postdist.cli", "verify",
        "--suite", "all", "--seed", "0",
        "--trials", "2", "--restarts", "4", "--max-iter", "60",
    ]
    runs = [
        subprocess.run(command, capture_output=True, timeout=300) for _ in range(2)
    ]
    for run in runs:
        assert run.returncode == 0
        assert run.stdout.endswith(b"OK\n")
    assert runs[0].stdout == runs[1].stdout
