# tests/test_gradients.py
#
# The optimizer ascends on closed-form gradients; these tests hold each one
# against central finite differences of its own objective at seeded random
# points, and each objective's value against the reference evaluation at the
# decoded point.

import warnings

import numpy as np
import pytest

from postdist.channels import Channel, random_channel
from postdist.distances import (
    MEASURE_SPECS,
    MEASURES,
    OptimizerConfig,
    _canonical_pair,
    distance,
    evaluate_witness,
)

GRADIENT_STEP = 1e-6
RTOL = 1e-6
POINTS = 4
VALUE_ROWS = 16

def central_differences(fn, x: np.ndarray) -> np.ndarray:
    eye = np.eye(x.shape[1])
    out = np.empty_like(x)
    for row in range(x.shape[0]):
        plus = fn(x[row] + GRADIENT_STEP * eye)
        minus = fn(x[row] - GRADIENT_STEP * eye)
        out[row] = (plus - minus) / (2.0 * GRADIENT_STEP)
    return out


def assert_gradient_matches(fn, grad, n_params: int, seed: int) -> None:
    x = np.random.default_rng(seed).standard_normal((POINTS, n_params))
    analytic = grad(x)
    numeric = central_differences(fn, x)
    assert analytic.shape == (POINTS, n_params)
    err = np.linalg.norm(analytic - numeric, axis=1) / np.linalg.norm(numeric, axis=1)
    assert np.all(err <= RTOL), err


def _one_problem(kernel):
    # The kernels take each row's problem index; every row here is problem 0.
    return tuple(lambda x, f=f: f(x, np.zeros(len(x), dtype=int)) for f in kernel)


def _pair(kind: str, dim_in: int, dim_out: int, seed: int):
    return (
        random_channel(dim_in, dim_out, rank=2, kind=kind, seed=2 * seed),
        random_channel(dim_in, dim_out, rank=2, kind=kind, seed=2 * seed + 1),
    )


PAIRS = [("cptp", 2, 2), ("cptp", 3, 3), ("postselection", 2, 2), ("postselection", 3, 3)]


@pytest.mark.parametrize("measure", MEASURES)
@pytest.mark.parametrize("kind,dim_in,dim_out", PAIRS + [("postselection", 2, 3)])
def test_measure_gradient_matches_central_differences(measure, kind, dim_in, dim_out):
    a, b = _pair(kind, dim_in, dim_out, seed=dim_in + 10 * dim_out)
    spec = MEASURE_SPECS[measure]
    fn, grad = _one_problem(spec.kernel([(a, b)]))
    assert_gradient_matches(fn, grad, spec.n_params(dim_in), seed=dim_in)


@pytest.mark.parametrize("measure", MEASURES)
@pytest.mark.parametrize("kind,dim_in,dim_out", PAIRS + [("postselection", 2, 3)])
def test_measure_value_matches_witness_evaluation(measure, kind, dim_in, dim_out):
    a, b = _pair(kind, dim_in, dim_out, seed=dim_in + 10 * dim_out)
    spec = MEASURE_SPECS[measure]
    if spec.postselected:
        a, b = _canonical_pair(a, b)
    fn, _ = _one_problem(spec.kernel([(a, b)]))
    rows = np.random.default_rng(dim_in).standard_normal((VALUE_ROWS, spec.n_params(dim_in)))
    dim = dim_in * spec.ancilla(dim_in)
    reference = [evaluate_witness(measure, a, b, spec.decode(row, dim)) for row in rows]
    assert np.max(np.abs(fn(rows) - reference)) <= 1e-12


def test_gradient_is_zero_on_degenerate_rows():
    a, b = _pair("postselection", 2, 2, seed=3)
    for spec in MEASURE_SPECS.values():
        _, grad = _one_problem(spec.kernel([(a, b)]))
        g = grad(np.zeros((2, spec.n_params(a.dim_in))))
        assert np.all(g == 0.0)


def _near_floor_channel(seed: int, floor_gap: float) -> Channel:
    # A postselection channel whose effect has lambda_min = floor_gap: the
    # first Kraus operator is scaled down along the effect's weakest direction.
    ch = random_channel(2, 2, rank=2, kind="postselection", seed=seed)
    w, v = np.linalg.eigh(ch.effect)
    shrink = v @ np.diag(np.sqrt([floor_gap / w[0], 1.0])) @ v.conj().T
    return Channel(tuple(op @ shrink for op in ch.kraus), name="near_floor")


def test_hat_measures_near_postselection_floor():
    a = _near_floor_channel(41, 2e-10)
    b = random_channel(2, 2, rank=2, kind="postselection", seed=42)
    assert 1e-10 < a.effect_eigenvalues[0] < 3e-10
    cfg = OptimizerConfig(master_seed=1, restarts=6, max_iterations=200)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for measure in ("hat-tr", "hat-diamond"):
            est = distance(measure, a, b, cfg)
            assert np.isfinite(est.value)
            assert 0.0 <= est.value <= 2.0 + 1e-9
            assert evaluate_witness(measure, a, b, est.witness) == est.value


def test_counters_repeat_exactly():
    a, b = _pair("postselection", 3, 3, seed=8)
    cfg = OptimizerConfig(master_seed=4, restarts=6, max_iterations=200)
    for measure in MEASURES:
        first = distance(measure, a, b, cfg)
        second = distance(measure, a, b, cfg)
        assert 1 <= first.iterations <= cfg.max_iterations
        assert first.evaluations >= cfg.restarts + 5 * first.iterations
        assert (first.iterations, first.evaluations) == (second.iterations, second.evaluations)
        assert first.value == second.value
