# tests/test_linalg.py

import re
import warnings

import numpy as np
import numpy.linalg as npl
import pytest
from hypothesis import given, settings
from fractions import Fraction

from hypothesis import strategies as st

from postdist.linalg import (
    InvalidInputError,
    as_array,
    check_integer,
    hermitian_eig,
    hermitianize,
    hermiticity_defect,
    is_hermitian,
    is_integer,
    is_real,
    operator_norm,
    partial_trace,
    trace_norm,
)


def _random_complex(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def _haar_unitary(rng, dim):
    q, r = npl.qr(_random_complex(rng, dim, dim))
    phases = np.diagonal(r) / np.abs(np.diagonal(r))
    return q * phases.conj()


# ---------------------------------------------------------------------------
# frozen values
# ---------------------------------------------------------------------------


def test_trace_norm_hermitian_diagonal():
    assert trace_norm(np.diag([3.0, -4.0])) == pytest.approx(7.0, abs=1e-12)


def test_trace_norm_projector_difference_padded():
    m = np.zeros((3, 3), dtype=complex)
    m[0, 0] = 1.0
    m[1, 1] = -1.0
    assert trace_norm(m) == pytest.approx(2.0, abs=1e-12)


def test_trace_norm_nilpotent():
    assert trace_norm(np.array([[0.0, 1.0], [0.0, 0.0]])) == pytest.approx(1.0, abs=1e-12)


def test_trace_norm_rectangular():
    m = np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0]])
    assert trace_norm(m) == pytest.approx(3.0, abs=1e-12)


def test_trace_norm_near_hermitian_keeps_its_antihermitian_part():
    m = np.array([[0.0, 4e-11], [-4e-11, 0.0]])
    assert trace_norm(m) == pytest.approx(8e-11, rel=1e-12)


def test_operator_norm_values():
    assert operator_norm(np.diag([1.0, -5.0])) == pytest.approx(5.0, abs=1e-12)
    assert operator_norm(np.array([[0.0, 2.0], [0.0, 0.0]])) == pytest.approx(2.0, abs=1e-12)
    near_hermitian = np.array([[0.0, 4e-11], [-4e-11, 0.0]])
    assert operator_norm(near_hermitian) == pytest.approx(4e-11, rel=1e-12)


def test_hermitian_eig_pauli_x():
    x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    w, v = hermitian_eig(x)
    assert np.allclose(w, [-1.0, 1.0], atol=1e-12)
    assert np.allclose(v @ np.diag(w) @ v.conj().T, x, atol=1e-12)


def test_is_integer_takes_python_and_numpy_integers_only():
    assert all(is_integer(n) for n in (0, -3, 2**70, np.int8(2), np.int64(5), np.uint32(7)))
    assert not any(is_integer(x) for x in (True, np.True_, 2.0, 2.5, np.float64(2), "2", None))


def test_check_integer_names_the_argument_and_its_bound():
    check_integer("count", np.int64(3), 3)
    check_integer("seed", -5)
    with pytest.raises(InvalidInputError, match=r"^count must be an integer >= 3, got 2$"):
        check_integer("count", 2, 3)
    with pytest.raises(InvalidInputError, match=r"^seed must be an integer, got True$"):
        check_integer("seed", True)
    with pytest.raises(InvalidInputError, match=r"^count must be an integer >= 0, got 1.0$"):
        check_integer("count", 1.0, 0)


def test_is_real_takes_real_numbers_but_not_bools():
    assert all(is_real(x) for x in (0, -3, 2.5, np.float32(0.5), np.int8(2), Fraction(1, 3)))
    assert not any(is_real(x) for x in (True, np.True_, "0.5", None, 1j, np.complex128(1)))
    # A real parameter is finite and fits in a float; numpy scalars are tested without a warning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert all(is_real(x) for x in (np.float32(3e38), np.finfo(float).max, 10**308))
        non_finite = (float("nan"), -float("inf"), np.float32("inf"), np.float64("nan"))
        assert not any(is_real(x) for x in (*non_finite, 10**400, Fraction(10**400)))


def test_as_array_takes_finite_numeric_arrays_as_complex():
    for given in ([[1, 2]], np.eye(2, dtype=np.int8), np.eye(2, dtype=np.float32), 1j * np.eye(2)):
        out = as_array(given, "m")
        assert out.dtype == complex and np.array_equal(out, np.asarray(given))
    x = np.eye(2, dtype=complex)
    assert as_array(x) is x  # no copy: callers that keep the array copy it
    assert as_array([1.0, 2.0], "v", ndim=1).shape == (2,)
    for bad, message in (
        ([1.0, 2.0], "m: expected a nonempty 2-d array, got shape (2,)"),
        (np.zeros((0, 2)), "m: expected a nonempty 2-d array, got shape (0, 2)"),
        ([[1.0], [1.0, 2.0]], "m: expected a nonempty 2-d array, got a ragged one"),
        ([["1", "0"]], "m: expected numeric entries, got dtype <U1"),
        (np.eye(2, dtype=bool), "m: expected numeric entries, got dtype bool"),
        (np.eye(2).astype(object), "m: expected numeric entries, got dtype object"),
        ([[np.nan, 0.0]], "m: non-finite entries"),
        ([[0.0, 1j * np.inf]], "m: non-finite entries"),
    ):
        with pytest.raises(InvalidInputError, match=re.escape(message)):
            as_array(bad, "m")


def test_partial_trace_entangled_state():
    d = 3
    omega = np.zeros(d * d, dtype=complex)
    for i in range(d):
        omega[i * d + i] = 1.0 / np.sqrt(d)
    rho = np.outer(omega, omega.conj())
    assert np.allclose(partial_trace(rho, (d, d), "first"), np.eye(d) / d, atol=1e-12)
    assert np.allclose(partial_trace(rho, (d, d), "second"), np.eye(d) / d, atol=1e-12)


def test_partial_trace_product_state():
    rng = np.random.default_rng(3)
    a = _random_complex(rng, 2, 2)
    a = a @ a.conj().T
    a /= np.trace(a).real
    b = _random_complex(rng, 3, 3)
    b = b @ b.conj().T
    b /= np.trace(b).real
    rho = np.kron(a, b)
    assert np.allclose(partial_trace(rho, (2, 3), "first"), a, atol=1e-12)
    assert np.allclose(partial_trace(rho, (2, 3), "second"), b, atol=1e-12)


def test_hermitianize_and_defect():
    m = np.array([[1.0, 1.0 + 0.2j], [1.0, 2.0]])
    h = hermitianize(m)
    assert hermiticity_defect(h) <= 1e-15
    assert not is_hermitian(m)
    assert is_hermitian(h)


# ---------------------------------------------------------------------------
# invariants on seeded random input
# ---------------------------------------------------------------------------


def test_norm_invariants_random():
    rng = np.random.default_rng(0)
    for _ in range(200):
        d = int(rng.integers(1, 7))
        x = _random_complex(rng, d, d)
        y = _random_complex(rng, d, d)
        tn_x = trace_norm(x)
        assert tn_x >= operator_norm(x) - 1e-10
        assert abs(trace_norm(x.conj().T) - tn_x) <= 1e-9 * max(1.0, tn_x)
        assert trace_norm(x + y) <= trace_norm(x) + trace_norm(y) + 1e-9
        assert tn_x >= abs(np.trace(x)) - 1e-9


def test_trace_norm_unitary_invariance():
    rng = np.random.default_rng(1)
    for _ in range(50):
        d = int(rng.integers(2, 6))
        x = _random_complex(rng, d, d)
        u = _haar_unitary(rng, d)
        v = _haar_unitary(rng, d)
        assert trace_norm(u @ x @ v) == pytest.approx(trace_norm(x), rel=1e-9, abs=1e-9)


def test_hermitian_route_matches_gram_route():
    # Hermitian input must give the sum and the largest of numpy's singular values.
    rng = np.random.default_rng(2)
    for _ in range(100):
        d = int(rng.integers(1, 7))
        h = hermitianize(_random_complex(rng, d, d))
        s = npl.svd(h, compute_uv=False)
        assert trace_norm(h) == pytest.approx(float(s.sum()), rel=1e-10, abs=1e-10)
        assert operator_norm(h) == pytest.approx(float(s.max()), rel=1e-10, abs=1e-10)


def test_eigendecomposition_reconstructs():
    rng = np.random.default_rng(4)
    for _ in range(50):
        d = int(rng.integers(1, 7))
        h = hermitianize(_random_complex(rng, d, d))
        w, v = hermitian_eig(h)
        assert np.all(np.diff(w) >= -1e-14)
        assert np.allclose(v @ np.diag(w) @ v.conj().T, h, atol=1e-10)
        assert np.allclose(v.conj().T @ v, np.eye(d), atol=1e-10)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.floats(-4.0, 4.0))
def test_trace_norm_homogeneity(seed, factor):
    rng = np.random.default_rng(seed)
    x = _random_complex(rng, 3, 3)
    assert trace_norm(factor * x) == pytest.approx(
        abs(factor) * trace_norm(x), rel=1e-9, abs=1e-9
    )


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_partial_trace_preserves_trace(seed):
    rng = np.random.default_rng(seed)
    x = _random_complex(rng, 6, 6)
    for dims in ((2, 3), (3, 2), (1, 6), (6, 1)):
        for keep in ("first", "second"):
            reduced = partial_trace(x, dims, keep)
            assert np.trace(reduced) == pytest.approx(np.trace(x), rel=1e-12, abs=1e-12)


# ---------------------------------------------------------------------------
# error handling
# ---------------------------------------------------------------------------


def test_rejects_non_matrices():
    with pytest.raises(InvalidInputError):
        trace_norm(np.array([1.0, 2.0]))
    with pytest.raises(InvalidInputError):
        operator_norm(np.zeros((0, 2)))
    with pytest.raises(InvalidInputError):
        trace_norm(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(InvalidInputError):
        trace_norm(np.array([["a", "b"], ["c", "d"]], dtype=object))


def test_hermitian_eig_rejects_bad_input():
    with pytest.raises(InvalidInputError):
        hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(InvalidInputError):
        hermitian_eig(np.zeros((2, 3)))


def test_partial_trace_rejects_bad_dims():
    with pytest.raises(InvalidInputError):
        partial_trace(np.eye(6), (2, 2))
    with pytest.raises(InvalidInputError):
        partial_trace(np.eye(6), (0, 6))
    with pytest.raises(InvalidInputError):
        partial_trace(np.eye(6), (2, 3), keep="third")


def test_partial_trace_rejects_non_integer_dims():
    # Dims are not truncated: (2.5, 2) would trace np.eye(4) to 2 I, and True would read as 1.
    for dims in ((2.5, 2), (2, 2.0), (True, 4), (4, True)):
        with pytest.raises(InvalidInputError):
            partial_trace(np.eye(4), dims)
    assert np.array_equal(partial_trace(np.eye(4), (np.int64(2), 2)), 2 * np.eye(2))


def test_partial_trace_takes_exactly_two_dims():
    # (2, 2, 5) would otherwise trace np.eye(4) over its first two dims to 2 I.
    for dims in ((2, 2, 5), (4,), (), 4, None):
        with pytest.raises(InvalidInputError):
            partial_trace(np.eye(4), dims)
    assert np.array_equal(partial_trace(np.eye(4), [2, 2]), 2 * np.eye(2))
    assert np.array_equal(partial_trace(np.eye(4), np.array([2, 2])), 2 * np.eye(2))
