# src/postdist/linalg.py

from __future__ import annotations

import math
import numbers

import numpy as np
import numpy.linalg as npl

# Largest row or column count any constructed matrix may have.  Channel
# construction and extensions check against this before allocating.
DIM_CAP = 4096

# Hermiticity is decided (and symmetrized away) at this tolerance.
HERMITICITY_ATOL = 1e-10


class InvalidInputError(ValueError):
    """Raised for malformed numeric input: wrong shape, non-finite entries."""


class CapacityError(ValueError):
    """Raised when a requested dimension exceeds the configured cap."""


def is_integer(value) -> bool:
    """True for a Python or numpy integer; bools are not sizes or counts."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def check_integer(name: str, value, low: int | None = None) -> None:
    """The one rule for a size, count or seed: an integer (not a bool), at least `low` if given."""
    if not is_integer(value) or (low is not None and value < low):
        bound = "" if low is None else f" >= {low}"
        raise InvalidInputError(f"{name} must be an integer{bound}, got {value!r}")


def is_real(value) -> bool:
    """The one rule for a real parameter: a finite real number (not a bool) that fits in a float."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def as_array(X, name: str = "matrix", ndim: int = 2) -> np.ndarray:
    """The one rule for an array argument: nonempty, ndim-d, numeric (not bool), finite; as complex."""
    try:
        X = np.asarray(X)
    except (TypeError, ValueError):
        raise InvalidInputError(f"{name}: expected a nonempty {ndim}-d array, got a ragged one") from None
    if X.ndim != ndim or 0 in X.shape:
        raise InvalidInputError(f"{name}: expected a nonempty {ndim}-d array, got shape {X.shape}")
    if X.dtype.kind not in "iufc":
        raise InvalidInputError(f"{name}: expected numeric entries, got dtype {X.dtype}")
    X = X.astype(complex, copy=False)
    if not np.isfinite(X).all():
        raise InvalidInputError(f"{name}: non-finite entries")
    return X


def hermitianize(X: np.ndarray) -> np.ndarray:
    """Return the Hermitian part (X + X^H) / 2."""
    return (X + X.conj().T) / 2


def hermiticity_defect(X: np.ndarray) -> float:
    """Largest entry of |X - X^H|, the distance from being Hermitian."""
    return float(np.max(np.abs(X - X.conj().T))) if X.shape[0] == X.shape[1] else np.inf


def is_hermitian(X: np.ndarray) -> bool:
    scale = max(1.0, float(np.max(np.abs(X)))) if X.size else 1.0
    return hermiticity_defect(X) <= HERMITICITY_ATOL * scale


def hermitian_eig(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """
    Eigendecomposition of a Hermitian matrix.

    The input must be Hermitian within HERMITICITY_ATOL; it is symmetrized to
    (X + X^H)/2 before the decomposition so roundoff asymmetry cannot leak into
    the spectrum.  Returns (eigenvalues ascending, eigenvectors as columns).
    """
    X = as_array(X)
    if X.shape[0] != X.shape[1]:
        raise InvalidInputError(f"hermitian_eig needs a square matrix, got {X.shape}")
    if not is_hermitian(X):
        raise InvalidInputError(
            f"matrix is not Hermitian within {HERMITICITY_ATOL:g} "
            f"(defect {hermiticity_defect(X):.3e})"
        )
    w, V = npl.eigh(hermitianize(X))
    return w, V


def trace_norm(X: np.ndarray) -> float:
    """
    Trace norm ||X||_1 (sum of singular values), by SVD: the Gram route would
    lift each zero singular value to about sqrt(eps) * sigma_max.
    """
    return float(npl.svd(as_array(X), compute_uv=False).sum())


def operator_norm(X: np.ndarray) -> float:
    """Operator norm ||X||_op (largest singular value)."""
    return float(npl.svd(as_array(X), compute_uv=False)[0])


def partial_trace(X: np.ndarray, dims: tuple[int, int], keep: str = "first") -> np.ndarray:
    """
    Trace out one tensor factor of a square matrix on C^{d1} (x) C^{d2}.

    `keep` selects the surviving factor ("first" or "second"); indices follow
    the same row-major convention as `np.kron`.
    """
    X = as_array(X)
    try:
        d1, d2 = dims
    except (TypeError, ValueError):
        raise InvalidInputError(f"partial_trace takes two dims (d1, d2), got {dims!r}") from None
    check_integer("factor dimension d1", d1, 1)
    check_integer("factor dimension d2", d2, 1)
    n = d1 * d2
    if X.shape != (n, n):
        raise InvalidInputError(
            f"partial_trace expects shape {(n, n)} for dims {dims}, got {X.shape}"
        )
    T = X.reshape(d1, d2, d1, d2)
    if keep == "first":
        return np.einsum("ajbj->ab", T)
    if keep == "second":
        return np.einsum("jajb->ab", T)
    raise InvalidInputError(f"keep must be 'first' or 'second', got {keep!r}")
