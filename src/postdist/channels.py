# src/postdist/channels.py

"""
Completely positive trace-nonincreasing maps in Kraus form, plus the state and
dilation types the distance measures operate on.

Conventions fixed here and relied on everywhere else:
  * matrices are row-major, composite indices are (i_A, i_B) as in linalg.tensor;
  * the Choi matrix is J = sum_ij |i><j| (x) Psi(|i><j|), input factor first,
    unnormalized (trace equals tr of the effect operator);
  * a Stinespring dilation has rows indexed (output, environment).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import numpy.linalg as npl

from .linalg import (
    DIM_CAP,
    CapacityError,
    InvalidInputError,
    hermitian_eig,
    hermitianize,
    is_hermitian,
    operator_norm,
    tensor,
)

# A channel may be used for postselection only if its effect operator is
# bounded away from singular by this floor.
POSTSELECTION_EIG_FLOOR = 1e-10

# Trace-nonincreasing / trace-preserving decisions use this tolerance.
TRACE_ATOL = 1e-9

# Choi eigenvalues at or below this threshold are dropped when extracting Kraus
# operators.
KRAUS_TRUNCATION_ATOL = 1e-12


class ValidityError(ValueError):
    """A channel fails a property required for the requested operation."""


class ParameterError(ValueError):
    """A gallery or generator parameter is outside its legal range."""


# ---------------------------------------------------------------------------
# state and map types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PureState:
    """Unit vector in C^dim (norm enforced within 1e-12)."""

    vector: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vector, dtype=complex).reshape(-1)
        if v.size == 0 or not np.all(np.isfinite(v)):
            raise InvalidInputError("pure state vector must be nonempty and finite")
        norm = float(npl.norm(v))
        if abs(norm - 1.0) > 1e-12:
            raise InvalidInputError(f"pure state norm {norm!r} deviates from 1 beyond 1e-12")
        v.setflags(write=False)
        object.__setattr__(self, "vector", v)

    @property
    def dim(self) -> int:
        return self.vector.size

    @classmethod
    def normalized(cls, vector: np.ndarray) -> "PureState":
        v = np.asarray(vector, dtype=complex).reshape(-1)
        norm = float(npl.norm(v))
        if not np.isfinite(norm) or norm < 1e-12:
            raise InvalidInputError("cannot normalize a (near-)zero vector")
        return cls(v / norm)

    def density(self) -> "DensityMatrix":
        return DensityMatrix(np.outer(self.vector, self.vector.conj()))


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian PSD matrix with unit trace (tolerances 1e-10)."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] == 0:
            raise InvalidInputError(f"density matrix must be square, got shape {m.shape}")
        if not np.all(np.isfinite(m)):
            raise InvalidInputError("density matrix has non-finite entries")
        if not is_hermitian(m):
            raise InvalidInputError("density matrix is not Hermitian within 1e-10")
        m = hermitianize(m)
        w = npl.eigvalsh(m)
        if w[0] < -1e-10:
            raise InvalidInputError(f"density matrix has negative eigenvalue {w[0]:.3e}")
        tr = float(np.trace(m).real)
        if abs(tr - 1.0) > 1e-10:
            raise InvalidInputError(f"density matrix trace {tr!r} deviates from 1 beyond 1e-10")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def maximally_mixed(cls, dim: int) -> "DensityMatrix":
        return cls(np.eye(dim, dtype=complex) / dim)


@dataclass(frozen=True)
class ChoiMatrix:
    """Choi matrix of a CP map, PSD within 1e-9, input factor first."""

    matrix: np.ndarray
    dim_in: int
    dim_out: int

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        n = self.dim_in * self.dim_out
        if m.shape != (n, n):
            raise InvalidInputError(f"Choi matrix must have shape {(n, n)}, got {m.shape}")
        if not np.all(np.isfinite(m)):
            raise InvalidInputError("Choi matrix has non-finite entries")
        if not is_hermitian(m):
            raise InvalidInputError("Choi matrix is not Hermitian within 1e-10")
        m = hermitianize(m)
        w = npl.eigvalsh(m)
        if w.size and w[0] < -TRACE_ATOL:
            raise ValidityError(f"not completely positive: Choi eigenvalue {w[0]:.3e}")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)


@dataclass(frozen=True)
class StinespringOp:
    """
    Isometry-style dilation A : C^dim_in -> C^dim_out (x) C^dim_env with
    A[(m, e), i] = K_e[m, i], so tracing out the environment factor of
    A rho A^H reproduces the channel.
    """

    matrix: np.ndarray
    dim_in: int
    dim_out: int
    dim_env: int

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (self.dim_out * self.dim_env, self.dim_in):
            raise InvalidInputError(
                f"Stinespring operator shape {m.shape} does not match "
                f"({self.dim_out}*{self.dim_env}, {self.dim_in})"
            )
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)


@dataclass(frozen=True)
class Channel:
    """
    CP trace-nonincreasing map given by Kraus operators (dim_out x dim_in each).

    Construction validates shape consistency, finiteness and the
    trace-nonincreasing property lambda_max(E) <= 1 + 1e-9 for the effect
    operator E = sum K^H K.  Instances are immutable.
    """

    kraus: tuple[np.ndarray, ...]
    name: str = ""
    dim_in: int = field(init=False)
    dim_out: int = field(init=False)

    def __post_init__(self):
        if len(self.kraus) == 0:
            raise ValidityError("empty channel: at least one Kraus operator is required")
        ops = []
        shape = None
        for idx, op in enumerate(self.kraus):
            op = np.asarray(op, dtype=complex)
            if op.ndim != 2 or op.shape[0] == 0 or op.shape[1] == 0:
                raise InvalidInputError(f"Kraus operator {idx} must be a nonempty matrix")
            if shape is None:
                shape = op.shape
            elif op.shape != shape:
                raise InvalidInputError(
                    f"Kraus operator {idx} has shape {op.shape}, expected {shape}"
                )
            if not np.all(np.isfinite(op)):
                raise InvalidInputError(f"Kraus operator {idx} has non-finite entries")
            op = op.copy()
            op.setflags(write=False)
            ops.append(op)
        if max(shape) > DIM_CAP:
            raise CapacityError(f"Kraus shape {shape} exceeds dimension cap {DIM_CAP}")
        object.__setattr__(self, "kraus", tuple(ops))
        object.__setattr__(self, "dim_out", shape[0])
        object.__setattr__(self, "dim_in", shape[1])
        stack = np.stack(ops)
        stack.setflags(write=False)
        effect = np.einsum("emi,emj->ij", stack.conj(), stack)
        effect = hermitianize(effect)
        effect.setflags(write=False)
        eigs = npl.eigvalsh(effect)
        eigs.setflags(write=False)
        object.__setattr__(self, "_stack", stack)
        object.__setattr__(self, "_effect", effect)
        object.__setattr__(self, "_effect_eigs", eigs)
        if eigs[-1] > 1.0 + TRACE_ATOL:
            raise ValidityError(
                f"not trace-nonincreasing: lambda_max(E) = {float(eigs[-1])!r} exceeds 1 + 1e-9"
            )

    @property
    def kraus_stack(self) -> np.ndarray:
        """All Kraus operators as one (rank, dim_out, dim_in) array."""
        return self._stack

    @property
    def effect(self) -> np.ndarray:
        """Effect operator E = sum K^H K."""
        return self._effect

    @property
    def effect_eigenvalues(self) -> np.ndarray:
        """Eigenvalues of the effect operator, ascending."""
        return self._effect_eigs

    @property
    def rank(self) -> int:
        return len(self.kraus)

    def is_trace_preserving(self, atol: float = TRACE_ATOL) -> bool:
        return operator_norm(self._effect - np.eye(self.dim_in)) <= atol

    def is_postselection_valid(self, floor: float = POSTSELECTION_EIG_FLOOR) -> bool:
        return float(self._effect_eigs[0]) > floor


@dataclass(frozen=True)
class ValidityReport:
    effect_min: float
    effect_max: float
    completely_positive: bool
    trace_preserving: bool
    postselection_valid: bool


def validate(ch: Channel) -> ValidityReport:
    """
    Summarize the validity properties of a channel.

    Complete positivity holds by Kraus construction; the report nevertheless
    derives it from the Choi spectrum so the flag is an independent check.
    """
    choi_min = float(npl.eigvalsh(_choi_matrix(ch))[0])
    return ValidityReport(
        effect_min=float(ch.effect_eigenvalues[0]),
        effect_max=float(ch.effect_eigenvalues[-1]),
        completely_positive=choi_min >= -TRACE_ATOL,
        trace_preserving=ch.is_trace_preserving(),
        postselection_valid=ch.is_postselection_valid(),
    )


def require_postselection(*channels: Channel) -> None:
    """
    Validity gate of the renormalized measures: raises ValidityError unless
    every channel's effect operator is bounded away from singular.
    """
    for ch in channels:
        if not ch.is_postselection_valid():
            raise ValidityError(
                f"invalid postselection channel: lambda_min(E) = "
                f"{float(ch.effect_eigenvalues[0])!r} is not above {POSTSELECTION_EIG_FLOOR:g}"
            )


# ---------------------------------------------------------------------------
# applying and transforming channels
# ---------------------------------------------------------------------------


def _input_matrix(ch: Channel, rho: DensityMatrix | np.ndarray) -> np.ndarray:
    m = rho.matrix if isinstance(rho, DensityMatrix) else np.asarray(rho, dtype=complex)
    if m.shape != (ch.dim_in, ch.dim_in):
        raise InvalidInputError(
            f"input shape {m.shape} does not match channel input dimension {ch.dim_in}"
        )
    return m


def apply(ch: Channel, rho: DensityMatrix | np.ndarray) -> np.ndarray:
    """Apply the channel: sum_e K_e rho K_e^H (no renormalization)."""
    m = _input_matrix(ch, rho)
    tmp = ch.kraus_stack @ m
    return np.einsum("eij,ekj->ik", tmp, ch.kraus_stack.conj())


def apply_renormalized(ch: Channel, rho: DensityMatrix | np.ndarray) -> tuple[DensityMatrix, float]:
    """
    Postselected action rho -> Psi(rho) / tr[Psi(rho)], with the postselection
    probability tr[Psi(rho)] as second return value.
    """
    require_postselection(ch)
    out = apply(ch, rho)
    prob = float(np.trace(out).real)
    if prob < 1e-12:
        raise ValidityError(f"numerical degeneracy: postselection probability {prob!r}")
    return DensityMatrix(out / prob), prob


def _choi_matrix(ch: Channel) -> np.ndarray:
    # J = sum_e v_e v_e^H with v_e[(i, m)] = K_e[m, i].
    vecs = ch.kraus_stack.transpose(0, 2, 1).reshape(ch.rank, -1)
    return np.einsum("ep,eq->pq", vecs, vecs.conj())


def kraus_to_choi(ch: Channel) -> ChoiMatrix:
    """Unnormalized Choi matrix J = sum_ij |i><j| (x) Psi(|i><j|)."""
    return ChoiMatrix(_choi_matrix(ch), dim_in=ch.dim_in, dim_out=ch.dim_out)


def choi_to_kraus(choi: ChoiMatrix, name: str = "") -> Channel:
    """
    Extract Kraus operators from a Choi matrix.  Eigenvalues at or below the
    truncation threshold (1e-12) are dropped; an all-zero Choi matrix has no
    channel realization and raises.
    """
    w, V = hermitian_eig(choi.matrix)
    ops = []
    for lam, vec in zip(w, V.T):
        if lam > KRAUS_TRUNCATION_ATOL:
            ops.append(np.sqrt(lam) * vec.reshape(choi.dim_in, choi.dim_out).T)
    if not ops:
        raise ValidityError("empty channel: Choi matrix has no eigenvalue above 1e-12")
    return Channel(tuple(ops), name=name)


def stinespring(ch: Channel) -> StinespringOp:
    """Dilation with the environment dimension equal to the Kraus rank."""
    a = ch.kraus_stack.transpose(1, 0, 2).reshape(ch.dim_out * ch.rank, ch.dim_in)
    return StinespringOp(a, dim_in=ch.dim_in, dim_out=ch.dim_out, dim_env=ch.rank)


def tensor_with_identity(ch: Channel, anc_dim: int, cap: int = DIM_CAP) -> Channel:
    """Extend by an untouched ancilla: Kraus operators K_e (x) I_anc."""
    if anc_dim < 1:
        raise ParameterError(f"ancilla dimension must be >= 1, got {anc_dim}")
    if ch.dim_out * anc_dim > cap or ch.dim_in * anc_dim > cap:
        raise CapacityError(
            f"extension to {ch.dim_in * anc_dim} inputs exceeds dimension cap {cap}"
        )
    if anc_dim == 1:
        return ch
    eye = np.eye(anc_dim, dtype=complex)
    ops = tuple(tensor(op, eye, cap=cap) for op in ch.kraus)
    return Channel(ops, name=ch.name and f"{ch.name} (x) I_{anc_dim}")


def compose(outer: Channel, inner: Channel) -> Channel:
    """
    Composition outer after inner, Kraus set {K'_j K_i}.  When the product set
    exceeds dim_in * dim_out operators it is compressed through the Choi
    spectrum (same map, minimal rank), which keeps repeated composition cheap.
    """
    if inner.dim_out != outer.dim_in:
        raise InvalidInputError(
            f"cannot compose: inner output dim {inner.dim_out} != outer input dim {outer.dim_in}"
        )
    ops = tuple(oj @ ki for oj in outer.kraus for ki in inner.kraus)
    ch = Channel(ops, name=f"({outer.name or 'outer'} o {inner.name or 'inner'})")
    if ch.rank > ch.dim_in * ch.dim_out:
        try:
            ch = choi_to_kraus(kraus_to_choi(ch), name=ch.name)
        except ValidityError:
            pass  # an (almost) zero composition has no smaller realization
    return ch


def scale(ch: Channel, factor: float, name: str = "") -> Channel:
    """
    Scale the map by `factor` (every Kraus operator by sqrt(factor)).  The
    result must still be trace-nonincreasing; construction raises otherwise.
    """
    if not np.isfinite(factor) or factor <= 0:
        raise ParameterError(f"scale factor must be positive and finite, got {factor!r}")
    root = np.sqrt(float(factor))
    return Channel(tuple(root * op for op in ch.kraus), name=name or ch.name)


# ---------------------------------------------------------------------------
# random channels
# ---------------------------------------------------------------------------


def _as_rng(seed: int | np.random.Generator) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def _ginibre(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def haar_isometry(rng: np.random.Generator, dim_out: int, dim_in: int) -> np.ndarray:
    """Haar random isometry C^dim_in -> C^dim_out: QR of a Ginibre matrix, phases fixed."""
    q, r = npl.qr(_ginibre(rng, dim_out, dim_in))
    phases = np.diagonal(r).copy()
    phases = np.where(np.abs(phases) < 1e-12, 1.0, phases / np.abs(phases))
    return q * phases.conj()


def depolarizing_kraus(dim_in: int, dim_out: int, weight: float) -> list[np.ndarray]:
    # Effect operator of this set is weight * identity for any dims.
    amp = np.sqrt(weight / dim_out)
    ops = []
    for m in range(dim_out):
        for i in range(dim_in):
            op = np.zeros((dim_out, dim_in), dtype=complex)
            op[m, i] = amp
            ops.append(op)
    return ops


def random_channel(
    dim_in: int,
    dim_out: int,
    rank: int = 2,
    kind: str = "cptp",
    seed: int | np.random.Generator = 0,
) -> Channel:
    """
    Seeded random channel.

    kind="cptp": Kraus operators cut from a Haar random isometry
    C^dim_in -> C^dim_out (x) C^rank (QR of a Ginibre matrix with the phase
    convention fixed), so the effect operator is the identity to rounding.

    kind="postselection": Ginibre Kraus operators rescaled to
    lambda_max(E) = 1 - 1e-3, then mixed with a weight-0.01 identity-effect
    component so that lambda_min(E) >= 0.01.  The component is a single
    embedding Kraus operator when dim_out >= dim_in (keeping the rank low) and
    a depolarizing set otherwise.
    """
    if dim_in < 1 or dim_out < 1 or rank < 1:
        raise ParameterError("dimensions and rank must be positive")
    if max(dim_in, dim_out * rank) > DIM_CAP:
        raise CapacityError(f"requested dilation exceeds dimension cap {DIM_CAP}")
    rng = _as_rng(seed)
    if kind == "cptp":
        if dim_out * rank < dim_in:
            raise ParameterError(
                f"no isometry into {dim_out}*{rank} dimensions from {dim_in}"
            )
        blocks = haar_isometry(rng, dim_out * rank, dim_in).reshape(dim_out, rank, dim_in)
        ops = tuple(blocks[:, e, :] for e in range(rank))
        return Channel(ops, name=f"random_cptp(d{dim_in}->d{dim_out},r{rank})")
    if kind == "postselection":
        delta = 0.01
        raw = [_ginibre(rng, dim_out, dim_in) for _ in range(rank)]
        effect = sum(op.conj().T @ op for op in raw)
        top = float(npl.eigvalsh(hermitianize(effect))[-1])
        if top < 1e-12:
            raise ParameterError("degenerate random draw, effect operator is zero")
        c = (1.0 - 1e-3) / top
        ops = [np.sqrt((1.0 - delta) * c) * op for op in raw]
        if dim_out >= dim_in:
            ops.append(np.sqrt(delta) * np.eye(dim_out, dim_in, dtype=complex))
        else:
            ops.extend(depolarizing_kraus(dim_in, dim_out, delta))
        return Channel(tuple(ops), name=f"random_postselection(d{dim_in}->d{dim_out},r{rank})")
    raise ParameterError(f"unknown channel kind {kind!r}")


def random_density(dim: int, seed: int | np.random.Generator = 0) -> DensityMatrix:
    """Ginibre-factor random density matrix rho = T T^H / tr."""
    rng = _as_rng(seed)
    t = _ginibre(rng, dim, dim)
    m = t @ t.conj().T
    return DensityMatrix(m / np.trace(m).real)


def random_pure(dim: int, seed: int | np.random.Generator = 0) -> PureState:
    """Haar random pure state."""
    rng = _as_rng(seed)
    return PureState.normalized(_ginibre(rng, dim, 1).reshape(-1))


# ---------------------------------------------------------------------------
# worked-example gallery
# ---------------------------------------------------------------------------


def _basis_op(dim_out: int, dim_in: int, m: int, i: int, amp: complex) -> np.ndarray:
    op = np.zeros((dim_out, dim_in), dtype=complex)
    op[m, i] = amp
    return op


def nonconvexity_pair(epsilon: float) -> tuple[Channel, Channel]:
    """
    Qubit pair with effect operators diag(1-eps, eps) and diag(eps, 1-eps):
    the first keeps |0> with weight 1-eps and |1> with weight eps, the second
    swaps the roles.  Defined for 0 < eps < 1/2.
    """
    if not (0.0 < epsilon < 0.5):
        raise ParameterError(f"nonconvexity_pair needs 0 < epsilon < 1/2, got {epsilon!r}")
    keep0 = _basis_op(2, 2, 0, 0, 1.0)
    keep1 = _basis_op(2, 2, 1, 1, 1.0)
    a = np.sqrt(1.0 - epsilon)
    b = np.sqrt(epsilon)
    psi = Channel((a * keep0, b * keep1), name=f"nonconvexity_psi(epsilon={epsilon!r})")
    phi = Channel((b * keep0, a * keep1), name=f"nonconvexity_phi(epsilon={epsilon!r})")
    return psi, phi


def _constant_channel(weights: list[tuple[int, float]], dim: int, name: str) -> Channel:
    # Constant map rho -> sigma * tr(rho) with sigma diagonal in the basis.
    ops = []
    for level, weight in weights:
        amp = np.sqrt(weight)
        for i in range(dim):
            ops.append(_basis_op(dim, dim, level, i, amp))
    return Channel(tuple(ops), name=name)


def contractivity_triple(epsilon: float) -> tuple[Channel, Channel, Channel]:
    """
    The C^3 triple whose renormalized diamond distance grows under
    postprocessing: constant channels onto (|0><0| + |1><1|)/2 and
    (|0><0| + |2><2|)/2, and the filter tau(rho) = (1-eps) P rho P + eps rho
    with P projecting onto span{|1>, |2>}.  Defined for 0 < eps < 1.
    """
    if not (0.0 < epsilon < 1.0):
        raise ParameterError(f"contractivity_triple needs 0 < epsilon < 1, got {epsilon!r}")
    psi = _constant_channel(
        [(0, 0.5), (1, 0.5)], 3, name=f"contractivity_psi(epsilon={epsilon!r})"
    )
    phi = _constant_channel(
        [(0, 0.5), (2, 0.5)], 3, name=f"contractivity_phi(epsilon={epsilon!r})"
    )
    proj = np.diag([0.0, 1.0, 1.0]).astype(complex)
    tau = Channel(
        (np.sqrt(1.0 - epsilon) * proj, np.sqrt(epsilon) * np.eye(3, dtype=complex)),
        name=f"contractivity_tau(epsilon={epsilon!r})",
    )
    return psi, phi, tau


def conversion_pair() -> tuple[Channel, Channel]:
    """
    Qubit pair with identical renormalized behavior (both collapse onto |0>)
    but unequal subnormalized behavior: the reference map sends every state to
    |0><0|, the other keeps only half the weight plus the |0> component.
    """
    to_zero = [_basis_op(2, 2, 0, 0, 1.0), _basis_op(2, 2, 0, 1, 1.0)]
    phi = Channel(tuple(to_zero), name="conversion_phi")
    half = np.sqrt(0.5)
    psi_ops = [half * op for op in to_zero] + [half * _basis_op(2, 2, 0, 0, 1.0)]
    psi = Channel(tuple(psi_ops), name="conversion_psi")
    return psi, phi


def alpha_necessity_pair() -> tuple[Channel, Channel]:
    """Alias of conversion_pair: the pair witnessing that no finite conversion
    factor exists when the reference outputs never separate."""
    psi, phi = conversion_pair()
    return (
        Channel(psi.kraus, name="alpha_necessity_psi"),
        Channel(phi.kraus, name="alpha_necessity_phi"),
    )


def teleportation(dim: int) -> Channel:
    """
    Post-selected teleportation without correction: the identity relabeling
    damped by 1/dim, so every input succeeds with probability dim**-2.
    """
    if dim < 2:
        raise ParameterError(f"teleportation needs dim >= 2, got {dim}")
    if dim > DIM_CAP:
        raise CapacityError(f"teleportation dim {dim} exceeds dimension cap {DIM_CAP}")
    return Channel((np.eye(dim, dtype=complex) / dim,), name=f"teleportation(dim={dim})")


def isometry(u: np.ndarray, name: str = "") -> Channel:
    """Single-Kraus channel rho -> U rho U^H for an isometry U."""
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] < u.shape[1]:
        raise ParameterError(f"isometry needs a tall or square matrix, got shape {u.shape}")
    gram = u.conj().T @ u
    if operator_norm(gram - np.eye(u.shape[1])) > 1e-10:
        raise ParameterError("matrix is not an isometry within 1e-10")
    return Channel((u,), name=name or "isometry")


GALLERY_NAMES = (
    "nonconvexity_pair",
    "contractivity_triple",
    "conversion_pair",
    "alpha_necessity_pair",
    "teleportation",
    "isometry",
)


def gallery(name: str, **params) -> tuple[Channel, ...]:
    """Named example channels; returns a tuple even for single channels."""
    if name == "nonconvexity_pair":
        return nonconvexity_pair(_require_param(params, "epsilon"))
    if name == "contractivity_triple":
        return contractivity_triple(_require_param(params, "epsilon"))
    if name == "conversion_pair":
        _forbid_params(params)
        return conversion_pair()
    if name == "alpha_necessity_pair":
        _forbid_params(params)
        return alpha_necessity_pair()
    if name == "teleportation":
        return (teleportation(int(_require_param(params, "dim"))),)
    if name == "isometry":
        return (isometry(_require_param(params, "matrix")),)
    raise ParameterError(f"unknown gallery name {name!r}; choose from {GALLERY_NAMES}")


def _require_param(params: dict, key: str):
    if key not in params:
        raise ParameterError(f"missing required parameter {key!r}")
    extra = set(params) - {key}
    if extra:
        raise ParameterError(f"unexpected parameters {sorted(extra)}")
    return params[key]


def _forbid_params(params: dict) -> None:
    if params:
        raise ParameterError(f"unexpected parameters {sorted(params)}")


# ---------------------------------------------------------------------------
# serialization (channel files)
# ---------------------------------------------------------------------------


def matrix_to_pairs(m: np.ndarray) -> list[list[list[float]]]:
    """Row-major nested lists with every entry as an [re, im] pair."""
    m = np.asarray(m, dtype=complex)
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def pairs_to_matrix(rows, context: str = "matrix") -> np.ndarray:
    try:
        arr = np.asarray(rows, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InvalidInputError(f"{context}: entries must be [re, im] number pairs") from exc
    if arr.ndim != 3 or arr.shape[2] != 2 or arr.shape[0] == 0 or arr.shape[1] == 0:
        raise InvalidInputError(f"{context}: expected rows of [re, im] pairs, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InvalidInputError(f"{context}: non-finite entries")
    return arr[..., 0] + 1j * arr[..., 1]


def channel_to_json(ch: Channel) -> dict:
    return {
        "name": ch.name,
        "dim_in": ch.dim_in,
        "dim_out": ch.dim_out,
        "kraus": [matrix_to_pairs(op) for op in ch.kraus],
    }


def channel_from_json(obj) -> Channel:
    if not isinstance(obj, dict):
        raise InvalidInputError("channel file must contain a JSON object")
    missing = {"name", "dim_in", "dim_out", "kraus"} - set(obj)
    if missing:
        raise InvalidInputError(f"channel object is missing keys {sorted(missing)}")
    name = obj["name"]
    if not isinstance(name, str):
        raise InvalidInputError("channel name must be a string")
    dim_in, dim_out = obj["dim_in"], obj["dim_out"]
    if not isinstance(dim_in, int) or not isinstance(dim_out, int):
        raise InvalidInputError("dim_in and dim_out must be integers")
    kraus_rows = obj["kraus"]
    if not isinstance(kraus_rows, list) or not kraus_rows:
        raise InvalidInputError("kraus must be a nonempty list of matrices")
    ops = tuple(
        pairs_to_matrix(rows, context=f"kraus[{idx}]") for idx, rows in enumerate(kraus_rows)
    )
    ch = Channel(ops, name=name)
    if ch.dim_in != dim_in or ch.dim_out != dim_out:
        raise InvalidInputError(
            f"declared dims ({dim_in}, {dim_out}) do not match Kraus shapes "
            f"({ch.dim_in}, {ch.dim_out})"
        )
    return ch


def write_channel(ch: Channel, path: str | Path) -> None:
    """Write a channel file; floats print in shortest round-trip form."""
    Path(path).write_text(json.dumps(channel_to_json(ch), indent=2) + "\n")


def read_channel(path: str | Path) -> Channel:
    try:
        obj = json.loads(Path(path).read_text())
    except OSError as exc:
        raise InvalidInputError(f"cannot read channel file {path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise InvalidInputError(f"cannot parse channel file {path}: {exc}") from exc
    return channel_from_json(obj)
