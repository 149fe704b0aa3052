# src/postdist/channels.py

"""
Completely positive trace-nonincreasing maps in Kraus form, plus the state
types the distance measures operate on.

Conventions fixed here and relied on everywhere else:
  * matrices are row-major, composite indices are (i_A, i_B) as in np.kron;
  * the Choi matrix is J = sum_ij |i><j| (x) Psi(|i><j|), input factor first,
    unnormalized (trace equals tr of the effect operator);
  * a Stinespring dilation has rows indexed (output, environment).
"""

from __future__ import annotations

import inspect
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import numpy.linalg as npl

from .linalg import (
    DIM_CAP,
    CapacityError,
    InvalidInputError,
    as_array,
    check_integer,
    hermitian_eig,
    hermitianize,
    is_hermitian,
    is_real,
    operator_norm,
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


# ---------------------------------------------------------------------------
# state and map types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PureState:
    """Unit vector in C^dim (norm enforced within 1e-12), held as a read-only copy."""

    vector: np.ndarray

    def __post_init__(self):
        v = as_array(self.vector, "pure state vector", ndim=1).copy()
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
        v = as_array(vector, "pure state vector", ndim=1)
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
        m = as_array(self.matrix, "density matrix")
        if m.shape[0] != m.shape[1]:
            raise InvalidInputError(f"density matrix must be square, got shape {m.shape}")
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
        check_integer("dimension", dim, 1)
        return cls(np.eye(dim, dtype=complex) / dim)


@dataclass(frozen=True, eq=False)
class Channel:
    """
    CP trace-nonincreasing map given by its Kraus operators, held as one
    read-only (rank, dim_out, dim_in) complex array.

    Construction validates shape consistency, finiteness and the
    trace-nonincreasing property lambda_max(E) <= 1 + 1e-9 for the effect
    operator E = sum K^H K.  Instances are immutable; equality and hashing
    are by identity.
    """

    kraus: np.ndarray
    name: str = ""

    def __post_init__(self):
        if len(self.kraus) == 0:
            raise ValidityError("empty channel: at least one Kraus operator is required")
        kraus = as_array(self.kraus, "Kraus operators", ndim=3)
        # A C-ordered copy, never the caller's array: einsum's summation order follows the strides.
        if kraus is self.kraus or kraus.base is not None or not kraus.flags.c_contiguous:
            kraus = np.array(kraus, order="C")
        if max(kraus.shape[1:]) > DIM_CAP:
            raise CapacityError(f"Kraus shape {kraus.shape[1:]} exceeds dimension cap {DIM_CAP}")
        kraus.setflags(write=False)
        object.__setattr__(self, "kraus", kraus)
        effect = np.einsum("emi,emj->ij", kraus.conj(), kraus)
        if not np.all(np.isfinite(effect)):
            raise ValidityError(
                "not trace-nonincreasing: the effect operator E = sum K^H K is not finite"
            )
        effect = hermitianize(effect)
        effect.setflags(write=False)
        eigs = npl.eigvalsh(effect)
        eigs.setflags(write=False)
        object.__setattr__(self, "_effect", effect)
        object.__setattr__(self, "_effect_eigs", eigs)
        if eigs[-1] > 1.0 + TRACE_ATOL:
            raise ValidityError(
                f"not trace-nonincreasing: lambda_max(E) = {float(eigs[-1])!r} exceeds 1 + 1e-9"
            )

    @property
    def rank(self) -> int:
        return self.kraus.shape[0]

    @property
    def dim_out(self) -> int:
        return self.kraus.shape[1]

    @property
    def dim_in(self) -> int:
        return self.kraus.shape[2]

    @property
    def effect(self) -> np.ndarray:
        """Effect operator E = sum K^H K."""
        return self._effect

    @property
    def effect_eigenvalues(self) -> np.ndarray:
        """Eigenvalues of the effect operator, ascending."""
        return self._effect_eigs

    def is_trace_preserving(self) -> bool:
        return float(np.max(np.abs(self._effect_eigs - 1.0))) <= TRACE_ATOL

    def is_postselection_valid(self) -> bool:
        return float(self._effect_eigs[0]) > POSTSELECTION_EIG_FLOOR


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


def apply(ch: Channel, rho: DensityMatrix | np.ndarray, anc: int = 1) -> np.ndarray:
    """
    Apply the channel extended by an untouched ancilla of dimension `anc`:
    sum_e (K_e (x) I_anc) rho (K_e (x) I_anc)^H (no renormalization).
    """
    m = rho.matrix if isinstance(rho, DensityMatrix) else as_array(rho, "rho")
    check_integer("ancilla dimension", anc, 1)
    if m.shape != (ch.dim_in * anc,) * 2:
        raise InvalidInputError(
            f"input shape {m.shape} does not match input dimension {ch.dim_in} "
            f"with an ancilla of dimension {anc}"
        )
    kraus = np.kron(ch.kraus, np.eye(anc, dtype=complex)) if anc > 1 else ch.kraus
    return np.einsum("eij,ekj->ik", kraus @ m, kraus.conj())


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


def kraus_to_choi(ch: Channel) -> np.ndarray:
    """Unnormalized Choi matrix J = sum_ij |i><j| (x) Psi(|i><j|)."""
    # J = sum_e v_e v_e^H with v_e[(i, m)] = K_e[m, i].
    vecs = ch.kraus.transpose(0, 2, 1).reshape(ch.rank, -1)
    return np.einsum("ep,eq->pq", vecs, vecs.conj())


def choi_to_kraus(choi: np.ndarray, dim_in: int, dim_out: int, name: str = "") -> Channel:
    """
    Extract Kraus operators from a Choi matrix (input factor first), which
    must be Hermitian within 1e-10 and PSD within 1e-9.  Eigenvalues at or
    below the truncation threshold (1e-12) are dropped; an all-zero Choi
    matrix has no channel realization and raises.
    """
    check_integer("dim_in", dim_in, 1)
    check_integer("dim_out", dim_out, 1)
    m = as_array(choi, "Choi matrix")
    n = dim_in * dim_out
    if m.shape != (n, n):
        raise InvalidInputError(f"Choi matrix must have shape {(n, n)}, got {m.shape}")
    w, V = hermitian_eig(m)
    if w[0] < -TRACE_ATOL:
        raise ValidityError(f"not completely positive: Choi eigenvalue {w[0]:.3e}")
    keep = w > KRAUS_TRUNCATION_ATOL
    if not keep.any():
        raise ValidityError("empty channel: Choi matrix has no eigenvalue above 1e-12")
    # K_e[m, i] = sqrt(lambda_e) v_e[(i, m)] for each kept eigenpair.
    ops = (np.sqrt(w[keep]) * V[:, keep]).T.reshape(-1, dim_in, dim_out).transpose(0, 2, 1)
    return Channel(ops, name=name)


def stinespring(ch: Channel) -> np.ndarray:
    """
    Dilation A : C^dim_in -> C^dim_out (x) C^rank, the environment dimension
    equal to the Kraus rank, with A[(m, e), i] = K_e[m, i]: tracing out the
    environment factor of A rho A^H reproduces the channel.
    """
    return ch.kraus.transpose(1, 0, 2).reshape(ch.dim_out * ch.rank, ch.dim_in)


def tensor_with_identity(ch: Channel, anc_dim: int) -> Channel:
    """Extend by an untouched ancilla: Kraus operators K_e (x) I_anc."""
    check_integer("ancilla dimension", anc_dim, 1)
    if ch.dim_out * anc_dim > DIM_CAP or ch.dim_in * anc_dim > DIM_CAP:
        raise CapacityError(
            f"extension to {ch.dim_in * anc_dim} inputs exceeds dimension cap {DIM_CAP}"
        )
    if anc_dim == 1:
        return ch
    ops = np.kron(ch.kraus, np.eye(anc_dim, dtype=complex))
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
            ch = choi_to_kraus(kraus_to_choi(ch), ch.dim_in, ch.dim_out, name=ch.name)
        except ValidityError:
            pass  # an (almost) zero composition has no smaller realization
    return ch


def scale(ch: Channel, factor: float, name: str = "") -> Channel:
    """
    Scale the map by `factor` (every Kraus operator by sqrt(factor)).  The
    result must still be trace-nonincreasing; construction raises otherwise.
    """
    if not (is_real(factor) and factor > 0):
        raise InvalidInputError(f"scale factor must be positive and finite, got {factor!r}")
    root = np.sqrt(float(factor))
    return Channel(root * ch.kraus, name=name or ch.name)


# ---------------------------------------------------------------------------
# random channels
# ---------------------------------------------------------------------------


def _as_rng(seed: int | np.random.Generator) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    check_integer("seed", seed, 0)
    return np.random.default_rng(seed)


def _ginibre(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def haar_isometry(seed: int | np.random.Generator, dim_out: int, dim_in: int) -> np.ndarray:
    """Haar random isometry C^dim_in -> C^dim_out: QR of a Ginibre matrix, phases fixed."""
    check_integer("dim_in", dim_in, 1)
    check_integer("dim_out", dim_out, low=dim_in)
    q, r = npl.qr(_ginibre(_as_rng(seed), dim_out, dim_in))
    phases = np.diagonal(r).copy()
    phases = np.where(np.abs(phases) < 1e-12, 1.0, phases / np.abs(phases))
    return q * phases.conj()


def _matrix_units(weights) -> np.ndarray:
    # Kraus set sqrt(w[m, i]) |m><i| over the nonzero weights, in (m, i) order;
    # its effect operator is diag(sum_m w[m, i]).
    w = np.asarray(weights, dtype=float)
    m, i = np.nonzero(w)
    ops = np.zeros((m.size, *w.shape), dtype=complex)
    ops[np.arange(m.size), m, i] = np.sqrt(w[m, i])
    return ops


def depolarizing_kraus(dim_in: int, dim_out: int, weight: float) -> np.ndarray:
    # Effect operator of this set is weight * identity for any dims.
    return _matrix_units(np.full((dim_out, dim_in), weight / dim_out))


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
    check_integer("dim_in", dim_in, 1)
    check_integer("dim_out", dim_out, 1)
    check_integer("rank", rank, 1)
    if max(dim_in, dim_out * rank) > DIM_CAP:
        raise CapacityError(f"requested dilation exceeds dimension cap {DIM_CAP}")
    rng = _as_rng(seed)
    if kind == "cptp":
        if dim_out * rank < dim_in:
            raise InvalidInputError(
                f"no isometry into {dim_out}*{rank} dimensions from {dim_in}"
            )
        blocks = haar_isometry(rng, dim_out * rank, dim_in).reshape(dim_out, rank, dim_in)
        return Channel(blocks.transpose(1, 0, 2), name=f"random_cptp(d{dim_in}->d{dim_out},r{rank})")
    if kind == "postselection":
        delta = 0.01
        raw = [_ginibre(rng, dim_out, dim_in) for _ in range(rank)]
        effect = sum(op.conj().T @ op for op in raw)
        top = float(npl.eigvalsh(hermitianize(effect))[-1])
        if top < 1e-12:
            raise InvalidInputError("degenerate random draw, effect operator is zero")
        c = (1.0 - 1e-3) / top
        ops = [np.sqrt((1.0 - delta) * c) * op for op in raw]
        if dim_out >= dim_in:
            ops.append(np.sqrt(delta) * np.eye(dim_out, dim_in, dtype=complex))
        else:
            ops.extend(depolarizing_kraus(dim_in, dim_out, delta))
        return Channel(tuple(ops), name=f"random_postselection(d{dim_in}->d{dim_out},r{rank})")
    raise InvalidInputError(f"unknown channel kind {kind!r}")


def random_density(dim: int, seed: int | np.random.Generator = 0) -> DensityMatrix:
    """Ginibre-factor random density matrix rho = T T^H / tr."""
    check_integer("dimension", dim, 1)
    rng = _as_rng(seed)
    t = _ginibre(rng, dim, dim)
    m = t @ t.conj().T
    return DensityMatrix(m / np.trace(m).real)


def random_pure(dim: int, seed: int | np.random.Generator = 0) -> PureState:
    """Haar random pure state."""
    check_integer("dimension", dim, 1)
    rng = _as_rng(seed)
    return PureState.normalized(_ginibre(rng, dim, 1).reshape(-1))


# ---------------------------------------------------------------------------
# worked-example gallery
# ---------------------------------------------------------------------------


def nonconvexity_pair(epsilon: float) -> tuple[Channel, Channel]:
    """
    Qubit pair with effect operators diag(1-eps, eps) and diag(eps, 1-eps):
    the first keeps |0> with weight 1-eps and |1> with weight eps, the second
    swaps the roles.  Defined for 0 < eps < 1/2.
    """
    if not (is_real(epsilon) and 0.0 < epsilon < 0.5):
        raise InvalidInputError(f"nonconvexity_pair needs 0 < epsilon < 1/2, got {epsilon!r}")
    psi = Channel(
        _matrix_units(np.diag([1.0 - epsilon, epsilon])),
        name=f"nonconvexity_psi(epsilon={epsilon!r})",
    )
    phi = Channel(
        _matrix_units(np.diag([epsilon, 1.0 - epsilon])),
        name=f"nonconvexity_phi(epsilon={epsilon!r})",
    )
    return psi, phi


def contractivity_triple(epsilon: float) -> tuple[Channel, Channel, Channel]:
    """
    The C^3 triple whose renormalized diamond distance grows under
    postprocessing: constant channels onto (|0><0| + |1><1|)/2 and
    (|0><0| + |2><2|)/2, and the filter tau(rho) = (1-eps) P rho P + eps rho
    with P projecting onto span{|1>, |2>}.  Defined for 0 < eps < 1.
    """
    if not (is_real(epsilon) and 0.0 < epsilon < 1.0):
        raise InvalidInputError(f"contractivity_triple needs 0 < epsilon < 1, got {epsilon!r}")
    # Constant maps rho -> sigma tr(rho): weight sigma[m, m] on every |m><i|.
    psi = Channel(
        _matrix_units(np.outer([0.5, 0.5, 0.0], np.ones(3))),
        name=f"contractivity_psi(epsilon={epsilon!r})",
    )
    phi = Channel(
        _matrix_units(np.outer([0.5, 0.0, 0.5], np.ones(3))),
        name=f"contractivity_phi(epsilon={epsilon!r})",
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
    phi = Channel(_matrix_units([[1.0, 1.0], [0.0, 0.0]]), name="conversion_phi")
    psi_ops = (_matrix_units([[0.5, 0.5], [0.0, 0.0]]), _matrix_units([[0.5, 0.0], [0.0, 0.0]]))
    psi = Channel(np.concatenate(psi_ops), name="conversion_psi")
    return psi, phi


def teleportation(dim: int) -> Channel:
    """
    Post-selected teleportation without correction: the identity relabeling
    damped by 1/dim, so every input succeeds with probability dim**-2.
    """
    check_integer("teleportation dim", dim, 2)
    if dim > DIM_CAP:
        raise CapacityError(f"teleportation dim {dim} exceeds dimension cap {DIM_CAP}")
    return Channel((np.eye(dim, dtype=complex) / dim,), name=f"teleportation(dim={dim})")


def isometry(u: np.ndarray, name: str = "") -> Channel:
    """Single-Kraus channel rho -> U rho U^H for an isometry U."""
    u = as_array(u, "isometry matrix")
    if u.shape[0] < u.shape[1]:
        raise InvalidInputError(f"isometry needs a tall or square matrix, got shape {u.shape}")
    gram = u.conj().T @ u
    if operator_norm(gram - np.eye(u.shape[1])) > 1e-10:
        raise InvalidInputError("matrix is not an isometry within 1e-10")
    return Channel((u,), name=name or "isometry")


# Gallery name -> builder returning a tuple of channels; its signature names the parameters.
_GALLERY = {
    "nonconvexity_pair": nonconvexity_pair,
    "contractivity_triple": contractivity_triple,
    "conversion_pair": conversion_pair,
    "teleportation": lambda dim: (teleportation(dim),),
    "isometry": lambda matrix: (isometry(matrix),),
}
GALLERY_NAMES = tuple(_GALLERY)


def gallery(name: str, **params) -> tuple[Channel, ...]:
    """Named example channels; returns a tuple even for single channels."""
    if name not in _GALLERY:
        raise InvalidInputError(f"unknown gallery name {name!r}; choose from {GALLERY_NAMES}")
    build = _GALLERY[name]
    try:
        inspect.signature(build).bind(**params)
    except TypeError as exc:
        raise InvalidInputError(f"gallery {name!r}: {exc}") from exc
    return build(**params)


# ---------------------------------------------------------------------------
# serialization (channel files)
# ---------------------------------------------------------------------------


def matrix_to_pairs(m: np.ndarray) -> list:
    """Row-major nested lists (any number of axes) with every entry as an [re, im] pair."""
    m = np.asarray(m, dtype=complex)
    return np.stack([m.real, m.imag], axis=-1).tolist()


def pairs_to_matrix(rows, context: str = "matrix") -> np.ndarray:
    not_pairs = InvalidInputError(f"{context}: entries must be finite [re, im] number pairs")
    try:
        arr = np.asarray(rows, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise not_pairs from exc
    if arr.ndim != 3 or arr.shape[2] != 2 or arr.shape[0] == 0 or arr.shape[1] == 0:
        raise InvalidInputError(f"{context}: expected rows of [re, im] pairs, got shape {arr.shape}")
    # The float conversion takes strings, booleans, None (as nan), nan and inf; is_real does not.
    if not all(is_real(x) for r in rows for z in r for x in z):
        raise not_pairs
    return arr[..., 0] + 1j * arr[..., 1]


def channel_to_json(ch: Channel) -> dict:
    return {
        "name": ch.name,
        "dim_in": ch.dim_in,
        "dim_out": ch.dim_out,
        "kraus": matrix_to_pairs(ch.kraus),
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
    check_integer("dim_in", dim_in)
    check_integer("dim_out", dim_out)
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
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise InvalidInputError(f"cannot parse channel file {path}: {exc}") from exc
    return channel_from_json(obj)
