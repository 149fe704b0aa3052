# src/postdist/distances.py

"""
Distance measures between channels, standard and postselected.

Each measure is one `MeasureSpec` entry in `MEASURE_SPECS`; `distance`,
`evaluate_witness` and `dense_oracle` all run from that table.

Every supremum-type measure is estimated by a seeded multi-start local
optimizer (gradient ascent on closed-form gradients, see `maximize`) and
therefore is a lower bound on the true value; callers that need
sound inequality checks must keep such estimates on the small side of a
comparison or transfer witnesses (see theorems module).  The renormalized
("hat") measures optimize the nonlinear objective

    f(rho) = || Psi(rho)/tr[Psi(rho)] - Phi(rho)/tr[Phi(rho)] ||_1

over all density matrices, not just pure ones: f is not convex, so a pure-state
restriction would be unsound.  The stabilized measures optimize over pure
states on H (x) H, which is exhaustive for both the diamond distance and its
renormalized counterpart.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
import numpy.linalg as npl

from .channels import (
    Channel,
    DensityMatrix,
    PureState,
    apply,
    require_postselection,
    tensor_with_identity,
)
from .linalg import CapacityError, InvalidInputError, trace_norm

# Input-dimension policy: unstabilized objectives stay cheap up to dim 8;
# stabilized ones square the space, so they stop at dim-4 inputs.
UNSTABILIZED_DIM_CAP = 8
STABILIZED_DIM_CAP = 4

# The sampling oracle is only trusted as a cross-check at tiny dimensions.
ORACLE_DIM_CAP = 3

SEED_MASK = (1 << 63) - 1


@dataclass(frozen=True)
class OptimizerConfig:
    """Multi-start settings; defaults favor accuracy over speed."""

    restarts: int = 64
    max_iterations: int = 2000
    step_tolerance: float = 1e-9
    value_tolerance: float = 1e-8
    master_seed: int = 0


@dataclass(frozen=True)
class DistanceEstimate:
    """
    Optimizer output.  `value` is exactly the measure's objective evaluated at
    `witness` (so it is reproducible), and a lower bound on the supremum.
    `converged` records whether the two best restarts agreed within the value
    tolerance.  `iterations` and `evaluations` are the ascent's deterministic
    work counters (see `AscentResult`).
    """

    measure: str
    value: float
    witness: object
    restarts_used: int
    converged: bool
    iterations: int
    evaluations: int


# ---------------------------------------------------------------------------
# kit for writing batched objectives
# ---------------------------------------------------------------------------


def unit_rows(x: np.ndarray, dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """
    Decode real parameter rows [Re z | Im z] (length 2*dim) into unit vectors
    u = z/|z|.  Returns (u, |z|, bad), where `bad` marks rows with |z| below
    1e-12 (their |z| is reported as 1).
    """
    z = x[:, :dim] + 1j * x[:, dim:]
    norms = npl.norm(z, axis=1)
    bad = norms < 1e-12
    safe = np.where(bad, 1.0, norms)
    return z / safe[:, None], safe, bad


def unit_rows_gradient(
    grad: np.ndarray, u: np.ndarray, norms: np.ndarray, bad: np.ndarray
) -> np.ndarray:
    """
    Chain rule through u = z/|z|: for a complex gradient G of f(u) (so that
    df = Re <G, du>) returns the real gradient with respect to [Re z | Im z],
    g = (G - Re<u, G> u) / |z| stacked as [Re g | Im g].  Rows marked `bad`
    get a zero gradient, so the ascent stops there.
    """
    radial = (u.conj() * grad).sum(axis=1).real
    g = (grad - radial[:, None] * u) / norms[:, None]
    g[bad] = 0.0
    return np.concatenate([g.real, g.imag], axis=1)


def herm_sign(x: np.ndarray) -> np.ndarray:
    """
    sign(X) = V sign(Lambda) V^H for a batch of Hermitian matrices: the
    gradient of the trace norm at X (one subgradient when X is singular).
    """
    w, v = npl.eigh(x)
    return (v * np.sign(w)[:, None, :]) @ v.conj().transpose(0, 2, 1)


def herm_trace_norms(x: np.ndarray) -> np.ndarray:
    """Trace norms of a batch of Hermitian matrices: the sums of |eigenvalues|."""
    w = npl.eigvalsh(x)
    return np.abs(w).sum(axis=-1)


def pure_outputs(stack: np.ndarray, inputs: np.ndarray, joint: bool = False) -> np.ndarray:
    """
    sum_e (K_e u)(K_e u)^H for a Kraus stack (rank, dim_out, dim_in) and a batch
    of inputs u as (batch, dim_in, anc) matrices: on dim_out (x) anc when
    `joint`, else with the ancilla traced out (so a factor T gives Psi(T T^H)).
    """
    images = np.einsum("eij,mja->meia", stack, inputs)
    if joint:
        flat = images.reshape(images.shape[0], images.shape[1], -1)
        return np.einsum("mep,meq->mpq", flat, flat.conj())
    return np.einsum("meik,melk->mil", images, images.conj())


def _gram_trace_norms(x: np.ndarray) -> np.ndarray:
    g = np.einsum("mji,mjk->mik", x.conj(), x)
    w = npl.eigvalsh(g)
    return np.sqrt(np.clip(w, 0.0, None)).sum(axis=-1)


def _kraus_stacks(chan_a: Channel, chan_b: Channel) -> tuple[np.ndarray, np.ndarray]:
    if (chan_a.dim_in, chan_a.dim_out) != (chan_b.dim_in, chan_b.dim_out):
        raise InvalidInputError(
            f"channel dimensions differ: ({chan_a.dim_in}->{chan_a.dim_out}) vs "
            f"({chan_b.dim_in}->{chan_b.dim_out})"
        )
    return chan_a.kraus_stack, chan_b.kraus_stack


# ---------------------------------------------------------------------------
# batched objectives and their closed-form gradients
# ---------------------------------------------------------------------------
#
# Each factory takes the channel pair and returns a function of a batch of
# real parameter rows.  Four measures share one pure-input kernel, with the
# input u held as a (dim_in, anc) matrix: anc = 1 for dtrD, the ancilla for
# the stabilized measures (`joint` outputs on dim_out (x) anc), and the
# Ginibre factor's second index for hat-tr (traced out of the outputs).
# `renormalize` divides each output by its trace.  The trace norm is
# differentiated through its sign factor (Hermitian differences) or its polar
# factor (dtr).


def _objective_pure(
    chan_a: Channel, chan_b: Channel, anc: int, joint: bool, renormalize: bool
):
    ka, kb = _kraus_stacks(chan_a, chan_b)
    d = chan_a.dim_in

    def fn(x: np.ndarray) -> np.ndarray:
        u, _, bad = unit_rows(x, d * anc)
        u3 = u.reshape(-1, d, anc)
        out_a, out_b = pure_outputs(ka, u3, joint), pure_outputs(kb, u3, joint)
        if renormalize:
            tr_a = np.einsum("mii->m", out_a).real
            tr_b = np.einsum("mii->m", out_b).real
            bad = bad | (tr_a < 1e-30) | (tr_b < 1e-30)
            tr_a = np.where(tr_a < 1e-30, 1.0, tr_a)
            tr_b = np.where(tr_b < 1e-30, 1.0, tr_b)
            out_a, out_b = out_a / tr_a[:, None, None], out_b / tr_b[:, None, None]
        vals = herm_trace_norms(out_a - out_b)
        vals[bad] = -np.inf
        return vals

    return fn


def _outputs(images: np.ndarray, joint: bool) -> np.ndarray:
    # pure_outputs in matmul form, from the images y = K_e u (m, e, dim_out, anc).
    # The value kernels keep the einsum form: switching would move their last bits.
    m, e, o, a = images.shape
    if joint:
        flat = images.reshape(m, e, o * a)
        return flat.transpose(0, 2, 1) @ flat.conj()
    flat = images.transpose(0, 2, 1, 3).reshape(m, o, e * a)
    return flat @ flat.conj().transpose(0, 2, 1)


def _pullback(stack: np.ndarray, images: np.ndarray, sign: np.ndarray, joint: bool):
    # (sum_e K_e^H S K_e u, tr(S sum_e y_e y_e^H)) from the images y = K_e u.
    m, e, o, a = images.shape
    if joint:
        s_images = (sign[:, None] @ images.reshape(m, e, o * a, 1)).reshape(m, e, o, a)
    else:
        s_images = sign[:, None] @ images
    pulled = (stack.conj().transpose(0, 2, 1) @ s_images).sum(axis=1)
    return pulled, (images.conj() * s_images).real.sum(axis=(1, 2, 3))


def _gradient_pure(
    chan_a: Channel, chan_b: Channel, anc: int, joint: bool, renormalize: bool
):
    ka, kb = _kraus_stacks(chan_a, chan_b)
    ea, eb = chan_a.effect, chan_b.effect
    d = chan_a.dim_in

    def grad(x: np.ndarray) -> np.ndarray:
        u, norms, bad = unit_rows(x, d * anc)
        u3 = u.reshape(-1, d, anc)
        ya, yb = ka @ u3[:, None], kb @ u3[:, None]
        out_a, out_b = _outputs(ya, joint), _outputs(yb, joint)
        if renormalize:
            tr_a = np.trace(out_a, axis1=1, axis2=2).real
            tr_b = np.trace(out_b, axis1=1, axis2=2).real
            bad = bad | (tr_a < 1e-30) | (tr_b < 1e-30)
            tr_a = np.where(tr_a < 1e-30, 1.0, tr_a)[:, None, None]
            tr_b = np.where(tr_b < 1e-30, 1.0, tr_b)[:, None, None]
            out_a, out_b = out_a / tr_a, out_b / tr_b
        sign = herm_sign(out_a - out_b)
        pa, sa = _pullback(ka, ya, sign, joint)
        pb, sb = _pullback(kb, yb, sign, joint)
        if renormalize:
            # Quotient rule for || P/p - Q/q ||_1 with p = <u, E_a u>, q = <u, E_b u>.
            pa = (pa - (sa[:, None, None] / tr_a) * (ea @ u3)) / tr_a
            pb = (pb - (sb[:, None, None] / tr_b) * (eb @ u3)) / tr_b
        g = 2.0 * (pa - pb)
        return unit_rows_gradient(g.reshape(-1, d * anc), u, norms, bad)

    return grad


def _objective_dtr(chan_a: Channel, chan_b: Channel):
    ka, kb = _kraus_stacks(chan_a, chan_b)
    d = chan_a.dim_in

    def fn(x: np.ndarray) -> np.ndarray:
        u, _, bad_u = unit_rows(x[:, : 2 * d], d)
        v, _, bad_v = unit_rows(x[:, 2 * d :], d)
        wau = np.einsum("eij,mj->mei", ka, u)
        wav = np.einsum("eij,mj->mei", ka, v)
        wbu = np.einsum("eij,mj->mei", kb, u)
        wbv = np.einsum("eij,mj->mei", kb, v)
        diff = np.einsum("mei,mek->mik", wau, wav.conj()) - np.einsum(
            "mei,mek->mik", wbu, wbv.conj()
        )
        vals = _gram_trace_norms(diff)
        vals[bad_u | bad_v] = -np.inf
        return vals

    return fn


def _gradient_dtr(chan_a: Channel, chan_b: Channel):
    # || Delta ||_1 for Delta = sum_e A_e u v^H A_e^H - B_e u v^H B_e^H: with the
    # polar factor W = U V^H of Delta and N = sum_e A_e^H W A_e - B_e^H W B_e,
    # the complex gradients are N v (in u) and N^H u (in v).
    ka, kb = _kraus_stacks(chan_a, chan_b)
    d = chan_a.dim_in

    def grad(x: np.ndarray) -> np.ndarray:
        u, norms_u, bad_u = unit_rows(x[:, : 2 * d], d)
        v, norms_v, bad_v = unit_rows(x[:, 2 * d :], d)
        au, av = ka @ u[:, None, :, None], ka @ v[:, None, :, None]
        bu, bv = kb @ u[:, None, :, None], kb @ v[:, None, :, None]
        diff = (au @ av.conj().transpose(0, 1, 3, 2)).sum(axis=1) - (
            bu @ bv.conj().transpose(0, 1, 3, 2)
        ).sum(axis=1)
        left, _, right = npl.svd(diff)
        polar = (left @ right)[:, None]
        polar_h = polar.conj().transpose(0, 1, 3, 2)
        ka_h, kb_h = ka.conj().transpose(0, 2, 1), kb.conj().transpose(0, 2, 1)
        gu = (ka_h @ polar @ av).sum(axis=1) - (kb_h @ polar @ bv).sum(axis=1)
        gv = (ka_h @ polar_h @ au).sum(axis=1) - (kb_h @ polar_h @ bu).sum(axis=1)
        bad = bad_u | bad_v
        return np.concatenate(
            [
                unit_rows_gradient(gu[..., 0], u, norms_u, bad),
                unit_rows_gradient(gv[..., 0], v, norms_v, bad),
            ],
            axis=1,
        )

    return grad


# ---------------------------------------------------------------------------
# multi-start maximizer
# ---------------------------------------------------------------------------


_LINE_SEARCH = np.array([2.0, 1.0, 0.5, 0.125])


def _restart_rng(master_seed: int, restart: int) -> np.random.Generator:
    return np.random.default_rng([master_seed & SEED_MASK, restart])


class AscentResult(NamedTuple):
    """
    Output of `maximize`.  `values` and `points` hold every restart's final
    objective value and parameter row; `winner` is the maximal value with
    smallest-index tie-break; `converged` means the two best restarts agree
    within the value tolerance.  `iterations` counts lockstep ascent steps
    (at most `max_iterations`), and `evaluations` counts objective points:
    the starting points, one per gradient and one per line-search candidate.
    """

    values: np.ndarray
    points: np.ndarray
    winner: int
    converged: bool
    iterations: int
    evaluations: int


def maximize(value_fn, grad_fn, n_params: int, cfg: OptimizerConfig) -> AscentResult:
    """
    Run all restarts of a gradient-ascent line-search loop in lockstep.

    `value_fn` maps a batch of parameter rows to objective values and
    `grad_fn` to their gradients (rows of length `n_params`).  Restart r
    starts from its own rng stream derived from (master_seed, r).  Each step
    tries four step lengths along the normalized gradient and keeps the best
    if it improves; a restart stops at a zero gradient, a step below the step
    tolerance, or five steps in a row that gain less than the value tolerance.
    """
    if cfg.restarts < 1:
        raise InvalidInputError("optimizer needs at least one restart")
    reps = cfg.restarts
    x = np.empty((reps, n_params))
    for r in range(reps):
        x[r] = _restart_rng(cfg.master_seed, r).standard_normal(n_params)
    x /= np.maximum(npl.norm(x, axis=1), 1e-12)[:, None]
    values = value_fn(x)
    evaluations = reps
    iterations = 0
    alpha = np.full(reps, 0.25)
    stall = np.zeros(reps, dtype=int)
    active = np.ones(reps, dtype=bool)
    n_steps = _LINE_SEARCH.size
    while iterations < cfg.max_iterations:
        idx = np.flatnonzero(active)
        if idx.size == 0:
            break
        iterations += 1
        k = idx.size
        xa = x[idx]
        grad = grad_fn(xa)
        gnorm = npl.norm(grad, axis=1)
        flat = gnorm <= 1e-9
        dirs = grad / np.maximum(gnorm, 1e-300)[:, None]
        steps = alpha[idx, None] * _LINE_SEARCH[None, :]
        cand = xa[:, None, :] + steps[:, :, None] * dirs[:, None, :]
        cand_vals = value_fn(cand.reshape(k * n_steps, n_params)).reshape(k, n_steps)
        evaluations += k * (1 + n_steps)
        pick = np.argmax(cand_vals, axis=1)
        rows = np.arange(k)
        best_vals = cand_vals[rows, pick]
        moved = ~flat & (best_vals > values[idx] + 1e-15)
        held = ~flat & ~moved

        r = idx[moved]
        new_x = cand[rows[moved], pick[moved]]
        norms = npl.norm(new_x, axis=1)
        x[r] = new_x / np.where(norms > 1e-12, norms, 1.0)[:, None]
        gain = best_vals[moved] - values[r]
        values[r] = best_vals[moved]
        alpha[r] = np.minimum(
            np.maximum(steps[rows[moved], pick[moved]], 10.0 * cfg.step_tolerance), 4.0
        )
        stall[r] = np.where(gain < cfg.value_tolerance, stall[r] + 1, 0)

        r = idx[held]
        alpha[r] *= 0.125
        stall[r] += 1

        active[idx] = ~flat & (alpha[idx] >= cfg.step_tolerance) & (stall[idx] < 5)
    winner = int(np.argmax(values))
    if reps == 1:
        converged = True
    else:
        top = np.sort(values)[::-1]
        converged = bool(top[0] - top[1] <= cfg.value_tolerance)
    return AscentResult(values, x, winner, converged, iterations, evaluations)


# ---------------------------------------------------------------------------
# the measure registry
# ---------------------------------------------------------------------------


def _decode_pure(x: np.ndarray, dim: int) -> PureState:
    return PureState.normalized(x[:dim] + 1j * x[dim:])


def _decode_pair(x: np.ndarray, dim: int) -> tuple[PureState, PureState]:
    return (_decode_pure(x[: 2 * dim], dim), _decode_pure(x[2 * dim :], dim))


def _decode_density(x: np.ndarray, dim: int) -> DensityMatrix:
    t = (x[: dim * dim] + 1j * x[dim * dim :]).reshape(dim, dim)
    rho = t @ t.conj().T
    return DensityMatrix(rho / np.trace(rho).real)


def _state_input(witness, dim: int, measure: str) -> DensityMatrix:
    # rho from a DensityMatrix or PureState witness.
    if isinstance(witness, PureState):
        witness = witness.density()
    if not (isinstance(witness, DensityMatrix) and witness.dim == dim):
        raise InvalidInputError(f"{measure} expects a DensityMatrix or PureState of dim {dim}")
    return witness


def _pair_input(witness, dim: int, measure: str) -> np.ndarray:
    # |u><v| from a (PureState, PureState) witness.
    pair = witness if isinstance(witness, tuple) and len(witness) == 2 else ()
    if not (pair and all(isinstance(w, PureState) and w.dim == dim for w in pair)):
        raise InvalidInputError(f"{measure} expects a (PureState, PureState) witness of dim {dim}")
    return np.outer(pair[0].vector, pair[1].vector.conj())


class MeasureSpec(NamedTuple):
    """
    One measure.  `value` and `gradient` map a channel pair to its batched
    objective and gradient over `n_params(dim_in)` real parameters.
    `decode(x, dim)` turns the winning row into a witness, and
    `witness_input(witness, dim, measure)` a witness into the input operator,
    where dim is that of the input space: dim_in, squared when `stabilized`.
    `stabilized` extends both channels by an ancilla of the input dimension
    and selects the stabilized cap; `postselected` renormalizes the outputs,
    fixes a canonical pair order and requires postselection-valid channels.
    """

    value: Callable
    gradient: Callable
    n_params: Callable[[int], int]
    decode: Callable
    witness_input: Callable
    stabilized: bool
    postselected: bool

    def ancilla(self, dim_in: int) -> int:
        return dim_in if self.stabilized else 1


def _pure_measure(decode, ancilla: bool, stabilized: bool, postselected: bool) -> MeasureSpec:
    # A measure of the shared pure-input kernel (see `_objective_pure`): the
    # stabilized ones keep the ancilla in the outputs, the postselected ones
    # renormalize them.
    def anc(dim_in: int) -> int:
        return dim_in if ancilla else 1

    return MeasureSpec(
        lambda a, b: _objective_pure(a, b, anc(a.dim_in), stabilized, postselected),
        lambda a, b: _gradient_pure(a, b, anc(a.dim_in), stabilized, postselected),
        n_params=lambda d: 2 * d * anc(d),
        decode=decode,
        witness_input=_state_input,
        stabilized=stabilized,
        postselected=postselected,
    )


MEASURE_SPECS = {
    "dtrD": _pure_measure(_decode_pure, ancilla=False, stabilized=False, postselected=False),
    "dtr": MeasureSpec(
        _objective_dtr,
        _gradient_dtr,
        n_params=lambda d: 4 * d,
        decode=_decode_pair,
        witness_input=_pair_input,
        stabilized=False,
        postselected=False,
    ),
    "diamond": _pure_measure(_decode_pure, ancilla=True, stabilized=True, postselected=False),
    "hat-tr": _pure_measure(_decode_density, ancilla=True, stabilized=False, postselected=True),
    "hat-diamond": _pure_measure(_decode_pure, ancilla=True, stabilized=True, postselected=True),
}

MEASURES = tuple(MEASURE_SPECS)


def _spec(measure: str) -> MeasureSpec:
    spec = MEASURE_SPECS.get(measure)
    if spec is None:
        raise InvalidInputError(f"unknown measure {measure!r}; choose from {MEASURES}")
    return spec


def _checked_pair(
    spec: MeasureSpec, chan_a: Channel, chan_b: Channel, cap: int | None
) -> tuple[Channel, Channel]:
    # One order for every entry point, so each bad input raises one error:
    # canonical order (postselected only), matching dimensions, the input
    # dimension cap, postselection validity (postselected only).
    if spec.postselected:
        chan_a, chan_b = _canonical_pair(chan_a, chan_b)
    _kraus_stacks(chan_a, chan_b)
    if cap is not None and chan_a.dim_in > cap:
        raise CapacityError(f"input dimension {chan_a.dim_in} exceeds cap {cap}")
    if spec.postselected:
        require_postselection(chan_a, chan_b)
    return chan_a, chan_b


def _canonical_pair(chan_a: Channel, chan_b: Channel) -> tuple[Channel, Channel]:
    # Deterministic argument order makes the symmetric renormalized measures
    # bit-for-bit symmetric (the objective itself is symmetric only in exact
    # arithmetic).
    def key(ch: Channel):
        return (ch.dim_in, ch.dim_out, ch.rank, ch.kraus_stack.tobytes())

    return (chan_b, chan_a) if key(chan_b) < key(chan_a) else (chan_a, chan_b)


# ---------------------------------------------------------------------------
# estimating a measure
# ---------------------------------------------------------------------------


def distance(
    measure: str, chan_a: Channel, chan_b: Channel, cfg: OptimizerConfig = OptimizerConfig()
) -> DistanceEstimate:
    """Estimate a measure by its tag (dtrD, dtr, diamond, hat-tr, hat-diamond)."""
    spec = _spec(measure)
    cap = STABILIZED_DIM_CAP if spec.stabilized else UNSTABILIZED_DIM_CAP
    chan_a, chan_b = _checked_pair(spec, chan_a, chan_b, cap)
    d = chan_a.dim_in
    res = maximize(spec.value(chan_a, chan_b), spec.gradient(chan_a, chan_b), spec.n_params(d), cfg)
    witness = spec.decode(res.points[res.winner], d * spec.ancilla(d))
    return DistanceEstimate(
        measure=measure,
        value=evaluate_witness(measure, chan_a, chan_b, witness),
        witness=witness,
        restarts_used=cfg.restarts,
        converged=res.converged,
        iterations=res.iterations,
        evaluations=res.evaluations,
    )


def trace_distance_states(
    chan_a: Channel, chan_b: Channel, cfg: OptimizerConfig = OptimizerConfig()
) -> DistanceEstimate:
    """
    d_tr^D: sup over density matrices of ||Psi(rho) - Phi(rho)||_1.  The
    objective is convex in rho, so optimizing over pure states is exhaustive.
    """
    return distance("dtrD", chan_a, chan_b, cfg)


def trace_distance_operators(
    chan_a: Channel, chan_b: Channel, cfg: OptimizerConfig = OptimizerConfig()
) -> DistanceEstimate:
    """
    d_tr: sup over trace-norm-one operators of ||Psi(X) - Phi(X)||_1, optimized
    over its rank-one extreme points X = |u><v|.
    """
    return distance("dtr", chan_a, chan_b, cfg)


def diamond_distance(
    chan_a: Channel, chan_b: Channel, cfg: OptimizerConfig = OptimizerConfig()
) -> DistanceEstimate:
    """
    d_diamond: the stabilized trace distance, optimized over pure states on
    H (x) H (an ancilla of the input dimension attains the supremum).
    """
    return distance("diamond", chan_a, chan_b, cfg)


def postselected_trace_distance(
    chan_a: Channel, chan_b: Channel, cfg: OptimizerConfig = OptimizerConfig()
) -> DistanceEstimate:
    """
    hat d_tr: sup of the renormalized objective over all density matrices,
    parameterized as rho = T T^H / tr (the objective is not convex, so pure
    states alone would undershoot).
    """
    return distance("hat-tr", chan_a, chan_b, cfg)


def postselected_diamond_distance(
    chan_a: Channel, chan_b: Channel, cfg: OptimizerConfig = OptimizerConfig()
) -> DistanceEstimate:
    """
    hat d_diamond: the renormalized objective of the H (x) H extensions,
    optimized over pure bipartite states (exhaustive for this measure).
    """
    return distance("hat-diamond", chan_a, chan_b, cfg)


def diamond_norm_channel(ch: Channel) -> float:
    """
    ||Psi||_diamond for a CP trace-nonincreasing map: equals the squared
    operator norm of any Stinespring dilation, i.e. lambda_max of the effect
    operator.  Exact (no optimization).
    """
    return float(ch.effect_eigenvalues[-1])


# ---------------------------------------------------------------------------
# witness evaluation
# ---------------------------------------------------------------------------


def pointwise_distance(
    chan_a: Channel, chan_b: Channel, x, anc: int = 1, renormalize: bool = False
) -> float:
    """
    || (Psi (x) I_anc)(X) - (Phi (x) I_anc)(X) ||_1 at one input operator X (a
    DensityMatrix or a matrix), with each output divided by its trace first
    when `renormalize`: every measure's objective at one point.  Checks
    nothing beyond the input shape.
    """
    if anc > 1:
        chan_a, chan_b = tensor_with_identity(chan_a, anc), tensor_with_identity(chan_b, anc)
    out_a, out_b = apply(chan_a, x), apply(chan_b, x)
    if renormalize:
        out_a, out_b = out_a / np.trace(out_a).real, out_b / np.trace(out_b).real
    return float(trace_norm(out_a - out_b))


def evaluate_witness(measure: str, chan_a: Channel, chan_b: Channel, witness) -> float:
    """
    Exact objective value of `measure` at a specific witness, used both to
    reproduce optimizer output and to transfer witnesses between measures for
    sound inequality checks.
    """
    spec = _spec(measure)
    chan_a, chan_b = _checked_pair(spec, chan_a, chan_b, None)
    anc = spec.ancilla(chan_a.dim_in)
    x = spec.witness_input(witness, chan_a.dim_in * anc, measure)
    return pointwise_distance(chan_a, chan_b, x, anc, spec.postselected)


def renormalized_distance(
    chan_a: Channel, chan_b: Channel, rho: DensityMatrix | PureState
) -> float:
    """
    Pointwise objective of the postselected distances:
    || Psi(rho)/tr[Psi(rho)] - Phi(rho)/tr[Phi(rho)] ||_1.
    Both channels must be postselection-valid so the traces stay positive.
    """
    return evaluate_witness("hat-tr", chan_a, chan_b, rho)


# ---------------------------------------------------------------------------
# dense sampling oracle
# ---------------------------------------------------------------------------

_ORACLE_CHUNK = 8192


def dense_oracle(
    measure: str,
    chan_a: Channel,
    chan_b: Channel,
    samples: int = 100_000,
    seed: int = 0,
) -> float:
    """
    Brute-force lower bound: the measure's objective maximized over `samples`
    seeded random points of its domain (Haar pure states, independent rank-one
    pairs, or normalized Ginibre density factors).  Independent of the
    optimizer; used to cross-check it at tiny dimensions.
    """
    if samples < 1:
        raise InvalidInputError("oracle needs at least one sample")
    spec = _spec(measure)
    chan_a, chan_b = _checked_pair(spec, chan_a, chan_b, ORACLE_DIM_CAP)
    fn = spec.value(chan_a, chan_b)
    n_params = spec.n_params(chan_a.dim_in)
    rng = np.random.default_rng([seed & SEED_MASK, 1])
    best = -np.inf
    remaining = int(samples)
    while remaining > 0:
        take = min(_ORACLE_CHUNK, remaining)
        vals = fn(rng.standard_normal((take, n_params)))
        top = float(np.max(vals))
        if top > best:
            best = top
        remaining -= take
    return best
