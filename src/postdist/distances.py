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

import math
from dataclasses import dataclass, replace
from functools import cache, lru_cache
from typing import Callable, NamedTuple

import numpy as np
import numpy.linalg as npl

from .channels import Channel, DensityMatrix, PureState, apply, compose, depolarizing_kraus
from .channels import kraus_to_choi, require_postselection
from .linalg import CapacityError, InvalidInputError, check_integer, is_real, partial_trace
from .linalg import trace_norm

# Input-dimension policy: unstabilized objectives stay cheap up to dim 8;
# stabilized ones square the space, so they stop at dim-4 inputs.
UNSTABILIZED_DIM_CAP = 8
STABILIZED_DIM_CAP = 4

# The sampling oracle is only trusted as a cross-check at tiny dimensions.
ORACLE_DIM_CAP = 3


@dataclass(frozen=True)
class OptimizerConfig:
    """Multi-start settings; defaults favor accuracy over speed."""

    restarts: int = 64
    max_iterations: int = 2000
    step_tolerance: float = 1e-9
    value_tolerance: float = 1e-8
    master_seed: int = 0

    def __post_init__(self):
        check_integer("restarts", self.restarts, 1)
        check_integer("max_iterations", self.max_iterations, 0)
        check_integer("master_seed", self.master_seed, 0)
        for name in ("step_tolerance", "value_tolerance"):
            tolerance = getattr(self, name)
            if not (is_real(tolerance) and tolerance >= 0.0):
                raise InvalidInputError(f"optimizer needs a finite {name} >= 0, got {tolerance!r}")


@dataclass(frozen=True)
class DistanceEstimate:
    """
    Optimizer output.  `value` is exactly the measure's objective evaluated at
    `witness` (so it is reproducible), and a lower bound on the supremum.
    `iterations` and `evaluations` are the ascent's deterministic work
    counters (see `AscentResult`).  `agreeing_restarts` counts the restarts
    whose final value is within the value tolerance of the best, and
    `restart_spread` is the best final value minus the lowest finite one.
    """

    measure: str
    value: float
    witness: object
    restarts_used: int
    iterations: int
    evaluations: int
    agreeing_restarts: int
    restart_spread: float

    @property
    def converged(self) -> bool:
        """At least two restarts agree with the best (always, for one restart)."""
        return self.agreeing_restarts >= min(2, self.restarts_used)


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


def unit_pairs(x: np.ndarray, dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """
    `unit_rows` for rows [u | v] of two vectors (length 4*dim), decoded as one
    batch: u and v of row i are entries 2i and 2i + 1, and `bad` (one flag per
    row) marks rows where either is bad.
    """
    w, norms, bad = unit_rows(x.reshape(-1, 2 * dim), dim)
    return w, norms, bad[0::2] | bad[1::2]


def unit_pairs_gradient(grad_u, grad_v, w: np.ndarray, norms: np.ndarray, bad: np.ndarray):
    """`unit_rows_gradient` for rows decoded by `unit_pairs`: rows [g_u | g_v]."""
    grad = np.stack([grad_u, grad_v], axis=1).reshape(w.shape)
    return unit_rows_gradient(grad, w, norms, np.repeat(bad, 2)).reshape(-1, 4 * w.shape[1])


def herm_sign(x: np.ndarray) -> np.ndarray:
    """
    sign(X) = V sign(Lambda) V^H for a batch of Hermitian matrices: the
    gradient of the trace norm at X (one subgradient when X is singular).
    """
    w, v = npl.eigh(x)
    return (v * np.sign(w)[:, None, :]) @ v.conj().transpose(0, 2, 1)


def herm_trace_norms(x: np.ndarray) -> np.ndarray:
    """Trace norms of a batch of Hermitian matrices: the sums of |eigenvalues|."""
    return np.abs(npl.eigvalsh(x)).sum(axis=-1)


def kraus_images(stack: np.ndarray, inputs: np.ndarray) -> np.ndarray:
    """
    K_e u for inputs u as (batch, dim_in, anc) and a Kraus stack, shared or one
    per input, as (batch, rank, dim_out, anc): C-contiguous for a per-input
    stack, a view of a (rank, dim_out, anc, batch) buffer for a shared one.
    """
    if stack.ndim == 4:
        return np.einsum("meij,mja->meia", stack, inputs)
    # One 2-D product with the batch innermost puts einsum's inner loop on it, not
    # on anc; each sum keeps its order, and nothing is copied back to batch-first.
    (e, o, i), (m, _, a) = stack.shape, inputs.shape
    cols = inputs.transpose(1, 2, 0).reshape(i, a * m)
    flat = np.einsum("kj,jn->kn", stack.reshape(e * o, i), cols)
    return flat.reshape(e, o, a, m).transpose(3, 0, 1, 2)


def pure_outputs(images: np.ndarray, joint: bool = False) -> np.ndarray:
    """
    sum_e (K_e u)(K_e u)^H from `kraus_images`: on dim_out (x) anc when `joint`,
    else with the ancilla traced out (so a factor T gives Psi(T T^H)), in the
    images' layout (einsum follows memory order, so the batch stays innermost).
    """
    m, e, o, a = images.shape
    if joint:
        flat = images.reshape(m, e, o * a)  # o * a, not -1: numpy cannot infer it at m = 0
        return np.einsum("mep,meq->mpq", flat, flat.conj())
    if a == 1 or images.strides[0] != images.itemsize:
        return np.einsum("meik,melk->mil", images, images.conj())
    # Batch-innermost with anc >= 2, where that einsum would sum (e, k) in one run
    # and move bits: one operator at a time, summed in operator order, as it sums
    # batch-first images (k first; at dim_out 1, (e, k) in one run).
    if o == 1:
        images = images.reshape(m, 1, 1, e * a)
    out = np.einsum("mik,mlk->mil", images[:, 0], images[:, 0].conj())
    for y in images.swapaxes(0, 1)[1:]:
        out += np.einsum("mik,mlk->mil", y, y.conj())
    return out


def renormalized(out: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(out / traces in place, traces as (m, 1, 1), small): a trace below 1e-30 is taken as 1."""
    tr = np.einsum("mii->m", out).real
    small = tr < 1e-30
    tr = np.where(small, 1.0, tr)[:, None, None]
    # numpy divides x + iy by a real t as ((x + y*0) * s, (y - x*0) * s), s = 1/t: the
    # same bits, as einsum sums start from +0 and so never hold -0.0.
    scale = 1.0 / tr
    out.real *= scale
    out.imag *= scale
    return out, tr, small


def pullback(stack: np.ndarray, images: np.ndarray, sign: np.ndarray, joint: bool = False):
    """
    sum_e K_e^H S y_e for the images y_e = K_e u of `kraus_images` and output
    operators S (on dim_out (x) anc when `joint`): for Hermitian S, half the
    complex gradient in u of tr(S sum_e y_e y_e^H).
    """
    m, e, o, a = images.shape
    if joint:
        s_images = (sign[:, None] @ images.reshape(m, e, o * a, 1)).reshape(m, e, o, a)
    else:
        s_images = sign[:, None] @ images
    return (stack.conj().swapaxes(-1, -2) @ s_images).sum(axis=1)


# ---------------------------------------------------------------------------
# batched objectives and their closed-form gradients
# ---------------------------------------------------------------------------
#
# Each kernel maps channel pairs, one per problem, to (fn, grad), the objective
# and its gradient over a batch of real parameter rows and their problem
# indices, built on the same decode -> images -> outputs steps.  One pair's
# Kraus stack is shared by all rows, and its images and outputs keep the batch
# innermost in memory; several pairs' are padded with zero operators to one
# rank and gathered per row, with C-contiguous images.  Four measures share the
# pure-input kernel, with the input u held as a (dim_in, anc) matrix: anc = 1
# for dtrD, the ancilla for the stabilized measures (`joint` outputs on
# dim_out (x) anc), and the Ginibre factor's second index for hat-tr (traced
# out of the outputs).
# `renormalize` divides each output by its trace.  The trace norm is
# differentiated through its sign factor (Hermitian differences) or its polar
# factor (dtr).


def _above_floor(norms: Callable, diff: np.ndarray, floor: float, scale=None, margin=0.0):
    # norms(diff) on the rows whose bound on ||D||_1 is above floor, -inf on the rest;
    # each row's norm is its own, so a kept row gets the value of the unpruned call.
    # sqrt(p) ||D||_F bounds the p x p matrix as computed, whatever its rank, and the
    # decompositions err relative to ||D||: a relative margin, so a floor at rounding
    # level prunes.  A rank bound scale * ||D||_F + margin may be tighter.  ||D||_F
    # comes from reductions over diff.real and diff.imag, which read any layout.
    if floor == -np.inf:
        return norms(diff)
    re, im = diff.real, diff.imag
    frob = np.sqrt(np.einsum("mij,mij->m", re, re) + np.einsum("mij,mij->m", im, im))
    bound = math.sqrt(diff.shape[-1]) * (1.0 + 1e-6) * frob
    keep = (bound if scale is None else np.minimum(bound, scale * frob + margin)) > floor
    if keep.all():
        return norms(diff)
    vals = np.full(diff.shape[0], -np.inf)
    vals[keep] = norms(diff[keep])
    return vals


def _under_ceiling(values: Callable, ceiling, margin, rows, problem, bad, floor) -> np.ndarray:
    # values(rows, problem, bad, floor) on the rows whose ceiling is above floor, -inf on
    # the rest, before any image is formed; a NaN ceiling keeps its row.  Every ceiling
    # exceeds margin / 2, so below that (no floor, or values all rounding) it is skipped.
    live = None if ceiling is None or floor < margin / 2 else ~(ceiling(rows) <= floor)
    if live is None or live.all():
        return values(rows, problem, bad, floor)
    vals = np.full(len(rows), -np.inf)
    vals[live] = values(rows[live], problem[live], bad[live], floor)
    return vals


def _per_row(arrays: list[np.ndarray]) -> Callable[[np.ndarray], np.ndarray]:
    # Maps row problem indices to operands: the one problem's array as it is,
    # or several zero-padded along axis 0 to one length, stacked and gathered.
    if len(arrays) == 1:
        return lambda problem: arrays[0]
    n = max(a.shape[0] for a in arrays)
    stack = np.zeros((len(arrays), n, *arrays[0].shape[1:]), dtype=np.result_type(*arrays))
    for row, a in zip(stack, arrays):
        row[: a.shape[0]] = a
    return lambda problem: stack[problem]


def _dual_forms(chan_a: Channel, chan_b: Channel, cs, split=False) -> list[np.ndarray]:
    # M_c = (Tr_out |J_a - c J_b|)^T for each c, J the Choi matrices (input factor first).
    # Split J_a - c J_b = J+ - J- into CP parts: ||((Psi - c Phi) (x) 1)(rho)||_1 <=
    # tr(M_c rho_in) at every input, the dual point Y0 = Y1 = |J| of Watrous's SDP
    # (arXiv:0901.4709).  With `split`, E+ = (Tr_out J+)^T for every c, then E-.
    ja, jb = kraus_to_choi(chan_a), kraus_to_choi(chan_b)
    w, v = npl.eigh(ja - np.asarray(cs)[:, None, None] * jb)
    dims = (chan_a.dim_in, chan_a.dim_out)
    weights = [np.maximum(w, 0.0), np.maximum(-w, 0.0)] if split else [np.abs(w)]
    return [partial_trace((vc * wc) @ vc.conj().T, dims).T for ws in weights for wc, vc in zip(ws, v)]


_DUAL_GRID = np.exp(np.linspace(-1.0, 1.0, 7))  # the hat bound's c / (tr E_a / tr E_b)


def _dual_bound(chan_a: Channel, chan_b: Channel, form: str, margin: float) -> Callable:
    # ceiling(u3): per row, a sound upper bound on a kernel's ||D||_1 for this one pair
    # plus a rounding margin, from rho_in = U U^H alone, through Hermitian forms built on
    # the first call.  "trace": tr(M_1 rho_in).
    # "split", for dtr's rows (u, v) as (m, 2, d): each CP part's Kraus operators K_k give
    # ||sum_k K_k u v^H K_k^H||_1 <= sum_k |K_k u| |K_k v| <= sqrt(u^H E u v^H E v), so
    # ||Delta(u v^H)||_1 is at most that sum over E+ and E-.  Each form is raised by the
    # margin, a bound on its own rounding, before the root, which would amplify that to
    # ~sqrt(eps); the Gram route's values take a relative 1e-6 on top.
    # "hat", renormalized, with p = tr(E_a rho_in) and q = tr(E_b rho_in), P/p - Q/q =
    # (P - cQ)/p + (c/p - 1/q)Q gives (tr(M_c rho_in) + |tr(L_c rho_in)|) / p with
    # L_c = c E_b - E_a, and the other order at 1/c the same numerator over cq: the
    # least over a grid of c is taken, in units of tr E_a / tr E_b (scaled into q).
    # Rounding in P/p, Q/q and the ratio grows as 1/min(p, q), and so does the margin.
    @cache
    def forms():
        cs, tail = [1.0], []
        if form == "hat":
            tb = chan_b.effect_eigenvalues.sum()
            s = chan_a.effect_eigenvalues.sum() / tb if tb > 0 else 1.0
            cs, tail = s * _DUAL_GRID, [chan_a.effect, s * chan_b.effect]
        stack = np.array(_dual_forms(chan_a, chan_b, cs, form == "split") + tail)
        return np.concatenate([stack.real, stack.imag], axis=1).reshape(len(stack), -1)

    def ceiling(u3: np.ndarray) -> np.ndarray:
        # rho_in with the batch innermost, so einsum's inner loop runs over it; tr(F rho_in)
        # is Re F . Re rho_in + Im F . Im rho_in for Hermitian F and rho_in.
        if form == "split":
            u3 = u3.reshape(-1, u3.shape[-1], 1)  # u0, v0, u1, v1, ... as rows of their own
        ut = u3.transpose(1, 2, 0).copy()
        rho = np.einsum("iam,jam->ijm", ut, ut.conj())
        t = forms() @ np.concatenate([rho.real, rho.imag]).reshape(2 * rho.shape[0] ** 2, -1)
        if form == "split":
            q = t.reshape(2, -1, 2) + margin  # [E+ or E-, row, u or v]
            return (1.0 + 1e-6) * np.sqrt(q[..., 0] * q[..., 1]).sum(axis=0) + margin
        if form == "trace":
            return t[0] + margin
        c, m, p, q = _DUAL_GRID[:, None], t[:-2], t[-2], t[-1]
        low = np.minimum(p, q)
        with np.errstate(divide="ignore", invalid="ignore"):
            bound = ((m + np.abs(c * q - p)) / np.maximum(p, c * q)).min(axis=0)
            return np.where(low > 0, bound + margin + 1e-12 * (1.0 + c[-1]) / low, np.inf)

    return ceiling


def _pure_kernel(pairs: list, ancilla: bool, joint: bool, renormalize: bool):
    ka, kb = _per_row([a.kraus for a, _ in pairs]), _per_row([b.kraus for _, b in pairs])
    ea, eb = _per_row([a.effect for a, _ in pairs]), _per_row([b.effect for _, b in pairs])
    d = pairs[0][0].dim_in
    anc = d if ancilla else 1
    # rank(P - Q) <= root_k**2: a Kraus operator adds rank 1 to a joint output, else anc.
    p = pairs[0][0].dim_out * (anc if joint else 1)
    ranks = max(a.rank for a, _ in pairs) + max(b.rank for _, b in pairs)
    root_k, root_p = math.sqrt(min(p, ranks * (1 if joint else anc))), math.sqrt(p)
    # Rounding in P and Q makes a computed D ~ 0 full rank; its size scales with
    # tr P + tr Q + 1, and tr P <= lambda_max(E_a) (1 once renormalized).
    top = [max(ch.effect_eigenvalues[-1] for ch in side) for side in zip(*pairs)]
    traces = 2.0 if renormalize else sum(top)
    margin = 1e-12 * (root_k + root_p) * (traces + 1.0)
    # The dual bound pays where the outputs keep the whole input (dtrD, diamond,
    # hat-diamond); with the ancilla traced out (hat-tr), ||D||_F is the tighter bound.
    # Its forms bound their own pair's rows only: a kernel of several pairs takes none.
    dual = len(pairs) == 1 and (joint or anc == 1)
    ceiling = _dual_bound(*pairs[0], "hat" if renormalize else "trace", margin) if dual else None

    def output(images: np.ndarray, bad: np.ndarray):
        # (output / trace, trace as (m, 1, 1), bad): a trace below 1e-30 marks its row bad.
        out = pure_outputs(images, joint)
        if not renormalize:
            return out, None, bad
        out, tr, small = renormalized(out)
        return out, tr, bad | small

    def values(u3: np.ndarray, problem: np.ndarray, bad: np.ndarray, floor: float) -> np.ndarray:
        # One channel's images at a time keeps the oracle's peak memory down.
        out_a, _, bad = output(kraus_images(ka(problem), u3), bad)
        out_b, _, bad = output(kraus_images(kb(problem), u3), bad)
        out_a -= out_b  # D = P - Q in place: no third output stack; ||D||_1 <= root_k ||D||_F
        vals = _above_floor(herm_trace_norms, out_a, floor, root_k, margin)
        vals[bad] = -np.inf
        return vals

    def fn(x: np.ndarray, problem: np.ndarray, floor: float = -np.inf) -> np.ndarray:
        u, _, bad = unit_rows(x, d * anc)
        return _under_ceiling(values, ceiling, margin, u.reshape(-1, d, anc), problem, bad, floor)

    def grad(x: np.ndarray, problem: np.ndarray) -> np.ndarray:
        u, norms, bad = unit_rows(x, d * anc)
        u3 = u.reshape(-1, d, anc)
        stack_a, stack_b = ka(problem), kb(problem)
        ya, yb = kraus_images(stack_a, u3), kraus_images(stack_b, u3)
        out_a, tr_a, bad = output(ya, bad)
        out_b, tr_b, bad = output(yb, bad)
        sign = herm_sign(out_a - out_b)
        pa, pb = pullback(stack_a, ya, sign, joint), pullback(stack_b, yb, sign, joint)
        if renormalize:
            # Quotient rule for || P/p - Q/q ||_1 with p = <u, E_a u>, q = <u, E_b u>;
            # tr(S P/p) weighs the E_a u term.
            sa = np.einsum("mij,mji->m", sign, out_a).real[:, None, None]
            sb = np.einsum("mij,mji->m", sign, out_b).real[:, None, None]
            pa, pb = (pa - sa * (ea(problem) @ u3)) / tr_a, (pb - sb * (eb(problem) @ u3)) / tr_b
        g = 2.0 * (pa - pb)
        return unit_rows_gradient(g.reshape(-1, d * anc), u, norms, bad)

    return fn, grad


def _dtr_kernel(pairs: list):
    # || Delta ||_1 for Delta = sum_e A_e u v^H A_e^H - B_e u v^H B_e^H: with the
    # polar factor W = U V^H of Delta and N = sum_e A_e^H W A_e - B_e^H W B_e,
    # the complex gradients are N v (in u) and N^H u (in v).
    ka, kb = _per_row([a.kraus for a, _ in pairs]), _per_row([b.kraus for _, b in pairs])
    d = pairs[0][0].dim_in
    root_p = math.sqrt(pairs[0][0].dim_out)
    # Rounding in the Choi split and in Delta scales with tr J_a + tr J_b = tr E_a + tr E_b.
    margin = 1e-12 * (1.0 + root_p) * (sum(ch.effect_eigenvalues.sum() for ch in pairs[0]) + 1.0)
    ceiling = _dual_bound(*pairs[0], "split", margin) if len(pairs) == 1 else None

    def difference(w: np.ndarray, problem: np.ndarray):
        twice = np.repeat(problem, 2)  # u and v of row i are rows 2i and 2i + 1 of w
        ya, yb = kraus_images(ka(twice), w[:, :, None]), kraus_images(kb(twice), w[:, :, None])
        diff = np.einsum("meik,melk->mil", ya[0::2], ya[1::2].conj()) - np.einsum(
            "meik,melk->mil", yb[0::2], yb[1::2].conj()
        )
        return diff, ya, yb

    def gram_trace_norms(diff: np.ndarray) -> np.ndarray:
        # singular values of Delta as the square roots of its Gram eigenvalues
        w = npl.eigvalsh(np.einsum("mji,mjk->mik", diff.conj(), diff))
        return np.sqrt(np.clip(w, 0.0, None)).sum(axis=-1)

    def values(uv: np.ndarray, problem: np.ndarray, bad: np.ndarray, floor: float) -> np.ndarray:
        # The Gram route lifts zero singular values to ~sqrt(eps) sigma_max, so only the
        # sqrt(p) bound of _above_floor holds, not a rank bound.
        vals = _above_floor(gram_trace_norms, difference(uv.reshape(-1, d), problem)[0], floor)
        vals[bad] = -np.inf
        return vals

    def fn(x: np.ndarray, problem: np.ndarray, floor: float = -np.inf) -> np.ndarray:
        w, _, bad = unit_pairs(x, d)
        return _under_ceiling(values, ceiling, margin, w.reshape(-1, 2, d), problem, bad, floor)

    def grad(x: np.ndarray, problem: np.ndarray) -> np.ndarray:
        w, norms, bad = unit_pairs(x, d)
        diff, ya, yb = difference(w, problem)
        left, _, right = npl.svd(diff)
        polar = left @ right
        polar_h = polar.conj().transpose(0, 2, 1)
        stack_a, stack_b = ka(problem), kb(problem)
        gu = pullback(stack_a, ya[1::2], polar) - pullback(stack_b, yb[1::2], polar)
        gv = pullback(stack_a, ya[0::2], polar_h) - pullback(stack_b, yb[0::2], polar_h)
        return unit_pairs_gradient(gu, gv, w, norms, bad)

    return fn, grad


# ---------------------------------------------------------------------------
# multi-start maximizer
# ---------------------------------------------------------------------------


_LINE_SEARCH = np.array([2.0, 1.0, 0.5, 0.125])


@lru_cache(maxsize=64)
def _starts(seed: int, restarts: int, n_params: int) -> np.ndarray:
    # Restart r's normalized start, from its own stream (seed, r): a pure function
    # of the key, drawn once per process and read-only, so each run steps a copy.
    x = np.array([np.random.default_rng([seed, r]).standard_normal(n_params) for r in range(restarts)])
    x /= np.maximum(npl.norm(x, axis=1), 1e-12)[:, None]
    x.setflags(write=False)
    return x


class AscentResult(NamedTuple):
    """
    One problem's output of `maximize`.  `values` and `points` hold every
    restart's final objective value and parameter row.  `iterations` counts the
    lockstep ascent steps the problem took part in (at most `max_iterations`),
    and `evaluations` counts its objective points: the starting points, one
    per gradient taken (a restart whose last step held keeps its gradient), one
    per Barzilai-Borwein trial and four per line search.
    """

    values: np.ndarray
    points: np.ndarray
    iterations: int
    evaluations: int


def maximize(value_fn, grad_fn, starts: np.ndarray, cfg: OptimizerConfig) -> list[AscentResult]:
    """
    Run all restarts of a gradient-ascent loop in lockstep, for one or more
    problems of one budget, from start rows shaped (problems, restarts,
    n_params): one `AscentResult` per problem.  `starts` is copied, never
    written, and of `cfg` only the iteration cap and the tolerances are read.

    `value_fn(x, problem)` maps a batch of parameter rows and each row's
    problem index to objective values and `grad_fn(x, problem)` to their
    gradients.  Each step first tries one Barzilai-Borwein point x + t g, with
    t = s.s / -(s.y) for the restart's last change of point s and of gradient
    y (Barzilai and Borwein, IMA J. Numer. Anal. 8:141, 1988), where its
    previous step moved it and -(s.y) > 0.  A restart without that point, or
    whose point does not raise its value, tries four step lengths along the
    normalized gradient instead and keeps the best if it improves.  Only a
    rise is ever kept, so each restart's value never falls.  A restart stops
    at a zero gradient, a step below the step tolerance, or five steps in a
    row that gain less than the value tolerance, and a problem stops after
    `max_iterations` steps.  Every rule reads only the restart's own rows, so
    when the objective evaluates each row on its own, a problem's result does
    not depend on its batch mates.
    """
    n_problems, n, n_params = np.shape(starts)
    problem = np.repeat(np.arange(n_problems), n)
    x = np.array(starts, dtype=float).reshape(-1, n_params)
    values = value_fn(x, problem)
    work = np.ones(problem.size, dtype=int)  # objective points per row
    taken = np.zeros(problem.size, dtype=int)  # ascent steps per row
    n_steps = _LINE_SEARCH.size
    # The running restarts, in compact arrays: row, problem, point, value, step
    # length, stall count and work.  A restart leaves them, with its point,
    # value and work written back, on the pass it stops.
    row = np.arange(problem.size if cfg.max_iterations > 0 else 0)
    prob, pt, val, wk = problem[row], x[row], values[row], work[row]
    alpha, stall = np.full(row.size, 0.25), np.zeros(row.size, dtype=int)
    # Each restart's point and gradient one step back: s = 0 at first and after a held step.
    prev_x, prev_g = pt.copy(), np.zeros_like(pt)
    stale = np.ones(row.size, dtype=bool)  # the gradient at pt is not prev_g
    passes = 0
    while row.size:
        passes += 1
        grad = prev_g.copy()
        fresh, stale = stale, np.zeros(row.size, dtype=bool)
        if fresh.any():
            grad[fresh] = grad_fn(pt[fresh], prob[fresh])
        gnorm = npl.norm(grad, axis=1)
        flat = gnorm <= 1e-9
        s, y = pt - prev_x, grad - prev_g
        prev_x, prev_g = pt.copy(), grad
        curvature = -(s * y).sum(axis=1)
        search = ~flat
        tried = search & (curvature > 0)
        # Each restart's best new point, its value and step length; -inf where none was tried.
        new_x, new_val, new_step = np.empty_like(pt), np.full(row.size, -np.inf), np.empty(row.size)
        trial = np.flatnonzero(tried)
        if trial.size:
            t = (s[trial] * s[trial]).sum(axis=1) / curvature[trial]
            trial_x = pt[trial] + t[:, None] * grad[trial]
            new_x[trial], new_val[trial] = trial_x, value_fn(trial_x, prob[trial])
            new_step[trial] = t * gnorm[trial]
            search &= ~(new_val > val + 1e-15)

        rest = np.flatnonzero(search)
        if rest.size:
            steps = alpha[rest, None] * _LINE_SEARCH[None, :]
            dirs = grad[rest] / gnorm[rest, None]
            cand = pt[rest, None, :] + steps[:, :, None] * dirs[:, None, :]
            cand_problem = np.repeat(prob[rest], n_steps)
            cand_vals = value_fn(cand.reshape(-1, n_params), cand_problem).reshape(-1, n_steps)
            pick = np.argmax(cand_vals, axis=1)
            k = np.arange(rest.size)
            new_x[rest], new_val[rest], new_step[rest] = cand[k, pick], cand_vals[k, pick], steps[k, pick]

        # The Barzilai-Borwein winners and the line-search rows are disjoint,
        # and neither search read the other's rows, so both move at once.
        up = new_val > val + 1e-15
        moved, moved_val = new_x[up], new_val[up]
        norms = npl.norm(moved, axis=1)
        pt[up] = moved / np.where(norms > 1e-12, norms, 1.0)[:, None]
        gain = moved_val - val[up]
        val[up] = moved_val
        alpha[up] = np.minimum(np.maximum(new_step[up], 10.0 * cfg.step_tolerance), 4.0)
        stall[up] = np.where(gain < cfg.value_tolerance, stall[up] + 1, 0)
        stale[up] = True
        held = search & ~up
        alpha[held] *= 0.125
        stall[held] += 1

        wk += n_steps * search + tried + fresh
        keep = ~flat & (alpha >= cfg.step_tolerance) & (stall < 5) & (passes < cfg.max_iterations)
        if not keep.all():
            stop = ~keep
            done = row[stop]
            x[done], values[done], work[done], taken[done] = pt[stop], val[stop], wk[stop], passes
            row, prob, pt, val, wk, alpha, stall, prev_x, prev_g, stale = (
                a[keep] for a in (row, prob, pt, val, wk, alpha, stall, prev_x, prev_g, stale)
            )
    # A restart steps from the first pass until it stops, so a problem's
    # passes are those of its longest-running restart.
    iterations, evaluations = taken.reshape(-1, n).max(axis=1), work.reshape(-1, n).sum(axis=1)
    values, x = values.reshape(-1, n), x.reshape(-1, n, n_params)
    return [AscentResult(*r) for r in zip(values, x, iterations.tolist(), evaluations.tolist())]


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
    One measure.  `kernel` maps channel pairs of one shape, one per problem, to
    (fn, grad): the batched objective and gradient over `n_params(dim_in)`
    real parameters, each row on its problem's pair (see `maximize`).
    `fn(x, problem, floor)` takes an optional floor: a row whose sound upper
    bound is at most `floor` gets -inf, and every other row gets exactly the
    value of `fn(x, problem)`.  In a kernel of one pair, rows of every measure
    but hat-tr are first bounded from their input alone, before any output is
    formed (dtrD, diamond and hat-diamond by the dual point |J| of the diamond
    SDP, dtr by the split of J into CP parts); then every measure's rows by the
    Frobenius norm of their output difference, before it is decomposed, with
    a relative margin only, so that a floor of rounding level prunes too.
    `decode(x, dim)` turns the winning row into a witness, and
    `witness_input(witness, dim, measure)` a witness into the input operator,
    where dim is that of the input space: dim_in, squared when `stabilized`.
    `stabilized` extends both channels by an ancilla of the input dimension
    and selects the stabilized cap; `postselected` renormalizes the outputs,
    fixes a canonical pair order and requires postselection-valid channels.
    """

    kernel: Callable
    n_params: Callable[[int], int]
    decode: Callable
    witness_input: Callable
    stabilized: bool
    postselected: bool

    def ancilla(self, dim_in: int) -> int:
        return dim_in if self.stabilized else 1


def _pure_measure(decode, ancilla: bool, stabilized: bool, postselected: bool) -> MeasureSpec:
    # A measure of the shared pure-input kernel (see `_pure_kernel`): the
    # stabilized ones keep the ancilla in the outputs, the postselected ones
    # renormalize them.
    return MeasureSpec(
        lambda pairs: _pure_kernel(pairs, ancilla, stabilized, postselected),
        n_params=lambda d: 2 * d * (d if ancilla else 1),
        decode=decode,
        witness_input=_state_input,
        stabilized=stabilized,
        postselected=postselected,
    )


MEASURE_SPECS = {
    # Convex in rho, so pure input states are exhaustive.
    "dtrD": _pure_measure(_decode_pure, ancilla=False, stabilized=False, postselected=False),
    # Over trace-norm-one X, searched on its rank-one extreme points |u><v|.
    "dtr": MeasureSpec(
        _dtr_kernel,
        n_params=lambda d: 4 * d,
        decode=_decode_pair,
        witness_input=_pair_input,
        stabilized=False,
        postselected=False,
    ),
    "diamond": _pure_measure(_decode_pure, ancilla=True, stabilized=True, postselected=False),
    # Not convex in rho, so mixed states rho = T T^H / tr: pure ones undershoot.
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
    if (chan_a.dim_in, chan_a.dim_out) != (chan_b.dim_in, chan_b.dim_out):
        raise InvalidInputError(
            f"channel dimensions differ: ({chan_a.dim_in}->{chan_a.dim_out}) vs "
            f"({chan_b.dim_in}->{chan_b.dim_out})"
        )
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
        return (ch.dim_in, ch.dim_out, ch.rank, ch.kraus.tobytes())

    return (chan_b, chan_a) if key(chan_b) < key(chan_a) else (chan_a, chan_b)


# ---------------------------------------------------------------------------
# estimating a measure
# ---------------------------------------------------------------------------


def distance(
    measure: str, chan_a: Channel, chan_b: Channel, cfg: OptimizerConfig = OptimizerConfig()
) -> DistanceEstimate:
    """Estimate a measure by its tag (dtrD, dtr, diamond, hat-tr, hat-diamond)."""
    return distance_batch([(measure, chan_a, chan_b, cfg)])[0]


def distance_batch(requests: list[tuple]) -> list[DistanceEstimate]:
    """
    `distance` for a list of (measure, chan_a, chan_b, cfg) requests, answered
    in order.  Requests of one measure, one (dim_in, dim_out) and one budget
    (configs that differ only in `master_seed`) share one lockstep `maximize`,
    each request from its own restart streams (`_starts`), and each estimate
    is bit-identical to the one its request gets from `distance` alone.
    """
    groups: dict[tuple, list] = {}
    for i, (measure, chan_a, chan_b, cfg) in enumerate(requests):
        spec = _spec(measure)
        cap = STABILIZED_DIM_CAP if spec.stabilized else UNSTABILIZED_DIM_CAP
        chan_a, chan_b = _checked_pair(spec, chan_a, chan_b, cap)
        key = (measure, chan_a.dim_in, chan_a.dim_out, replace(cfg, master_seed=0))
        groups.setdefault(key, []).append((i, (chan_a, chan_b), cfg))
    estimates = [None] * len(requests)
    for (measure, d, _, budget), members in groups.items():
        spec = MEASURE_SPECS[measure]
        kernel = spec.kernel([pair for _, pair, _ in members])
        n = spec.n_params(d)
        starts = [_starts(cfg.master_seed, budget.restarts, n) for _, _, cfg in members]
        results = maximize(*kernel, np.stack(starts), budget)
        for (i, (chan_a, chan_b), cfg), res in zip(members, results):
            winner = int(np.argmax(res.values))  # the first of equal maxima
            witness = spec.decode(res.points[winner], d * spec.ancilla(d))
            best = res.values[winner]
            estimates[i] = DistanceEstimate(
                measure=measure,
                value=evaluate_witness(measure, chan_a, chan_b, witness),
                witness=witness,
                restarts_used=cfg.restarts,
                iterations=res.iterations,
                evaluations=res.evaluations,
                agreeing_restarts=int(np.count_nonzero(res.values >= best - cfg.value_tolerance)),
                restart_spread=float(best - res.values[np.isfinite(res.values)].min(initial=best)),
            )
    return estimates


def diamond_norm_channel(ch: Channel) -> float:
    """
    ||Psi||_diamond for a CP trace-nonincreasing map: equals the squared
    operator norm of any Stinespring dilation, i.e. lambda_max of the effect
    operator.  Exact (no optimization).
    """
    return float(ch.effect_eigenvalues[-1])


def output_separation_bound(ch: Channel) -> float:
    """
    s <= 2 lambda_max(M) for L2's output separation s = max ||Psi(uu^H) - Psi(vv^H)||_1,
    M the dual form of Psi - Psi o D (D completely depolarizing: Psi o D sends every
    state to Psi(1/d), which cancels in the difference), plus rounding, at most 2.
    """
    d = ch.dim_in
    m = _dual_forms(ch, compose(ch, Channel(depolarizing_kraus(d, d, 1.0))), [1.0])[0]
    return min(2.0, 2.0 * float(npl.eigvalsh(m)[-1]) + 1e-12 * d * ch.dim_out)


# ---------------------------------------------------------------------------
# witness evaluation
# ---------------------------------------------------------------------------


def pointwise_distance(
    chan_a: Channel, chan_b: Channel, x, anc: int = 1, renormalize: bool = False
) -> float:
    """
    || (Psi (x) I_anc)(X) - (Phi (x) I_anc)(X) ||_1 at one input operator X (a
    DensityMatrix or a matrix), with each output divided by its trace first
    when `renormalize`: every measure's objective at one point.  `apply`
    checks the shape and the ancilla.
    """
    out_a, out_b = apply(chan_a, x, anc), apply(chan_b, x, anc)
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


# ---------------------------------------------------------------------------
# dense sampling oracle
# ---------------------------------------------------------------------------

_ORACLE_CHUNK = 1024  # (1024, 9, 9) complex: 1.33 MB, below numpy's 4 MiB huge-page threshold
_ORACLE_HEAD = 64  # rows evaluated in full to seed the floor


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

    The points come from one seeded stream in blocks: the first 64 seed the
    best value, and each later block of 1,024 is evaluated with the best value
    so far as the kernel's `floor`, and then raises it.  A point whose bound
    does not exceed it is skipped: for every measure but hat-tr first by a
    bound read off its input, before any output is formed (the dual point |J|
    of the diamond SDP, or for dtr the split of J into CP parts), and then by
    the Frobenius norm of its output difference, before the decomposition;
    that bound needs no absolute margin, so it also prunes cells whose values
    are 0 up to rounding.  Skipped points cannot beat the floor, so the result
    is the same float as the maximum over every point.  Only cells whose every
    point sits at the maximum to a few ulps keep every point.
    """
    check_integer("samples", samples, 1)
    check_integer("seed", seed, 0)
    spec = _spec(measure)
    chan_a, chan_b = _checked_pair(spec, chan_a, chan_b, ORACLE_DIM_CAP)
    fn, _ = spec.kernel([(chan_a, chan_b)])
    n_params = spec.n_params(chan_a.dim_in)
    rng = np.random.default_rng([seed, 1])
    head = min(samples, _ORACLE_HEAD)
    best = float(np.max(fn(rng.standard_normal((head, n_params)), np.zeros(head, dtype=int))))
    for start in range(head, samples, _ORACLE_CHUNK):
        take = min(_ORACLE_CHUNK, samples - start)
        points = rng.standard_normal((take, n_params))
        best = max(best, float(np.max(fn(points, np.zeros(take, dtype=int), best))))
    return best
