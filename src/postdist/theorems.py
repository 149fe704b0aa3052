# src/postdist/theorems.py

"""
Numerical checks of the distance inequalities, each reduced to scalar
comparisons that cannot produce false alarms from optimizer underestimation.

The discipline throughout: an optimizer estimate is a lower bound on its
supremum, so it may appear alone only on the small side of an inequality.
Whenever a bound's large side would itself be an estimate, the left witness is
transferred through the proof's own pointwise chain (telescoping, contraction,
or renormalization identities), which guarantees domination in exact
arithmetic; the reported right-hand value is the maximum of the transferred
evaluation and the independent estimate, so it both certifies the check and
remains a genuine lower bound of the quantity it names.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import numpy.linalg as npl

from .channels import (
    Channel,
    DensityMatrix,
    PureState,
    StinespringOp,
    ValidityError,
    apply,
    compose,
    isometry,
    nonconvexity_pair,
    contractivity_triple,
    conversion_pair,
    require_postselection,
    scale,
    stinespring,
    tensor_with_identity,
)
from .distances import (
    OptimizerConfig,
    diamond_distance,
    diamond_norm_channel,
    distance,
    evaluate_witness,
    herm_sign,
    herm_trace_norms,
    maximize,
    pointwise_distance,
    postselected_diamond_distance,
    postselected_trace_distance,
    pure_outputs,
    renormalized_distance,
    trace_distance_operators,
    trace_distance_states,
    unit_rows,
    unit_rows_gradient,
)
from .linalg import InvalidInputError, operator_norm

# Comparisons between exactly evaluated quantities tolerate rounding only;
# comparisons whose small side involves an optimizer estimate get more room.
CLOSED_FORM_SLACK = 1e-6
OPTIMIZER_SLACK = 1e-3

# A separation estimate below this is treated as zero (no finite conversion
# factor exists).
SEPARATION_FLOOR = 1e-9


@dataclass(frozen=True)
class TheoremReport:
    """
    One checked instance of one statement.  `passed` holds exactly when
    lhs <= rhs + slack_tolerance and no auxiliary condition (listed in
    `aux_violations` when broken) failed.
    """

    statement: str
    description: str
    lhs: float
    rhs: float
    slack_tolerance: float
    passed: bool
    aux_violations: tuple[str, ...] = ()
    witnesses: dict = field(default_factory=dict)

    @property
    def slack(self) -> float:
        return self.rhs - self.lhs


def _report(statement, description, lhs, rhs, slack_tolerance, aux=(), witnesses=None):
    lhs = float(lhs)
    rhs = float(rhs)
    passed = (lhs <= rhs + slack_tolerance) and not aux
    return TheoremReport(
        statement=statement,
        description=description,
        lhs=lhs,
        rhs=rhs,
        slack_tolerance=slack_tolerance,
        passed=passed,
        aux_violations=tuple(aux),
        witnesses=witnesses or {},
    )


def _zero_like(ch: Channel) -> Channel:
    return Channel((np.zeros((ch.dim_out, ch.dim_in), dtype=complex),), name="zero")


def _max_entangled(dim: int) -> PureState:
    v = np.zeros(dim * dim, dtype=complex)
    for i in range(dim):
        v[i * dim + i] = 1.0
    return PureState.normalized(v)


# ---------------------------------------------------------------------------
# L1: operator-input distance vs doubled state-input distance
# ---------------------------------------------------------------------------


def phase_mixture_states(u: PureState, v: PureState) -> list[PureState]:
    """
    The four normalized combinations (|u> + i^k |v>)/norm.  Averaging their
    projectors with phases i^k reproduces |u><v|, and their squared norms sum
    to 8, which is what converts a rank-one witness into state witnesses.
    Near-cancelling combinations (norm below 1e-12) are dropped.
    """
    states = []
    for k in range(4):
        w = u.vector + (1j**k) * v.vector
        if npl.norm(w) >= 1e-12:
            states.append(PureState.normalized(w))
    return states


def check_state_distance_doubling(
    chan_a: Channel, chan_b: Channel, cfg: OptimizerConfig = OptimizerConfig()
) -> TheoremReport:
    """
    d_tr <= 2 d_tr^D: the rank-one witness (u, v) is transferred to the four
    phase-mixture states, whose best state-objective value must be at least
    half the rank-one value.  Both sides are exact evaluations at witnesses.
    """
    est = trace_distance_operators(chan_a, chan_b, cfg)
    u, v = est.witness
    transfers = [
        evaluate_witness("dtrD", chan_a, chan_b, w) for w in phase_mixture_states(u, v)
    ]
    best = max(transfers)
    return _report(
        "L1",
        f"{chan_a.name or 'A'} vs {chan_b.name or 'B'} (dim {chan_a.dim_in})",
        est.value,
        2.0 * best,
        CLOSED_FORM_SLACK,
        witnesses={
            "operator_witness": est.witness,
            "transfer_values": tuple(transfers),
            "operator_estimate": est.value,
        },
    )


# ---------------------------------------------------------------------------
# F2: the three norms of a single channel agree with the dilation norm
# ---------------------------------------------------------------------------


def check_dilation_norm_identity(
    ch: Channel, cfg: OptimizerConfig = OptimizerConfig()
) -> TheoremReport:
    """
    ||Psi||_diamond = ||Psi||_tr^D = ||A||_op^2: the exact effect-spectrum
    value against two independent optimizer routes (stabilized and state-input
    norms of Psi alone, realized as distances to the zero channel).
    """
    exact = diamond_norm_channel(ch)
    dilation = operator_norm(stinespring(ch).matrix) ** 2
    zero = _zero_like(ch)
    route_diamond = diamond_distance(ch, zero, cfg).value
    route_states = trace_distance_states(ch, zero, cfg).value
    deviation = max(
        abs(exact - route_diamond), abs(exact - route_states), abs(exact - dilation)
    )
    return _report(
        "F2",
        f"{ch.name or 'channel'} (dim {ch.dim_in}->{ch.dim_out}, rank {ch.rank})",
        deviation,
        CLOSED_FORM_SLACK,
        0.0,
        witnesses={
            "exact": exact,
            "dilation_opnorm_sq": dilation,
            "diamond_route": route_diamond,
            "state_route": route_states,
        },
    )


# ---------------------------------------------------------------------------
# T1: diamond-distance subadditivity under composition
# ---------------------------------------------------------------------------


def check_subadditivity(
    pairs: list[tuple[Channel, Channel]], cfg: OptimizerConfig = OptimizerConfig()
) -> TheoremReport:
    """
    d_diamond(composition, composition) <= sum of the pairwise distances.
    The left witness is telescoped through the chain: term i is evaluated at
    the image of the witness under the first i-1 reference channels, which the
    contraction property guarantees dominates the left value in total.
    """
    if not pairs:
        raise InvalidInputError("subadditivity check needs at least one pair")
    for (a, b) in pairs:
        if (a.dim_in, a.dim_out) != (b.dim_in, b.dim_out):
            raise InvalidInputError("pair dimensions differ")
    for (prev, _), (nxt, _) in zip(pairs, pairs[1:]):
        if prev.dim_out != nxt.dim_in:
            raise InvalidInputError("pairs do not compose in the given order")
    comp_a, comp_b = pairs[0]
    for a, b in pairs[1:]:
        comp_a = compose(a, comp_a)
        comp_b = compose(b, comp_b)
    lhs_est = diamond_distance(comp_a, comp_b, cfg)
    anc = comp_a.dim_in
    carried = lhs_est.witness.density().matrix
    terms = []
    transferred = []
    for a, b in pairs:
        ext_a = tensor_with_identity(a, anc)
        ext_b = tensor_with_identity(b, anc)
        t = pointwise_distance(ext_a, ext_b, carried)
        own = diamond_distance(a, b, cfg).value
        transferred.append(t)
        terms.append(max(own, t))
        carried = apply(ext_b, carried)
    return _report(
        "T1",
        f"chain of {len(pairs)} pairs (input dim {anc})",
        lhs_est.value,
        sum(terms),
        CLOSED_FORM_SLACK,
        witnesses={
            "chain_witness": lhs_est.witness,
            "transferred_terms": tuple(transferred),
            "summed_terms": tuple(terms),
        },
    )


# ---------------------------------------------------------------------------
# T2 / T3 / C1: approximating an isometry in the standard measures
# ---------------------------------------------------------------------------


def environment_vector(dilation: StinespringOp, iso: np.ndarray, state: PureState) -> np.ndarray:
    """
    The environment-side vector (<u| U^H (x) 1_env) A |u> that witnesses how
    close a dilation is to isometry-times-fixed-vector form; component e equals
    <u| U^H K_e |u>.
    """
    iso = np.asarray(iso, dtype=complex)
    if iso.shape != (dilation.dim_out, dilation.dim_in):
        raise InvalidInputError(
            f"isometry shape {iso.shape} does not match dilation "
            f"({dilation.dim_out}, {dilation.dim_in})"
        )
    if state.dim != dilation.dim_in:
        raise InvalidInputError(f"state dim {state.dim} does not match input {dilation.dim_in}")
    a3 = dilation.matrix.reshape(dilation.dim_out, dilation.dim_env, dilation.dim_in)
    return np.einsum("m,mei,i->e", (iso @ state.vector).conj(), a3, state.vector)


def _dilation_residual(dilation: StinespringOp, iso: np.ndarray, g: np.ndarray):
    # ||A - U (x) g||_op and ||g||^2 (T3 and T6).
    residual = operator_norm(dilation.matrix - np.kron(np.asarray(iso, dtype=complex), g[:, None]))
    return residual, float(np.vdot(g, g).real)


def _isometry_diamond_report(statement, ch, iso, cfg, postselected, bound) -> TheoremReport:
    # C1 / T2 / T5: the diamond distance (renormalized when `postselected`) to
    # the isometry channel against bound(eps), eps the matching state distance.
    ideal = isometry(iso, name="ideal_isometry")
    state_measure, diamond_measure = (
        ("hat-tr", "hat-diamond") if postselected else ("dtrD", "diamond")
    )
    eps = distance(state_measure, ch, ideal, cfg).value
    lhs = distance(diamond_measure, ch, ideal, cfg)
    return _report(
        statement,
        f"{ch.name or 'channel'} vs isometry (dim {ch.dim_in}->{ch.dim_out})",
        lhs.value,
        bound(eps),
        OPTIMIZER_SLACK,
        witnesses={
            "epsilon_hat" if postselected else "epsilon": eps,
            "diamond_witness": lhs.witness,
        },
    )


def check_isometry_approximation(
    ch: Channel, iso: np.ndarray, cfg: OptimizerConfig = OptimizerConfig()
) -> TheoremReport:
    """
    With eps the state-input distance to the isometry channel, the dilation is
    within 2 sqrt(eps) of U (x) g in operator norm, where g is extracted at the
    optimizer's witness; the window 1 - eps <= ||g||^2 <= ||A||_op^2 <= 1 is
    checked alongside (the lower edge uses the witness value, which the proof
    bounds pointwise).
    """
    est = trace_distance_states(ch, isometry(iso, name="ideal_isometry"), cfg)
    eps = est.value
    dilation = stinespring(ch)
    g = environment_vector(dilation, iso, est.witness)
    residual, g_sq = _dilation_residual(dilation, iso, g)
    a_sq = diamond_norm_channel(ch)
    aux = []
    if g_sq < 1.0 - eps - CLOSED_FORM_SLACK:
        aux.append(f"norm window low: ||g||^2 = {g_sq!r} < 1 - eps = {1.0 - eps!r}")
    if g_sq > a_sq + CLOSED_FORM_SLACK:
        aux.append(f"norm window high: ||g||^2 = {g_sq!r} > ||A||_op^2 = {a_sq!r}")
    if a_sq > 1.0 + 1e-9:
        aux.append(f"||A||_op^2 = {a_sq!r} exceeds 1")
    return _report(
        "T3",
        f"{ch.name or 'channel'} vs isometry (dim {ch.dim_in}->{ch.dim_out})",
        residual,
        2.0 * math.sqrt(max(eps, 0.0)),
        OPTIMIZER_SLACK,
        aux=aux,
        witnesses={
            "epsilon": eps,
            "state_witness": est.witness,
            "g_norm_sq": g_sq,
            "dilation_norm_sq": a_sq,
        },
    )


def check_diamond_from_state_distance(
    ch: Channel, iso: np.ndarray, cfg: OptimizerConfig = OptimizerConfig()
) -> TheoremReport:
    """d_diamond <= 4 sqrt(eps) + eps against an isometry channel."""
    return _isometry_diamond_report(
        "C1", ch, iso, cfg, False, lambda eps: 4.0 * math.sqrt(max(eps, 0.0)) + eps
    )


def check_trace_preserving_diamond_bound(
    ch: Channel, iso: np.ndarray, cfg: OptimizerConfig = OptimizerConfig()
) -> TheoremReport:
    """
    The trace-preserving strengthening d_diamond <= sqrt(2 eps); requires the
    channel to actually be trace-preserving.
    """
    if not ch.is_trace_preserving():
        raise ValidityError("precondition: the approximating channel must be trace-preserving")
    return _isometry_diamond_report(
        "T2", ch, iso, cfg, False, lambda eps: math.sqrt(2.0 * max(eps, 0.0))
    )


# ---------------------------------------------------------------------------
# T4 / C2: weak subadditivity and weak contractivity of the renormalized
# diamond distance
# ---------------------------------------------------------------------------


def check_postselected_subadditivity(
    inner_a: Channel,
    inner_b: Channel,
    outer_a: Channel,
    outer_b: Channel,
    anc_dim: int = 1,
    cfg: OptimizerConfig = OptimizerConfig(),
) -> TheoremReport:
    """
    hat d_diamond(outer_a o (inner_a (x) I), outer_b o (inner_b (x) I))
    <= hat d_diamond(outer_a, outer_b) + hat d_diamond(inner_a, inner_b),
    requiring outer_b trace-preserving and all channels postselection-valid.
    Each right term is the max of its own estimate and the left witness pushed
    through the renormalized-composition identity, which restores soundness.
    """
    require_postselection(inner_a, inner_b, outer_a, outer_b)
    if not outer_b.is_trace_preserving():
        raise ValidityError("precondition: outer_b must be trace-preserving")
    if (inner_a.dim_in, inner_a.dim_out) != (inner_b.dim_in, inner_b.dim_out):
        raise InvalidInputError("inner pair dimensions differ")
    if (outer_a.dim_in, outer_a.dim_out) != (outer_b.dim_in, outer_b.dim_out):
        raise InvalidInputError("outer pair dimensions differ")
    if outer_a.dim_in != inner_a.dim_out * anc_dim:
        raise InvalidInputError(
            f"outer input dim {outer_a.dim_in} != inner output {inner_a.dim_out} * anc {anc_dim}"
        )
    comp_a = compose(outer_a, tensor_with_identity(inner_a, anc_dim))
    comp_b = compose(outer_b, tensor_with_identity(inner_b, anc_dim))
    lhs_est = postselected_diamond_distance(comp_a, comp_b, cfg)
    stab = comp_a.dim_in
    rho = lhs_est.witness.density().matrix
    inner_transfer = pointwise_distance(inner_a, inner_b, rho, anc_dim * stab, True)
    pushed = apply(tensor_with_identity(inner_a, anc_dim * stab), rho)
    pushed = pushed / np.trace(pushed).real
    outer_transfer = pointwise_distance(outer_a, outer_b, pushed, stab, True)
    est_outer = postselected_diamond_distance(outer_a, outer_b, cfg).value
    est_inner = postselected_diamond_distance(inner_a, inner_b, cfg).value
    rhs = max(est_outer, outer_transfer) + max(est_inner, inner_transfer)
    return _report(
        "T4",
        f"inner dim {inner_a.dim_in}->{inner_a.dim_out}, ancilla {anc_dim}, "
        f"outer dim {outer_a.dim_in}->{outer_a.dim_out}",
        lhs_est.value,
        rhs,
        CLOSED_FORM_SLACK,
        witnesses={
            "composed_witness": lhs_est.witness,
            "outer_terms": (est_outer, outer_transfer),
            "inner_terms": (est_inner, inner_transfer),
        },
    )


def check_postselected_contractivity(
    tau: Channel, chan_a: Channel, chan_b: Channel, cfg: OptimizerConfig = OptimizerConfig()
) -> TheoremReport:
    """
    For trace-preserving tau: hat d_diamond(tau o A, tau o B) <= hat
    d_diamond(A, B).  The right side is the max of its estimate and the left
    witness evaluated in the uncomposed objective (pointwise dominating).
    """
    if not tau.is_trace_preserving():
        raise ValidityError("precondition: tau must be trace-preserving")
    require_postselection(chan_a, chan_b)
    lhs_est = postselected_diamond_distance(compose(tau, chan_a), compose(tau, chan_b), cfg)
    transfer = evaluate_witness("hat-diamond", chan_a, chan_b, lhs_est.witness)
    est_rhs = postselected_diamond_distance(chan_a, chan_b, cfg).value
    return _report(
        "C2",
        f"tau o ({chan_a.name or 'A'}, {chan_b.name or 'B'}) (dim {chan_a.dim_in})",
        lhs_est.value,
        max(est_rhs, transfer),
        CLOSED_FORM_SLACK,
        witnesses={
            "composed_witness": lhs_est.witness,
            "uncomposed_estimate": est_rhs,
            "transferred": transfer,
        },
    )


# ---------------------------------------------------------------------------
# T5 / T6: postselected isometry approximation
# ---------------------------------------------------------------------------


def check_postselected_diamond_bound(
    ch: Channel, iso: np.ndarray, cfg: OptimizerConfig = OptimizerConfig()
) -> TheoremReport:
    """
    T5: with eps-hat the renormalized trace distance to the isometry channel,
    the renormalized diamond distance is at most 24 sqrt(eps) + 18 eps.
    """
    return _isometry_diamond_report(
        "T5", ch, iso, cfg, True, lambda eps: 24.0 * math.sqrt(max(eps, 0.0)) + 18.0 * eps
    )


def check_postselected_dilation_bound(
    ch: Channel, iso: np.ndarray, cfg: OptimizerConfig = OptimizerConfig()
) -> TheoremReport:
    """
    T6: with eps-hat the renormalized trace distance to the isometry channel,
    the dilation residual ||A - U (x) g||_op is at most 6 ||A||_op sqrt(eps),
    with the window (1 - 9 eps) ||A||_op^2 <= ||g||^2 <= ||A||_op^2, where g is
    ||A||_op times the unit-channel environment vector.
    """
    ideal = isometry(iso, name="ideal_isometry")
    eps = postselected_trace_distance(ch, ideal, cfg).value
    k = diamond_norm_channel(ch)
    unit = scale(ch, 1.0 / k, name="unit_scaled")
    d_est = trace_distance_states(unit, ideal, cfg)
    a_norm = math.sqrt(k)
    g = a_norm * environment_vector(stinespring(unit), iso, d_est.witness)
    residual, g_sq = _dilation_residual(stinespring(ch), iso, g)
    aux = []
    if g_sq < (1.0 - 9.0 * eps) * k - OPTIMIZER_SLACK:
        aux.append(f"norm window low: ||g||^2 = {g_sq!r} < (1 - 9 eps) k = {(1.0 - 9.0 * eps) * k!r}")
    if g_sq > k + CLOSED_FORM_SLACK:
        aux.append(f"norm window high: ||g||^2 = {g_sq!r} > ||A||_op^2 = {k!r}")
    return _report(
        "T6",
        f"{ch.name or 'channel'} vs isometry (dim {ch.dim_in}->{ch.dim_out})",
        residual,
        6.0 * a_norm * math.sqrt(max(eps, 0.0)),
        OPTIMIZER_SLACK,
        aux=aux,
        witnesses={
            "epsilon_hat": eps,
            "unit_state_distance": d_est.value,
            "g_norm_sq": g_sq,
            "dilation_norm_sq": k,
        },
    )


# ---------------------------------------------------------------------------
# conversion between renormalized and subnormalized closeness
# ---------------------------------------------------------------------------


def _objective_output_separation(ch: Channel):
    stack = ch.kraus_stack
    d = ch.dim_in

    def difference(u: np.ndarray, v: np.ndarray) -> np.ndarray:
        return pure_outputs(stack, u[:, :, None]) - pure_outputs(stack, v[:, :, None])

    def fn(x: np.ndarray) -> np.ndarray:
        u, _, bad_u = unit_rows(x[:, : 2 * d], d)
        v, _, bad_v = unit_rows(x[:, 2 * d :], d)
        vals = herm_trace_norms(difference(u, v))
        vals[bad_u | bad_v] = -np.inf
        return vals

    def grad(x: np.ndarray) -> np.ndarray:
        # With S = sign(Psi(uu^H) - Psi(vv^H)) and M = sum_e K_e^H S K_e:
        # 2 M u in u and -2 M v in v.
        u, norms_u, bad_u = unit_rows(x[:, : 2 * d], d)
        v, norms_v, bad_v = unit_rows(x[:, 2 * d :], d)
        sign = herm_sign(difference(u, v))
        m_op = np.einsum("eji,mjk,ekl->mil", stack.conj(), sign, stack)
        bad = bad_u | bad_v
        return np.concatenate(
            [
                unit_rows_gradient(2.0 * (m_op @ u[:, :, None])[:, :, 0], u, norms_u, bad),
                unit_rows_gradient(-2.0 * (m_op @ v[:, :, None])[:, :, 0], v, norms_v, bad),
            ],
            axis=1,
        )

    return fn, grad, 4 * d


def output_separation(ch: Channel, cfg: OptimizerConfig = OptimizerConfig()) -> float:
    """
    Largest trace distance between two outputs on pure inputs (the objective is
    jointly convex in the two states, so pure pairs are exhaustive).
    """
    res = maximize(*_objective_output_separation(ch), cfg)
    return float(res.values[res.winner])


def conversion_factor(ch: Channel, cfg: OptimizerConfig = OptimizerConfig()) -> float:
    """
    The factor connecting renormalized closeness to probability stability:
    8 when the channel is a single square unitary Kraus operator, otherwise
    40 / s for the output separation s, and infinity when the outputs never
    separate (s below 1e-9).  Requires a trace-preserving channel.
    """
    if not ch.is_trace_preserving():
        raise ValidityError("precondition: conversion factor is defined for trace-preserving maps")
    if ch.rank == 1 and ch.dim_in == ch.dim_out:
        op = ch.kraus[0]
        eye = np.eye(ch.dim_in)
        if (
            operator_norm(op.conj().T @ op - eye) <= 1e-10
            and operator_norm(op @ op.conj().T - eye) <= 1e-10
        ):
            return 8.0
    s = output_separation(ch, cfg)
    if s < SEPARATION_FLOOR:
        return math.inf
    return 40.0 / s


@dataclass(frozen=True)
class ConversionResult:
    """
    Two-sided conversion between the renormalized trace distance and the
    subnormalized state distance of the unit-scaled channel, plus the
    probability-stability bound.  `right_vacuous` marks an infinite factor
    (no finite right bound exists; the right check then passes vacuously).
    """

    k: float
    alpha: float
    hat_distance: float
    state_distance: float
    probability_spread: float
    left_ok: bool
    right_ok: bool
    probability_ok: bool
    right_vacuous: bool
    witnesses: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.left_ok and self.right_ok and self.probability_ok


def _objective_probability_spread(ch: Channel, k: float):
    effect = ch.effect
    d = ch.dim_in

    def fn(x: np.ndarray) -> np.ndarray:
        u, _, bad = unit_rows(x, d)
        probs = np.einsum("mi,ij,mj->m", u.conj(), effect, u).real
        vals = np.abs(probs - k)
        vals[bad] = -np.inf
        return vals

    def grad(x: np.ndarray) -> np.ndarray:
        u, norms, bad = unit_rows(x, d)
        eu = u @ effect.T
        probs = (u.conj() * eu).sum(axis=1).real
        return unit_rows_gradient(2.0 * np.sign(probs - k)[:, None] * eu, u, norms, bad)

    return fn, grad, 2 * d


def check_conversion(
    ch: Channel, reference: Channel, cfg: OptimizerConfig = OptimizerConfig()
) -> ConversionResult:
    """
    Against a trace-preserving reference with conversion factor alpha and
    k = ||Psi||_diamond:

      (a) max_rho |tr Psi(rho) - k|  <=  alpha k D-hat,
      (b) D-hat / 2                  <=  d_tr^D(Psi/k, reference),
      (c) d_tr^D(Psi/k, reference)   <=  (alpha + 1) D-hat.

    (b) is certified at the state-distance witness through the pointwise chain
    f(rho) <= 2 ||Psi(rho)/k - Phi(rho)||; (c) additionally pools the
    renormalized witness into the state-distance value.
    """
    require_postselection(ch)
    if not reference.is_trace_preserving():
        raise ValidityError("precondition: reference must be trace-preserving")
    k = diamond_norm_channel(ch)
    alpha = conversion_factor(reference, cfg)
    hat_est = postselected_trace_distance(ch, reference, cfg)
    unit = scale(ch, 1.0 / k, name="unit_scaled")
    state_est = trace_distance_states(unit, reference, cfg)
    transfer_state = evaluate_witness("dtrD", unit, reference, hat_est.witness)
    state_distance = max(state_est.value, transfer_state)

    # (b) at the state witness: renormalized value vs twice the exact
    # state-objective value there.
    f_at_state = evaluate_witness("hat-tr", ch, reference, state_est.witness)
    g_at_state = evaluate_witness("dtrD", unit, reference, state_est.witness)
    left_ok = 0.5 * f_at_state <= g_at_state + CLOSED_FORM_SLACK

    res = maximize(*_objective_probability_spread(ch, k), cfg)
    spread = float(res.values[res.winner])
    spread = max(
        spread, abs(float(np.trace(apply(ch, hat_est.witness)).real) - k)
    )

    if math.isinf(alpha):
        right_vacuous = True
        right_ok = True
        probability_ok = True
    else:
        right_vacuous = False
        bound = (alpha + 1.0) * hat_est.value
        right_ok = state_distance <= bound + OPTIMIZER_SLACK
        probability_ok = spread <= alpha * k * hat_est.value + OPTIMIZER_SLACK
    return ConversionResult(
        k=k,
        alpha=alpha,
        hat_distance=hat_est.value,
        state_distance=state_distance,
        probability_spread=spread,
        left_ok=left_ok,
        right_ok=right_ok,
        probability_ok=probability_ok,
        right_vacuous=right_vacuous,
        witnesses={
            "hat_witness": hat_est.witness,
            "state_witness": state_est.witness,
            "left_pointwise": (f_at_state, g_at_state),
        },
    )


def conversion_report(
    ch: Channel, reference: Channel, cfg: OptimizerConfig = OptimizerConfig()
) -> TheoremReport:
    """ConversionResult reduced to one report line (headline: right bound)."""
    res = check_conversion(ch, reference, cfg)
    rhs = math.inf if res.right_vacuous else (res.alpha + 1.0) * res.hat_distance
    aux = []
    if not res.left_ok:
        aux.append("left bound failed: D-hat / 2 exceeds the state distance")
    if not res.probability_ok:
        aux.append(
            f"probability spread {res.probability_spread!r} exceeds "
            f"alpha k D-hat = {res.alpha * res.k * res.hat_distance!r}"
        )
    return _report(
        "L2",
        f"{ch.name or 'channel'} vs {reference.name or 'reference'} "
        f"(dim {ch.dim_in}, alpha={res.alpha!r})",
        res.state_distance,
        rhs,
        OPTIMIZER_SLACK,
        aux=aux,
        witnesses={"result": res},
    )


# ---------------------------------------------------------------------------
# counterexample reports
# ---------------------------------------------------------------------------


def nonconvexity_report(epsilon: float) -> TheoremReport:
    """
    CE1: the renormalized objective vanishes at both basis projectors but
    equals 2 - 4 eps at their midpoint, so it is not convex and pure-state
    optimization alone would be unsound.  Direct evaluation only.
    """
    psi, phi = nonconvexity_pair(epsilon)
    f00 = renormalized_distance(psi, phi, DensityMatrix(np.diag([1.0, 0.0]).astype(complex)))
    f11 = renormalized_distance(psi, phi, DensityMatrix(np.diag([0.0, 1.0]).astype(complex)))
    fmid = renormalized_distance(psi, phi, DensityMatrix.maximally_mixed(2))
    expected = 2.0 - 4.0 * epsilon
    deviation = max(
        abs(f00), abs(f11), abs(fmid - expected), 0.5 * (f00 + f11) - fmid
    )
    return _report(
        "CE1",
        f"nonconvexity pair, epsilon={epsilon!r}",
        deviation,
        1e-9,
        0.0,
        witnesses={"f00": f00, "f11": f11, "fmid": fmid, "expected_mid": expected},
    )


def contractivity_counterexample(epsilon: float) -> tuple[float, float]:
    """
    CE2 values: the renormalized diamond distance of the constant pair before
    (1) and after (2/(1+eps)) the filter, by direct evaluation at a maximally
    entangled state (all four compositions are constant channels, so any
    faithful input attains the supremum; no optimization involved).
    """
    psi, phi, tau = contractivity_triple(epsilon)
    ent = _max_entangled(3)
    before = evaluate_witness("hat-diamond", psi, phi, ent)
    after = evaluate_witness("hat-diamond", compose(tau, psi), compose(tau, phi), ent)
    return before, after


def contractivity_report(epsilon: float) -> TheoremReport:
    """CE2: postprocessing strictly increases the renormalized distance."""
    before, after = contractivity_counterexample(epsilon)
    expected_after = 2.0 / (1.0 + epsilon)
    deviation = max(
        abs(before - 1.0),
        abs(after - expected_after),
        before - after,
        (2.0 - 2.0 * epsilon) - after,
    )
    return _report(
        "CE2",
        f"contractivity triple, epsilon={epsilon!r}",
        deviation,
        1e-9,
        0.0,
        witnesses={"before": before, "after": after, "expected_after": expected_after},
    )


def alpha_necessity_report(cfg: OptimizerConfig = OptimizerConfig()) -> TheoremReport:
    """
    CE3: a pair at renormalized distance zero whose unit-scaled state distance
    is 1/2, with an infinite conversion factor; no finite factor can relate the
    two, so the right conversion bound is necessarily vacuous here.
    """
    psi, phi = conversion_pair()
    res = check_conversion(psi, phi, cfg)
    deviation = max(
        res.hat_distance,
        abs(res.state_distance - 0.5),
        0.0 if math.isinf(res.alpha) else math.inf,
        0.0 if res.right_vacuous else math.inf,
    )
    return _report(
        "CE3",
        "conversion pair (dim 2)",
        deviation,
        CLOSED_FORM_SLACK,
        0.0,
        witnesses={"result": res},
    )


# ---------------------------------------------------------------------------
# figure curves
# ---------------------------------------------------------------------------


def nonconvexity_curve(epsilon: float, grid: int = 200) -> np.ndarray:
    """
    Rows (p, f(rho_p)) for rho_p = diag(1-p, p) on a uniform grid of grid+1
    points, evaluated directly (no optimization, no closed form).
    """
    if grid < 1:
        raise InvalidInputError(f"grid must be >= 1, got {grid}")
    psi, phi = nonconvexity_pair(epsilon)
    rows = np.empty((grid + 1, 2))
    for i in range(grid + 1):
        p = i / grid
        rho = DensityMatrix(np.diag([1.0 - p, p]).astype(complex))
        rows[i, 0] = p
        rows[i, 1] = renormalized_distance(psi, phi, rho)
    return rows


def contractivity_curve(epsilon: float) -> tuple[float, float, float]:
    """(epsilon, before, after) for the contractivity counterexample."""
    before, after = contractivity_counterexample(epsilon)
    return float(epsilon), before, after
