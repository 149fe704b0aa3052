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

Each checker's steps yield their independent `distance` requests at once (see
`checker`), so `run_checks` can batch many instances' estimates in lockstep.
"""

from __future__ import annotations

import functools
import inspect
import math
from collections.abc import Generator
from dataclasses import dataclass, field

import numpy as np
import numpy.linalg as npl

from .channels import (
    Channel,
    DensityMatrix,
    PureState,
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
    diamond_norm_channel,
    distance_batch,
    evaluate_witness,
    output_separation_bound,
    pointwise_distance,
)
from .linalg import InvalidInputError, as_array, check_integer, operator_norm

# Comparisons between exactly evaluated quantities tolerate rounding only;
# comparisons whose small side involves an optimizer estimate get more room.
CLOSED_FORM_SLACK = 1e-6
OPTIMIZER_SLACK = 1e-3

# A separation bound below this is treated as zero (no finite conversion
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
    aux_violations: tuple[str, ...] = ()
    witnesses: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.lhs <= self.rhs + self.slack_tolerance and not self.aux_violations

    @property
    def slack(self) -> float:
        return self.rhs - self.lhs


def _report(statement, description, lhs, rhs, slack_tolerance, aux=(), witnesses=None):
    lhs, rhs, aux = float(lhs), float(rhs), tuple(aux)  # report lines print reprs of floats
    return TheoremReport(statement, description, lhs, rhs, slack_tolerance, aux, witnesses or {})


# A checker's steps yield lists of (measure, chan_a, chan_b, cfg) requests, are
# sent back the estimates of each, and return the report.
CheckSteps = Generator[list, list, TheoremReport]


def run_checks(checks: list) -> list[TheoremReport]:
    """
    Run checker steps in lockstep and return their reports in order (items
    that are reports already pass through): each round answers every live
    checker's requests of the round before with one `distance_batch` call.
    """
    reports = list(checks)
    sent = {i: None for i, c in enumerate(checks) if isinstance(c, Generator)}
    while sent:
        asked = []
        for i, estimates in sent.items():
            try:
                asked.append((i, checks[i].send(estimates)))
            except StopIteration as stop:
                reports[i] = stop.value
        answers = iter(distance_batch([r for _, requests in asked for r in requests]))
        sent = {i: [next(answers) for _ in requests] for i, requests in asked}
    return reports


def checker(steps):
    """
    Make a checker from its steps (a generator function of the same
    arguments), which it keeps as `.steps`; a call runs one instance.
    """

    @functools.wraps(steps)
    def check(*args, **kwargs) -> TheoremReport:
        return run_checks([steps(*args, **kwargs)])[0]

    check.steps = steps
    check.__signature__ = inspect.signature(steps).replace(return_annotation="TheoremReport")
    return check


def _zero_like(ch: Channel) -> Channel:
    return Channel((np.zeros((ch.dim_out, ch.dim_in), dtype=complex),), name="zero")


def _max_entangled(dim: int) -> PureState:
    return PureState.normalized(np.eye(dim, dtype=complex).reshape(-1))


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


@checker
def check_state_distance_doubling(
    chan_a: Channel, chan_b: Channel, cfg: OptimizerConfig = OptimizerConfig()
) -> CheckSteps:
    """
    d_tr <= 2 d_tr^D: the rank-one witness (u, v) is transferred to the four
    phase-mixture states, whose best state-objective value must be at least
    half the rank-one value.  Both sides are exact evaluations at witnesses.
    """
    (est,) = yield [("dtr", chan_a, chan_b, cfg)]
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


@checker
def check_dilation_norm_identity(
    ch: Channel, cfg: OptimizerConfig = OptimizerConfig()
) -> CheckSteps:
    """
    ||Psi||_diamond = ||Psi||_tr^D = ||A||_op^2: the exact effect-spectrum
    value against two independent optimizer routes (stabilized and state-input
    norms of Psi alone, realized as distances to the zero channel).
    """
    exact = diamond_norm_channel(ch)
    dilation = operator_norm(stinespring(ch)) ** 2
    zero = _zero_like(ch)
    diamond_est, states_est = yield [("diamond", ch, zero, cfg), ("dtrD", ch, zero, cfg)]
    route_diamond, route_states = diamond_est.value, states_est.value
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


@checker
def check_subadditivity(
    pairs: list[tuple[Channel, Channel]], cfg: OptimizerConfig = OptimizerConfig()
) -> CheckSteps:
    """
    d_diamond(composition, composition) <= sum of the pairwise distances.
    The left witness is telescoped through the chain: term i is evaluated at
    the image of the witness under the first i-1 reference channels, which the
    contraction property guarantees dominates the left value in total.
    """
    if not pairs:
        raise InvalidInputError("subadditivity check needs at least one pair")
    comp_a, comp_b = pairs[0]
    for a, b in pairs[1:]:
        comp_a = compose(a, comp_a)
        comp_b = compose(b, comp_b)
    lhs_est, *own_ests = yield [("diamond", a, b, cfg) for a, b in [(comp_a, comp_b), *pairs]]
    anc = comp_a.dim_in
    carried = lhs_est.witness.density().matrix
    terms = []
    transferred = []
    for (a, b), own in zip(pairs, own_ests):
        t = pointwise_distance(a, b, carried, anc)
        transferred.append(t)
        terms.append(max(own.value, t))
        carried = apply(b, carried, anc)
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


def environment_vector(ch: Channel, iso: np.ndarray, state: PureState) -> np.ndarray:
    """
    The environment-side vector (<u| U^H (x) 1_env) A |u> that witnesses how
    close the channel's Stinespring dilation A is to isometry-times-fixed-vector
    form; component e equals <u| U^H K_e |u>.
    """
    iso = as_array(iso, "iso")
    if iso.shape != (ch.dim_out, ch.dim_in):
        raise InvalidInputError(
            f"isometry shape {iso.shape} does not match dilation ({ch.dim_out}, {ch.dim_in})"
        )
    if state.dim != ch.dim_in:
        raise InvalidInputError(f"state dim {state.dim} does not match input {ch.dim_in}")
    a3 = stinespring(ch).reshape(ch.dim_out, ch.rank, ch.dim_in)
    return np.einsum("m,mei,i->e", (iso @ state.vector).conj(), a3, state.vector)


def _dilation_residual(ch: Channel, iso: np.ndarray, g: np.ndarray):
    # ||A - U (x) g||_op for the dilation A of ch, and ||g||^2 (T3 and T6).
    residual = operator_norm(stinespring(ch) - np.kron(np.asarray(iso, dtype=complex), g[:, None]))
    return residual, float(np.vdot(g, g).real)


def _isometry_diamond_steps(statement, ch, iso, cfg, postselected, bound) -> CheckSteps:
    # C1 / T2 / T5: the diamond distance (renormalized when `postselected`) to
    # the isometry channel against bound(eps), eps the matching state distance.
    ideal = isometry(iso, name="ideal_isometry")
    state_measure, diamond_measure = (
        ("hat-tr", "hat-diamond") if postselected else ("dtrD", "diamond")
    )
    eps_est, lhs = yield [(state_measure, ch, ideal, cfg), (diamond_measure, ch, ideal, cfg)]
    eps = eps_est.value
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


@checker
def check_isometry_approximation(
    ch: Channel, iso: np.ndarray, cfg: OptimizerConfig = OptimizerConfig()
) -> CheckSteps:
    """
    With eps the state-input distance to the isometry channel, the dilation is
    within 2 sqrt(eps) of U (x) g in operator norm, where g is extracted at the
    optimizer's witness; the window 1 - eps <= ||g||^2 <= ||A||_op^2 is
    checked alongside (the lower edge uses the witness value, which the proof
    bounds pointwise).  Its upper edge ||A||_op^2 <= 1 is guaranteed by Channel.
    """
    (est,) = yield [("dtrD", ch, isometry(iso, name="ideal_isometry"), cfg)]
    eps = est.value
    g = environment_vector(ch, iso, est.witness)
    residual, g_sq = _dilation_residual(ch, iso, g)
    a_sq = diamond_norm_channel(ch)
    aux = []
    if g_sq < 1.0 - eps - CLOSED_FORM_SLACK:
        aux.append(f"norm window low: ||g||^2 = {g_sq!r} < 1 - eps = {1.0 - eps!r}")
    if g_sq > a_sq + CLOSED_FORM_SLACK:
        aux.append(f"norm window high: ||g||^2 = {g_sq!r} > ||A||_op^2 = {a_sq!r}")
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


@checker
def check_diamond_from_state_distance(
    ch: Channel, iso: np.ndarray, cfg: OptimizerConfig = OptimizerConfig()
) -> CheckSteps:
    """d_diamond <= 4 sqrt(eps) + eps against an isometry channel."""
    return (yield from _isometry_diamond_steps(
        "C1", ch, iso, cfg, False, lambda eps: 4.0 * math.sqrt(max(eps, 0.0)) + eps
    ))


@checker
def check_trace_preserving_diamond_bound(
    ch: Channel, iso: np.ndarray, cfg: OptimizerConfig = OptimizerConfig()
) -> CheckSteps:
    """
    The trace-preserving strengthening d_diamond <= sqrt(2 eps); requires the
    channel to actually be trace-preserving.
    """
    if not ch.is_trace_preserving():
        raise ValidityError("precondition: the approximating channel must be trace-preserving")
    return (yield from _isometry_diamond_steps(
        "T2", ch, iso, cfg, False, lambda eps: math.sqrt(2.0 * max(eps, 0.0))
    ))


# ---------------------------------------------------------------------------
# T4 / C2: weak subadditivity and weak contractivity of the renormalized
# diamond distance
# ---------------------------------------------------------------------------


@checker
def check_postselected_subadditivity(
    inner_a: Channel,
    inner_b: Channel,
    outer_a: Channel,
    outer_b: Channel,
    anc_dim: int = 1,
    cfg: OptimizerConfig = OptimizerConfig(),
) -> CheckSteps:
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
    comp_a = compose(outer_a, tensor_with_identity(inner_a, anc_dim))
    comp_b = compose(outer_b, tensor_with_identity(inner_b, anc_dim))
    pairs = ((comp_a, comp_b), (outer_a, outer_b), (inner_a, inner_b))
    lhs_est, outer_est, inner_est = yield [("hat-diamond", a, b, cfg) for a, b in pairs]
    stab = comp_a.dim_in
    rho = lhs_est.witness.density().matrix
    inner_transfer = pointwise_distance(inner_a, inner_b, rho, anc_dim * stab, True)
    pushed = apply(inner_a, rho, anc_dim * stab)
    pushed = pushed / np.trace(pushed).real
    outer_transfer = pointwise_distance(outer_a, outer_b, pushed, stab, True)
    est_outer, est_inner = outer_est.value, inner_est.value
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


@checker
def check_postselected_contractivity(
    tau: Channel, chan_a: Channel, chan_b: Channel, cfg: OptimizerConfig = OptimizerConfig()
) -> CheckSteps:
    """
    For trace-preserving tau: hat d_diamond(tau o A, tau o B) <= hat
    d_diamond(A, B).  The right side is the max of its estimate and the left
    witness evaluated in the uncomposed objective (pointwise dominating).
    """
    if not tau.is_trace_preserving():
        raise ValidityError("precondition: tau must be trace-preserving")
    require_postselection(chan_a, chan_b)
    pairs = ((compose(tau, chan_a), compose(tau, chan_b)), (chan_a, chan_b))
    lhs_est, rhs_est = yield [("hat-diamond", a, b, cfg) for a, b in pairs]
    transfer = evaluate_witness("hat-diamond", chan_a, chan_b, lhs_est.witness)
    est_rhs = rhs_est.value
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


@checker
def check_postselected_diamond_bound(
    ch: Channel, iso: np.ndarray, cfg: OptimizerConfig = OptimizerConfig()
) -> CheckSteps:
    """
    T5: with eps-hat the renormalized trace distance to the isometry channel,
    the renormalized diamond distance is at most 24 sqrt(eps) + 18 eps.
    """
    return (yield from _isometry_diamond_steps(
        "T5", ch, iso, cfg, True, lambda eps: 24.0 * math.sqrt(max(eps, 0.0)) + 18.0 * eps
    ))


@checker
def check_postselected_dilation_bound(
    ch: Channel, iso: np.ndarray, cfg: OptimizerConfig = OptimizerConfig()
) -> CheckSteps:
    """
    T6: with eps-hat the renormalized trace distance to the isometry channel,
    the dilation residual ||A - U (x) g||_op is at most 6 ||A||_op sqrt(eps),
    with the window (1 - 9 eps) ||A||_op^2 <= ||g||^2 <= ||A||_op^2, where g is
    ||A||_op times the unit-channel environment vector.
    """
    ideal = isometry(iso, name="ideal_isometry")
    k = diamond_norm_channel(ch)
    unit = scale(ch, 1.0 / k, name="unit_scaled")
    eps_est, d_est = yield [("hat-tr", ch, ideal, cfg), ("dtrD", unit, ideal, cfg)]
    eps = eps_est.value
    a_norm = math.sqrt(k)
    g = a_norm * environment_vector(unit, iso, d_est.witness)
    residual, g_sq = _dilation_residual(ch, iso, g)
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


def conversion_factor(ch: Channel) -> float:
    """
    The factor connecting renormalized closeness to probability stability:
    8 when the channel has a single square Kraus operator (unitary within
    TRACE_ATOL, by trace preservation), otherwise 40 / s-bar for the upper
    bound s-bar >= s on the output separation (so at most the paper's 40 / s),
    and infinity when s-bar is below 1e-9.  Requires a trace-preserving channel.
    """
    if not ch.is_trace_preserving():
        raise ValidityError("precondition: conversion factor is defined for trace-preserving maps")
    if ch.rank == 1 and ch.dim_in == ch.dim_out:
        return 8.0
    s = output_separation_bound(ch)
    if s < SEPARATION_FLOOR:
        return math.inf
    return 40.0 / s


@checker
def check_conversion(
    ch: Channel, reference: Channel, cfg: OptimizerConfig = OptimizerConfig()
) -> CheckSteps:
    """
    L2: against a trace-preserving reference with conversion factor alpha and
    k = ||Psi||_diamond = lambda_max(E):

      (a) max_rho |tr Psi(rho) - k|  <=  alpha k D-hat,
      (b) D-hat / 2                  <=  d_tr^D(Psi/k, reference),
      (c) d_tr^D(Psi/k, reference)   <=  (alpha + 1) D-hat.

    (c) is the reported line; (a) and (b) are auxiliary conditions.
    The spread in (a) is exact: tr Psi(rho) = tr(E rho) covers
    [lambda_min(E), lambda_max(E)], so it is k - lambda_min(E).
    (b) is certified at the state-distance witness through the pointwise chain
    f(rho) <= 2 ||Psi(rho)/k - Phi(rho)||; (c) additionally pools the
    renormalized witness into the state-distance value.  An infinite factor
    makes both bounds infinite: no finite right bound exists, and (a) and (c)
    pass vacuously.
    """
    require_postselection(ch)
    k = diamond_norm_channel(ch)
    alpha = conversion_factor(reference)
    unit = scale(ch, 1.0 / k, name="unit_scaled")
    hat_est, state_est = yield [("hat-tr", ch, reference, cfg), ("dtrD", unit, reference, cfg)]
    transfer_state = evaluate_witness("dtrD", unit, reference, hat_est.witness)
    state_distance = max(state_est.value, transfer_state)

    # (b) at the state witness: renormalized value vs twice the exact
    # state-objective value there, which is the estimate's own value.
    f_at_state = evaluate_witness("hat-tr", ch, reference, state_est.witness)

    spread = k - float(ch.effect_eigenvalues[0])
    # Infinite alpha gives infinite bounds; alpha * D-hat would be NaN at D-hat = 0.
    if math.isinf(alpha):
        right_bound = probability_bound = math.inf
    else:
        right_bound = (alpha + 1.0) * hat_est.value
        probability_bound = alpha * k * hat_est.value
    aux = []
    if not 0.5 * f_at_state <= state_est.value + CLOSED_FORM_SLACK:
        aux.append("left bound failed: D-hat / 2 exceeds the state distance")
    if not spread <= probability_bound + OPTIMIZER_SLACK:
        aux.append(
            f"probability spread {spread!r} exceeds alpha k D-hat = {probability_bound!r}"
        )
    return _report(
        "L2",
        f"{ch.name or 'channel'} vs {reference.name or 'reference'} "
        f"(dim {ch.dim_in}, alpha={alpha!r})",
        state_distance,
        right_bound,
        OPTIMIZER_SLACK,
        aux=aux,
        witnesses={
            "k": k,
            "alpha": alpha,
            "hat_distance": hat_est.value,
            "probability_spread": spread,
            "probability_bound": probability_bound,
            "hat_witness": hat_est.witness,
            "state_witness": state_est.witness,
            "left_pointwise": (f_at_state, state_est.value),
        },
    )


# ---------------------------------------------------------------------------
# figure curves
# ---------------------------------------------------------------------------


def nonconvexity_curve(epsilon: float, grid: int = 200) -> np.ndarray:
    """
    Rows (p, f(rho_p)) for rho_p = diag(1-p, p) on a uniform grid of grid+1
    points, evaluated directly (no optimization, no closed form).
    """
    check_integer("grid", grid, 1)
    psi, phi = nonconvexity_pair(epsilon)
    rows = np.empty((grid + 1, 2))
    for i in range(grid + 1):
        p = i / grid
        rho = DensityMatrix(np.diag([1.0 - p, p]).astype(complex))
        rows[i, 0] = p
        rows[i, 1] = evaluate_witness("hat-tr", psi, phi, rho)
    return rows


def contractivity_curve(epsilon: float) -> tuple[float, float, float]:
    """
    (epsilon, before, after): the renormalized diamond distance of the
    constant pair before (1) and after (2/(1+eps)) the filter, by direct
    evaluation at a maximally entangled state (all four compositions are
    constant channels, so any faithful input attains the supremum; no
    optimization involved).
    """
    psi, phi, tau = contractivity_triple(epsilon)
    ent = _max_entangled(3)
    before = evaluate_witness("hat-diamond", psi, phi, ent)
    after = evaluate_witness("hat-diamond", compose(tau, psi), compose(tau, phi), ent)
    return float(epsilon), before, after


# ---------------------------------------------------------------------------
# counterexample reports
# ---------------------------------------------------------------------------


def nonconvexity_report(epsilon: float) -> TheoremReport:
    """
    CE1: the renormalized objective vanishes at both basis projectors but
    equals 2 - 4 eps at their midpoint, so it is not convex and pure-state
    optimization alone would be unsound.  Direct evaluation only.
    """
    f00, fmid, f11 = nonconvexity_curve(epsilon, 2)[:, 1].tolist()
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


def contractivity_report(epsilon: float) -> TheoremReport:
    """CE2: postprocessing strictly increases the renormalized distance."""
    _, before, after = contractivity_curve(epsilon)
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


@checker
def alpha_necessity_report(cfg: OptimizerConfig = OptimizerConfig()) -> CheckSteps:
    """
    CE3: a pair at renormalized distance zero whose unit-scaled state distance
    is 1/2, with an infinite conversion factor; no finite factor can relate the
    two, so the right conversion bound is necessarily vacuous here.
    """
    psi, phi = conversion_pair()
    conv = yield from check_conversion.steps(psi, phi, cfg)
    deviation = max(
        conv.witnesses["hat_distance"],
        abs(conv.lhs - 0.5),
        0.0 if math.isinf(conv.witnesses["alpha"]) else math.inf,
    )
    return _report(
        "CE3",
        "conversion pair (dim 2)",
        deviation,
        CLOSED_FORM_SLACK,
        0.0,
        witnesses={"conversion": conv},
    )
