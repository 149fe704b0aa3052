# tests/test_theorems.py

import math

import numpy as np
import pytest

from postdist import theorems
from postdist.channels import (
    Channel,
    PureState,
    ValidityError,
    apply,
    conversion_pair,
    haar_isometry,
    isometry,
    nonconvexity_pair,
    random_channel,
    random_density,
    scale,
    teleportation,
)
from postdist.distances import OptimizerConfig, output_separation_bound
from postdist.linalg import InvalidInputError
from postdist.suites import format_report_line
from postdist.theorems import (
    TheoremReport,
    alpha_necessity_report,
    check_conversion,
    check_diamond_from_state_distance,
    check_dilation_norm_identity,
    check_isometry_approximation,
    check_postselected_contractivity,
    check_postselected_diamond_bound,
    check_postselected_dilation_bound,
    check_postselected_subadditivity,
    check_state_distance_doubling,
    check_subadditivity,
    check_trace_preserving_diamond_bound,
    contractivity_curve,
    contractivity_report,
    conversion_factor,
    environment_vector,
    nonconvexity_curve,
    nonconvexity_report,
    phase_mixture_states,
)

CFG = OptimizerConfig(master_seed=5, restarts=8, max_iterations=300, value_tolerance=1e-11)
FAST = OptimizerConfig(master_seed=9, restarts=6, max_iterations=200)

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
PAULI_Z = np.diag([1.0, -1.0]).astype(complex)


def depolarizing(eta):
    return Channel(
        (
            np.sqrt(1.0 - 3.0 * eta / 4.0) * np.eye(2, dtype=complex),
            np.sqrt(eta) / 2.0 * PAULI_X,
            np.sqrt(eta) / 2.0 * PAULI_Y,
            np.sqrt(eta) / 2.0 * PAULI_Z,
        ),
        name="depolarizing",
    )


def noisy_unitary(u, eta):
    # keep the unitary with weight 1 - eta, otherwise reset to |0>
    d = u.shape[0]
    ops = [np.sqrt(1.0 - eta) * u.astype(complex)]
    for j in range(d):
        e = np.zeros((d, d), dtype=complex)
        e[0, j] = np.sqrt(eta)
        ops.append(e)
    return Channel(tuple(ops), name="noisy_unitary")


# ---------------------------------------------------------------------------
# phase-mixture transfer states
# ---------------------------------------------------------------------------


def test_phase_mixture_reconstruction():
    rng = np.random.default_rng(3)
    u = PureState.normalized(rng.standard_normal(3) + 1j * rng.standard_normal(3))
    v = PureState.normalized(rng.standard_normal(3) + 1j * rng.standard_normal(3))
    states = phase_mixture_states(u, v)
    assert len(states) == 4
    total = np.zeros((3, 3), dtype=complex)
    for k, w in enumerate(states):
        raw = u.vector + (1j**k) * v.vector
        weight = np.vdot(raw, raw).real  # squared norm restores the scaling
        assert np.allclose(w.vector, raw / np.sqrt(weight), atol=1e-12)
        total += (1j**k) * weight * np.outer(w.vector, w.vector.conj())
    assert np.allclose(total / 4.0, np.outer(u.vector, v.vector.conj()), atol=1e-12)


def test_phase_mixture_drops_cancelling_combination():
    u = PureState(np.array([1.0, 0.0]))
    assert len(phase_mixture_states(u, u)) == 3  # u - u vanishes


# ---------------------------------------------------------------------------
# report object
# ---------------------------------------------------------------------------


def test_report_pass_iff_inequality_holds():
    rep = check_state_distance_doubling(
        isometry(np.eye(2), name="identity"), isometry(PAULI_Z, name="z"), FAST
    )
    assert isinstance(rep, TheoremReport)
    assert rep.passed == (rep.lhs <= rep.rhs + rep.slack_tolerance and not rep.aux_violations)
    assert rep.slack == rep.rhs - rep.lhs
    # The verdict is derived, never stored: it cannot disagree with the numbers.
    assert TheoremReport("CE1", "edge", lhs=1.0, rhs=0.75, slack_tolerance=0.25).passed
    assert not TheoremReport("CE1", "over", lhs=1.0, rhs=0.5, slack_tolerance=0.25).passed
    assert not TheoremReport("CE1", "aux", 0.0, 1.0, 0.0, aux_violations=("broken",)).passed
    with pytest.raises(TypeError):
        TheoremReport("CE1", "stored", lhs=1.0, rhs=0.0, slack_tolerance=0.0, passed=True)


# ---------------------------------------------------------------------------
# doubling bound (operator inputs vs state inputs)
# ---------------------------------------------------------------------------


def test_doubling_identity_vs_phase_flip():
    rep = check_state_distance_doubling(
        isometry(np.eye(2), name="identity"), isometry(PAULI_Z, name="z"), CFG
    )
    assert rep.passed
    # |0><1| separates the two maps maximally among rank-one inputs
    assert rep.lhs == pytest.approx(2.0, abs=1e-6)
    assert rep.lhs <= rep.rhs
    assert rep.rhs <= 4.0 + 1e-6


def test_doubling_on_random_pairs():
    for seed in range(4):
        a = random_channel(2, 2, rank=2, kind="postselection", seed=200 + seed)
        b = random_channel(2, 2, rank=2, kind="postselection", seed=300 + seed)
        assert check_state_distance_doubling(a, b, FAST).passed


# ---------------------------------------------------------------------------
# dilation norm identity
# ---------------------------------------------------------------------------


def test_dilation_norm_identity_known_channel():
    psi, _ = nonconvexity_pair(0.25)
    rep = check_dilation_norm_identity(psi, CFG)
    assert rep.passed
    assert rep.witnesses["exact"] == pytest.approx(0.75, abs=1e-12)
    assert rep.lhs <= 1e-6


def test_dilation_norm_identity_random():
    ch = random_channel(3, 2, rank=2, kind="postselection", seed=44)
    rep = check_dilation_norm_identity(ch, CFG)
    assert rep.passed
    w = rep.witnesses
    assert w["exact"] == pytest.approx(w["dilation_opnorm_sq"], abs=1e-12)


# ---------------------------------------------------------------------------
# subadditivity under composition
# ---------------------------------------------------------------------------


def test_subadditivity_chain():
    pairs = [
        (
            random_channel(2, 2, rank=2, kind="cptp", seed=70),
            random_channel(2, 2, rank=2, kind="cptp", seed=71),
        ),
        (
            random_channel(2, 2, rank=2, kind="cptp", seed=72),
            random_channel(2, 2, rank=2, kind="cptp", seed=73),
        ),
    ]
    rep = check_subadditivity(pairs, FAST)
    assert rep.passed
    assert len(rep.witnesses["summed_terms"]) == 2


def _forbid_optimizer(monkeypatch):
    # A checker's bad input must raise before any ascent runs.
    def refuse(*args):
        raise AssertionError("maximize ran on an input that breaks a precondition")

    monkeypatch.setattr("postdist.distances.maximize", refuse)


def test_subadditivity_input_validation(monkeypatch):
    _forbid_optimizer(monkeypatch)
    a = random_channel(2, 2, rank=2, kind="cptp", seed=1)
    wide = random_channel(3, 2, rank=2, kind="cptp", seed=2)
    tall = random_channel(2, 3, rank=2, kind="cptp", seed=3)
    bad_chains = (
        [],
        [(a, wide)],  # pair dims differ
        [(wide, wide), (wide, wide)],  # 2 -/-> 3 in both chains
        [(a, a), (wide, a)],  # 2 -/-> 3 in the a chain
        [(a, a), (a, wide)],  # 2 -/-> 3 in the b chain
        [(a, a), (a, tall)],  # both chains compose; the second pair's dims differ
    )
    for pairs in bad_chains:
        with pytest.raises(InvalidInputError):
            check_subadditivity(pairs, FAST)


# ---------------------------------------------------------------------------
# isometry approximation (standard measures)
# ---------------------------------------------------------------------------


def test_environment_vector_shape_checks():
    ch = noisy_unitary(np.eye(2), 0.01)
    g = environment_vector(ch, np.eye(2), PureState(np.array([1.0, 0.0])))
    assert g.shape == (ch.rank,)
    with pytest.raises(InvalidInputError):
        environment_vector(ch, np.eye(3), PureState(np.array([1.0, 0.0])))
    with pytest.raises(InvalidInputError):
        environment_vector(ch, np.eye(2), PureState(np.array([1.0, 0.0, 0.0])))


def test_isometry_approximation_noisy_identity():
    rep = check_isometry_approximation(noisy_unitary(np.eye(2), 0.01), np.eye(2), CFG)
    assert rep.passed
    assert not rep.aux_violations
    assert rep.witnesses["epsilon"] == pytest.approx(0.02, abs=1e-6)
    # the reset component contributes exactly sqrt(eta) to the residual
    assert rep.lhs == pytest.approx(0.1, abs=1e-6)


def test_diamond_from_state_distance():
    rep = check_diamond_from_state_distance(noisy_unitary(np.eye(2), 0.01), np.eye(2), CFG)
    assert rep.passed
    assert rep.lhs == pytest.approx(0.02, abs=1e-6)


def test_trace_preserving_diamond_bound_depolarizing():
    rep = check_trace_preserving_diamond_bound(depolarizing(0.1), np.eye(2), CFG)
    assert rep.passed
    assert rep.witnesses["epsilon"] == pytest.approx(0.1, abs=1e-6)
    assert rep.lhs == pytest.approx(0.15, abs=1e-6)  # 3 eta / 2
    assert rep.rhs == pytest.approx(math.sqrt(0.2), abs=1e-6)


def test_trace_preserving_bound_requires_trace_preserving():
    sub = scale(depolarizing(0.1), 0.5)
    with pytest.raises(ValidityError):
        check_trace_preserving_diamond_bound(sub, np.eye(2), FAST)


# ---------------------------------------------------------------------------
# renormalized subadditivity and contractivity
# ---------------------------------------------------------------------------


def test_postselected_subadditivity_with_ancilla():
    inner_a = random_channel(2, 2, rank=2, kind="postselection", seed=80)
    inner_b = random_channel(2, 2, rank=2, kind="postselection", seed=81)
    outer_a = random_channel(4, 4, rank=2, kind="postselection", seed=82)
    outer_b = random_channel(4, 4, rank=2, kind="cptp", seed=83)
    rep = check_postselected_subadditivity(
        inner_a, inner_b, outer_a, outer_b, anc_dim=2, cfg=FAST
    )
    assert rep.passed


def test_postselected_subadditivity_preconditions(monkeypatch):
    _forbid_optimizer(monkeypatch)
    inner_a = random_channel(2, 2, rank=2, kind="postselection", seed=80)
    inner_b = random_channel(2, 2, rank=2, kind="postselection", seed=81)
    outer_post = random_channel(2, 2, rank=2, kind="postselection", seed=82)
    outer_tp = random_channel(2, 2, rank=2, kind="cptp", seed=83)
    inner_wide = random_channel(3, 2, rank=2, kind="postselection", seed=87)
    outer_tall = random_channel(2, 3, rank=2, kind="cptp", seed=88)
    with pytest.raises(InvalidInputError):
        # the inner pair's dimensions differ
        check_postselected_subadditivity(inner_a, inner_wide, outer_post, outer_tp, cfg=FAST)
    with pytest.raises(InvalidInputError):
        # the outer pair's dimensions differ
        check_postselected_subadditivity(inner_a, inner_b, outer_post, outer_tall, cfg=FAST)
    with pytest.raises(ValidityError):
        # outer_b must be trace-preserving
        check_postselected_subadditivity(
            inner_a, inner_b, outer_post, outer_post, anc_dim=1, cfg=FAST
        )
    with pytest.raises(InvalidInputError):
        # outer input dim must equal inner output dim times ancilla
        check_postselected_subadditivity(
            inner_a, inner_b, outer_post, outer_tp, anc_dim=2, cfg=FAST
        )
    with pytest.raises(ValidityError):
        # all four channels must be postselection-valid
        proj = Channel((np.diag([1.0, 0.0]).astype(complex),), name="projector")
        check_postselected_subadditivity(proj, inner_b, outer_post, outer_tp, cfg=FAST)


def test_postselected_contractivity():
    tau = random_channel(2, 2, rank=2, kind="cptp", seed=84)
    a = random_channel(2, 2, rank=2, kind="postselection", seed=85)
    b = random_channel(2, 2, rank=2, kind="postselection", seed=86)
    rep = check_postselected_contractivity(tau, a, b, FAST)
    assert rep.passed
    with pytest.raises(ValidityError):
        check_postselected_contractivity(a, a, b, FAST)  # tau not trace-preserving


# ---------------------------------------------------------------------------
# postselected isometry approximation
# ---------------------------------------------------------------------------


def test_postselected_isometry_bounds():
    sub = scale(noisy_unitary(np.eye(2), 0.01), 0.8, name="sub")
    t5 = check_postselected_diamond_bound(sub, np.eye(2), FAST)
    t6 = check_postselected_dilation_bound(sub, np.eye(2), FAST)
    assert t5.statement == "T5" and t6.statement == "T6"
    assert t5.passed
    assert t6.passed
    assert not t6.aux_violations
    # scaling cancels under renormalization, so eps-hat matches the unscaled map
    assert t5.witnesses["epsilon_hat"] == pytest.approx(0.02, abs=1e-4)
    assert t6.witnesses["dilation_norm_sq"] == pytest.approx(0.8, abs=1e-9)


def test_postselected_isometry_requires_valid_channel():
    proj = Channel((np.diag([1.0, 0.0]).astype(complex),))
    for check in (check_postselected_diamond_bound, check_postselected_dilation_bound):
        with pytest.raises(ValidityError):
            check(proj, np.eye(2), FAST)


# ---------------------------------------------------------------------------
# conversion factor and two-sided conversion
# ---------------------------------------------------------------------------


def test_conversion_factor_unitary_is_eight():
    assert conversion_factor(isometry(PAULI_Z)) == 8.0


def test_conversion_factor_rank_one_square_rule():
    rng = np.random.default_rng(31)
    # Trace preservation (within TRACE_ATOL) makes a square single Kraus
    # operator unitary, so this nearly unitary channel takes the factor 8.
    near_unitary = scale(isometry(haar_isometry(rng, 3, 3)), 1 - 5e-10)
    assert near_unitary.is_trace_preserving()
    assert conversion_factor(near_unitary) == 8.0
    # A rank-one isometry into a larger space is not unitary: 40 / s-bar, and it
    # keeps orthogonal inputs orthogonal, so s-bar is the cap 2.
    tall = isometry(haar_isometry(rng, 4, 3))
    assert output_separation_bound(tall) == 2.0
    assert conversion_factor(tall) == 20.0


def test_conversion_factor_dephasing():
    deph = Channel(
        (np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)),
        name="dephasing",
    )
    assert output_separation_bound(deph) == 2.0
    assert conversion_factor(deph) == 20.0


def test_conversion_factor_constant_channel_is_infinite():
    reset = Channel(
        (
            np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex),
            np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex),
        ),
        name="reset",
    )
    assert output_separation_bound(reset) < 1e-10
    assert conversion_factor(reset) == math.inf


def test_conversion_factor_requires_trace_preserving():
    psi, _ = nonconvexity_pair(0.25)
    with pytest.raises(ValidityError):
        conversion_factor(psi)


def test_conversion_requires_a_trace_preserving_reference(monkeypatch):
    _forbid_optimizer(monkeypatch)
    psi, _ = nonconvexity_pair(0.25)
    ch = random_channel(2, 2, rank=2, kind="postselection", seed=3)
    with pytest.raises(ValidityError, match="conversion factor is defined for trace-preserving maps"):
        check_conversion(ch, psi, FAST)


def test_conversion_teleportation_vs_identity():
    rep = check_conversion(teleportation(2), isometry(np.eye(2), name="identity"), CFG)
    assert rep.statement == "L2"
    assert rep.passed
    assert rep.witnesses["k"] == 0.25
    assert rep.witnesses["alpha"] == 8.0
    assert not math.isinf(rep.rhs)
    assert rep.witnesses["hat_distance"] == 0.0
    assert rep.lhs <= 1e-9
    assert rep.witnesses["probability_spread"] <= 1e-9


@pytest.mark.parametrize("kind", ["cptp", "postselection"])
@pytest.mark.parametrize("dim_in,dim_out", [(2, 2), (3, 3), (2, 3)])
def test_probability_spread_is_closed_form(kind, dim_in, dim_out):
    # tr Psi(rho) = tr(E rho) covers [lambda_min(E), lambda_max(E)].
    seed = 10 * dim_in + dim_out
    ch = random_channel(dim_in, dim_out, rank=2, kind=kind, seed=seed)
    ref = random_channel(dim_in, dim_out, rank=2, kind="cptp", seed=seed + 1)
    rep = check_conversion(ch, ref, FAST)
    k = rep.witnesses["k"]
    spread = rep.witnesses["probability_spread"]
    _, vecs = np.linalg.eigh(ch.effect)
    assert spread == k - ch.effect_eigenvalues[0]
    rng = np.random.default_rng(seed)
    for _ in range(20):
        prob = np.trace(apply(ch, random_density(dim_in, seed=rng))).real
        assert abs(prob - k) <= spread + 1e-12
    bottom = np.outer(vecs[:, 0], vecs[:, 0].conj())
    attained = abs(np.trace(apply(ch, bottom)).real - k)
    assert attained == pytest.approx(spread, abs=1e-12)


def test_conversion_report_random_channel():
    ch = random_channel(2, 2, rank=2, kind="postselection", seed=140)
    rep = check_conversion(ch, depolarizing(0.3), FAST)
    assert rep.statement == "L2"
    assert rep.passed
    assert not rep.aux_violations


def test_conversion_failure_lines(monkeypatch):
    # A factor far too small for this pair fails the right bound and the
    # probability bound.  The report line, aux text and description are pinned
    # byte for byte, as `verify` prints them.
    ref = random_channel(2, 2, rank=2, kind="cptp", seed=104)
    noise = random_channel(2, 2, rank=1, kind="postselection", seed=1104)
    ch = Channel(tuple(np.sqrt(0.5) * op for op in (*ref.kraus, *noise.kraus)), name="mix")
    monkeypatch.setattr("postdist.theorems.conversion_factor", lambda reference: 1e-6)
    rep = check_conversion(ch, ref, FAST)
    assert not rep.passed
    assert format_report_line(rep, 0) == (
        "L2 000 lhs=0.7067807379673514 rhs=0.6659041526315742 "
        "slack=-0.040876585335777205 FAIL"
    )
    assert rep.aux_violations == (
        "probability spread 0.4026741061985213 exceeds "
        "alpha k D-hat = 6.655738645021573e-07",
    )
    assert rep.description == "mix vs random_cptp(d2->d2,r2) (dim 2, alpha=1e-06)"


def test_conversion_left_bound_failure_line(monkeypatch):
    # A renormalized value of 10 at the state witness breaks (b): D-hat / 2
    # cannot exceed a trace distance.
    evaluate = theorems.evaluate_witness
    monkeypatch.setattr(
        "postdist.theorems.evaluate_witness",
        lambda measure, *args: 10.0 if measure == "hat-tr" else evaluate(measure, *args),
    )
    rep = check_conversion(teleportation(2), isometry(np.eye(2), name="identity"), FAST)
    assert not rep.passed
    assert rep.aux_violations == ("left bound failed: D-hat / 2 exceeds the state distance",)


@pytest.mark.parametrize("fill", [0.0, 10.0], ids=["low", "high"])
def test_isometry_norm_window_failure_lines(monkeypatch, fill):
    # A zero or an oversized environment vector leaves the ||g||^2 window of T3 and T6.
    monkeypatch.setattr(
        "postdist.theorems.environment_vector",
        lambda ch, iso, witness: np.full(ch.rank, fill, dtype=complex),
    )
    ch = scale(noisy_unitary(np.eye(2), 0.01), 0.8, name="sub")
    t3 = check_isometry_approximation(ch, np.eye(2), FAST)
    t6 = check_postselected_dilation_bound(ch, np.eye(2), FAST)
    assert not t3.passed and not t6.passed
    g3, a3, eps3 = (t3.witnesses[k] for k in ("g_norm_sq", "dilation_norm_sq", "epsilon"))
    g6, k6, eps6 = (t6.witnesses[k] for k in ("g_norm_sq", "dilation_norm_sq", "epsilon_hat"))
    if fill == 0.0:
        assert t3.aux_violations == (f"norm window low: ||g||^2 = 0.0 < 1 - eps = {1.0 - eps3!r}",)
        assert t6.aux_violations == (
            f"norm window low: ||g||^2 = 0.0 < (1 - 9 eps) k = {(1.0 - 9.0 * eps6) * k6!r}",
        )
    else:
        assert t3.aux_violations == (f"norm window high: ||g||^2 = {g3!r} > ||A||_op^2 = {a3!r}",)
        assert t6.aux_violations == (f"norm window high: ||g||^2 = {g6!r} > ||A||_op^2 = {k6!r}",)


# ---------------------------------------------------------------------------
# counterexample reports
# ---------------------------------------------------------------------------


def test_nonconvexity_report_quarter():
    rep = nonconvexity_report(0.25)
    assert rep.passed
    assert rep.lhs <= 1e-9
    assert rep.witnesses["f00"] == pytest.approx(0.0, abs=1e-12)
    assert rep.witnesses["f11"] == pytest.approx(0.0, abs=1e-12)
    assert rep.witnesses["fmid"] == pytest.approx(1.0, abs=1e-12)  # 2 - 4 eps


def test_contractivity_report_third():
    rep = contractivity_report(1.0 / 3.0)
    assert rep.passed
    assert rep.witnesses["before"] == pytest.approx(1.0, abs=1e-12)
    assert rep.witnesses["after"] == pytest.approx(1.5, abs=1e-12)  # 2/(1+eps)


def test_alpha_necessity_report():
    rep = alpha_necessity_report(CFG)
    assert rep.passed
    conv = rep.witnesses["conversion"]
    assert math.isinf(conv.witnesses["alpha"])
    assert math.isinf(conv.rhs)
    assert conv.witnesses["hat_distance"] <= 1e-9
    assert conv.lhs == pytest.approx(0.5, abs=1e-6)


# ---------------------------------------------------------------------------
# figure curves
# ---------------------------------------------------------------------------


def test_nonconvexity_curve_matches_closed_form():
    eps = 0.25
    rows = nonconvexity_curve(eps, grid=100)
    assert rows.shape == (101, 2)
    p = rows[:, 0]
    expected = np.zeros_like(p)
    mask = (p > 0) & (p < 1)
    pm = p[mask]
    expected[mask] = (
        2.0 * pm * (1.0 - pm) * (1.0 - 2.0 * eps)
        / (eps * (1.0 - eps) + pm * (1.0 - pm) * (1.0 - 2.0 * eps) ** 2)
    )
    assert np.allclose(rows[:, 1], expected, atol=1e-9)
    # peak sits at the balanced mixture
    assert rows[50, 1] == pytest.approx(2.0 - 4.0 * eps, abs=1e-12)


def test_nonconvexity_curve_rejects_empty_grid():
    with pytest.raises(InvalidInputError):
        nonconvexity_curve(0.25, grid=0)


def test_contractivity_curve_half():
    eps, before, after = contractivity_curve(0.5)
    assert eps == 0.5
    assert before == pytest.approx(1.0, abs=1e-12)
    assert after == pytest.approx(4.0 / 3.0, abs=1e-12)
