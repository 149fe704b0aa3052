# tests/test_distances.py

import dataclasses
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from postdist.channels import (
    Channel,
    DensityMatrix,
    PureState,
    apply,
    compose,
    contractivity_triple,
    conversion_pair,
    haar_isometry,
    isometry,
    nonconvexity_pair,
    random_channel,
    random_density,
    random_pure,
    scale,
    teleportation,
    tensor_with_identity,
)
from postdist import distances
from postdist.distances import (
    MEASURE_SPECS,
    MEASURES,
    DistanceEstimate,
    STABILIZED_DIM_CAP,
    UNSTABILIZED_DIM_CAP,
    OptimizerConfig,
    _canonical_pair,
    _starts,
    dense_oracle,
    diamond_norm_channel,
    distance,
    distance_batch,
    evaluate_witness,
    kraus_images,
    maximize,
    output_separation_bound,
    pointwise_distance,
    pure_outputs,
    renormalized,
    unit_rows,
    unit_rows_gradient,
)
from postdist.linalg import CapacityError, InvalidInputError, trace_norm
from test_gradients import _near_floor_channel

CFG = OptimizerConfig(master_seed=5, restarts=8, max_iterations=300, value_tolerance=1e-11)
FAST = OptimizerConfig(master_seed=9, restarts=6, max_iterations=200)


def _pair(seed, dim=2, kind="postselection"):
    return (
        random_channel(dim, dim, rank=2, kind=kind, seed=2 * seed),
        random_channel(dim, dim, rank=2, kind=kind, seed=2 * seed + 1),
    )


# ---------------------------------------------------------------------------
# frozen values on gallery objects
# ---------------------------------------------------------------------------


def test_nonconvexity_pair_distances():
    psi, phi = nonconvexity_pair(0.25)
    values = {m: distance(m, psi, phi, CFG).value for m in MEASURES}
    # the three standard measures coincide here
    for m in ("dtrD", "dtr", "diamond"):
        assert values[m] == pytest.approx(0.5, abs=1e-9)
    # the renormalized outputs are the orthogonal pure states |0>, |1>
    assert values["hat-tr"] == pytest.approx(1.0, abs=1e-9)
    assert values["hat-diamond"] == pytest.approx(1.0, abs=1e-9)


def test_nonconvexity_pair_counters_frozen():
    # The default budget's work counters at eps = 0.1; how the ascent stores
    # its running restarts must not move them.
    psi, phi = nonconvexity_pair(0.1)
    frozen = {
        "dtrD": (1, 128),
        "dtr": (8, 1119),
        "diamond": (1, 128),
        "hat-tr": (8, 1202),
        "hat-diamond": (8, 1202),
    }
    for m, counters in frozen.items():
        est = distance(m, psi, phi, OptimizerConfig())
        assert (est.iterations, est.evaluations) == counters, m


def test_conversion_pair_distances():
    psi, phi = conversion_pair()
    values = {m: distance(m, psi, phi, CFG).value for m in MEASURES}
    for m in ("dtrD", "dtr", "diamond"):
        assert values[m] == pytest.approx(0.5, abs=1e-9)
    # renormalization hides the damping completely on unextended inputs ...
    assert values["hat-tr"] == 0.0
    # ... but an entangled input still sees it
    assert values["hat-diamond"] == pytest.approx(6.0 - 4.0 * np.sqrt(2.0), abs=1e-9)


def test_teleportation_matches_identity_after_renormalization():
    tele = teleportation(2)
    ident = isometry(np.eye(2))
    values = {m: distance(m, tele, ident, CFG).value for m in MEASURES}
    for m in ("dtrD", "dtr", "diamond"):
        assert values[m] == pytest.approx(0.75, abs=1e-9)
    assert values["hat-tr"] == 0.0
    assert values["hat-diamond"] == 0.0


def test_diamond_norm_channel_frozen():
    assert diamond_norm_channel(teleportation(2)) == 0.25
    assert diamond_norm_channel(teleportation(3)) == (1.0 / 3.0) ** 2
    psi, _ = nonconvexity_pair(0.25)
    assert diamond_norm_channel(psi) == pytest.approx(0.75, abs=1e-12)
    ch = random_channel(3, 3, rank=2, kind="cptp", seed=4)
    assert diamond_norm_channel(ch) == pytest.approx(1.0, abs=1e-9)


def test_diamond_norm_channel_is_largest_effect_eigenvalue():
    rng = np.random.default_rng(17)
    for _ in range(20):
        ch = random_channel(
            int(rng.integers(2, 5)), int(rng.integers(2, 5)), rank=2,
            kind="postselection", seed=rng,
        )
        assert diamond_norm_channel(ch) == pytest.approx(
            ch.effect_eigenvalues[-1], abs=1e-12
        )


def test_trace_distance_states_on_identical_channels():
    ch = random_channel(3, 3, rank=2, kind="cptp", seed=31)
    est = distance("dtrD", ch, ch, FAST)
    assert est.value == 0.0


# ---------------------------------------------------------------------------
# ordering between the measures
# ---------------------------------------------------------------------------


def test_measure_ordering_chain():
    # density-input <= rank-one-input <= extended, and renormalized likewise
    for seed in range(12):
        dim = 2 if seed % 2 == 0 else 3
        a, b = _pair(seed, dim=dim)
        d1 = distance("dtrD", a, b, FAST).value
        d2 = distance("dtr", a, b, FAST).value
        d3 = distance("diamond", a, b, FAST).value
        h1 = distance("hat-tr", a, b, FAST).value
        h2 = distance("hat-diamond", a, b, FAST).value
        assert d1 <= d2 + 1e-6
        assert d2 <= d3 + 1e-6
        assert h1 <= h2 + 1e-6
        for value in (d1, d2, d3, h1, h2):
            assert 0.0 <= value <= 2.0 + 1e-9


# ---------------------------------------------------------------------------
# pseudometric behavior
# ---------------------------------------------------------------------------


def test_self_distance_is_exactly_zero():
    ch = random_channel(2, 2, rank=2, kind="postselection", seed=100)
    for m in MEASURES:
        assert distance(m, ch, ch, FAST).value == 0.0


def test_renormalized_measures_are_bitwise_symmetric():
    a, b = _pair(50)
    for m in ("hat-tr", "hat-diamond"):
        assert distance(m, a, b, FAST).value == distance(m, b, a, FAST).value


def test_standard_measures_are_symmetric():
    a, b = _pair(51, dim=3)
    for m in ("dtrD", "dtr", "diamond"):
        assert distance(m, a, b, FAST).value == pytest.approx(
            distance(m, b, a, FAST).value, abs=1e-9
        )


# ---------------------------------------------------------------------------
# witnesses
# ---------------------------------------------------------------------------


def _extended_value(a, b, rho, renormalize, anc):
    # The objective through the channel route: both channels extended by
    # tensor_with_identity and applied by channels.apply without an ancilla.
    out_a, out_b = apply(tensor_with_identity(a, anc), rho), apply(tensor_with_identity(b, anc), rho)
    if renormalize:
        out_a, out_b = out_a / np.trace(out_a).real, out_b / np.trace(out_b).real
    return float(trace_norm(out_a - out_b))


@pytest.mark.parametrize("renormalize", [False, True])
@pytest.mark.parametrize("anc", [1, 2, 3])
def test_pointwise_distance_is_the_extension_route_bit_for_bit(anc, renormalize):
    rng = np.random.default_rng(70 + anc)
    for kind, dim_in, dim_out in (("cptp", 2, 3), ("postselection", 3, 2)):
        a = random_channel(dim_in, dim_out, rank=2, kind=kind, seed=rng)
        b = random_channel(dim_in, dim_out, rank=3, kind=kind, seed=rng)
        rho = random_density(dim_in * anc, seed=rng)
        value = pointwise_distance(a, b, rho, anc, renormalize)
        assert value == _extended_value(a, b, rho, renormalize, anc)
        assert value > 0.0


def test_witness_reproduces_reported_value():
    wide = (
        random_channel(2, 3, rank=2, kind="postselection", seed=104),
        random_channel(2, 3, rank=2, kind="postselection", seed=105),
    )
    for a, b in (_pair(52), wide, conversion_pair()):
        for m in MEASURES:
            est = distance(m, a, b, FAST)
            assert evaluate_witness(m, a, b, est.witness) == est.value
            if MEASURE_SPECS[m].stabilized:
                # The same bits as the extended channels give.  A postselected
                # pair is evaluated in a canonical order, so either order may be it.
                rho = est.witness.density()
                postselected = MEASURE_SPECS[m].postselected
                assert est.value in (
                    _extended_value(a, b, rho, postselected, a.dim_in),
                    _extended_value(b, a, rho, postselected, a.dim_in),
                )
            if isinstance(est.witness, PureState):
                assert evaluate_witness(m, a, b, est.witness.density()) == est.value
            assert isinstance(est, DistanceEstimate)
            assert est.measure == m
            assert 1 <= est.restarts_used <= FAST.restarts


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_dtr_value_is_not_above_svd_at_witness(dim):
    # Between unitary channels the difference is rank <= 2; a Gram-route
    # trace norm lifts its zero singular values and overstates the value.
    for seed in range(4):
        a = random_channel(dim, dim, rank=1, kind="cptp", seed=2 * seed)
        b = random_channel(dim, dim, rank=1, kind="cptp", seed=2 * seed + 1)
        est = distance("dtr", a, b, FAST)
        u, v = est.witness
        x = np.outer(u.vector, v.vector.conj())
        svd_sum = float(np.linalg.svd(apply(a, x) - apply(b, x), compute_uv=False).sum())
        assert est.value <= svd_sum + 1e-15 * max(1.0, svd_sum)


def test_witness_type_errors():
    a, b = _pair(53)
    state = PureState(np.array([1.0, 0.0]))
    with pytest.raises(InvalidInputError):
        evaluate_witness("dtr", a, b, state)
    with pytest.raises(InvalidInputError):
        evaluate_witness("diamond", a, b, state)  # needs dim 4, not 2
    with pytest.raises(InvalidInputError):
        evaluate_witness("hat-tr", a, b, (state, state))
    with pytest.raises(InvalidInputError):
        evaluate_witness("fidelity", a, b, state)


def test_dtrD_witness_accepts_density():
    a, b = _pair(54)
    rho = random_density(2, seed=3)
    direct = evaluate_witness("dtrD", a, b, rho)
    assert direct >= 0.0
    assert direct <= distance("dtrD", a, b, FAST).value + 1e-9


# ---------------------------------------------------------------------------
# sampling oracle
# ---------------------------------------------------------------------------


def test_optimizer_dominates_sampling_oracle():
    for dim_out, seed in ((2, 7), (2, 8), (3, 7), (3, 8)):
        a = random_channel(2, dim_out, rank=2, kind="postselection", seed=50 + seed)
        b = random_channel(2, dim_out, rank=2, kind="postselection", seed=60 + seed)
        for m in MEASURES:
            est = distance(m, a, b, CFG).value
            orc = dense_oracle(m, a, b, samples=60_000, seed=3)
            assert est >= orc - 1e-6
            assert est - orc <= 0.05


def _hull_distance_from_zero(eigenvalues):
    # Points on the unit circle: 0 is outside their hull iff they fit in an arc
    # shorter than pi, and then the nearest hull point is that arc's chord midpoint.
    phases = np.sort(np.angle(eigenvalues))
    gaps = np.diff(np.append(phases, phases[0] + 2 * np.pi))
    arc = 2 * np.pi - gaps.max()
    return np.cos(arc / 2) if arc < np.pi else 0.0


def _unitary_pairs(dim, seed, squeeze=0.3):
    # U and V = U W, where W's eigenphases are a Haar unitary's times `squeeze`,
    # so that 0 lies outside the hull of W's eigenvalues.
    rng = np.random.default_rng(seed)
    for _ in range(2):
        u = haar_isometry(rng, dim, dim)
        phases, basis = np.linalg.eig(haar_isometry(rng, dim, dim))
        w = (basis * np.exp(1j * squeeze * np.angle(phases))) @ np.linalg.inv(basis)
        yield u, u @ w, rng.uniform(0.5, 1.0)


@pytest.mark.parametrize(
    "measure, cap",
    [
        ("dtrD", UNSTABILIZED_DIM_CAP),
        ("hat-tr", UNSTABILIZED_DIM_CAP),
        ("diamond", STABILIZED_DIM_CAP),
        ("hat-diamond", STABILIZED_DIM_CAP),
    ],
)
def test_unitary_pairs_match_the_closed_form(measure, cap):
    # For unitary channels U.U^H and V.V^H, dtrD and diamond are 2 sqrt(1 - r^2),
    # r the distance from 0 to the hull of the eigenvalues of W = U^H V
    # (Aharonov, Kitaev & Nisan).  The channels are trace preserving, so the
    # hat measures agree, and scaling one channel by c leaves them unchanged.
    requests, exact = [], []
    for dim in range(2, cap + 1):
        for u, v, c in _unitary_pairs(dim, seed=dim):
            r = _hull_distance_from_zero(np.linalg.eigvals(u.conj().T @ v))
            pairs = [(isometry(u), isometry(v))]
            if measure.startswith("hat-"):
                pairs.append((isometry(u), scale(isometry(v), c)))
            requests += [(measure, a, b, OptimizerConfig()) for a, b in pairs]
            exact += [2 * np.sqrt(1 - r**2)] * len(pairs)
    values = [est.value for est in distance_batch(requests)]
    assert values == pytest.approx(exact, abs=1e-10)


def _oracle_pairs():
    # Random pairs of both kinds at d = 2, 3 and the gallery pairs, several of
    # them equal up to rounding after renormalization.
    psi, phi, _ = contractivity_triple(1.0 / 3.0)
    pairs = [_pair(57 + dim, dim, kind) for dim in (2, 3) for kind in ("cptp", "postselection")]
    pairs += [(teleportation(d), isometry(np.eye(d), name="identity")) for d in (2, 3)]
    return pairs + [conversion_pair(), (psi, phi), nonconvexity_pair(0.125)]


def test_dense_oracle_deterministic():
    a, b = _pair(55)
    x = dense_oracle("hat-tr", a, b, samples=5_000, seed=11)
    y = dense_oracle("hat-tr", a, b, samples=5_000, seed=11)
    assert x == y
    # Pruning by the floor returns the exhaustive maximum: the kernel with no
    # floor at every sampled point, one prefix of a single draw per count.
    seed, counts = (1 << 63) + 11, (1, 63, 64, 65, 1087, 1088, 1089, 8192, 8193, 20_000)
    for a, b in _oracle_pairs():
        for measure, spec in MEASURE_SPECS.items():
            pair = _canonical_pair(a, b) if spec.postselected else (a, b)
            fn, _ = spec.kernel([pair])
            rng = np.random.default_rng([seed, 1])
            x = rng.standard_normal((max(counts), spec.n_params(a.dim_in)))
            prefix_max = np.maximum.accumulate(fn(x, np.zeros(len(x), dtype=int)))
            for n in counts:
                value = dense_oracle(measure, a, b, samples=n, seed=seed)
                assert value.hex() == float(prefix_max[n - 1]).hex(), (a.name, b.name, measure, n)


def test_dense_oracle_evaluates_each_point_once_in_small_blocks(monkeypatch):
    # The 64-point seed block and then 1,024-point blocks: no point is evaluated
    # twice, and no block is big enough for numpy's 4 MiB huge-page advice.
    a, b = _pair(56, 3)
    for measure, spec in MEASURE_SPECS.items():
        expected = dense_oracle(measure, a, b, samples=5_000, seed=4)
        sizes = []

        def kernel(pairs, spec=spec, sizes=sizes):
            fn, grad = spec.kernel(pairs)

            def counted(x, *args):
                sizes.append(len(x))
                return fn(x, *args)

            return counted, grad

        monkeypatch.setitem(MEASURE_SPECS, measure, spec._replace(kernel=kernel))
        value = dense_oracle(measure, a, b, samples=5_000, seed=4)
        assert max(sizes) <= 1024 and sum(sizes) == 5_000, (measure, sizes)
        assert value.hex() == expected.hex(), measure


def test_dense_oracle_peak_memory():
    # tracemalloc peak of one call on the heaviest oracle cell: 39.7 MiB with
    # 8,192-point batches, 5.1 MiB with 1,024-point blocks.
    psi, phi, tau = contractivity_triple(1.0 / 3.0)
    a, b = compose(tau, psi), compose(tau, phi)
    tracemalloc.start()
    try:
        dense_oracle("hat-diamond", a, b, samples=16_384, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, peak / 2**20


def test_optimizer_deterministic():
    a, b = _pair(56, dim=3)
    for m in ("dtr", "hat-diamond"):
        assert distance(m, a, b, FAST).value == distance(m, a, b, FAST).value


def _witness_arrays(witness):
    parts = witness if isinstance(witness, tuple) else (witness,)
    return [w.vector if isinstance(w, PureState) else w.matrix for w in parts]


def test_distance_batch_matches_separate_estimates_bit_for_bit():
    # Several problems share one lockstep run per (measure, dims), with their
    # Kraus stacks padded to one rank: mixed measures, output dims, budgets
    # (one boosted as F2 and CE3 boost theirs) and ranks (a postselection
    # channel of rank r holds r + 1 operators; the composition is compose's
    # compressed Choi rank).
    rng = np.random.default_rng(23)
    budgets = (
        dict(restarts=6, max_iterations=150),
        dict(restarts=4, max_iterations=1000, step_tolerance=1e-10, value_tolerance=1e-11),
        dict(restarts=3, max_iterations=20),
    )
    requests = []
    for d_in, d_out in ((2, 2), (2, 3), (3, 3)):
        ref = random_channel(d_in, d_out, rank=2, kind="postselection", seed=rng)
        chans = [
            random_channel(d_in, d_out, rank=r, kind="postselection", seed=rng) for r in (1, 3)
        ]
        chans.append(compose(random_channel(d_out, d_out, rank=2, kind="cptp", seed=rng), ref))
        for m in MEASURES if d_in == 2 else ("dtrD", "dtr", "hat-tr"):
            for k, ch in enumerate(chans):
                seed = int(rng.integers(0, 2**62))
                cfg = OptimizerConfig(master_seed=seed, **budgets[(k + len(requests)) % 3])
                requests.append((m, ch, ref, cfg))
    assert {ch.rank for _, ch, _, _ in requests} == {2, 4, 6}
    batched = distance_batch(requests)
    for request, got in zip(requests, batched):
        want = distance(*request)
        for field in dataclasses.fields(DistanceEstimate):
            a, b = getattr(got, field.name), getattr(want, field.name)
            if field.name == "witness":
                assert all(map(np.array_equal, _witness_arrays(a), _witness_arrays(b)))
            else:
                assert a == b, (request[0], field.name, a, b)
    # `converged` is read from the counters: a lone restart agrees with itself.
    single = distance("dtrD", *requests[0][1:3], OptimizerConfig(restarts=1, max_iterations=20))
    assert single.agreeing_restarts == 1 and single.converged
    assert not dataclasses.replace(single, restarts_used=2).converged


# ---------------------------------------------------------------------------
# capacity limits
# ---------------------------------------------------------------------------


def test_dimension_caps():
    big = random_channel(9, 9, rank=2, kind="cptp", seed=0)
    with pytest.raises(CapacityError):
        distance("dtrD", big, big, FAST)
    five = random_channel(5, 5, rank=2, kind="cptp", seed=0)
    with pytest.raises(CapacityError):
        distance("diamond", five, five, FAST)
    with pytest.raises(CapacityError):
        distance("hat-diamond", five, five, FAST)
    four = random_channel(4, 4, rank=2, kind="cptp", seed=0)
    with pytest.raises(CapacityError):
        dense_oracle("dtrD", four, four)
    with pytest.raises(CapacityError):
        dense_oracle("diamond", four, four)


def test_dense_oracle_rejects_non_integer_samples_and_seed():
    a, b = nonconvexity_pair(0.1)
    for bad in ({"samples": 2.5}, {"samples": 0}, {"samples": True}, {"seed": 1.5}):
        with pytest.raises(InvalidInputError):
            dense_oracle("dtrD", a, b, **bad)
    assert dense_oracle("dtrD", a, b, samples=np.int64(64), seed=np.int64(1)) > 0.0


def test_mismatched_pairs_rejected():
    a = random_channel(2, 2, rank=2, kind="cptp", seed=1)
    b = random_channel(3, 3, rank=2, kind="cptp", seed=1)
    with pytest.raises(InvalidInputError):
        distance("dtrD", a, b, FAST)


# ---------------------------------------------------------------------------
# renormalized distance at a fixed state
# ---------------------------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_renormalized_distance_bounds(seed):
    rng = np.random.default_rng(seed)
    a = random_channel(2, 2, rank=2, kind="postselection", seed=rng)
    b = random_channel(2, 2, rank=2, kind="postselection", seed=rng)
    rho = random_density(2, seed=rng)
    value = evaluate_witness("hat-tr", a, b, rho)
    assert 0.0 <= value <= 2.0 + 1e-12
    assert evaluate_witness("hat-tr", a, a, rho) == 0.0
    assert evaluate_witness("hat-tr", b, a, rho) == pytest.approx(value, abs=1e-12)


# ---------------------------------------------------------------------------
# the ascent itself, on the Rayleigh quotient <u, A u>
# ---------------------------------------------------------------------------


def _rayleigh(dim, seed):
    # f(u) = <u, A u> over unit u for a seeded Hermitian A, with its
    # closed-form gradient (complex gradient 2 A u); every call's rows are counted.
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    a = (g + g.conj().T) / 2
    calls = {"rows": 0, "start": None}

    def value_fn(x, problem):
        calls["rows"] += x.shape[0]
        u, _, bad = unit_rows(x, dim)
        vals = np.einsum("mi,ij,mj->m", u.conj(), a, u).real
        vals[bad] = -np.inf
        if calls["start"] is None:
            calls["start"] = vals.copy()
        return vals

    def grad_fn(x, problem):
        calls["rows"] += x.shape[0]
        u, norms, bad = unit_rows(x, dim)
        return unit_rows_gradient(2.0 * u @ a.T, u, norms, bad)

    return a, value_fn, grad_fn, calls


RAYLEIGH_CFG = OptimizerConfig(
    master_seed=3, restarts=8, max_iterations=2000, value_tolerance=1e-12
)


def _one_problem(cfg, n_params):
    # The start rows distance_batch gives one request of this config.
    return _starts(cfg.master_seed, cfg.restarts, n_params)[None]


@pytest.mark.parametrize("dim, seed", [(3, 0), (3, 1), (5, 0), (5, 1)])
def test_maximize_finds_the_largest_eigenvalue(dim, seed):
    a, value_fn, grad_fn, _ = _rayleigh(dim, seed)
    (res,) = maximize(value_fn, grad_fn, _one_problem(RAYLEIGH_CFG, 2 * dim), RAYLEIGH_CFG)
    assert res.values.max() == pytest.approx(np.linalg.eigvalsh(a)[-1], abs=1e-9)


def test_a_seed_past_two_to_the_63_draws_its_own_starts():
    # A seed is any integer >= 0 and keys its restart streams as it is, so
    # 2**64 + 7 no longer aliases 7.
    a, b = nonconvexity_pair(0.25)
    keys = []

    def recording(*key):
        keys.append(key)
        return _starts(*key)

    with mock.patch.object(distances, "_starts", recording):
        for seed in (7, 2**64 + 7):
            distance("dtr", a, b, dataclasses.replace(RAYLEIGH_CFG, master_seed=seed))
    small, large = (_starts(*key) for key in keys)
    assert not np.array_equal(small, large)


def test_maximize_starts_are_drawn_once_and_never_shared():
    # Restart r starts from the normalized first draw of its own stream
    # (master_seed, r), drawn once per process as read-only rows.
    # Two runs from the same rows start from them, give equal results and
    # leave them unchanged, even after the first run's points were written over.
    dim, seed = 3, 7
    cfg = dataclasses.replace(RAYLEIGH_CFG, master_seed=seed)
    _, value_fn, grad_fn, _ = _rayleigh(dim, 0)
    starts = _starts(cfg.master_seed, cfg.restarts, 2 * dim)
    assert starts is _starts(seed, cfg.restarts, 2 * dim) and not starts.flags.writeable
    expected = np.array(
        [np.random.default_rng([seed, r]).standard_normal(2 * dim) for r in range(cfg.restarts)]
    )
    expected /= np.linalg.norm(expected, axis=1)[:, None]
    assert np.array_equal(starts, expected)

    def first_rows_and_result():
        first = []

        def recording(x, problem):
            if not first:
                first.append(x.copy())
            return value_fn(x, problem)

        (res,) = maximize(recording, grad_fn, starts[None], cfg)
        return first[0], res

    start, res = first_rows_and_result()
    values, points = res.values.copy(), res.points.copy()
    assert np.array_equal(start, expected)
    res.points[...] = np.nan
    again, res_again = first_rows_and_result()
    assert np.array_equal(again, expected)
    assert np.array_equal(res_again.values, values) and np.array_equal(res_again.points, points)
    assert np.array_equal(starts, expected)


@pytest.mark.parametrize("dim, seed", [(3, 0), (5, 1)])
def test_maximize_never_lowers_a_restart(dim, seed):
    _, value_fn, grad_fn, calls = _rayleigh(dim, seed)
    (res,) = maximize(value_fn, grad_fn, _one_problem(RAYLEIGH_CFG, 2 * dim), RAYLEIGH_CFG)
    assert calls["start"].shape == (RAYLEIGH_CFG.restarts,)
    assert np.all(res.values >= calls["start"])
    # A run capped at k iterations is the first k steps of a longer one, so
    # the values under growing caps trace every restart step by step.
    previous = calls["start"]
    for cap in range(1, 40):
        cfg = OptimizerConfig(master_seed=3, restarts=8, max_iterations=cap, value_tolerance=1e-12)
        values = maximize(*_rayleigh(dim, seed)[1:3], _one_problem(cfg, 2 * dim), cfg)[0].values
        assert np.all(values >= previous)
        previous = values


@pytest.mark.parametrize("dim, seed", [(3, 0), (5, 1)])
@pytest.mark.parametrize("max_iterations", [0, 1, 7, 2000])
def test_maximize_counts_every_row_it_evaluates(dim, seed, max_iterations):
    _, value_fn, grad_fn, calls = _rayleigh(dim, seed)
    cfg = OptimizerConfig(master_seed=3, restarts=8, max_iterations=max_iterations)
    (res,) = maximize(value_fn, grad_fn, _one_problem(cfg, 2 * dim), cfg)
    assert res.evaluations == calls["rows"]
    assert res.iterations <= max_iterations


def test_optimizer_config_takes_integer_counts():
    for bad in ({"restarts": 2.5}, {"max_iterations": 2.5}, {"master_seed": 1.5}, {"restarts": True}):
        with pytest.raises(InvalidInputError):
            OptimizerConfig(**bad)
    cfg = OptimizerConfig(restarts=np.int64(3), max_iterations=np.int32(20), master_seed=np.uint64(7))
    assert distance("dtrD", *_pair(1), cfg).restarts_used == 3


# ---------------------------------------------------------------------------
# properties from the measures' own structure
# ---------------------------------------------------------------------------

PROPERTY_SEEDS = st.integers(min_value=0, max_value=10_000)


@settings(max_examples=6, deadline=None)
@given(PROPERTY_SEEDS, st.floats(min_value=0.01, max_value=1.0))
def test_hat_distance_to_a_scaled_copy_is_zero(seed, c):
    psi = random_channel(2, 2, rank=2, kind="postselection", seed=seed)
    for m in ("hat-tr", "hat-diamond"):
        assert distance(m, psi, scale(psi, c), FAST).value <= 1e-12


@settings(max_examples=6, deadline=None)
@given(PROPERTY_SEEDS, st.floats(min_value=0.01, max_value=1.0))
def test_hat_values_ignore_the_scale_of_either_channel(seed, fraction):
    a, b = _pair(seed)
    for m in ("hat-tr", "hat-diamond"):
        est = distance(m, a, b, FAST)
        for ch in (a, b):
            # any c > 0 that keeps the channel trace-nonincreasing
            scaled = scale(ch, fraction / ch.effect_eigenvalues[-1])
            pair = (scaled, b) if ch is a else (a, scaled)
            assert evaluate_witness(m, *pair, est.witness) == pytest.approx(est.value, abs=1e-12)


@settings(max_examples=6, deadline=None)
@given(PROPERTY_SEEDS, st.sampled_from(["cptp", "postselection"]), st.sampled_from([2, 3]))
def test_dtrD_dtr_chain_by_witness_transfer(seed, kind, dim):
    a, b = _pair(seed, dim, kind)
    # dtrD <= dtr: the dtrD witness psi is the dtr witness (psi, psi).
    low = distance("dtrD", a, b, FAST)
    psi = low.witness
    assert low.value <= evaluate_witness("dtr", a, b, (psi, psi)) + 1e-12
    # dtr <= 2 dtrD: |u><v| = 1/4 sum_k i^k |w_k><w_k| with w_k = u + i^k v and
    # sum_k |w_k|^2 = 8, so ||Delta(|u><v|)||_1 <= sum_k |w_k|^2/4 dtrD(w_k/|w_k|).
    high = distance("dtr", a, b, FAST)
    u, v = (w.vector for w in high.witness)
    bound = 0.0
    for k in range(4):
        w = u + 1j**k * v
        weight = np.vdot(w, w).real / 4
        if weight > 1e-24:
            bound += weight * evaluate_witness("dtrD", a, b, PureState.normalized(w))
    assert high.value <= bound + 1e-12


def _rotated_witness(witness, w: np.ndarray):
    # The witness of the input rotated by w: W psi, (W u, W v) or W rho W^H.
    if isinstance(witness, PureState):
        return PureState(w @ witness.vector)
    if isinstance(witness, DensityMatrix):
        return DensityMatrix(w @ witness.matrix @ w.conj().T)
    return tuple(_rotated_witness(x, w) for x in witness)


@settings(max_examples=6, deadline=None)
@given(PROPERTY_SEEDS, st.sampled_from(["cptp", "postselection"]), st.sampled_from([2, 3]))
def test_unitary_covariance_at_a_witness(seed, kind, dim):
    # V o Psi o U vs V o Phi o U at a witness equals Psi vs Phi at the witness
    # rotated by U (U (x) 1 on the stabilized space): the trace norm and the
    # output traces do not see V.
    rng = np.random.default_rng(seed)
    a, b = _pair(seed, dim, kind)
    u, v = haar_isometry(rng, dim, dim), haar_isometry(rng, dim, dim)
    rot_a, rot_b = Channel(v @ a.kraus @ u), Channel(v @ b.kraus @ u)
    for m in MEASURES:
        spec = MEASURE_SPECS[m]
        anc = spec.ancilla(dim)
        witness = spec.decode(rng.standard_normal(spec.n_params(dim)), dim * anc)
        moved = _rotated_witness(witness, np.kron(u, np.eye(anc)))
        assert evaluate_witness(m, rot_a, rot_b, witness) == pytest.approx(
            evaluate_witness(m, a, b, moved), abs=1e-12
        )


@settings(max_examples=6, deadline=None)
@given(PROPERTY_SEEDS, st.sampled_from([2, 3]))
def test_hat_tr_triangle_inequality_at_a_witness(seed, dim):
    # The renormalized outputs at one input obey the trace norm's triangle
    # inequality, so any A-C witness is a fair point to check it at.
    rng = np.random.default_rng(seed)
    a, b, c = (random_channel(dim, dim, rank=2, kind="postselection", seed=rng) for _ in range(3))
    rho = random_density(dim, seed=rng)
    assert evaluate_witness("hat-tr", a, c, rho) <= (
        evaluate_witness("hat-tr", a, b, rho) + evaluate_witness("hat-tr", b, c, rho) + 1e-12
    )


def _structured_rows(n_params, rng):
    # Random rows, the zero row (bad), and every basis row and sum of two basis
    # rows: inputs in a Kraus operator's kernel, and for dtr rank-one pairs
    # |u><v| with u, v basis vectors (or v = 0, bad).
    eye = np.eye(n_params)
    i, j = np.triu_indices(n_params, k=1)
    random = rng.standard_normal((64, n_params))
    return np.concatenate([random, np.zeros((1, n_params)), eye, eye[i] + eye[j]])


@settings(max_examples=8, deadline=None)
@given(PROPERTY_SEEDS, st.sampled_from([2, 3]))
def test_kernel_floor_skips_only_rows_that_cannot_exceed_it(seed, dim):
    rng = np.random.default_rng(seed)
    u = haar_isometry(rng, dim, dim)
    swap = np.eye(dim)[[1, 0, *range(2, dim)]]
    project = Channel(np.diag(np.eye(dim)[0])[None], name="project")  # K_e u = 0 off |0>
    pairs = [
        _pair(seed, dim, "cptp"),
        _pair(seed, dim, "postselection"),
        (isometry(u), isometry(u)),  # D = 0
        (isometry(u), Channel(np.stack([u, u]) / np.sqrt(2.0))),  # D = 0 up to rounding, rank <= 3
        (isometry(u), isometry(u @ swap)),  # equal singular values on basis inputs
        (teleportation(dim), isometry(np.eye(dim))),
        (project, isometry(u)),
    ]
    # Each pair alone, and three as one group padded to one rank: per-row forms.
    groups = [[pair] for pair in pairs] + [pairs[:2] + pairs[3:4]]
    for spec in MEASURE_SPECS.values():
        for group in groups:
            channels = [ch for pair in group for ch in pair]
            if spec.postselected and not all(ch.is_postselection_valid() for ch in channels):
                continue
            ordered = [_canonical_pair(*pair) if spec.postselected else pair for pair in group]
            fn, _ = spec.kernel(ordered)
            x = _structured_rows(spec.n_params(dim), rng)
            problem = np.arange(len(x)) % len(group)
            full = fn(x, problem)
            for floor in (np.median(full[np.isfinite(full)]), full.max() - 1e-15):
                pruned = fn(x, problem, floor)
                kept = np.isfinite(pruned)
                assert pruned[kept].tobytes() == full[kept].tobytes()
                names = [ch.name for ch in channels]
                assert np.all(full[~kept] <= floor), (names, floor, full[~kept].max())


def _kernel_and_ceiling(spec, group):
    # The kernel's fn and the per-row ceiling (dual bound plus margin) it prunes by,
    # or None for a measure that takes no dual bound.
    made, dual_bound = [], distances._dual_bound

    def record(*args):
        made.append(dual_bound(*args))
        return made[-1]

    with mock.patch("postdist.distances._dual_bound", record):
        fn, _ = spec.kernel(group)
    return fn, (made[0] if made else None)


def _classical_floor_pair():
    # Two classical channels in a Haar basis U, Kraus operators sqrt(w[m, i]) |m><i| U^H,
    # with column sums (2e-10, 1): E_a = E_b = U diag(2e-10, 1) U^H, so s = 1 and c = 1
    # is on the grid.  Along U|0> the hat ceiling is tight, and only its 1/min(p, q)
    # margin term covers the rounding of the forms at p = 2e-10.
    rng = np.random.default_rng(1)
    u = haar_isometry(rng, 2, 2)
    units = np.eye(2)[:, None, :, None] * u.conj().T[None, :, None, :]  # [m, i] = |m><i| U^H
    chans = []
    for name in ("classical_a", "classical_b"):
        w = rng.dirichlet(np.ones(2), size=2).T * [2e-10, 1.0]
        chans.append(Channel((np.sqrt(w)[:, :, None, None] * units).reshape(4, 2, 2), name=name))
    return tuple(chans)


def _weak_rows(ch, n_params, rng):
    # Input factors U = v w^T with v the weakest effect direction: tr(E rho_in) = lambda_min.
    v = np.linalg.eigh(ch.effect)[1][:, 0]
    u = (v[:, None] * rng.standard_normal((8, 1, n_params // (2 * ch.dim_in)))).reshape(8, -1)
    return np.concatenate([u.real, u.imag], axis=1)


@settings(max_examples=10, deadline=None)
@given(PROPERTY_SEEDS, st.sampled_from([2, 3]), st.integers(1, 6), st.integers(1, 6))
def test_dual_ceiling_bounds_every_row(seed, dim, rank_a, rank_b):
    # Watrous's dual point |J| bounds ||((Psi - Phi) (x) 1)(rho)||_1 by tr(M rho_in), and
    # P/p - Q/q = (P - cQ)/p + (c/p - 1/q)Q carries it to hat-diamond: each row's ceiling
    # is at least the kernel's unpruned value.  The pairs at the postselection floor add
    # rows along their weakest effect direction, where tr(E rho_in) = 2e-10 and rounding in
    # P/p grows as its inverse.
    rng = np.random.default_rng(seed)
    pairs = [
        tuple(random_channel(dim, dim, rank=r, kind=kind, seed=rng) for r in (rank_a, rank_b))
        for kind in ("cptp", "postselection")
    ]
    pairs += _oracle_pairs()
    near = [
        (_near_floor_channel(41, 2e-10), random_channel(2, 2, kind="postselection", seed=42)),
        _classical_floor_pair(),
    ]
    pairs += near
    for tag in ("dtrD", "diamond", "hat-diamond"):
        spec = MEASURE_SPECS[tag]
        for pair in pairs:
            if spec.postselected and not all(ch.is_postselection_valid() for ch in pair):
                continue
            a, b = _canonical_pair(*pair) if spec.postselected else pair
            fn, ceiling = _kernel_and_ceiling(spec, [(a, b)])
            n_params = spec.n_params(a.dim_in)
            x = _structured_rows(n_params, rng)
            if any(pair is p for p in near):
                x = np.concatenate([x, *(_weak_rows(ch, n_params, rng) for ch in pair)])
            problem = np.zeros(len(x), dtype=int)
            u = unit_rows(x, n_params // 2)[0].reshape(len(x), a.dim_in, -1)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                full, cap = fn(x, problem), ceiling(u)
            low = cap < full
            assert not low.any(), (tag, a.name, b.name, (full - cap)[low].max())


def test_only_a_one_pair_kernel_takes_the_dual_bound():
    # One pair's forms bound its own rows only: a kernel of several pairs prunes by the
    # Frobenius bound alone.
    pairs = [_canonical_pair(*pair) for pair in _oracle_pairs()[:2]]
    for tag in ("dtrD", "diamond", "hat-diamond"):
        spec = MEASURE_SPECS[tag]
        assert _kernel_and_ceiling(spec, pairs[:1])[1] is not None
        assert _kernel_and_ceiling(spec, pairs)[1] is None


def test_rows_with_non_finite_ceilings_are_kept():
    # The project channel has tr(E rho_in) = 0 off |0>: the hat ceiling is not finite
    # there, and such a row is kept, without a RuntimeWarning.
    dim = 2
    project = Channel(np.diag(np.eye(dim)[0])[None], name="project")
    pair = _canonical_pair(project, random_channel(dim, dim, rank=2, kind="cptp", seed=3))
    spec = MEASURE_SPECS["hat-diamond"]
    fn, ceiling = _kernel_and_ceiling(spec, [pair])
    x = _structured_rows(spec.n_params(dim), np.random.default_rng(3))
    problem = np.zeros(len(x), dtype=int)
    u = unit_rows(x, dim * dim)[0].reshape(len(x), dim, dim)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cap = ceiling(u)
        full, pruned = fn(x, problem), fn(x, problem, 0.5)
    infinite = ~np.isfinite(cap)
    assert infinite.sum() >= 4 and not (cap[infinite] <= 0.5).any()
    assert pruned[infinite].tobytes() == full[infinite].tobytes()


def _diamond_cell():
    # A random d = 3 postselection pair, pinned: the dual bound keeps few of its samples.
    return tuple(random_channel(3, 3, rank=2, kind="postselection", seed=s) for s in (811, 812))


@pytest.mark.parametrize("cell", ["diamond", "contractivity", "teleportation"])
def test_dual_bound_prunes_before_any_image(cell, monkeypatch):
    # Rows the dual bound drops never reach kraus_images, and the oracle's float is the
    # one it returns with the bound at +inf.  The flat gallery cells keep every row.
    psi, phi, tau = contractivity_triple(1.0 / 3.0)
    measure, a, b = {
        "diamond": ("diamond", *_diamond_cell()),
        "contractivity": ("hat-diamond", compose(tau, psi), compose(tau, phi)),
        "teleportation": ("hat-diamond", teleportation(3), isometry(np.eye(3), name="identity")),
    }[cell]
    samples, rows = 16_384, []

    def counted(stack, inputs):
        rows.append(len(inputs))
        return kraus_images(stack, inputs)

    monkeypatch.setattr("postdist.distances.kraus_images", counted)
    value = dense_oracle(measure, a, b, samples=samples, seed=5)
    reached = sum(rows) // 2  # both channels' images of every row that reaches them
    if cell == "diamond":
        assert reached < samples // 8, reached
    else:
        assert reached == samples
    monkeypatch.setattr(
        "postdist.distances._dual_bound", lambda *args: lambda u: np.full(len(u), np.inf)
    )
    assert dense_oracle(measure, a, b, samples=samples, seed=5).hex() == value.hex()


def test_estimates_build_no_dual_forms(monkeypatch):
    # The forms are built on a kernel's first floored call, and maximize passes no floor.
    def refuse(*args):
        raise AssertionError("dual forms built")

    monkeypatch.setattr("postdist.distances._dual_forms", refuse)
    a, b = _pair(58)
    assert all(np.isfinite(distance(m, a, b, FAST).value) for m in MEASURES)


# ---------------------------------------------------------------------------
# the output separation bound
# ---------------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([2, 3]), st.sampled_from([2, 3, 4]), st.integers(1, 4), PROPERTY_SEEDS)
def test_output_separation_bound_holds_on_every_pure_pair(dim_in, dim_out, rank, seed):
    # ||Psi(uu^H) - Psi(vv^H)||_1 <= s-bar on random pure pairs and on every pair of basis
    # states.  Random channels rarely come near the bound, so a measure-and-prepare channel
    # adds a tight case: a random input basis, k = 2 or 3 outcomes (basis vector i gives
    # i % k), each preparing the maximally mixed state on its own rank-2 block of a randomly
    # rotated C^(2k).  Its basis pairs separate fully (2); tracing out the input factor
    # instead of the output reads 1 or 4/3 there.
    rng = np.random.default_rng(seed)
    rank = max(rank, -(-dim_in // dim_out))  # an isometry needs dim_out * rank >= dim_in
    ch = random_channel(dim_in, dim_out, rank=rank, kind="cptp", seed=rng)
    states = [random_pure(dim_in, rng).vector for _ in range(12)]
    k = int(rng.integers(2, dim_in + 1))
    basis, rotation = haar_isometry(rng, dim_in, dim_in), haar_isometry(rng, 2 * k, 2 * k)
    ops = [
        np.sqrt(0.5) * np.outer(rotation[:, 2 * (i % k) + r], basis[:, i].conj())
        for i, r in np.ndindex(dim_in, 2)
    ]
    prepare = Channel(np.array(ops), name=f"measure_prepare(k={k})")
    for channel, inputs in ((ch, states + list(np.eye(dim_in))), (prepare, list(basis.T))):
        bound = output_separation_bound(channel)
        outputs = [apply(channel, np.outer(u, u.conj())) for u in inputs]
        worst = max(trace_norm(p - q) for i, p in enumerate(outputs) for q in outputs[:i])
        # The direct trace norms round too: a unitary's basis outputs read 2 + 4e-16.
        assert 0.0 < worst <= bound + 1e-12 and bound <= 2.0, (channel.name, worst, bound)


def test_output_separation_bound_closed_forms():
    # Unitaries, a tall isometry and a measurement that prepares maximally mixed
    # states on orthogonal halves of C^4 separate basis inputs fully (2, the cap).
    # For the last, Tr_out of |J_Psi - J_(Psi o D)| is the identity but Tr_in of it
    # only 1/2, so tracing out the wrong factor reads 1.  A constant channel never
    # separates, so only the rounding margin is left.
    rng = np.random.default_rng(61)
    unitaries = [isometry(haar_isometry(rng, d, d)) for d in (2, 3, 4)]
    halves = np.zeros((2, 2, 4, 2), dtype=complex)
    for i, k in np.ndindex(2, 2):
        halves[i, k, 2 * i + k, i] = np.sqrt(0.5)
    prepare = Channel(halves.reshape(4, 4, 2), name="prepare_halves")
    for ch in (*unitaries, isometry(haar_isometry(rng, 4, 3)), prepare):
        assert output_separation_bound(ch) == 2.0, ch.name
    _, reference = conversion_pair()
    assert output_separation_bound(reference) < 1e-10


# ---------------------------------------------------------------------------
# Kraus images of a shared stack
# ---------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 12),
    st.integers(1, 9),
    st.integers(1, 9),
    st.integers(1, 9),
    st.integers(1, 700),
    st.sampled_from(["complex", "real", "padded", "column"]),
    PROPERTY_SEEDS,
)
@example(6, 3, 3, 3, 1024, "complex", 0)  # the oracle's block at d = 3, stabilized
@example(6, 3, 3, 3, 8192, "complex", 0)  # a batch past numpy's 4 MiB huge-page threshold
def test_shared_stack_kraus_images_match_the_einsum_bit_for_bit(
    rank, dim_out, dim_in, anc, rows, kind, seed
):
    rng = np.random.default_rng(seed)
    stack = rng.standard_normal((rank, dim_out, dim_in))
    if kind != "real":
        stack = stack + 1j * rng.standard_normal(stack.shape)
    if kind == "padded":  # a problem's stack zero-padded to a group's rank
        stack = np.concatenate([stack, np.zeros((rank,) + stack.shape[1:], stack.dtype)])
    shape = (rows, dim_in) if kind == "column" else (rows, dim_in, anc)
    u = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    inputs = u[:, :, None] if kind == "column" else u  # the dtr kernel's w[:, :, None] view
    images = kraus_images(stack, inputs)
    expected = np.einsum("eij,mja->meia", stack, inputs)
    # A shared stack's images keep the batch innermost (the product is not copied back).
    assert images.shape == expected.shape and images.strides[0] == images.itemsize
    assert np.ascontiguousarray(images).tobytes() == expected.tobytes()
    for joint in (False, True):
        # pure_outputs on the batch-innermost view vs the einsums on a batch-first copy
        reference = _batch_first_outputs(expected, joint)
        assert np.ascontiguousarray(pure_outputs(images, joint)).tobytes() == reference.tobytes()


# ---------------------------------------------------------------------------
# the kernels against the batch-first kit
# ---------------------------------------------------------------------------


def _batch_first_images(stack, inputs):
    # kraus_images with the shared stack's product copied back to (batch, rank, dim_out, anc).
    if stack.ndim == 4:
        return np.einsum("meij,mja->meia", stack, inputs)
    (e, o, i), (m, _, a) = stack.shape, inputs.shape
    cols = inputs.transpose(1, 0, 2).reshape(i, m * a)
    flat = np.einsum("kj,jn->kn", stack.reshape(e * o, i), cols)
    return np.ascontiguousarray(flat.reshape(e, o, m, a).transpose(2, 0, 1, 3))


def _batch_first_outputs(images, joint=False):
    # pure_outputs as one 4-index (or joint 3-index) einsum.
    m, e, o, a = images.shape
    if joint:
        flat = images.reshape(m, e, o * a)
        return np.einsum("mep,meq->mpq", flat, flat.conj())
    return np.einsum("meik,melk->mil", images, images.conj())


def _divided(out):
    # renormalized by numpy's complex division: out / tr.
    tr = np.einsum("mii->m", out).real
    small = tr < 1e-30
    tr = np.where(small, 1.0, tr)[:, None, None]
    return out / tr, tr, small


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 6),
    st.integers(1, 4),
    st.integers(1, 4),
    st.integers(1, 4),
    st.booleans(),
    st.booleans(),
    PROPERTY_SEEDS,
)
def test_renormalized_scales_like_complex_division_bit_for_bit(
    rank, dim_out, dim_in, anc, joint, shared, seed
):
    rng = np.random.default_rng(seed)
    shape = (rank, dim_out, dim_in)
    stack = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    stack[rank // 2 :, 0] = 0.0  # outputs with zero rows and columns
    u = rng.standard_normal((48, dim_in, anc)) + 1j * rng.standard_normal((48, dim_in, anc))
    u[:8] = 0.0  # zero outputs: traces of 0, replaced by 1
    u[8:16] *= 1e-17  # traces near 1e-34, replaced by 1
    u[16:24, :, 1:] = 0.0  # one nonzero column: rank-deficient outputs
    u[24:32] = u[24:32].real  # real inputs
    if not shared:
        stack = np.repeat(stack[None], len(u), axis=0)  # the per-row (C-contiguous) images
    out = pure_outputs(kraus_images(stack, u), joint)
    expected, expected_tr, expected_small = _divided(out.copy())
    got, tr, small = renormalized(out)
    assert got is out and expected_small[:16].all()
    assert got.tobytes() == expected.tobytes()
    assert tr.tobytes() == expected_tr.tobytes() and small.tobytes() == expected_small.tobytes()


def _kernel_bytes(pairs, dim):
    # fn (no floor, and the median value as floor) and grad of every measure's
    # kernel on each pair alone and on the first three as one padded group, on
    # _structured_rows and on no rows at all; each key holds the output's shape.
    results = []
    for tag, spec in MEASURE_SPECS.items():
        ordered = [_canonical_pair(a, b) if spec.postselected else (a, b) for a, b in pairs]
        x = _structured_rows(spec.n_params(dim), np.random.default_rng(len(results)))
        for g, group in enumerate([[pair] for pair in ordered] + [ordered[:3]]):
            fn, grad = spec.kernel(group)
            for rows in (x, x[:0]):
                problem = np.arange(len(rows)) % len(group)
                full = fn(rows, problem)
                floor = np.median(full[np.isfinite(full)]) if len(rows) else 1.0
                pruned = fn(rows, problem, floor)
                for what, out in (("fn", full), ("floor", pruned), ("grad", grad(rows, problem))):
                    results.append(((tag, g, what, out.shape), out.tobytes()))
    return results


@pytest.mark.parametrize("dim", [2, 3])
def test_kernels_match_the_batch_first_kit_bit_for_bit(dim, monkeypatch):
    rng = np.random.default_rng(dim)
    ranks = [(("cptp", 1), ("cptp", 6)), (("postselection", 2), ("cptp", 4))]
    ranks += [(("postselection", 5), ("postselection", 1))]  # postselection adds one operator
    pairs = [
        tuple(random_channel(dim, dim, rank=r, kind=k, seed=rng) for k, r in pair)
        for pair in ranks
    ]
    project = Channel(np.diag(np.eye(dim)[0])[None], name="project")  # traces of 0 off |0>
    pairs.append((project, random_channel(dim, dim, rank=2, kind="cptp", seed=rng)))
    changed = _kernel_bytes(pairs, dim)
    monkeypatch.setattr("postdist.distances.kraus_images", _batch_first_images)
    monkeypatch.setattr("postdist.distances.pure_outputs", _batch_first_outputs)
    monkeypatch.setattr("postdist.distances.renormalized", _divided)
    reference = _kernel_bytes(pairs, dim)
    assert [key for key, _ in changed] == [key for key, _ in reference]
    moved = [key for (key, a), (_, b) in zip(changed, reference) if a != b]
    assert not moved, moved
