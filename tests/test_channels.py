# tests/test_channels.py

import dataclasses
import json
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import postdist
from postdist.channels import (
    TRACE_ATOL,
    Channel,
    DensityMatrix,
    PureState,
    ValidityError,
    apply,
    apply_renormalized,
    channel_from_json,
    channel_to_json,
    choi_to_kraus,
    compose,
    contractivity_triple,
    conversion_pair,
    depolarizing_kraus,
    gallery,
    GALLERY_NAMES,
    haar_isometry,
    isometry,
    kraus_to_choi,
    nonconvexity_pair,
    random_channel,
    random_density,
    random_pure,
    read_channel,
    require_postselection,
    scale,
    stinespring,
    teleportation,
    tensor_with_identity,
    write_channel,
)
from postdist.cli import build_parser
from postdist.distances import MEASURE_SPECS, MEASURES, OptimizerConfig, dense_oracle
from postdist.linalg import (
    CapacityError,
    InvalidInputError,
    operator_norm,
    partial_trace,
    trace_norm,
)
from postdist.suites import RunConfig, normalize_suite_ids, run_statement
from postdist.theorems import contractivity_curve, environment_vector, nonconvexity_curve


def _rand_density(seed, dim):
    return random_density(dim, seed=seed)


# ---------------------------------------------------------------------------
# state types
# ---------------------------------------------------------------------------


def test_pure_state_validation():
    PureState(np.array([1.0, 0.0]))
    with pytest.raises(InvalidInputError):
        PureState(np.array([1.0, 1.0]))
    with pytest.raises(InvalidInputError):
        PureState(np.array([], dtype=complex))
    s = PureState.normalized(np.array([3.0, 4.0j]))
    assert s.dim == 2
    assert np.allclose(s.vector, [0.6, 0.8j], atol=1e-15)
    with pytest.raises(InvalidInputError):
        PureState.normalized(np.zeros(3))


def test_pure_state_keeps_its_own_copy():
    # Writing into the caller's array after construction leaves the state as validated.
    given = np.array([1.0, 0.0], dtype=complex)
    s = PureState(given)
    given[0] = 5.0
    assert np.array_equal(s.vector, [1.0, 0.0]) and not s.vector.flags.writeable


def test_pure_state_density():
    s = PureState.normalized(np.array([1.0, 1.0]))
    rho = s.density()
    assert np.allclose(rho.matrix, np.full((2, 2), 0.5), atol=1e-15)


def test_density_matrix_validation():
    DensityMatrix(np.eye(2) / 2)
    with pytest.raises(InvalidInputError):
        DensityMatrix(np.array([[0.5, 0.5], [0.1, 0.5]]))  # not Hermitian
    with pytest.raises(InvalidInputError):
        DensityMatrix(np.diag([1.5, -0.5]))  # negative eigenvalue
    with pytest.raises(InvalidInputError):
        DensityMatrix(np.eye(2))  # trace 2
    with pytest.raises(InvalidInputError, match="must be square"):
        DensityMatrix(np.full((2, 3), 0.5))
    with pytest.raises(InvalidInputError, match="non-finite"):
        DensityMatrix(np.diag([np.nan, 1.0]))
    mixed = DensityMatrix.maximally_mixed(3)
    assert np.allclose(mixed.matrix, np.eye(3) / 3, atol=0)


# ---------------------------------------------------------------------------
# channel construction and validity
# ---------------------------------------------------------------------------


def test_channel_dimensions_and_effect():
    psi, phi = nonconvexity_pair(0.25)
    assert (psi.dim_in, psi.dim_out, psi.rank) == (2, 2, 2)
    assert np.allclose(psi.effect, np.diag([0.75, 0.25]), atol=1e-15)
    assert np.allclose(phi.effect, np.diag([0.25, 0.75]), atol=1e-15)
    assert not psi.is_trace_preserving()
    assert psi.is_postselection_valid()


def test_channel_rejects_bad_kraus():
    with pytest.raises(ValidityError):
        Channel(())
    with pytest.raises(InvalidInputError):
        Channel((np.eye(2), np.eye(3)))
    with pytest.raises(InvalidInputError):
        Channel((np.full((2, 2), np.inf),))
    with pytest.raises(ValidityError):
        Channel((1.1 * np.eye(2),))  # effect 1.21 I


def test_channel_checks_the_cap_before_forming_the_effect(monkeypatch):
    # The effect operator of a 1 x 4097 Kraus operator would be a 4097 x 4097 matrix.
    def refuse(*args, **kwargs):
        raise AssertionError("the effect operator was formed past the dimension cap")

    monkeypatch.setattr(np, "einsum", refuse)
    with pytest.raises(CapacityError, match="exceeds dimension cap"):
        Channel((np.zeros((1, 4097)),))


def test_kraus_is_one_read_only_c_ordered_array():
    ch = Channel((0.5 * np.eye(3, 2), 0.2 * np.ones((3, 2))))
    assert [f.name for f in dataclasses.fields(Channel)] == ["kraus", "name"]
    assert isinstance(ch.kraus, np.ndarray) and ch.kraus.dtype == complex
    assert ch.kraus.shape == (ch.rank, ch.dim_out, ch.dim_in) == (2, 3, 2)
    assert ch.kraus.flags.c_contiguous
    with pytest.raises(ValueError):
        ch.kraus[0, 0, 0] = 1.0


def test_channel_keeps_its_own_copy_of_the_operators():
    ops = [0.5 * np.eye(2, dtype=complex), 0.3 * np.ones((2, 2), dtype=complex)]
    stacked = np.stack(ops)
    from_list, from_array = Channel(ops), Channel(stacked)
    before = from_list.kraus.copy()
    ops[0][0, 0] = 0.0
    stacked[:] = 0.0
    assert np.array_equal(from_list.kraus, before)
    assert np.array_equal(from_array.kraus, before)


def test_channel_equality_is_identity():
    # Comparing the Kraus arrays by value would raise (ambiguous truth value)
    # and leave channels unhashable; identity lets them key dicts and sets.
    ch, copy = teleportation(2), teleportation(2)
    assert ch == ch
    assert ch != copy
    assert hash(ch) == hash(ch)
    assert len({ch, copy, ch}) == 2


def _kernel_values(chan_a, chan_b):
    # Every measure's objective and gradient at a fixed batch, then the effect
    # operator and one output of the first channel.
    rng = np.random.default_rng(17)
    values = []
    for m in MEASURES:
        spec = MEASURE_SPECS[m]
        x = rng.standard_normal((32, spec.n_params(chan_a.dim_in)))
        values.extend(f(x, np.zeros(len(x), dtype=int)) for f in spec.kernel([(chan_a, chan_b)]))
    return values + [chan_a.effect, apply(chan_a, random_density(chan_a.dim_in, seed=rng))]


def _assert_bit_equal(values, reference):
    assert len(values) == len(reference)
    for got, want in zip(values, reference):
        assert got.tobytes() == want.tobytes()


def test_kernel_values_do_not_depend_on_operator_strides():
    a = random_channel(3, 3, rank=3, kind="postselection", seed=21)
    b = random_channel(3, 3, rank=2, kind="postselection", seed=22)
    fortran = Channel(tuple(np.asfortranarray(op) for op in a.kraus))
    c_ordered = Channel(tuple(np.ascontiguousarray(op) for op in a.kraus))
    _assert_bit_equal(_kernel_values(fortran, b), _kernel_values(c_ordered, b))


def test_compressed_composition_gives_c_ordered_kernel_values():
    # The Choi route of `compose` extracts its Kraus operators as transposed views.
    outer = random_channel(2, 2, rank=3, kind="postselection", seed=23)
    inner = random_channel(2, 2, rank=3, kind="postselection", seed=24)
    comp = compose(outer, inner)
    assert comp.rank <= 4 < outer.rank * inner.rank
    c_ordered = Channel([np.array(op, order="C") for op in comp.kraus])
    other = random_channel(2, 2, rank=2, kind="postselection", seed=25)
    _assert_bit_equal(_kernel_values(comp, other), _kernel_values(c_ordered, other))


def test_trace_preserving_at_the_tolerance_edge():
    cptp = random_channel(3, 3, rank=2, kind="cptp", seed=26)
    assert cptp.is_trace_preserving()
    assert scale(cptp, 1 - 5e-10).is_trace_preserving()
    assert not scale(cptp, 1 - 2e-9).is_trace_preserving()


def test_trace_preserving_agrees_with_the_effect_operator_norm():
    channels = [
        *gallery("nonconvexity_pair", epsilon=0.2),
        *gallery("contractivity_triple", epsilon=0.3),
        *gallery("conversion_pair"),
        *gallery("teleportation", dim=3),
        *gallery("isometry", matrix=haar_isometry(np.random.default_rng(28), 3, 2)),
    ]
    for seed in range(6):
        for kind in ("cptp", "postselection"):
            channels.append(random_channel(2 + seed % 2, 3, rank=2, kind=kind, seed=seed))
    cptp = random_channel(2, 2, rank=2, kind="cptp", seed=27)
    channels += [scale(cptp, f) for f in (1 - 5e-10, 1 - 9e-10, 1 - 1.1e-9, 1 - 2e-9)]
    flags = [ch.is_trace_preserving() for ch in channels]
    assert flags == [operator_norm(ch.effect - np.eye(ch.dim_in)) <= TRACE_ATOL for ch in channels]
    assert True in flags and False in flags


def test_validate_reports():
    ch = random_channel(3, 3, rank=2, kind="cptp", seed=11)
    assert ch.is_trace_preserving()
    assert ch.is_postselection_valid()
    assert ch.effect_eigenvalues[-1] == pytest.approx(1.0, abs=1e-9)

    proj = Channel((np.diag([1.0, 0.0]).astype(complex),), name="projector")
    assert not proj.is_postselection_valid()
    with pytest.raises(ValidityError):
        require_postselection(proj)


# ---------------------------------------------------------------------------
# applying channels
# ---------------------------------------------------------------------------


def test_apply_frozen_example():
    psi, _ = nonconvexity_pair(0.25)
    out = apply(psi, DensityMatrix.maximally_mixed(2))
    assert np.allclose(out, np.diag([0.375, 0.125]), atol=1e-15)


def test_apply_renormalized():
    psi, _ = nonconvexity_pair(0.25)
    rho, prob = apply_renormalized(psi, DensityMatrix.maximally_mixed(2))
    assert prob == pytest.approx(0.5, abs=1e-12)
    assert np.allclose(rho.matrix, np.diag([0.75, 0.25]), atol=1e-12)


def test_apply_renormalized_requires_postselection_validity():
    proj = Channel((np.diag([1.0, 0.0]).astype(complex),))
    with pytest.raises(ValidityError):
        apply_renormalized(proj, DensityMatrix.maximally_mixed(2))
    # A valid channel on an input it maps to zero has nothing to renormalize.
    psi, _ = nonconvexity_pair(0.25)
    with pytest.raises(ValidityError, match="postselection probability 0.0"):
        apply_renormalized(psi, np.zeros((2, 2)))


def test_apply_dimension_mismatch():
    psi, _ = nonconvexity_pair(0.25)
    with pytest.raises(InvalidInputError):
        apply(psi, DensityMatrix.maximally_mixed(3))
    with pytest.raises(InvalidInputError, match="does not match input dimension"):
        apply(psi, DensityMatrix.maximally_mixed(2), 2)
    for anc in (0, 2.0, True):
        message = f"ancilla dimension must be an integer >= 1, got {anc!r}"
        with pytest.raises(InvalidInputError, match=re.escape(message)):
            apply(psi, DensityMatrix.maximally_mixed(2), anc)


@pytest.mark.parametrize("anc", [1, 2, 3])
def test_apply_with_ancilla_is_the_extension_channel_bit_for_bit(anc):
    rng = np.random.default_rng(40 + anc)
    cptp = random_channel(2, 3, rank=2, kind="cptp", seed=rng)
    post = random_channel(3, 2, rank=3, kind="postselection", seed=rng)
    product = compose(post, cptp)
    for ch in (cptp, post, product):
        x = random_density(ch.dim_in * anc, seed=rng).matrix
        assert apply(ch, x, anc).tobytes() == apply(tensor_with_identity(ch, anc), x).tobytes()


def test_apply_is_linear_and_positive():
    rng = np.random.default_rng(7)
    ch = random_channel(3, 2, rank=3, kind="postselection", seed=8)
    for _ in range(20):
        rho = random_density(3, seed=rng)
        out = apply(ch, rho)
        w = np.linalg.eigvalsh((out + out.conj().T) / 2)
        assert w[0] >= -1e-12
        assert np.trace(out).real <= 1.0 + 1e-9


# ---------------------------------------------------------------------------
# representations: Choi, Stinespring
# ---------------------------------------------------------------------------


def test_choi_round_trip_preserves_map():
    rng = np.random.default_rng(21)
    for kind in ("cptp", "postselection"):
        ch = random_channel(2, 3, rank=2, kind=kind, seed=rng)
        back = choi_to_kraus(kraus_to_choi(ch), ch.dim_in, ch.dim_out, name="back")
        for _ in range(10):
            rho = random_density(2, seed=rng)
            assert np.allclose(apply(ch, rho), apply(back, rho), atol=1e-10)


def test_choi_trace_equals_effect_trace():
    ch = random_channel(3, 2, rank=2, kind="postselection", seed=5)
    choi = kraus_to_choi(ch)
    assert np.trace(choi).real == pytest.approx(
        np.trace(ch.effect).real, abs=1e-10
    )


@pytest.mark.parametrize(
    "choi, dims, error, match",
    [
        (np.eye(3, dtype=complex), (2, 2), InvalidInputError, "must have shape"),
        (np.diag([1.0, np.nan, 1.0, 1.0]).astype(complex), (2, 2), InvalidInputError, "non-finite"),
        (np.triu(np.ones((4, 4), dtype=complex)), (2, 2), InvalidInputError, "not Hermitian"),
        (
            np.diag([1.0, 1.0, 1.0, -0.2]).astype(complex),
            (2, 2),
            ValidityError,
            "not completely positive",
        ),
        (np.eye(4, dtype=complex), (2.0, 2), InvalidInputError, "dim_in must be an integer >= 1"),
        (np.eye(4, dtype=complex), (True, 4), InvalidInputError, "dim_in must be an integer >= 1"),
        (np.eye(4, dtype=complex), (-2, -2), InvalidInputError, "dim_in must be an integer >= 1"),
    ],
    ids=[
        "wrong-shape",
        "non-finite",
        "non-hermitian",
        "negative-eigenvalue",
        "float-dim",
        "bool-dim",
        "negative-dims",
    ],
)
def test_choi_rejects_non_cp(choi, dims, error, match):
    with pytest.raises(error, match=match):
        choi_to_kraus(choi, *dims)


def test_stinespring_layout_and_consistency():
    ch = random_channel(2, 3, rank=2, kind="cptp", seed=9)
    a = stinespring(ch)
    assert a.shape == (ch.dim_out * ch.rank, ch.dim_in)
    # rows are indexed (output, environment)
    for e, op in enumerate(ch.kraus):
        for m in range(ch.dim_out):
            assert np.allclose(a[m * ch.rank + e], op[m], atol=0)
    # A^H A equals the effect operator
    assert np.allclose(a.conj().T @ a, ch.effect, atol=1e-12)
    # tracing out the environment of A rho A^H reproduces the channel
    rho = random_density(2, seed=10)
    big = a @ rho.matrix @ a.conj().T
    assert np.allclose(
        partial_trace(big, (ch.dim_out, ch.rank), "first"), apply(ch, rho), atol=1e-12
    )


# ---------------------------------------------------------------------------
# composition, scaling, extension
# ---------------------------------------------------------------------------


def test_compose_contractivity_example():
    psi, _, tau = contractivity_triple(1.0 / 3.0)
    composed = compose(tau, psi)
    out = apply(composed, DensityMatrix.maximally_mixed(3))
    assert np.allclose(out, np.diag([1.0 / 6.0, 0.5, 0.0]), atol=1e-12)


def test_compose_compresses_rank():
    psi, _, tau = contractivity_triple(0.5)
    composed = compose(tau, psi)
    assert composed.rank <= composed.dim_in * composed.dim_out
    rng = np.random.default_rng(14)
    for _ in range(10):
        rho = random_density(3, seed=rng)
        assert np.allclose(
            apply(composed, rho), apply(tau, apply(psi, rho)), atol=1e-12
        )


def test_compose_rank_compression_takes_one_choi_eigendecomposition(monkeypatch):
    outer = random_channel(3, 3, rank=3, kind="cptp", seed=3)
    inner = random_channel(2, 3, rank=3, kind="cptp", seed=4)
    choi_shape = (inner.dim_in * outer.dim_out,) * 2
    calls = []
    for fname in ("eigh", "eigvalsh"):
        original = getattr(np.linalg, fname)

        def counted(a, *args, _original=original, _fname=fname, **kwargs):
            if np.shape(a)[-2:] == choi_shape:
                calls.append(_fname)
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, fname, counted)
    composed = compose(outer, inner)
    assert outer.rank * inner.rank > composed.dim_in * composed.dim_out >= composed.rank
    assert calls == ["eigh"]


def test_compose_keeps_a_zero_composition_uncompressed():
    # The outer channel reads only |1>, the inner one prepares |0>: all six
    # products vanish, and an all-zero Choi matrix has no smaller realization.
    ket0, ket1 = np.eye(2, dtype=complex)
    inner = Channel((np.outer(ket0, ket0), np.outer(ket0, ket1)))
    reads_one = np.sqrt(1.0 / 3.0) * np.array([np.outer(ket0, ket1), *[np.outer(ket1, ket1)] * 2])
    comp = compose(Channel(reads_one), inner)
    assert comp.rank == 6 > comp.dim_in * comp.dim_out
    assert not comp.kraus.any()


def test_compose_dimension_check():
    a = random_channel(2, 3, rank=2, kind="cptp", seed=1)
    with pytest.raises(InvalidInputError):
        compose(a, a)


def test_scale():
    ch = random_channel(2, 2, rank=2, kind="cptp", seed=2)
    half = scale(ch, 0.5)
    assert np.allclose(half.effect, 0.5 * ch.effect, atol=1e-12)
    with pytest.raises(ValidityError):
        scale(ch, 1.2)
    with pytest.raises(InvalidInputError):
        scale(ch, 0.0)
    with pytest.raises(InvalidInputError):
        scale(ch, -1.0)


def test_tensor_with_identity():
    ch = random_channel(2, 3, rank=2, kind="cptp", seed=3)
    assert tensor_with_identity(ch, 1) is ch
    ext = tensor_with_identity(ch, 2)
    assert (ext.dim_in, ext.dim_out, ext.rank) == (4, 6, 2)
    rho_a = random_density(2, seed=4).matrix
    rho_b = random_density(2, seed=5).matrix
    joint = np.kron(rho_a, rho_b)
    out = apply(ext, joint)
    assert np.allclose(out, np.kron(apply(ch, rho_a), rho_b), atol=1e-12)
    with pytest.raises(CapacityError):
        tensor_with_identity(ch, 3000)


def test_tensor_with_identity_rejects_non_integer_ancilla():
    ch = teleportation(2)
    for bad in (1.5, 2.0, True, 0):
        with pytest.raises(InvalidInputError):
            tensor_with_identity(ch, bad)
    assert tensor_with_identity(ch, np.int64(2)).dim_in == 4


def test_contraction_under_trace_nonincreasing_maps():
    # ||Psi(X)||_1 <= ||X||_1 for CP trace-nonincreasing Psi and Hermitian X.
    rng = np.random.default_rng(6)
    for i in range(50):
        d = int(rng.integers(2, 4))
        kind = "cptp" if i % 2 == 0 else "postselection"
        ch = random_channel(d, int(rng.integers(2, 4)), rank=2, kind=kind, seed=rng)
        x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        x = (x + x.conj().T) / 2
        assert trace_norm(apply(ch, x)) <= trace_norm(x) + 1e-9


# ---------------------------------------------------------------------------
# random channels
# ---------------------------------------------------------------------------


def test_random_channel_determinism():
    a = random_channel(3, 2, rank=2, kind="postselection", seed=42)
    b = random_channel(3, 2, rank=2, kind="postselection", seed=42)
    assert all((x == y).all() for x, y in zip(a.kraus, b.kraus))


def test_random_channel_kinds():
    cptp = random_channel(3, 3, rank=2, kind="cptp", seed=0)
    assert cptp.is_trace_preserving()
    post = random_channel(3, 3, rank=2, kind="postselection", seed=0)
    assert post.is_postselection_valid()
    assert post.effect_eigenvalues[0] >= 0.009
    assert post.effect_eigenvalues[-1] <= 1.0
    assert not post.is_trace_preserving()
    with pytest.raises(InvalidInputError):
        random_channel(2, 2, rank=2, kind="unital", seed=0)
    with pytest.raises(InvalidInputError):
        random_channel(0, 2, rank=2, seed=0)
    with pytest.raises(InvalidInputError):
        random_channel(4, 1, rank=2, kind="cptp", seed=0)  # no isometry fits


def test_random_channel_checks_the_cap_before_any_draw():
    rng = np.random.default_rng(0)
    fresh = rng.bit_generator.state
    with pytest.raises(CapacityError, match="exceeds dimension cap"):
        random_channel(2, 2049, rank=2, seed=rng)  # dilation 2049 * 2 > 4096
    assert rng.bit_generator.state == fresh


def test_random_channel_rejects_non_integer_sizes():
    for args, kwargs in (
        ((2.5, 2), {}),
        ((2, 2.5), {}),
        ((2, 2), {"rank": 1.5}),
        ((True, 2), {}),
        ((2, 2), {"seed": 1.5}),
    ):
        for kind in ("cptp", "postselection"):
            with pytest.raises(InvalidInputError):
                random_channel(*args, **{"kind": kind, "seed": 0, **kwargs})
    assert random_channel(np.int64(2), 3, rank=np.int32(2), seed=0).kraus.shape == (2, 3, 2)


@pytest.mark.parametrize(
    "make, args, error",
    [
        (random_density, (2.5,), InvalidInputError),
        (random_density, (2, 1.5), InvalidInputError),
        (random_pure, (2.5,), InvalidInputError),
        (random_pure, (True,), InvalidInputError),
        (random_pure, (2, 1.5), InvalidInputError),
        (random_channel, (2, 2, 2, "cptp", -1), InvalidInputError),
        (random_channel, (2, 2, 2, "postselection", -1), InvalidInputError),
        (random_density, (2, -3), InvalidInputError),
        (random_pure, (2, -1), InvalidInputError),
        (random_pure, (2, np.int64(-1)), InvalidInputError),
        (haar_isometry, (np.random.default_rng(0), 2.5, 2), InvalidInputError),
        (haar_isometry, (np.random.default_rng(0), 2, 3), InvalidInputError),
        (haar_isometry, (-1, 2, 2), InvalidInputError),
        (haar_isometry, (1.5, 2, 2), InvalidInputError),
        (haar_isometry, (True, 2, 2), InvalidInputError),
        (haar_isometry, ("0", 2, 2), InvalidInputError),
        (DensityMatrix.maximally_mixed, (2.5,), InvalidInputError),
        (nonconvexity_curve, (0.1, 2.5), InvalidInputError),
    ],
    ids=[
        "random_density-dim",
        "random_density-seed",
        "random_pure-dim",
        "random_pure-bool-dim",
        "random_pure-seed",
        "random_channel-cptp-negative-seed",
        "random_channel-postselection-negative-seed",
        "random_density-negative-seed",
        "random_pure-negative-seed",
        "random_pure-negative-numpy-seed",
        "haar_isometry-dim",
        "haar_isometry-wide",
        "haar_isometry-negative-seed",
        "haar_isometry-float-seed",
        "haar_isometry-bool-seed",
        "haar_isometry-str-seed",
        "maximally_mixed-dim",
        "nonconvexity_curve-grid",
    ],
)
def test_sizes_and_seeds_must_be_integers(make, args, error):
    with pytest.raises(error):
        make(*args)
    # A rejected call draws nothing from a generator it was handed.
    fresh = np.random.default_rng(0).bit_generator.state
    assert all(a.bit_generator.state == fresh for a in args if isinstance(a, np.random.Generator))


def _zero_draw_postselection_channel():
    with mock.patch("postdist.channels._ginibre", lambda rng, rows, cols: np.zeros((rows, cols))):
        return random_channel(2, 2, kind="postselection", seed=0)


def _run_cli(*argv):
    # The command itself, without main's mapping of errors to exit codes.
    args = build_parser().parse_args(argv)
    return args.func(args)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: scale(teleportation(2), -1.0), "scale factor must be positive and finite"),
        (lambda: random_density(2, seed=-3), "seed must be an integer >= 0, got -3"),
        (lambda: random_density(0), "dimension must be an integer >= 1"),
        (lambda: DensityMatrix.maximally_mixed(0), "dimension must be an integer >= 1"),
        (lambda: random_pure(2.5), "dimension must be an integer >= 1"),
        (lambda: haar_isometry(0, 2, 3), "dim_out must be an integer >= 3, got 2"),
        (lambda: random_channel(2.5, 2), "dim_in must be an integer >= 1, got 2.5"),
        (lambda: random_channel(4, 1, kind="cptp"), "no isometry into 1*2 dimensions from 4"),
        (_zero_draw_postselection_channel, "degenerate random draw"),
        (lambda: random_channel(2, 2, kind="unital"), "unknown channel kind 'unital'"),
        (lambda: nonconvexity_pair(0.5), "nonconvexity_pair needs 0 < epsilon < 1/2"),
        (lambda: contractivity_triple(1.0), "contractivity_triple needs 0 < epsilon < 1"),
        (lambda: teleportation(1), "teleportation dim must be an integer >= 2, got 1"),
        (lambda: tensor_with_identity(teleportation(2), 1.5), "ancilla dimension must be"),
        (lambda: isometry(np.zeros((2, 3))), "isometry needs a tall or square matrix"),
        (lambda: isometry(np.full((2, 2), 0.5)), "matrix is not an isometry within 1e-10"),
        (lambda: gallery("does_not_exist"), "unknown gallery name 'does_not_exist'"),
        (
            lambda: gallery("teleportation", dim=1.5),
            "teleportation dim must be an integer >= 2, got 1.5",
        ),
        (lambda: gallery("nonconvexity_pair"), "gallery 'nonconvexity_pair': missing"),
        (lambda: gallery("conversion_pair", epsilon=0.1), "gallery 'conversion_pair': got an"),
        (lambda: RunConfig(trials=0), "trials must be an integer >= 1, got 0"),
        (lambda: RunConfig(restarts=0), "restarts must be an integer >= 1, got 0"),
        (lambda: RunConfig(dims=()), "dims must be a nonempty tuple of integers, got ()"),
        (lambda: normalize_suite_ids("L1,T9"), "unknown statement id 'T9'"),
        (lambda: normalize_suite_ids(" , "), "no statement ids given"),
        (lambda: run_statement("T9"), "unknown statement id 'T9'"),
        (lambda: _run_cli("verify", "--dims", "2,x"), "cannot parse dims '2,x'"),
        (lambda: _run_cli("verify", "--dims", "1"), "--dims entry must be an integer >= 2, got 1"),
        (lambda: _run_cli("curve", "--figure", "1"), "figure 1 needs --epsilon"),
        (
            lambda: _run_cli("curve", "--figure", "2", "--grid", "1"),
            "grid must be an integer >= 2, got 1",
        ),
        (lambda: RunConfig(dims=5), "dims must be a nonempty tuple of integers, got 5"),
        (lambda: RunConfig(dims=[2]), "dims must be a nonempty tuple of integers, got [2]"),
        (lambda: normalize_suite_ids(["T1"]), "suite ids must be a string"),
        (lambda: PureState(["1", "0"]), "pure state vector: expected numeric entries"),
        (lambda: DensityMatrix([["1", 0], [0, 0]]), "density matrix: expected numeric entries"),
        (lambda: Channel([[["1", 0], [0, 0]]]), "Kraus operators: expected numeric entries"),
        (lambda: isometry([["1", 0], [0, 1]]), "isometry matrix: expected numeric entries"),
        (lambda: apply(teleportation(2), [["1", 0], [0, 0]]), "rho: expected numeric entries"),
        (lambda: choi_to_kraus([["1"] * 4] * 4, 2, 2), "Choi matrix: expected numeric entries"),
        (
            lambda: environment_vector(teleportation(2), [["1", 0], [0, 1]], PureState([1, 0])),
            "iso: expected numeric entries",
        ),
        (lambda: OptimizerConfig(master_seed=-1), "master_seed must be an integer >= 0, got -1"),
        (lambda: RunConfig(seed=-1), "seed must be an integer >= 0, got -1"),
        (
            lambda: dense_oracle("dtr", teleportation(2), teleportation(2), seed=-1),
            "seed must be an integer >= 0, got -1",
        ),
    ],
    ids=[
        "scale-factor",
        "seed",
        "random_density-dim",
        "maximally_mixed-dim",
        "random_pure-dim",
        "haar_isometry-dims",
        "random_channel-sizes",
        "random_channel-no-isometry",
        "random_channel-zero-draw",
        "random_channel-kind",
        "nonconvexity_pair-epsilon",
        "contractivity_triple-epsilon",
        "teleportation-dim",
        "tensor_with_identity-ancilla",
        "isometry-wide",
        "isometry-not-isometric",
        "gallery-name",
        "gallery-teleportation-dim",
        "gallery-missing-parameter",
        "gallery-unexpected-parameter",
        "RunConfig-trials",
        "RunConfig-restarts",
        "RunConfig-dims",
        "suite-id",
        "suite-empty",
        "run_statement-id",
        "cli-dims-parse",
        "cli-dims-range",
        "cli-curve-epsilon",
        "cli-curve-grid",
        "RunConfig-dims-int",
        "RunConfig-dims-list",
        "suite-list",
        "PureState-str",
        "DensityMatrix-str",
        "Channel-str",
        "isometry-str",
        "apply-str",
        "choi_to_kraus-str",
        "environment_vector-str",
        "OptimizerConfig-seed",
        "RunConfig-seed",
        "dense_oracle-seed",
    ],
)
def test_a_bad_argument_raises_invalid_input_error(call, message):
    with pytest.raises(InvalidInputError, match=re.escape(message)) as exc:
        call()
    assert type(exc.value) is InvalidInputError


@pytest.mark.parametrize(
    "call, message",
    [
        (
            lambda: scale(teleportation(2), "0.5"),
            "scale factor must be positive and finite, got '0.5'",
        ),
        (
            lambda: scale(teleportation(2), None),
            "scale factor must be positive and finite, got None",
        ),
        (
            lambda: scale(teleportation(2), True),
            "scale factor must be positive and finite, got True",
        ),
        (lambda: nonconvexity_pair("0.25"), "needs 0 < epsilon < 1/2, got '0.25'"),
        (
            lambda: gallery("contractivity_triple", epsilon=None),
            "needs 0 < epsilon < 1, got None",
        ),
        (
            lambda: OptimizerConfig(step_tolerance="x"),
            "optimizer needs a finite step_tolerance >= 0, got 'x'",
        ),
        (
            lambda: RunConfig(value_tolerance=None),
            "optimizer needs a finite value_tolerance >= 0, got None",
        ),
        (lambda: nonconvexity_curve("x"), "needs 0 < epsilon < 1/2, got 'x'"),
        (lambda: contractivity_curve("x"), "needs 0 < epsilon < 1, got 'x'"),
        (
            lambda: scale(teleportation(2), 10**400),
            f"scale factor must be positive and finite, got {10**400}",
        ),
        (
            lambda: OptimizerConfig(step_tolerance=10**400),
            f"optimizer needs a finite step_tolerance >= 0, got {10**400}",
        ),
    ],
    ids=[
        "scale-str",
        "scale-none",
        "scale-bool",
        "nonconvexity_pair-str",
        "gallery-contractivity_triple-none",
        "OptimizerConfig-step_tolerance",
        "RunConfig-value_tolerance",
        "nonconvexity_curve-str",
        "contractivity_curve-str",
        "scale-overflow",
        "OptimizerConfig-step_tolerance-overflow",
    ],
)
def test_a_non_numeric_real_raises_invalid_input_error(call, message):
    # Real parameters take finite real numbers only: a string, None, a bool or an
    # integer too large for a float is a bad argument, not a float conversion's
    # TypeError or OverflowError.
    with pytest.raises(InvalidInputError, match=re.escape(message)) as exc:
        call()
    assert type(exc.value) is InvalidInputError


def test_a_bad_argument_has_one_error_class():
    assert not hasattr(postdist, "ParameterError")


@pytest.mark.parametrize("dim_in, dim_out", [(3, 3), (2, 3), (3, 2)])
def test_depolarizing_kraus_has_identity_effect_in_output_input_order(dim_in, dim_out):
    ops = depolarizing_kraus(dim_in, dim_out, 0.3)
    assert ops.shape == (dim_out * dim_in, dim_out, dim_in)
    effect = np.einsum("emi,emj->ij", ops.conj(), ops)
    assert np.allclose(effect, 0.3 * np.eye(dim_in), atol=1e-15)
    # Operator m * dim_in + i is sqrt(0.3 / dim_out) |m><i|.
    for index, op in enumerate(ops):
        unit = np.zeros((dim_out, dim_in))
        unit[divmod(index, dim_in)] = np.sqrt(0.3 / dim_out)
        assert np.array_equal(op, unit)


def test_random_states_deterministic():
    assert (random_pure(3, seed=1).vector == random_pure(3, seed=1).vector).all()
    assert (random_density(3, seed=1).matrix == random_density(3, seed=1).matrix).all()
    # An integer seed, a numpy integer seed and a Generator seeded alike draw one stream.
    for seed in (np.uint8(7), np.random.default_rng(7)):
        assert (random_pure(3, seed=seed).vector == random_pure(3, seed=7).vector).all()
    for seed in (np.uint8(7), np.random.default_rng(7)):
        assert (haar_isometry(seed, 3, 2) == haar_isometry(7, 3, 2)).all()


# ---------------------------------------------------------------------------
# gallery
# ---------------------------------------------------------------------------


def test_gallery_names_construct():
    assert gallery("nonconvexity_pair", epsilon=0.25)[0].dim_in == 2
    assert len(gallery("contractivity_triple", epsilon=0.5)) == 3
    assert len(gallery("conversion_pair")) == 2
    assert gallery("teleportation", dim=3)[0].dim_in == 3
    assert gallery("isometry", matrix=np.eye(2))[0].rank == 1
    assert set(GALLERY_NAMES) == {
        "nonconvexity_pair",
        "contractivity_triple",
        "conversion_pair",
        "teleportation",
        "isometry",
    }


def test_gallery_parameter_errors():
    with pytest.raises(InvalidInputError):
        gallery("nonconvexity_pair")
    with pytest.raises(InvalidInputError):
        gallery("nonconvexity_pair", epsilon=0.25, dim=2)
    with pytest.raises(InvalidInputError):
        gallery("conversion_pair", epsilon=0.1)
    with pytest.raises(InvalidInputError):
        gallery("does_not_exist")
    with pytest.raises(InvalidInputError):
        gallery("nonconvexity_pair", epsilon=0.5)
    with pytest.raises(InvalidInputError):
        gallery("contractivity_triple", epsilon=1.0)
    with pytest.raises(InvalidInputError):
        gallery("teleportation", dim=1)


def test_gallery_teleportation_rejects_non_integer_dim():
    # Before, the gallery truncated dim=2.7 to the dim-2 channel.
    for bad in (2.7, 3.0, "3"):
        with pytest.raises(InvalidInputError):
            gallery("teleportation", dim=bad)
    assert gallery("teleportation", dim=np.int64(3))[0].name == "teleportation(dim=3)"


def test_teleportation_rejects_non_integer_dim():
    for bad in (2.5, 2.0, True):
        with pytest.raises(InvalidInputError):
            teleportation(bad)


def test_contractivity_constant_channels_ignore_their_input():
    psi, phi, _ = contractivity_triple(0.3)
    for ch, sigma in ((psi, np.diag([0.5, 0.5, 0.0])), (phi, np.diag([0.5, 0.0, 0.5]))):
        assert ch.is_trace_preserving()
        for seed in range(5):
            assert np.allclose(apply(ch, random_density(3, seed=seed)), sigma, atol=1e-15)
        # Off-diagonal inputs carry no trace, so they map to zero.
        assert np.allclose(apply(ch, np.eye(3, k=1)), 0.0, atol=1e-15)


def test_teleportation_probability():
    rng = np.random.default_rng(12)
    for d in (2, 3):
        tele = teleportation(d)
        for _ in range(10):
            _, prob = apply_renormalized(tele, random_density(d, seed=rng))
            assert prob == pytest.approx(d ** -2, abs=1e-14)


def test_conversion_pair_effects():
    psi, phi = conversion_pair()
    assert np.allclose(phi.effect, np.eye(2), atol=1e-15)
    assert np.allclose(psi.effect, np.diag([1.0, 0.5]), atol=1e-15)


def test_isometry_validation():
    isometry(np.eye(3))
    tall = np.zeros((3, 2))
    tall[0, 0] = tall[1, 1] = 1.0
    assert isometry(tall).dim_out == 3
    with pytest.raises(InvalidInputError):
        isometry(np.full((2, 2), 0.5))
    with pytest.raises(InvalidInputError):
        isometry(np.zeros((2, 3)))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_channel_file_round_trip_bit_exact(tmp_path):
    ch = random_channel(3, 2, rank=2, kind="postselection", seed=33)
    path = tmp_path / "ch.json"
    write_channel(ch, path)
    back = read_channel(path)
    assert back.name == ch.name
    assert (back.kraus == ch.kraus).all()
    # writing the re-read channel reproduces the file byte for byte
    path2 = tmp_path / "ch2.json"
    write_channel(back, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_channel_json_schema_errors(tmp_path):
    good = channel_to_json(teleportation(2))
    with pytest.raises(InvalidInputError):
        channel_from_json([])
    for key in ("name", "dim_in", "dim_out", "kraus"):
        broken = dict(good)
        del broken[key]
        with pytest.raises(InvalidInputError):
            channel_from_json(broken)
    broken = dict(good)
    broken["dim_in"] = 3  # declared dims disagree with Kraus shapes
    with pytest.raises(InvalidInputError):
        channel_from_json(broken)
    broken = dict(good)
    broken["kraus"] = [[[0.5, 0.0], [0.0, 0.5]]]  # entries are not [re, im] pairs
    with pytest.raises(InvalidInputError):
        channel_from_json(broken)
    for key, value, message in (
        ("name", 7, "channel name must be a string"),
        ("kraus", [], "kraus must be a nonempty list of matrices"),
    ):
        with pytest.raises(InvalidInputError, match=message):
            channel_from_json({**good, key: value})
    bad_file = tmp_path / "bad.json"
    bad_file.write_text("{not json")
    with pytest.raises(InvalidInputError):
        read_channel(bad_file)
    # Python's json reads the literals NaN and Infinity, which are not JSON, as floats.
    for entry in ("NaN", "Infinity", "-Infinity"):
        bad_file.write_text(
            f'{{"name": "n", "dim_in": 1, "dim_out": 1, "kraus": [[[[{entry}, 0.0]]]]}}'
        )
        message = "kraus[0]: entries must be finite [re, im] number pairs"
        with pytest.raises(InvalidInputError, match=re.escape(message)):
            read_channel(bad_file)
    with pytest.raises(InvalidInputError):
        read_channel(tmp_path / "missing.json")


def test_channel_json_rejects_non_tni(tmp_path):
    obj = {
        "name": "too_big",
        "dim_in": 1,
        "dim_out": 1,
        "kraus": [[[[2.0, 0.0]]]],
    }
    path = tmp_path / "big.json"
    path.write_text(json.dumps(obj))
    with pytest.raises(ValidityError):
        read_channel(path)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_serialization_round_trip_property(seed):
    ch = random_channel(2, 2, rank=2, kind="postselection", seed=seed)
    back = channel_from_json(json.loads(json.dumps(channel_to_json(ch))))
    assert (back.kraus == ch.kraus).all()
