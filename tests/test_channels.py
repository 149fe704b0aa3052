# tests/test_channels.py

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from postdist.channels import (
    Channel,
    ChoiMatrix,
    DensityMatrix,
    ParameterError,
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
    gallery,
    GALLERY_NAMES,
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
    validate,
    write_channel,
)
from postdist.linalg import CapacityError, InvalidInputError, partial_trace, trace_norm


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


def test_validate_reports():
    ch = random_channel(3, 3, rank=2, kind="cptp", seed=11)
    report = validate(ch)
    assert report.completely_positive
    assert report.trace_preserving
    assert report.postselection_valid
    assert report.effect_max == pytest.approx(1.0, abs=1e-9)

    proj = Channel((np.diag([1.0, 0.0]).astype(complex),), name="projector")
    rep2 = validate(proj)
    assert not rep2.postselection_valid
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


def test_apply_dimension_mismatch():
    psi, _ = nonconvexity_pair(0.25)
    with pytest.raises(InvalidInputError):
        apply(psi, DensityMatrix.maximally_mixed(3))


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
        back = choi_to_kraus(kraus_to_choi(ch), name="back")
        for _ in range(10):
            rho = random_density(2, seed=rng)
            assert np.allclose(apply(ch, rho), apply(back, rho), atol=1e-10)


def test_choi_trace_equals_effect_trace():
    ch = random_channel(3, 2, rank=2, kind="postselection", seed=5)
    choi = kraus_to_choi(ch)
    assert np.trace(choi.matrix).real == pytest.approx(
        np.trace(ch.effect).real, abs=1e-10
    )


def test_choi_rejects_non_cp():
    with pytest.raises(ValidityError):
        ChoiMatrix(np.diag([1.0, 1.0, 1.0, -0.2]).astype(complex), dim_in=2, dim_out=2)


def test_stinespring_layout_and_consistency():
    ch = random_channel(2, 3, rank=2, kind="cptp", seed=9)
    a = stinespring(ch)
    assert a.matrix.shape == (ch.dim_out * ch.rank, ch.dim_in)
    # rows are indexed (output, environment)
    for e, op in enumerate(ch.kraus):
        for m in range(ch.dim_out):
            assert np.allclose(a.matrix[m * ch.rank + e], op[m], atol=0)
    # A^H A equals the effect operator
    assert np.allclose(a.matrix.conj().T @ a.matrix, ch.effect, atol=1e-12)
    # tracing out the environment of A rho A^H reproduces the channel
    rho = random_density(2, seed=10)
    big = a.matrix @ rho.matrix @ a.matrix.conj().T
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
    with pytest.raises(ParameterError):
        scale(ch, 0.0)
    with pytest.raises(ParameterError):
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
    with pytest.raises(ParameterError):
        random_channel(2, 2, rank=2, kind="unital", seed=0)
    with pytest.raises(ParameterError):
        random_channel(0, 2, rank=2, seed=0)
    with pytest.raises(ParameterError):
        random_channel(4, 1, rank=2, kind="cptp", seed=0)  # no isometry fits


def test_random_states_deterministic():
    assert (random_pure(3, seed=1).vector == random_pure(3, seed=1).vector).all()
    assert (random_density(3, seed=1).matrix == random_density(3, seed=1).matrix).all()


# ---------------------------------------------------------------------------
# gallery
# ---------------------------------------------------------------------------


def test_gallery_names_construct():
    assert gallery("nonconvexity_pair", epsilon=0.25)[0].dim_in == 2
    assert len(gallery("contractivity_triple", epsilon=0.5)) == 3
    assert len(gallery("conversion_pair")) == 2
    assert len(gallery("alpha_necessity_pair")) == 2
    assert gallery("teleportation", dim=3)[0].dim_in == 3
    assert gallery("isometry", matrix=np.eye(2))[0].rank == 1
    assert set(GALLERY_NAMES) == {
        "nonconvexity_pair",
        "contractivity_triple",
        "conversion_pair",
        "alpha_necessity_pair",
        "teleportation",
        "isometry",
    }


def test_gallery_parameter_errors():
    with pytest.raises(ParameterError):
        gallery("nonconvexity_pair")
    with pytest.raises(ParameterError):
        gallery("nonconvexity_pair", epsilon=0.25, dim=2)
    with pytest.raises(ParameterError):
        gallery("conversion_pair", epsilon=0.1)
    with pytest.raises(ParameterError):
        gallery("does_not_exist")
    with pytest.raises(ParameterError):
        gallery("nonconvexity_pair", epsilon=0.5)
    with pytest.raises(ParameterError):
        gallery("contractivity_triple", epsilon=1.0)
    with pytest.raises(ParameterError):
        gallery("teleportation", dim=1)


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
    with pytest.raises(ParameterError):
        isometry(np.full((2, 2), 0.5))
    with pytest.raises(ParameterError):
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
    assert (back.kraus_stack == ch.kraus_stack).all()
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
    bad_file = tmp_path / "bad.json"
    bad_file.write_text("{not json")
    with pytest.raises(InvalidInputError):
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
    assert (back.kraus_stack == ch.kraus_stack).all()
