"""Distance, fidelity, Schmidt, and product-extension checks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entlab import (
    DensityMatrix,
    PureBipartiteState,
    SchmidtProfile,
    ValidationError,
    epsilon_rank,
    fidelity,
    nearest_product_extension,
    operator_norm,
    partial_trace,
    schmidt_decompose,
    spectrum_stats,
    trace_distance,
    trace_distance_witness,
)
from entlab.qmath import _sym
from entlab.sampling import (
    random_bipartite_pure,
    random_density,
    random_near_product,
    random_pure,
    random_unitary,
)
from entlab.tolerances import VALIDITY_TOL
from oracles import dense_fidelity, dense_trace_distance, pure_trace_distance

KET0 = DensityMatrix(np.diag([1.0, 0.0]))
KET1 = DensityMatrix(np.diag([0.0, 1.0]))


def test_trace_distance_hand_values():
    rho = DensityMatrix(np.diag([0.6, 0.4]))
    sigma = DensityMatrix(np.diag([0.5, 0.5]))
    assert trace_distance(rho, rho) == 0.0
    assert abs(trace_distance(KET0, KET1) - 2.0) < 1e-12
    assert abs(trace_distance(rho, sigma) - 0.2) < 1e-12


def test_trace_distance_dimension_mismatch():
    with pytest.raises(ValidationError):
        trace_distance(KET0, DensityMatrix(np.eye(3) / 3.0))


def test_witness_hand_values():
    rho = DensityMatrix(np.diag([0.6, 0.4]))
    sigma = DensityMatrix(np.diag([0.5, 0.5]))
    value, proj = trace_distance_witness(rho, sigma)
    assert abs(value - 0.2) < 1e-9
    assert np.abs(proj - np.diag([1.0, 0.0])).max() < 1e-9

    value, proj = trace_distance_witness(KET0, KET1)
    assert abs(value - 2.0) < 1e-9
    assert np.abs(proj - KET0.mat).max() < 1e-9

    value, proj = trace_distance_witness(rho, rho)
    assert abs(value) < 1e-12
    assert np.abs(proj).max() < 1e-12


def test_witness_matches_distance_and_is_projector():
    gen = np.random.default_rng(7)
    for _ in range(50):
        d = int(gen.integers(2, 9))
        a, b = random_density(gen, d), random_density(gen, d)
        value, proj = trace_distance_witness(a, b)
        assert abs(value - trace_distance(a, b)) < 1e-9
        assert np.abs(proj @ proj - proj).max() < 1e-9  # idempotent
        # the witness value is exactly 2 Tr P (a - b)
        assert abs(value - 2.0 * np.trace(proj @ (a.mat - b.mat)).real) < 1e-12


def test_operator_norm_hand_values():
    assert abs(operator_norm(np.eye(5)) - 1.0) < 1e-12
    assert abs(operator_norm(np.diag([3.0, -4.0])) - 4.0) < 1e-12
    assert abs(operator_norm(np.ones((2, 2))) - 2.0) < 1e-12


def test_schmidt_hand_profiles():
    phi2 = PureBipartiteState(2, 2, np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2))
    prof, _, _ = schmidt_decompose(phi2)
    assert np.abs(prof.probs - 0.5).max() < 1e-12

    prod = PureBipartiteState(2, 2, np.array([1.0, 0.0, 0.0, 0.0]))
    prof, _, _ = schmidt_decompose(prod)
    assert prof.dim == 2 and abs(prof.probs[0] - 1.0) < 1e-12

    skew = PureBipartiteState(
        2, 2, np.array([math.sqrt(0.75), 0.0, 0.0, math.sqrt(0.25)])
    )
    prof, _, _ = schmidt_decompose(skew)
    assert np.abs(prof.probs - [0.75, 0.25]).max() < 1e-12


def test_schmidt_reconstruction_and_entropy():
    gen = np.random.default_rng(11)
    for _ in range(30):
        da, db = int(gen.integers(2, 6)), int(gen.integers(2, 6))
        psi = random_bipartite_pure(gen, da, db)
        prof, u, vh = schmidt_decompose(psi)
        rebuilt = (u * np.sqrt(prof.probs)) @ vh
        assert np.abs(rebuilt - psi.as_matrix()).max() < 1e-9
        red = partial_trace(psi, "B")
        w = np.clip(red.eigenvalues(), 1e-300, None)
        ent = float(-(w * np.log2(w)).sum())
        assert abs(ent - spectrum_stats(prof.probs).entropy) < 1e-9


def test_partial_trace_hand_values():
    phi2 = PureBipartiteState(2, 2, np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2))
    assert np.abs(partial_trace(phi2, "B").mat - np.diag([0.5, 0.5])).max() < 1e-12

    prod = PureBipartiteState(2, 2, np.array([1.0, 0.0, 0.0, 0.0]))
    assert np.abs(partial_trace(prod, "B").mat - np.diag([1.0, 0.0])).max() < 1e-12

    skew = PureBipartiteState(
        2, 2, np.array([math.sqrt(0.75), 0.0, 0.0, math.sqrt(0.25)])
    )
    assert np.abs(partial_trace(skew, "B").mat - np.diag([0.75, 0.25])).max() < 1e-12


def test_partial_trace_of_density_matrix_needs_dims():
    rho = DensityMatrix(np.eye(4) / 4.0)
    with pytest.raises(ValidationError):
        partial_trace(rho, "B")
    red = partial_trace(rho, "B", dims=(2, 2))
    assert np.abs(red.mat - np.eye(2) / 2.0).max() < 1e-12
    with pytest.raises(ValidationError):
        partial_trace(rho, "B", dims=(3, 2))


def test_partial_trace_monotone():
    # tracing out a subsystem never increases trace distance
    gen = np.random.default_rng(13)
    for _ in range(40):
        da, db = int(gen.integers(2, 5)), int(gen.integers(2, 5))
        a, b = random_density(gen, da * db), random_density(gen, da * db)
        full = trace_distance(a, b)
        red = trace_distance(
            partial_trace(a, "B", dims=(da, db)), partial_trace(b, "B", dims=(da, db))
        )
        assert red <= full + 1e-9


def test_fidelity_hand_values():
    rho = DensityMatrix(np.diag([0.5, 0.5]))
    assert abs(fidelity(rho, rho) - 1.0) < 1e-12
    assert abs(fidelity(KET0, KET1)) < 1e-12
    assert abs(fidelity(rho, KET0) - 1.0 / math.sqrt(2.0)) < 1e-12


def test_distance_and_fidelity_against_dense_oracle():
    gen = np.random.default_rng(17)
    for _ in range(40):
        d = int(gen.integers(2, 9))
        a, b = random_density(gen, d), random_density(gen, d)
        assert abs(trace_distance(a, b) - dense_trace_distance(a.mat, b.mat)) < 1e-10
        assert abs(fidelity(a, b) - dense_fidelity(a.mat, b.mat)) < 1e-9


def test_pure_pair_distance_closed_form():
    gen = np.random.default_rng(19)
    for _ in range(25):
        d = int(gen.integers(2, 7))
        u, v = random_pure(gen, d), random_pure(gen, d)
        du = DensityMatrix(np.outer(u, u.conj()))
        dv = DensityMatrix(np.outer(v, v.conj()))
        assert abs(trace_distance(du, dv) - pure_trace_distance(u, v)) < 1e-9


def test_epsilon_rank_hand_values():
    assert epsilon_rank(DensityMatrix(np.eye(6) / 6.0), 0.5) == 6
    assert epsilon_rank(KET0, 1e-9) == 1
    noisy = DensityMatrix(np.diag([0.7, 0.3 - 1e-12, 1e-12]))
    assert epsilon_rank(noisy, 1e-9) == 2
    with pytest.raises(ValidationError):
        epsilon_rank(KET0, -1.0)


def test_schmidt_profile_validation():
    with pytest.raises(ValidationError):
        SchmidtProfile(np.array([0.4, 0.6]))  # increasing
    with pytest.raises(ValidationError):
        SchmidtProfile(np.array([0.9, 0.2]))  # sums past 1
    prof = SchmidtProfile(np.array([0.75, 0.25]))
    assert prof.dim == 2


def test_product_extension_exact_product():
    gen = np.random.default_rng(23)
    psi, phi = random_near_product(gen, 3, 4, 0.0)
    ext = nearest_product_extension(psi, phi)
    assert ext.eps_in < 1e-9
    assert ext.distance < 1e-7
    assert ext.holds_sqrt


def test_product_extension_small_perturbation():
    # sqrt(1 - 1e-4) base + 1e-2 orthogonal term at dim 2x2
    gen = np.random.default_rng(29)
    psi, phi = random_near_product(gen, 2, 2, 1e-2)
    ext = nearest_product_extension(psi, phi)
    assert ext.distance <= 2.1e-2  # scale of the injected perturbation
    assert ext.distance <= ext.bound_sqrt + 1e-9
    # gamma is a unit vector on B maximizing the overlap
    assert abs(np.linalg.norm(ext.gamma) - 1.0) < 1e-9
    over = abs(np.vdot(np.kron(phi, ext.gamma), psi.amp))
    assert abs(over - ext.overlap) < 1e-9


def test_product_extension_rejects_vacuous_hypothesis():
    # A marginal orthogonal to phi: eps_in = 2
    psi = PureBipartiteState(2, 2, np.array([0.0, 0.0, 1.0, 0.0]))
    with pytest.raises(ValidationError):
        nearest_product_extension(psi, np.array([1.0, 0.0]))


def test_density_matrix_validation():
    with pytest.raises(ValidationError):
        DensityMatrix(np.diag([0.9, 0.3]))  # trace 1.2
    with pytest.raises(ValidationError):
        DensityMatrix(np.array([[0.5, 0.5], [-0.5, 0.5]]))  # not Hermitian
    with pytest.raises(ValidationError):
        DensityMatrix(np.diag([1.5, -0.5]))  # negative eigenvalue


def _rotated(gen, w):
    q = random_unitary(gen, w.size)
    return (q * w) @ q.conj().T


@pytest.mark.parametrize("d", [2, 16, 144])
def test_density_matrix_psd_boundary(d):
    """The smallest eigenvalue may sit below 0 by less than VALIDITY_TOL,
    not by more; the rule is pinned on both sides of the boundary."""
    gen = np.random.default_rng(4000 + d)
    for ratio, accepted in ((-0.5, True), (-0.9, True), (-1.1, False), (-2.0, False)):
        lam = ratio * VALIDITY_TOL
        w = np.full(d, (1.0 - lam) / (d - 1))
        w[0] = lam
        m = _rotated(gen, w)
        if accepted:
            DensityMatrix(m)
        else:
            with pytest.raises(ValidationError, match="negative eigenvalue"):
                DensityMatrix(m)


def test_density_matrix_accepts_a_large_rank_one_projector():
    gen = np.random.default_rng(4216)
    w = np.zeros(216)
    w[0] = 1.0
    rho = DensityMatrix(_rotated(gen, w))
    assert abs(rho.eigenvalues()[0] - 1.0) < 1e-12


def test_stored_differences_need_no_symmetrizing():
    """A stored density matrix is exactly Hermitian, so the difference of two
    is too, and symmetrizing it again returns the same bits."""
    gen = np.random.default_rng(31)
    for _ in range(60):
        d = int(gen.integers(1, 17))
        rank = int(gen.integers(1, d + 1))
        a = random_density(gen, d, rank=rank)
        b = random_density(gen, d, rank=int(gen.integers(1, d + 1)))
        diff = a.mat - b.mat
        assert np.array_equal(diff, _sym(diff))


@st.composite
def density_triples(draw):
    d = draw(st.integers(min_value=2, max_value=16))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    gen = np.random.default_rng(seed)
    return random_density(gen, d), random_density(gen, d), random_density(gen, d)


@given(density_triples())
@settings(max_examples=60, deadline=None)
def test_trace_distance_metric_properties(triple):
    a, b, c = triple
    dab = trace_distance(a, b)
    assert abs(dab - trace_distance(b, a)) < 1e-9
    assert dab <= trace_distance(a, c) + trace_distance(c, b) + 1e-9
    assert -1e-12 <= dab <= 2.0 + 1e-12


@given(
    st.integers(min_value=2, max_value=10),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_fuchs_van_de_graaf_property(d, seed):
    gen = np.random.default_rng(seed)
    a, b = random_density(gen, d), random_density(gen, d)
    assert 1.0 - fidelity(a, b) <= trace_distance(a, b) / 2.0 + 1e-12


@given(
    st.integers(min_value=2, max_value=8),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_epsilon_rank_bounded_by_dim(d, seed):
    gen = np.random.default_rng(seed)
    rho = random_density(gen, d, rank=int(gen.integers(1, d + 1)))
    assert 1 <= epsilon_rank(rho, 1e-9) <= d
