import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.linalg import expm

from darwinlab import qstate
from darwinlab.numeric import POLICY, CapExceeded
from darwinlab.qstate import (
    DensityMatrix,
    HilbertShape,
    StateVector,
    _stacked_entropies,
    apply_unitary,
    basis_state,
    evolve_diagonal,
    ket,
    partial_trace,
    pure_density,
    qubits,
    reconstruct_from_schmidt,
    reduced_density,
    schmidt,
    subsystem_entropy,
    system_fragment_entropies,
    tensor,
)
from darwinlab.spinmodels import interacting_evolve, random_interacting_params
from helpers import random_state_vector, random_unitary

Z = np.diag([1.0, -1.0])
CNOT = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)


def bell():
    return ket([1, 0, 0, 1], dims=(2, 2))


def test_shape_validation():
    with pytest.raises(ValueError):
        HilbertShape((1, 2))
    with pytest.raises(CapExceeded):
        HilbertShape((2,) * 21)
    assert qubits(3).total_dim == 8


def test_state_norm_enforced():
    with pytest.raises(ValueError):
        StateVector(qubits(1), np.array([1.0, 1.0]))


def test_state_vector_keeps_a_read_only_copy():
    amps = np.array([0.6, 0.8j])
    state = StateVector(qubits(1), amps)
    amps[0] = 0.0  # the caller's array stays writable
    assert not state.amps.flags.writeable
    assert state.amps[0] == 0.6


def test_density_matrix_keeps_a_read_only_copy():
    mat = np.eye(2, dtype=complex) / 2
    rho = DensityMatrix(qubits(1), mat)
    mat[0, 0] = 1.0
    assert not rho.mat.flags.writeable
    assert rho.mat[0, 0] == 0.5


def test_tensor_basis_states():
    s = tensor(basis_state(qubits(1), 0), basis_state(qubits(1), 1))
    assert s.shape.dims == (2, 2)
    assert np.allclose(s.amps, [0, 1, 0, 0])


def test_tensor_superposition():
    plus = ket([1, 1])
    s = tensor(plus, basis_state(qubits(1), 0))
    assert np.allclose(s.amps, [1 / np.sqrt(2), 0, 1 / np.sqrt(2), 0])


@given(st.integers(0, 10 ** 6))
def test_tensor_preserves_norm(seed):
    rng = np.random.default_rng(seed)
    a = random_state_vector(rng, (2, 3))
    b = random_state_vector(rng, (2,))
    assert np.isclose(np.linalg.norm(tensor(a, b).amps), 1.0, atol=1e-12)


def test_partial_trace_bell():
    rho = partial_trace(pure_density(bell()), (0,))
    assert np.allclose(rho.mat, np.eye(2) / 2, atol=1e-12)


def test_partial_trace_product():
    rng = np.random.default_rng(7)
    a = random_state_vector(rng, (2,))
    b = random_state_vector(rng, (3,))
    rho = partial_trace(pure_density(tensor(a, b)), (0,))
    assert np.allclose(rho.mat, np.outer(a.amps, a.amps.conj()), atol=1e-12)


def test_partial_trace_ghz_vs_brute_force():
    ghz = ket([1, 0, 0, 0, 0, 0, 0, 1], dims=(2, 2, 2))
    rho = partial_trace(pure_density(ghz), (0, 1))
    expect = np.zeros((4, 4))
    expect[0, 0] = expect[3, 3] = 0.5
    assert np.allclose(rho.mat, expect, atol=1e-12)
    # brute-force index contraction for the same answer
    amps = ghz.as_grid()
    brute = np.einsum("abk,cdk->abcd", amps, amps.conj()).reshape(4, 4)
    assert np.allclose(rho.mat, brute, atol=1e-12)


@given(st.integers(0, 10 ** 6))
def test_partial_trace_trace_preserved(seed):
    rng = np.random.default_rng(seed)
    s = random_state_vector(rng, (2, 3, 2))
    rho = partial_trace(pure_density(s), (1,))
    assert np.isclose(np.trace(rho.mat).real, 1.0, atol=1e-10)


def test_reduced_density_matches_partial_trace():
    rng = np.random.default_rng(11)
    s = random_state_vector(rng, (2, 2, 3))
    keep = (0, 2)
    assert np.allclose(
        reduced_density(s, keep).mat, partial_trace(pure_density(s), keep).mat, atol=1e-12
    )


@given(st.integers(0, 10 ** 6))
def test_schmidt_symmetry_of_spectra(seed):
    # complementary reductions of a pure state share their nonzero spectrum
    rng = np.random.default_rng(seed)
    s = random_state_vector(rng, (2, 2, 2, 3))
    keep = (0, 3)
    e1 = np.linalg.eigvalsh(reduced_density(s, keep).mat)
    rest = tuple(i for i in range(4) if i not in keep)
    e2 = np.linalg.eigvalsh(reduced_density(s, rest).mat)
    e1 = np.sort(e1[e1 > 1e-11])
    e2 = np.sort(e2[e2 > 1e-11])
    assert np.allclose(e1, e2, atol=1e-9)


def test_apply_unitary_cnot():
    s = basis_state(qubits(2), 0b10)
    out = apply_unitary(s, CNOT, [0, 1])
    assert np.allclose(out.amps, basis_state(qubits(2), 0b11).amps)


def test_apply_unitary_target_order_matters():
    s = basis_state(qubits(2), 0b01)
    out = apply_unitary(s, CNOT, [1, 0])  # control is qubit 1
    assert np.allclose(out.amps, basis_state(qubits(2), 0b11).amps)


def test_apply_unitary_rejects_nonunitary():
    with pytest.raises(ValueError):
        apply_unitary(basis_state(qubits(1), 0), np.array([[1, 1], [0, 1]]), [0])


@given(st.integers(0, 10 ** 6))
def test_apply_unitary_roundtrip(seed):
    rng = np.random.default_rng(seed)
    s = random_state_vector(rng, (2, 2, 2))
    u = random_unitary(rng, 4)
    out = apply_unitary(apply_unitary(s, u, [2, 0]), u.conj().T, [2, 0])
    assert out.fidelity(s) >= 1 - 1e-12


def test_apply_unitary_disjoint_targets_commute():
    rng = np.random.default_rng(3)
    s = random_state_vector(rng, (2, 2))
    ua, ub = random_unitary(rng, 2), random_unitary(rng, 2)
    via_steps = apply_unitary(apply_unitary(s, ua, [0]), ub, [1])
    via_product = apply_unitary(s, np.kron(ua, ub), [0, 1])
    assert np.allclose(via_steps.amps, via_product.amps, atol=1e-12)


def test_schmidt_product_state():
    rng = np.random.default_rng(5)
    s = tensor(random_state_vector(rng, (2,)), random_state_vector(rng, (3,)))
    terms = schmidt(s, (0,))
    assert len(terms) == 1
    assert np.isclose(terms[0][0], 1.0, atol=1e-10)


def test_schmidt_bell():
    terms = schmidt(bell(), (0,))
    coeffs = [c for c, _, _ in terms]
    assert np.allclose(coeffs, [1 / np.sqrt(2)] * 2, atol=1e-12)


@given(st.integers(0, 10 ** 6))
def test_schmidt_reconstruction_and_spectrum(seed):
    rng = np.random.default_rng(seed)
    s = random_state_vector(rng, (2, 2, 2))
    left = (1,)
    terms = schmidt(s, left)
    coeffs = np.array(sorted((c for c, _, _ in terms), reverse=True))
    assert np.all(np.diff(coeffs) <= 1e-12)  # descending
    assert np.isclose(np.sum(coeffs ** 2), 1.0, atol=1e-10)
    eigs = np.sort(np.linalg.eigvalsh(reduced_density(s, left).mat))[::-1]
    assert np.allclose(coeffs ** 2, eigs[: len(coeffs)], atol=1e-9)
    rebuilt = reconstruct_from_schmidt(terms, s.shape, left)
    assert rebuilt.fidelity(s) >= 1 - 1e-9


def test_evolve_diagonal_identity():
    s = random_state_vector(np.random.default_rng(1), (2, 2))
    out = evolve_diagonal(s, np.zeros(4))
    assert np.allclose(out.amps, s.amps)


def test_evolve_diagonal_matches_matrix_exponential():
    # H = sigma^z sigma^z on |++>, t = pi/4
    t = np.pi / 4
    plus = ket([1, 1])
    s = tensor(plus, plus)
    h = np.kron(Z, Z)
    expect = expm(-1j * t * h) @ s.amps
    phases = t * np.array([1.0, -1.0, -1.0, 1.0])
    out = evolve_diagonal(s, phases)
    assert np.allclose(out.amps, expect, atol=1e-12)


def test_evolve_diagonal_global_phase_invisible_to_reductions():
    rng = np.random.default_rng(9)
    s = random_state_vector(rng, (2, 2))
    shifted = evolve_diagonal(s, np.full(4, 0.37))
    for keep in ((0,), (1,)):
        assert np.allclose(
            reduced_density(s, keep).mat, reduced_density(shifted, keep).mat, atol=1e-12
        )


def test_subsystem_entropy_matches_eigenvalues():
    rng = np.random.default_rng(2)
    s = random_state_vector(rng, (2, 2, 2, 2))
    keep = (1, 3)
    lam = np.linalg.eigvalsh(reduced_density(s, keep).mat)
    lam = lam[lam > 1e-12]
    assert np.isclose(subsystem_entropy(s, keep), -np.sum(lam * np.log(lam)), atol=1e-9)


def _svd_entropy(state, keep):
    """Oracle: Schmidt weights as squared singular values of the amplitude matrix."""
    n = state.shape.n_subsystems
    rest = [i for i in range(n) if i not in keep]
    a = state.as_grid().transpose(list(keep) + rest).reshape(state.shape.dim_of(keep), -1)
    p = np.linalg.svd(a, compute_uv=False) ** 2
    p = p[p > 1e-12]
    return float(-np.sum(p * np.log(p)))


def _bipartitions(n):
    for m in range(1, n):
        yield from itertools.combinations(range(n), m)


@pytest.mark.parametrize("dims", [(2,) * 8, (3, 2, 4, 2)])
def test_subsystem_entropy_matches_svd_oracle(dims):
    s = random_state_vector(np.random.default_rng(17), dims)
    n = len(dims)
    for keep in _bipartitions(n):
        h = subsystem_entropy(s, keep)
        assert abs(h - _svd_entropy(s, keep)) <= 1e-12, keep
        rest = tuple(i for i in range(n) if i not in keep)
        assert abs(h - subsystem_entropy(s, rest)) <= 1e-12, keep


def test_subsystem_entropy_product_state_is_zero():
    s = basis_state(HilbertShape((3, 2, 4, 2)), 37)
    for keep in _bipartitions(4):
        assert subsystem_entropy(s, keep) == 0.0


def test_subsystem_entropy_ghz_and_distant_bell_pair():
    ghz = ket([1] + [0] * 62 + [1], dims=(2,) * 6)
    for keep in _bipartitions(6):
        assert abs(subsystem_entropy(ghz, keep) - np.log(2.0)) <= 1e-12, keep
    # Bell pair on qubits 0 and 3 of five, the rest in |0>
    amps = np.zeros(32)
    amps[0] = amps[0b10010] = 1.0
    pair = ket(amps, dims=(2,) * 5)
    for keep in ((0,), (3,), (0, 1), (1, 3), (0, 2, 4)):
        assert abs(subsystem_entropy(pair, keep) - np.log(2.0)) <= 1e-12, keep
    for keep in ((0, 3), (1,), (1, 2, 4)):
        assert abs(subsystem_entropy(pair, keep)) <= 1e-12, keep


def test_subsystem_entropy_weight_at_the_floor():
    # Schmidt weights (1 - 1e-13, 1e-13): the small one sits below the
    # 1e-12 spectrum floor, so both kernels drop it
    rng = np.random.default_rng(5)
    u, v = random_unitary(rng, 4), random_unitary(rng, 8)
    w = np.array([1.0 - 1e-13, 1e-13])
    a = np.sqrt(w[0]) * np.outer(u[:, 0], v[:, 0]) + np.sqrt(w[1]) * np.outer(u[:, 1], v[:, 1])
    s = StateVector(qubits(5), a.reshape(-1))
    for keep in ((0, 1), (2, 3, 4)):
        assert abs(subsystem_entropy(s, keep) - _svd_entropy(s, keep)) <= 1e-10


def test_density_matrix_validation():
    with pytest.raises(ValueError):
        DensityMatrix(qubits(1), np.array([[0.5, 0.5], [0.1, 0.5]]))
    with pytest.raises(ValueError):
        DensityMatrix(qubits(1), np.array([[0.7, 0.0], [0.0, 0.7]]))


def test_stacked_entropies_equal_the_per_row_sum():
    """The grouped reduction gives, bit for bit, each row's own sum over the
    eigenvalues above the floor; rows of partial and zero rank included."""
    rng = np.random.default_rng(11)
    for _ in range(200):
        k, count = int(rng.integers(2, 131)), int(rng.integers(1, 8))
        a = rng.normal(size=(count, k, k)) + 1j * rng.normal(size=(count, k, k))
        for row, rank in zip(a, rng.integers(0, k + 1, size=count)):
            row[:, rank:] = 0.0
        g = a @ a.conj().swapaxes(-1, -2)
        g /= np.maximum(np.trace(g, axis1=1, axis2=2).real, 1.0)[:, None, None]
        want = []
        for lam in np.linalg.eigvalsh(g):
            lam = lam[lam > POLICY.eig_floor]
            want.append(float(-np.sum(lam * np.log(lam))))
        assert _stacked_entropies(g).tolist() == want


@pytest.mark.parametrize("split", [False, True])
def test_slab_height_leaves_the_bytes(monkeypatch, split):
    """One row a slab gives the bytes of the default height (192 rows at
    this size, every row of a size in one slab), on the plain solve of a
    Haar state and the flip-sector split of the interacting bath's even
    start."""
    rng = np.random.default_rng(17)
    if split:
        state = interacting_evolve(random_interacting_params(rng, 8, 10.0, sigma_m=0.3))
    else:
        state = random_state_vector(rng, (2,) * 9)
    assert qstate._flip_symmetric(state) == split
    sizes = [np.array(list(itertools.combinations(range(1, 9), m)), dtype=np.intp)
             for m in range(1, 9)]
    want = [np.concatenate(system_fragment_entropies(state, idx)).tobytes() for idx in sizes]
    monkeypatch.setattr(qstate, "_SLAB_ROWS", 1)
    monkeypatch.setattr(qstate, "_SLAB_AMPS", 0)
    got = [np.concatenate(system_fragment_entropies(state, idx)).tobytes() for idx in sizes]
    assert got == want
