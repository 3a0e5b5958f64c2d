import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from darwinlab.envariance import (
    AlgebraReport,
    BornResult,
    FineGrainSpec,
    RecordProjectorSet,
    SchmidtPair,
    agent_circuit,
    approximate_weights,
    branch_frequencies,
    coarse_grain_probability,
    fine_grain_born,
    orthogonality_check,
    phase_shift_and_undo,
    record_algebra_check,
    reversal_demo,
    swap_and_counterswap,
)
from darwinlab.numeric import CapExceeded

E0, E1 = np.eye(2)[0], np.eye(2)[1]
CNOT = np.eye(4)[[0, 1, 3, 2]]


def random_pair(rng, k=3, ds=4, de=5):
    a = rng.normal(size=k) + 1j * rng.normal(size=k)
    qs = np.linalg.qr(rng.normal(size=(ds, ds)) + 1j * rng.normal(size=(ds, ds)))[0]
    qe = np.linalg.qr(rng.normal(size=(de, de)) + 1j * rng.normal(size=(de, de)))[0]
    return SchmidtPair.from_raw(a, qs.T[:k], qe.T[:k])


# ------------------------------------------------------------- SchmidtPair

def test_schmidt_pair_validation():
    with pytest.raises(ValueError):
        SchmidtPair(np.array([1.0, 1.0]), np.eye(2), np.eye(2))  # norm
    with pytest.raises(ValueError):
        SchmidtPair(np.array([1.0, 0.0]), np.ones((2, 2)), np.eye(2))  # basis
    with pytest.raises(ValueError):
        SchmidtPair(np.array([0.6, 0.8]), np.eye(2), np.eye(3)[:2, :1].T)


def test_from_raw_records_scale():
    p = SchmidtPair.from_raw([3.0, 4.0])
    assert p.scale == pytest.approx(5.0)
    assert np.allclose(p.coefficients, [0.6, 0.8])
    with pytest.raises(ValueError):
        SchmidtPair.from_raw([0.0, 0.0])


def test_to_state_matches_direct_sum():
    rng = np.random.default_rng(5)
    p = random_pair(rng)
    want = sum(c * np.kron(s, e) for c, s, e in
               zip(p.coefficients, p.system_basis, p.env_basis))
    assert np.allclose(p.to_state().amps, want, atol=1e-12)


# ----------------------------------------------------------- orthogonality

def test_cnot_copying_is_repeatable():
    rep = orthogonality_check([E0, E1], CNOT, E0)
    assert rep.passed and not rep.perturbed
    (pair,) = rep.pairs
    assert pair.system_overlap == pytest.approx(0.0)
    assert pair.record_overlap == pytest.approx(0.0)  # perfect records


def test_identity_transfer_allows_overlap():
    # records stay identical, so nonorthogonal states are fine
    plus = np.array([1.0, 1.0]) / math.sqrt(2)
    rep = orthogonality_check([E0, plus], np.eye(4), E0)
    assert rep.passed
    assert rep.pairs[0].record_overlap == pytest.approx(1.0)
    assert abs(rep.pairs[0].system_overlap) > 0.5


def test_partial_rotation_flags_perturbed_state():
    # rotate E conditioned on S in a basis that does not preserve |+>
    theta = 0.7
    rot = np.array([[math.cos(theta), -math.sin(theta)],
                    [math.sin(theta), math.cos(theta)]])
    u = np.eye(4, dtype=complex)
    u[2:, 2:] = rot
    plus = np.array([1.0, 1.0]) / math.sqrt(2)
    rep = orthogonality_check([E0, plus], u, E0)
    assert 1 in rep.perturbed  # the |+> candidate is not copied cleanly
    assert not rep.passed


def test_orthogonality_shape_guard():
    with pytest.raises(ValueError):
        orthogonality_check([E0, E1], np.eye(3), E0)


# ------------------------------------------------------ swap / counterswap

def test_bell_swap_restores():
    pair = SchmidtPair(np.array([1.0, 1.0]) / math.sqrt(2), np.eye(2), np.eye(2))
    res = swap_and_counterswap(pair, 0, 1)
    assert res.envariant
    assert res.fidelity >= 1.0 - 1e-12
    # the swap itself moved the state
    assert res.swapped.fidelity(pair.to_state()) < 1.0 - 1e-6


def test_counterswap_acts_on_environment_only():
    rng = np.random.default_rng(11)
    a = np.exp(1j * rng.uniform(0, 2 * np.pi, size=2)) / math.sqrt(2)
    p = SchmidtPair(a, np.eye(2), np.eye(2))
    res = swap_and_counterswap(p, 0, 1)
    u = res.counterswap
    assert u.shape == (2, 2)
    assert np.allclose(u.conj().T @ u, np.eye(2), atol=1e-12)
    # off-diagonal elements carry exp(+-i(phi_0 - phi_1))
    rel = np.exp(1j * (np.angle(a[0]) - np.angle(a[1])))
    assert u[0, 1] == pytest.approx(rel)
    assert u[1, 0] == pytest.approx(np.conj(rel))


def test_swap_restores_in_random_bases():
    rng = np.random.default_rng(23)
    for _ in range(5):
        p = random_pair(rng, k=3)
        mags = np.abs(p.coefficients)
        # force two equal magnitudes, keep phases
        c = p.coefficients.copy()
        c[1] = c[1] / mags[1] * mags[0]
        p = SchmidtPair.from_raw(c, p.system_basis, p.env_basis)
        res = swap_and_counterswap(p, 0, 1)
        assert res.envariant
        assert res.fidelity >= 1.0 - 1e-12


def test_unequal_magnitudes_reported_not_envariant():
    p = SchmidtPair.from_raw([2.0, 1.0])
    res = swap_and_counterswap(p, 0, 1)
    assert not res.envariant
    want = (1.0 - (2 / math.sqrt(5) - 1 / math.sqrt(5)) ** 2) ** 2
    assert res.fidelity == pytest.approx(want, abs=1e-12)
    assert res.fidelity < 1.0 - 1e-3


def test_swap_index_validation():
    p = SchmidtPair.from_raw([1.0, 1.0])
    for k, l in ((0, 0), (0, 2), (-1, 1)):
        with pytest.raises(ValueError):
            swap_and_counterswap(p, k, l)


def test_phase_shift_undone_on_environment():
    rng = np.random.default_rng(7)
    p = random_pair(rng, k=4, ds=4, de=4)
    for _ in range(5):
        fid = phase_shift_and_undo(p, rng.uniform(0, 2 * np.pi, size=4))
        assert fid >= 1.0 - 1e-12


# ------------------------------------------------------------ finegraining

def test_fine_grain_two_to_one():
    out = fine_grain_born(FineGrainSpec((2, 1)))
    assert out.fractions == (Fraction(2, 3), Fraction(1, 3))


def test_fine_grain_even():
    out = fine_grain_born(FineGrainSpec((1, 1)))
    assert out.fractions == (Fraction(1, 2), Fraction(1, 2))


def test_fine_grain_all_pairs_to_64():
    for mu in range(1, 64):
        for nu in range(1, 64 - mu + 1):
            out = fine_grain_born(FineGrainSpec((mu, nu)))
            assert out.fractions == (Fraction(mu, mu + nu), Fraction(nu, mu + nu))


def test_zero_numerator_gives_exact_zero():
    out = fine_grain_born(FineGrainSpec((3, 0, 1)))
    assert out.fractions[1] == 0
    assert isinstance(out.fractions[1], Fraction)


def test_fine_grain_cap_and_validation():
    with pytest.raises(CapExceeded):
        FineGrainSpec((2 ** 16, 1))
    with pytest.raises(ValueError):
        FineGrainSpec((0, 0))
    with pytest.raises(ValueError):
        FineGrainSpec((-1, 2))


def test_born_result_prob_vector():
    probs = fine_grain_born(FineGrainSpec((5, 3, 2))).probs
    assert np.allclose(probs.probs, [0.5, 0.3, 0.2], atol=1e-15)


def test_irrational_weights_converge_like_one_over_m():
    w = np.array([1 / math.pi, 1 - 1 / math.pi])
    for m in (10, 100, 1000, 10000):
        spec = approximate_weights(w, m)
        got = [float(f) for f in fine_grain_born(spec).fractions]
        assert abs(got[0] - w[0]) <= 1.0 / m + 1e-12


def test_fine_grain_matches_dense_ancilla_construction():
    # build |psi> = sum_k a_k |k>|e_k>, refine with the conditional map
    # |k>|0'> -> |k>|k'>, and read outcome weights off the dense state
    rng = np.random.default_rng(3)
    for nums in ((2, 1), (3, 5), (1, 4, 2)):
        spec = FineGrainSpec(nums)
        m, k = spec.m, len(nums)
        a = np.sqrt(np.array(nums) / m) * np.exp(1j * rng.uniform(0, 2 * np.pi, k))
        fine = np.zeros((k, m), dtype=complex)
        blocks = np.cumsum((0,) + nums)
        for i in range(k):
            width = nums[i]
            if width:
                fine[i, blocks[i]:blocks[i + 1]] = a[i] / math.sqrt(width)
        weights = (np.abs(fine) ** 2).sum(axis=1)
        got = [float(f) for f in fine_grain_born(spec).fractions]
        assert np.allclose(weights, got, atol=1e-12)
        # all fine branches share one magnitude: envariantly swappable
        mags = np.abs(fine[np.abs(fine) > 0])
        assert np.ptp(mags) < 1e-12


def test_rephasing_leaves_probabilities_alone():
    rng = np.random.default_rng(9)
    spec = FineGrainSpec((4, 3, 1))
    base = fine_grain_born(spec).fractions
    # phases enter through the state, never through the counts
    p = SchmidtPair.from_raw(np.sqrt([0.5, 0.375, 0.125]))
    for _ in range(5):
        ph = rng.uniform(0, 2 * np.pi, size=3)
        rp = p.rephased(ph)
        assert np.allclose(np.abs(rp.coefficients) ** 2,
                           [float(f) for f in base], atol=1e-12)
        assert fine_grain_born(spec).fractions == base


# ----------------------------------------------------------- coarse grains

def test_coarse_grain_basics():
    assert coarse_grain_probability(8, range(8)) == 1
    assert coarse_grain_probability(8, ()) == 0
    assert coarse_grain_probability(6, (1, 3, 5)) == Fraction(1, 2)
    with pytest.raises(ValueError):
        coarse_grain_probability(4, (4,))


def test_coarse_grain_additive_over_disjoint():
    rng = np.random.default_rng(17)
    for _ in range(20):
        n = int(rng.integers(2, 40))
        picks = rng.permutation(n)
        cut = int(rng.integers(0, n + 1))
        a, b = picks[:cut], picks[cut:]
        total = coarse_grain_probability(n, a) + coarse_grain_probability(n, b)
        assert total == 1


def test_coarse_grain_matches_elimination_telescope():
    # eliminate one non-member branch at a time; conditional probabilities
    # telescope to n_subset / N in exact rationals
    rng = np.random.default_rng(29)
    for _ in range(20):
        n = int(rng.integers(1, 50))
        size = int(rng.integers(0, n + 1))
        subset = rng.choice(n, size=size, replace=False)
        prod = Fraction(1)
        for live in range(n, size, -1):
            prod *= Fraction(live - 1, live)
        want = prod if size else Fraction(0)
        assert coarse_grain_probability(n, subset) == want


# ----------------------------------------------------------- record algebra

def test_disjoint_projectors_pass():
    rset = RecordProjectorSet.from_subsets(4, [(0,), (1,)])
    rep = record_algebra_check(rset)
    assert rep.passed and rep.max_defect <= 1e-12


def test_random_commuting_coarse_grainings_pass():
    rng = np.random.default_rng(31)
    u = np.linalg.qr(rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8)))[0]
    mats = []
    for _ in range(4):
        diag = rng.integers(0, 2, size=8).astype(complex)
        mats.append(u @ np.diag(diag) @ u.conj().T)
    rep = record_algebra_check(mats)
    assert rep.passed
    assert set(rep.defects) >= {"commutativity", "associativity", "absorption",
                                "distributivity", "orthocomplement"}


def test_non_commuting_rejected():
    px = np.array([[0.5, 0.5], [0.5, 0.5]])
    pz = np.diag([1.0, 0.0])
    with pytest.raises(ValueError):
        record_algebra_check([px, pz])


def test_non_idempotent_rejected():
    with pytest.raises(ValueError):
        RecordProjectorSet((np.diag([0.5, 1.0]),))


# ------------------------------------------------------ branch frequencies

def test_single_branch_frequencies():
    assert np.allclose(branch_frequencies(1, (0.3, 0.7)), [0.3, 0.7], atol=1e-15)


def test_two_branch_even_frequencies():
    assert np.allclose(branch_frequencies(2, (0.5, 0.5)), [0.25, 0.5, 0.25],
                       atol=1e-14)


def test_frequency_mean_and_norm():
    for m, w1 in ((100, 0.36), (1000, 0.1), (5000, 0.8)):
        p = branch_frequencies(m, (1 - w1, w1))
        assert p.sum() == pytest.approx(1.0, abs=1e-12)
        mean = (np.arange(m + 1) * p).sum()
        assert mean == pytest.approx(w1 * m, rel=1e-10)


def test_degenerate_weights():
    p = branch_frequencies(50, (1.0, 0.0))
    assert p[0] == 1.0 and p[1:].sum() == 0.0
    p = branch_frequencies(50, (0.0, 1.0))
    assert p[-1] == 1.0


def test_large_m_stays_finite():
    p = branch_frequencies(10 ** 6, (0.5, 0.5))
    assert np.isfinite(p).all()
    assert p.sum() == pytest.approx(1.0, abs=1e-9)


def test_frequencies_near_gaussian_at_m_1000():
    m, w1 = 1000, 0.5
    p = branch_frequencies(m, (1 - w1, w1))
    counts = np.arange(m + 1)
    mu, var = w1 * m, m * w1 * (1 - w1)
    gauss = np.exp(-((counts - mu) ** 2) / (2 * var)) / math.sqrt(2 * math.pi * var)
    assert 0.5 * np.abs(p - gauss).sum() < 0.01


def test_frequency_validation():
    with pytest.raises(ValueError):
        branch_frequencies(10, (0.7, 0.7))
    with pytest.raises(CapExceeded):
        branch_frequencies(10 ** 6 + 1, (0.5, 0.5))


# ------------------------------------------------------------ agent circuit

def test_agent_circuit_restores():
    for seed, phase in ((0, 0.0), (3, 0.8), (12, 2.9)):
        tr = agent_circuit(phase, seed)
        assert tr.restored
        assert tr.final.agent_purity >= 1.0 - 1e-10
        assert tr.final.se_fidelity >= 1.0 - 1e-10
        assert tr.final_agent_prob0 == pytest.approx(1.0, abs=1e-10)
        labels = [s.label for s in tr.steps]
        assert labels[0] == "prepare" and labels.count("hadamard") == 2


def test_agent_mixed_mid_circuit():
    tr = agent_circuit(1.3, seed=5)
    mid = [s for s in tr.steps if s.label.startswith("swap")][0]
    assert mid.agent_purity == pytest.approx(0.5, abs=1e-10)
    assert mid.se_fidelity == pytest.approx(0.5, abs=1e-10)


def test_agent_circuit_controls_fail():
    omit = agent_circuit(0.8, seed=3, counterswap="omit")
    assert not omit.restored
    assert omit.final.agent_purity == pytest.approx(0.5, abs=1e-10)
    wrong = agent_circuit(0.8, seed=3, counterswap="wrong_wire")
    assert not wrong.restored
    assert wrong.final.se_fidelity < 0.99
    with pytest.raises(ValueError):
        agent_circuit(0.8, seed=3, counterswap="late")


# ---------------------------------------------------------------- reversal

def test_reversal_no_superposition():
    res = reversal_demo([1.0, 0.0])
    assert res.without_copy_fidelity >= 1.0 - 1e-12
    assert np.allclose(res.with_copy_state, np.diag([1.0, 0.0]), atol=1e-12)


def test_reversal_even_superposition():
    res = reversal_demo([1.0, 1.0])
    assert res.scale == pytest.approx(math.sqrt(2.0))
    assert res.without_copy_fidelity >= 1.0 - 1e-12
    assert np.allclose(res.with_copy_state, np.eye(2) / 2, atol=1e-12)


@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 4))
@settings(max_examples=30, deadline=None)
def test_reversal_random_amplitudes(seed, d):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=d) + 1j * rng.normal(size=d)
    res = reversal_demo(a)
    assert res.without_copy_fidelity >= 1.0 - 1e-12
    want = np.diag(np.abs(a / np.linalg.norm(a)) ** 2)
    assert np.allclose(res.with_copy_state, want, atol=1e-12)


def test_reversal_validation():
    with pytest.raises(ValueError):
        reversal_demo([1.0])
    with pytest.raises(ValueError):
        reversal_demo([0.0, 0.0])


def test_schmidt_pair_keeps_read_only_copies():
    coefficients, system_basis, env_basis = np.array([0.6, 0.8j]), np.eye(2, dtype=complex), np.eye(2)
    pair = SchmidtPair(coefficients, system_basis, env_basis)
    coefficients[0] = system_basis[0, 0] = env_basis[0, 0] = 0.0  # still writable
    for arr in (pair.coefficients, pair.system_basis, pair.env_basis):
        assert not arr.flags.writeable
    assert pair.coefficients[0] == 0.6 and pair.system_basis[0, 0] == pair.env_basis[0, 0] == 1.0


def test_record_projector_set_keeps_read_only_copies():
    p = np.diag([1.0, 0.0]).astype(complex)
    rset = RecordProjectorSet((p,))
    p[1, 1] = 1.0  # the caller's array stays writable
    assert not rset.projectors[0].flags.writeable
    assert rset.projectors[0][1, 1] == 0.0
