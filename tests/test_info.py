import numpy as np
import pytest
from hypothesis import given, strategies as st

from darwinlab.info import (
    LN2,
    Ensemble,
    MeasurementBasis,
    ProbVector,
    _first_crossing,
    asymmetric_mutual_info,
    average_conditional_entropy,
    bloch_basis,
    conditional_state,
    discord,
    holevo,
    joint_distribution,
    min_discord,
    mutual_information,
    shannon_entropy,
    shannon_mutual_observables,
    to_bits,
    von_neumann_entropy,
)
from darwinlab.branching import BranchingState
from darwinlab.darwin import InteractingSource
from darwinlab.envariance import (RecordProjectorSet, SchmidtPair, branch_frequencies,
                                  coarse_grain_probability, swap_and_counterswap)
from darwinlab.numeric import POLICY
from darwinlab.qbm import GaussianState, OhmicBathParams, qbm_evolve
from darwinlab.spinmodels import (CentralSpinParams, HazyCentralSpin, HazyParams,
                                  InteractingEnvParams, central_spin_branching, cnot_model,
                                  interacting_evolve)
from darwinlab.qstate import (
    DensityMatrix,
    HilbertShape,
    StateVector,
    apply_unitary,
    ket,
    partial_trace,
    pure_density,
    qubits,
    reconstruct_from_schmidt,
    reduced_density,
    schmidt,
    subsystem_entropy,
    tensor,
)
from helpers import random_state_vector, random_unitary

Z_BASIS = MeasurementBasis.from_states([np.array([1.0, 0.0]), np.array([0.0, 1.0])])
X_BASIS = MeasurementBasis.from_states(
    [np.array([1.0, 1.0]) / np.sqrt(2), np.array([1.0, -1.0]) / np.sqrt(2)]
)


def bell_density():
    return pure_density(ket([1, 0, 0, 1], dims=(2, 2)))


def classically_correlated():
    m = np.zeros((4, 4))
    m[0, 0] = m[3, 3] = 0.5
    return DensityMatrix(qubits(2), m)


def test_von_neumann_entropy_examples():
    assert von_neumann_entropy(pure_density(ket([1, 1j]))) == pytest.approx(0.0, abs=1e-12)
    mixed = DensityMatrix(qubits(1), np.eye(2) / 2)
    assert von_neumann_entropy(mixed) == pytest.approx(LN2, abs=1e-12)
    rho = DensityMatrix(qubits(1), np.diag([0.25, 0.75]))
    expect = -0.25 * np.log(0.25) - 0.75 * np.log(0.75)
    assert von_neumann_entropy(rho) == pytest.approx(expect, abs=1e-12)


def test_shannon_entropy_examples():
    assert shannon_entropy(ProbVector(np.array([1.0, 0.0]))) == 0.0
    assert shannon_entropy(np.array([0.5, 0.5])) == pytest.approx(LN2, abs=1e-12)
    expect = np.log(3) - (2 / 3) * np.log(2)
    assert shannon_entropy(np.array([1 / 3, 2 / 3])) == pytest.approx(expect, abs=1e-12)


def test_to_bits():
    assert to_bits(LN2) == pytest.approx(1.0, abs=1e-15)


def test_prob_vector_validation():
    with pytest.raises(ValueError):
        ProbVector(np.array([0.7, 0.7]))
    with pytest.raises(ValueError):
        ProbVector(np.array([-0.1, 1.1]))


def test_mutual_information_product_state():
    rng = np.random.default_rng(0)
    s = tensor(random_state_vector(rng, (2,)), random_state_vector(rng, (2,)))
    assert mutual_information(pure_density(s), (0,)) == pytest.approx(0.0, abs=1e-10)


def test_mutual_information_bell_and_classical():
    assert mutual_information(bell_density(), (0,)) == pytest.approx(2 * LN2, abs=1e-10)
    assert mutual_information(classically_correlated(), (0,)) == pytest.approx(LN2, abs=1e-10)


@given(st.integers(0, 10 ** 6))
def test_mutual_information_bounds(seed):
    rng = np.random.default_rng(seed)
    rho = pure_density(random_state_vector(rng, (2, 2, 2)))
    part = (rng.integers(3),)
    i = mutual_information(rho, part)
    assert i >= -1e-9


@given(st.integers(0, 10 ** 6))
def test_subadditivity(seed):
    rng = np.random.default_rng(seed)
    rho = pure_density(random_state_vector(rng, (2, 2, 3)))
    a, b = (0,), (1, 2)
    ha = von_neumann_entropy(
        DensityMatrix(HilbertShape((2,)), rho.mat.reshape(2, 6, 2, 6).trace(axis1=1, axis2=3))
    )
    from darwinlab.qstate import partial_trace

    hb = von_neumann_entropy(partial_trace(rho, b))
    assert von_neumann_entropy(rho) <= ha + hb + 1e-9


def test_conditional_state_bell():
    proj0 = np.outer([1, 0], [1, 0])
    cond, p = conditional_state(bell_density(), proj0, (0,))
    assert p == pytest.approx(0.5, abs=1e-12)
    from darwinlab.qstate import partial_trace

    rho_b = partial_trace(cond, (1,))
    assert np.allclose(rho_b.mat, np.outer([1, 0], [1, 0]), atol=1e-12)


def test_conditional_state_zero_probability_flagged():
    rho = pure_density(ket([1, 0], dims=(2,)))
    big = pure_density(tensor(ket([1, 0]), ket([0, 1])))
    proj1 = np.outer([0, 1], [0, 1])
    cond, p = conditional_state(big, proj1, (0,))
    assert cond is None and p == 0.0


def test_conditional_probabilities_complete():
    rng = np.random.default_rng(4)
    rho = pure_density(random_state_vector(rng, (2, 2)))
    total = 0.0
    for proj in Z_BASIS.projectors:
        _, p = conditional_state(rho, proj, (0,))
        total += p
    assert total == pytest.approx(1.0, abs=1e-10)


def test_average_conditional_entropy_classical_record():
    # measuring the record side in z leaves no remaining uncertainty
    assert average_conditional_entropy(
        classically_correlated(), Z_BASIS, (0,)
    ) == pytest.approx(0.0, abs=1e-10)


def test_average_conditional_entropy_bell_any_basis():
    for basis in (Z_BASIS, X_BASIS, bloch_basis(0.77, 1.3)):
        assert average_conditional_entropy(
            bell_density(), basis, (0,)
        ) == pytest.approx(0.0, abs=1e-10)


def one_sided_mixture():
    # (|0><0| x |0><0| + |1><1| x |+><+|) / 2: records on side B are imperfect
    zero = np.outer([1, 0], [1, 0])
    one = np.outer([0, 1], [0, 1])
    plus = np.full((2, 2), 0.5)
    m = 0.5 * (np.kron(zero, zero) + np.kron(one, plus))
    return DensityMatrix(qubits(2), m)


def test_one_sided_accessibility():
    rho = one_sided_mixture()
    on_a = average_conditional_entropy(rho, Z_BASIS, (0,))
    on_b = average_conditional_entropy(rho, Z_BASIS, (1,))
    assert on_a == pytest.approx(0.0, abs=1e-10)
    assert on_b > 0.1


def test_asymmetric_mutual_info_examples():
    assert asymmetric_mutual_info(bell_density(), Z_BASIS, (0,)) == pytest.approx(
        LN2, abs=1e-10
    )
    rho = classically_correlated()
    j = asymmetric_mutual_info(rho, Z_BASIS, (0,))
    assert j == pytest.approx(mutual_information(rho, (0,)), abs=1e-10)


@given(st.integers(0, 10 ** 6))
def test_j_below_i_and_conservation(seed):
    rng = np.random.default_rng(seed)
    rho = pure_density(random_state_vector(rng, (2, 2)))
    basis = bloch_basis(rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi))
    on = (1,)
    i = mutual_information(rho, on)
    j = asymmetric_mutual_info(rho, basis, on)
    d = discord(rho, basis, on)
    assert j <= i + 1e-9
    assert d >= -1e-9
    assert i == pytest.approx(j + d, abs=1e-9)


def test_discord_classical_pointer_basis_zero():
    assert discord(classically_correlated(), Z_BASIS, (0,)) == pytest.approx(
        0.0, abs=1e-10
    )


def test_discord_bell_any_basis():
    for basis in (Z_BASIS, X_BASIS):
        assert discord(bell_density(), basis, (0,)) == pytest.approx(LN2, abs=1e-10)


def up_upright_mixture():
    # mixture of nonorthogonal system states, each perfectly recorded on A
    up = np.array([1.0, 0.0])
    upright = np.array([np.cos(np.pi / 8), np.sin(np.pi / 8)])
    a0 = np.array([1.0, 0.0])
    a1 = np.array([0.0, 1.0])
    m = 0.5 * (
        np.kron(np.outer(up, up), np.outer(a0, a0))
        + np.kron(np.outer(upright, upright), np.outer(a1, a1))
    )
    return DensityMatrix(qubits(2), m)


def test_min_discord_asymmetry_of_access():
    rho = up_upright_mixture()
    grid = (24, 12)  # coarse grid keeps this test quick
    d_measuring_record = min_discord(rho, (1,), grid=grid)
    d_measuring_system = min_discord(rho, (0,), grid=grid)
    assert d_measuring_record <= 5e-3
    assert d_measuring_system > 0.01



def random_mixed_density(rng, dims):
    d = HilbertShape(dims).total_dim
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = a @ a.conj().T
    return DensityMatrix(HilbertShape(dims), m / np.trace(m).real)


@pytest.mark.parametrize("on", [(0,), (1,)])
@pytest.mark.parametrize("make", [
    up_upright_mixture, lambda: random_mixed_density(np.random.default_rng(31), (2, 2)),
], ids=["up-upright", "random"])
def test_min_discord_is_the_grid_minimum_of_discord(make, on):
    # the search is the public discord at every grid point, to the bit
    rho = make()
    grid = (12, 6)
    want = min(discord(rho, bloch_basis(theta, phi), on)
               for theta in np.linspace(0.0, np.pi, grid[0], endpoint=True)
               for phi in np.linspace(0.0, np.pi, grid[1], endpoint=False))
    assert min_discord(rho, on, grid=grid) == want

def projected_conditional_entropy(rho, projectors, on):
    """sum_k p_k H(rest | k) the long way: each P_k embedded in the full
    space, P_k rho P_k renormalized, then the measured subsystems traced out."""
    dims, n = rho.shape.dims, rho.shape.n_subsystems
    rest = [i for i in range(n) if i not in on]
    perm = list(on) + rest
    inv = list(np.argsort(perm))
    total = 0.0
    for proj in projectors:
        big = np.kron(proj, np.eye(rho.shape.dim_of(rest)))
        big = big.reshape([dims[i] for i in perm] * 2).transpose(inv + [n + i for i in inv])
        big = big.reshape(rho.mat.shape)
        m = big @ rho.mat @ big.conj().T
        p = np.trace(m).real
        if p <= POLICY.eig_floor:
            continue
        m = DensityMatrix(rho.shape, 0.5 * (m + m.conj().T) / p)
        total += p * von_neumann_entropy(partial_trace(m, rest))
    return total


def projected_discord(rho, projectors, on):
    rest = [i for i in range(rho.shape.n_subsystems) if i not in on]
    h_rest = von_neumann_entropy(partial_trace(rho, rest))
    return mutual_information(rho, on) - (h_rest - projected_conditional_entropy(rho, projectors, on))


def conditioning_bases(rng, d_on):
    """Complex bases on d_on: Bloch bases off the x-z plane on a qubit, a
    random rank-one basis, and on two qubits a rank-2 split and a product
    of Bloch bases."""
    blochs = [bloch_basis(0.9, 1.1), bloch_basis(2.0, 2.7)]
    u = random_unitary(rng, d_on)
    bases = [MeasurementBasis.from_states(u.T)] + (blochs if d_on == 2 else [])
    if d_on == 4:
        half = u[:, :2] @ u[:, :2].conj().T
        bases.append(MeasurementBasis((half, np.eye(4) - half)))
        bases.append(MeasurementBasis(tuple(np.kron(a, b) for a in blochs[0].projectors
                                            for b in blochs[1].projectors)))
    return bases


CONDITIONING_CASES = [((2, 3, 2), (0, 2)), ((2, 3, 2), (1,)),
                      ((2, 2, 2, 2), (0, 2)), ((2, 2, 2, 2), (1,))]


@pytest.mark.parametrize("dims, on", CONDITIONING_CASES)
def test_conditioning_matches_full_space_projection(dims, on):
    rng = np.random.default_rng(sum(dims) + len(on))
    rho = random_mixed_density(rng, dims)
    for basis in conditioning_bases(rng, rho.shape.dim_of(on)):
        want = projected_conditional_entropy(rho, basis.projectors, on)
        assert average_conditional_entropy(rho, basis, on) == pytest.approx(want, abs=1e-12)
        want = projected_discord(rho, basis.projectors, on)
        assert discord(rho, basis, on) == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("dims, on", [((2, 2, 2, 2), (1,)), ((2, 3, 2), (0,))])
def test_min_discord_matches_full_space_projection(dims, on):
    rho = random_mixed_density(np.random.default_rng(len(dims)), dims)
    want = min(projected_discord(rho, bloch_basis(theta, phi).projectors, on)
               for theta in np.linspace(0.0, np.pi, 6, endpoint=True)
               for phi in np.linspace(0.0, np.pi, 4, endpoint=False))
    assert min_discord(rho, on, grid=(6, 4)) == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("entry", [
    lambda rho: average_conditional_entropy(rho, Z_BASIS, (0, 1)),
    lambda rho: conditional_state(rho, Z_BASIS.projectors[0], (0, 1)),
    lambda rho: discord(rho, Z_BASIS, (0, 1)),
    lambda rho: joint_distribution(rho, Z_BASIS, (0, 1), Z_BASIS, (2,)),
], ids=["average_conditional_entropy", "conditional_state", "discord", "joint_distribution"])
def test_basis_of_the_wrong_dimension_raises(entry):
    rho = random_mixed_density(np.random.default_rng(2), (2, 2, 2))
    with pytest.raises(ValueError, match=r"shape \(2, 2\) on dimension 4"):
        entry(rho)


def test_holevo_examples():
    rho0 = pure_density(ket([1, 0]))
    rho_plus = pure_density(ket([1, 1]))
    w = ProbVector(np.array([0.5, 0.5]))
    assert holevo(Ensemble(w, (rho0, rho0))) == pytest.approx(0.0, abs=1e-12)
    rho1 = pure_density(ket([0, 1]))
    assert holevo(Ensemble(w, (rho0, rho1))) == pytest.approx(LN2, abs=1e-12)
    avg = 0.5 * (rho0.mat + rho_plus.mat)
    expect = -np.sum(
        [lam * np.log(lam) for lam in np.linalg.eigvalsh(avg) if lam > 1e-12]
    )
    assert holevo(Ensemble(w, (rho0, rho_plus))) == pytest.approx(expect, abs=1e-10)


def test_holevo_bounded_by_weight_entropy():
    rng = np.random.default_rng(8)
    states = tuple(pure_density(random_state_vector(rng, (2,))) for _ in range(3))
    w = ProbVector(np.array([0.2, 0.3, 0.5]))
    chi = holevo(Ensemble(w, states))
    assert -1e-9 <= chi <= shannon_entropy(w) + 1e-9


def test_shannon_mutual_observables():
    rho = classically_correlated()
    assert shannon_mutual_observables(
        rho, Z_BASIS, (0,), Z_BASIS, (1,)
    ) == pytest.approx(LN2, abs=1e-10)
    bell = bell_density()
    m = shannon_mutual_observables(bell, Z_BASIS, (0,), Z_BASIS, (1,))
    assert m == pytest.approx(LN2, abs=1e-10)
    assert m < mutual_information(bell, (0,)) - 0.5

    rng = np.random.default_rng(1)
    prod = pure_density(tensor(random_state_vector(rng, (2,)), random_state_vector(rng, (2,))))
    assert shannon_mutual_observables(
        prod, Z_BASIS, (0,), X_BASIS, (1,)
    ) == pytest.approx(0.0, abs=1e-10)


@given(st.integers(0, 10 ** 6))
def test_measured_mi_below_quantum_mi(seed):
    rng = np.random.default_rng(seed)
    rho = pure_density(random_state_vector(rng, (2, 2)))
    m = shannon_mutual_observables(rho, Z_BASIS, (0,), Z_BASIS, (1,))
    assert m <= mutual_information(rho, (0,)) + 1e-9


# n = 10, H_S = 1, delta = 0.1: the threshold is 0.9
@pytest.mark.parametrize("values, expected, scanned", [
    ({1: 0.95, 2: 1.0}, (1.0, 10.0, False), [1]),                # size 1: R = n
    ({2: 0.95, 3: 1.0}, (2.0, 5.0, False), [2]),                 # first scanned size
    ({1: 0.3, 2: 0.5, 4: 1.3, 5: 2.0}, (3.0, 10 / 3, True), [1, 2, 4]),  # interpolated
    ({1: 0.45, 2: 0.6, 3: 0.3}, (None, 0.6 / 0.9, False), [1, 2, 3]),    # none: the max
    ({}, None, []),                                              # empty
])
def test_first_crossing_outcomes(values, expected, scanned):
    calls = []

    def value_of(m):
        calls.append(m)
        return values[m]

    if expected is None:
        with pytest.raises(ValueError):
            _first_crossing(10, values, value_of, 1.0, 0.1)
    else:
        sharp, r, interpolated = _first_crossing(10, values, value_of, 1.0, 0.1)
        assert sharp == (None if expected[0] is None else pytest.approx(expected[0], abs=1e-12))
        assert r == pytest.approx(expected[1], abs=1e-12)
        assert interpolated is expected[2]
    assert calls == scanned


# an H_S at the rounding floor (2e-15 at t = 0) holds no record: no redundancy
@pytest.mark.parametrize("h_s, delta", [(1.0, 0.0), (1.0, 1.0), (1.0, 1.5), (0.0, 0.1),
                                        (2.0e-15, 0.1), (POLICY.spectrum_atol, 0.1)])
def test_first_crossing_rejects_bad_threshold(h_s, delta):
    with pytest.raises(ValueError):
        _first_crossing(10, [1, 2], lambda m: 1.0, h_s, delta)


# one position rule at every entry point that takes indices: each takes a
# sequence of positions in range(4), the subsystems of a four-qubit state (a
# unitary or basis sized to them), the modes of a four-mode Gaussian state, or
# four equiprobable branches
STATE = random_state_vector(np.random.default_rng(21), (2, 2, 2, 2))
RHO = pure_density(STATE)
GAUSSIAN = qbm_evolve(OhmicBathParams(bands=3), 10.0, "x", 1.0)
PAIR = SchmidtPair.from_raw([1.0, 1.0, 1.0, 1.0])


def _basis(pos):
    return MeasurementBasis.from_states(np.eye(2 ** len(pos)))


def _flat(result):
    """Any entry point's result as one flat array, to compare bit for bit."""
    if isinstance(result, DensityMatrix):
        return result.mat.ravel()
    if isinstance(result, GaussianState):
        return np.concatenate([result.means, result.cov.ravel()])
    if isinstance(result, RecordProjectorSet):
        return _flat(result.projectors)
    if isinstance(result, (tuple, list)):
        return np.concatenate([_flat(r) for r in result])
    if hasattr(result, "amps"):
        return result.amps
    return np.atleast_1d(np.asarray(result, dtype=complex)).ravel()


ENTRY_POINTS = {
    "reduced_density": lambda pos: reduced_density(STATE, pos),
    "subsystem_entropy": lambda pos: subsystem_entropy(STATE, pos),
    "partial_trace": lambda pos: partial_trace(RHO, pos),
    "schmidt": lambda pos: schmidt(STATE, pos),
    "reconstruct_from_schmidt": lambda pos: reconstruct_from_schmidt(
        schmidt(STATE, (0, 2)), STATE.shape, pos),
    "apply_unitary": lambda pos: apply_unitary(STATE, np.eye(2 ** len(pos)), pos),
    "mutual_information": lambda pos: mutual_information(RHO, pos),
    "conditional_state": lambda pos: conditional_state(RHO, _basis(pos).projectors[1], pos),
    "average_conditional_entropy": lambda pos: average_conditional_entropy(RHO, _basis(pos), pos),
    "asymmetric_mutual_info": lambda pos: asymmetric_mutual_info(RHO, _basis(pos), pos),
    "discord": lambda pos: discord(RHO, _basis(pos), pos),
    "min_discord": lambda pos: min_discord(RHO, pos, grid=(4, 2)),
    "joint_distribution": lambda pos: joint_distribution(RHO, _basis(pos), pos, Z_BASIS, (3,)),
    "GaussianState.marginal": lambda pos: GAUSSIAN.marginal(pos),
    "coarse_grain_probability": lambda pos: coarse_grain_probability(4, pos),
    "RecordProjectorSet.from_subsets": lambda pos: RecordProjectorSet.from_subsets(4, [pos]),
    # (k, l) is a pair of positions, or one position and branch 0
    "swap_and_counterswap": lambda pos: swap_and_counterswap(
        PAIR, *(pos if len(pos) == 2 else (pos[0], 0))),
}


@pytest.mark.parametrize("bad", [[1, 1], [-1], [4], [2.2], [1.0]],
                         ids=["repeated", "negative", "out of range", "fraction", "float"])
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_one_position_rule(entry, bad):
    # a repeat must not collapse to one position, nor a float be truncated;
    # every message is check_rows' own
    with pytest.raises(ValueError, match="fragment"):
        ENTRY_POINTS[entry](bad)


@pytest.mark.parametrize("entry", sorted(set(ENTRY_POINTS) - {"apply_unitary", "min_discord",
                                                                "swap_and_counterswap"}))
def test_unsorted_positions_match_sorted(entry):
    # apply_unitary's order is the tensor order of u (its own tests); min_discord
    # takes a single qubit, so it has no order; swap_and_counterswap takes an
    # ordered pair (k, l)
    assert np.array_equal(_flat(ENTRY_POINTS[entry]([2, 0])),
                          _flat(ENTRY_POINTS[entry]([0, 2])))


# one rule per branch input: a system start (a, b) passes as a one-qubit
# StateVector (norm within POLICY.state_atol), a weight vector as a ProbVector
# (entries above -POLICY.eig_floor, sum within POLICY.spectrum_atol)
def _interacting(pair):
    return InteractingEnvParams([0.3, 0.5], [[0.0, pair], [pair, 0.0]], 1.0)


START_ENTRY_POINTS = {
    "cnot_model": lambda start: cnot_model(*start, 3),
    "central_spin_branching": lambda start: central_spin_branching(
        CentralSpinParams([0.3, 0.5], 1.0, start)),
    "HazyCentralSpin": lambda start: HazyCentralSpin(3, 0.3, 1.0, HazyParams(0.2), start),
    "interacting_evolve": lambda start: interacting_evolve(_interacting(0.1), start),
    "InteractingSource, no pair couplings": lambda start: InteractingSource(
        _interacting(0.0), start),
    "InteractingSource, pair couplings": lambda start: InteractingSource(
        _interacting(0.1), start),
}


@pytest.mark.parametrize("entry", sorted(START_ENTRY_POINTS))
def test_one_start_rule(entry):
    # norm 1 + 7e-11 passes, though |a|^2 + |b|^2 = 1 + 1.4e-10, and the
    # caller's array is copied, not frozen; norm 1 + 1.5e-10 fails with
    # StateVector's own message
    start = np.full(2, (1 + 7e-11) / np.sqrt(2), dtype=complex)
    START_ENTRY_POINTS[entry](start)
    assert start.flags.writeable
    with pytest.raises(ValueError, match="state norm .* not 1"):
        START_ENTRY_POINTS[entry](((1 + 3e-10) / np.sqrt(2), 1 / np.sqrt(2)))


WEIGHT_ENTRY_POINTS = {
    "ProbVector": ProbVector,
    "BranchingState": lambda w: BranchingState(w, np.zeros(2), np.tile(np.eye(2), (3, 1, 1))),
    "branch_frequencies": lambda w: branch_frequencies(4, w),
}


@pytest.mark.parametrize("weights", [(0.5, 0.5 + 5e-10), (1 + 1e-13, -1e-13)],
                         ids=["sum inside", "rounding negative"])
@pytest.mark.parametrize("entry", sorted(WEIGHT_ENTRY_POINTS))
def test_one_weight_rule_accepts(entry, weights):
    WEIGHT_ENTRY_POINTS[entry](weights)


@pytest.mark.parametrize("weights, message",
                         [((0.5, 0.5 + 5e-9), "probabilities sum to"),
                          ((1.1, -0.1), "negative probability")],
                         ids=["sum outside", "negative"])
@pytest.mark.parametrize("entry", sorted(WEIGHT_ENTRY_POINTS))
def test_one_weight_rule_rejects(entry, weights, message):
    with pytest.raises(ValueError, match=message):
        WEIGHT_ENTRY_POINTS[entry](weights)


NAN_INPUTS = {
    "StateVector": lambda: StateVector(qubits(1), [np.nan, 0.0]),
    "ProbVector": lambda: ProbVector([np.nan, np.nan]),
    "BranchingState": lambda: BranchingState((0.5, 0.5), np.zeros(2),
                                             np.full((3, 2, 2), np.nan)),
    "SchmidtPair": lambda: SchmidtPair([np.nan, 0.5], np.eye(2), np.eye(2)),
    # a zero env_init normalizes to nan kets, and H_S would read -0.0
    "central_spin_branching": lambda: central_spin_branching(
        CentralSpinParams(np.ones(4), 1.0, env_init=[0, 0])),
    "interacting_evolve": lambda: interacting_evolve(
        InteractingEnvParams(np.array([np.nan, 0.1]), np.zeros((2, 2)), t=1.0)),
}


@pytest.mark.parametrize("entry", sorted(NAN_INPUTS))
def test_nan_fails_every_tolerance_check(entry):
    # a nan compares false with every tolerance, so each check is written
    # to pass only a value inside it
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="finite"):
        NAN_INPUTS[entry]()


def test_rounding_negative_weight_reads_as_zero():
    # ProbVector's clip reaches every weight vector
    b = BranchingState((1 + 1e-13, -1e-13), np.zeros(2), np.tile(np.eye(2), (3, 1, 1)))
    assert b.probs[1] == 0.0
    assert branch_frequencies(4, (1 + 1e-13, -1e-13)).tolist() == [1.0, 0.0, 0.0, 0.0, 0.0]


# one projector-set check (info._checked_projectors) under both projector
# classes, each with its own tolerance and its own extra condition
PROJECTOR_SETS = {"MeasurementBasis": MeasurementBasis, "RecordProjectorSet": RecordProjectorSet}


@pytest.mark.parametrize("projectors, message", [
    ((), "empty projector set"),
    ((np.diag([1.0, 0.0]), np.eye(3)), "share one square dimension"),
    ((np.array([[1.0, 1.0], [0.0, 0.0]]),), "projector 0 not Hermitian"),
    ((np.eye(2), np.diag([0.5, 1.0])), "projector 1 not idempotent"),
], ids=["empty", "shapes", "not Hermitian", "not idempotent"])
@pytest.mark.parametrize("cls", sorted(PROJECTOR_SETS))
def test_one_projector_check(cls, projectors, message):
    with pytest.raises(ValueError, match=message):
        PROJECTOR_SETS[cls](projectors)


def test_projector_sets_keep_their_own_conditions():
    # a basis must be complete, a record set commuting
    with pytest.raises(ValueError, match="sum to identity"):
        MeasurementBasis((np.diag([1.0, 0.0]),))
    plus = np.full((2, 2), 0.5)
    with pytest.raises(ValueError, match="do not commute"):
        RecordProjectorSet((np.diag([1.0, 0.0]), plus))
    # an orthogonal, complete, idempotent pair 1e-10 from Hermitian: within
    # the basis tolerance 1e-9, outside the record tolerance 1e-12
    p0 = np.array([[1.0, 1e-10], [0.0, 0.0]])
    pair = (p0, np.eye(2) - p0)
    MeasurementBasis(pair)
    with pytest.raises(ValueError, match="not Hermitian"):
        RecordProjectorSet(pair)
