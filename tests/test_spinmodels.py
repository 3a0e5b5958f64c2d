import math
import tracemalloc
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

from darwinlab import spinmodels
from darwinlab.branching import system_entropy, to_state_vector
from darwinlab.darwin import BranchingSource, HazySource
from darwinlab.info import LN2, von_neumann_entropy
from darwinlab.numeric import CapExceeded
from darwinlab.qstate import (
    HilbertShape,
    StateVector,
    apply_unitary,
    qubits,
    reduced_density,
    subsystem_entropy,
)
from darwinlab.spinmodels import (
    HALF,
    PLUS,
    CentralSpinParams,
    HazyCentralSpin,
    HazyParams,
    InteractingEnvParams,
    binary_entropy,
    central_spin_branching,
    cnot_model,
    haze_weight,
    hazy_redundancy,
    hazy_redundancy_estimate,
    interacting_evolve,
    interacting_phase_vector,
    plateau_mutual_info,
    random_interacting_params,
    redundancy_estimate,
    uniform_couplings,
)

SZ = np.diag([1.0, -1.0]).astype(complex)


# the lift oracle: Sym^k(A) by the hazy kernel's own isometry step, and the
# spin-sector blocks of A^(x m) built from it

def sym_power(a: np.ndarray, k: int) -> np.ndarray:
    """Matrix of A acting on the degree-k symmetric subspace of (C^2)^k,
    i.e. the restriction of A^(x k) to the orthonormal symmetric basis
    |r> ~ sym(x^{k-r} y^r). Hermitian for Hermitian A and multiplicative:
    sym_power(AB) = sym_power(A) sym_power(B).

    Built one degree at a time by spinmodels._sym_step.
    """
    a = np.asarray(a, dtype=complex)
    lift = np.ones((1, 1), dtype=complex)
    for _ in range(k):
        lift = spinmodels._sym_step(a, lift)
    return lift


def sector_label_range(m: int):
    """Spin sectors j of m qubits; 2j runs over m, m-2, ..., (0 or 1)."""
    return [jj2 / 2.0 for jj2 in range(m % 2, m + 1, 2)]


def sector_multiplicity(m: int, j: float) -> int:
    k = int(round(m / 2.0 - j))
    lo = math.comb(m, k - 1) if k >= 1 else 0
    return math.comb(m, k) - lo


def sector_block(a: np.ndarray, m: int, j: float) -> np.ndarray:
    """Irreducible block of A^(x m) in the spin-j sector: det(A)^(m/2-j) Sym^(2j)(A)."""
    k = int(round(m / 2.0 - j))
    det = a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
    return (det ** k) * sym_power(a, int(round(2 * j)))


class TestCnotModel:
    def test_single_record_carries_full_system_entropy(self):
        b = cnot_model(1 / np.sqrt(2), 1j / np.sqrt(2), n=10)
        h_s = system_entropy(b)
        assert h_s == pytest.approx(LN2, abs=1e-12)
        for m in (1, 4, 9):
            i = BranchingSource(b).fragment_mutual_info(range(m))
            assert i == pytest.approx(h_s, abs=1e-12)

    def test_whole_environment_doubles(self):
        b = cnot_model(0.6, 0.8, n=6)
        i_all = BranchingSource(b).fragment_mutual_info(range(6))
        assert i_all == pytest.approx(2 * system_entropy(b), abs=1e-12)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            cnot_model(1.0, 1.0, n=3)

    def test_empty_environment_builds(self):
        b = cnot_model(0.6, 0.8, n=0)
        assert b.conditionals.shape == (0, 2, 2)
        assert system_entropy(b) == pytest.approx(0.0, abs=1e-12)

    def test_matches_per_site_tables(self):
        zero = np.array([1.0, 0.0], dtype=complex)
        one = np.array([0.0, 1.0], dtype=complex)
        per_site = np.stack([np.stack([zero, one]) for _ in range(7)])
        assert np.array_equal(cnot_model(0.6, 0.8, n=7).conditionals, per_site)


class TestCentralSpin:
    def test_matches_dense_evolution(self):
        # H = sz (d1 sz + d2 sz); compare with expm on 3 qubits
        d = np.array([0.37, 0.91])
        t = 1.3
        p = CentralSpinParams(d, t)
        psi0 = to_state_vector(central_spin_branching(CentralSpinParams(d, 0.0)))
        h = (d[0] * np.kron(np.kron(SZ, SZ), np.eye(2))
             + d[1] * np.kron(np.kron(SZ, np.eye(2)), SZ))
        amps = expm(-1j * t * h) @ psi0.amps
        psi_branch = to_state_vector(central_spin_branching(p))
        fid = abs(np.vdot(amps, psi_branch.amps))
        assert fid == pytest.approx(1.0, abs=1e-12)

    def test_single_site_overlap_is_cos2dt(self):
        p = CentralSpinParams(np.array([0.25]), t=2.0)
        b = central_spin_branching(p)
        ov = b._pair_overlaps(0)[0, 1]
        assert ov == pytest.approx(np.cos(2 * 0.25 * 2.0), abs=1e-12)

    def test_z_eigenstate_environment_records_nothing(self):
        p = CentralSpinParams(np.array([0.4, 0.7, 1.0]), t=3.0,
                              env_init=np.array([1.0, 0.0]))
        b = central_spin_branching(p)
        i = BranchingSource(b).fragment_mutual_info((0, 1, 2))
        assert i == pytest.approx(0.0, abs=1e-9)

    def test_plateau_reached_for_many_sites(self):
        rng = np.random.default_rng(7)
        p = CentralSpinParams(uniform_couplings(rng, 40), t=4.0)
        b = central_spin_branching(p)
        h_s = system_entropy(b)
        assert h_s == pytest.approx(LN2, abs=1e-6)
        mid = BranchingSource(b).fragment_mutual_info(range(20))
        assert mid == pytest.approx(h_s, abs=1e-6)

    @pytest.mark.parametrize("env_init", [None, np.array([0.6, 0.8j])])
    def test_matches_per_site_tables(self, env_init):
        rng = np.random.default_rng(8)
        p = CentralSpinParams(uniform_couplings(rng, 300), t=1.7, env_init=env_init)
        kets = p.env_kets()
        per_site = []
        for i, d in enumerate(p.couplings):
            ph = np.exp(-1j * d * p.t * np.array([1.0, -1.0]))
            per_site.append(np.stack([ph * kets[i], ph.conj() * kets[i]]))
        built = central_spin_branching(p).conditionals
        assert np.array_equal(built, np.stack(per_site))
        assert built.tobytes() == np.stack(per_site).tobytes()

    def test_uniform_couplings_in_half_open_interval(self):
        d = uniform_couplings(np.random.default_rng(0), 2000)
        assert np.all(d > 0.0) and np.all(d <= 1.0)


class TestAnalyticFormulas:
    def test_plateau_form_antisymmetric_about_center(self):
        h_s = LN2
        for f in (3, 10, 17):
            lo = plateau_mutual_info(h_s, 2, 40, f)
            hi = plateau_mutual_info(h_s, 2, 40, 40 - f)
            assert lo + hi == pytest.approx(2 * h_s, abs=1e-12)

    def test_plateau_center_equals_system_entropy(self):
        assert plateau_mutual_info(LN2, 2, 60, 30) == pytest.approx(LN2, abs=1e-15)

    def test_redundancy_estimate_literal(self):
        # sharpF = (H_S - ln(2 delta H_S)) / ln d
        sharp_f, r = redundancy_estimate(LN2, 2, 50, 0.1)
        expect = (LN2 - np.log(2 * 0.1 * LN2)) / LN2
        assert sharp_f == pytest.approx(expect, abs=1e-12)
        assert r == pytest.approx(50 / expect, abs=1e-9)

    def test_redundancy_estimate_rejects_degenerate(self):
        with pytest.raises(ValueError):
            redundancy_estimate(0.0, 2, 50, 0.1)
        with pytest.raises(ValueError):
            redundancy_estimate(LN2, 2, 50, 0.0)

    def test_hazy_correction_endpoints(self):
        assert hazy_redundancy_estimate(10.0, 0.0) == pytest.approx(10.0)
        assert hazy_redundancy_estimate(10.0, LN2) == pytest.approx(0.0)
        # the HazyParams rule: its slack past ln 2 reads as ln 2
        assert hazy_redundancy_estimate(10.0, LN2 + 5e-13) == 0.0
        for h in (2 * LN2, LN2 + 2e-12, -1e-300):
            with pytest.raises(ValueError):
                hazy_redundancy_estimate(10.0, h)


class TestInteractingEnv:
    def test_size_cap_is_the_dense_cap(self):
        # n + 1 qubits must fit POLICY.dim_cap = 2^20
        InteractingEnvParams(np.zeros(19), np.zeros((19, 19)), 1.0)
        with pytest.raises(CapExceeded, match="20\\+1 qubits exceeds the dense cap"):
            InteractingEnvParams(np.zeros(20), np.zeros((20, 20)), 1.0)

    def test_zero_pair_couplings_reduce_to_central_spin(self):
        rng = np.random.default_rng(3)
        d = rng.normal(0, 0.1, size=5)
        p = InteractingEnvParams(d, np.zeros((5, 5)), t=2.5)
        psi = interacting_evolve(p)
        ref = to_state_vector(central_spin_branching(CentralSpinParams(d, 2.5)))
        assert abs(np.vdot(psi.amps, ref.amps)) == pytest.approx(1.0, abs=1e-10)

    def test_phases_match_expm_oracle(self):
        rng = np.random.default_rng(11)
        p = random_interacting_params(rng, 3, t=1.7)
        kron = np.kron
        eye = np.eye(2)
        z = [kron(kron(kron(SZ, eye), eye), eye),
             kron(kron(kron(eye, SZ), eye), eye),
             kron(kron(kron(eye, eye), SZ), eye),
             kron(kron(kron(eye, eye), eye), SZ)]
        h = sum(p.couplings[i] * z[0] @ z[1 + i] for i in range(3))
        for j in range(3):
            for k in range(j + 1, 3):
                h = h + p.pair_couplings[j, k] * z[1 + j] @ z[1 + k]
        psi = interacting_evolve(p)
        psi0 = interacting_evolve(InteractingEnvParams(p.couplings, p.pair_couplings, 0.0))
        expect = expm(-1j * p.t * h) @ psi0.amps
        assert np.allclose(psi.amps, expect, atol=1e-12)

    def test_phase_vector_shape_and_reality(self):
        p = random_interacting_params(np.random.default_rng(0), 4, t=1.0)
        ph = interacting_phase_vector(p)
        assert ph.shape == (2 ** 5,)
        assert ph.dtype == np.float64

    @pytest.mark.parametrize("n", [3, 12, 14])
    def test_blocked_phases_equal_the_one_shot_formula(self, n):
        # n = 12 and 14 span one and four blocks of 2^12 basis states
        p = random_interacting_params(np.random.default_rng(n), n, t=10.0, sigma_m=0.3)
        idx = np.arange(2 ** (n + 1), dtype=np.int64)
        z = 1.0 - 2.0 * ((idx[:, None] >> np.arange(n, -1, -1)) & 1)
        zs, ze = z[:, 0], z[:, 1:]
        energy = zs * (ze @ p.couplings) + 0.5 * np.einsum("bi,ij,bj->b", ze,
                                                           p.pair_couplings, ze)
        assert interacting_phase_vector(p).tobytes() == (p.t * energy).tobytes()

    @pytest.mark.parametrize("n", [12, 14, 17])
    def test_default_start_is_flip_symmetric(self, n):
        # H commutes with flipping every qubit and |+>^(n+1) is even under
        # it, so amplitude i equals amplitude 2^(n+1) - 1 - i to the bit, on
        # one side of the 2^12-state phase blocks and across them; the dense
        # kernel's half-size solve rests on it (qstate._flip_symmetric)
        for t in (0.5, 10.0, 500.0):
            for sigma_m in (0.0, 0.001):
                p = random_interacting_params(np.random.default_rng(n), n, t, sigma_m=sigma_m)
                amps = interacting_evolve(p).amps
                assert np.array_equal(amps, amps[::-1])

    def test_evolve_memory_is_a_few_states(self):
        # the sigma^z matrix of the whole basis would be 18 doubles per state
        p = random_interacting_params(np.random.default_rng(2), 17, t=10.0)
        tracemalloc.start()
        try:
            psi = interacting_evolve(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * psi.amps.nbytes

    def test_intra_bath_coupling_degrades_records(self):
        # strong random bath self-interaction scrambles small-fragment records
        rng = np.random.default_rng(5)
        weak = random_interacting_params(rng, 8, t=10.0, sigma_m=0.0)
        scrambler = random_interacting_params(rng, 8, t=10.0, sigma_m=2.0)
        frag = tuple(range(1, 3))
        def info(p):
            psi = interacting_evolve(p)
            h_s = subsystem_entropy(psi, (0,))
            h_f = subsystem_entropy(psi, frag)
            h_sf = subsystem_entropy(psi, (0,) + frag)
            return h_s + h_f - h_sf
        strong = InteractingEnvParams(weak.couplings, scrambler.pair_couplings, t=10.0)
        assert info(strong) < 0.5 * info(weak)

    def test_rejects_asymmetric_pairs(self):
        m = np.zeros((3, 3))
        m[0, 1] = 1.0
        with pytest.raises(ValueError):
            InteractingEnvParams(np.ones(3), m, t=1.0)


class TestHazeWeight:
    def test_endpoints(self):
        assert haze_weight(0.0) == 1.0
        assert haze_weight(LN2) == 0.5

    @given(st.floats(min_value=0.01, max_value=0.99))
    def test_roundtrip(self, frac):
        h = frac * LN2
        assert binary_entropy(haze_weight(h)) == pytest.approx(h, abs=1e-12)


def _spin_axis_op(k: int, axis: np.ndarray) -> np.ndarray:
    """n . J for spin j = k/2 in the basis |r> = x^{k-r} y^r, m_j = j - r."""
    mj = k / 2.0 - np.arange(k + 1)
    lower = np.sqrt((k / 2.0 + mj[:-1]) * (k / 2.0 - mj[:-1] + 1.0))
    op = np.diag(axis[2] * mj).astype(complex)
    op += np.diag(0.5 * (axis[0] + 1j * axis[1]) * lower, k=-1)
    op += np.diag(0.5 * (axis[0] - 1j * axis[1]) * lower, k=1)
    return op


def _wigner_unitary(u: np.ndarray, k: int) -> np.ndarray:
    """Degree-k symmetric power of a 2x2 unitary: its spin-k/2 rotation
    exp(-i theta n . J), from an eigensolve of n . J, times det(u)^(k/2)."""
    det = u[0, 0] * u[1, 1] - u[0, 1] * u[1, 0]
    phase = np.sqrt(det)
    su = u / phase
    cos_half = float(np.clip(su[0, 0].real, -1.0, 1.0))
    sin_half = math.sqrt(max(0.0, 1.0 - cos_half * cos_half))
    theta = 2.0 * math.atan2(sin_half, cos_half)
    if sin_half < 1e-12:
        axis = np.array([0.0, 0.0, 1.0])
    else:
        axis = np.array([-su[0, 1].imag, -su[0, 1].real, -su[0, 0].imag]) / sin_half
    lam, vec = np.linalg.eigh(_spin_axis_op(k, axis))
    return phase ** k * ((vec * np.exp(-1j * theta * lam)) @ vec.conj().T)


def _wigner_sym_power(a: np.ndarray, k: int) -> np.ndarray:
    """Oracle for sym_power by another route: A = U S V*, the diagonal S
    lifts exactly and each unitary lifts to a Wigner rotation."""
    u, s, vh = np.linalg.svd(np.asarray(a, dtype=complex))
    r = np.arange(k + 1)
    return _wigner_unitary(u, k) @ ((s[0] ** (k - r) * s[1] ** r)[:, None]
                                    * _wigner_unitary(vh, k))


def _decimal_sym_power(a: np.ndarray, k: int) -> np.ndarray:
    """Sym^k of a real 2x2 matrix from the polynomial expansion, at 40
    significant digits: column s holds the coefficients of x^{k-r} y^r in
    (a00 x + a10 y)^(k-s) (a01 x + a11 y)^s, scaled by sqrt(C(k,s)/C(k,r))
    into the orthonormal basis."""
    out = np.empty((k + 1, k + 1))
    with localcontext() as ctx:
        ctx.prec = 40
        (a00, a01), (a10, a11) = [[Decimal(float(v)) for v in row] for row in np.real(a)]

        def powers(x):
            p = [Decimal(1)]
            for _ in range(k):
                p.append(p[-1] * x)
            return p

        p00, p01, p10, p11 = (powers(x) for x in (a00, a01, a10, a11))
        for s in range(k + 1):
            left = [math.comb(k - s, i) * p00[k - s - i] * p10[i] for i in range(k - s + 1)]
            right = [math.comb(s, j) * p01[s - j] * p11[j] for j in range(s + 1)]
            for r in range(k + 1):
                c = sum(left[i] * right[r - i] for i in range(max(0, r - s), min(r, k - s) + 1))
                out[r, s] = float(c * (Decimal(math.comb(k, s)) / math.comb(k, r)).sqrt())
    return out


class TestSymPower:
    def test_identity(self):
        for k in (1, 3, 6):
            assert np.allclose(sym_power(np.eye(2), k), np.eye(k + 1))

    def test_diagonal(self):
        a, d = 0.7, 1.9
        s = sym_power(np.diag([a, d]).astype(complex), 4)
        assert np.allclose(s, np.diag([a ** (4 - r) * d ** r for r in range(5)]))

    @given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=2 ** 31))
    @settings(max_examples=30)
    def test_multiplicative(self, k, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        assert np.allclose(sym_power(a @ b, k), sym_power(a, k) @ sym_power(b, k),
                           atol=1e-10 * max(1, np.abs(a).max() * np.abs(b).max()) ** k)

    @pytest.mark.parametrize("kind", ["complex", "rank_one", "non_normal"])
    def test_matches_wigner_lift(self, kind):
        rng = np.random.default_rng(["complex", "rank_one", "non_normal"].index(kind))
        for _ in range(4):
            z = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
            if kind == "complex":
                a = z[:2]
            elif kind == "rank_one":
                a = np.outer(z[0], z[1].conj())
            else:
                a = np.array([[z[0, 0], 3.0 * z[0, 1]], [0.0, z[1, 0]]])
            a = a / np.linalg.norm(a, 2)
            for k in (0, 1, 2, 5, 16, 33, 64):
                want = _wigner_sym_power(a, k)
                np.testing.assert_allclose(sym_power(a, k), want, rtol=0.0,
                                           atol=1e-12 * np.abs(want).max())

    @pytest.mark.parametrize("k", [16, 64])
    @pytest.mark.parametrize("a", [
        HazyCentralSpin(8, 0.3, 0.5, HazyParams(0.3 * LN2)).rho_mix,
        HazyCentralSpin(8, 0.3, 0.5, HazyParams(0.9 * LN2)).rho_mix,
        np.array([[0.6, -0.5], [0.3, 0.7]]),
    ], ids=["rho_mix_0.3", "rho_mix_0.9", "mixed_signs"])
    def test_matches_40_digit_reference(self, a, k):
        want = _decimal_sym_power(a, k)
        err = np.abs(sym_power(a, k) - want).max()
        assert err <= 1e-14 * np.abs(want).max()

    @pytest.mark.parametrize("a", [
        HazyCentralSpin(8, 0.3, 0.5, HazyParams(h)).rho_mix for h in (0.0, 0.3, 0.69)
    ] + [np.array([[0.5, 0.3 - 0.2j], [0.3 + 0.2j, -0.4]])],
        ids=["rho_mix_0", "rho_mix_0.3", "rho_mix_0.69", "complex_hermitian"])
    def test_hermitian_step_forms_one_cross_term(self, a):
        # a Hermitian A reads the second cross term as the conjugate
        # transpose of the first; every degree keeps the bytes of the
        # step that forms both terms
        def both_terms(a, lift):
            d = len(lift)
            r = np.arange(d + 1)
            cx, cy = np.sqrt((d - r) / d), np.sqrt(r / d)
            pad = np.zeros((d + 2, d + 2), dtype=np.result_type(a, lift))
            pad[1:-1, 1:-1] = lift
            return (a[0, 0] * (np.outer(cx, cx) * pad[1:, 1:])
                    + (a[0, 1] * (np.outer(cx, cy) * pad[1:, :-1])
                       + a[1, 0] * (np.outer(cy, cx) * pad[:-1, 1:]))
                    + a[1, 1] * (np.outer(cy, cy) * pad[:-1, :-1]))

        assert np.array_equal(a, a.conj().T)
        lift = want = np.ones((1, 1))
        for _ in range(200):
            lift, want = spinmodels._sym_step(a, lift), both_terms(a, want)
            assert lift.dtype == want.dtype and lift.tobytes() == want.tobytes()
            assert np.array_equal(lift, lift.conj().T)

    def test_sector_dimensions_tile_the_tensor_power(self):
        for m in (2, 3, 6, 9):
            total = sum(sector_multiplicity(m, j) * int(round(2 * j + 1))
                        for j in sector_label_range(m))
            assert total == 2 ** m

    def test_sector_blocks_preserve_tensor_trace(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        m = 5
        tr = sum(sector_multiplicity(m, j) * np.trace(sector_block(a, m, j))
                 for j in sector_label_range(m))
        assert tr == pytest.approx(np.trace(a) ** m, abs=1e-10)


def _dense_entropies(model: HazyCentralSpin, m: int) -> tuple[float, float, float]:
    """Brute-force H_S, H_F, H_SF from the purified state, bath qubits only."""
    psi = model.dense_export()
    qubit_idx = [1 + 2 * i for i in range(m)]
    h_s = subsystem_entropy(psi, (0,))
    h_f = von_neumann_entropy(reduced_density(psi, qubit_idx))
    h_sf = von_neumann_entropy(reduced_density(psi, [0] + qubit_idx))
    return h_s, h_f, h_sf


class TestHazyCentralSpin:
    def test_start_weights_equal_the_branching_models_bit_for_bit(self):
        # numpy's vectorised abs and the scalar abs differ in the last bit on
        # most of these starts; every model takes the scalar one
        rng = np.random.default_rng(29)
        for _ in range(200):
            start = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            a, b = start / np.linalg.norm(start)
            hazy = HazyCentralSpin(2, 0.5, 1.0, HazyParams(0.0), system_init=(a, b)).p
            cnot = cnot_model(a, b, 2).probs
            central = central_spin_branching(CentralSpinParams(np.ones(2), 1.0, (a, b))).probs
            assert hazy.tobytes() == cnot.tobytes() == central.tobytes()

    @pytest.mark.parametrize("h_frac", [0.0, 0.3, 0.75, 1.0])
    @pytest.mark.parametrize("n,m", [(2, 1), (3, 2), (4, 3)])
    def test_sector_spectra_match_dense_purification(self, h_frac, n, m):
        model = HazyCentralSpin(n, coupling=0.55, t=1.1, haze=HazyParams(h_frac * LN2))
        h_s, h_f, h_sf = _dense_entropies(model, m)
        assert model.system_entropy() == pytest.approx(h_s, abs=1e-9)
        assert model.fragment_entropy(m) == pytest.approx(h_f, abs=1e-9)
        assert model.joint_entropy(m) == pytest.approx(h_sf, abs=1e-9)

    def test_pure_limit_equals_branching_state(self):
        n, d, t = 12, 0.4, 2.0
        model = HazyCentralSpin(n, d, t, HazyParams(0.0))
        b = central_spin_branching(CentralSpinParams(np.full(n, d), t))
        for m in (1, 3, 6):
            assert model.mutual_info(m) == pytest.approx(
                BranchingSource(b).fragment_mutual_info(range(m)), abs=1e-9)

    @staticmethod
    def classical_part(model, m):
        """H_F(t) - H_F(0) of the first m sites, from HazySource.decompose."""
        return HazySource(model).decompose(np.arange(m)[None])[0][0]

    def test_classical_term_vanishes_at_full_haze(self):
        model = HazyCentralSpin(24, 0.8, 3.0, HazyParams(LN2))
        for m in (1, 5, 12):
            assert self.classical_part(model, m) == pytest.approx(0.0, abs=1e-10)

    def test_classical_term_positive_en_route(self):
        model = HazyCentralSpin(24, 0.8, 3.0, HazyParams(0.5 * LN2))
        assert self.classical_part(model, 6) > 0.01

    def test_haze_suppresses_information(self):
        kwargs = dict(n=40, coupling=0.6, t=4.0)
        crisp = HazyCentralSpin(haze=HazyParams(0.0), **kwargs)
        hazy = HazyCentralSpin(haze=HazyParams(0.9 * LN2), **kwargs)
        assert hazy.mutual_info(4) < 0.5 * crisp.mutual_info(4)

    def test_mutual_info_monotone_in_fragment_size(self):
        model = HazyCentralSpin(30, 0.7, 2.0, HazyParams(0.4 * LN2))
        vals = [model.mutual_info(m) for m in range(0, 15, 2)]
        assert all(b >= a - 1e-10 for a, b in zip(vals, vals[1:]))

    def test_large_bath_runs_fast(self):
        model = HazyCentralSpin(128, 0.9, 6.0, HazyParams(0.5 * LN2))
        i = model.mutual_info(64)
        assert 0.0 < i <= model.system_entropy() + 1e-9


def _branch_site_states(model: HazyCentralSpin) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """x = u0 rho u0^dagger, y = u1 rho u1^dagger and u0 rho u1^dagger, rebuilt from the
    model's parameters rather than read from the model."""
    q = model.q
    plus = np.outer(PLUS, PLUS.conj())
    rho_mix = q * plus + (1 - q) * (np.eye(2) - plus)
    phase = np.exp(-1j * model.coupling * model.t * np.array([1.0, -1.0]))
    u0, u1 = np.diag(phase), np.diag(phase.conj())
    return u0 @ rho_mix @ u0.conj().T, u1 @ rho_mix @ u1.conj().T, u0 @ rho_mix @ u1.conj().T


def _literal_sector_entropies(model: HazyCentralSpin, m: int) -> tuple[float, float]:
    """H_F and H_SF as a literal sum over spin sectors of the lifted blocks.

    Every sector lifts x, y and u0 rho u1^dagger with sector_block and
    solves the fragment block and the 2(2j + 1) joint block outright.
    """
    x, y, m01 = _branch_site_states(model)
    p = np.abs(model.amps) ** 2
    gamma = model.amps[0] * np.conj(model.amps[1]) * model.g ** (model.n - m)

    def entropy(block):
        lam = np.linalg.eigvalsh(0.5 * (block + block.conj().T))
        lam = lam[lam > 0]
        return float(-np.sum(lam * np.log(lam)))

    h_f = h_sf = 0.0
    for j in sector_label_range(m):
        bx, by, bm = (sector_block(a, m, j) for a in (x, y, m01))
        joint = np.block([[p[0] * bx, gamma * bm],
                          [np.conj(gamma) * bm.conj().T, p[1] * by]])
        mult = sector_multiplicity(m, j)
        h_f += mult * entropy(p[0] * bx + p[1] * by)
        h_sf += mult * entropy(joint)
    return h_f, h_sf


class TestHazyFastPath:
    """Per-degree fragment spectra and the closed-form joint entropy."""

    @pytest.mark.parametrize("h", [0.0, 0.5 * LN2, LN2])
    @pytest.mark.parametrize("n", [64, 128])
    def test_matches_literal_sector_sum(self, n, h):
        model = HazyCentralSpin(n, 0.3, 0.5, HazyParams(h), system_init=(0.6, 0.8))
        for m in (1, n // 4, n // 2 - 1, n // 2):
            h_f, h_sf = _literal_sector_entropies(model, m)
            assert model.fragment_entropy(m) == pytest.approx(h_f, abs=1e-10)
            assert model.joint_entropy(m) == pytest.approx(h_sf, abs=1e-10)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("system_init", [(HALF, HALF), (0.6, 0.8)])
    @pytest.mark.parametrize("h", [0.0, 0.5 * LN2, 0.99 * LN2, LN2])
    @pytest.mark.parametrize("n", [64, 256])
    def test_moment_form_matches_eigenvalue_sum(self, n, h, system_init):
        """fragment_entropy from the per-degree moments A_d, B_d against the
        sum over every eigenvalue of every sector, c^k lam ln(c^k lam), at
        every size. At h = 0 (c = 0) neither side may warn."""
        model = HazyCentralSpin(n, 0.3, 0.5, HazyParams(h), system_init=system_init)
        eigs, solve = {}, model._eigs_of_degree

        def recorded(d):  # the oracle sums the very spectra the moments came from
            eigs[d] = solve(d)
            return eigs[d]

        model._eigs_of_degree = recorded
        fast = [model.fragment_entropy(m) for m in range(n + 1)]
        assert sorted(eigs) == list(range(n + 1))
        c = model.q * (1.0 - model.q)
        for m in range(n + 1):
            h_f = 0.0
            for d in range(m % 2, m + 1, 2):
                lam = c ** ((m - d) // 2) * eigs[d]
                xlogx = lam * np.log(np.where(lam > 0.0, lam, 1.0))
                h_f += sector_multiplicity(m, d / 2.0) * float(-np.sum(xlogx))
            assert fast[m] == pytest.approx(h_f, rel=0.0, abs=1e-12)

    def test_system_entropy_solved_once_per_scan(self, monkeypatch):
        sizes = []
        decohered_entropy = HazyCentralSpin.decohered_entropy

        def counted_decohered(model, k):
            sizes.append(k)
            return decohered_entropy(model, k)

        monkeypatch.setattr(HazyCentralSpin, "decohered_entropy", counted_decohered)
        # nothing crosses: the scan reads H_S against every size m = 1 ... 31
        hazy_redundancy(CentralSpinParams(np.full(64, 0.01), t=0.1), HazyParams(0.4 * LN2))
        assert sizes.count(64) <= 1
        assert 64 - 31 in sizes

    def test_one_spectrum_per_degree(self, monkeypatch):
        steps, solved = [], []
        step, eigs_of_degree = spinmodels._sym_step, HazyCentralSpin._eigs_of_degree

        def counted_step(a, lift):
            steps.append((len(lift), np.array(a)))
            return step(a, lift)

        def counted_eigs(model, d):
            solved.append(d)
            return eigs_of_degree(model, d)

        monkeypatch.setattr(spinmodels, "_sym_step", counted_step)
        monkeypatch.setattr(HazyCentralSpin, "_eigs_of_degree", counted_eigs)
        # barely-entangling couplings: nothing crosses, so the scan runs
        # through every sub-half size m = 1 ... 31
        base = CentralSpinParams(np.full(64, 0.01), t=0.1)
        hazy_redundancy(base, HazyParams(0.4 * LN2))
        # one solve and at most one lift step per degree, always of rho_mix
        assert sorted(solved) == list(range(32))
        assert len(steps) <= 32 and max(d for d, _ in steps) == 31
        rho_mix = HazyCentralSpin(64, 0.01, 0.1, HazyParams(0.4 * LN2)).rho_mix
        assert all(np.array_equal(a, rho_mix) for _, a in steps)

        model = HazyCentralSpin(64, 0.3, 0.5, HazyParams(0.4 * LN2))
        steps.clear(), solved.clear()
        first = [model.mutual_info(m) for m in (1, 7, 20, 31)]
        assert len(solved) == len(set(solved))
        assert all(np.array_equal(a, model.rho_mix) for _, a in steps)
        # repeat calls hit the cache: no step, no new solve
        n_steps, n_solved = len(steps), len(solved)
        again = [model.mutual_info(m) for m in (31, 20, 7, 1)]
        assert len(steps) == n_steps and len(solved) == n_solved
        assert again == first[::-1]

    @pytest.mark.parametrize("t", [0.5, 6.0])
    @pytest.mark.parametrize("h", [0.0, 0.5 * LN2, 0.99 * LN2, LN2])
    @pytest.mark.parametrize("system_init", [(HALF, HALF), (0.6, 0.8)])
    def test_degree_spectra_match_complex_solve(self, system_init, h, t):
        """The real (and, at p0 = p1, split) solve against the complex
        Hermitian solve of B = (Sym^d rho_mix) o Phi_d, every d = 0 ... 129,
        with Sym^d rho_mix climbed here from parameters of the model."""
        model = HazyCentralSpin(130, 0.3, t, HazyParams(h), system_init=system_init)
        plus = np.outer(PLUS, PLUS.conj())
        rho_mix = (model.q * plus + (1 - model.q) * (np.eye(2) - plus)).real
        p = np.abs(np.asarray(system_init)) ** 2
        lift = np.ones((1, 1))
        for d in range(130):
            if d:
                lift = spinmodels._sym_step(rho_mix, lift)
            r = np.arange(d + 1)
            phase = np.exp(2j * 0.3 * t * np.subtract.outer(r, r))
            oracle = np.clip(np.linalg.eigvalsh(lift * (p[0] * phase + p[1] * phase.conj())),
                             0.0, None)
            lam = model._eigs_of_degree(d)
            assert lam.shape == (d + 1,) and np.all(np.diff(lam) >= 0.0)
            np.testing.assert_allclose(lam, oracle, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("system_init", [(HALF, HALF), (0.6, 0.8)])
    def test_no_complex_eigensolve_in_a_scan(self, monkeypatch, system_init):
        dtypes = []
        eigvalsh = np.linalg.eigvalsh

        def recorded(a):
            dtypes.append(np.asarray(a).dtype)
            return eigvalsh(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", recorded)
        base = CentralSpinParams(np.full(64, 0.01), t=0.1, system_init=system_init)
        hazy_redundancy(base, HazyParams(0.4 * LN2))
        assert dtypes and all(dt == np.float64 for dt in dtypes)

    def test_equal_branches_split_each_degree_in_half(self, monkeypatch):
        """At p0 = p1 each degree takes two solves, of sizes ceil((d + 1)/2)
        and floor((d + 1)/2); otherwise one, of size d + 1."""
        sizes = []
        eigvalsh = np.linalg.eigvalsh

        def recorded(a):
            sizes.append(len(a))
            return eigvalsh(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", recorded)
        for system_init in ((HALF, HALF), (0.6, 0.8)):
            model = HazyCentralSpin(40, 0.3, 0.5, HazyParams(0.3), system_init=system_init)
            for d in range(41):
                sizes.clear()
                model._eigs_of_degree(d)
                if system_init[0] == system_init[1]:
                    assert sorted(sizes) == [(d + 1) // 2, (d + 2) // 2]
                else:
                    assert sizes == [d + 1]

    @pytest.mark.parametrize("t", [0.5, 6.0])
    @pytest.mark.parametrize("system_init", [(HALF, HALF), (0.6, 0.8)])
    @pytest.mark.parametrize("h", [0.0, 0.5 * LN2, LN2])
    def test_degree_spectra_match_two_lift_sum(self, h, system_init, t):
        """The phase-kernel block (Sym^d rho_mix) o Phi_d against the two-lift
        sum p0 Sym^d x + p1 Sym^d y it stands for, spectrum by spectrum.

        Blind to a flipped sign of Phi_d's exponent: Sym^d rho_mix is real,
        so the flip turns the Hermitian block into its complex conjugate,
        which has the same spectrum; no entropy can tell the two apart.
        """
        model = HazyCentralSpin(128, 0.3, t, HazyParams(h), system_init=system_init)
        x, y, _ = _branch_site_states(model)
        p = np.abs(model.amps) ** 2
        for d in (0, 1, 2, 7, 31, 64, 128):
            block = p[0] * sym_power(x, d) + p[1] * sym_power(y, d)
            lam = np.clip(np.linalg.eigvalsh(0.5 * (block + block.conj().T)), 0.0, None)
            np.testing.assert_allclose(model._eigs_of_degree(d), lam, rtol=0.0, atol=1e-12)

    def test_decohered_entropy_endpoints(self):
        model = HazyCentralSpin(12, 0.3, 0.5, HazyParams(0.2), system_init=(0.6, 0.8))
        assert model.decohered_entropy(0) == pytest.approx(0.0, abs=1e-12)
        assert model.joint_entropy(0) == model.system_entropy()

    @pytest.mark.parametrize("method", ["decohered_entropy", "fragment_entropy",
                                        "joint_entropy", "mutual_info"])
    def test_one_size_range(self, method):
        """Sizes 0 ... n are accepted and every other size raises (n = 8)."""
        of_size = getattr(HazyCentralSpin(8, 0.3, 0.5, HazyParams(0.3)), method)
        assert all(np.isfinite(of_size(m)) for m in (0, 8))
        for m in (-3, -1, 9, 12):
            with pytest.raises(ValueError, match="out of range"):
                of_size(m)


def _fraction_weights(m: int, c: float) -> np.ndarray:
    """mult(m, d) c^k in exact rational arithmetic, rounded once, for
    d = m % 2, m % 2 + 2, ..., m (k = (m - d)/2)."""
    ck, out = Fraction(1), []
    for k in range(m // 2 + 1):
        mult = math.comb(m, k) - (math.comb(m, k - 1) if k else 0)
        out.append(float(mult * ck))
        ck *= Fraction(c)
    return np.array(out[::-1])


class TestSectorWeights:
    """The weights mult(m, d) c^k of the moment form, with no eigensolve:
    from m = 1035 the multiplicities alone pass the largest float."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("c", [0.0, 0.09, 0.25])
    @pytest.mark.parametrize("m", [1, 64, 999, 1034, 1035, 3000])
    def test_match_fraction_arithmetic(self, m, c):
        """Within 1e-15 of exact arithmetic, also where the multiplicity or
        c^k alone is out of the float range."""
        w = spinmodels._sector_weights(m, c)
        assert w.shape == (m // 2 + 1,) and np.all(np.isfinite(w))
        np.testing.assert_allclose(w, _fraction_weights(m, c), rtol=1e-15, atol=1e-300)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("c", [0.0, 0.09, 0.25])
    @pytest.mark.parametrize("m", [1, 64, 1034, 1035, 3000])
    def test_trace_identity(self, m, c):
        """sum_d w_d h_d(q, 1 - q) = tr rho^(x m) = 1, with c = q(1 - q) and
        h_d(q, 1 - q) = sum_j q^(d - j) (1 - q)^j the trace of Sym^d rho."""
        q = 0.5 * (1.0 + math.sqrt(1.0 - 4.0 * c))
        h = [1.0]
        for d in range(1, m + 1):
            h.append(q * h[-1] + (1.0 - q) ** d)
        w = spinmodels._sector_weights(m, c)
        assert float(np.sum(w * np.array(h[m % 2::2]))) == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("m, c", [(1, 0.09), (64, 0.09), (64, 0.2), (255, 0.09),
                                      (255, 0.2), (255, 0.25), (999, 0.25)])
    def test_plain_float_product_where_it_is_finite(self, m, c):
        """Where float(mult) and c**k are normal floats, the mantissa form
        gives their product's bits: scaling by powers of two is exact."""
        k = np.arange(m // 2, -1, -1)
        mult = [math.comb(m, i) - (math.comb(m, i - 1) if i else 0) for i in k.tolist()]
        want = np.array(mult, dtype=float) * c ** k
        assert spinmodels._sector_weights(m, c).tobytes() == want.tobytes()

    def test_crisp_bath_keeps_only_the_top_degree(self):
        assert spinmodels._sector_weights(7, 0.0).tolist() == [0.0, 0.0, 0.0, 1.0]


class TestHazyRedundancy:
    def test_scales_down_with_haze(self):
        # per-site overlap cos(0.6), so the crossing sits a few qubits deep
        base = CentralSpinParams(np.full(64, 0.3), t=1.0)
        r0 = hazy_redundancy(base, HazyParams(0.0))
        r_half = hazy_redundancy(base, HazyParams(0.5 * LN2))
        assert r0 > r_half > 1.0
        ratio = r_half / r0
        assert 0.3 < ratio < 0.7

    def test_unreachable_plateau_reports_below_one(self):
        # barely-entangling couplings cannot reach (1 - delta) H_S
        base = CentralSpinParams(np.full(16, 0.01), t=0.1)
        r = hazy_redundancy(base, HazyParams(0.0))
        assert 0.0 < r < 1.0

    def test_half_size_not_scanned(self):
        # n = 16: the scan ends at m = 7, strictly below half
        base = CentralSpinParams(np.full(16, 0.01), t=0.1)
        model = HazyCentralSpin(16, 0.01, 0.1, HazyParams(0.0))
        threshold = (1.0 - 0.1) * model.system_entropy()
        r = hazy_redundancy(base, HazyParams(0.0))
        assert r == pytest.approx(model.mutual_info(7) / threshold, rel=1e-12)
        assert model.mutual_info(8) / threshold > r * (1 + 1e-6)

    @pytest.mark.parametrize("n, coupling, t, scanned",
                             [(16, 0.01, 0.1, 7), (15, 0.01, 0.1, 7), (64, 0.3, 1.0, 6)])
    def test_scans_sizes_lazily(self, monkeypatch, n, coupling, t, scanned):
        # sizes 1, 2, ... up to the first crossing, never the half or past it
        seen = []

        class Recorded(HazyCentralSpin):
            def mutual_info(self, m):
                seen.append(m)
                return super().mutual_info(m)

        monkeypatch.setattr(spinmodels, "HazyCentralSpin", Recorded)
        hazy_redundancy(CentralSpinParams(np.full(n, coupling), t=t), HazyParams(0.0))
        assert seen == list(range(1, scanned + 1))

    @pytest.mark.parametrize("n", [1, 2])
    def test_no_sub_half_fragment_rejected(self, n):
        base = CentralSpinParams(np.full(n, 0.3), t=1.0)
        with pytest.raises(ValueError):
            hazy_redundancy(base, HazyParams(0.0))

    @pytest.mark.parametrize("delta", [0.0, 1.0, 1.5])
    def test_delta_domain(self, delta):
        base = CentralSpinParams(np.full(20, 0.3), t=1.0)
        with pytest.raises(ValueError):
            hazy_redundancy(base, HazyParams(0.0), delta=delta)

    def test_requires_equal_couplings(self):
        for couplings in ([0.5, 0.6], [0.3] * 7 + [np.nextafter(0.3, 1.0)],
                          [np.nextafter(0.3, 0.0)] + [0.3] * 7):
            base = CentralSpinParams(np.array(couplings), t=1.0)
            with pytest.raises(ValueError, match="equal couplings"):
                hazy_redundancy(base, HazyParams(0.0))

    @pytest.mark.parametrize("env_init", [[1.0, 0.0], [0.6, 0.8], PLUS])
    def test_rejects_a_bath_start(self, env_init):
        # the hazy bath starts at its own haze over |+>; a given bath start,
        # even |+>, would be read as that haze and dropped
        base = CentralSpinParams(np.full(16, 0.5), t=0.5, env_init=np.asarray(env_init))
        with pytest.raises(ValueError, match="env_init"):
            hazy_redundancy(base, HazyParams(0.3))

    def test_equal_couplings_pass_one_float(self, monkeypatch):
        seen = []

        class Recorded(HazyCentralSpin):
            def __init__(self, n, coupling, *args):
                seen.append(coupling)
                super().__init__(n, coupling, *args)

        monkeypatch.setattr(spinmodels, "HazyCentralSpin", Recorded)
        hazy_redundancy(CentralSpinParams(np.full(8, 0.3), t=1.0), HazyParams(0.0))
        assert len(seen) == 1 and type(seen[0]) is float and seen[0] == 0.3
