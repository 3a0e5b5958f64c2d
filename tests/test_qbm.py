import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from darwinlab import darwin, qbm
from darwinlab.darwin import GaussianSource, _draw_rows
from darwinlab.numeric import CapExceeded
from darwinlab.qbm import (
    GaussianState,
    OhmicBathParams,
    _omega_times,
    _symplectic_form,
    gaussian_entropy,
    qbm_evolve,
    qbm_generator,
    qbm_redundancy,
    squeezed_start,
    symplectic_area,
    universal_pip,
)
from helpers import assert_matches_lone_rows, force_lanes

# small bath for unit tests; acceptance uses the full figure-scale setup
BATH = OhmicBathParams(bands=64)
EPS = np.finfo(float).eps


def one_fragment_info(state, bands):
    """I(S : bands) of one fragment, through the sources' one-row wrapper."""
    return GaussianSource(state).fragment_mutual_info(bands)


def mutual_info_many(state, idx):
    """I(S : F) of every row of idx, through the sources' one entry."""
    return GaussianSource(state).fragment_mutual_info_many(idx)


def complex_route_nus(cov):
    """Oracle: symplectic eigenvalues from the Hermitian eigvalsh of i K,
    K = L^T Omega L; its spectrum is +-nu, so the upper half is nu."""
    l = np.linalg.cholesky(cov)
    eigs = np.linalg.eigvalsh(1j * (l.T @ _omega_times(l)))
    return eigs[len(eigs) // 2:]


def nu_squared_tol(dim, nu_max):
    """Stated error rule of the real route: absolute error in nu^2 of about
    eps * nu_max^2, with a modest factor for the dimension."""
    return 64 * dim * EPS * nu_max ** 2


class TestSymplecticArea:
    def test_vacuum(self):
        assert symplectic_area(np.diag([0.5, 0.5])) == pytest.approx(1.0)

    def test_squeezed_pure(self):
        s = 37.0
        assert symplectic_area(np.diag([s / 2, 1 / (2 * s)])) == pytest.approx(1.0)

    def test_thermal(self):
        assert symplectic_area(np.diag([1.0, 1.0])) == pytest.approx(2.0)

    def test_below_vacuum_rejected(self):
        with pytest.raises(ValueError):
            symplectic_area(np.diag([0.1, 0.1]))


class TestGaussianEntropy:
    def test_vacuum_zero(self):
        assert gaussian_entropy(1.0) == 0.0

    def test_literal_formula(self):
        a = 3.0
        expect = 0.5 * (4 * math.log(4.0) - 2 * math.log(2.0)) - math.log(2.0)
        assert gaussian_entropy(a) == pytest.approx(expect, abs=1e-15)

    def test_log_approximation_at_large_area(self):
        for a in (4.0, 10.0, 1e4):
            approx = math.log(math.e * a / 2.0)
            assert gaussian_entropy(a) == pytest.approx(approx, rel=0.01)

    def test_log_approximation_error_shrinks(self):
        errs = [abs(gaussian_entropy(a) - math.log(math.e * a / 2.0))
                for a in (2.0, 3.0, 5.0, 9.0)]
        assert all(b < a for a, b in zip(errs, errs[1:]))

    def test_below_one_rejected(self):
        with pytest.raises(ValueError):
            gaussian_entropy(0.9)


class TestGaussianState:
    def test_vacuum_valid(self):
        GaussianState(np.zeros(4), 0.5 * np.eye(4))

    def test_sub_vacuum_rejected(self):
        with pytest.raises(ValueError):
            GaussianState(np.zeros(2), 0.25 * np.eye(2))

    def test_asymmetric_rejected(self):
        cov = 0.5 * np.eye(2)
        cov[0, 1] = 0.3
        with pytest.raises(ValueError):
            GaussianState(np.zeros(2), cov)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            GaussianState(np.zeros(4), 0.5 * np.eye(2))
        with pytest.raises(ValueError):
            GaussianState(np.zeros(3), 0.5 * np.eye(3))

    def test_thermal_entropy(self):
        st = GaussianState(np.zeros(2), np.eye(2))
        assert st.entropy() == pytest.approx(gaussian_entropy(2.0))

    def test_marginal_picks_modes(self):
        cov = 0.5 * np.eye(6)
        cov[0, 0] = 2.0
        st = GaussianState(np.zeros(6), cov)
        sub = st.marginal([1, 2])
        assert sub.cov.shape == (4, 4)
        assert np.allclose(sub.cov, 0.5 * np.eye(4))


class TestValidateOnce:
    """Marginals skip re-validation; H_S is solved once per source, and
    fragments share one stacked solve per side."""

    def setup_method(self):
        self.state = qbm_evolve(OhmicBathParams(bands=16), 1000.0, "x", 3.0)

    def test_marginal_matches_validated_block(self):
        modes = [9, 0, 3, 4, 16]
        rows = np.ravel([[2 * k, 2 * k + 1] for k in sorted(modes)])
        fresh = GaussianState(self.state.means[rows],
                              self.state.cov[np.ix_(rows, rows)])
        sub = self.state.marginal(modes)
        assert np.array_equal(sub.means, fresh.means)
        assert np.array_equal(sub.cov, fresh.cov)
        assert sub.entropy() == fresh.entropy()

    def test_marginal_rejects_bad_modes(self):
        for modes in ([0, 0], [17], [-1, 2]):
            with pytest.raises(ValueError):
                self.state.marginal(modes)

    def test_entropy_still_rejects_singular_block(self):
        with pytest.raises(ValueError):
            GaussianState._unchecked(np.zeros(2), np.zeros((2, 2))).entropy()

    def test_omega_by_slicing(self):
        rng = np.random.default_rng(5)
        factors = [np.linalg.cholesky(self.state.cov),
                   np.tril(rng.normal(size=(6, 6)))]
        for l in factors:
            n = len(l) // 2
            want = l.T @ _symplectic_form(n) @ l
            got = l.T @ _omega_times(l)
            # relative to the size of the products each entry sums, which
            # cancel from ~s^2/2 down to ~1/2 for the squeezed state
            scale = np.abs(l.T) @ np.abs(l)
            assert np.all(np.abs(got - want) <= 1e-12 * scale)

    def test_system_block_solved_once_per_state(self, monkeypatch):
        # H_S is kept by the state's source
        shapes, slabs = [], []
        solve, solve_slab = qbm._symplectic_spectrum, qbm._slab_spectra

        def counted(l):
            shapes.append(l.shape)
            return solve(l)

        def counted_slab(cov, idx):
            slabs.append(idx.shape)
            return solve_slab(cov, idx)

        monkeypatch.setattr(qbm, "_symplectic_spectrum", counted)
        monkeypatch.setattr(qbm, "_slab_spectra", counted_slab)
        frags = [[0, 1], [2, 5, 7], list(range(8)), [15, 3], [2, 5, 7]]
        src = GaussianSource(self.state)
        first = src.fragment_mutual_info(frags[0])
        assert shapes == [(2, 2)]
        for frag in frags[1:]:
            src.fragment_mutual_info(frag)
        # one slab per call solves both sides; the 2x2 block is never re-solved
        assert slabs == [(1, len(frag)) for frag in frags]
        assert src.fragment_mutual_info(frags[0]) == first
        assert shapes == [(2, 2)]

    def test_two_full_state_solves_per_source(self, monkeypatch):
        """Start and evolved state are solved once each, when validated;
        GaussianSource reads the evolved state's kept spectrum."""
        shapes = []
        solve = GaussianState.symplectic_eigenvalues

        def counted(st):
            shapes.append(st.cov.shape)
            return solve(st)

        monkeypatch.setattr(GaussianState, "symplectic_eigenvalues", counted)
        bath = OhmicBathParams(bands=16)
        src = GaussianSource(qbm_evolve(bath, 1000.0, "x", 3.0))
        assert shapes == [(34, 34), (34, 34)]
        assert np.array_equal(src.state._nus, solve(src.state))
        assert src.pure_global
        # an unchecked state has no kept spectrum and is solved on demand
        sub = GaussianSource(src.state.marginal(range(5)))
        assert shapes[2:] == [(10, 10)] and not sub.pure_global


class TestRealSymplecticKernel:
    """The real route, eigvalsh of K^T K, against the complex one."""

    def assert_matches_oracle(self, st):
        got = st.symplectic_eigenvalues()
        want = complex_route_nus(st.cov)
        assert got.shape == (st.n_modes,)
        assert np.all(np.diff(got) >= 0.0)
        tol = nu_squared_tol(len(st.cov), want[-1])
        assert np.max(np.abs(got ** 2 - want ** 2)) <= tol

    def test_random_valid_covariances(self):
        # Williamson form S diag(nu, nu) S^T with a random symplectic S
        rng = np.random.default_rng(11)
        for n in (1, 2, 3, 5, 8):
            h = rng.normal(size=(2 * n, 2 * n))
            s = expm(0.5 * _symplectic_form(n) @ (h + h.T))
            nus = np.sort(rng.uniform(0.5, 40.0, n))
            cov = s @ np.diag(np.repeat(nus, 2)) @ s.T
            st = GaussianState(np.zeros(2 * n), 0.5 * (cov + cov.T))
            self.assert_matches_oracle(st)
            assert np.allclose(st.symplectic_eigenvalues(), nus, rtol=1e-8)

    def test_qbm_fragments_at_128_bands(self):
        st = qbm_evolve(OhmicBathParams(bands=128), 1e3, "x", 3.0)
        rng = np.random.default_rng(3)
        for _ in range(20):
            bands = rng.choice(128, int(rng.integers(3, 13)), replace=False) + 1
            for modes in (list(bands), [0] + list(bands)):
                sub = st.marginal(modes)
                self.assert_matches_oracle(sub)
                want = sum(gaussian_entropy(max(2.0 * nu, 1.0))
                           for nu in complex_route_nus(sub.cov))
                assert sub.entropy() == pytest.approx(want, abs=1e-9)

    def test_single_mode_is_root_determinant(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            a, b = rng.uniform(0.5, 30.0, 2)
            c = rng.uniform(-1.0, 1.0) * math.sqrt(a * b - 0.25)
            cov = np.array([[a, c], [c, b]])
            nu = GaussianState(np.zeros(2), cov).symplectic_eigenvalues()
            assert nu[0] == pytest.approx(math.sqrt(np.linalg.det(cov)), rel=1e-12)

    def test_two_mode_squeezed_vacuum(self):
        z = np.diag([1.0, -1.0])
        for r in (0.1, 1.0, 3.0):
            ch, sh = math.cosh(2 * r), math.sinh(2 * r)
            cov = 0.5 * np.block([[ch * np.eye(2), sh * z], [sh * z, ch * np.eye(2)]])
            st = GaussianState(np.zeros(4), cov)
            tol = nu_squared_tol(4, ch / 2)
            assert np.all(np.abs(st.symplectic_eigenvalues() ** 2 - 0.25) <= tol)
            for mode in (0, 1):
                nu = st.marginal([mode]).symplectic_eigenvalues()
                assert nu[0] == pytest.approx(ch / 2, rel=1e-14)

    def test_vacuum_next_to_hot_mode(self):
        # a nu = 10^3 thermal mode beside vacuum, plain and through a beam
        # splitter: the vacuum nu is only as good as eps * nu_max^2 allows
        th = 0.3
        c, s = math.cos(th), math.sin(th)
        mix = np.array([[c, 0, s, 0], [0, c, 0, s], [-s, 0, c, 0], [0, -s, 0, c]])
        product = np.diag([1e3, 1e3, 0.5, 0.5])
        for cov in (product, mix @ product @ mix.T):
            nu = GaussianState(np.zeros(4), cov).symplectic_eigenvalues()
            assert abs(nu[0] ** 2 - 0.25) <= nu_squared_tol(4, 1e3)
            assert nu[1] == pytest.approx(1e3, rel=1e-13)

    def test_entropy_is_the_scalar_sum(self):
        st = qbm_evolve(OhmicBathParams(bands=32), 1e3, "x", 3.0)
        rng = np.random.default_rng(2)
        for _ in range(10):
            modes = [0] + list(rng.choice(32, 6, replace=False) + 1)
            sub = st.marginal(modes)
            want = sum(gaussian_entropy(max(2.0 * nu, 1.0))
                       for nu in sub.symplectic_eigenvalues())
            assert abs(sub.entropy() - want) <= 1e-13
        vacuum = GaussianState(np.zeros(4), 0.5 * np.eye(4))
        assert vacuum.entropy() == pytest.approx(0.0, abs=1e-13)


class TestBathParams:
    def test_band_grid(self):
        b = OhmicBathParams(bands=4, cutoff=16.0)
        assert np.allclose(b.band_freqs, [2.0, 6.0, 10.0, 14.0])
        assert b.recurrence_time == pytest.approx(2 * math.pi / 4.0)

    def test_band_cap(self):
        with pytest.raises(CapExceeded):
            OhmicBathParams(bands=1024)

    def test_coupling_normalization(self):
        # in vacuum units c_n^2 / omega_n = 4 gamma0 d_omega / (pi omega_S) per
        # band, so the bands sum to the ohmic measure 4 gamma0 cutoff / (pi omega_S)
        b = OhmicBathParams(bands=128)
        total = np.sum(b.scaled_couplings() ** 2 / b.band_freqs)
        assert total == pytest.approx(4 * b.damping * b.cutoff / (math.pi * b.system_freq))


class TestEvolution:
    def test_decoupled_system_stays_pure_and_rotates(self):
        b = OhmicBathParams(bands=8, damping=0.0)
        s = 25.0
        for t in (0.3, 1.0, 2.7):
            st = qbm_evolve(b, s, "x", t)
            block = st.marginal([0]).cov
            assert symplectic_area(block) == pytest.approx(1.0, abs=1e-9)
            th = b.system_freq * t
            expect_xx = (math.cos(th) ** 2 / s ** 2 + math.sin(th) ** 2 * s ** 2) / 2
            assert block[0, 0] == pytest.approx(expect_xx, rel=1e-9)

    def test_generator_matches_ode_integration(self):
        b = OhmicBathParams(bands=3, system_freq=1.5, damping=0.1, cutoff=4.0)
        start = squeezed_start(b, 5.0, "p")
        k = qbm_generator(b)
        def rhs(_, y):
            d = y.reshape(start.cov.shape)
            return (k @ d + d @ k.T).ravel()
        sol = solve_ivp(rhs, (0.0, 2.0), start.cov.ravel(), rtol=1e-10, atol=1e-12)
        final = qbm_evolve(b, 5.0, "p", 2.0)
        assert np.allclose(final.cov, sol.y[:, -1].reshape(start.cov.shape), atol=1e-7)

    def test_flow_is_symplectic(self):
        b = OhmicBathParams(bands=32)
        s = expm(4.0 * qbm_generator(b))
        omega = _symplectic_form(b.bands + 1)
        assert np.allclose(s @ omega @ s.T, omega, atol=1e-9)

    def test_global_purity_preserved(self):
        from darwinlab.qbm import evolved_purity_defect
        assert evolved_purity_defect(BATH, 1000.0, "x", 4.0) < 1e-6
        # re-extracting nu from the dense covariance is scale-limited
        st = qbm_evolve(BATH, 1000.0, "x", 4.0)
        assert np.max(np.abs(st.symplectic_eigenvalues() - 0.5)) < 5e-5

    def test_past_recurrence_warns(self):
        b = OhmicBathParams(bands=4)
        with pytest.warns(UserWarning):
            qbm_evolve(b, 10.0, "x", 100.0)

    def test_p_squeezed_decoheres_much_faster(self):
        t_early = 0.05
        h_p = qbm_evolve(BATH, 1000.0, "p", t_early).marginal([0]).entropy()
        h_x = qbm_evolve(BATH, 1000.0, "x", t_early).marginal([0]).entropy()
        assert h_p > h_x + 1.5

    def test_decohered_entropy_near_log_squeeze(self):
        st = qbm_evolve(BATH, 1000.0, "x", 5.0)
        h_s = st.marginal([0]).entropy()
        assert h_s == pytest.approx(math.log(1000.0), rel=0.1)


class TestMutualInfo:
    def setup_method(self):
        self.state = qbm_evolve(BATH, 1000.0, "x", 4.0)

    def test_empty_fragment(self):
        assert one_fragment_info(self.state, []) == 0.0

    def test_all_bands_give_twice_entropy(self):
        h_s = self.state.marginal([0]).entropy()
        i_all = one_fragment_info(self.state, range(BATH.bands))
        assert i_all == pytest.approx(2 * h_s, abs=1e-6)

    def test_complement_antisymmetry(self):
        rng = np.random.default_rng(9)
        h_s = self.state.marginal([0]).entropy()
        half = set(map(int, rng.choice(BATH.bands, BATH.bands // 2, replace=False)))
        rest = set(range(BATH.bands)) - half
        total = one_fragment_info(self.state, half) + one_fragment_info(self.state, rest)
        assert total == pytest.approx(2 * h_s, abs=1e-6)

    def test_universal_shape_midrange(self):
        # mirrored complement pairs cancel the pure-state antisymmetry error
        rng = np.random.default_rng(4)
        h_s = self.state.marginal([0]).entropy()
        n = BATH.bands
        for f in (0.25, 0.5, 0.75):
            m = round(f * n)
            vals = []
            for _ in range(12):
                sub = rng.choice(n, m, replace=False)
                comp = np.setdiff1d(np.arange(n), sub)
                vals.append(one_fragment_info(self.state, map(int, sub)))
                vals.append(2 * h_s - one_fragment_info(self.state, map(int, comp)))
            # 64 bands is coarse; the figure-scale bath is held to 0.1 nats
            # in the acceptance suite
            assert np.mean(vals) == pytest.approx(universal_pip(h_s, m / n), abs=0.3)

    def test_out_of_range_band(self):
        with pytest.raises(ValueError):
            one_fragment_info(self.state, [BATH.bands])

    def test_repeated_band(self):
        with pytest.raises(ValueError):
            one_fragment_info(self.state, [2, 5, 2])

    def test_bad_rows_rejected(self):
        for idx in ([[2, 1]], [[3, 3]], [[0, BATH.bands]], [[-1, 4]], [1, 2]):
            with pytest.raises(ValueError):
                mutual_info_many(self.state, np.array(idx, dtype=np.intp))

    def test_empty_rows(self):
        got = mutual_info_many(self.state, np.zeros((3, 0), dtype=np.intp))
        assert got.tolist() == [0.0, 0.0, 0.0]

    def test_zero_rows(self):
        got = mutual_info_many(self.state, np.zeros((0, 3), dtype=np.intp))
        assert got.shape == (0,)

    def test_slabs_match_single_rows(self):
        # more rows than one slab holds: every row still gets the bytes of a
        # lone call
        rng = np.random.default_rng(13)
        for m in (1, 5, 32):
            count = max(qbm._SLAB_ROWS, qbm._SLAB_ELEMS // (2 * m + 2) ** 2) + 1
            idx = np.array([np.sort(rng.choice(BATH.bands, m, replace=False))
                            for _ in range(count)], dtype=np.intp)
            got = mutual_info_many(self.state, idx)
            assert got.tolist() == [one_fragment_info(self.state, row) for row in idx.tolist()]

    @pytest.mark.parametrize("m, rows", [
        (64, 6),      # 130 x 130 matrices: the element budget is the floor
        (100, 6),     # larger matrices: the 6-row floor binds
        (5, qbm._SLAB_ELEMS // 12 ** 2),  # small matrices: the element budget binds
        (1, qbm._SLAB_ELEMS // 4 ** 2),
    ])
    def test_slab_rule(self, m, rows):
        assert qbm._SLAB_ELEMS == 6 * 130 ** 2
        assert qbm._slab_rows(m) == rows


def two_cholesky_mutual_info(state, bands):
    """Oracle: H_S + H_F - H_SF for one fragment, with Delta_SF (system
    first) and Delta_F factorized separately."""
    sf = state.marginal([0] + [b + 1 for b in bands])
    h_f = GaussianState._unchecked(sf.means[2:], sf.cov[2:, 2:]).entropy()
    return GaussianSource(state).system_entropy() + h_f - sf.entropy()


class TestStackedKernel:
    def test_matches_two_cholesky_oracle_on_readme_state(self):
        bath = OhmicBathParams()
        state = qbm_evolve(bath, 1e3, "x", 3.0)
        rng = np.random.default_rng(21)
        for m in (1, 2, 32, 64):
            idx = np.array([np.sort(rng.choice(bath.bands, m, replace=False))
                            for _ in range(12)], dtype=np.intp)
            got = mutual_info_many(state, idx)
            want = np.array([two_cholesky_mutual_info(state, row) for row in idx.tolist()])
            assert np.all(np.abs(got - want) <= 1e-9 * np.abs(want))


def sf_covariances(state, idx):
    """The stacked SF covariances of rows idx, mode 0 first, gathered as
    qbm._slab_spectra gathers them."""
    modes = np.concatenate((np.zeros((len(idx), 1), dtype=np.intp), idx + 1), axis=1)
    r = np.stack((2 * modes, 2 * modes + 1), axis=2).reshape(len(idx), -1)
    return state.cov[r[:, :, None], r[:, None, :]]


class TestSharedProduct:
    """H_SF comes from K_F^T K_F updated in place to K_SF^T K_SF: its nu
    against those of a fresh product of the whole factor."""

    @pytest.mark.parametrize("squeezing", [1.0, 1e2, 1e3])
    @pytest.mark.parametrize("direction", ["x", "p"])
    def test_update_matches_full_factor(self, squeezing, direction):
        state = qbm_evolve(OhmicBathParams(), squeezing, direction, 3.0)
        rng = np.random.default_rng(17)
        for m in (1, 2, 32, 64):
            idx = np.array([np.sort(rng.choice(128, m, replace=False))
                            for _ in range(4)], dtype=np.intp)
            covs = sf_covariances(state, idx)
            l = np.linalg.cholesky(covs)
            nu_f, nu_sf = qbm._slab_spectra(state.cov, idx)
            # H_F's spectrum is the plain product of the F rows, bit for bit
            assert np.array_equal(nu_f, qbm._symplectic_spectrum(l[:, 2:]))
            want = qbm._symplectic_spectrum(l)
            assert nu_sf.shape == want.shape == (len(idx), m + 1)
            # module docstring: the fresh product of the whole factor is
            # the further off, up to ~540 eps nu_max^2 from the complex
            # route at squeezing 1e3 along x, where the update stays within
            # ~16, so the two real routes agree within 1024 eps nu_max^2
            nu_max = np.max(want)
            assert np.max(np.abs(nu_sf ** 2 - want ** 2)) <= 1024 * EPS * nu_max ** 2
            for cov, nus in zip(covs, nu_sf):
                oracle = complex_route_nus(cov)
                assert np.max(np.abs(nus ** 2 - oracle ** 2)) <= nu_squared_tol(2 * m + 2, nu_max)


class TestHalfPairs:
    """Half-size complement pairs of the README state. The kernel solves
    every row it is given from its own factorization; a plot's size
    (darwin._size_stats) solves the first row of each pair and mirrors the
    second, I(C) = 2 H_S - I(F)."""

    def setup_method(self):
        self.state = qbm_evolve(OhmicBathParams(), 1e3, "x", 3.0)
        self.rows = _draw_rows(128, 64, 48, np.random.default_rng(23), True)

    def count_slab_rows(self, monkeypatch):
        solved = []
        solve_slab = qbm._slab_spectra
        monkeypatch.setattr(qbm, "_slab_spectra",
                            lambda cov, idx: solved.append(len(idx)) or solve_slab(cov, idx))
        return solved

    def test_readme_state_matches_oracle(self, monkeypatch):
        solved = self.count_slab_rows(monkeypatch)
        got = mutual_info_many(self.state, self.rows)
        assert sum(solved) == len(self.rows)
        want = np.array([two_cholesky_mutual_info(self.state, row)
                         for row in self.rows.tolist()])
        assert np.all(np.abs(got - want) <= 1e-9 * np.abs(want))

    def test_structured_halves_match_oracle(self):
        # the first and last 64 bands: each row is solved alone, so neither
        # takes the other's rounding
        rows = np.array([range(64), range(64, 128)], dtype=np.intp)
        got = mutual_info_many(self.state, rows)
        want = np.array([two_cholesky_mutual_info(self.state, row) for row in rows.tolist()])
        assert np.all(np.abs(got - want) <= 1e-9 * np.abs(want))

    def test_pairs_sum_to_twice_system_entropy(self, monkeypatch):
        solved = self.count_slab_rows(monkeypatch)
        src = GaussianSource(self.state)
        mean, _, samples = darwin._size_stats(src, 64, 48, 23)
        assert sum(solved) == samples // 2 == 24
        # each pair sums to 2 H_S up to the rounding of 2 H_S - v
        assert mean == pytest.approx(src.system_entropy(), rel=1e-14)

    def test_mixed_state_solves_every_row(self, monkeypatch):
        # 16 of the 32 bands: a mixed state, whose complements share nothing
        whole = qbm_evolve(OhmicBathParams(bands=32), 1e3, "x", 3.0)
        mixed = whole.marginal(range(17))
        assert not mixed.is_pure()
        rows = _draw_rows(16, 8, 12, np.random.default_rng(24), True)
        comps = [np.setdiff1d(np.arange(16), r).tolist() for r in rows[0::2]]
        assert rows[1::2].tolist() == comps
        force_lanes(monkeypatch, 1)
        solved = self.count_slab_rows(monkeypatch)
        got = mutual_info_many(mixed, rows)
        assert sum(solved) == len(rows)
        assert_matches_lone_rows(GaussianSource(mixed), rows)
        want = [two_cholesky_mutual_info(mixed, row) for row in rows.tolist()]
        assert np.all(np.abs(got - want) <= 1e-9 * np.abs(want))
        solved.clear()
        counts = [darwin._size_stats(GaussianSource(mixed), m, 12, 0)[2] for m in (16, 8)]
        # the whole bath, one row, and all 12 half-size rows: nothing mirrored
        assert solved == [1, 12] and counts == [1, 12]

    def test_partners_past_position_63_share(self, monkeypatch):
        # the half size of the README state: every complement holds
        # positions past 63 and takes 2 H_S - I of its row, bit for bit;
        # the point's mean is H_S and its stddev that of the pairs' values
        src = GaussianSource(self.state)
        calls = []
        real = src._mutual_info

        def recorded(idx):
            calls.append((idx, real(idx)))
            return calls[-1][1]

        monkeypatch.setattr(src, "_mutual_info", recorded)
        mean, sd, samples = darwin._size_stats(src, 64, 8, 23)
        (idx, vals), = [c for c in calls if c[0].shape[1] == 64]
        rows = darwin._fragment_rows(src, 64, 8, (23, 64), True)
        assert idx.tolist() == rows[0::2].tolist()
        assert np.all(rows[1::2].max(axis=1) > 63)
        want = np.stack((vals, 2.0 * src.system_entropy() - vals), axis=1).ravel()
        assert mean == src.system_entropy()
        assert sd == float(want.std(ddof=1))
        assert samples == 8


class TestFormulas:
    def test_universal_pip_center_and_shift(self):
        assert universal_pip(3.0, 0.5) == pytest.approx(3.0)
        f = math.e ** 2 / (1 + math.e ** 2)
        assert universal_pip(3.0, f) == pytest.approx(4.0, abs=1e-12)

    def test_universal_pip_antisymmetry(self):
        for f in (0.1, 0.3, 0.45):
            s = universal_pip(2.0, f) + universal_pip(2.0, 1 - f)
            assert s == pytest.approx(4.0, abs=1e-12)

    def test_universal_pip_rejects_endpoints(self):
        for f in (0.0, 1.0):
            with pytest.raises(ValueError):
                universal_pip(1.0, f)

    def test_redundancy_examples(self):
        assert qbm_redundancy(100.0, 0.1) == pytest.approx(100 ** 0.2)
        assert qbm_redundancy(6300.0, 0.5) > 1e3
        assert qbm_redundancy(50.0, 1e-9) == pytest.approx(1.0, abs=1e-6)

    def test_redundancy_monotone_in_delta(self):
        rs = [qbm_redundancy(1000.0, d) for d in (0.05, 0.1, 0.2, 0.4)]
        assert all(b > a for a, b in zip(rs, rs[1:]))

    def test_redundancy_domain(self):
        with pytest.raises(ValueError):
            qbm_redundancy(0.5, 0.1)
        with pytest.raises(ValueError):
            qbm_redundancy(10.0, 1.0)
