import contextlib
import math
import threading

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from darwinlab import numeric, qbm
from darwinlab.darwin import GaussianSource
from darwinlab.numeric import CapExceeded
from darwinlab.qbm import (
    GaussianState,
    OhmicBathParams,
    _omega_times,
    _symplectic_form,
    gaussian_entropy,
    qbm_evolve,
    qbm_generator,
    qbm_mutual_info_many,
    qbm_redundancy,
    qbm_system_entropy,
    squeezed_start,
    symplectic_area,
    universal_pip,
)

# small bath for unit tests; acceptance uses the full figure-scale setup
BATH = OhmicBathParams(bands=64)
EPS = np.finfo(float).eps


def one_fragment_info(state, bands):
    """I(S : bands) of one fragment, through the sources' one-row wrapper."""
    return GaussianSource(state).fragment_mutual_info(bands)


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
    """Marginals skip re-validation; H_S is solved once per state, and
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
        shapes = []
        solve = qbm._symplectic_spectrum

        def counted(l):
            shapes.append(l.shape)
            return solve(l)

        monkeypatch.setattr(qbm, "_symplectic_spectrum", counted)
        frags = [[0, 1], [2, 5, 7], list(range(8)), [15, 3], [2, 5, 7]]
        first = one_fragment_info(self.state, frags[0])
        assert shapes.count((2, 2)) == 1
        n_first = len(shapes)
        for frag in frags[1:]:
            one_fragment_info(self.state, frag)
        # one stacked solve per side and call; the 2x2 block is never re-solved
        assert len(shapes) - n_first == 2 * (len(frags) - 1)
        assert (2, 2) not in shapes[n_first:]
        assert all(len(shape) == 3 for shape in shapes[n_first:])
        assert one_fragment_info(self.state, frags[0]) == first
        assert shapes.count((2, 2)) == 1

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
                qbm_mutual_info_many(self.state, np.array(idx, dtype=np.intp))

    def test_empty_rows(self):
        got = qbm_mutual_info_many(self.state, np.zeros((3, 0), dtype=np.intp))
        assert got.tolist() == [0.0, 0.0, 0.0]

    def test_zero_rows(self):
        got = qbm_mutual_info_many(self.state, np.zeros((0, 3), dtype=np.intp))
        assert got.shape == (0,)

    def test_slabs_match_single_rows(self):
        # more rows than one slab holds at any lane count: every row still
        # gets the bytes of a lone call
        rng = np.random.default_rng(13)
        for m in (1, 5, 32):
            count = max(qbm._SLAB_ROWS, qbm._SLAB_ELEMS // (2 * m + 2) ** 2) + 1
            idx = np.array([np.sort(rng.choice(BATH.bands, m, replace=False))
                            for _ in range(count)], dtype=np.intp)
            got = qbm_mutual_info_many(self.state, idx)
            assert got.tolist() == [one_fragment_info(self.state, row) for row in idx.tolist()]

    @pytest.mark.parametrize("m, count, lanes, rows", [
        (64, 48, 2, 6),      # 130 x 130 matrices: the element budget is the floor
        (100, 48, 2, 6),     # larger matrices: the 6-row floor binds
        (5, 48, 2, 24),      # small matrices: one slab per lane
        (5, 10 ** 4, 1, qbm._SLAB_ELEMS // 12 ** 2),  # the element budget binds
        (32, 5, 3, 2),       # fewer rows than lanes x 6: every lane gets a slab
        (1, 1, 2, 1),        # one row: one slab, so one lane runs
    ])
    def test_slab_rule(self, m, count, lanes, rows):
        assert qbm._SLAB_ELEMS == 6 * 130 ** 2
        assert qbm._slab_rows(m, count, lanes) == rows


def force_lanes(monkeypatch, lanes):
    """Keep the one-thread BLAS scope of qbm but make it yield `lanes`."""

    @contextlib.contextmanager
    def forced():
        with numeric._one_blas_thread():
            yield lanes

    monkeypatch.setattr(qbm, "_one_blas_thread", forced)


def record_thread_starts(monkeypatch):
    """A list that gains every thread qbm starts from now on."""
    started = []

    class Recorded(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(qbm.threading, "Thread", Recorded)
    return started


class TestLanes:
    """The slabs of a fragment size split across lanes: the bits do not
    depend on the lane count, and no helper thread outlives the call."""

    def setup_method(self):
        self.state = qbm_evolve(OhmicBathParams(), 1e3, "x", 3.0)

    def test_lanes_give_identical_bits(self, monkeypatch):
        rng = np.random.default_rng(17)
        budget = qbm._SLAB_ELEMS // 34 ** 2  # rows the element budget allows at m = 16
        cases = [(m, 3 * qbm._SLAB_ROWS + 2) for m in (10, 16, 32, 64)]
        # every size is above the one-lane cut; the 6-row floor binds at
        # m = 64 and 100, the element budget at m = 16 with more than
        # 3 x `budget` rows, and 5 rows are fewer than lanes x 6 for 2 and 3
        # lanes
        cases += [(100, 3 * qbm._SLAB_ROWS + 2), (16, 3 * budget + 1), (32, 5)]
        started = record_thread_starts(monkeypatch)
        for m, count in cases:
            idx = np.array([np.sort(rng.choice(128, m, replace=False)) for _ in range(count)],
                           dtype=np.intp)
            got = {}
            for lanes in (1, 2, 3):
                force_lanes(monkeypatch, lanes)
                before = set(threading.enumerate())
                started.clear()
                got[lanes] = qbm_mutual_info_many(self.state, idx).tobytes()
                assert set(threading.enumerate()) == before
                # every case has a slab for each lane, so each lane runs
                assert len(started) == lanes - 1
            assert got[2] == got[1] and got[3] == got[1]

    def test_helper_lanes_run_off_the_calling_thread(self, monkeypatch):
        threads = set()
        cholesky = qbm._cholesky

        def recorded(cov):
            threads.add(threading.get_ident())
            return cholesky(cov)

        monkeypatch.setattr(qbm, "_cholesky", recorded)
        force_lanes(monkeypatch, 2)
        # m = 10 is the smallest size above the one-lane cut, 2m + 2 = 22
        idx = np.tile(np.arange(10, dtype=np.intp), (2 * qbm._SLAB_ROWS, 1))
        qbm_mutual_info_many(self.state, idx)
        assert len(threads) == 2 and threading.get_ident() in threads

    @pytest.mark.parametrize("m", [1, 9])
    def test_small_sizes_start_no_thread(self, monkeypatch, m):
        """Up to 2m + 2 = 20 a size runs on one lane, with no helper thread,
        even where two lanes would each get a slab."""
        started = record_thread_starts(monkeypatch)
        force_lanes(monkeypatch, 2)
        idx = np.tile(np.arange(m, dtype=np.intp), (3 * qbm._SLAB_ROWS + 2, 1))
        got = qbm_mutual_info_many(self.state, idx)
        assert started == []
        force_lanes(monkeypatch, 1)
        assert qbm_mutual_info_many(self.state, idx).tobytes() == got.tobytes()

    def test_error_in_a_helper_lane_reaches_the_caller(self, monkeypatch):
        cov = self.state.cov.copy()
        cov[2 * 8, 2 * 8] = -1.0  # band 7 has a negative variance
        bad = GaussianState._unchecked(self.state.means, cov)
        bad._h_system = qbm_system_entropy(self.state)
        # m = 10, above the one-lane cut; only the last row holds band 7, and
        # 2 lanes split the rows into two slabs of ceil(count / 2), of which
        # lane 1 takes the second
        rows = [list(range(11, 21))] * (3 * qbm._SLAB_ROWS)
        rows[-1] = list(range(1, 11))
        idx = np.array(rows, dtype=np.intp)
        failed = []
        cholesky = qbm._cholesky

        def recorded(cov):
            try:
                return cholesky(cov)
            except ValueError:
                failed.append(threading.get_ident())
                raise

        monkeypatch.setattr(qbm, "_cholesky", recorded)
        force_lanes(monkeypatch, 2)
        before = set(threading.enumerate())
        with pytest.raises(ValueError, match="positive definite"):
            qbm_mutual_info_many(bad, idx)
        assert set(threading.enumerate()) == before
        assert len(failed) == 1 and failed[0] != threading.get_ident()


def two_cholesky_mutual_info(state, bands):
    """Oracle: H_S + H_F - H_SF for one fragment, with Delta_SF (system
    first) and Delta_F factorized separately."""
    sf = state.marginal([0] + [b + 1 for b in bands])
    h_f = GaussianState._unchecked(sf.means[2:], sf.cov[2:, 2:]).entropy()
    return qbm_system_entropy(state) + h_f - sf.entropy()


class TestStackedKernel:
    def test_matches_two_cholesky_oracle_on_readme_state(self):
        bath = OhmicBathParams()
        state = qbm_evolve(bath, 1e3, "x", 3.0)
        rng = np.random.default_rng(21)
        for m in (1, 2, 32, 64):
            idx = np.array([np.sort(rng.choice(bath.bands, m, replace=False))
                            for _ in range(12)], dtype=np.intp)
            got = qbm_mutual_info_many(state, idx)
            want = np.array([two_cholesky_mutual_info(state, row) for row in idx.tolist()])
            assert np.all(np.abs(got - want) <= 1e-9 * np.abs(want))


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
