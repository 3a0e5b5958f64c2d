"""Experiment layer: sources, PIP sampling, redundancy, sweeps, export."""
import contextlib
import itertools
import math
import os
import time
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from darwinlab.branching import two_branch_entropy
from darwinlab import darwin, info, numeric, qbm, qstate
from darwinlab.darwin import (
    BranchingSource,
    DenseSource,
    GaussianSource,
    HazySource,
    InteractingSource,
    PartialInfoPlot,
    PhotonSource,
    PIPPoint,
    RedundancyReport,
    build_pip,
    decompose_mutual_info,
    default_cardinalities,
    git_blob_sha,
    haar_baseline,
    haar_random_source,
    observable_sweep,
    pip_manifest,
    pip_to_csv,
    redundancy,
    redundancy_of_decoherence,
)
from darwinlab.numeric import POLICY, CapExceeded
from darwinlab.photon import DecoherenceFactor, measured_photon_redundancy
from darwinlab.qbm import GaussianState, OhmicBathParams, qbm_evolve
from darwinlab.qstate import HilbertShape, StateVector, subsystem_entropy
from darwinlab.spinmodels import (
    CentralSpinParams,
    HazyCentralSpin,
    HazyParams,
    InteractingEnvParams,
    central_spin_branching,
    cnot_model,
    hazy_redundancy,
    interacting_evolve,
    random_interacting_params,
    uniform_couplings,
)
from helpers import (BAD_ROWS, assert_matches_lone_rows, assert_no_children, count_forks,
                     fail_at, force_lanes, random_branching_state, random_state_vector)

LN2 = math.log(2.0)
INV_SQRT2 = 1.0 / math.sqrt(2.0)
# (size, mean) of a hand-built n = 10 plot that crosses 0.9 ln 2 only at the half
HALF_ONLY = ((0, 0.0), (1, 0.30), (3, 0.55), (4, 0.60), (5, 0.6931))


def cnot_source(n=50):
    return BranchingSource(cnot_model(INV_SQRT2, INV_SQRT2, n), tag="cnot")


def spin_source(n, t, seed=0):
    rng = np.random.default_rng(seed)
    p = CentralSpinParams(uniform_couplings(rng, n), t=t)
    return BranchingSource(central_spin_branching(p), tag="central-spin")


class TestSources:
    def test_dense_matches_branching(self):
        rng = np.random.default_rng(4)
        b = random_branching_state(rng, 5, 3)
        sb = BranchingSource(b)
        sd = DenseSource(sb.state_vector())
        assert sd.n_env == 5
        for sites in ((), (0,), (1, 3), (0, 2, 4)):
            assert sd.fragment_mutual_info(sites) == pytest.approx(
                sb.fragment_mutual_info(sites), abs=1e-9)

    def test_dense_needs_environment(self):
        st1 = StateVector(HilbertShape((2,)), np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            DenseSource(st1)

    def test_haar_source_deterministic(self):
        a = haar_random_source(4, seed=9)
        b = haar_random_source(4, seed=9)
        c = haar_random_source(4, seed=10)
        assert np.array_equal(a.state.amps, b.state.amps)
        assert not np.array_equal(a.state.amps, c.state.amps)
        assert a.tag == "haar-9"

    def test_haar_state_does_not_follow_blas_threads(self):
        # from n_env = 14 on, a multi-threaded BLAS dot rounds the norm
        # differently from a one-thread one
        blas = numeric._openblas_threads()
        if blas is None:
            pytest.skip("numpy ships no bundled scipy-openblas")
        get, put = blas
        before, amps = get(), []
        try:
            for threads in (1, 2):
                put(threads)
                amps.append(haar_random_source(14, seed=1).state.amps.tobytes())
        finally:
            put(before)
        assert amps[0] == amps[1]

    def test_photon_source_closed_form(self):
        src = PhotonSource(0.3, n_env=100)
        got = src.fragment_mutual_info(tuple(range(25)))
        assert got == pytest.approx(
            two_branch_entropy(0.3 ** 0.25) + two_branch_entropy(0.3)
            - two_branch_entropy(0.3 ** 0.75), abs=1e-12)
        assert src.pure_global and src.symmetric

    def test_photon_isotropic_flags(self):
        iso = PhotonSource(0.3, n_env=100, isotropic=True)
        assert not iso.pure_global
        assert iso.tag == "photon-iso"
        assert iso.fragment_mutual_info(range(25)) < PhotonSource(
            0.3, n_env=100).fragment_mutual_info(range(25))

    def test_photon_source_validation(self):
        with pytest.raises(ValueError):
            PhotonSource(1.2)
        with pytest.raises(ValueError):
            PhotonSource(0.5, n_env=1)

    def test_photon_accepts_factor_object(self):
        f = DecoherenceFactor.from_time(10.0)
        assert PhotonSource(f).gamma == pytest.approx(math.exp(-10.0))

    def test_gaussian_source_purity_detection(self):
        st_pure = qbm_evolve(OhmicBathParams(bands=16), 50.0, "x", 1.0)
        assert GaussianSource(st_pure).pure_global
        mixed = GaussianState(np.zeros(4), 0.75 * np.eye(4))
        assert not GaussianSource(mixed).pure_global

    def test_gaussian_source_counts_bands(self):
        st = qbm_evolve(OhmicBathParams(bands=16), 50.0, "x", 1.0)
        src = GaussianSource(st)
        assert src.n_env == 16
        assert src.fragment_mutual_info((0, 3)) == src.fragment_mutual_info_many(
            np.array([[0, 3]]))[0]

    def test_interacting_matches_branching_when_pairs_vanish(self):
        # oracle: the dense state re-evolved with the couplings outside a row cut
        rng = np.random.default_rng(7)
        n, t = 6, 3.0
        d = uniform_couplings(rng, n)
        system_init = (0.6, 0.8j)
        kets = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
        kets /= np.linalg.norm(kets, axis=1, keepdims=True)
        src = InteractingSource(InteractingEnvParams(d, np.zeros((n, n)), t),
                                system_init, kets)
        ref = BranchingSource(central_spin_branching(CentralSpinParams(d, t, system_init, kets)))
        assert src.pure_decoherence

        def decohered(sites):
            cut = np.where(np.isin(np.arange(n), sites), d, 0.0)
            psi = interacting_evolve(InteractingEnvParams(cut, np.zeros((n, n)), t),
                                     system_init, kets)
            return subsystem_entropy(psi, (0,))

        for sites in ((), (2,), (0, 4), (1, 2, 5), tuple(range(n))):
            idx = np.array(sites, dtype=np.intp).reshape(1, -1)
            rest = tuple(sorted(set(range(n)) - set(sites)))
            h_f = subsystem_entropy(src.state, tuple(s + 1 for s in sites)) if sites else 0.0
            assert src.fragment_mutual_info(sites) == pytest.approx(
                ref.fragment_mutual_info(sites), abs=1e-9)
            assert src.decohered_system_entropy(idx)[0] == pytest.approx(
                decohered(sites), abs=1e-12)
            classical, quantum = src.decompose(idx)
            assert classical[0] == pytest.approx(h_f, abs=1e-12)
            assert quantum[0] == pytest.approx(src.system_entropy() - decohered(rest), abs=1e-12)

    def test_interacting_pairs_disable_counterfactual(self):
        rng = np.random.default_rng(7)
        p = random_interacting_params(rng, 5, t=1.0, sigma_m=0.01)
        src = InteractingSource(p)
        assert not src.pure_decoherence
        for method in (src.decohered_system_entropy, src.decompose):
            with pytest.raises(ValueError, match="intra-bath couplings"):
                method(np.array([[0, 1]]))


def two_side_mutual_info(state, sites):
    """Oracle: H_S + H_F - H_SF, each from its own transpose of the state."""
    keep = tuple(s + 1 for s in sites)
    return (subsystem_entropy(state, (0,)) + subsystem_entropy(state, keep)
            - subsystem_entropy(state, (0,) + keep))


class TestDenseKernel:
    """The stacked dense kernel: rows grouped by d_F and solved a slab at a
    time, against the two-transpose formula; each row gives the bits it
    gives alone, whatever else the matrix holds. A qubit state equal to its
    reversal solves each side as two flip-sector blocks of half its size;
    any other state solves the whole side."""

    def assert_matches_oracle(self, src, rows):
        idx = np.array(rows, dtype=np.intp)
        got = src.fragment_mutual_info_many(idx)
        want = [two_side_mutual_info(src.state, row) for row in rows]
        assert np.max(np.abs(got - want)) <= 1e-13

    def test_every_size_of_a_haar_state(self):
        # S+F is the smaller side up to m = 3, the rest side from m = 4, and
        # F outweighs S+rest from m = 5: every Gram orientation runs
        src = haar_random_source(8, seed=4)
        rng = np.random.default_rng(5)
        for m in range(1, 8):
            rows = [sorted(rng.choice(8, m, replace=False).tolist()) for _ in range(4)]
            self.assert_matches_oracle(src, rows)

    def test_exhaustive_half_pairs_every_row(self, monkeypatch):
        # every complement is in the matrix, and still every row solves
        # both of its spectra, H_F and H_SF
        src = haar_random_source(8, seed=7)
        idx = np.array(list(itertools.combinations(range(8), 4)), dtype=np.intp)
        assert_matches_lone_rows(src, idx)
        solved = []
        spectra = qstate._stacked_entropies
        monkeypatch.setattr(qstate, "_stacked_entropies",
                            lambda g: solved.append(len(g)) or spectra(g))
        src.fragment_mutual_info_many(idx)
        assert sum(solved) == 2 * len(idx)

    def test_sampled_half_pairs_span_slabs(self):
        rows = darwin._draw_rows(12, 6, 24, np.random.default_rng(8), True)
        assert len(rows) > max(qstate._SLAB_ROWS, qstate._SLAB_AMPS // 2 ** 13)
        assert_matches_lone_rows(haar_random_source(12, seed=8), rows)

    def test_half_rows_without_their_complement(self):
        rows = darwin._draw_rows(10, 5, 12, np.random.default_rng(9), True)
        # drop the complement of every other pair
        idx = np.concatenate((rows[0::4], rows[1::4], rows[2::4]))
        assert_matches_lone_rows(haar_random_source(10, seed=9), idx)

    def test_mixed_dimension_half_rows(self):
        # {0, 1} holds 8 dimensions and {2, 3} 4: complements of one size
        # fall into different d_F groups
        src = DenseSource(random_state_vector(np.random.default_rng(10), (2, 2, 4, 2, 2)))
        idx = np.array(list(itertools.combinations(range(4), 2)), dtype=np.intp)
        assert_matches_lone_rows(src, idx)
        self.assert_matches_oracle(src, idx.tolist())

    def test_qutrit_system_sums_three_blocks(self):
        src = DenseSource(random_state_vector(np.random.default_rng(6), (3, 2, 4, 2)))
        rows = [list(c) for m in (1, 2, 3) for c in itertools.combinations(range(3), m)]
        for row in rows:
            self.assert_matches_oracle(src, [row])

    def test_rows_of_one_size_with_different_dims(self):
        # one matrix per size: its rows hold 2, 4 or 8 dimensions, so the
        # kernel stacks them in groups of equal d_F
        src = DenseSource(random_state_vector(np.random.default_rng(6), (3, 2, 4, 2)))
        for m in (1, 2):
            self.assert_matches_oracle(src, [list(c) for c in itertools.combinations(range(3), m)])

    @pytest.mark.parametrize("t, sigma_m", [(0.5, 0.001), (10.0, 0.0), (10.0, 0.001), (500.0, 0.3)])
    def test_flip_symmetric_interacting_states(self, t, sigma_m):
        # every size, so every orientation: at n = 10 S+F is the smaller side
        # up to m = 4, F against S+rest at m = 5, the rest side above, and the
        # whole bath leaves a one-row rest side, which is solved whole
        for n in (1, 2, 5, 8, 10):
            p = random_interacting_params(np.random.default_rng(n), n, t, 0.3, sigma_m)
            src = InteractingSource(p)
            assert qstate._flip_symmetric(src.state)
            rng = np.random.default_rng(n)
            for m in range(1, n + 1):
                rows = {tuple(sorted(rng.choice(n, m, replace=False).tolist())) for _ in range(4)}
                self.assert_matches_oracle(src, sorted(rows))

    def test_half_rows_of_a_flip_symmetric_state(self):
        src = InteractingSource(random_interacting_params(np.random.default_rng(3), 10, 10.0,
                                                          sigma_m=0.01))
        rows = darwin._draw_rows(10, 5, 12, np.random.default_rng(3), True)
        for row in rows.tolist():
            self.assert_matches_oracle(src, [row])   # alone: H_SF from the rest side
        assert_matches_lone_rows(src, rows)
        assert_matches_lone_rows(src, np.concatenate((rows[0::4], rows[1::4], rows[2::4])))

    def test_symmetrized_random_states(self):
        rng = np.random.default_rng(13)
        for n in (2, 4, 7, 9):
            psi = random_state_vector(rng, (2,) * (n + 1)).amps
            src = DenseSource(qstate.ket(psi + psi[::-1], (2,) * (n + 1)))
            assert qstate._flip_symmetric(src.state)
            for m in range(1, n + 1):
                self.assert_matches_oracle(
                    src, [sorted(rng.choice(n, m, replace=False).tolist()) for _ in range(3)])
        # a reversal of other dimensions is no flip of qubits: solved whole
        psi = random_state_vector(rng, (3, 2, 4, 2)).amps
        src = DenseSource(qstate.ket(psi + psi[::-1], (3, 2, 4, 2)))
        for row in ([0], [1], [0, 1], [1, 2], [0, 1, 2]):
            self.assert_matches_oracle(src, [row])

    def test_flip_symmetric_solves_are_half_size(self, monkeypatch):
        # one row a call; the whole side of a size is min(2^m, 2^(n + 1 - m))
        # for H_F and min(2^(m + 1), 2^(n - m)) for H_SF
        n = 9
        src = InteractingSource(random_interacting_params(np.random.default_rng(14), n, 10.0))
        sides = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh",
                            lambda g: sides.append(g.shape[-1]) or eigvalsh(g))
        rng = np.random.default_rng(14)
        for m in range(1, n):
            sides.clear()
            row = np.sort(rng.choice(n, m, replace=False))[None, :] + 1
            qstate.system_fragment_entropies(src.state, row)
            whole = {min(2 ** m, 2 ** (n + 1 - m)), min(2 ** (m + 1), 2 ** (n - m))}
            assert set(sides) == {side // 2 for side in whole}

    def test_asymmetric_starts_take_the_whole_solve(self, monkeypatch):
        rng = np.random.default_rng(12)
        p = random_interacting_params(rng, 8, t=10.0)
        kets = rng.standard_normal((8, 2)) + 1j * rng.standard_normal((8, 2))
        kets /= np.linalg.norm(kets, axis=1, keepdims=True)
        split = []
        split_grams = qstate._split_grams
        monkeypatch.setattr(qstate, "_split_grams",
                            lambda *args: split.append(args) or split_grams(*args))
        rows = [sorted(rng.choice(8, m, replace=False).tolist()) for m in range(1, 9)]
        for start in ({"system_init": (0.6, 0.8j)}, {"env_init": kets}):
            src = InteractingSource(p, **start)
            assert not np.array_equal(src.state.amps, src.state.amps[::-1])
            for row in rows:
                self.assert_matches_oracle(src, [row])
        assert split == []
        for row in rows:
            self.assert_matches_oracle(InteractingSource(p), [row])
        assert split


class TestKernelRows:
    """The dense and Gaussian kernels read each row alone: any matrix of
    rows, with complements, repeats and rows of mixed d_F, gives every row
    the bits it gives in a call of its own."""

    SOURCES = {
        "dense": lambda: haar_random_source(8, seed=3),
        "mixed dims": lambda: DenseSource(random_state_vector(np.random.default_rng(4),
                                                              (2, 2, 4, 2, 2, 3, 2))),
        "flip split": lambda: InteractingSource(random_interacting_params(
            np.random.default_rng(5), 8, 10.0)),
        "gaussian": lambda: GaussianSource(qbm_evolve(OhmicBathParams(bands=10), 100.0, "x", 2.0)),
    }

    @pytest.mark.parametrize("kind", sorted(SOURCES))
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1))
    def test_any_rows_give_their_lone_values(self, kind, seed):
        src = self.SOURCES[kind]()
        n = src.n_env
        rng = np.random.default_rng(seed)
        m = n // 2 if rng.random() < 0.5 else int(rng.integers(1, n))
        rows = [np.sort(rng.choice(n, m, replace=False)) for _ in range(int(rng.integers(1, 8)))]
        rows += [np.setdiff1d(np.arange(n), r) for r in rows if 2 * m == n and rng.random() < 0.5]
        rows += [rows[int(rng.integers(len(rows)))] for _ in range(int(rng.integers(0, 3)))]
        idx = np.array(rows, dtype=np.intp)[rng.permutation(len(rows))]
        assert_matches_lone_rows(src, idx)


class TestSourceContract:
    """Source alone puts I(S : F) = H_S + H_F - H_SF together, for every
    source kind: it checks the rows, answers the empty row, runs each call
    in one one-thread BLAS scope and keeps H_S."""

    SOURCES = {
        "dense haar": lambda: haar_random_source(8, seed=3),
        "flip split": lambda: InteractingSource(random_interacting_params(
            np.random.default_rng(5), 8, 10.0)),
        "branching": lambda: BranchingSource(random_branching_state(np.random.default_rng(6), 8, 3)),
        "gaussian": lambda: GaussianSource(qbm_evolve(OhmicBathParams(bands=8), 100.0, "x", 2.0)),
        "mixed gaussian": lambda: GaussianSource(
            qbm_evolve(OhmicBathParams(bands=16), 100.0, "x", 2.0).marginal(range(9))),
        "hazy": lambda: HazySource(HazyCentralSpin(8, 0.6, 1.3, HazyParams(0.4))),
        "photon": lambda: PhotonSource(0.3, n_env=8),
        "isotropic photon": lambda: PhotonSource(0.3, n_env=8, isotropic=True),
    }

    @pytest.mark.parametrize("kind", SOURCES)
    @pytest.mark.parametrize("bad", list(BAD_ROWS.values()), ids=list(BAD_ROWS))
    def test_bad_rows_rejected(self, kind, bad):
        with pytest.raises(ValueError):
            self.SOURCES[kind]().fragment_mutual_info_many(bad)

    @pytest.mark.parametrize("kind", SOURCES)
    def test_empty_row_is_exactly_zero(self, kind):
        got = self.SOURCES[kind]().fragment_mutual_info_many(np.zeros((3, 0), dtype=np.intp))
        assert got.tolist() == [0.0] * 3

    @pytest.mark.parametrize("kind", SOURCES)
    def test_one_blas_scope_per_call(self, kind, monkeypatch):
        entered = []
        real = numeric._one_blas_thread

        @contextlib.contextmanager
        def counted():
            entered.append(None)
            with real() as lanes:
                yield lanes

        for module in (numeric, darwin, qbm):
            monkeypatch.setattr(module, "_one_blas_thread", counted)
        src = self.SOURCES[kind]()
        for rows in ([[0, 2, 5]], [[1], [3]], [[0, 1, 2, 3], [4, 5, 6, 7]]):
            entered.clear()
            src.fragment_mutual_info_many(np.array(rows))
            assert len(entered) == 1, rows

    @pytest.mark.parametrize("kind", SOURCES)
    def test_system_entropy_solved_once(self, kind, monkeypatch):
        src = self.SOURCES[kind]()
        solved = []
        real = src._system_entropy
        monkeypatch.setattr(src, "_system_entropy", lambda: solved.append(None) or real())
        for rows in ([[0, 2, 5]], [[1], [3]], [[0, 2, 5]]):
            src.fragment_mutual_info_many(np.array(rows))
        h_s = src.system_entropy()
        assert src.system_entropy() == h_s == real()
        assert len(solved) == 1


class TestCardinalities:
    def test_small_is_every_integer(self):
        assert default_cardinalities(5) == (0, 1, 2, 3, 4, 5)
        assert default_cardinalities(64) == tuple(range(65))

    def test_large_tail_is_sparse_and_capped(self):
        cards = default_cardinalities(500)
        assert cards[:65] == tuple(range(65))
        tail = cards[65:]
        assert all(b > a for a, b in zip(cards, cards[1:]))
        assert cards[-1] == 500
        assert len(tail) < 20

    def test_rejects_empty_environment(self):
        with pytest.raises(ValueError):
            default_cardinalities(0)


class TestBuildPip:
    def test_cnot_plateau_exact(self):
        pip = build_pip(cnot_source(50), samples_per_fraction=8, seed=1)
        assert abs(pip.point_at(0).mean_i) < 1e-12
        for m in range(1, 50):
            assert pip.point_at(m).mean_i == pytest.approx(LN2, abs=1e-12)
        assert pip.point_at(50).mean_i == pytest.approx(2 * LN2, abs=1e-12)
        assert pip.h_system == pytest.approx(LN2, abs=1e-12)

    def test_mirror_matches_direct_evaluation(self):
        # exhaustive draws on both halves must reproduce the purity shortcut
        rng = np.random.default_rng(11)
        b = random_branching_state(rng, 7, 3)
        fast = build_pip(BranchingSource(b), samples_per_fraction=64, seed=2)

        class Direct(BranchingSource):
            pure_global = False

        slow = build_pip(Direct(b), samples_per_fraction=64, seed=2)
        for m in range(8):
            assert fast.point_at(m).mean_i == pytest.approx(
                slow.point_at(m).mean_i, abs=1e-9)

    def test_antisymmetry_is_exact_for_pure_sources(self):
        src = haar_random_source(9, seed=5)
        pip = build_pip(src, samples_per_fraction=6, seed=3)
        for m in range(10):
            s = pip.point_at(m).mean_i + pip.point_at(9 - m).mean_i
            assert s == pytest.approx(2 * pip.h_system, abs=1e-12)

    def test_half_point_pinned_at_system_entropy(self):
        rng = np.random.default_rng(6)
        for src in (haar_random_source(8, seed=6),
                    BranchingSource(random_branching_state(rng, 10, 3))):
            pip = build_pip(src, samples_per_fraction=5, seed=0)
            mid = pip.point_at(src.n_env // 2)
            assert mid.mean_i == pytest.approx(pip.h_system, abs=1e-12)
            assert mid.stddev > 0.0    # individual draws still scatter

    @staticmethod
    def record_rows(monkeypatch, src):
        """force one lane, so every size runs here, and record each row
        matrix the source is given with the values it returns"""
        force_lanes(monkeypatch, 1)
        seen = {}
        real = src._mutual_info

        def recorded(idx):
            vals = real(idx)
            seen[idx.shape[1]] = (idx, vals)
            return vals

        monkeypatch.setattr(src, "_mutual_info", recorded)
        return seen

    @pytest.mark.parametrize("make", [
        lambda: haar_random_source(8, seed=6),
        lambda: BranchingSource(random_branching_state(np.random.default_rng(7), 10, 3)),
        lambda: GaussianSource(qbm_evolve(OhmicBathParams(bands=12), 100.0, "x", 2.0)),
        lambda: haar_random_source(4, seed=2),     # exhaustive pairs
    ], ids=["dense", "branching", "gaussian", "dense exhaustive"])
    def test_half_size_solves_one_row_per_pair(self, monkeypatch, make):
        src = make()
        assert src.pure_global
        half = src.n_env // 2
        seen = self.record_rows(monkeypatch, src)
        pip = build_pip(src, samples_per_fraction=24, seed=5)
        rows = darwin._fragment_rows(src, half, 24, (5, half), True)
        idx, vals = seen[half]
        assert idx.tolist() == rows[0::2].tolist()
        # the second row of each pair is the mirror of the first, bit for bit
        want = np.stack((vals, 2.0 * pip.h_system - vals), axis=1).ravel()
        mid = pip.point_at(half)
        assert mid.samples == len(rows) == 2 * len(idx)
        assert mid.mean_i == float(want.mean())
        assert mid.stddev == float(want.std(ddof=1))
        # below the half, every drawn row is solved
        for m in range(1, half):
            assert seen[m][0].tolist() == darwin._fragment_rows(src, m, 24, (5, m), True).tolist()
            assert pip.point_at(m).samples == len(seen[m][0])
        assert set(seen) == set(range(half + 1))

    def test_mixed_and_symmetric_sources_solve_every_row(self, monkeypatch):
        whole = qbm_evolve(OhmicBathParams(bands=24), 100.0, "x", 2.0)
        mixed = GaussianSource(whole.marginal(range(13)))
        assert not mixed.pure_global
        seen = self.record_rows(monkeypatch, mixed)
        pip = build_pip(mixed, samples_per_fraction=24, seed=5)
        for m in range(1, 12):
            rows = darwin._fragment_rows(mixed, m, 24, (5, m), True)
            assert seen[m][0].tolist() == rows.tolist()
            assert pip.point_at(m).samples == len(seen[m][0])
        assert len(seen[6][0]) == 24    # the complement pairs of the half size
        photon = PhotonSource(0.3, n_env=40)
        assert photon.pure_global and photon.symmetric
        seen = self.record_rows(monkeypatch, photon)
        pip = build_pip(photon, seed=5)
        assert seen[20][0].tolist() == [list(range(20))]
        assert pip.point_at(20).samples == 1
        assert pip.point_at(20).mean_i == seen[20][1][0]

    def test_symmetric_source_single_sample(self):
        pip = build_pip(PhotonSource(0.2, n_env=40), seed=0)
        assert all(p.samples == 1 and p.stddev == 0.0 for p in pip.points)

    def test_custom_fractions_rounded_with_endpoints(self):
        pip = build_pip(cnot_source(10), fractions=[0.5, 0.52, 0.21], seed=0)
        assert [p.sharp_f for p in pip.points] == [0, 2, 5, 10]

    def test_fraction_domain(self):
        with pytest.raises(ValueError):
            build_pip(cnot_source(4), fractions=[1.2], seed=0)

    def test_seed_and_sample_validation(self):
        with pytest.raises(ValueError):
            build_pip(cnot_source(4), samples_per_fraction=0, seed=0)
        with pytest.raises(ValueError):
            build_pip(cnot_source(4), seed=-1)

    def test_deterministic_in_seed(self):
        src = spin_source(9, t=1.5)
        a = pip_to_csv(build_pip(src, samples_per_fraction=5, seed=8))
        b = pip_to_csv(build_pip(src, samples_per_fraction=5, seed=8))
        c = pip_to_csv(build_pip(src, samples_per_fraction=5, seed=9))
        assert a == b
        assert a != c

    def test_plot_validation(self):
        good = PIPPoint(0.5, 1, 0.1, 0.0, 1)
        with pytest.raises(ValueError):
            PartialInfoPlot((good, good), "x", 0.7, 2, True)
        with pytest.raises(ValueError):
            PartialInfoPlot((PIPPoint(0.5, 1, 5.0, 0.0, 1),), "x", 0.7, 2, True)


# the tuple samplers the index matrices replaced, kept as the reference

def tuple_distinct_subsets(n, m, count, rng):
    if math.comb(n, m) <= count:
        return [tuple(c) for c in itertools.combinations(range(n), m)]
    seen, out = set(), []
    while len(out) < count:
        pick = tuple(sorted(rng.choice(n, size=m, replace=False).tolist()))
        if pick not in seen:
            seen.add(pick)
            out.append(pick)
    return out


def tuple_paired_half_subsets(n, m, count, rng):
    full = frozenset(range(n))
    if math.comb(n, m) <= count:
        picks = [c for c in itertools.combinations(range(n), m) if 0 in c]
        return [r for s in picks for r in (s, tuple(sorted(full - set(s))))]
    out, seen = [], set()
    while len(out) < count:  # a repeat or a complement is drawn again
        s = tuple(sorted(rng.choice(n, size=m, replace=False).tolist()))
        c = tuple(sorted(full - set(s)))
        if s not in seen:
            out.extend([s, c])
            seen.update([s, c])
    return out


def tuple_subsets(n, m, count, seed, symmetric=False):
    if m == 0:
        return [()]
    if m == n:
        return [tuple(range(n))]
    if symmetric:
        return [tuple(range(m))]
    rng = np.random.default_rng(np.random.SeedSequence((seed, m)))
    if 2 * m == n:
        return tuple_paired_half_subsets(n, m, count, rng)
    return tuple_distinct_subsets(n, m, count, rng)


class TestFragmentRows:
    @pytest.mark.parametrize("n, count", [(7, 64), (8, 5), (12, 24), (40, 24), (41, 7), (300, 24),
                                          (6, 24)],
                             ids=["all exhaustive", "half sampled", "mixed", "sampled",
                                  "odd", "wide", "half exhaustive"])
    @pytest.mark.parametrize("seed", [0, 1, 17, 2 ** 31 - 1])
    def test_rows_match_tuple_samplers(self, n, count, seed):
        for symmetric in (False, True):
            src = SimpleNamespace(n_env=n, symmetric=symmetric)
            for m in sorted({0, 1, 2, 3, n // 2, n - 2, n - 1, n}):
                rows = darwin._fragment_rows(src, m, count, (seed, m), True)
                assert rows.dtype == np.intp and rows.ndim == 2 and rows.shape[1] == m
                assert list(map(tuple, rows.tolist())) == tuple_subsets(n, m, count, seed, symmetric)

    @pytest.mark.parametrize("seed", [3, 4])
    def test_distinct_rows_match_on_the_decoherence_stream(self, seed, monkeypatch):
        # redundancy_of_decoherence draws 12 rows of each scanned size
        # through _fragment_rows, on its own stream (seed, 0x5D, m) and
        # unpaired: the half size takes distinct rows, not complement pairs.
        # Weak records (t = 0.1) scan past the half; sizes 1 and n - 1 of
        # n = 10 are exhaustive
        draws = []
        real = darwin._fragment_rows

        def spy(*args):
            draws.append((args, real(*args)))
            return draws[-1][1]

        monkeypatch.setattr(darwin, "_fragment_rows", spy)
        for n in (10, 50):
            src = spin_source(n, t=0.1, seed=seed)
            draws.clear()
            redundancy_of_decoherence(src, seed=seed)
            sizes = [args[1] for args, _ in draws]
            assert sizes == list(default_cardinalities(n)[1:len(sizes) + 1])
            assert n // 2 in sizes
            for (s, m, count, stream, paired), rows in draws:
                assert s is src and (count, stream, paired) == (12, (seed, 0x5D, m), False)
                key = np.random.SeedSequence(stream)
                want = tuple_distinct_subsets(n, m, 12, np.random.default_rng(key))
                assert list(map(tuple, rows.tolist())) == want
                if 2 * m == n:
                    pairs = tuple_paired_half_subsets(n, m, 12, np.random.default_rng(key))
                    assert want != pairs

    def test_half_pairs_redraw_collisions(self):
        # n = 8 has 35 complement pairs: a draw that repeats an earlier row
        # or its complement is drawn again, so each plot keeps 12 pairs
        for s in range(20):
            rng = np.random.default_rng(np.random.SeedSequence((s, 4)))
            rows = darwin._draw_rows(8, 4, 24, rng, True).tolist()
            assert len(rows) == len(set(map(tuple, rows))) == 24
            for row, comp in zip(rows[0::2], rows[1::2]):
                assert sorted(row + comp) == list(range(8))
        # an odd count rounds up to whole pairs
        assert len(darwin._draw_rows(8, 4, 5, np.random.default_rng(0), True)) == 6

    @staticmethod
    def every_source():
        rng = np.random.default_rng(12)
        bath = OhmicBathParams(bands=12)
        return [
            BranchingSource(random_branching_state(rng, 9, 3)),
            spin_source(9, t=4.0, seed=3),
            haar_random_source(7, seed=2),
            InteractingSource(random_interacting_params(rng, 6, t=1.0, sigma_m=0.05)),
            GaussianSource(qbm_evolve(bath, 100.0, "x", 2.0)),
            PhotonSource(0.3, n_env=40),
            PhotonSource(0.3, n_env=40, isotropic=True),
            HazySource(HazyCentralSpin(9, 0.6, 1.3, HazyParams(0.4))),
        ]

    def test_one_row_wrapper_contract(self):
        for src in self.every_source():
            rows = []
            many = src.fragment_mutual_info_many

            def spy(idx, many=many):
                rows.append(idx)
                return many(idx)

            src.fragment_mutual_info_many = spy
            for sites, want in (((5, 0, 3), [[0, 3, 5]]), ([4], [[4]]), ((), [[]])):
                got = src.fragment_mutual_info(sites)
                row = rows[-1]
                assert row.dtype == np.intp and row.shape == (1, len(sites))
                assert row.tolist() == want
                assert type(got) is float
                assert got == many(np.array(want, dtype=np.intp).reshape(1, -1))[0]
            assert src.fragment_mutual_info(()) == 0.0
            for bad in ((0, src.n_env), (-1, 2), (1, 1), (2, 4, 2), (0.9,), (1, 2.2)):
                with pytest.raises(ValueError):
                    src.fragment_mutual_info(bad)
            for bad in ([[2, 1]], [[0, src.n_env]], [1, 2]):
                with pytest.raises(ValueError):
                    many(np.array(bad, dtype=np.intp))
            # a float matrix is refused, not cast; an empty one of any dtype is valid
            with pytest.raises(ValueError, match="integers"):
                many(np.array([[0.0, 2.0]]))
            assert many(np.zeros((2, 0))).tolist() == [0.0, 0.0]

    def test_kernels_see_only_non_empty_rows(self, monkeypatch):
        # Source answers every empty row itself: every scan and per-fragment
        # method, at sizes 0 and n too, hands the kernels (fragment_entropies
        # and the counterfactual's _decohered) rows of at least one site
        force_lanes(monkeypatch, 1)
        rng = np.random.default_rng(16)
        d = uniform_couplings(rng, 6)
        sources = [
            BranchingSource(random_branching_state(rng, 8, 3)),
            haar_random_source(6, seed=3),
            InteractingSource(InteractingEnvParams(d, np.zeros((6, 6)), t=3.0)),
            GaussianSource(qbm_evolve(OhmicBathParams(bands=8), 100.0, "x", 2.0)),
            PhotonSource(0.3, n_env=40),
            HazySource(HazyCentralSpin(9, 0.6, 1.3, HazyParams(0.4))),
        ]
        for src in sources:
            shapes = []

            def spy(obj, name):
                real = getattr(obj, name)

                def seen(idx):
                    shapes.append(idx.shape)
                    return real(idx)

                monkeypatch.setattr(obj, name, seen)

            spy(src, "fragment_entropies")
            build_pip(src, samples_per_fraction=4, seed=1)
            if src.pure_decoherence:
                spy(src._counterfactual(), "_decohered")
                redundancy_of_decoherence(src, seed=1)
            for rows in (np.zeros((2, 0), dtype=np.intp), np.arange(src.n_env)[None]):
                src.fragment_mutual_info(rows[0])
                if src.pure_decoherence:
                    src.decompose(rows)
                    src.decohered_system_entropy(rows)
            assert shapes and all(count >= 1 and m >= 1 for count, m in shapes), src.tag

    @staticmethod
    def decohering_sources():
        rng = np.random.default_rng(14)
        d = uniform_couplings(rng, 6)
        return [
            BranchingSource(random_branching_state(rng, 9, 3)),
            spin_source(9, t=4.0, seed=3),
            PhotonSource(0.3, n_env=40),
            PhotonSource(0.3, n_env=40, isotropic=True),
            HazySource(HazyCentralSpin(9, 0.6, 1.3, HazyParams(0.4))),
            InteractingSource(InteractingEnvParams(d, np.zeros((6, 6)), t=3.0)),
        ]

    @staticmethod
    def per_source_decompose(src, idx):
        """The per-source decompose formulas that Source.decompose replaced,
        kept as an oracle: the interacting bath read its branching records,
        a branching source took H_SF from the same solve as H_F."""
        m = idx.shape[1]
        if isinstance(src, InteractingSource):
            src = src._counterfactual()
        if isinstance(src, BranchingSource):
            if not m:  # the kernel takes non-empty rows; the empty one is pure
                return np.zeros(len(idx)), np.zeros(len(idx))
            h_f, h_sf = src.fragment_entropies(idx)
            return h_f, src.system_entropy() - h_sf
        if isinstance(src, PhotonSource):
            f = m / src.n_env
            classical = 0.0 if src.isotropic else two_branch_entropy(src.gamma ** f)
            quantum = two_branch_entropy(src.gamma) - two_branch_entropy(src.gamma ** (1.0 - f))
        else:
            classical = src.model.fragment_entropy(m) - m * src.model.haze.h
            quantum = src.system_entropy() - src.model.decohered_entropy(src.model.n - m)
        return np.full(len(idx), classical), np.full(len(idx), quantum)

    def test_decoherence_methods_contract(self):
        rng = np.random.default_rng(15)
        for src in self.decohering_sources():
            assert src.pure_decoherence
            n = src.n_env
            for m in (0, 1, 3, n):
                idx = np.array([np.sort(rng.choice(n, m, replace=False)) for _ in range(4)],
                               dtype=np.intp).reshape(4, m)
                decohered = src.decohered_system_entropy(idx)
                classical, quantum = src.decompose(idx)
                for got in (decohered, classical, quantum):
                    assert isinstance(got, np.ndarray) and got.shape == (len(idx),)
                for i, row in enumerate(idx):
                    assert decohered[i] == src.decohered_system_entropy(row[None])[0]
                    c, q = src.decompose(row[None])
                    assert classical[i] == c[0] and quantum[i] == q[0]
                if m == 0:  # the system starts pure
                    assert decohered.tolist() == [0.0] * 4
                # the one decompose rule, to the bit
                rest = np.array([sorted(set(range(n)) - set(r)) for r in idx.tolist()],
                                dtype=np.intp).reshape(4, n - m)
                assert quantum.tolist() == (
                    src.system_entropy() - src.decohered_system_entropy(rest)).tolist()
                with numeric._one_blas_thread():
                    h_f = src.fragment_entropies(idx)[0] if m else np.zeros(4)
                assert classical.tolist() == (h_f - m * src.site_entropy).tolist()
                old_c, old_q = self.per_source_decompose(src, idx)
                assert np.abs(classical - old_c).max() <= 1e-14
                assert np.abs(quantum - old_q).max() <= 1e-14
            for bad in ([[2, 1]], [[1, 1]], [[0, n]], [[-1, 2]], [1, 2]):
                for method in (src.decohered_system_entropy, src.decompose):
                    with pytest.raises(ValueError):
                        method(np.array(bad, dtype=np.intp))

    def test_no_counterfactual_raises_before_any_solve(self, monkeypatch):
        src = haar_random_source(4, 0)
        monkeypatch.setattr(src, "fragment_entropies",
                            lambda idx: pytest.fail("solved without a counterfactual"))
        for rows in ([[]], [[0, 2]], [[0, 1, 2, 3]]):
            for method in (src.decohered_system_entropy, src.decompose):
                with pytest.raises(ValueError, match="no fragment-only"):
                    method(np.array(rows, dtype=np.intp))


class SizeSource(darwin.Source):
    """n_env = 8, no purity: nine sizes, each fast, with I = m, so H_S is
    half of n_env."""

    tag = "sizes"
    n_env = 8

    def _system_entropy(self):
        return 4.0

    def fragment_entropies(self, idx):
        return np.full(len(idx), float(idx.shape[1])), np.full(len(idx), 4.0)


class TestPlotLanes:
    """build_pip deals every size of a plot that is not symmetric over
    forked lanes, whatever the sizes cost; the plot is the serial loop's,
    bit for bit, and no child outlives a call."""

    @staticmethod
    def sources():
        rng = np.random.default_rng(23)
        # the default start is flip even, so the dense kernel splits each side
        yield InteractingSource(random_interacting_params(rng, 8, 10.0))
        yield haar_random_source(8, seed=4)
        yield BranchingSource(random_branching_state(rng, 12, 3))
        yield GaussianSource(qbm_evolve(OhmicBathParams(bands=12), 4.0, "x", 2.0))

    @pytest.mark.parametrize("lanes", [1, 2, 3])
    def test_lanes_give_the_serial_bits(self, monkeypatch, lanes):
        forks = count_forks(monkeypatch)
        for source in self.sources():
            force_lanes(monkeypatch, 1)
            want = build_pip(source, samples_per_fraction=5, seed=3)
            assert forks == []
            force_lanes(monkeypatch, lanes)
            got = build_pip(source, samples_per_fraction=5, seed=3)
            assert got == want and pip_to_csv(got) == pip_to_csv(want)
            assert len(forks) == lanes - 1
            forks.clear()
            assert_no_children()

    @pytest.mark.parametrize("lanes", [1, 2, 3])
    def test_a_fast_plot_forks_by_lanes_alone(self, monkeypatch, lanes):
        # no clock decides: sizes that take microseconds are dealt too,
        # and one lane forks nothing
        force_lanes(monkeypatch, lanes)
        forks = count_forks(monkeypatch)
        pip = build_pip(SizeSource(), seed=0)
        assert [p.mean_i for p in pip.points] == list(map(float, range(9)))
        assert len(forks) == lanes - 1
        assert_no_children()

    def test_symmetric_sources_fork_nothing(self, monkeypatch):
        force_lanes(monkeypatch, 3)
        forks = count_forks(monkeypatch)
        build_pip(PhotonSource(0.2, n_env=40), seed=0)
        build_pip(HazySource(HazyCentralSpin(12, 0.5, 1.0, HazyParams(0.3))), seed=0)
        assert forks == []

    def test_every_size_runs_on_one_blas_thread(self, monkeypatch):
        # in this process as in a lane, so the bytes cannot depend on
        # which sizes were dealt
        threads = []
        source = spin_source(12, t=1.5)
        real = source._mutual_info

        def recorded(idx):
            threads.append(numeric._openblas_threads()[0]())
            return real(idx)

        if numeric._openblas_threads() is None:
            pytest.skip("numpy ships no bundled scipy-openblas")
        monkeypatch.setattr(source, "_mutual_info", recorded)
        build_pip(source, samples_per_fraction=4, seed=0)
        assert threads and set(threads) == {1}

    @pytest.mark.parametrize("in_child", [True, False])
    def test_a_lane_error_is_raised_with_its_type(self, monkeypatch, in_child):
        # the first size each lane runs passes; every later size fails in
        # the child lanes, or in this process alone (which sleeps, so the
        # children take sizes meanwhile)
        parent = os.getpid()
        source = spin_source(12, t=1.5)
        real = source._mutual_info
        ran = []

        def failing(idx):
            if ran and (os.getpid() != parent) == in_child:
                raise ValueError(f"size {idx.shape[1]} failed")
            ran.append(idx.shape[1])
            time.sleep(0.01)
            return real(idx)

        monkeypatch.setattr(source, "_mutual_info", failing)
        force_lanes(monkeypatch, 3)
        with pytest.raises(ValueError, match=r"^size \d+ failed$"):
            build_pip(source, samples_per_fraction=4, seed=0)
        assert_no_children()


class TestHaarBaseline:
    """haar_baseline deals its states over forked lanes; the R list is the
    serial loop's, bit for bit, and no child outlives a call."""

    N, SAMPLES, DELTA, SEED = 6, 4, 0.1, 11

    def serial(self, states):
        rs = []
        for i in range(states):
            src = haar_random_source(self.N, self.SEED + i)
            pip = build_pip(src, samples_per_fraction=self.SAMPLES, seed=self.SEED + i)
            rs.append(redundancy(pip, self.DELTA).r_delta)
        return np.array(rs).tobytes()

    def baseline(self, states):
        return haar_baseline(self.N, states, self.SAMPLES, self.DELTA, self.SEED)

    @pytest.mark.parametrize("lanes, states", [
        (1, 4), (2, 4), (3, 4),
        (2, 1), (3, 2),          # fewer states than lanes
        (3, 5),                  # uneven: lanes take the states as they finish
    ])
    def test_lanes_give_the_serial_bits(self, monkeypatch, lanes, states):
        # the reference's own plots fork too, so it runs before the count
        force_lanes(monkeypatch, lanes)
        want = self.serial(states)
        forks = count_forks(monkeypatch)
        got = self.baseline(states)
        assert np.array(got).tobytes() == want
        assert len(forks) == min(lanes, states) - 1
        assert_no_children()

    def test_a_slow_state_keeps_state_order(self, monkeypatch):
        # state 0 is slow, so the other lanes take the states after it
        # meanwhile; every plot would fork in a lane that had more than
        # one, so the fork count also shows that no lane forks again
        want = self.serial(5)
        real = darwin.haar_random_source

        def slow(n_env, s):
            if s == self.SEED:
                time.sleep(0.2)
            return real(n_env, s)

        monkeypatch.setattr(darwin, "haar_random_source", slow)
        force_lanes(monkeypatch, 3)
        forks = count_forks(monkeypatch)
        assert np.array(self.baseline(5)).tobytes() == want
        assert len(forks) == 2
        assert_no_children()

    def test_one_lane_without_fork(self, monkeypatch):
        force_lanes(monkeypatch, 2)
        monkeypatch.delattr(os, "fork")
        assert np.array(self.baseline(3)).tobytes() == self.serial(3)

    @pytest.mark.parametrize("failing", [0, 1, 4])
    def test_a_lane_error_is_raised_with_its_type(self, monkeypatch, failing):
        # the failing state runs in whichever lane takes it
        force_lanes(monkeypatch, 3)
        fail_at(monkeypatch, self.SEED + failing)
        with pytest.raises(ValueError, match=f"no state at seed {self.SEED + failing}$"):
            self.baseline(5)
        assert_no_children()

    def test_lowest_failed_lane_wins(self, monkeypatch):
        # the error of the lowest failed state is raised, whichever lanes
        # ran states 1 and 2
        force_lanes(monkeypatch, 3)
        real = darwin.haar_random_source

        def failing(n_env, s):
            if s - self.SEED in (1, 2):
                raise (KeyError if s - self.SEED == 1 else ArithmeticError)(s)
            return real(n_env, s)

        monkeypatch.setattr(darwin, "haar_random_source", failing)
        with pytest.raises(KeyError):
            self.baseline(3)
        assert_no_children()

    def test_dense_cap_before_any_fork(self, monkeypatch):
        force_lanes(monkeypatch, 2)
        forks = count_forks(monkeypatch)
        with pytest.raises(CapExceeded):
            haar_baseline(24, 4, self.SAMPLES, self.DELTA, self.SEED)
        with pytest.raises(ValueError, match="at least one environment qubit"):
            haar_baseline(0, 4, self.SAMPLES, self.DELTA, self.SEED)
        assert forks == []

    @staticmethod
    def in_children(parent, act):
        """A work function that runs act() in a child lane; in this
        process it sleeps, so the children take items meanwhile."""
        def work(i):
            if os.getpid() != parent:
                act()
            time.sleep(0.01)
            return i
        return work

    def test_lane_without_result(self, monkeypatch):
        force_lanes(monkeypatch, 3)
        work = self.in_children(os.getpid(), lambda: os._exit(3))
        with pytest.raises(ChildProcessError, match="lane 1 ended with exit code 3"):
            numeric._forked_lanes(work, range(40))
        assert_no_children()

    def test_lowest_failure_past_pipe_buf(self, monkeypatch):
        # 3000 items do not fit the ticket pipe one by one, so a ticket is
        # a run of consecutive positions. Item 700 sleeps before it fails,
        # so the other lanes reach item 2500 and empty the pipe meanwhile;
        # the ticket of item 700 was taken before that, so its error, the
        # serial loop's, is the one raised
        def work(i):
            if i == 700:
                time.sleep(0.2)
                raise KeyError(i)
            if i == 2500:
                raise ArithmeticError(i)
            return i * i

        force_lanes(monkeypatch, 3)
        with pytest.raises(KeyError):
            numeric._forked_lanes(work, range(3000))
        assert_no_children()
        assert numeric._forked_lanes(lambda i: i * i, range(3000)) == [i * i for i in range(3000)]

    def test_unpicklable_error(self, monkeypatch):
        class Local(Exception):
            pass

        def lost():
            raise Local("lost")

        force_lanes(monkeypatch, 3)
        work = self.in_children(os.getpid(), lost)
        with pytest.raises(RuntimeError, match=r"^item \d+: Local\('lost'\)$"):
            numeric._forked_lanes(work, range(40))
        assert_no_children()


class TestRedundancy:
    def test_perfect_records(self):
        rep = redundancy(build_pip(cnot_source(50), seed=0), 0.1)
        assert rep.r_delta == 50.0
        assert rep.f_delta == pytest.approx(1 / 50)
        assert rep.plateau_reached and not rep.interpolated

    def test_interpolation_by_hand(self):
        # a sub-half crossing counts with or without purity; a pure plot
        # also counts the half, and at odd n = 151, where the grid steps
        # 64 -> 80 over the half, its mirror 2 H_S - I(71) at 80; a
        # crossing only there leaves the plateau not reached
        ten = ((0, 0.0), (1, 0.30), (3, 0.55), (4, 0.66), (5, 0.6931))
        odd = tuple((m, 0.55 * m / 64 if 2 * m < 151 else 2 * LN2 - 0.55 * (151 - m) / 64)
                    for m in default_cardinalities(151))
        thr = 0.9 * LN2
        for n, means, pure, lo, hi, plateau in ((10, ten, True, 3, 4, True),
                                                (10, ten, False, 3, 4, True),
                                                (10, HALF_ONLY, True, 4, 5, False),
                                                (151, odd, True, 64, 80, False)):
            points = tuple(PIPPoint(m / n, m, v, 0.0, 4) for m, v in means)
            rep = redundancy(PartialInfoPlot(points, "hand", LN2, n, pure), 0.1)
            v = dict(means)
            sharp = lo + (thr - v[lo]) / (v[hi] - v[lo]) * (hi - lo)
            assert rep.r_delta == pytest.approx(n / sharp, abs=1e-12)
            assert rep.f_delta == pytest.approx(sharp / n, abs=1e-12)
            assert rep.interpolated
            assert rep.plateau_reached == plateau

    def test_first_grid_point_crossing_is_not_interpolated(self):
        points = (PIPPoint(0.2, 2, 0.68, 0.0, 1),
                  PIPPoint(0.5, 5, 0.6931, 0.0, 1))
        for pure in (True, False):
            rep = redundancy(PartialInfoPlot(points, "hand", LN2, 10, pure), 0.1)
            assert rep.r_delta == pytest.approx(5.0)
            assert not rep.interpolated

    def test_haar_baseline_close_to_two(self):
        rs = []
        for seed in range(4):
            pip = build_pip(haar_random_source(12, seed), samples_per_fraction=8, seed=seed)
            rep = redundancy(pip, 0.1)
            assert not rep.plateau_reached     # no records, only purity
            rs.append(rep.r_delta)
        assert 1.5 <= float(np.mean(rs)) <= 3.0

    def test_odd_n_pure_source_crosses_past_the_half(self):
        # no exact-half fragment at odd n; the first size past the half
        # counts, and its mirrored mean 2 H_S - I((n - 1)/2) crosses
        even = redundancy(build_pip(haar_random_source(8, 0), seed=0), 0.1)
        assert even.f_delta is not None
        assert even.r_delta == pytest.approx(2.0, abs=0.2)
        for n in (7, 9):
            odd = redundancy(build_pip(haar_random_source(n, 0), seed=0), 0.1)
            assert odd.f_delta is not None and odd.interpolated
            assert not odd.plateau_reached
            assert odd.r_delta == pytest.approx(even.r_delta, abs=0.1)

    def test_photon_matches_closed_form_inversion(self):
        src = PhotonSource(DecoherenceFactor.from_time(10.0), n_env=500)
        rep = redundancy(build_pip(src, seed=0), 0.1)
        assert rep.r_delta == pytest.approx(
            measured_photon_redundancy(10.0, 0.1), rel=0.03)

    def test_mixed_global_state_below_one(self):
        model = HazyCentralSpin(10, 0.2, 0.5, HazyParams(LN2))
        # by hand: only the half crosses, which a mixed plot does not count
        by_hand = PartialInfoPlot(tuple(PIPPoint(m / 10, m, v, 0.0, 4) for m, v in HALF_ONLY),
                                  "hand", LN2, 10, False)
        for pip in (build_pip(HazySource(model), seed=0), by_hand):
            rep = redundancy(pip, 0.1)
            assert rep.r_delta < 1.0
            assert rep.f_delta is None
            assert not rep.plateau_reached
        assert redundancy(by_hand, 0.1).r_delta == 0.60 / (0.9 * LN2)

    def test_monotone_in_delta(self):
        pip = build_pip(spin_source(12, t=2.5), samples_per_fraction=10, seed=1)
        rs = [redundancy(pip, d).r_delta for d in (0.05, 0.1, 0.2, 0.3)]
        assert all(b >= a for a, b in zip(rs, rs[1:]))

    def test_domain_errors(self):
        pip = build_pip(cnot_source(6), seed=0)
        for bad in (0.0, 1.0, -0.1):
            with pytest.raises(ValueError):
                redundancy(pip, bad)
        with pytest.raises(ValueError):
            redundancy(build_pip(haar_random_source(1, 0), seed=0), 0.1)
        hazy = HazySource(HazyCentralSpin(2, 0.5, 1.0, HazyParams(0.3)))
        with pytest.raises(ValueError, match="no fragment sizes"):
            redundancy(build_pip(hazy, seed=0), 0.1)

    @pytest.mark.parametrize("n", [8, 12, 16, 24, 32, 64])
    def test_plot_route_agrees_with_hazy_redundancy(self, n):
        # the CLI's route (default coupling, samples and delta) and the
        # library's hazy scan count the same sizes: == on every config
        for haze in np.linspace(0.0, 0.69, 24):
            for t in (0.5, 1.0, 2.0, 4.0):
                hp = HazyParams(float(haze))
                src = HazySource(HazyCentralSpin(n, 0.5, t, hp))
                rep = redundancy(build_pip(src, seed=0), 0.1)
                assert rep.r_delta == hazy_redundancy(CentralSpinParams(np.full(n, 0.5), t=t), hp)

    @pytest.mark.parametrize("src", [
        spin_source(8, t=0.0),
        HazySource(HazyCentralSpin(8, 0.5, 0.0, HazyParams(0.3))),
    ], ids=["central-spin", "hazy"])
    def test_rounding_floor_entropy_has_no_redundancy(self, src):
        # at t = 0 the environment holds no records; H_S is rounding alone
        pip = build_pip(src, seed=0)
        assert pip.h_system <= POLICY.spectrum_atol
        with pytest.raises(ValueError, match="system entropy is zero"):
            redundancy(pip, 0.1)
        with pytest.raises(ValueError, match="system entropy is zero"):
            redundancy_of_decoherence(src, 0.1)

    def test_report_rejects_delta_outside_unit_interval(self):
        with pytest.raises(ValueError):
            RedundancyReport(1.5, None, 1.0, True, False)


class TestRedundancyOfDecoherence:
    def test_perfect_records_full_count(self):
        assert redundancy_of_decoherence(cnot_source(50), 0.1) == 50.0

    def test_photon_uses_exact_inversion(self):
        src = PhotonSource(DecoherenceFactor.from_time(10.0), n_env=500)
        f = src.decoherence_fraction(0.1)
        assert two_branch_entropy(src.gamma ** f) == pytest.approx(
            0.9 * src.system_entropy(), abs=1e-10)
        assert redundancy_of_decoherence(src, 0.1) == pytest.approx(1.0 / f)

    def test_pure_environment_tracks_information_redundancy(self):
        src = spin_source(40, t=4.0, seed=3)
        r_i = redundancy(build_pip(src, seed=0), 0.1).r_delta
        r_d = redundancy_of_decoherence(src, 0.1, seed=0)
        assert r_d == pytest.approx(r_i, rel=0.15)

    def test_hazy_strictly_exceeds_information_redundancy(self):
        model = HazyCentralSpin(40, 0.35, 1.0, HazyParams(0.35))
        src = HazySource(model)
        r_i = redundancy(build_pip(src, seed=0), 0.1).r_delta
        r_d = redundancy_of_decoherence(src, 0.1)
        assert r_d > r_i * 1.2

    def test_dense_source_has_no_counterfactual(self):
        with pytest.raises(ValueError):
            redundancy_of_decoherence(haar_random_source(5, 0), 0.1)


class TestDecomposition:
    def test_full_environment_split_is_half_half(self):
        src = cnot_source(12)
        c, q = decompose_mutual_info(src, range(12))
        assert c == pytest.approx(LN2, abs=1e-12)
        assert q == pytest.approx(LN2, abs=1e-12)

    def test_parts_sum_to_mutual_information(self):
        src = spin_source(8, t=1.0, seed=5)
        for sites in ((0,), (1, 4), (0, 2, 3, 7)):
            c, q = decompose_mutual_info(src, sites)
            assert c + q == pytest.approx(src.fragment_mutual_info(sites), abs=1e-9)
            assert c >= -1e-12 and q >= -1e-12

    def test_isotropic_photon_has_no_classical_part(self):
        iso = PhotonSource(0.1, n_env=200, isotropic=True)
        c, q = decompose_mutual_info(iso, range(60))
        assert c == 0.0
        assert q == pytest.approx(iso.fragment_mutual_info(range(60)), abs=1e-12)

    def test_hazy_split_stays_exact(self):
        src = HazySource(HazyCentralSpin(9, 0.6, 1.3, HazyParams(0.4)))
        for m in (1, 3, 4):
            c, q = decompose_mutual_info(src, range(m))
            assert c + q == pytest.approx(src.fragment_mutual_info(range(m)), abs=1e-9)

    def test_rejects_non_factorizing_sources(self):
        with pytest.raises(ValueError):
            decompose_mutual_info(haar_random_source(4, 0), (0,))
        rng = np.random.default_rng(0)
        src = InteractingSource(random_interacting_params(rng, 5, t=1.0, sigma_m=0.05))
        with pytest.raises(ValueError):
            decompose_mutual_info(src, (0, 1))

    def test_inconsistent_parts_raise(self):
        class Liar(BranchingSource):
            def decompose(self, idx):
                return np.full(len(idx), 0.1), np.full(len(idx), 0.1)

        src = Liar(cnot_model(INV_SQRT2, INV_SQRT2, 6))
        with pytest.raises(ArithmeticError):
            decompose_mutual_info(src, (0, 1))


class TestObservableSweep:
    @pytest.fixture()
    def rows(self):
        src = spin_source(6, t=6.0, seed=0)
        mus = np.linspace(0.0, math.pi / 2, 7)
        return observable_sweep(src, mus, fragment_size=2, delta=0.1)

    def test_pointer_observable_wins(self, rows):
        chis = [r.holevo_info for r in rows]
        assert chis[0] == max(chis)
        assert chis[0] > 0.9 * LN2
        assert rows[0].fragments_passing == 3
        assert rows[-1].holevo_info < 0.01

    def test_redundant_region_is_near_pointer(self, rows):
        assert rows[0].redundant
        assert not rows[-1].redundant
        # consistency: whenever fragments pass, the observable must be
        # compatible with the pointer measurement
        for r in rows:
            if r.fragments_passing > 0:
                assert r.redundant

    def test_conditional_entropy_grows_with_angle(self, rows):
        hc = [r.h_conditional for r in rows]
        assert hc[0] == pytest.approx(0.0, abs=1e-12)
        assert all(b >= a - 1e-12 for a, b in zip(hc, hc[1:]))
        # measuring the pointer first scrambles sigma_x completely
        assert hc[-1] == pytest.approx(LN2, abs=1e-12)

    @staticmethod
    def blocks_and_bases(src, m, mus):
        # the sweep's blocks and the eigenbases of sigma(mu), built here
        state = src.state_vector()
        blocks = [qstate.reduced_density(state, (0,) + tuple(range(s + 1, s + 1 + m)))
                  for s in range(0, src.n_env - m + 1, m)]
        kets = [(np.array([math.cos(mu / 2), math.sin(mu / 2)], dtype=complex),
                 np.array([-math.sin(mu / 2), math.cos(mu / 2)], dtype=complex)) for mu in mus]
        return blocks, kets

    @staticmethod
    def projected_holevo(block, kets):
        # the Holevo bound by the partial inner product <k| rho_SF |k>
        shape_f = HilbertShape(block.shape.dims[1:])
        rho4 = block.mat.reshape(2, shape_f.total_dim, 2, shape_f.total_dim)
        weights, members = [], []
        for k in kets:
            cond = np.einsum("a,aibj,b->ij", k.conj(), rho4, k)
            p = float(np.real(np.trace(cond)))
            if p > POLICY.eig_floor:
                weights.append(p)
                members.append(qstate.DensityMatrix(shape_f, cond / p))
        w = np.array(weights)
        return info.holevo(info.Ensemble(info.ProbVector(w / w.sum()), tuple(members)))

    @pytest.mark.parametrize("make", [
        lambda: spin_source(9, t=3.0, seed=3),
        lambda: InteractingSource(random_interacting_params(np.random.default_rng(5), 12, 10.0,
                                                            0.1, 0.001)),
    ], ids=["central-spin-9", "interacting-12"])
    def test_chi_is_the_asymmetric_mutual_info(self, make):
        # chi = J(F | sigma on S) of each block to the bit, and within 1e-13
        # of the Holevo bound of the partial-inner-product ensemble
        src, mus = make(), np.linspace(0.0, math.pi / 2, 5)
        blocks, kets = self.blocks_and_bases(src, 3, mus)
        for row, ks in zip(observable_sweep(src, mus, fragment_size=3), kets):
            basis = info.MeasurementBasis.from_states(ks)
            j = [info.asymmetric_mutual_info(b, basis, (0,)) for b in blocks]
            assert row.holevo_info == float(np.mean(j))
            old = float(np.mean([self.projected_holevo(b, ks) for b in blocks]))
            assert row.holevo_info == pytest.approx(old, abs=1e-13)

    def test_validation(self):
        src = spin_source(4, t=2.0)
        with pytest.raises(ValueError):
            observable_sweep(src, [0.0], fragment_size=0)
        with pytest.raises(ValueError):
            observable_sweep(src, [0.0], fragment_size=5)
        with pytest.raises(ValueError):
            observable_sweep(src, [0.0], fragment_size=1, delta=1.5)

    def test_needs_qubit_system(self):
        rng = np.random.default_rng(3)
        amps = rng.normal(size=12) + 1j * rng.normal(size=12)
        state = StateVector(HilbertShape((3, 2, 2)), amps / np.linalg.norm(amps))
        with pytest.raises(ValueError):
            observable_sweep(DenseSource(state), [0.0], fragment_size=1)


class TestExport:
    def test_csv_shape_and_header(self):
        pip = build_pip(cnot_source(6), seed=0)
        text = pip_to_csv(pip)
        lines = text.splitlines()
        assert lines[0] == "f,sharpF,meanI_nats,stddev,samples"
        assert len(lines) == len(pip.points) + 1
        assert text.endswith("\n") and "\r" not in text
        assert "np.float64" not in text

    def test_csv_roundtrip(self):
        pip = build_pip(spin_source(7, t=1.0), samples_per_fraction=4, seed=2)
        for line, p in zip(pip_to_csv(pip).splitlines()[1:], pip.points):
            f, sharp, mean, sd, k = line.split(",")
            assert float(f) == p.f and int(sharp) == p.sharp_f
            assert float(mean) == p.mean_i and float(sd) == p.stddev
            assert int(k) == p.samples

    def test_git_blob_sha_known_value(self):
        # `echo hello | git hash-object --stdin`
        assert git_blob_sha(b"hello\n") == "ce013625030ba8dba906f756967f9e9ca394464a"

    def test_manifest_checksums_the_csv(self):
        pip = build_pip(cnot_source(5), seed=0)
        params = {"seed": 0}
        m = pip_manifest(pip, params)
        assert m["csv_sha"] == git_blob_sha(pip_to_csv(pip).encode())
        assert m["n_env"] == 5 and m["source"] == "cnot"
        params["seed"] = 99
        assert m["parameters"]["seed"] == 0


class TestInvariants:
    @settings(max_examples=25)
    @given(st.integers(0, 10_000), st.integers(2, 3))
    def test_antisymmetry_survives_direct_sampling(self, seed, k):
        rng = np.random.default_rng(seed)
        b = random_branching_state(rng, 6, k)

        class Direct(BranchingSource):
            pure_global = False

        pip = build_pip(Direct(b), samples_per_fraction=32, seed=1)
        for m in range(7):
            s = pip.point_at(m).mean_i + pip.point_at(6 - m).mean_i
            assert s == pytest.approx(2 * pip.h_system, abs=1e-9)

    @settings(max_examples=20)
    @given(st.integers(0, 10_000))
    def test_orthogonal_records_make_info_equal_fragment_entropy(self, seed):
        rng = np.random.default_rng(seed)
        w = rng.random() * 0.8 + 0.1
        b = cnot_model(math.sqrt(w), math.sqrt(1 - w), 9)
        src = BranchingSource(b)
        pip = build_pip(src, samples_per_fraction=16, seed=0)
        for m in range(1, 5):    # strictly below half
            h_f = src.decompose(np.arange(m)[None])[0][0]  # the classical part is H_F
            assert pip.point_at(m).mean_i == pytest.approx(h_f, abs=1e-9)

    def test_photon_redundancy_monotone_in_delta(self):
        pip = build_pip(PhotonSource(DecoherenceFactor.from_time(20.0), n_env=300), seed=0)
        rs = [redundancy(pip, d).r_delta for d in (0.05, 0.1, 0.2, 0.35)]
        assert all(b > a for a, b in zip(rs, rs[1:]))

    def test_qbm_redundancy_monotone_in_delta(self):
        st_ = qbm_evolve(OhmicBathParams(bands=64, damping=0.05), 100.0, "x", 3.0)
        pip = build_pip(GaussianSource(st_), samples_per_fraction=12, seed=0)
        rs = [redundancy(pip, d).r_delta for d in (0.1, 0.2, 0.3)]
        assert all(b > a for a, b in zip(rs, rs[1:]))
