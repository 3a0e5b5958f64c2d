"""Partial-information plots and redundancy extraction.

The experiment layer. Every decoherence model sits behind one small
source interface (size, system entropy, and the entropies H_F and H_SF
of a matrix of same-size fragments); Source alone puts I(S : F) together
from them, and the functions here do the statistics:
uniform fragment sampling without replacement, crossing detection,
counterfactual decoherence, observable sweeps (chi from info's one
conditioning rule: darwin conditions no state itself), and stable
CSV/manifest export.

Mirrored fragment sizes of globally pure sources are never recomputed:
purity gives I(E minus F) = 2 H_S - I(F) exactly, so the plot is
antisymmetric about f = 1/2 by construction and half the work is free.
The half size is drawn in complement pairs (F, E minus F), and build_pip
solves only F of each pair and mirrors its complement the same way, so the
f = 1/2 mean is H_S. build_pip is the one place that uses purity; every
kernel solves each row it is given alone.

Both scans draw their rows through _fragment_rows alone, each on its own
stream; Source answers empty rows, so kernels see only non-empty ones.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .branching import (BranchingState, _entropies, decohered_system_entropy, system_entropy,
                        to_state_vector, two_branch_entropy)
from .info import (MeasurementBasis, _counted_sizes, _first_crossing, average_conditional_entropy,
                   shannon_entropy, von_neumann_entropy)
from .numeric import POLICY, _forked_lanes, _one_blas_thread, brentq
from .qstate import (HilbertShape, StateVector, _complement_rows, check_rows, partial_trace,
                     qubits, reduced_density, subsystem_entropy, system_fragment_entropies)
from .spinmodels import (HALF, CentralSpinParams, HazyCentralSpin, InteractingEnvParams,
                         central_spin_branching, interacting_evolve)

if TYPE_CHECKING:  # the qbm and photon layers load only when their source is used
    from .qbm import GaussianState


# ---------------------------------------------------------------------------
# sources

class Source:
    """What the experiment layer asks of a decoherence model.

    Every source has n_env, tag, system_entropy() and the one fragment
    method fragment_mutual_info_many(idx): I(S : F) for every row F of idx,
    a (count, m) np.intp matrix of sorted, repeat-free site indices, so one
    fragment size per call. This class alone puts I = H_S + H_F - H_SF
    together: it checks the rows (one out of range, with a repeat or of a
    non-integer dtype raises ValueError), gives exactly 0.0 for an empty
    row, solves the others with BLAS on one thread, so a direct call gives
    a plot's bytes, and keeps H_S after its first solve. A source
    implements only fragment_entropies(idx), the arrays H_F and H_SF of
    checked, non-empty rows, and _system_entropy().
    fragment_mutual_info(sites) is the one-row wrapper.

    symmetric: I depends on the fragment size only, so one fragment per
    size is drawn. pure_global: the global state is pure, so mirrored
    sizes and the second row of each half-size pair come free (build_pip).
    pure_decoherence: the records factorize over a product start, and two
    more per-fragment methods take the same rows under the same rules.
    decohered_system_entropy(idx), H_S with only F decohering (0.0 for an
    empty row: the system starts pure), comes from _decohered(idx) of the
    source _counterfactual() names. decompose(idx) splits I by H_SF =
    m site_entropy + H(S decohered by E minus F): classical = H_F -
    m site_entropy (site_entropy, 0.0 here, is each site's start entropy)
    and quantum = H_S - decohered_system_entropy(complement rows). Without
    a counterfactual both raise ValueError before any solve.
    decompose_mutual_info(source, sites) is their one-fragment wrapper.
    """

    symmetric = False
    pure_global = False
    pure_decoherence = False
    site_entropy = 0.0
    _h_s = None

    def system_entropy(self) -> float:
        """H_S, solved by _system_entropy on the first call and kept."""
        if self._h_s is None:
            self._h_s = self._system_entropy()
        return self._h_s

    def fragment_mutual_info_many(self, idx: np.ndarray) -> np.ndarray:
        return self._mutual_info(check_rows(idx, self.n_env))

    def fragment_mutual_info(self, sites) -> float:
        """I(S : F) of one fragment: row 0 of fragment_mutual_info_many."""
        return float(self.fragment_mutual_info_many(check_rows([sorted(sites)], self.n_env))[0])

    def _mutual_info(self, idx: np.ndarray) -> np.ndarray:
        """H_S + H_F - H_SF for every row of the checked idx; build_pip
        calls it on its own draws. Empty rows give exactly 0.0."""
        if not idx.size:
            return np.zeros(len(idx))
        with _one_blas_thread():
            h_f, h_sf = self.fragment_entropies(idx)
        return self.system_entropy() + h_f - h_sf

    def fragment_entropies(self, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError("a source implements fragment_entropies")

    def _system_entropy(self) -> float:
        raise NotImplementedError("a source implements _system_entropy")

    def decohered_system_entropy(self, idx: np.ndarray) -> np.ndarray:
        records = self._counterfactual()
        idx = check_rows(idx, self.n_env)
        with _one_blas_thread():
            return records._decohered(idx) if idx.size else np.zeros(len(idx))

    def decompose(self, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The classical and quantum parts of I(S : F) for every row of idx."""
        idx = check_rows(idx, self.n_env)
        decohered = self.decohered_system_entropy(_complement_rows(idx, self.n_env))
        with _one_blas_thread():
            h_f = self.fragment_entropies(idx)[0] if idx.size else np.zeros(len(idx))
        return h_f - idx.shape[1] * self.site_entropy, self.system_entropy() - decohered

    def _counterfactual(self) -> Source:
        """The source whose _decohered(idx) solves checked, non-empty rows."""
        if not self.pure_decoherence:
            raise ValueError("source offers no fragment-only decoherence counterfactual")
        return self

    def decoherence_fraction(self, delta_d: float) -> float | None:
        """Closed-form decoherence crossing, or None to scan fragment sizes."""
        return None

    def state_vector(self) -> StateVector:
        raise ValueError("source has no dense state")


class DenseSource(Source):
    """Any pure global state with the system as subsystem 0.

    Its fragment rows go to qstate.system_fragment_entropies in one call,
    which stacks the Schmidt spectra of each slab of rows.
    """

    pure_global = True

    def __init__(self, state: StateVector, tag: str = "dense"):
        if state.shape.n_subsystems < 2:
            raise ValueError("need a system plus at least one environment part")
        self.state = state
        self.tag = tag

    @property
    def n_env(self) -> int:
        return self.state.shape.n_subsystems - 1

    def _system_entropy(self) -> float:
        return subsystem_entropy(self.state, (0,))

    def fragment_entropies(self, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return system_fragment_entropies(self.state, idx + 1)

    def state_vector(self) -> StateVector:
        return self.state


class BranchingSource(Source):
    """Branching states on the Gram-kernel fast path."""

    pure_global = True
    pure_decoherence = True

    def __init__(self, b: BranchingState, tag: str = "branching"):
        self.b = b
        self.tag = tag

    @property
    def n_env(self) -> int:
        return self.b.n_env

    def _system_entropy(self) -> float:
        return system_entropy(self.b)

    def fragment_entropies(self, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return _entropies(self.b, idx)

    def _decohered(self, idx: np.ndarray) -> np.ndarray:
        return decohered_system_entropy(self.b, idx)

    def state_vector(self) -> StateVector:
        return to_state_vector(self.b)


class GaussianSource(Source):
    """Gaussian system/bath state; environment units are bath bands."""

    def __init__(self, state: GaussianState):
        if state.n_modes < 2:
            raise ValueError("need the system mode plus at least one band")
        self.state = state
        self.tag = "qbm"
        # mirror reuse is sound only for a globally pure state
        self.pure_global = state.is_pure()

    @property
    def n_env(self) -> int:
        return self.state.n_modes - 1

    def _system_entropy(self) -> float:
        return self.state.marginal([0]).entropy()

    def fragment_entropies(self, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        from .qbm import qbm_fragment_entropies

        return qbm_fragment_entropies(self.state, idx)


class PhotonSource(Source):
    """Closed-form scattered-photon plot at fixed total decoherence.

    All photons are interchangeable, so a fragment only counts; n_env
    just sets the resolution of the fraction grid. Isotropic mode keeps
    the decoherence but erases the directional records, which kills the
    classical plateau (and global purity with it).
    """

    symmetric = True
    pure_decoherence = True

    def __init__(self, gamma, n_env: int = 512, isotropic: bool = False):
        from .photon import _gamma_of

        g = _gamma_of(gamma)
        if not 0.0 <= g <= 1.0:
            raise ValueError("decoherence factor must lie in [0, 1]")
        if n_env < 2:
            raise ValueError("need at least two photons")
        self.gamma = g
        self.n_env = int(n_env)
        self.isotropic = bool(isotropic)
        self.pure_global = not isotropic
        self.tag = "photon-iso" if isotropic else "photon"

    def _system_entropy(self) -> float:
        return two_branch_entropy(self.gamma)

    def fragment_entropies(self, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # H(Gamma^f), 0 with no directional records, and H(Gamma^(1 - f))
        f = idx.shape[1] / self.n_env
        h_f = 0.0 if self.isotropic else two_branch_entropy(self.gamma ** f)
        h_sf = two_branch_entropy(self.gamma ** (1.0 - f))
        return np.full(len(idx), h_f), np.full(len(idx), h_sf)

    def _decohered(self, idx: np.ndarray) -> np.ndarray:
        f = idx.shape[1] / self.n_env
        return np.full(len(idx), two_branch_entropy(self.gamma ** f))

    def decoherence_fraction(self, delta_d: float) -> float:
        """Smallest f whose records alone reach (1 - delta_d) H_S."""
        if not 0.0 < delta_d < 1.0:
            raise ValueError("delta must lie in (0, 1)")
        if self.gamma == 0.0:
            return 1.0 / self.n_env  # every single photon decoheres fully
        if self.gamma == 1.0:
            raise ValueError("no decoherence at gamma = 1")
        target = (1.0 - delta_d) * self.system_entropy()
        return brentq(lambda f: two_branch_entropy(self.gamma ** f) - target,
                      0.0, 1.0, 1e-14)


class HazySource(Source):
    """Equal-coupling central spin over a partly mixed bath."""

    symmetric = True
    pure_decoherence = True

    def __init__(self, model: HazyCentralSpin):
        self.model = model
        self.tag = "hazy"
        self.site_entropy = model.haze.h  # each bath qubit starts with entropy h

    @property
    def n_env(self) -> int:
        return self.model.n

    def _system_entropy(self) -> float:
        return self.model.system_entropy()

    def fragment_entropies(self, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        m = idx.shape[1]
        return (np.full(len(idx), self.model.fragment_entropy(m)),
                np.full(len(idx), self.model.joint_entropy(m)))

    def _decohered(self, idx: np.ndarray) -> np.ndarray:
        return np.full(len(idx), self.model.decohered_entropy(idx.shape[1]))


class InteractingSource(DenseSource):
    """Interacting-environment model evolved once to a dense state.

    Pair couplings inside the bath scramble records away from single
    sites. With all of them zero the model is the central spin, pure
    decoherence: its branching records, built once here, are its
    _counterfactual(); I(S : F) and decompose's H_F stay on the dense kernel.

    H commutes with flipping every qubit, and the default start |+>^(n+1)
    is even under that flip, so the evolved amplitudes equal their own
    reversal, bit for bit; the dense kernel then solves every side as two
    half-size flip-sector blocks (qstate.system_fragment_entropies). A
    start that is not even, such as system_init = (0.6, 0.8j), breaks the
    symmetry and takes the plain solve of the whole side.
    """

    def __init__(self, params: InteractingEnvParams,
                 system_init: tuple[complex, complex] = (HALF, HALF),
                 env_init: np.ndarray | None = None):
        super().__init__(interacting_evolve(params, system_init, env_init), tag="interacting")
        self.pure_decoherence = not np.any(params.pair_couplings)
        self._records = None
        if self.pure_decoherence:
            self._records = BranchingSource(central_spin_branching(
                CentralSpinParams(params.couplings, params.t, system_init, env_init)))

    def _counterfactual(self) -> BranchingSource:
        if self._records is None:
            raise ValueError("intra-bath couplings leave no clean fragment-only counterfactual")
        return self._records


def _haar_shape(n_env: int) -> HilbertShape:
    """The qubits of a Haar state over n_env bath qubits; ValueError below
    one bath qubit, CapExceeded past the dense cap."""
    if n_env < 1:
        raise ValueError("need at least one environment qubit")
    return qubits(n_env + 1)


def haar_random_source(n_env: int, seed: int) -> DenseSource:
    """Haar-random pure state of one system qubit over n_env bath qubits.
    Its norm is a BLAS dot, rounded by OpenBLAS's thread count from
    n_env = 14 on, so it is taken with BLAS on one thread."""
    shape = _haar_shape(n_env)
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0x9A)))
    amps = rng.standard_normal(shape.total_dim) + 1j * rng.standard_normal(shape.total_dim)
    with _one_blas_thread():
        amps /= np.linalg.norm(amps)
    return DenseSource(StateVector(shape, amps), tag=f"haar-{seed}")


# ---------------------------------------------------------------------------
# partial-information plots

@dataclass(frozen=True)
class PIPPoint:
    f: float
    sharp_f: int
    mean_i: float
    stddev: float
    samples: int


@dataclass(frozen=True)
class PartialInfoPlot:
    """Averaged I(S : fragment) against f; the source's pure_global sets the sizes that count."""

    points: tuple
    source_tag: str
    h_system: float
    n_env: int
    pure_global: bool

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(self.points))
        fs = [p.f for p in self.points]
        if any(b <= a for a, b in zip(fs, fs[1:])):
            raise ValueError("fragment fractions must increase strictly")
        slack = 1e-8 * max(1.0, self.h_system)
        for p in self.points:
            if not -slack <= p.mean_i <= 2.0 * self.h_system + slack:
                raise ValueError(f"mean information {p.mean_i} outside [0, 2 H_S] at f = {p.f}")

    @property
    def fractions(self) -> np.ndarray:
        return np.array([p.f for p in self.points])

    @property
    def means(self) -> np.ndarray:
        return np.array([p.mean_i for p in self.points])

    def point_at(self, sharp_f: int) -> PIPPoint:
        for p in self.points:
            if p.sharp_f == sharp_f:
                return p
        raise KeyError(sharp_f)


def default_cardinalities(n: int) -> tuple[int, ...]:
    """Every size up to min(n, 64), then a sparse geometric tail to n."""
    if n < 1:
        raise ValueError("need at least one environment part")
    cards = list(range(min(n, 64) + 1))
    m = 64
    while m < n:
        m = max(m + 1, int(round(m * 1.25)))
        cards.append(min(m, n))
    return tuple(dict.fromkeys(cards))


def _draw_rows(n: int, m: int, count: int, rng, paired: bool) -> np.ndarray:
    """count distinct m-subsets of range(n), uniform without replacement,
    as the sorted rows of an np.intp matrix; every subset, in order, when
    no more than count exist. paired (2 m = n only): each row is followed
    by its complement, so an odd count rounds up, and a draw that repeats
    an earlier row or the complement of one is drawn again; every subset
    gives the combinations that hold position 0, each with its complement."""
    # comb(n, m) <= count; 0 < m < n gives comb >= n, so a large n skips the big comb
    if min(m, n - m) == 0 or (n <= count and math.comb(n, m) <= count):
        combos = np.array(list(itertools.combinations(range(n), m)), dtype=np.intp)
        combos = combos.reshape(len(combos), m)
        if not paired:
            return combos
        firsts = combos[:len(combos) // 2]  # lexicographic order puts those holding 0 first
        return np.stack((firsts, _complement_rows(firsts, n)), axis=1).reshape(-1, m)
    seen, out = set(), []
    while len(out) < count:
        pick = np.sort(rng.choice(n, size=m, replace=False))
        key = pick.tobytes()
        if key not in seen:
            seen.add(key)
            out.append(pick)
            if paired:
                out.append(_complement_rows(pick[None], n)[0])
                seen.add(out[-1].tobytes())
    return np.array(out, dtype=np.intp)


def _fragment_rows(source, m: int, count: int, stream: tuple, paired: bool) -> np.ndarray:
    """The size-m rows of one scanned size: one row of the first m sites
    for m = 0, m = n or a symmetric source, else _draw_rows on the stream's
    rng, in complement pairs at the half size if paired. build_pip draws
    (seed, m) paired; redundancy_of_decoherence (seed, 0x5D, m) unpaired."""
    n = source.n_env
    if m in (0, n) or source.symmetric:
        return np.arange(m, dtype=np.intp)[None]
    rng = np.random.default_rng(np.random.SeedSequence(stream))
    return _draw_rows(n, m, count, rng, paired and 2 * m == n)


def build_pip(source, fractions=None, samples_per_fraction: int = 24,
              seed: int = 0) -> PartialInfoPlot:
    """Sample the partial-information plot of a source.

    Fragment sizes come from `fractions` (rounded to site counts, the
    f = 0 and f = 1 endpoints always added) or from the default
    integer-then-geometric grid. Draws are uniform without replacement
    within each size and deterministic in `seed`; each size gets its own
    counter-keyed stream.

    Global purity is used here and nowhere else. For a pure_global
    source, a size past the half is read off its mirror, 2 H_S - I. At
    the half size of one that is not symmetric, the rows are complement
    pairs: the source solves the first row of each pair, and the second
    takes 2 H_S - I of it, so the point keeps every sample and its mean
    is H_S. A mixed source solves every row of every size.

    Source._mutual_info solves each size's draws, unchecked (they are
    valid), with BLAS on one thread, so the values do not depend on
    OPENBLAS_NUM_THREADS. A source that is not symmetric deals all its
    sizes, largest first, over numeric._forked_lanes, with the serial
    loop's values: the plot forks when OpenBLAS has threads, whatever its
    sizes cost (about 3 ms a fork). A caller with threads of its own (a
    Jupyter kernel) avoids that by OPENBLAS_NUM_THREADS=1 (Python 3.12+
    warns on such a fork). A symmetric source stays serial and ascending:
    one row per size, and the hazy lift cache climbs degree by degree,
    which a lane would do alone and a descending scan would restart once.
    """
    if samples_per_fraction < 1:
        raise ValueError("need at least one sample per fraction")
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    n = source.n_env
    if fractions is None:
        cards = default_cardinalities(n)
    else:
        ms = set()
        for f in fractions:
            if not 0.0 <= f <= 1.0:
                raise ValueError(f"fraction {f} outside [0, 1]")
            ms.add(int(round(float(f) * n)))
        cards = tuple(sorted(ms | {0, n}))
    h_s = source.system_entropy()
    pure = source.pure_global

    def sample(m: int) -> tuple[float, float, int]:
        rows = _fragment_rows(source, m, samples_per_fraction, (seed, m), True)
        paired = pure and not source.symmetric and 2 * m == n
        vals = source._mutual_info(rows[0::2] if paired else rows)
        if paired:  # each complement mirrors the row before it
            vals = np.stack((vals, 2.0 * h_s - vals), axis=1).ravel()
        sd = float(vals.std(ddof=1)) if len(vals) > 1 else 0.0
        return float(vals.mean()), sd, len(vals)

    sizes = sorted({min(m, n - m) if pure else m for m in cards}, reverse=not source.symmetric)
    stats = dict(zip(sizes, map(sample, sizes) if source.symmetric
                     else _forked_lanes(sample, sizes)))
    points = []
    for m in cards:
        key = min(m, n - m) if pure else m
        mean, sd, k = stats[key]
        if key != m:
            mean = 2.0 * h_s - mean
        points.append(PIPPoint(m / n, m, mean, sd, k))
    return PartialInfoPlot(tuple(points), source.tag, h_s, n, pure)


# ---------------------------------------------------------------------------
# redundancy

@dataclass(frozen=True)
class RedundancyReport:
    """Redundancy of a plot at information deficit delta."""

    delta: float
    f_delta: float | None
    r_delta: float
    plateau_reached: bool
    interpolated: bool

    def __post_init__(self):
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")
        if self.r_delta < 0.0:
            raise ValueError("negative redundancy")


def redundancy(pip: PartialInfoPlot, delta: float = 0.1) -> RedundancyReport:
    """How many disjoint fragments each miss at most delta of H_S.

    R = n / sharpF at the crossing of (1 - delta) H_S, searched on the
    sizes info._counted_sizes counts for the plot's n and purity and
    interpolated linearly between them; a size-1 crossing gives R = n
    exactly. A pure plot crosses by f = 1/2 or just past it, so R bottoms
    out near 2, the random-state baseline, where plateau_reached (some
    size a mixed plot counts too crossed) is False. With no crossing
    f_delta is None and r_delta the achieved fraction of the threshold.
    """
    n = pip.n_env
    means = {p.sharp_f: p.mean_i for p in pip.points}
    sharp, r, interpolated = _first_crossing(
        n, _counted_sizes(n, pip.pure_global, means), means.get, pip.h_system, delta)
    threshold = (1.0 - delta) * pip.h_system
    plateau = any(means[m] >= threshold for m in _counted_sizes(n, False, means))
    f_delta = None if sharp is None else sharp / n
    return RedundancyReport(delta, f_delta, r, plateau, interpolated)


# ---------------------------------------------------------------------------
# Haar baseline

def haar_baseline(n_env: int, states: int, samples: int, delta: float,
                  seed: int) -> list[float]:
    """R_delta of `states` Haar-random states over n_env bath qubits, in
    state order: state i is haar_random_source(n_env, seed + i), sampled
    by build_pip with samples per size and seed + i.

    The states are independent, so numeric._forked_lanes deals them over
    its lanes, each with BLAS on one thread; the values do not depend on
    the lane count. Inside a lane build_pip finds one lane and runs its
    sizes in line. The dense cap is checked before any fork.
    """
    _haar_shape(n_env)

    def one(i: int) -> float:
        pip = build_pip(haar_random_source(n_env, seed + i),
                        samples_per_fraction=samples, seed=seed + i)
        return redundancy(pip, delta).r_delta

    return _forked_lanes(one, range(states))


def redundancy_of_decoherence(source, delta_d: float = 0.1, seed: int = 0) -> float:
    """Redundancy measured on decoherence instead of information.

    Finds the mean fragment size (12 fragments per size) whose records alone
    push the system entropy to (1 - delta_d) H_S and returns n over it. Unlike
    the information crossing this one has no purity shortcut, so sizes
    run all the way to n, where the fully decohered system reaches H_S
    and the scan always crosses. A source with a closed-form
    decoherence_fraction skips the scan. An H_S at or below
    POLICY.spectrum_atol counts as zero and raises ValueError, as in
    info._first_crossing; so does a scan without a counterfactual.
    """
    if not 0.0 < delta_d < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    h_s = source.system_entropy()
    if h_s <= POLICY.spectrum_atol:
        raise ValueError("system entropy is zero; redundancy undefined")
    n = source.n_env
    f = source.decoherence_fraction(delta_d)
    if f is not None:
        return 1.0 / f if f > 0.0 else float(n)

    def mean_decohered(m: int) -> float:
        rows = _fragment_rows(source, m, 12, (seed, 0x5D, m), False)
        return float(np.mean(source.decohered_system_entropy(rows)))

    _, r, _ = _first_crossing(n, default_cardinalities(n)[1:], mean_decohered, h_s, delta_d)
    return r


def decompose_mutual_info(source, sites) -> tuple[float, float]:
    """Split I(S:F) into locally accessible and quantum parts.

    The parts are Source.decompose's, so a source without a
    counterfactual raises ValueError there; they are checked against the
    directly computed mutual information before being returned, a test of
    H_SF = H_F(0) + H(S decohered by E minus F).
    """
    row = check_rows([sorted(sites)], source.n_env)
    c, q = (float(part[0]) for part in source.decompose(row))
    i = float(source.fragment_mutual_info_many(row)[0])
    if abs(c + q - i) > 1e-9 * max(1.0, abs(i)):
        sites = tuple(row[0].tolist())
        raise ArithmeticError(f"decomposition defect {c + q - i:.3e} at sites {sites}")
    return c, q


# ---------------------------------------------------------------------------
# observable sweep

@dataclass(frozen=True)
class SweepPoint:
    mu: float
    holevo_info: float
    h_observable: float
    h_conditional: float
    fragments_passing: int
    redundant: bool


def observable_sweep(source, mu_grid, fragment_size: int, delta: float = 0.1) -> tuple:
    """Holevo information held by disjoint fragments about sigma(mu).

    sigma(mu) = cos(mu) sigma_z + sin(mu) sigma_x on a qubit system. The
    Holevo information of a block F is chi = H(F) - H(F | sigma(mu) on S),
    H(F) solved once per block and the conditional term from
    info.average_conditional_entropy, so chi is
    info.asymmetric_mutual_info(block, basis, (0,)) to the bit.
    fragments_passing counts the disjoint size-`fragment_size` blocks
    whose Holevo bound reaches (1 - delta) H(sigma). The redundant flag
    is the consistency condition on the system alone: measuring the
    pointer first leaves at most delta of H(sigma) unresolved. Only
    observables close to the pointer can satisfy it, whatever the
    fragments say.
    """
    if fragment_size < 1:
        raise ValueError("fragment size must be positive")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    state = source.state_vector()
    if state.shape.dims[0] != 2:
        raise ValueError("observable sweep needs a qubit system")
    n = source.n_env
    if fragment_size > n:
        raise ValueError("fragment exceeds the environment")
    rho_s = reduced_density(state, (0,)).mat
    blocks = [reduced_density(state, (0,) + tuple(range(s + 1, s + 1 + fragment_size)))
              for s in range(0, n - fragment_size + 1, fragment_size)]
    h_f = [von_neumann_entropy(partial_trace(b, range(1, fragment_size + 1))) for b in blocks]
    out = []
    for mu in np.asarray(mu_grid, dtype=float):
        c, s = math.cos(mu / 2.0), math.sin(mu / 2.0)
        kets = (np.array([c, s], dtype=complex), np.array([-s, c], dtype=complex))
        p_sig = np.clip([float(np.real(k.conj() @ rho_s @ k)) for k in kets], 0.0, 1.0)
        h_sig = shannon_entropy(p_sig)
        p_z = np.clip(np.real(np.diag(rho_s)), 0.0, 1.0)
        h_cond = sum(p_z[j] * shannon_entropy([abs(k[j]) ** 2 for k in kets])
                     for j in range(2))
        basis = MeasurementBasis.from_states(kets)
        chis = [h - average_conditional_entropy(b, basis, (0,)) for h, b in zip(h_f, blocks)]
        passing = int(sum(x >= (1.0 - delta) * h_sig for x in chis))
        redundant = bool(h_cond <= delta * h_sig + POLICY.spectrum_atol)
        out.append(SweepPoint(float(mu), float(np.mean(chis)), float(h_sig),
                              float(h_cond), passing, redundant))
    return tuple(out)


# ---------------------------------------------------------------------------
# export

CSV_HEADER = "f,sharpF,meanI_nats,stddev,samples"


def pip_to_csv(pip: PartialInfoPlot) -> str:
    """One row per fragment size; floats carry full round-trip precision."""
    rows = [CSV_HEADER]
    for p in pip.points:
        rows.append(f"{p.f!r},{p.sharp_f},{p.mean_i!r},{p.stddev!r},{p.samples}")
    return "\n".join(rows) + "\n"


def git_blob_sha(data: bytes) -> str:
    """Content hash in git's blob convention (matches `git hash-object`)."""
    h = hashlib.sha1(b"blob %d\x00" % len(data))
    h.update(data)
    return h.hexdigest()


def pip_manifest(pip: PartialInfoPlot, parameters: dict) -> dict:
    """Reproducibility sidecar for a CSV export."""
    return {
        "format": "darwinlab.pip.v1",
        "source": pip.source_tag,
        "n_env": pip.n_env,
        "h_system_nats": pip.h_system,
        "points": len(pip.points),
        "csv_sha": git_blob_sha(pip_to_csv(pip).encode("utf-8")),
        "parameters": dict(parameters),
    }
