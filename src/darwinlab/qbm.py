"""Quantum Brownian motion with an ohmic bath of discrete bands.

Everything is Gaussian: states are (means, covariance) pairs and the
bilinear Hamiltonian acts by a symplectic matrix exponential, taken with
numeric.expm (numpy only; no Gaussian run imports scipy). Covariances
are stored in per-mode natural units (every mode's ground state is I/2),
with modes interleaved as (x_0, p_0, x_1, p_1, ...); mode 0 is the
tracked oscillator, modes 1..B the bath bands. The unit choice keeps the
matrix norm near s^2/2 instead of s^2 * max(m omega), which is what keeps
global symplectic eigenvalues at 1/2 to ~1e-10 after evolution.

A GaussianState is validated once, when it is built. Marginals are
principal sub-blocks of a valid covariance, so they inherit that
validation instead of repeating it; H_S is solved once per state.

The symplectic spectrum is solved in real arithmetic. With Delta = L L^T,
K = L^T Omega L is real antisymmetric, so the real symmetric K^T K holds
each nu^2 exactly twice; one symmetric eigensolve of it replaces the
complex Hermitian one of i K. Its absolute error in nu^2 is about
eps * nu_max^2, so a vacuum-like nu next to a strongly mixed one
(nu_max ~ 10^3) is still good to a few 1e-10. evolved_purity_defect
keeps the complex route, as an independent check of global purity.

qbm_mutual_info_many takes one fragment size at a time, and one
Cholesky factorization per fragment serves both entropies. With mode 0
first, Delta_SF = L L^T and the F rows of L, L_F = L[2:], give
Delta_F = L_F L_F^T. L_F is 2m x (2m + 2), so K = L_F^T Omega L_F holds
the m pairs nu^2 of Delta_F plus one zero pair, whose area max(2 nu, 1)
is 1 and adds exactly 0 to the entropy. (The F-first order, where the
factor of Delta_F is the leading block of L, moves values ten times
further from a separate factorization of Delta_F.) Rows are gathered,
factorized and solved as stacks, in slabs that bound the working set.

Lanes and BLAS. qbm_evolve and qbm_mutual_info_many run with numpy's
bundled OpenBLAS pinned to one thread (numeric._one_blas_thread), because
its threads gain nothing on matrices of a few hundred rows and change the
rounding. The thread count OpenBLAS had becomes the number of lanes: the
calling thread is lane 0 and starts one helper thread per further lane;
lane j takes slabs j, j + lanes, j + 2 lanes, ... and writes only their
rows of the result. A size with 2m + 2 <= _ONE_LANE_DIM = 20 runs on one
lane, with no helper thread. _slab_rows sizes a slab by matrix elements:
as many (2m + 2)-square matrices as _SLAB_ELEMS holds, at least _SLAB_ROWS
and at most ceil(count / lanes), so that each lane gets a slab. A second
lane pays only on stacks of many matrices; with fixed 6-row slabs, two
lanes lost to one on every size below 2m + 2 = 86 at 128 bands (the table
at _SLAB_ROWS). A helper lane calls only this module's private
helpers and numpy, so every public call stays on the caller's thread.
Every helper is joined before the call returns, and an error raised in
any lane is re-raised to the caller then. The bytes do not depend on the
lane count, nor on OPENBLAS_NUM_THREADS. On a numpy without bundled
scipy-openblas the path runs one lane with BLAS as shipped.

hbar = 1 throughout.
"""
from __future__ import annotations

import math
import threading
import warnings
from dataclasses import dataclass, field

import numpy as np

from .numeric import POLICY, CapExceeded, _one_blas_thread, expm
from .qstate import _sorted_positions, check_rows

# fragment rows per stacked gather, factorization and eigensolve, in each
# lane (_slab_rows). Every lane holds its own slab, so peak memory follows
# the matrix elements in flight: on the oscillator-bands workload, two lanes
# of fixed 8-row slabs peaked at 51.9 MB and two of 6 rows at 49.1-50.0 MB.
# _SLAB_ELEMS caps a slab at six 130 x 130 matrices, the largest slab of a
# 128-band plot (m = 64, the half size of a pure state). Smaller matrices
# come in taller stacks, which is what a second lane needs: two threads
# sharing 384 stacked eigvalsh ran 1.25-1.86x faster than one on 48-matrix
# stacks at 2m + 2 = 34-130, but 0.81-0.82x on 6-matrix stacks at 34 and 66.
# Two lanes against one, per fragment size at 128 bands, 48 fragments a
# size (best of 5 calls, two rounds; 2-vCPU x86 box):
#
#   2m + 2              18         34         50         66         86         98
#   fixed 6-row slabs   0.53-0.82  0.63-0.84  0.82-0.89  0.84-0.85  1.18-1.69  1.48-1.81
#   element-sized       0.84-0.89  0.99-1.62  1.73-1.77  1.40-1.64  1.60-1.77  1.59-1.64
#
# Up to 2m + 2 = _ONE_LANE_DIM a size runs on one lane, whatever the lane
# count: there the helper thread's start outweighs its share (128 bands, 48
# fragments, best of 7 calls: m = 1 took 0.38-0.39 ms on one lane and
# 0.85-0.89 ms on two, m = 8 1.85-1.95 ms against 2.45 ms). The cut is the
# break-even: in four rounds of 15 interleaved calls (medians), m = 9
# (2m + 2 = 20) took 2.6-3.2 ms on one lane and 3.8-4.7 ms on two, m = 10
# 3.3-5.0 ms against 3.2-4.4 ms; over 12 rounds of three measures one lane
# won m = 9 in all 12 and two lanes won m = 10 in 9. The _SLAB_ROWS floor
# binds above 2m + 2 = 130: a pure element budget cut m = 96 and 128 at 256
# bands to 2 and 1 rows a slab and made them 40-55 % slower on two lanes.
_SLAB_ROWS = 6
_SLAB_ELEMS = _SLAB_ROWS * 130 ** 2
_ONE_LANE_DIM = 20


def _symplectic_form(n_modes: int) -> np.ndarray:
    j = np.array([[0.0, 1.0], [-1.0, 0.0]])
    return np.kron(np.eye(n_modes), j)


def _omega_times(a: np.ndarray) -> np.ndarray:
    """Omega @ a (for each matrix of a stack) without forming Omega: swap
    each (x, p) row pair and negate the new p row."""
    out = np.empty_like(a)
    out[..., 0::2, :] = a[..., 1::2, :]
    out[..., 1::2, :] = -a[..., 0::2, :]
    return out


def _cholesky(cov: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:
        raise ValueError("covariance not positive definite") from exc


def _symplectic_spectrum(l: np.ndarray) -> np.ndarray:
    """Ascending nu along the last axis, from a factor l (or a stack of
    factors) of a covariance, Delta = l l^T; GaussianState.symplectic_eigenvalues
    says why. Each column of l beyond its rows adds half a zero pair."""
    k = l.swapaxes(-1, -2) @ _omega_times(l)
    lam = np.linalg.eigvalsh(k.swapaxes(-1, -2) @ k)
    return np.sqrt(np.clip(lam[..., 1::2], 0.0, None))


def _spectrum_entropy(nus: np.ndarray) -> np.ndarray:
    """Entropy in nats summed over the last axis of nu: gaussian_entropy of
    each area max(2 nu, 1), as one array expression."""
    a = np.maximum(2.0 * nus, 1.0)
    am1 = a - 1.0
    lo = am1 * np.log(np.where(am1 > 0.0, am1, 1.0))
    return np.sum(0.5 * ((a + 1.0) * np.log(a + 1.0) - lo) - math.log(2.0), axis=-1)


@dataclass
class GaussianState:
    """Means and covariance of a multi-mode Gaussian state.

    cov[i, j] = <{R_i, R_j}>/2 - <R_i><R_j| with R = (x_0, p_0, x_1, ...)
    in scaled units, so any vacuum block is diag(1/2, 1/2).

    Validation (shape, symmetry, uncertainty principle) happens once, at
    construction. marginal() inherits it without re-checking: a principal
    sub-block of a valid covariance is itself valid, and entropy() still
    raises if a covariance fails its Cholesky factorization. A state is a
    value; do not modify its arrays after construction.
    """

    means: np.ndarray
    cov: np.ndarray
    # H_S of mode 0, filled in by the first qbm_system_entropy call
    _h_system: float | None = field(default=None, init=False, repr=False,
                                    compare=False)
    # global symplectic spectrum, kept from validation; None when unchecked
    _nus: np.ndarray | None = field(default=None, init=False, repr=False,
                                    compare=False)

    def __post_init__(self):
        self.means = np.asarray(self.means, dtype=float)
        self.cov = np.asarray(self.cov, dtype=float)
        n = len(self.means)
        if n % 2 != 0 or self.cov.shape != (n, n):
            raise ValueError("means/covariance size mismatch or odd dimension")
        if not np.allclose(self.cov, self.cov.T, atol=POLICY.symplectic_atol):
            raise ValueError("covariance must be symmetric")
        self._nus = self.symplectic_eigenvalues()
        nu_min = float(np.min(self._nus))
        if nu_min < 0.5 - self._nu_slack():
            raise ValueError(f"uncertainty principle violated: min nu = {nu_min}")

    def _nu_slack(self) -> float:
        """Slack on nu = 1/2, relative to scale: extracting nu from a
        covariance of norm ~s^2 costs ~eps * s^2 in float64, far above any
        fixed 1e-8."""
        return POLICY.symplectic_atol * max(1.0, float(np.max(np.abs(self.cov))))

    def is_pure(self) -> bool:
        """True when every nu is 1/2 within the slack validation allows, so
        the state is globally pure. Reads the spectrum kept from validation,
        else solves it."""
        nus = self._nus if self._nus is not None else self.symplectic_eigenvalues()
        return bool(np.max(nus) <= 0.5 + self._nu_slack())

    @property
    def n_modes(self) -> int:
        return len(self.means) // 2

    def marginal(self, modes) -> "GaussianState":
        # distinct in-range modes keep the block principal, hence valid
        keep, _ = _sorted_positions(modes, self.n_modes)
        idx = np.array(keep, dtype=np.intp)
        rows = np.stack([2 * idx, 2 * idx + 1], axis=1).ravel()
        return GaussianState._unchecked(self.means[rows], self.cov[np.ix_(rows, rows)])

    @classmethod
    def _unchecked(cls, means: np.ndarray, cov: np.ndarray) -> "GaussianState":
        """Wrap arrays already known to form a valid state, skipping
        __post_init__."""
        state = object.__new__(cls)
        state.means = means
        state.cov = cov
        return state

    def symplectic_eigenvalues(self) -> np.ndarray:
        """Symplectic eigenvalues nu, ascending: the moduli of the spectrum
        of i Omega Delta, one per mode.

        Via Cholesky Delta = L L^T they are the moduli of the eigenvalues
        of the real antisymmetric K = L^T Omega L, which is well conditioned
        even when entries span many orders of magnitude. K^T K = -K^2 is
        real symmetric with each nu^2 exactly twice, so its ascending
        spectrum pairs up and every second value is one nu^2. The absolute
        error in nu^2 is about eps * nu_max^2.
        """
        return _symplectic_spectrum(_cholesky(self.cov))

    def entropy(self) -> float:
        """Von Neumann entropy in nats, summed over symplectic eigenvalues."""
        return float(_spectrum_entropy(self.symplectic_eigenvalues()))


def symplectic_area(delta: np.ndarray) -> float:
    """a = sqrt(det Delta) / (hbar/2) for a single-mode 2x2 covariance block."""
    delta = np.asarray(delta, dtype=float)
    if delta.shape != (2, 2):
        raise ValueError("expected a 2x2 covariance block")
    det = float(np.linalg.det(delta))
    if det < 0.25 - POLICY.symplectic_atol:
        raise ValueError(f"determinant {det} below the vacuum bound 1/4")
    return 2.0 * math.sqrt(max(det, 0.25))


def gaussian_entropy(a: float) -> float:
    """Entropy of a single effective mode with symplectic area a:

        H(a) = ((a+1) ln(a+1) - (a-1) ln(a-1))/2 - ln 2

    Approaches ln(e a / 2) from below; the relative gap is 1.4% at a = 3
    and under 1% from a ~ 4 up.
    """
    if a < 1.0 - POLICY.symplectic_atol:
        raise ValueError("symplectic area below 1")
    a = max(a, 1.0)
    hi = (a + 1.0) * math.log(a + 1.0)
    lo = (a - 1.0) * math.log(a - 1.0) if a > 1.0 else 0.0
    return 0.5 * (hi - lo) - math.log(2.0)


@dataclass
class OhmicBathParams:
    """Discretization of an ohmic spectral density with a sharp cutoff.

    Band n sits at omega_n = (n + 1/2) d_omega with d_omega = cutoff/bands;
    squared couplings C_n^2 = (4 m_S M_n gamma0 / pi) omega_n^2 d_omega
    reproduce I(omega) = 2 m_S gamma0 omega / pi on [0, cutoff]. The
    masses m_S and M_n drop out once every mode is rescaled to vacuum
    units (scaled_couplings), so they are not parameters. The
    discretization is only meaningful up to the recurrence time 2 pi/d_omega.
    """

    system_freq: float = 4.0
    damping: float = 0.025
    cutoff: float = 16.0
    bands: int = 128

    def __post_init__(self):
        if self.bands < 1:
            raise ValueError("need at least one band")
        if self.bands > POLICY.band_cap:
            raise CapExceeded(f"{self.bands} bands exceeds cap {POLICY.band_cap}")
        if self.cutoff <= 0 or self.system_freq <= 0:
            raise ValueError("frequencies must be positive")

    @property
    def d_omega(self) -> float:
        return self.cutoff / self.bands

    @property
    def band_freqs(self) -> np.ndarray:
        return (np.arange(self.bands) + 0.5) * self.d_omega

    @property
    def recurrence_time(self) -> float:
        return 2.0 * math.pi / self.d_omega

    def scaled_couplings(self) -> np.ndarray:
        """x_0 x_n coefficients after both modes are rescaled to vacuum units."""
        return 2.0 * np.sqrt(self.damping * self.d_omega * self.band_freqs
                             / (math.pi * self.system_freq))


def qbm_generator(bath: OhmicBathParams) -> np.ndarray:
    """K with dR/dt = K R for the scaled, interleaved phase-space vector."""
    n = bath.bands + 1
    freqs = np.concatenate([[bath.system_freq], bath.band_freqs])
    m = np.zeros((2 * n, 2 * n))
    m[::2, ::2] = np.diag(freqs)
    m[1::2, 1::2] = np.diag(freqs)
    c = bath.scaled_couplings()
    m[0, 2::2] = c
    m[2::2, 0] = c
    return _symplectic_form(n) @ m


def squeezed_start(bath: OhmicBathParams, squeezing: float, direction: str) -> GaussianState:
    """System mode squeezed by amplitude factor s, bath bands in vacuum.

    direction "x" shrinks the position spread to x_vac/s (variance 1/(2s^2));
    "p" shrinks the momentum spread. An s-squeezed state decoheres to
    H_S near ln s, and the stretched quadrature carries variance s^2/2,
    which bounds the covariance norm the evolution has to handle.
    """
    if squeezing < 1.0:
        raise ValueError("squeezing factor must be >= 1")
    if direction not in ("x", "p"):
        raise ValueError("direction must be 'x' or 'p'")
    n = bath.bands + 1
    cov = 0.5 * np.eye(2 * n)
    if direction == "x":
        cov[0, 0] = 0.5 / squeezing ** 2
        cov[1, 1] = 0.5 * squeezing ** 2
    else:
        cov[0, 0] = 0.5 * squeezing ** 2
        cov[1, 1] = 0.5 / squeezing ** 2
    return GaussianState(np.zeros(2 * n), cov)


def _propagator(bath: OhmicBathParams, t: float) -> np.ndarray:
    if t >= bath.recurrence_time:
        warnings.warn(f"t = {t} is past the recurrence time "
                      f"{bath.recurrence_time:.3g}; band discretization invalid",
                      stacklevel=3)
    return expm(t * qbm_generator(bath))


def qbm_evolve(bath: OhmicBathParams, squeezing: float, direction: str,
               t: float) -> GaussianState:
    """Exact symplectic evolution of the squeezed start for time t."""
    with _one_blas_thread():
        start = squeezed_start(bath, squeezing, direction)
        s = _propagator(bath, t)
        return GaussianState(s @ start.means, s @ start.cov @ s.T)


def evolved_purity_defect(bath: OhmicBathParams, squeezing: float, direction: str,
                          t: float) -> float:
    """max |nu - 1/2| over global symplectic eigenvalues after evolution.

    Uses the factored form Delta = B (I/2) B^T with B = propagator times the
    diagonal squeezer, a product of symplectic maps; the only rounding is
    one column scaling, so the defect reflects the state itself instead of
    the ~eps * ||Delta|| noise of re-extracting nu from the dense covariance.
    It keeps the complex Hermitian eigvalsh of i B^T Omega B, so it checks
    global purity independently of the real route in symplectic_eigenvalues.
    """
    if direction not in ("x", "p"):
        raise ValueError("direction must be 'x' or 'p'")
    n = bath.bands + 1
    scales = np.ones(2 * n)
    scales[0] = 1.0 / squeezing if direction == "x" else squeezing
    scales[1] = squeezing if direction == "x" else 1.0 / squeezing
    b = _propagator(bath, t) * scales[None, :]
    m = b.T @ _symplectic_form(n) @ b
    nus = np.linalg.eigvalsh(1j * m) / 2.0
    return float(np.max(np.abs(nus[nus > 0] - 0.5)))


def qbm_system_entropy(state: GaussianState) -> float:
    """H_S of mode 0, solved on the first call and kept on the state."""
    if state._h_system is None:
        state._h_system = state.marginal([0]).entropy()
    return state._h_system


def qbm_mutual_info_many(state: GaussianState, idx) -> np.ndarray:
    """I(S : F) for every row F of idx, a (count, m) matrix of sorted,
    repeat-free band indices; band i is phase-space mode i + 1.

    The rows are checked once per call. Each slab of rows gathers its SF
    covariances, mode 0 first, as one stack and takes one stacked Cholesky;
    the F rows of each factor are a factor of Delta_F (module docstring).
    H_S comes from qbm_system_entropy. The slabs are split across lanes,
    with BLAS on one thread (module docstring).
    """
    idx = check_rows(idx, state.n_modes - 1)
    count, m = idx.shape
    out = np.zeros(count)
    if not (count and m):
        return out
    h_s = qbm_system_entropy(state)
    modes = np.concatenate((np.zeros((count, 1), dtype=np.intp), idx + 1), axis=1)
    rows = np.stack((2 * modes, 2 * modes + 1), axis=2).reshape(count, 2 * m + 2)
    cov = state.cov

    def lane(first: int, lanes: int) -> None:
        for lo in range(first * slab, count, lanes * slab):
            r = rows[lo:lo + slab]
            l = _cholesky(cov[r[:, :, None], r[:, None, :]])
            h_f = _spectrum_entropy(_symplectic_spectrum(l[:, 2:]))
            h_sf = _spectrum_entropy(_symplectic_spectrum(l))
            out[lo:lo + len(r)] = h_s + h_f - h_sf

    with _one_blas_thread() as lanes:
        if 2 * m + 2 <= _ONE_LANE_DIM:
            lanes = 1
        slab = _slab_rows(m, count, lanes)
        _in_lanes(min(lanes, math.ceil(count / slab)), lane)
    return out


def _slab_rows(m: int, count: int, lanes: int) -> int:
    """Rows per slab for count fragments of m bands: as many (2m + 2)-square
    matrices as _SLAB_ELEMS holds, at least _SLAB_ROWS, and at most
    ceil(count / lanes), so that every lane gets a slab."""
    budget = max(_SLAB_ROWS, _SLAB_ELEMS // (2 * m + 2) ** 2)
    return min(budget, math.ceil(count / lanes))


def _in_lanes(lanes: int, work) -> None:
    """work(lane, lanes) for lane = 0 .. lanes - 1: lane 0 on the calling
    thread, each other lane on a helper thread. Every helper is joined
    before this returns; then the error of the lowest failed lane, if any,
    is raised."""
    errors = [None] * lanes

    def helper(lane: int) -> None:
        try:
            work(lane, lanes)
        except BaseException as exc:  # raised again in the caller below
            errors[lane] = exc

    threads = []
    try:
        for lane in range(1, lanes):
            thread = threading.Thread(target=helper, args=(lane,))
            thread.start()
            threads.append(thread)
        work(0, lanes)
    finally:
        for thread in threads:
            thread.join()
    for exc in errors:
        if exc is not None:
            raise exc


def universal_pip(h_s: float, f: float) -> float:
    """I(f) = H_S + ln(f/(1-f))/2, the decohered-oscillator PIP shape."""
    if not 0.0 < f < 1.0:
        raise ValueError("fraction must be strictly inside (0, 1)")
    return h_s + 0.5 * math.log(f / (1.0 - f))


def qbm_redundancy(squeezing: float, delta: float) -> float:
    """R_delta = s^(2 delta): exponential in the deficit, unlike spin baths."""
    if squeezing <= 1.0:
        raise ValueError("squeezing factor must exceed 1")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    return squeezing ** (2.0 * delta)
