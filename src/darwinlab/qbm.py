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
complex Hermitian one of i K. Its absolute error in nu^2 grows with the
squeezing: on S+F covariances of the 128-band state at t = 3, the fresh
product of the whole factor was off the complex route by up to 14, 74
and 540 eps * nu_max^2 at squeezing 1, 1e2 and 1e3 along x, the K_F
update below (the fragment kernel's) by at most 16. evolved_purity_defect
keeps the complex route, as an independent check of global purity.

qbm_mutual_info_many takes one fragment size at a time, and one
Cholesky factorization and one product K^T K per fragment serve both
entropies. With mode 0 first, Delta_SF = L L^T and the F rows of L,
L_F = L[2:], give Delta_F = L_F L_F^T. L_F is 2m x (2m + 2), so
K_F = L_F^T Omega L_F holds the m pairs nu^2 of Delta_F plus one zero
pair, whose area max(2 nu, 1) is 1 and adds exactly 0 to the entropy.
(The F-first order, where the factor of Delta_F is the leading block of
L, moves values ten times further from a separate factorization of
Delta_F.) The system rows of L are nonzero in columns 0 and 1 only, so
K_SF = K_F + l_00 l_11 J on entries (0, 1) and (1, 0), and K_SF^T K_SF
is K_F^T K_F changed in rows and columns 0 and 1 alone: after H_F, that
O(m) update in place gives H_SF. The update always adds the system
(F to SF); taking it away would cancel nu_S^2 ~ 10^4 down to ~1/4.

A globally pure state (GaussianState.is_pure) has H_F = H_SC and
H_SF = H_C for the complement C of F. At the half size, a row whose
complement is also a row (qstate._complement_rows, the dense kernel's
rule) is not solved: it takes its partner's two entropies swapped, so
I(C) = 2 H_S - I(F). Rows are gathered, factorized and solved as
stacks, in slabs that bound the working set.

BLAS. qbm_evolve and qbm_mutual_info_many run with numpy's bundled
OpenBLAS pinned to one thread (numeric._one_blas_thread), because its
threads gain nothing on matrices of a few hundred rows and change the
rounding, so the bytes do not depend on OPENBLAS_NUM_THREADS. The thread
budget goes to whole fragment sizes instead: build_pip deals a plot's
sizes over forked lanes (numeric._forked_lanes), darwinlab's one lane
mechanism. _slab_rows sizes a slab by matrix elements: as many
(2m + 2)-square matrices as _SLAB_ELEMS holds, and at least _SLAB_ROWS.
On a numpy without bundled scipy-openblas the path runs with BLAS as
shipped.

hbar = 1 throughout.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .numeric import POLICY, CapExceeded, _one_blas_thread, expm
from .qstate import _complement_rows, _sorted_positions, check_rows

# fragment rows per stacked gather, factorization and eigensolve
# (_slab_rows). Peak memory follows the matrix elements in flight: a slab
# holds at most four stacks of its (2m + 2)-square matrices at once, the
# factor L, K_F, K^T K and eigvalsh's working copy of K^T K (the gathered
# covariances go once factorized), and _slab_spectra frees them all before
# the next slab is gathered. _SLAB_ELEMS caps a slab at six 130 x 130
# matrices per stack, the largest slab of a 128-band plot (m = 64, the half
# size of a pure state); smaller matrices come in taller stacks. The
# _SLAB_ROWS floor binds above 2m + 2 = 130.
_SLAB_ROWS = 6
_SLAB_ELEMS = _SLAB_ROWS * 130 ** 2


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
    return _square_spectrum(k.swapaxes(-1, -2) @ k)


def _square_spectrum(kk: np.ndarray) -> np.ndarray:
    """Ascending nu from K^T K (or a stack): its ascending eigenvalues pair
    up, and every second one is one nu^2."""
    lam = np.linalg.eigvalsh(kk)
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
        spectrum pairs up and every second value is one nu^2, off by up to
        about 540 eps * nu_max^2 at squeezing 1e3 (module docstring).
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

    The rows are checked once per call. Each slab of rows is solved by
    _slab_spectra: one stacked Cholesky of the SF covariances, mode 0
    first, and one product K^T K per row for both entropies (module
    docstring). On a globally pure state, a half-size row whose complement
    came earlier in idx takes that row's entropies swapped instead. H_S
    comes from qbm_system_entropy. BLAS runs on one thread (module
    docstring).
    """
    idx = check_rows(idx, state.n_modes - 1)
    count, m = idx.shape
    if not (count and m):
        return np.zeros(count)
    h_s = qbm_system_entropy(state)
    partner = _complement_rows(idx, 0, state.n_modes - 1)
    borrow = (partner >= 0) & (partner < np.arange(count))
    if borrow.any() and not state.is_pure():
        borrow[:] = False
    solve = np.flatnonzero(~borrow)
    h_f, h_sf = np.empty(count), np.empty(count)
    with _one_blas_thread():
        slab = _slab_rows(m)
        for lo in range(0, len(solve), slab):
            rows = solve[lo:lo + slab]
            nu_f, nu_sf = _slab_spectra(state.cov, idx[rows])
            h_f[rows] = _spectrum_entropy(nu_f)
            h_sf[rows] = _spectrum_entropy(nu_sf)
    mate = partner[borrow]
    h_f[borrow], h_sf[borrow] = h_sf[mate], h_f[mate]
    return h_s + h_f - h_sf


def _slab_spectra(cov: np.ndarray, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(nu of Delta_F, nu of Delta_SF) for each fragment row of a slab, the
    first with one zero pair: one gather of the SF covariances, mode 0
    first, one stacked Cholesky and one product K_F^T K_F, updated in place
    to K_SF^T K_SF (module docstring). The slab's factor and products are
    freed on return, before the next slab is gathered."""
    modes = np.concatenate((np.zeros((len(idx), 1), dtype=np.intp), idx + 1), axis=1)
    r = np.stack((2 * modes, 2 * modes + 1), axis=2).reshape(len(idx), -1)
    l = _cholesky(cov[r[:, :, None], r[:, None, :]])
    l_f = l[:, 2:]
    k = l_f.swapaxes(-1, -2) @ _omega_times(l_f)
    kk = k.swapaxes(-1, -2) @ k
    nu_f = _square_spectrum(kk)
    # K_SF = K_F + D, D = c (e0 e1^T - e1 e0^T): K_F^T D + D^T K_F adds c
    # times row 0 of K_F to column and row 1 and takes c times row 1 from
    # column and row 0; D^T D adds c^2 to entries (0, 0) and (1, 1)
    c = l[:, 0, 0] * l[:, 1, 1]
    row0, row1 = c[:, None] * k[:, 0], c[:, None] * k[:, 1]
    kk[:, :, 0] -= row1
    kk[:, :, 1] += row0
    kk[:, 0] -= row1
    kk[:, 1] += row0
    kk[:, 0, 0] += c * c
    kk[:, 1, 1] += c * c
    return nu_f, _square_spectrum(kk)


def _slab_rows(m: int) -> int:
    """Rows per slab for fragments of m bands: as many (2m + 2)-square
    matrices as _SLAB_ELEMS holds, and at least _SLAB_ROWS."""
    return max(_SLAB_ROWS, _SLAB_ELEMS // (2 * m + 2) ** 2)


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
