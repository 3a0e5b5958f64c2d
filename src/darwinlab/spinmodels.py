"""Concrete system-environment spin models.

All Hamiltonians here commute with the system's z operator (pure
decoherence): a c-not imprinting chain, a central spin coupled to
non-interacting bath qubits, the same bath with intra-environment
couplings (dense evolution), and a central-spin bath whose qubits start
partly mixed ("hazy"), purified by local ancillas.

The hazy model with site-independent couplings is permutation symmetric
over the bath, so reduced spectra decompose into spin-sector blocks of
size O(m) instead of 2^m. That is what makes bath sizes of ~10^2 with
per-qubit ancillas tractable. A sector block lifts a 2x2 site matrix to
its symmetric power, built one degree at a time by the Clebsch-Gordan
isometry step (O(d^2) per degree, no eigensolve).
Every system start (a, b) is checked as a one-qubit StateVector, by
_system_start, and weighted |a|^2, |b|^2 by _start_weights; no model
checks a normalization or squares an amplitude by hand.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numeric import POLICY, CapExceeded, brentq
from .branching import BranchingState
from .info import LN2, _counted_sizes, _entropy_from_eigs, _first_crossing
from .qstate import HilbertShape, StateVector, evolve_diagonal, qubits, tensor

PLUS = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
HALF = complex(1.0 / np.sqrt(2.0))


def _system_start(system_init) -> StateVector:
    """A system start (a, b) as a one-qubit StateVector: the one start rule."""
    return StateVector(qubits(1), system_init)


def _start_weights(amps) -> np.ndarray:
    """The branch weights |a|^2, |b|^2 of a start's amplitudes, by scalar
    abs: the one weight rule of every model (numpy's vectorised abs rounds
    differently in the last bit)."""
    return np.array([abs(a) ** 2 for a in amps])


# ---------------------------------------------------------------------------
# c-not chain

def cnot_model(a: complex, b: complex, n: int) -> BranchingState:
    """Perfect-record model: every bath qubit copies the pointer index.

    Two branches with weights (|a|^2, |b|^2); conditional states are the
    orthogonal computational states, so one qubit already carries a full
    classical record.
    """
    a, b = _system_start((a, b)).amps
    probs = _start_weights((a, b))
    phases = np.array([np.angle(a), np.angle(b)])
    conds = np.tile(np.eye(2, dtype=complex), (n, 1, 1))
    return BranchingState(probs, phases, conds)


# ---------------------------------------------------------------------------
# central spin, non-interacting bath

@dataclass
class CentralSpinParams:
    """Couplings d_i (inverse time), elapsed time, and the initial states.

    env_init may be a single qubit ket shared by all bath sites or an
    (N, 2) array of per-site kets; the default |+> maximizes per-qubit
    record capacity (a z eigenstate would only pick up phases and record
    nothing).
    """

    couplings: np.ndarray
    t: float
    system_init: tuple[complex, complex] = (HALF, HALF)
    env_init: np.ndarray | None = None

    def __post_init__(self):
        self.couplings = np.atleast_1d(np.asarray(self.couplings, dtype=float))
        if self.couplings.ndim != 1 or len(self.couplings) < 1:
            raise ValueError("couplings must be a nonempty vector")

    @property
    def n_env(self) -> int:
        return len(self.couplings)

    def env_kets(self) -> np.ndarray:
        if self.env_init is None:
            return np.tile(PLUS, (self.n_env, 1))
        e = np.asarray(self.env_init, dtype=complex)
        if e.ndim == 1:
            e = np.tile(e / np.linalg.norm(e), (self.n_env, 1))
        if e.shape != (self.n_env, 2):
            raise ValueError("env_init must be a qubit ket or an (N, 2) array")
        return e


def uniform_couplings(rng, n: int) -> np.ndarray:
    """Site couplings drawn uniformly from (0, 1]."""
    return 1.0 - rng.random(n)


def central_spin_branching(p: CentralSpinParams) -> BranchingState:
    """Branching state of H = sigma^z sum_i d_i sigma^z_i at time t.

    Branch 0 (system |0>) evolves site i by exp(-i d_i t sigma^z), branch 1
    by the conjugate, so the conditional overlap is
    <env_i| exp(+2 i d_i t sigma^z) |env_i>, i.e. cos(2 d_i t) from |+>.
    """
    a, b = _system_start(p.system_init).amps
    kets = p.env_kets()
    probs = _start_weights((a, b))
    phases = np.array([np.angle(a), np.angle(b)])
    ph = np.exp(-1j * p.couplings[:, None] * p.t * np.array([1.0, -1.0]))
    conds = np.stack([ph * kets, ph.conj() * kets], axis=1)
    return BranchingState(probs, phases, conds)


def plateau_mutual_info(h_s: float, d_env: int, sharp_e: int, sharp_f: float) -> float:
    """Plateau form of I(S:F) for random-ish conditional bath states:

        I = H_S - (e^{H_S} - 1)/2 * (d^-sharpF - d^-(sharpE - sharpF))
    """
    ex = math.exp(h_s) - 1.0
    return h_s - 0.5 * ex * (d_env ** (-sharp_f) - d_env ** (-(sharp_e - sharp_f)))


def redundancy_estimate(h_s: float, d_env: int, sharp_e: int, delta: float) -> tuple[float, float]:
    """Analytic fragment size and redundancy at information deficit delta:

        sharpF_delta = (H_S - ln(2 delta H_S)) / ln d_env,   R = sharpE / sharpF_delta
    """
    if h_s <= 0 or not 0 < delta < 1:
        raise ValueError("need H_S > 0 and 0 < delta < 1")
    sharp_f = (h_s - math.log(2.0 * delta * h_s)) / math.log(d_env)
    if sharp_f <= 0:
        raise ValueError(f"estimate breaks down: sharpF = {sharp_f!r} <= 0")
    return sharp_f, sharp_e / sharp_f


def hazy_redundancy_estimate(r_pure: float, h: float) -> float:
    """First-order mixed-environment correction R^h = (1 - h/h_m) R, h_m = ln 2;
    h is checked as a HazyParams, and its slack past ln 2 reads as ln 2."""
    HazyParams(h)
    return (1.0 - min(h, LN2) / LN2) * r_pure


# ---------------------------------------------------------------------------
# interacting environment (dense)

@dataclass
class InteractingEnvParams:
    """Central-spin couplings plus symmetric intra-bath pair couplings.

    pair_couplings must be symmetric with zero diagonal; entry (j, k) is
    used once per unordered pair.
    """

    couplings: np.ndarray
    pair_couplings: np.ndarray
    t: float

    def __post_init__(self):
        self.couplings = np.asarray(self.couplings, dtype=float)
        self.pair_couplings = np.asarray(self.pair_couplings, dtype=float)
        n = len(self.couplings)
        if self.pair_couplings.shape != (n, n):
            raise ValueError("pair coupling matrix shape mismatch")
        if not np.allclose(self.pair_couplings, self.pair_couplings.T, atol=0.0):
            raise ValueError("pair couplings must be symmetric")
        if np.any(np.diagonal(self.pair_couplings) != 0.0):
            raise ValueError("pair couplings must have zero diagonal")
        if 2 ** (n + 1) > POLICY.dim_cap:
            raise CapExceeded(f"{n}+1 qubits exceeds the dense cap")

    @property
    def n_env(self) -> int:
        return len(self.couplings)


def random_interacting_params(rng, n: int, t: float, sigma_d: float = 0.1,
                              sigma_m: float = 0.001) -> InteractingEnvParams:
    d = rng.normal(0.0, sigma_d, size=n)
    m = rng.normal(0.0, sigma_m, size=(n, n))
    m = np.triu(m, 1)
    m = m + m.T
    return InteractingEnvParams(d, m, t)


# basis states per block of interacting_phase_vector: the (block, n) sigma^z
# matrix then stays near 0.7 MB at the dense cap, where the whole basis would
# take 168 MB
_PHASE_BLOCK = 2 ** 12


def _z_values(n: int, lo: int, hi: int) -> np.ndarray:
    """(hi - lo, n) matrix of sigma^z eigenvalues of computational basis
    states lo .. hi - 1."""
    idx = np.arange(lo, hi, dtype=np.int64)
    bits = (idx[:, None] >> np.arange(n - 1, -1, -1)) & 1
    return 1.0 - 2.0 * bits


def interacting_phase_vector(p: InteractingEnvParams) -> np.ndarray:
    """Energy-times-time phases of H = sz sum_i d_i sz_i + sum_{j<k} m_jk sz_j sz_k
    over the (system, bath_1..bath_N) computational basis, built over blocks
    of at most _PHASE_BLOCK basis states. H is even under flipping every
    qubit (i -> 2^n - 1 - i), so the second half of the basis is the first
    reversed; the vector equals its reversal bit for bit, which the dense
    kernel's flip split (qstate._flip_symmetric) needs of an even start."""
    n = p.n_env + 1
    half = 2 ** (n - 1)
    energy = np.empty(2 ** n)
    for lo in range(0, half, _PHASE_BLOCK):
        z = _z_values(n, lo, min(lo + _PHASE_BLOCK, half))
        zs, ze = z[:, 0], z[:, 1:]
        energy[lo:lo + len(z)] = (zs * (ze @ p.couplings)
                                  + 0.5 * np.einsum("bi,ij,bj->b", ze, p.pair_couplings, ze))
    energy[half:] = energy[half - 1::-1]
    return p.t * energy


def interacting_evolve(p: InteractingEnvParams,
                       system_init: tuple[complex, complex] = (HALF, HALF),
                       env_init: np.ndarray | None = None) -> StateVector:
    """Exact dense state at time t; system is subsystem 0."""
    kets = CentralSpinParams(p.couplings, p.t, system_init, env_init).env_kets()
    state = tensor(_system_start(system_init), StateVector(qubits(p.n_env), _product_amps(kets)))
    return evolve_diagonal(state, interacting_phase_vector(p))


def _product_amps(kets: np.ndarray) -> np.ndarray:
    amps = np.array([1.0], dtype=complex)
    for k in kets:
        amps = np.kron(amps, k)
    return amps


# ---------------------------------------------------------------------------
# hazy (partly mixed) environment

@dataclass(frozen=True)
class HazyParams:
    """Per-qubit pre-existing entropy h (nats) out of the qubit capacity
    h_m = ln 2."""

    h: float

    def __post_init__(self):
        if not 0.0 <= self.h <= LN2 + 1e-12:
            raise ValueError(f"need 0 <= h <= {LN2}")


def binary_entropy(q: float) -> float:
    if q <= 0.0 or q >= 1.0:
        return 0.0
    return float(-q * np.log(q) - (1 - q) * np.log(1 - q))


def haze_weight(h: float) -> float:
    """Invert h = -q ln q - (1-q) ln(1-q) on the branch q in [1/2, 1]."""
    if h < 0 or h > LN2 + 1e-12:
        raise ValueError("qubit entropy must lie in [0, ln 2]")
    if h >= LN2:
        return 0.5
    if h == 0.0:
        return 1.0
    return brentq(lambda q: binary_entropy(q) - h, 0.5, 1.0 - 1e-16, 1e-15)


def _sym_step(a: np.ndarray, lift: np.ndarray) -> np.ndarray:
    """Sym^d(A) from lift = Sym^(d-1)(A) through the Clebsch-Gordan isometry
    |d, r> = sqrt((d - r)/d) |x>|d-1, r> + sqrt(r/d) |y>|d-1, r-1>. All weights
    are at most one, so accuracy holds up with d; the cross terms are added
    first, as conjugate pairs, so a Hermitian A keeps the lift exactly Hermitian.
    Its second cross term is then the conjugate transpose of the first, bit
    for bit, and is not formed again (the hazy kernel's rho_mix is Hermitian).
    """
    d = len(lift)
    r = np.arange(d + 1)
    cx, cy = np.sqrt((d - r) / d), np.sqrt(r / d)
    pad = np.zeros((d + 2, d + 2), dtype=np.result_type(a, lift))
    pad[1:-1, 1:-1] = lift
    x = a[0, 1] * (np.outer(cx, cy) * pad[1:, :-1])
    # the test is cheap on Python scalars; the products keep numpy's, since
    # with a Python complex numpy's reuse of a large temporary moves last bits
    (a00, a01), (a10, a11) = a.tolist()
    if a10 == a01.conjugate() and a00 == a00.conjugate() and a11 == a11.conjugate():
        cross = x + x.conj().T
    else:
        cross = x + a[1, 0] * (np.outer(cy, cx) * pad[:-1, 1:])
    return (a[0, 0] * (np.outer(cx, cx) * pad[1:, 1:]) + cross
            + a[1, 1] * (np.outer(cy, cy) * pad[:-1, :-1]))


# largest power taken of a mantissa in [1/2, 1) by _sector_weights: it is
# at least 2^-1000, still a normal float
_POW_STEP = 1000


def _sector_weights(m: int, c: float) -> np.ndarray:
    """mult(m, d) c^k for the degrees d = m % 2, m % 2 + 2, ..., m of m
    qubits, k = (m - d)/2, with mult(m, d) = C(m, k) - C(m, k - 1) exact.
    A crisp bath (c = 0) keeps only k = 0, weight 1.

    From m = 1035 some multiplicities pass the largest float, and c^k can
    fall below the smallest while the weight does not, so both factors are
    carried as a mantissa times a power of two: mult = f 2^b from the exact
    integer, and c^k = g 2^(k ec) for c = fc 2^ec, 1/2 <= fc < 1, with
    g = fc^k taken in powers of at most _POW_STEP, which stay normal. A
    weight is rounded about three times at any m; where float(mult) and
    c**k are both normal floats, it has the bits of their product.
    """
    k = np.arange(m // 2, -1, -1)
    if c == 0.0:
        return (k == 0).astype(float)
    f, bits, prev, comb = [], [], 0, 1
    for i in range(m // 2 + 1):
        mult = comb - prev
        bits.append(mult.bit_length())
        f.append(mult / (1 << bits[-1]))
        prev, comb = comb, comb * (m - i) // (i + 1)
    fc, ec = math.frexp(c)
    g, e = 1.0, np.array(bits[::-1]) + ec * k
    for lo in range(0, m // 2, _POW_STEP):
        g, shift = np.frexp(g * fc ** np.minimum(np.maximum(k - lo, 0), _POW_STEP))
        e += shift
    return np.ldexp(np.array(f[::-1]) * g, e)


class HazyCentralSpin:
    """Central spin over N bath qubits that start with entropy h each.

    Site couplings must be equal; every bath qubit is purified by a local
    ancilla, and observers hold bath qubits only. Permutation symmetry
    turns all reduced spectra into per-sector blocks, exact for any N.

    The branch maps u0 = diag(e^{-ia}, e^{ia}) (a = coupling t) and u1 = u0*
    give site states x = u0 rho_mix u0^+, y = u1 rho_mix u1^+ of determinant
    c = q(1 - q); the fragment block of m qubits in the sector of degree
    d = 2j is c^((m - d)/2) (p0 Sym^d x + p1 Sym^d y). Sym^d u0 is diagonal,
    so that sum is (Sym^d rho_mix) o Phi_d, Phi_d[r, s] = p0 e^{2ia(r-s)}
    + p1 e^{-2ia(r-s)}: one lift step and one spectrum per degree, all m,
    solved in real arithmetic, as two half-size blocks when p0 = p1
    (_eigs_of_degree). Each spectrum is kept as its moments
    A_d = sum lam ln lam, B_d = sum lam, so H_F(m) = -sum_d mult(m, d) c^k
    (A_d + k ln c B_d), k = (m - d)/2, is one array expression per size, with
    weights mult(m, d) c^k that stay finite past m = 1035 (_sector_weights);
    a crisp bath (c = 0) reads ln c as 0, so only k = 0 survives.
    The joint state of system and fragment is a controlled unitary
    applied to P_m (x) rho_mix^(x m), with P_m the system decohered by
    the n - m sites outside the fragment, so H_SF = m H(q) + H(P_m).
    A size outside [0, n] raises ValueError.
    """

    def __init__(self, n: int, coupling: float, t: float, haze: HazyParams,
                 system_init: tuple[complex, complex] = (HALF, HALF)):
        if n < 1:
            raise ValueError("need at least one bath qubit")
        self.n = n
        self.coupling = float(coupling)
        self.t = float(t)
        self.haze = haze
        self.amps = _system_start(system_init).amps
        self.p = _start_weights(self.amps)
        self.q = haze_weight(haze.h)
        phase = np.exp(-1j * self.coupling * self.t * np.array([1.0, -1.0]))
        u0 = np.diag(phase)
        u1 = np.diag(phase.conj())
        plus = np.outer(PLUS, PLUS.conj()).real
        self.rho_mix = self.q * plus + (1 - self.q) * (np.eye(2) - plus)
        # per-site branch overlap; independent of q
        self.g = float(np.trace(self.rho_mix @ u1.conj().T @ u0).real)
        # per degree d: A_d = sum lam ln lam and B_d = sum lam; nan until solved
        self._moments = np.full((2, n + 1), np.nan)
        self._lift = np.ones((1, 1))  # Sym^d rho_mix, d = len - 1
        self._h_s = self.decohered_entropy(n)

    def _check_size(self, m: int) -> None:
        if not 0 <= m <= self.n:
            raise ValueError("fragment size out of range")

    def decohered_entropy(self, k: int) -> float:
        """Entropy of the system once k bath sites have decohered it. Its
        coherence enters by modulus: a diagonal phase makes the 2x2 state
        real without moving its spectrum."""
        self._check_size(k)
        off = abs(self.amps[0] * self.amps[1].conjugate() * self.g ** k)
        rho = np.array([[self.p[0], off], [off, self.p[1]]])
        return _entropy_from_eigs(np.linalg.eigvalsh(rho))

    def system_entropy(self) -> float:
        return self._h_s

    def _eigs_of_degree(self, d: int) -> np.ndarray:
        """Spectrum of the degree-d block B = (Sym^d rho_mix) o Phi_d, ascending
        and clipped at 0, solved in real arithmetic. Sym^d rho_mix is real and
        invariant under the flip J (J_rs = delta_{r, d-s}), and J Phi_d J is
        the conjugate of Phi_d, so J B J = conj(B) and C = Re B - (Im B) J,
        which is U^+ B U for U = (I + iJ)/sqrt(2), is real symmetric with B's
        spectrum. At p0 = p1, Im B = 0 and C commutes with J: with
        k = (d + 1) // 2, a = C[:k, :k] and cj[r, s] = C[r, d - s], the
        J-odd block is a - cj and the J-even block a + cj, bordered for odd
        d + 1 by sqrt(2) C[:k, k] and C[k, k]; only the top d // 2 + 1 rows
        of C are formed. The lift climbs one _sym_step per degree; a degree
        below the lift restarts it at degree 0."""
        if d < len(self._lift) - 1:
            self._lift = np.ones((1, 1))
        while len(self._lift) <= d:
            self._lift = _sym_step(self.rho_mix, self._lift)
        p0, p1 = self.p
        rows = d + 1 if p0 != p1 else d // 2 + 1
        r = np.arange(d + 1)
        theta = 2.0 * self.coupling * self.t * np.subtract.outer(r[:rows], r)
        c = self._lift[:rows] * ((p0 + p1) * np.cos(theta))
        if p0 != p1:
            c -= (self._lift * ((p0 - p1) * np.sin(theta)))[:, ::-1]
            lam = np.linalg.eigvalsh(c)
        else:
            k = (d + 1) // 2
            cj = c[:k, ::-1][:, :k]
            even = c[:, :rows].copy()
            even[:k, :k] += cj
            even[k:, :k] *= math.sqrt(2.0)
            even[:k, k:] *= math.sqrt(2.0)
            lam = np.concatenate((np.linalg.eigvalsh(c[:k, :k] - cj), np.linalg.eigvalsh(even)))
            lam.sort()
        return np.maximum(lam, 0.0, out=lam)

    def fragment_entropy(self, m: int) -> float:
        """Entropy of m bath qubits (ancillas and system traced out)."""
        self._check_size(m)
        d = np.arange(m % 2, m + 1, 2)
        for deg in d[np.isnan(self._moments[0, d])]:  # each degree solved once, ascending
            lam = self._eigs_of_degree(int(deg))
            # no absolute floor here: sector multiplicities reach 1e12+,
            # so even 1e-14 eigenvalues can carry real weight
            self._moments[:, deg] = np.sum(lam * np.log(np.where(lam > 0.0, lam, 1.0))), np.sum(lam)
        c = self.q * (1.0 - self.q)
        log_c = math.log(c) if c > 0.0 else 0.0  # crisp bath: only k = 0 survives
        a, b = self._moments[:, d]
        return float(-np.sum(_sector_weights(m, c) * (a + (m - d) // 2 * log_c * b)))

    def joint_entropy(self, m: int) -> float:
        """Entropy of the system plus m bath qubits."""
        return m * binary_entropy(self.q) + self.decohered_entropy(self.n - m)

    def mutual_info(self, m: int) -> float:
        if m == 0:
            return 0.0
        return self.system_entropy() + self.fragment_entropy(m) - self.joint_entropy(m)

    def dense_export(self) -> StateVector:
        """(system, qubit+ancilla pairs interleaved) for small-N oracle checks."""
        q = self.q
        chi = (np.sqrt(q) * np.kron(PLUS, [1, 0])
               + np.sqrt(1 - q) * np.kron(np.array([1, -1]) / np.sqrt(2), [0, 1]))
        phase = np.exp(-1j * self.coupling * self.t * np.array([1.0, -1.0]))
        u = [np.kron(np.diag(phase), np.eye(2)), np.kron(np.diag(phase.conj()), np.eye(2))]
        dims = (2,) + (2,) * (2 * self.n)
        shape = HilbertShape(dims)
        amps = np.zeros(shape.total_dim, dtype=complex)
        for k in range(2):
            branch = np.zeros(2, dtype=complex)
            branch[k] = self.amps[k]
            per_site = u[k] @ chi
            for _ in range(self.n):
                branch = np.kron(branch, per_site)
            amps += branch
        return StateVector(shape, amps)


def hazy_redundancy(base: CentralSpinParams, hp: HazyParams, delta: float = 0.1) -> float:
    """Redundancy at deficit delta for the hazy central-spin model.

    Site couplings must be equal (the permutation-symmetric fast path), and
    the bath starts at the model's |+> haze, so a set base.env_init raises.
    The crossing of (1 - delta) H_S is interpolated linearly between the
    integer sizes info._counted_sizes counts for a mixed plot (observers
    hold no purifying ancillas); with no crossing the value is the achieved
    fraction of the threshold (< 1). No counted size, or delta outside
    (0, 1), raises.
    """
    d = base.couplings
    if np.any(d != d[0]):
        raise ValueError("fast path requires equal couplings")
    if base.env_init is not None:
        raise ValueError("the hazy bath starts at its own haze; env_init must be None")
    model = HazyCentralSpin(base.n_env, float(d[0]), base.t, hp, base.system_init)
    _, r, _ = _first_crossing(model.n, _counted_sizes(model.n, False, range(1, model.n + 1)),
                              model.mutual_info, model.system_entropy(), delta)
    return r
