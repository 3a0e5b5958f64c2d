"""Symmetry checks behind outcome probabilities.

Everything here is small and exact: repeatability forces orthogonal
outcome states, equal-magnitude Schmidt branches can be swapped and
unswapped by acting on the environment alone, finegraining an uneven
state into equiprobable sub-branches turns counting into probability,
and records over those branches form a Boolean algebra. Branch counts
stay in rational arithmetic until the output boundary; only the
frequency distribution (binomials up to M = 10^6) works in log space.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .info import ProbVector, _checked_projectors
from .numeric import POLICY, CapExceeded
from .qstate import (HilbertShape, StateVector, _sorted_positions, apply_unitary, qubits,
                     reduced_density)


def _orthonormal(rows: np.ndarray, atol: float) -> bool:
    g = rows @ rows.conj().T
    return bool(np.allclose(g, np.eye(rows.shape[0]), atol=atol, rtol=0.0))


@dataclass(frozen=True)
class SchmidtPair:
    """Bipartite pure state in explicit Schmidt form.

    coefficients holds the complex a_k (phases included); system_basis and
    env_basis are row-stacked orthonormal vectors, each a read-only copy. scale records the norm
    of the raw input when built through from_raw.
    """

    coefficients: np.ndarray
    system_basis: np.ndarray
    env_basis: np.ndarray
    scale: float = 1.0

    def __post_init__(self):
        a = np.array(self.coefficients, dtype=complex, order="C")
        sb = np.array(self.system_basis, dtype=complex, order="C")
        eb = np.array(self.env_basis, dtype=complex, order="C")
        if a.ndim != 1 or sb.ndim != 2 or eb.ndim != 2:
            raise ValueError("coefficients 1-d, bases 2-d (rows are vectors)")
        k = len(a)
        if sb.shape[0] != k or eb.shape[0] != k:
            raise ValueError("basis row count must match coefficient count")
        if sb.shape[1] < k or eb.shape[1] < k:
            raise ValueError("more branches than dimensions")
        nrm = float(np.linalg.norm(a))
        if not abs(nrm - 1.0) <= POLICY.state_atol:  # a nan norm fails too
            raise ValueError(f"coefficient norm {nrm!r} not a finite 1; from_raw renormalizes")
        if not _orthonormal(sb, POLICY.state_atol) or not _orthonormal(eb, POLICY.state_atol):
            raise ValueError("bases must be orthonormal")
        for name, arr in (("coefficients", a), ("system_basis", sb), ("env_basis", eb)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @classmethod
    def from_raw(cls, coefficients, system_basis=None, env_basis=None) -> "SchmidtPair":
        """Renormalize raw coefficients, recording the dropped scale factor.

        Missing bases default to the computational basis of the smallest
        fitting dimension.
        """
        a = np.asarray(coefficients, dtype=complex)
        k = len(a)
        if system_basis is None:
            system_basis = np.eye(k)
        if env_basis is None:
            env_basis = np.eye(k)
        nrm = float(np.linalg.norm(a))
        if nrm <= 0.0:
            raise ValueError("cannot normalize a zero vector")
        return cls(a / nrm, np.asarray(system_basis, dtype=complex),
                   np.asarray(env_basis, dtype=complex), scale=nrm)

    @property
    def n_branches(self) -> int:
        return len(self.coefficients)

    @property
    def dims(self) -> tuple[int, int]:
        return self.system_basis.shape[1], self.env_basis.shape[1]

    def to_state(self) -> StateVector:
        amps = np.einsum("k,ki,kj->ij", self.coefficients,
                         self.system_basis, self.env_basis).reshape(-1)
        return StateVector(HilbertShape(self.dims), amps)

    def rephased(self, phases) -> "SchmidtPair":
        ph = np.exp(1j * np.asarray(phases, dtype=float))
        if ph.shape != self.coefficients.shape:
            raise ValueError("one phase per branch")
        return SchmidtPair(self.coefficients * ph, self.system_basis,
                           self.env_basis, scale=self.scale)


# ------------------------------------------------------------ repeatability

@dataclass(frozen=True)
class PairOverlap:
    j: int
    k: int
    system_overlap: complex
    record_overlap: complex

    @property
    def defect(self) -> float:
        return abs(self.system_overlap * (1.0 - self.record_overlap))


@dataclass(frozen=True)
class OrthogonalityReport:
    pairs: tuple[PairOverlap, ...]
    perturbed: tuple[int, ...]
    passed: bool

    @property
    def max_defect(self) -> float:
        return max((p.defect for p in self.pairs), default=0.0)


def orthogonality_check(s_states, transfer_unitary, env_init) -> OrthogonalityReport:
    """Repeatability test for a candidate copying unitary.

    Each |s_j>|e_0> is pushed through the unitary; if the system factor
    comes back unperturbed (residual within sqrt(1e-9)) the environment
    record e_j is extracted and every pair must satisfy
    <s_j|s_k>(1 - <e_j|e_k>) = 0 within 1e-9: distinguishable
    records require orthogonal states, and failed transfer (identical
    records) puts no constraint. States the unitary perturbs are flagged,
    not fatal.
    """
    atol = 1e-9
    s_states = [np.asarray(s, dtype=complex).reshape(-1) for s in s_states]
    env0 = np.asarray(env_init, dtype=complex).reshape(-1)
    d_s, d_e = len(s_states[0]), len(env0)
    u = np.asarray(transfer_unitary, dtype=complex)
    if u.shape != (d_s * d_e, d_s * d_e):
        raise ValueError("unitary must act on system x environment")
    records: list[np.ndarray | None] = []
    perturbed = []
    for j, s in enumerate(s_states):
        out = (u @ np.kron(s, env0)).reshape(d_s, d_e)
        rec = s.conj() @ out
        residual = float(np.linalg.norm(out - np.outer(s, rec)))
        if residual > math.sqrt(atol):
            perturbed.append(j)
            records.append(None)
        else:
            records.append(rec / np.linalg.norm(rec))
    pairs = []
    ok = not perturbed
    for j in range(len(s_states)):
        for k in range(j + 1, len(s_states)):
            if records[j] is None or records[k] is None:
                continue
            s_ov = complex(np.vdot(s_states[j], s_states[k]))
            r_ov = complex(np.vdot(records[j], records[k]))
            pair = PairOverlap(j, k, s_ov, r_ov)
            pairs.append(pair)
            if pair.defect > atol:
                ok = False
    return OrthogonalityReport(tuple(pairs), tuple(perturbed), ok)


# ------------------------------------------------------- swap / counterswap

def _two_level_swap(basis: np.ndarray, k: int, l: int, dim: int,
                    phase_kl: complex = 1.0) -> np.ndarray:
    """Unitary exchanging basis rows k and l, identity elsewhere.

    phase_kl multiplies |k><l|; its conjugate multiplies |l><k|.
    """
    vk, vl = basis[k], basis[l]
    u = np.eye(dim, dtype=complex)
    u -= np.outer(vk, vk.conj()) + np.outer(vl, vl.conj())
    u += phase_kl * np.outer(vk, vl.conj())
    u += np.conj(phase_kl) * np.outer(vl, vk.conj())
    return u


@dataclass(frozen=True)
class SwapResult:
    swapped: StateVector
    restored: StateVector
    counterswap: np.ndarray = field(repr=False)
    fidelity: float
    envariant: bool


def swap_and_counterswap(pair: SchmidtPair, k: int, l: int) -> SwapResult:
    """Swap branches k and l on the system, then undo on the environment.

    The counterswap exchanges the two records and carries the phase
    factors exp(+-i(phi_k - phi_l)) of the coefficients. Restoration is
    exact only for equal magnitudes |a_k| = |a_l| (within 1e-10); unequal
    magnitudes are reported as non-envariant and the achieved fidelity,
    (1 - (|a_k| - |a_l|)^2)^2 < 1, is returned rather than raised on.
    """
    _sorted_positions([k, l], pair.n_branches)  # two distinct branches, in range
    d_s, d_e = pair.dims
    a_k, a_l = pair.coefficients[k], pair.coefficients[l]
    envariant = abs(abs(a_k) - abs(a_l)) <= 1e-10
    psi = pair.to_state()
    u_s = _two_level_swap(pair.system_basis, k, l, d_s)
    # exp(i(phi_l - phi_k)) |e_l><e_k| + h.c., from the coefficient phases
    rel = np.exp(1j * (np.angle(a_k) - np.angle(a_l)))
    u_e = _two_level_swap(pair.env_basis, k, l, d_e, phase_kl=rel)
    swapped = apply_unitary(psi, u_s, [0])
    restored = apply_unitary(swapped, u_e, [1])
    return SwapResult(swapped, restored, u_e, psi.fidelity(restored), envariant)


def phase_shift_and_undo(pair: SchmidtPair, phases) -> float:
    """Put branch phases on via the system, take them off via the
    environment; returns the fidelity with the untouched state (1 for any
    phases: phase envariance)."""
    ph = np.asarray(phases, dtype=float)
    if ph.shape != (pair.n_branches,):
        raise ValueError("one phase per branch")
    d_s, d_e = pair.dims
    u_s = np.eye(d_s, dtype=complex)
    u_e = np.eye(d_e, dtype=complex)
    for m in range(pair.n_branches):
        s_m, e_m = pair.system_basis[m], pair.env_basis[m]
        u_s += (np.exp(1j * ph[m]) - 1.0) * np.outer(s_m, s_m.conj())
        u_e += (np.exp(-1j * ph[m]) - 1.0) * np.outer(e_m, e_m.conj())
    psi = pair.to_state()
    out = apply_unitary(apply_unitary(psi, u_s, [0]), u_e, [1])
    return psi.fidelity(out)


# ------------------------------------------------------------- finegraining

@dataclass(frozen=True)
class FineGrainSpec:
    """Integer branch multiplicities; outcome k is granted mu_k of the
    M = sum(mu) equiprobable fine branches. Zero entries are legal and
    yield probability exactly 0."""

    numerators: tuple[int, ...]

    def __post_init__(self):
        nums = tuple(int(m) for m in self.numerators)
        if not nums or any(m < 0 for m in nums):
            raise ValueError("numerators must be nonnegative integers")
        if sum(nums) < 1:
            raise ValueError("at least one branch required")
        if sum(nums) > POLICY.finegrain_cap:
            raise CapExceeded(f"M = {sum(nums)} exceeds cap {POLICY.finegrain_cap}")
        object.__setattr__(self, "numerators", nums)

    @property
    def m(self) -> int:
        return sum(self.numerators)


@dataclass(frozen=True)
class BornResult:
    fractions: tuple[Fraction, ...]
    m: int

    @property
    def probs(self) -> ProbVector:
        return ProbVector(np.array([float(f) for f in self.fractions]))


def fine_grain_born(spec: FineGrainSpec) -> BornResult:
    """Outcome probabilities by counting envariantly swappable branches.

    The ancilla-conditional map |k>|0'> => |k>|k'> splits outcome k into
    mu_k fine branches of squared amplitude exactly 1/M. Equal magnitudes
    make every pair of fine branches swappable, hence equiprobable, and
    the probability of outcome k is the exact rational mu_k / M. No
    floating point is involved.
    """
    m = spec.m
    fractions = tuple(Fraction(mu, m) for mu in spec.numerators)
    assert sum(fractions) == 1
    return BornResult(fractions, m)


def approximate_weights(weights, m: int) -> FineGrainSpec:
    """Nearest M-branch finegraining of arbitrary weights (largest
    remainder); each probability lands within 1/M of its target."""
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or np.any(w < 0):
        raise ValueError("weights must be a nonnegative vector")
    s = w.sum()
    if s <= 0:
        raise ValueError("weights sum to zero")
    raw = w / s * m
    base = np.floor(raw).astype(int)
    short = m - int(base.sum())
    order = np.argsort(raw - base)[::-1]
    base[order[:short]] += 1
    return FineGrainSpec(tuple(int(b) for b in base))


def coarse_grain_probability(n_branches: int, subset) -> Fraction:
    """Probability of a coarse-grained event over equiprobable branches:
    exactly n_subset / N, additive over disjoint subsets."""
    if n_branches < 1:
        raise ValueError("need at least one branch")
    keep, _ = _sorted_positions(subset, n_branches)
    return Fraction(len(keep), n_branches)


# ----------------------------------------------------------- record algebra

# tolerance of record projectors and of the Boolean-algebra identities over them
_RECORD_ATOL = 1e-12


@dataclass(frozen=True)
class RecordProjectorSet:
    """Commuting idempotents over a common record space, checked as a
    projector set by info._checked_projectors, within _RECORD_ATOL, and
    kept as read-only copies."""

    projectors: tuple[np.ndarray, ...]

    def __post_init__(self):
        mats = _checked_projectors(self.projectors, _RECORD_ATOL)
        for i in range(len(mats)):
            for j in range(i + 1, len(mats)):
                if not np.allclose(mats[i] @ mats[j], mats[j] @ mats[i],
                                   atol=_RECORD_ATOL, rtol=0.0):
                    raise ValueError("projectors do not commute")
        for p in mats:
            p.setflags(write=False)
        object.__setattr__(self, "projectors", mats)

    @classmethod
    def from_subsets(cls, dim: int, subsets) -> "RecordProjectorSet":
        mats = []
        for sub in subsets:
            keep, _ = _sorted_positions(sub, dim)
            p = np.zeros((dim, dim), dtype=complex)
            p[keep, keep] = 1.0
            mats.append(p)
        return cls(tuple(mats))

    @property
    def dim(self) -> int:
        return self.projectors[0].shape[0]


@dataclass(frozen=True)
class AlgebraReport:
    defects: dict
    passed: bool

    @property
    def max_defect(self) -> float:
        return max(self.defects.values())


def record_algebra_check(pset) -> AlgebraReport:
    """Verify the Boolean-algebra identities on a commuting projector set.

    Meet is the product, join is P + Q - PQ, complement is 1 - P. Reports
    the worst elementwise defect per identity; it passes when every defect
    is within _RECORD_ATOL, the tolerance RecordProjectorSet checks with.
    Non-commuting input fails RecordProjectorSet validation before any
    identity is checked.
    """
    if not isinstance(pset, RecordProjectorSet):
        pset = RecordProjectorSet(tuple(pset))
    mats = pset.projectors
    eye = np.eye(pset.dim, dtype=complex)

    def meet(p, q):
        return p @ q

    def join(p, q):
        return p + q - p @ q

    def dev(a, b):
        return float(np.max(np.abs(a - b))) if a.size else 0.0

    defects = {"commutativity": 0.0, "idempotence": 0.0, "associativity": 0.0,
               "absorption": 0.0, "distributivity": 0.0, "orthocomplement": 0.0}
    for p in mats:
        defects["idempotence"] = max(defects["idempotence"], dev(p @ p, p))
        defects["orthocomplement"] = max(
            defects["orthocomplement"],
            dev(meet(p, eye - p), np.zeros_like(p)),
            dev(join(p, eye - p), eye),
            dev(eye - (eye - p), p))
    for p in mats:
        for q in mats:
            defects["commutativity"] = max(defects["commutativity"], dev(p @ q, q @ p))
            defects["absorption"] = max(defects["absorption"],
                                        dev(join(p, meet(p, q)), p),
                                        dev(meet(p, join(p, q)), p))
            defects["orthocomplement"] = max(
                defects["orthocomplement"],
                dev(eye - meet(p, q), join(eye - p, eye - q)))
            for r in mats:
                defects["associativity"] = max(
                    defects["associativity"],
                    dev(meet(meet(p, q), r), meet(p, meet(q, r))),
                    dev(join(join(p, q), r), join(p, join(q, r))))
                defects["distributivity"] = max(
                    defects["distributivity"],
                    dev(meet(p, join(q, r)), join(meet(p, q), meet(p, r))))
    return AlgebraReport(defects, all(v <= _RECORD_ATOL for v in defects.values()))


# ------------------------------------------------------- branch frequencies

def branch_frequencies(m_total: int, weights) -> np.ndarray:
    """Distribution of the number of 1-outcomes among M branches.

    p(m) = C(M, m) w0^(M-m) w1^m, computed with log-domain binomials so
    M up to 10^6 stays finite, then normalized (raw log-space roundoff is
    below 1e-12 but not exactly zero). The weights (w0, w1) are checked as
    an info.ProbVector, which clips rounding negatives to 0.
    """
    if not 1 <= m_total <= POLICY.env_cap:
        raise CapExceeded(f"M = {m_total} outside [1, {POLICY.env_cap}]")
    w0, w1 = (float(w) for w in ProbVector(weights).probs)
    from scipy.special import gammaln  # only this helper needs scipy.special

    counts = np.arange(m_total + 1)
    if w1 == 0.0 or w0 == 0.0:
        out = np.zeros(m_total + 1)
        out[-1 if w0 == 0.0 else 0] = 1.0
        return out
    logp = (gammaln(m_total + 1) - gammaln(counts + 1) - gammaln(m_total - counts + 1)
            + (m_total - counts) * math.log(w0) + counts * math.log(w1))
    p = np.exp(logp - logp.max())
    return p / p.sum()


# ------------------------------------------------------------ agent circuit

def _haar_qubit_unitary(rng: np.random.Generator) -> np.ndarray:
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


@dataclass(frozen=True)
class CircuitStep:
    label: str
    agent_purity: float
    se_fidelity: float


@dataclass(frozen=True)
class CircuitTrace:
    steps: tuple[CircuitStep, ...]
    final_agent_prob0: float

    @property
    def final(self) -> CircuitStep:
        return self.steps[-1]

    @property
    def restored(self) -> bool:
        return (self.final.agent_purity >= 1.0 - 1e-10
                and self.final.se_fidelity >= 1.0 - 1e-10)


def agent_circuit(system_phase: float, seed: int,
                  counterswap: str = "proper") -> CircuitTrace:
    """Interferometric swap test on one agent qubit.

    Hadamard splits the agent; its 1-branch swaps the two system states
    of an entangled SE pair (random Schmidt bases drawn from seed, branch
    phase system_phase); a conditional counterswap on E alone undoes the
    swap, so the closing Hadamard returns the agent to |0> pure and SE to
    its pre-swap state. counterswap = "omit" skips the undo and "wrong_wire"
    applies it to S instead, both leaving the agent mixed.
    """
    if counterswap not in ("proper", "omit", "wrong_wire"):
        raise ValueError(f"unknown counterswap mode {counterswap!r}")
    rng = np.random.default_rng(seed)
    u_s = _haar_qubit_unitary(rng)
    u_e = _haar_qubit_unitary(rng)
    s_basis, e_basis = u_s.T, u_e.T
    pair = SchmidtPair(np.array([1.0, np.exp(1j * system_phase)]) / math.sqrt(2),
                       s_basis, e_basis)
    psi_se = pair.to_state().amps
    state = StateVector(qubits(3), np.kron(np.array([1.0, 0.0]), psi_se))

    hadamard = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2)
    swap_s = _two_level_swap(s_basis, 0, 1, 2)
    # phase_kl = exp(i(phi_0 - phi_1)); acting on e_0 this deposits the
    # conjugate, exp(i phi), which the A=1 branch needs to rejoin the pair
    cswap_e = _two_level_swap(e_basis, 0, 1, 2, phase_kl=np.exp(-1j * system_phase))

    def controlled(u):
        out = np.eye(4, dtype=complex)
        out[2:, 2:] = u
        return out

    def step(label, st):
        rho_a = reduced_density(st, [0]).mat
        rho_se = reduced_density(st, [1, 2]).mat
        purity = float(np.real(np.trace(rho_a @ rho_a)))
        fid = float(np.real(psi_se.conj() @ rho_se @ psi_se))
        return CircuitStep(label, purity, fid)

    steps = [step("prepare", state)]
    state = apply_unitary(state, hadamard, [0])
    steps.append(step("hadamard", state))
    state = apply_unitary(state, controlled(swap_s), [0, 1])
    steps.append(step("swap(S|A=1)", state))
    if counterswap == "proper":
        state = apply_unitary(state, controlled(cswap_e), [0, 2])
        steps.append(step("counterswap(E|A=1)", state))
    elif counterswap == "wrong_wire":
        state = apply_unitary(state, controlled(cswap_e), [0, 1])
        steps.append(step("counterswap(S|A=1)", state))
    state = apply_unitary(state, hadamard, [0])
    steps.append(step("hadamard", state))
    prob0 = float(np.sum(np.abs(state.as_grid()[0]) ** 2))
    return CircuitTrace(tuple(steps), prob0)


# ---------------------------------------------------------------- reversal

@dataclass(frozen=True)
class ReversalResult:
    without_copy_fidelity: float
    with_copy_state: np.ndarray = field(repr=False)
    scale: float


def reversal_demo(amplitudes) -> ReversalResult:
    """Premeasurement undone, with and without an external copy.

    U_SA correlates an apparatus with the system; applying its adjoint
    restores the input exactly. If the apparatus record is first copied
    to a third register, the adjoint leaves the system in the dephased
    mixture diag(|alpha_s|^2): the copy makes the branch structure
    irreversible from inside.
    """
    a = np.asarray(amplitudes, dtype=complex).reshape(-1)
    d = len(a)
    if d < 2:
        raise ValueError("need at least two amplitudes")
    scale = float(np.linalg.norm(a))
    if scale <= 0.0:
        raise ValueError("cannot normalize a zero vector")
    a = a / scale
    shape = HilbertShape((d, d, d))
    shift = np.roll(np.eye(d, dtype=complex), 1, axis=0)
    u_corr = np.zeros((d * d, d * d), dtype=complex)
    for s in range(d):
        u_corr[s * d:(s + 1) * d, s * d:(s + 1) * d] = np.linalg.matrix_power(shift, s)

    grid = np.zeros((d, d, d), dtype=complex)
    grid[:, 0, 0] = a
    psi0 = StateVector(shape, grid.reshape(-1))

    premeasured = apply_unitary(psi0, u_corr, [0, 1])
    undone = apply_unitary(premeasured, u_corr.conj().T, [0, 1])
    without = psi0.fidelity(undone)

    copied = apply_unitary(premeasured, u_corr, [1, 2])
    undone_after_copy = apply_unitary(copied, u_corr.conj().T, [0, 1])
    rho_s = reduced_density(undone_after_copy, [0]).mat
    return ReversalResult(float(without), rho_s, scale)
