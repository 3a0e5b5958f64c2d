"""Entropies and correlation measures.

All quantities are in nats internally (the analytic closed forms downstream
are stated in natural log); use to_bits() at the output boundary when
base-2 numbers are wanted.

Every entropy measured on one subsystem, darwin's observable sweep too,
goes through one conditioning rule, _conditional_entropies.

Subsystem positions follow qstate's one rule: a sequence, in any order, of
integers inside range(n) with no repeats; a repeated or non-integer
position raises ValueError rather than collapsing or being truncated.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .numeric import POLICY
from .qstate import DensityMatrix, _entropy_from_eigs, _sorted_positions, partial_trace

LN2 = float(np.log(2.0))


def to_bits(nats: float) -> float:
    return nats / LN2


@dataclass(frozen=True)
class ProbVector:
    probs: np.ndarray = field(repr=False)

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        if p.ndim != 1:
            raise ValueError("probability vector must be 1-d")
        if not p.min() >= -POLICY.eig_floor:  # a nan fails too
            raise ValueError(f"negative probability {p.min()!r}, or not finite")
        s = p.sum()
        if not abs(s - 1.0) <= POLICY.spectrum_atol:
            raise ValueError(f"probabilities sum to {s!r}: they must be finite and sum to 1")
        p = np.clip(p, 0.0, None)
        p.setflags(write=False)
        object.__setattr__(self, "probs", p)

    def __len__(self):
        return len(self.probs)


def _checked_projectors(projectors, atol: float) -> tuple:
    """The projectors as complex copies of one square shape, each Hermitian
    and idempotent within atol (ValueError otherwise); callers add the rest."""
    ps = tuple(np.array(p, dtype=complex, order="C") for p in projectors)
    if not ps:
        raise ValueError("empty projector set")
    d = ps[0].shape[0]
    for i, p in enumerate(ps):
        if p.shape != (d, d):
            raise ValueError("projectors must share one square dimension")
        if not np.allclose(p, p.conj().T, atol=atol, rtol=0.0):
            raise ValueError(f"projector {i} not Hermitian")
        if not np.allclose(p @ p, p, atol=atol, rtol=0.0):
            raise ValueError(f"projector {i} not idempotent")
    return ps


@dataclass(frozen=True)
class MeasurementBasis:
    """Orthogonal projectors on a designated subsystem set, summing to 1."""

    projectors: tuple

    def __post_init__(self):
        tol = POLICY.state_atol * 10
        ps = _checked_projectors(self.projectors, tol)
        for i in range(len(ps)):
            for j in range(i + 1, len(ps)):
                if not np.allclose(ps[i] @ ps[j], 0.0, atol=tol, rtol=0.0):
                    raise ValueError(f"projectors {i},{j} not orthogonal")
        if not np.allclose(sum(ps), np.eye(len(ps[0])), atol=tol, rtol=0.0):
            raise ValueError("projectors do not sum to identity")
        object.__setattr__(self, "projectors", ps)

    @classmethod
    def from_states(cls, kets) -> "MeasurementBasis":
        return cls(tuple(np.outer(k, np.conj(k)) for k in kets))

    @property
    def dim(self) -> int:
        return self.projectors[0].shape[0]


@dataclass(frozen=True)
class Ensemble:
    weights: ProbVector
    states: tuple

    def __post_init__(self):
        if len(self.weights) != len(self.states):
            raise ValueError("weight/state count mismatch")
        shapes = {s.shape.dims for s in self.states}
        if len(shapes) != 1:
            raise ValueError("ensemble members must share one shape")


def _counted_sizes(n: int, pure_global: bool, sizes):
    """The fragment sizes that count toward R_delta, lazily, from ascending `sizes`.

    Sizes 1 <= m < n/2 count. A globally pure plot also counts the half and
    the first size in (n/2, n), whose mirrored mean 2 H_S - I(n - m) is
    above (1 + delta) H_S if I(floor(n/2)) misses the threshold, so it
    always crosses. A mixed plot stops below the half, where nothing pins I.
    """
    for m in sizes:
        past = 2 * m > n if pure_global else 2 * m >= n
        if m and (not past or (pure_global and m < n)):
            yield m
        if past:
            return


def _first_crossing(n: int, sizes, value_of, h_s: float,
                    delta: float) -> tuple[float | None, float, bool]:
    """First fragment size whose value reaches (1 - delta) H_S, and R = n / sharpF.

    Ascending `sizes` are scanned, calling value_of(m) only up to the
    first crossing. Which sizes count is the rule of _counted_sizes,
    applied by the caller. Returns (sharpF, R, interpolated): a size-1
    crossing gives R = n; a crossing at the first scanned size is taken
    as is; a later one is interpolated linearly against the previous
    scanned size. With no crossing sharpF is None and R is the largest
    scanned value over the threshold, below one. An H_S at or below
    POLICY.spectrum_atol is rounding, not a record, so it counts as zero
    and raises ValueError: no redundancy.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    if h_s <= POLICY.spectrum_atol:
        raise ValueError("system entropy is zero; redundancy undefined")
    threshold = (1.0 - delta) * h_s
    prev_m, prev_v, best = None, 0.0, -np.inf
    for m in sizes:
        v = value_of(m)
        if v >= threshold:
            if m == 1:
                return 1.0, float(n), False
            if prev_m is None:
                return float(m), n / m, False
            sharp = prev_m + (threshold - prev_v) / (v - prev_v) * (m - prev_m)
            return sharp, n / sharp, True
        prev_m, prev_v, best = m, v, max(best, v)
    if prev_m is None:
        raise ValueError("no fragment sizes to scan")
    return None, best / threshold, False


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """H(rho) = -Tr rho ln rho, in nats."""
    return _entropy_from_eigs(np.linalg.eigvalsh(rho.mat))


def shannon_entropy(p) -> float:
    if isinstance(p, ProbVector):
        p = p.probs
    p = np.asarray(p, dtype=float)
    return _entropy_from_eigs(p)


def mutual_information(rho: DensityMatrix, part_a) -> float:
    """I(A:B) = H(A) + H(B) - H(AB) over the (part_a, complement) split."""
    part_a, part_b = _sorted_positions(part_a, rho.shape.n_subsystems)
    if not part_a or not part_b:
        raise ValueError("bipartition must be a proper nonempty subset")
    ha = von_neumann_entropy(partial_trace(rho, part_a))
    hb = von_neumann_entropy(partial_trace(rho, part_b))
    hab = von_neumann_entropy(rho)
    return ha + hb - hab


def _apply_projector(rho: DensityMatrix, projector: np.ndarray, on: tuple,
                     rest: tuple) -> np.ndarray:
    """Compute P rho P with P acting on the sorted `on` subsystems only;
    rest holds the other subsystems, ascending."""
    dims = rho.shape.dims
    n = len(dims)
    d_on = rho.shape.dim_of(on)
    perm = list(on) + list(rest)
    t = rho.mat.reshape(dims + dims)
    t = t.transpose(perm + [n + i for i in perm]).reshape(d_on, -1, d_on, rho.shape.dim_of(rest))
    t = np.einsum("ai,ibjc,jd->abdc", projector, t, projector.conj().T, optimize=True)
    # t axes now: on row, rest row, on col, rest col -> back to original layout
    t = t.reshape([dims[i] for i in perm] + [dims[i] for i in perm])
    inv = np.argsort(perm)
    t = t.transpose(list(inv) + [n + i for i in inv])
    d = rho.shape.total_dim
    return t.reshape(d, d)


def conditional_state(rho: DensityMatrix, projector: np.ndarray, on) -> tuple[DensityMatrix | None, float]:
    """Project, renormalize and return (state, probability).

    A zero-probability branch returns (None, 0.0) rather than raising;
    callers that average over a basis just skip it. A projector whose
    shape is not that of the `on` subsystems raises ValueError.
    """
    on, rest = _sorted_positions(on, rho.shape.n_subsystems)
    projector, d_on = np.asarray(projector, dtype=complex), rho.shape.dim_of(on)
    if projector.shape != (d_on, d_on):
        raise ValueError(f"projector of shape {projector.shape} on dimension {d_on}")
    projected = _apply_projector(rho, projector, on, rest)
    p = float(np.trace(projected).real)
    if p <= POLICY.eig_floor:
        return None, 0.0
    out = projected / p
    return DensityMatrix(rho.shape, 0.5 * (out + out.conj().T)), p


def _conditional_entropies(rho: DensityMatrix, on: tuple, rest: tuple,
                           projector_sets) -> list[float]:
    """H(rest | outcomes) = sum_k p_k H(rest | k) for each set of projectors
    on the sorted `on` subsystems, rest the others, ascending. rho is moved
    once, to t[a, b, c, d] = <a b|rho|c d> with a, c on `on`; the rest after
    outcome k is Tr_on(P_k rho) / p_k, one contraction of P_k with t, and
    outcomes with p_k <= POLICY.eig_floor are skipped. Only the projectors'
    shape is checked: not the square of dim(on) raises ValueError."""
    dims, n = rho.shape.dims, rho.shape.n_subsystems
    d_on, perm = rho.shape.dim_of(on), on + rest
    t = rho.mat.reshape(dims + dims).transpose(perm + tuple(n + i for i in perm))
    t = t.reshape(d_on, rho.shape.dim_of(rest), d_on, -1)
    out = []
    for projectors in projector_sets:
        total = 0.0
        for proj in projectors:
            if proj.shape != (d_on, d_on):
                raise ValueError(f"projector of shape {proj.shape} on dimension {d_on}")
            cond = np.tensordot(proj, t, axes=([0, 1], [2, 0]))
            p = float(np.trace(cond).real)
            if p <= POLICY.eig_floor:
                continue
            cond = cond / p
            total += p * _entropy_from_eigs(np.linalg.eigvalsh(0.5 * (cond + cond.conj().T)))
        out.append(total)
    return out


def average_conditional_entropy(rho: DensityMatrix, basis: MeasurementBasis, on) -> float:
    """H(rest | basis on `on`) = sum_k p_k H(rho_rest | outcome k)."""
    on, rest = _sorted_positions(on, rho.shape.n_subsystems)
    if not rest:
        raise ValueError("measurement must leave a nonempty remainder")
    return _conditional_entropies(rho, on, rest, [basis.projectors])[0]


def asymmetric_mutual_info(rho: DensityMatrix, basis: MeasurementBasis, on) -> float:
    """J = H(rest) - H(rest | outcomes of basis on `on`)."""
    on, rest = _sorted_positions(on, rho.shape.n_subsystems)
    h_rest = von_neumann_entropy(partial_trace(rho, rest))
    return h_rest - average_conditional_entropy(rho, basis, on)


def discord(rho: DensityMatrix, basis: MeasurementBasis, on) -> float:
    """Locally inaccessible information for this particular measurement."""
    return mutual_information(rho, on) - asymmetric_mutual_info(rho, basis, on)


def bloch_basis(theta: float, phi: float) -> MeasurementBasis:
    return MeasurementBasis(_bloch_projectors(theta, phi))


def _bloch_projectors(theta: float, phi: float) -> tuple[np.ndarray, np.ndarray]:
    """The two projectors of bloch_basis(theta, phi), unchecked."""
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    k0 = np.array([c, np.exp(1j * phi) * s])
    k1 = np.array([-np.exp(-1j * phi) * s, c])
    return np.outer(k0, np.conj(k0)), np.outer(k1, np.conj(k1))


def min_discord(rho: DensityMatrix, on, grid: tuple[int, int] = (180, 90)) -> float:
    """Discord minimized over projective qubit bases on a Bloch-angle grid.

    Only qubit subsystems are searched, and only orthonormal bases;
    POVMs are out of scope. Grid resolution trades accuracy for time;
    the default matches the documented policy. Every grid point gives
    discord(rho, bloch_basis(theta, phi), on) to the bit, from unchecked
    projectors and one move of rho for the whole grid.
    """
    on, rest = _sorted_positions(on, rho.shape.n_subsystems)
    if rho.shape.dim_of(on) != 2:
        raise ValueError("basis search implemented for qubit subsystems only")
    i_sym = mutual_information(rho, on)
    h_rest = von_neumann_entropy(partial_trace(rho, rest))
    n_theta, n_phi = grid
    sets = (_bloch_projectors(theta, phi)
            for theta in np.linspace(0.0, np.pi, n_theta, endpoint=True)
            for phi in np.linspace(0.0, np.pi, n_phi, endpoint=False))
    return float(min((i_sym - (h_rest - h) for h in _conditional_entropies(rho, on, rest, sets)),
                     default=np.inf))


def holevo(ensemble: Ensemble) -> float:
    """chi = H(sum_k p_k rho_k) - sum_k p_k H(rho_k)."""
    w = ensemble.weights.probs
    avg = sum(p * s.mat for p, s in zip(w, ensemble.states))
    avg = 0.5 * (avg + avg.conj().T)
    h_avg = _entropy_from_eigs(np.linalg.eigvalsh(avg))
    h_members = sum(p * von_neumann_entropy(s) for p, s in zip(w, ensemble.states) if p > 0)
    return h_avg - h_members


def joint_distribution(rho: DensityMatrix, basis_a: MeasurementBasis, on_a,
                       basis_b: MeasurementBasis, on_b) -> np.ndarray:
    """p(i, j) for commuting projective measurements on disjoint subsystem sets."""
    n = rho.shape.n_subsystems
    (on_a, _), (on_b, _) = _sorted_positions(on_a, n), _sorted_positions(on_b, n)
    if set(on_a) & set(on_b):
        raise ValueError("measured subsystem sets overlap")
    out = np.zeros((len(basis_a.projectors), len(basis_b.projectors)))
    for i, pa in enumerate(basis_a.projectors):
        cond, p = conditional_state(rho, pa, on_a)
        if cond is None:
            continue
        for j, pb in enumerate(basis_b.projectors):
            _, q = conditional_state(cond, pb, on_b)
            out[i, j] = p * q
    return out


def shannon_mutual_observables(rho: DensityMatrix, basis_a: MeasurementBasis, on_a,
                               basis_b: MeasurementBasis, on_b) -> float:
    """Shannon mutual information of two measured observables."""
    pij = joint_distribution(rho, basis_a, on_a, basis_b, on_b)
    pa = pij.sum(axis=1)
    pb = pij.sum(axis=0)
    return shannon_entropy(pa) + shannon_entropy(pb) - shannon_entropy(pij.reshape(-1))
