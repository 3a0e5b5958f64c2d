"""Branching states and the Gram-matrix fast path.

A branching state is

    sum_k  exp(i phi_k) sqrt(p_k) |pointer_k> prod_l |cond_k^(l)>

with orthonormal pointer states and a product of per-subsystem conditional
environment states in each branch. All fragment entropies then reduce to
K x K eigenproblems:

  * the fragment alone is a K-member mixture of product states, so its
    spectrum is that of the Gram kernel sqrt(p_j p_k) prod_F <cond_j|cond_k>;
  * fragment plus system has the spectrum of the phase-carrying kernel over
    the complement (global purity swaps the two sides).

Cost. A fragment F costs O(K^2 |F|) plus two K x K eigendecompositions,
after a one-time O(K^2 n) pass per state. The fragment product is the
literal np.prod over F. The complement product comes from a per-site table
of entrywise logs of the overlap matrices (exact zeros read as 1 and
counted apart) and its totals T = sum_l log o_l and Z = #{l : o_l = 0}:

    prod_{l not in F} o_l = 0 if Z - Z_F > 0, else exp(T - S_F),

with S_F and Z_F summed over F alone. _entropies gives H_F and H_SF of a
whole matrix of same-size fragments, one stacked eigensolve per side, to
darwin.BranchingSource, and decohered_system_entropy reads the row
products alone; darwin.Source checks the rows of both with
qstate.check_rows, answers empty rows and keeps H_S. Both take one
fragment form, a (count, m) np.intp matrix of sorted, repeat-free rows,
and only non-empty rows (m >= 1): no kernel here has an empty-row path.

Error rule. A complement-product entry computed this way carries a
relative error of about eps * sum_l |log o_l| (eps = 2.2e-16, the sum over
all n sites of the complex logs), from rounding the logs and their sum;
it covers both the modulus and the accumulated phase. Sites with o_l near
1 add about eps each, as they do in the literal product. Strong
decoherence drives the entry to 0 or far below the diagonal, so the
entropies keep their bytes; weak decoherence moves them by an ulp or two.

Measured on the central-spin model at n = 10^5, K = 2 (2-vCPU x86 box,
numpy 2.4): building the state takes 0.04 s and the one-time overlap and
log tables 0.06 s; a batched mutual information then takes 0.02 ms at
|F| = 1, 0.2 ms at |F| = 10^3 and 5-8 ms at |F| = n/2.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numeric import POLICY, CapExceeded
from .qstate import HilbertShape, StateVector, _stacked_entropies
from .info import LN2, ProbVector, _entropy_from_eigs

# cache per-subsystem overlap (and log) tables only below this entry count
_OVERLAP_CACHE_LIMIT = 2 ** 24
# complex table entries gathered at once when batching fragments (at least one row)
_GATHER_LIMIT = 2 ** 15


@dataclass
class BranchingState:
    """probs/phases over K branches plus an (n, K, d) array of conditional states.

    conditionals[l, k] is the normalized state of environment subsystem l in
    branch k; a list of n equal-shape (K, d) tables is accepted too. probs
    passes the branch cap, then info.ProbVector's check and clip. Zero-weight
    branches are allowed (they must carry zero probability in every derived
    quantity).
    """

    probs: np.ndarray
    phases: np.ndarray
    conditionals: np.ndarray

    def __post_init__(self):
        self.phases = np.asarray(self.phases, dtype=float)
        k = len(self.probs)
        if k < 1 or k > POLICY.branch_cap:
            raise CapExceeded(f"branch count {k} outside [1, {POLICY.branch_cap}]")
        self.probs = ProbVector(self.probs).probs
        if self.phases.shape != (k,):
            raise ValueError("phase/prob length mismatch")
        c = np.asarray(self.conditionals, dtype=complex)  # ragged lists raise ValueError
        if c.ndim != 3 or c.shape[1] != k:
            raise ValueError(f"conditionals must be (n, K, d) with K = {k}, got shape {c.shape}")
        if len(c) > POLICY.env_cap:
            raise CapExceeded(f"environment size {len(c)} exceeds cap")
        bad = ~(np.abs(np.linalg.norm(c, axis=2) - 1.0).max(axis=1) <= POLICY.state_atol)
        if bad.any():  # a nan entry fails too
            raise ValueError(f"conditional states of subsystem {bad.argmax()} not normalized "
                             "or not finite")
        self.conditionals = c
        self._overlaps = None
        self._logs = None
        self._zeros = None
        self._totals = None

    @property
    def n_branches(self) -> int:
        return len(self.probs)

    @property
    def n_env(self) -> int:
        return len(self.conditionals)

    @property
    def amplitudes(self) -> np.ndarray:
        return np.sqrt(self.probs) * np.exp(1j * self.phases)

    def _cached(self) -> bool:
        """Build the overlap table on first use if it fits the cache limit."""
        k = self.n_branches
        if self._overlaps is None and k * k * self.n_env <= _OVERLAP_CACHE_LIMIT:
            self._overlaps = _overlap_stack(self.conditionals)
        return self._overlaps is not None

    def _pair_overlaps(self, idx: np.ndarray) -> np.ndarray:
        """Stack of per-subsystem overlap matrices O[l][j,k] = <cond_j|cond_k>;
        idx may be an index array of any shape."""
        if self._cached():
            return self._overlaps[idx]
        return _overlap_stack(self.conditionals[idx])

    def _pair_logs(self, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        """Entrywise logs of the overlap matrices of idx, exact zeros read
        as 1, and the mask of those zeros (None if the cached table has none)."""
        if not self._cached():
            return _log_table(_overlap_stack(self.conditionals[idx]))
        if self._logs is None:
            self._logs, self._zeros = _log_table(self._overlaps)
            if not self._zeros.any():
                self._zeros = None
        return self._logs[idx], None if self._zeros is None else self._zeros[idx]

    def _log_totals(self) -> tuple[np.ndarray, np.ndarray]:
        """T = sum_l log o_l and the zero counts Z over all sites, from one
        pass over site chunks added in order, so that the cached and
        uncached tables give the same bytes."""
        if self._totals is None:
            k = self.n_branches
            t = np.zeros((k, k), dtype=complex)
            z = np.zeros((k, k), dtype=np.intp)
            step = max(1, _GATHER_LIMIT // (k * k))
            for lo in range(0, self.n_env, step):
                logs, zeros = self._pair_logs(slice(lo, lo + step))
                t = np.concatenate((t[None], logs)).sum(axis=0)
                if zeros is not None:
                    z += zeros.sum(axis=0)
            self._totals = t, z
        return self._totals


def _overlap_stack(c: np.ndarray) -> np.ndarray:
    # batched matmul: the same bytes as a per-site t.conj() @ t.T (einsum is not)
    return c.conj() @ c.swapaxes(-1, -2)


def _log_table(o: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    zeros = o == 0
    o = np.where(zeros, 1.0, o)
    # log|o| + i arg(o): within an ulp of the complex np.log, some 30 times faster
    logs = np.log(np.abs(o)).astype(complex)
    logs.imag = np.angle(o)
    return logs, zeros


def _literal_product(b: BranchingState, idx) -> np.ndarray:
    """The sequential np.prod of the overlap matrices over the sites idx
    (the last index axis), one K x K matrix per row."""
    return np.prod(b._pair_overlaps(idx), axis=-3)


def _chunk_rows(b: BranchingState, m: int) -> int:
    """Rows of m sites per gather: at most _GATHER_LIMIT table entries, one
    row at least."""
    k = b.n_branches
    return max(1, _GATHER_LIMIT // (m * k * k))


def _row_products(b: BranchingState, idx: np.ndarray) -> np.ndarray:
    """The literal overlap product over each row of the checked, non-empty
    idx, gathered in chunks of _chunk_rows rows."""
    count, m = idx.shape
    k = b.n_branches
    inside = np.empty((count, k, k), dtype=complex)
    step = _chunk_rows(b, m)
    for lo in range(0, count, step):
        inside[lo:lo + step] = _literal_product(b, idx[lo:lo + step])
    return inside


def _products(b: BranchingState, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Overlap products over each row of idx and over its complement.

    idx is a checked matrix of non-empty rows. The row product is
    _row_products; the complement product comes from the log totals
    (module docstring), gathered in the same chunks.
    """
    count, m = idx.shape
    inside = _row_products(b, idx)
    outside = np.empty_like(inside)
    t, z = b._log_totals()
    has_zeros = z.any()
    step = _chunk_rows(b, m)
    for lo in range(0, count, step):
        rows = idx[lo:lo + step]
        logs, zeros = b._pair_logs(rows)
        out = outside[lo:lo + step]
        out[:] = np.exp(t - logs.sum(axis=1))
        if has_zeros:
            out[z - zeros.sum(axis=1) > 0] = 0.0
    return inside, outside


def _gram_kernel(b: BranchingState, prod: np.ndarray) -> np.ndarray:
    """Gram kernel(s) of the branch vectors restricted to a fragment whose
    overlap product is prod:

        G[j,k] = sqrt(p_j p_k) exp(i(phi_k - phi_j)) prod_F <cond_j|cond_k>.
    """
    amp = np.sqrt(b.probs)
    ph = np.exp(1j * b.phases)
    g = np.outer(amp, amp) * np.outer(ph.conj(), ph) * prod
    return 0.5 * (g + g.conj().swapaxes(-1, -2))


def _phase_kernel(b: BranchingState, prod: np.ndarray) -> np.ndarray:
    """Coefficient matrix (or stack) of the system density operator decohered
    by sites whose overlap product is prod.

    Entry (j,k) is a_j a_k^* conj(prod_F <cond_j|cond_k>); its spectrum is
    the spectrum of the reduced state of (system + complement of F).
    """
    a = b.amplitudes
    g = np.outer(a, a.conj()) * prod.conj()
    return 0.5 * (g + g.conj().swapaxes(-1, -2))


def gram_entropy(g: np.ndarray):
    """Entropy of a K x K kernel, or an array of entropies of a stack."""
    if np.ndim(g) == 2:
        return _entropy_from_eigs(np.linalg.eigvalsh(g))
    return _stacked_entropies(g)


def system_entropy(b: BranchingState) -> float:
    """Entropy of the system after decoherence by the whole environment."""
    return gram_entropy(_phase_kernel(b, _literal_product(b, np.arange(b.n_env))))


def _entropies(b: BranchingState, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """H_F and H_SF (nats) for every row F of the checked, non-empty idx,
    from one _products pass; one stacked eigensolve per side.

    H_F is the entropy of the fragment's Gram kernel; by global purity H_SF
    is that of the complement's phase-carrying kernel.
    """
    inside, outside = _products(b, idx)
    return gram_entropy(_gram_kernel(b, inside)), gram_entropy(_phase_kernel(b, outside))


def decohered_system_entropy(b: BranchingState, idx: np.ndarray) -> np.ndarray:
    """Counterfactual system entropy with only the row F decohering, for
    every row F of the checked, non-empty idx: off-diagonals are damped by
    the fragment's records alone. Only the row products are gathered."""
    return gram_entropy(_phase_kernel(b, _row_products(b, idx)))


def two_branch_entropy(gamma: float) -> float:
    """Entropy (nats) of an equal-weight two-branch system with decoherence
    factor gamma = |overlap product|^2.

    Closed form; algebraically identical to
    ln 2 - sqrt(G) arctanh sqrt(G) - ln sqrt(1-G) and to the series
    ln 2 - sum_n G^n / (2n(2n-1)), but stable at both endpoints.
    """
    if gamma < 0.0 or gamma > 1.0:
        raise ValueError(f"gamma {gamma!r} outside [0, 1]")
    r = np.sqrt(gamma)
    # ln2 - (1/2)[(1+r)ln(1+r) + (1-r)ln(1-r)]
    lo = (1.0 - r) * np.log1p(-r) if r < 1.0 else 0.0
    return float(LN2 - 0.5 * ((1.0 + r) * np.log1p(r) + lo))


def to_state_vector(b: BranchingState) -> StateVector:
    """Dense export (system factor first); used by oracle tests."""
    if b.n_branches < 2:
        raise ValueError("dense export needs at least two branches")
    dims = (b.n_branches,) + (b.conditionals.shape[2],) * b.n_env
    shape = HilbertShape(dims)  # raises CapExceeded when too big
    amps = np.zeros(shape.total_dim, dtype=complex)
    a = b.amplitudes
    for k in range(b.n_branches):
        if b.probs[k] == 0.0 and a[k] == 0.0:
            continue
        branch = np.array([a[k]])
        for t in b.conditionals:
            branch = np.kron(branch, t[k])
        block = np.zeros(b.n_branches, dtype=complex)
        block[k] = 1.0
        amps += np.kron(block, branch)
    return StateVector(shape, amps)
