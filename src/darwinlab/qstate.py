"""Dense pure-state / density-matrix substrate.

Subsystem index 0 is the leftmost tensor factor, i.e. the most significant
axis of the flattened amplitude vector (C order). Everything here is dense
and immutable; the dimension cap in the numeric policy keeps all of it at
desk scale.

Subsystem positions are a plain sequence, in any order (apply_unitary
alone reads it as the tensor order of u), checked by the rule check_rows
applies to a fragment row: integers, no repeats, inside range(n). Anything
else raises ValueError: a repeat rather than collapsing to one position, a
non-integer (1.0 included) rather than being truncated.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .numeric import POLICY, CapExceeded


@dataclass(frozen=True)
class HilbertShape:
    """Ordered per-subsystem dimensions of a tensor-product space."""

    dims: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        if any(d < 2 for d in self.dims):
            raise ValueError(f"subsystem dimensions must be >= 2, got {self.dims}")
        if self.total_dim > POLICY.dim_cap:
            raise CapExceeded(f"total dimension {self.total_dim} exceeds cap {POLICY.dim_cap}")

    @property
    def total_dim(self) -> int:
        return math.prod(self.dims)

    @property
    def n_subsystems(self) -> int:
        return len(self.dims)

    def dim_of(self, indices) -> int:
        return math.prod(self.dims[i] for i in indices)


def qubits(n: int) -> HilbertShape:
    return HilbertShape((2,) * n)


def check_rows(idx, n_sites: int) -> np.ndarray:
    """idx as a (count, m) np.intp matrix of fragments of range(n_sites).

    Every row must be sorted and repeat-free; ValueError otherwise, if an
    index falls outside range(n_sites), or if a non-empty idx is not of an
    integer dtype (so 2.2 raises rather than truncating to 2).
    """
    idx = np.asarray(idx)
    if idx.size and not np.issubdtype(idx.dtype, np.integer):
        raise ValueError(f"fragment indices must be integers, not {idx.dtype}")
    idx = idx.astype(np.intp, copy=False)
    if idx.ndim != 2:
        raise ValueError("fragments must be a (count, m) matrix of site indices")
    if idx.shape[1] > 1 and not (idx[:, 1:] > idx[:, :-1]).all():
        raise ValueError("each fragment row must be sorted and repeat-free")
    if idx.size and (idx[:, 0].min() < 0 or idx[:, -1].max() >= n_sites):
        raise ValueError("fragment index out of range")
    return idx


def _sorted_positions(positions, n: int) -> tuple[int, ...]:
    """A sequence of subsystem positions, sorted and checked as one row by
    check_rows: integers, no repeats, inside range(n); ValueError otherwise."""
    return tuple(check_rows([sorted(positions)], n)[0].tolist())


@dataclass(frozen=True)
class StateVector:
    shape: HilbertShape
    amps: np.ndarray = field(repr=False)

    def __post_init__(self):
        a = np.ascontiguousarray(self.amps, dtype=complex)
        if a.shape != (self.shape.total_dim,):
            raise ValueError(f"amplitude length {a.shape} != total dim {self.shape.total_dim}")
        nrm = np.linalg.norm(a)
        if abs(nrm - 1.0) > POLICY.state_atol:
            raise ValueError(f"state norm {nrm!r} not 1 within {POLICY.state_atol}")
        a.setflags(write=False)
        object.__setattr__(self, "amps", a)

    def as_grid(self) -> np.ndarray:
        return self.amps.reshape(self.shape.dims)

    def fidelity(self, other: "StateVector") -> float:
        return abs(np.vdot(self.amps, other.amps)) ** 2


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace matrix over a HilbertShape.

    Hermiticity and trace are checked on construction. Full positive
    semidefiniteness is only spot-checked (real diagonal, no entry above
    1) because an eigendecomposition per constructor call would dominate
    the cost of every partial trace; entropy consumers clip the spectrum
    at the policy floor and the test suite verifies PSD explicitly where
    it matters.
    """

    shape: HilbertShape
    mat: np.ndarray = field(repr=False)

    def __post_init__(self):
        m = np.ascontiguousarray(self.mat, dtype=complex)
        d = self.shape.total_dim
        if m.shape != (d, d):
            raise ValueError(f"matrix shape {m.shape} != ({d}, {d})")
        if not np.allclose(m, m.conj().T, atol=POLICY.state_atol, rtol=0.0):
            raise ValueError("matrix not Hermitian within tolerance")
        tr = np.trace(m).real
        if abs(tr - 1.0) > POLICY.state_atol:
            raise ValueError(f"trace {tr!r} not 1 within {POLICY.state_atol}")
        diag = np.diagonal(m).real
        if diag.min() < -POLICY.state_atol:
            raise ValueError("negative diagonal entry beyond tolerance")
        m.setflags(write=False)
        object.__setattr__(self, "mat", m)

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.mat)


def basis_state(shape: HilbertShape, index: int) -> StateVector:
    a = np.zeros(shape.total_dim, dtype=complex)
    a[index] = 1.0
    return StateVector(shape, a)


def ket(amps, dims=None) -> StateVector:
    """Build a StateVector from raw amplitudes, normalizing them.

    dims defaults to a single subsystem of the full length.
    """
    a = np.asarray(amps, dtype=complex)
    shape = HilbertShape(tuple(dims) if dims is not None else (len(a),))
    return StateVector(shape, a / np.linalg.norm(a))


def tensor(a: StateVector, b: StateVector) -> StateVector:
    shape = HilbertShape(a.shape.dims + b.shape.dims)  # cap check happens here
    return StateVector(shape, np.kron(a.amps, b.amps))


def pure_density(state: StateVector) -> DensityMatrix:
    return DensityMatrix(state.shape, np.outer(state.amps, state.amps.conj()))


def _moved_matrix(state: StateVector, keep: tuple[int, ...]) -> np.ndarray:
    """Reshape amplitudes to (dim(keep), dim(rest)) with keep axes leading."""
    n = state.shape.n_subsystems
    rest = [i for i in range(n) if i not in keep]
    grid = state.as_grid().transpose(list(keep) + rest)
    return grid.reshape(state.shape.dim_of(keep), -1)


def reduced_density(state: StateVector, keep) -> DensityMatrix:
    """Reduced density matrix of a pure state on the kept subsystems.

    Never materializes the global density matrix; cost is
    O(dim(keep)^2 * dim(rest)).
    """
    ks = _sorted_positions(keep, state.shape.n_subsystems)
    a = _moved_matrix(state, ks)
    rho = a @ a.conj().T
    # guard against round-off asymmetry before the constructor checks it
    rho = 0.5 * (rho + rho.conj().T)
    return DensityMatrix(HilbertShape(tuple(state.shape.dims[i] for i in ks)), rho)


def _entropy_from_eigs(lam: np.ndarray) -> float:
    """-sum lam ln lam over the entries above the policy floor."""
    lam = lam[lam > POLICY.eig_floor]
    return float(-np.sum(lam * np.log(lam)))


def _schmidt_entropy(a: np.ndarray) -> float:
    """Entropy of the rows' side of a bipartite amplitude matrix, from the
    eigenvalues of its smaller Gram side: the Schmidt weights, at a cost
    set by the smaller of the two sides."""
    if a.shape[0] > a.shape[1]:
        a = a.T
    return _entropy_from_eigs(np.linalg.eigvalsh(a @ a.conj().T))


def subsystem_entropy(state: StateVector, keep) -> float:
    """Entanglement entropy (nats) of a subsystem of a pure state."""
    ks = _sorted_positions(keep, state.shape.n_subsystems)
    return _schmidt_entropy(_moved_matrix(state, ks))


def system_fragment_entropies(state: StateVector, frag: tuple[int, ...]) -> tuple[float, float]:
    """(H_F, H_SF) of a pure state, S the subsystem 0 and F the sorted,
    distinct positions frag >= 1, from one transpose of the amplitudes.

    When S+F is the smaller side, its Gram matrix gives H_SF, and rho_F is
    the sum of its d_S diagonal d_F blocks. Otherwise H_SF comes from the
    rest-side Gram and H_F from the smaller side of F against S+rest.
    """
    d_s = state.shape.dims[0]
    a = _moved_matrix(state, (0,) + frag)
    d_f = a.shape[0] // d_s
    if a.shape[0] > a.shape[1]:
        f_rows = a.reshape(d_s, d_f, -1).swapaxes(0, 1).reshape(d_f, -1)
        return _schmidt_entropy(f_rows), _schmidt_entropy(a)
    g = a @ a.conj().T
    rho_f = g.reshape(d_s, d_f, d_s, d_f).trace(axis1=0, axis2=2)
    return (_entropy_from_eigs(np.linalg.eigvalsh(rho_f)),
            _entropy_from_eigs(np.linalg.eigvalsh(g)))


def partial_trace(rho: DensityMatrix, keep) -> DensityMatrix:
    dims = rho.shape.dims
    n = len(dims)
    ks = _sorted_positions(keep, n)
    rest = [i for i in range(n) if i not in ks]
    dk = rho.shape.dim_of(ks)
    dr = rho.shape.dim_of(rest)
    t = rho.mat.reshape(dims + dims)
    # row axes i, column axes n+i; contract matching rest axes
    perm = list(ks) + [n + i for i in ks] + rest + [n + i for i in rest]
    t = t.transpose(perm).reshape(dk, dk, dr, dr)
    out = np.einsum("ijkk->ij", t)
    out = 0.5 * (out + out.conj().T)
    return DensityMatrix(HilbertShape(tuple(dims[i] for i in ks)), out)


def apply_unitary(state: StateVector, u: np.ndarray, targets) -> StateVector:
    """Apply u to the listed target subsystems.

    targets is a sequence of positions in the tensor order of u's factors;
    a sorted copy must pass the one position rule (integers, no repeats,
    inside range(n)), else ValueError.
    """
    n = state.shape.n_subsystems
    _sorted_positions(targets, n)
    targets = [int(i) for i in targets]
    dims = state.shape.dims
    dt = math.prod(dims[i] for i in targets)
    u = np.asarray(u, dtype=complex)
    if u.shape != (dt, dt):
        raise ValueError(f"unitary shape {u.shape} does not match target dim {dt}")
    if not np.allclose(u.conj().T @ u, np.eye(dt), atol=POLICY.state_atol, rtol=0.0):
        raise ValueError("matrix is not unitary within tolerance")
    rest = [i for i in range(n) if i not in targets]
    grid = state.as_grid().transpose(targets + rest)
    moved = grid.reshape(dt, -1)
    moved = u @ moved
    # undo the transpose
    inv = np.argsort(targets + rest)
    grid = moved.reshape([dims[i] for i in targets] + [dims[i] for i in rest])
    out = grid.transpose(inv).reshape(-1)
    return StateVector(state.shape, out)


def evolve_diagonal(state: StateVector, phases: np.ndarray) -> StateVector:
    """Multiply amplitude i by exp(-1j * phases[i]).

    Fast path for Hamiltonians diagonal in the computational product basis;
    phases is the energy-times-time vector over the full basis.
    """
    phases = np.asarray(phases, dtype=float)
    if phases.shape != (state.shape.total_dim,):
        raise ValueError("phase vector length mismatch")
    return StateVector(state.shape, state.amps * np.exp(-1j * phases))


def schmidt(state: StateVector, left) -> list[tuple[float, StateVector, StateVector]]:
    """Schmidt decomposition across the (left, complement) bipartition.

    Returns (coefficient, left vector, right vector) triples with
    coefficients sorted descending; terms below the policy spectrum
    tolerance are dropped. Left/right vectors keep the original relative
    subsystem order.
    """
    n = state.shape.n_subsystems
    ls = _sorted_positions(left, n)
    if not ls or len(ls) == n:
        raise ValueError("bipartition must be a proper nonempty subset")
    a = _moved_matrix(state, ls)
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    rs = tuple(i for i in range(n) if i not in ls)
    lshape = HilbertShape(tuple(state.shape.dims[i] for i in ls))
    rshape = HilbertShape(tuple(state.shape.dims[i] for i in rs))
    out = []
    for i, coeff in enumerate(s):
        if coeff <= POLICY.spectrum_atol:
            continue
        out.append((float(coeff), StateVector(lshape, u[:, i]), StateVector(rshape, vh[i, :].conj())))
    return out


def reconstruct_from_schmidt(terms, shape: HilbertShape, left) -> StateVector:
    """Rebuild the global state from schmidt() output (test helper)."""
    n = shape.n_subsystems
    ls = _sorted_positions(left, n)
    rs = tuple(i for i in range(n) if i not in ls)
    a = np.zeros((shape.dim_of(ls), shape.dim_of(rs)), dtype=complex)
    for coeff, lv, rv in terms:
        a += coeff * np.outer(lv.amps, rv.amps.conj())

    grid = a.reshape([shape.dims[i] for i in ls] + [shape.dims[i] for i in rs])
    inv = np.argsort(list(ls) + list(rs))
    return StateVector(shape, grid.transpose(inv).reshape(-1))
