"""Dense pure-state / density-matrix substrate.

Subsystem index 0 is the leftmost tensor factor, i.e. the most significant
axis of the flattened amplitude vector (C order). Everything here is dense
and immutable: a state holds a read-only copy of the caller's array, which
stays writable. The dimension cap in the numeric policy keeps all of it at
desk scale.

Subsystem positions are a plain sequence, in any order (apply_unitary
alone reads it as the tensor order of u), checked by the rule check_rows
applies to a fragment row: integers, no repeats, inside range(n). Anything
else raises ValueError: a repeat rather than collapsing to one position, a
non-integer (1.0 included) rather than being truncated.

A qubit state equal to its own reversal (amplitude i equal to amplitude
2^n - 1 - i) is invariant under flipping every qubit. The interacting bath
keeps that symmetry from its default start |+>^(n+1), since its
Hamiltonian commutes with the flip. Every bipartite amplitude matrix A of
such a state is block diagonal in the flip sectors of its two sides, so
system_fragment_entropies solves its spectra as two half-side blocks built
from the top half of A; any other state takes the plain solve.
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


def _complement_rows(idx: np.ndarray, n: int) -> np.ndarray:
    """The sorted complement in range(n) of every row of the checked idx:
    darwin's decompose rows and half-size pairs, the dense kernel's rests."""
    outside = np.ones((len(idx), n), dtype=bool)
    np.put_along_axis(outside, idx, False, axis=1)
    return np.nonzero(outside)[1].reshape(len(idx), n - idx.shape[1])


def _sorted_positions(positions, n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(keep, rest): a sequence of positions, sorted and checked as one row
    by check_rows (integers, no repeats, inside range(n); ValueError
    otherwise), and the positions of range(n) it leaves out, ascending.
    The one position rule of every index argument in the library."""
    keep = tuple(check_rows([sorted(positions)], n)[0].tolist())
    return keep, tuple(sorted(set(range(n)).difference(keep)))


@dataclass(frozen=True)
class StateVector:
    shape: HilbertShape
    amps: np.ndarray = field(repr=False)

    def __post_init__(self):
        a = np.array(self.amps, dtype=complex, order="C")
        if a.shape != (self.shape.total_dim,):
            raise ValueError(f"amplitude length {a.shape} != total dim {self.shape.total_dim}")
        nrm = np.linalg.norm(a)
        if not abs(nrm - 1.0) <= POLICY.state_atol:  # a nan norm fails too
            raise ValueError(f"state norm {nrm!r} not 1 within {POLICY.state_atol}, or not finite")
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
        m = np.array(self.mat, dtype=complex, order="C")
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


def _moved_matrix(state: StateVector, keep: tuple[int, ...],
                  rest: tuple[int, ...]) -> np.ndarray:
    """Reshape amplitudes to (dim(keep), dim(rest)) with keep axes leading."""
    grid = state.as_grid().transpose(keep + rest)
    return grid.reshape(state.shape.dim_of(keep), -1)


def reduced_density(state: StateVector, keep) -> DensityMatrix:
    """Reduced density matrix of a pure state on the kept subsystems.

    Never materializes the global density matrix; cost is
    O(dim(keep)^2 * dim(rest)).
    """
    ks, rest = _sorted_positions(keep, state.shape.n_subsystems)
    a = _moved_matrix(state, ks, rest)
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
    ks, rest = _sorted_positions(keep, state.shape.n_subsystems)
    return _schmidt_entropy(_moved_matrix(state, ks, rest))


def system_fragment_entropies(state: StateVector,
                              idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(H_F, H_SF) of a pure state for every row F of idx, S the subsystem 0.

    idx is a (count, m) np.intp matrix of sorted, repeat-free positions in
    1 .. n - 1, as check_rows gives environment rows shifted by one; it is
    not checked again here. Rows are grouped by d_F, which fixes every
    matrix shape, and solved in slabs (_SLAB_AMPS): per slab and side, one
    transpose copy of the amplitudes per row into one stack, one stacked
    Gram matrix and one stacked eigvalsh.

    A qubit state equal to its reversal (_flip_symmetric, checked once per
    call) copies only the top half rows of each matrix and solves every
    side as its two flip-sector blocks (_split_grams): half the side each,
    about a quarter of the Gram and eigvalsh work. Any other state takes
    the plain solve (_slab_grams).

    When S+F is the smaller side, its Gram matrix gives H_SF, and rho_F is
    the sum of its d_S diagonal d_F blocks. Otherwise H_SF comes from the
    rest-side Gram and H_F from the smaller side of F against S+rest.
    Each row is solved alone: its values do not depend on the other rows.
    """
    idx = np.asarray(idx, dtype=np.intp)
    dims = state.shape.dims
    n, d_s, total = len(dims), dims[0], state.shape.total_dim
    grid = state.as_grid()
    d_f = np.prod(np.array(dims)[idx], axis=1, dtype=np.int64)
    h_f, h_sf = np.empty(len(idx)), np.empty(len(idx))
    # the split solve writes only the first half of each row's buffer
    height = max(_SLAB_ROWS, _SLAB_AMPS // total)
    work = np.empty((2, min(len(idx), height), total), dtype=complex)
    split = _flip_symmetric(state)

    def grams(orders, rows):
        # a one-row side (F the whole bath, H_SF of a pure state) has no halves
        solve = _split_grams if split and rows > 1 else _slab_grams
        return solve(grid, orders, rows, work, height)

    # a set, not np.unique, which imports numpy.ma (0.5 MB, 14 ms) on first use
    for df in sorted(set(d_f.tolist())):
        rows = np.flatnonzero(d_f == df)
        rest = total // (d_s * df)
        frags = idx[rows].tolist()
        rests = _complement_rows(idx[rows], n)[:, 1:].tolist()  # position 0 is S
        if d_s * df <= rest:
            orders = [[0] + f + r for f, r in zip(frags, rests)]
            for sl, g in grams(orders, d_s * df):
                h_f[rows[sl]] = _stacked_entropies(_traced_system(g, d_s, df))
                h_sf[rows[sl]] = _stacked_entropies(g)
            continue
        f_first = df <= d_s * rest
        orders = [f + [0] + r if f_first else [0] + r + f for f, r in zip(frags, rests)]
        for sl, g in grams(orders, df if f_first else d_s * rest):
            h_f[rows[sl]] = _stacked_entropies(g)
        orders = [r + [0] + f for f, r in zip(frags, rests)]
        for sl, g in grams(orders, rest):
            h_sf[rows[sl]] = _stacked_entropies(g)
    return h_f, h_sf


# amplitudes per stacked transpose, Gram product and eigvalsh: a slab holds
# _SLAB_AMPS // total rows and at least _SLAB_ROWS (qbm's _SLAB_ELEMS rule),
# so its reused work buffer (2 copies of a slab's amplitudes, about 3 MB up
# to n = 14) takes 12 rows of a Haar state at n = 12 and 3 at n = 14. One
# row at a time, an n = 14 half-size call took 16,700 page faults, 3 rows
# about 50; 8 rows kept 53.8 MB against 45.8 MB, at the same speed. At n =
# 12, 12 rows took the Haar baseline (20 states, one BLAS thread) from
# 425-429 to 394-408 ms (2-vCPU x86 box).
_SLAB_AMPS = 3 * 2 ** 15
_SLAB_ROWS = 3


def _slab_grams(grid: np.ndarray, orders, rows: int, work: np.ndarray, height: int):
    """(slice of orders, stacked Gram matrices) for each slab of `height`
    orders. Matrix i is the grid with its axes in orders[i], the leading
    axes making its `rows` rows; a slab's amplitudes go to work[0] and their
    conjugates to work[1], so each slab overwrites the last."""
    for lo in range(0, len(orders), height):
        slab = orders[lo:lo + height]
        for w, order in zip(work[0], slab):
            w.reshape([grid.shape[i] for i in order])[...] = grid.transpose(order)
        a = work[0, :len(slab)].reshape(len(slab), rows, -1)
        conj = np.conjugate(a, out=work[1, :len(slab)].reshape(a.shape))
        yield slice(lo, lo + len(slab)), a @ conj.swapaxes(-1, -2)


def _flip_symmetric(state: StateVector) -> bool:
    """True for a state of qubits equal to its own reversal, the state
    flipping every qubit leaves unchanged: amplitude i equals amplitude
    2^n - 1 - i, bit for bit."""
    return set(state.shape.dims) == {2} and np.array_equal(state.amps, state.amps[::-1])


def _split_grams(grid: np.ndarray, orders, rows: int, work: np.ndarray, height: int):
    """_slab_grams for a _flip_symmetric qubit grid: per order, the Gram
    matrices of its two flip-sector blocks, stacked (count, 2, k, k) with
    k = rows / 2; their spectra together are the Gram spectrum.

    Flipping every qubit reverses both sides of the matrix A of an order,
    A = J A J, so A is block diagonal in the bases (|x> +- J|x>) / sqrt(2)
    of its sides, with the blocks T[:, :h] +- T[:, ::-1][:, :h]: T the top
    k rows of A (its leading axis at 0), h half its columns. Only T is
    copied, half the amplitudes, into the first half of work[0]; the blocks
    go to work[1] and their conjugates over T."""
    k, half = rows // 2, grid.size // 2
    tops, blocks = work.reshape(2, -1, half)
    for lo in range(0, len(orders), height):
        slab = orders[lo:lo + height]
        for w, order in zip(tops, slab):
            w.reshape([grid.shape[i] for i in order[1:]])[...] = grid.transpose(order)[0]
        t = tops[:len(slab)].reshape(len(slab), k, -1)
        h = t.shape[-1] // 2
        b = blocks[:len(slab)].reshape(len(slab), 2, k, h)
        flip = t[..., ::-1][..., :h]
        np.add(t[..., :h], flip, out=b[:, 0])
        np.subtract(t[..., :h], flip, out=b[:, 1])
        conj = np.conjugate(b, out=tops[:len(slab)].reshape(b.shape))
        yield slice(lo, lo + len(slab)), b @ conj.swapaxes(-1, -2)


def _traced_system(g: np.ndarray, d_s: int, df: int) -> np.ndarray:
    """rho_F of each S+F Gram matrix of a stack, S leading: the sum of its
    d_S diagonal blocks. From the flip-sector pairs of _split_grams, G+ and
    G- in the bases (|0 f> +- |1 ~f>) / sqrt(2), it is (T + J T J) / 2 with
    T = G+ + G-, returned as its own flip-sector blocks."""
    if g.ndim == 3:
        return g.reshape(-1, d_s, df, d_s, df).trace(axis1=1, axis2=3)
    t = g[:, 0] + g[:, 1]
    rho = 0.5 * (t + t[:, ::-1, ::-1])
    k = df // 2
    a, cj = rho[:, :k, :k], rho[:, :k, ::-1][:, :, :k]
    return np.stack((a + cj, a - cj), axis=1)


def _stacked_entropies(g: np.ndarray) -> np.ndarray:
    """Entropy of each matrix of a stack of density matrices, or of each
    (2, k, k) pair of flip-sector blocks, whose spectra join into one.
    eigvalsh sorts each spectrum ascending (a joined one is sorted again),
    so the entries above the floor are a suffix of its row; rows keeping k
    entries are summed together, bit for bit as _entropy_from_eigs sums one
    row."""
    lam = np.linalg.eigvalsh(g)
    if lam.ndim == 3:
        lam = np.sort(lam.reshape(len(lam), -1), axis=-1)
    kept = np.count_nonzero(lam > POLICY.eig_floor, axis=-1)
    out = np.empty(len(lam))
    for k in set(kept.tolist()):
        x = lam[kept == k, lam.shape[-1] - k:]
        out[kept == k] = -np.sum(x * np.log(x), axis=-1)
    return out


def partial_trace(rho: DensityMatrix, keep) -> DensityMatrix:
    ks, rest = _sorted_positions(keep, rho.shape.n_subsystems)
    dims, n = rho.shape.dims, rho.shape.n_subsystems
    dk, dr = rho.shape.dim_of(ks), rho.shape.dim_of(rest)
    # row axes i, column axes n+i; contract matching rest axes
    perm = list(ks) + [n + i for i in ks] + list(rest) + [n + i for i in rest]
    t = rho.mat.reshape(dims + dims).transpose(perm).reshape(dk, dk, dr, dr)
    out = np.einsum("ijkk->ij", t)
    return DensityMatrix(HilbertShape(tuple(dims[i] for i in ks)), 0.5 * (out + out.conj().T))


def apply_unitary(state: StateVector, u: np.ndarray, targets) -> StateVector:
    """Apply u to the listed target subsystems.

    targets is a sequence of positions in the tensor order of u's factors;
    a sorted copy must pass the one position rule (integers, no repeats,
    inside range(n)), else ValueError.
    """
    _, rest = _sorted_positions(targets, state.shape.n_subsystems)
    targets = tuple(int(i) for i in targets)
    dt = state.shape.dim_of(targets)
    u = np.asarray(u, dtype=complex)
    if u.shape != (dt, dt):
        raise ValueError(f"unitary shape {u.shape} does not match target dim {dt}")
    if not np.allclose(u.conj().T @ u, np.eye(dt), atol=POLICY.state_atol, rtol=0.0):
        raise ValueError("matrix is not unitary within tolerance")
    moved = u @ _moved_matrix(state, targets, rest)
    # undo the transpose
    order = targets + rest
    grid = moved.reshape([state.shape.dims[i] for i in order])
    return StateVector(state.shape, grid.transpose(np.argsort(order)).reshape(-1))


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
    ls, rs = _sorted_positions(left, state.shape.n_subsystems)
    if not ls or not rs:
        raise ValueError("bipartition must be a proper nonempty subset")
    a = _moved_matrix(state, ls, rs)
    u, s, vh = np.linalg.svd(a, full_matrices=False)
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
    ls, rs = _sorted_positions(left, shape.n_subsystems)
    a = np.zeros((shape.dim_of(ls), shape.dim_of(rs)), dtype=complex)
    for coeff, lv, rv in terms:
        a += coeff * np.outer(lv.amps, rv.amps.conj())

    grid = a.reshape([shape.dims[i] for i in ls] + [shape.dims[i] for i in rs])
    inv = np.argsort(list(ls) + list(rs))
    return StateVector(shape, grid.transpose(inv).reshape(-1))
