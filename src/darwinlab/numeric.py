"""Shared numeric policy, the one scalar root finder and the matrix exponential.

Every tolerance used for state validation or derived spectra lives in one
frozen record, POLICY, so tests and library code cannot drift apart.

brentq is a line-for-line port of scipy's C brentq
(scipy/optimize/Zeros/brentq.c, after R. P. Brent, "Algorithms for
Minimization without Derivatives", 1973) with scipy's default rtol and
maxiter. Every expression keeps scipy's order of operations, so it returns
the same float, bit for bit, and raises the same error types, without
importing scipy.optimize (the slowest module to import on the CLI's
path). tests/test_numeric.py checks it with == against
scipy.optimize.brentq.

expm is the scaling-and-squaring Pade method of N. J. Higham, "The scaling
and squaring method for the matrix exponential revisited", SIAM J. Matrix
Anal. Appl. 26 (2005) 1179-1193, in numpy alone, so that Gaussian evolution
does not import scipy.linalg. It differs from scipy.linalg.expm (the later
Al-Mohy & Higham variant) by rounding only; tests/test_numeric.py bounds
the gap on the QBM propagators and on random matrices.

_one_blas_thread pins numpy's bundled scipy-openblas to one thread for a
scope. OpenBLAS rounds differently at different thread counts, so every
fragment size of a plot and the Gaussian evolution run inside such a
scope and give the same bytes whatever OPENBLAS_NUM_THREADS says.
_forked_lanes, darwinlab's one lane mechanism, deals independent items
(a plot's fragment sizes, the Haar baseline's states) over one lane per
thread OpenBLAS had, every lane but the first a forked process. Every
plot that is not symmetric forks, small ones too: no clock gates it, and
a fork round trip costs about 3 ms.
"""
import contextlib
import functools
import math
import os
import pickle
import sys
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class NumericPolicy:
    # state validity: norms, hermiticity, trace
    state_atol: float = 1e-10
    # derived spectra: entropies, eigenvalue comparisons
    spectrum_atol: float = 1e-9
    # eigenvalues below this contribute nothing to entropies
    eig_floor: float = 1e-12
    # uncertainty-principle slack for Gaussian covariance checks
    symplectic_atol: float = 1e-8
    # dense Hilbert-space dimension cap
    dim_cap: int = 2 ** 20
    # branching-representation caps
    branch_cap: int = 64
    env_cap: int = 10 ** 6
    # Gaussian bath band cap
    band_cap: int = 256
    # finegraining branch-count cap
    finegrain_cap: int = 2 ** 16


POLICY = NumericPolicy()


class CapExceeded(ValueError):
    """A configured size cap would be exceeded."""


BRENTQ_RTOL = 4 * sys.float_info.epsilon
BRENTQ_MAXITER = 100


def _signbit(x: float) -> bool:
    return math.copysign(1.0, x) < 0.0


def _value(f, x: float) -> float:
    fx = f(x)
    if math.isnan(fx):
        raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
    return float(fx)


def brentq(f, a: float, b: float, xtol: float) -> float:
    """Root of f in [a, b] by Brent's method, as scipy.optimize.brentq.

    Raises ValueError if f(a) and f(b) have the same sign (or f returns
    NaN) and RuntimeError if BRENTQ_MAXITER steps do not converge.
    """
    if xtol <= 0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")
    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre = _value(f, xpre)
    fcur = _value(f, xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if _signbit(fpre) == _signbit(fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(BRENTQ_MAXITER):
        if fpre != 0 and fcur != 0 and _signbit(fpre) != _signbit(fcur):
            xblk = xpre
            fblk = fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre = xcur
            xcur = xblk
            xblk = xpre

            fpre = fcur
            fcur = fblk
            fblk = fpre

        delta = (xtol + BRENTQ_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = (-fcur * (fblk * dblk - fpre * dpre)
                        / (dblk * dpre * (fblk - fpre)))
            # C's MIN(x, y) is (x < y ? x : y); Python's min differs on NaN
            bound = 3 * abs(sbis) - delta
            if 2 * abs(stry) < (abs(spre) if abs(spre) < bound else bound):
                # good short step
                spre = scur
                scur = stry
            else:
                # bisect
                spre = sbis
                scur = sbis
        else:
            # bisect
            spre = sbis
            scur = sbis

        xpre = xcur
        fpre = fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += (delta if sbis > 0 else -delta)

        fcur = _value(f, xcur)
    raise RuntimeError(f"Failed to converge after {BRENTQ_MAXITER} iterations, "
                       f"value is {xcur:f}")


# Higham (2005), Table 2.3: the largest 1-norm at which the [13/13] Pade
# approximant keeps the backward error of exp below the unit roundoff 2^-53
_THETA_13 = 5.371920351148152
# numerator coefficients b_0 .. b_13 of the [13/13] Pade approximant
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0,
           670442572800.0, 33522128640.0, 1323241920.0, 40840800.0, 960960.0,
           16380.0, 182.0, 1.0)


def _pade13(a: np.ndarray) -> np.ndarray:
    """[13/13] Pade approximant of exp(a), in Higham's six-product form."""
    b = _PADE13
    ident = np.eye(len(a), dtype=a.dtype)
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident)
    # r = (V - U)^-1 (V + U) from the odd part U and the even part V
    return np.linalg.solve(v - u, v + u)


def expm(a) -> np.ndarray:
    """exp(a) of a square matrix by scaling and squaring (Higham 2005).

    A matrix whose 1-norm exceeds theta_13 is divided by the smallest power
    of two 2^s that brings it under theta_13 (an exact scaling); the [13/13]
    Pade approximant of the result is squared s times. expm(0) is returned
    as the identity.
    """
    a = np.asarray(a)
    a = a.astype(np.result_type(a.dtype, float), copy=False)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("expm needs a square matrix")
    norm = float(np.abs(a).sum(axis=0).max()) if a.size else 0.0
    if not math.isfinite(norm):
        raise ValueError("expm of a matrix with non-finite entries")
    if norm == 0.0:
        # LAPACK solves by multiplying with 1/b_0, which is not exact
        return np.eye(len(a), dtype=a.dtype)
    s = math.ceil(math.log2(norm / _THETA_13)) if norm > _THETA_13 else 0
    r = _pade13(a * 2.0 ** -s)
    for _ in range(s):
        r = r @ r
    return r


@functools.cache
def _openblas_threads():
    """(get, set) of the thread count of numpy's bundled scipy-openblas,
    found through ctypes in numpy.libs; None when numpy ships no such
    library. Looked up on first use, so importing this module loads
    nothing more."""
    import ctypes
    import glob
    pattern = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in sorted(glob.glob(pattern)):
        try:
            lib = ctypes.CDLL(path)
            get = lib.scipy_openblas_get_num_threads64_
            put = lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        put.argtypes, put.restype = [ctypes.c_int], None
        return get, put
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """Run the scope with the bundled OpenBLAS on one thread and yield the
    lane count: OpenBLAS's own thread count before the scope, so that its
    thread budget goes to lanes of work instead. The count is restored on
    exit. A scope entered on one thread (nested, or in a forked lane)
    leaves OpenBLAS alone: a fork stops its worker threads, and setting
    the count, even to 1, starts them again beside the lanes (the Haar
    baseline at n = 12 with 20 states took 470-560 ms, not 410-440).
    Without the bundled library the scope yields one lane and leaves BLAS
    as shipped. The thread count is process-wide, so scopes entered on two
    threads at once would see each other's setting; darwinlab enters them
    from one thread."""
    get, put = _openblas_threads() or (lambda: 1, None)
    threads = get()
    if threads <= 1:
        yield 1
        return
    put(1)
    try:
        yield threads
    finally:
        put(threads)


def _forked_lanes(work, items) -> list:
    """[work(x) for x in items], the items dealt over forked lanes.

    Inside _one_blas_thread the lane count is the thread count OpenBLAS
    had, at most one lane per item. Lane 0 runs in this process and every
    other lane in an os.fork child. The items wait as 4-byte tickets in
    one pipe that every lane reads, so a lane takes the next ticket when
    it has finished one. A ticket is one item, or, past the PIPE_BUF
    bytes a pipe holds whole, a run of consecutive positions. A child
    sends its (position, result) pairs pickled through its own pipe; the
    results come back in item order. The items run in line, inside the
    scope, when BLAS has one thread (as in a lane, so nothing forks
    twice) or is not the bundled scipy-openblas, without os.fork, or for
    a single item.

    An item that raises ends its lane and empties the ticket pipe, so the
    other lanes stop after their current ticket. Tickets are read in
    position order, so every position below a failed one has been taken
    and runs: the serial loop's error, that of the lowest failed position,
    is raised here with its type (as RuntimeError if a child cannot pickle
    it). Every child is reaped before this returns or raises.

    Fork, not spawn: a spawned lane would import numpy and darwinlab
    afresh, about half of what a baseline run saves. Fork is safe when
    the only other threads are OpenBLAS's, which its own fork handler
    stops and restarts; darwinlab starts no Python thread, so that holds
    for the CLI. build_pip says what a library caller should know.
    """
    items = list(items)
    with _one_blas_thread() as lanes:
        lanes = min(lanes, len(items)) if hasattr(os, "fork") else 1
        if lanes <= 1:
            return [work(x) for x in items]
        tickets, w = os.pipe()
        run = -(-len(items) // (os.fpathconf(w, "PC_PIPE_BUF") // 4))
        with os.fdopen(w, "wb") as pipe:
            pipe.write(b"".join(t.to_bytes(4, "little") for t in range(0, len(items), run)))
        children = []  # (lane, pid, read end of its pipe) of the lanes not yet reaped
        try:
            for lane in range(1, lanes):
                r, w = os.pipe()
                try:
                    pid = os.fork()
                    if pid == 0:  # the child leaves inside _child_lane
                        _child_lane(r, w, work, items, tickets, run)
                except BaseException:
                    os.close(r)
                    raise
                finally:
                    os.close(w)
                children.append((lane, pid, r))
            done, failed = _lane(work, items, tickets, run)
            failures = [failed] if failed else []
            while children:
                lane, pid, r = children.pop(0)
                with os.fdopen(r, "rb") as pipe:
                    try:
                        data = pipe.read()
                    finally:
                        _, status = os.waitpid(pid, 0)
                if not data:
                    raise ChildProcessError(f"lane {lane} ended with exit code "
                                            f"{os.waitstatus_to_exitcode(status)} and no result")
                made, failed = pickle.loads(data)
                done += made
                failures += [failed] if failed else []
        finally:
            os.close(tickets)
            for _, pid, r in children:
                os.close(r)
                os.kill(pid, 9)  # SIGKILL: its result is moot
                os.waitpid(pid, 0)
    if failures:
        raise min(failures, key=lambda f: f[0])[1]
    results = [None] * len(items)
    for pos, value in done:
        results[pos] = value
    return results


def _lane(work, items, tickets: int, run: int):
    """One lane's share: the (position, work(item)) pairs of the tickets
    it reads until the pipe is empty, `run` positions a ticket, and
    (position, error) of the item that raised, which ends the lane, or None."""
    done = []
    while ticket := os.read(tickets, 4):
        first = int.from_bytes(ticket, "little")
        for pos in range(first, min(first + run, len(items))):
            try:
                done.append((pos, work(items[pos])))
            except Exception as exc:  # raised again by _forked_lanes
                while os.read(tickets, 4096):  # no ticket is left for the others
                    pass
                return done, (pos, exc)
    return done, None


def _child_lane(r: int, w: int, work, items, tickets: int, run: int):
    """Body of a forked lane: its _lane result pickled into w. Leaves by
    os._exit, so none of the parent's cleanup, atexit hooks or stdio
    buffers run twice."""
    try:
        os.close(r)
        done, failed = _lane(work, items, tickets, run)
        if failed:
            try:
                pickle.dumps(failed[1])
            except Exception:
                failed = failed[0], RuntimeError(f"item {failed[0]}: {failed[1]!r}")
        with os.fdopen(w, "wb") as pipe:
            pipe.write(pickle.dumps((done, failed)))
    finally:
        os._exit(0)
