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
scope and hands the thread count it had to the caller as a lane count.
OpenBLAS rounds a product or factorization differently at different
thread counts, so the Gaussian path, which runs inside this scope, gives
the same bytes whatever OPENBLAS_NUM_THREADS says.
"""
import contextlib
import functools
import math
import os
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
    exit. Without the bundled library the scope yields one lane and leaves
    BLAS as shipped. The thread count is process-wide, so scopes entered
    on two threads at once would see each other's setting; darwinlab
    enters them from one thread."""
    handle = _openblas_threads()
    if handle is None:
        yield 1
        return
    get, put = handle
    threads = get()
    put(1)
    try:
        yield max(1, threads)
    finally:
        put(threads)
