"""Shared numeric policy, and the one scalar root finder.

Every tolerance used for state validation or derived spectra lives in one
record so tests and library code cannot drift apart. Mutating POLICY is
allowed (e.g. to loosen caps in exploratory scripts) but the defaults are
what the test suite pins down.

brentq is a line-for-line port of scipy's C brentq
(scipy/optimize/Zeros/brentq.c, after R. P. Brent, "Algorithms for
Minimization without Derivatives", 1973) with scipy's default rtol and
maxiter. Every expression keeps scipy's order of operations, so it returns
the same float, bit for bit, and raises the same error types, without
importing scipy.optimize (the slowest module to import on the CLI's
path). tests/test_numeric.py checks it with == against
scipy.optimize.brentq.
"""
import math
import sys
from dataclasses import dataclass


@dataclass
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
