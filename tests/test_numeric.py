"""numeric.brentq against its oracle, scipy.optimize.brentq, compared with ==;
numeric.expm against scipy.linalg.expm and exact exponentials.

scipy is imported here only; the library's root finds and Gaussian
evolution never load it.
"""
import math

import numpy as np
import pytest
from scipy.linalg import expm as scipy_expm
from scipy.optimize import brentq as scipy_brentq

from darwinlab import numeric
from darwinlab.branching import two_branch_entropy
from darwinlab.darwin import PhotonSource
from darwinlab.numeric import BRENTQ_MAXITER, brentq, expm
from darwinlab.photon import invert_partial_info, photon_mutual_info
from darwinlab.qbm import OhmicBathParams, _symplectic_form, qbm_generator
from darwinlab.spinmodels import binary_entropy, haze_weight

LN2 = math.log(2.0)


def outcome(solver, f, a, b, xtol):
    """The returned float, or the type of the raised error."""
    try:
        return solver(f, a, b, xtol)
    except (ValueError, RuntimeError) as exc:
        return type(exc)


def oracle(f, a, b, xtol):
    return scipy_brentq(f, a, b, xtol=xtol)


def assert_same(f, a, b, xtol):
    want = outcome(oracle, f, a, b, xtol)
    got = outcome(brentq, f, a, b, xtol)
    assert got == want and type(got) is type(want)
    return got


class TestCallSites:
    def test_haze_weight(self):
        for h in np.linspace(0.0, LN2, 401)[1:-1]:
            want = oracle(lambda q: binary_entropy(q) - h, 0.5, 1.0 - 1e-16, 1e-15)
            assert haze_weight(h) == want

    def test_invert_partial_info(self):
        for gamma in (0.0, 1e-6, 1e-3, 0.1, 0.5, 0.9, 0.999):
            lo, hi = photon_mutual_info(gamma, 0.0), photon_mutual_info(gamma, 1.0)
            for target in np.linspace(lo, hi, 41):
                def f(x):
                    return photon_mutual_info(gamma, x) - target
                assert invert_partial_info(gamma, target) == oracle(f, 0.0, 1.0, 1e-14)

    def test_decoherence_fraction(self):
        for gamma in (0.0, 1e-6, 1e-3, 0.1, 0.5, 0.9, 0.999):
            src = PhotonSource(gamma, n_env=64)
            for delta_d in np.linspace(0.0, 1.0, 41)[1:-1]:
                got = src.decoherence_fraction(delta_d)
                if gamma == 0.0:
                    assert got == 1.0 / 64  # closed form, no root find
                    continue
                target = (1.0 - delta_d) * src.system_entropy()

                def f(x):
                    return two_branch_entropy(gamma ** x) - target
                assert got == oracle(f, 0.0, 1.0, 1e-14)


class TestRandomFunctions:
    @pytest.mark.parametrize("xtol", [1e-15, 2e-12, 1e-6])
    def test_cubic_plus_sine(self, xtol):
        rng = np.random.default_rng(int(-math.log10(xtol)))
        raised = 0
        for _ in range(600):
            c = rng.normal(size=4)
            w = rng.uniform(0.5, 8.0)

            def f(x):
                return c[0] + c[1] * x + c[2] * x ** 3 + c[3] * math.sin(w * x)
            got = assert_same(f, -rng.uniform(0.1, 3.0), rng.uniform(0.1, 3.0), xtol)
            raised += got is ValueError
        # the grid covers both outcomes: roots found and same-sign endpoints
        assert 0 < raised < 600


class TestErrors:
    def test_same_sign_endpoints(self):
        assert assert_same(lambda x: x * x + 1.0, -1.0, 2.0, 1e-12) is ValueError

    def test_signs_not_an_underflowing_product(self):
        # 1e-200 * 1e-200 underflows to 0; the sign bits still match
        assert assert_same(lambda x: 1e-200 * (x * x + 1.0), -1.0, 1.0,
                           1e-12) is ValueError

    def test_no_convergence(self):
        # a jump is found by bisection alone; wide brackets need more than
        # BRENTQ_MAXITER steps; the half-widths step by factors of 2
        def step(x):
            return 1.0 if x > 0.1 else -1.0
        results = [assert_same(step, -2.0 ** k, 2.0 ** k, 1e-300) for k in range(80)]
        assert RuntimeError in results and results[0] is not RuntimeError
        with pytest.raises(RuntimeError, match=str(BRENTQ_MAXITER)):
            brentq(step, -1e300, 1e300, 1e-300)

    def test_nan_value(self):
        assert assert_same(lambda x: math.nan if x > 0.5 else x - 0.75, 0.0, 1.0,
                           1e-12) is ValueError

    def test_nonpositive_xtol(self):
        assert assert_same(lambda x: x, -1.0, 1.0, 0.0) is ValueError

    def test_root_at_an_endpoint(self):
        assert assert_same(lambda x: x - 1.0, 1.0, 3.0, 1e-12) == 1.0
        assert assert_same(lambda x: x - 3.0, 1.0, 3.0, 1e-12) == 3.0


def qbm_flow(bands: int, when: str) -> np.ndarray:
    """t times the QBM generator, at t = 0.5, 3 or just below recurrence."""
    bath = OhmicBathParams(bands=bands)
    t = {"0.5": 0.5, "3": 3.0,
         "recurrence": float(np.nextafter(bath.recurrence_time, 0.0))}[when]
    return t * qbm_generator(bath)


def extended_expm(a: np.ndarray) -> np.ndarray:
    """Oracle in long double: Taylor series of a / 2^s, norm at most 1, then
    s squarings; its truncation error is far below double rounding. The
    Taylor products touch only the nonzeros of a, which keeps the sparse QBM
    generator cheap; einsum against a contiguous transpose is the fastest
    long-double product numpy offers for the squarings."""
    a = a.astype(np.longdouble)
    s = max(0, math.ceil(math.log2(float(np.abs(a).sum(axis=0).max()))))
    a = a / np.longdouble(2) ** s
    rows, cols = np.nonzero(a)
    vals = a[rows, cols, None]
    ident = np.eye(len(a), dtype=np.longdouble)
    r = ident
    for k in range(30, 0, -1):
        ar = np.zeros_like(r)
        np.add.at(ar, rows, vals * r[cols])
        r = ident + ar / k
    for _ in range(s):
        r = np.einsum("ij,kj->ik", r, np.ascontiguousarray(r.T))
    return r


class TestExpm:
    # scipy's expm (Al-Mohy & Higham 2009) misses an 80-bit reference by
    # 1.7e-12 on this propagator, numeric.expm by 4.5e-13; the two agree to
    # 1.5e-12 there and within 1e-12 everywhere else
    SCIPY_OWN_ERROR = {(256, "recurrence"): 2e-12}

    @pytest.mark.parametrize("when", ["0.5", "3", "recurrence"])
    @pytest.mark.parametrize("bands", [16, 64, 128, 256])
    def test_propagator_matches_scipy(self, bands, when):
        a = qbm_flow(bands, when)
        want = scipy_expm(a)
        tol = self.SCIPY_OWN_ERROR.get((bands, when), 1e-12)
        assert np.max(np.abs(expm(a) - want)) <= tol * np.max(np.abs(want))

    @pytest.mark.parametrize("when", ["0.5", "3", "recurrence"])
    @pytest.mark.parametrize("bands", [16, 64, 128, 256])
    def test_propagator_is_symplectic(self, bands, when):
        s = expm(qbm_flow(bands, when))
        omega = _symplectic_form(bands + 1)
        assert np.max(np.abs(s.T @ omega @ s - omega)) <= 1e-12

    # numeric.expm misses the 80-bit reference just below recurrence by
    # 7.8e-14 at 64 bands (scipy by 3.4e-13) and by 4.5e-13 at 256 bands
    # (scipy by 1.7e-12); the reference itself is good to about 1e-15
    @pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                        reason="long double is no wider than double here")
    @pytest.mark.parametrize("bands, tol", [(64, 2e-13), (256, 6e-13)])
    def test_propagator_against_extended_precision(self, bands, tol):
        a = qbm_flow(bands, "recurrence")
        assert float(np.max(np.abs(expm(a) - extended_expm(a)))) <= tol

    def test_random_matrices_scaled_and_unscaled(self, monkeypatch):
        pade13 = numeric._pade13
        scaled = []
        monkeypatch.setattr(numeric, "_pade13",
                            lambda a: scaled.append(np.abs(a).sum(axis=0).max()) or pade13(a))
        rng = np.random.default_rng(8)
        for norm in np.logspace(-3, 3, 13):
            for n in (4, 12):
                a = rng.standard_normal((n, n))
                a *= norm / np.abs(a).sum(axis=0).max()
                want = scipy_expm(a)
                assert np.max(np.abs(expm(a) - want)) <= 1e-12 * np.max(np.abs(want))
                # a [13/13] call on a scaled by 2^-s; s = 0 leaves a as is
                assert scaled[-1] <= numeric._THETA_13
                assert (scaled[-1] < np.abs(a).sum(axis=0).max()) == (norm > numeric._THETA_13)

    def test_rotation_against_cos_sin(self):
        for theta in np.logspace(-3, 3, 25):
            got = expm(np.array([[0.0, theta], [-theta, 0.0]]))
            c, s = math.cos(theta), math.sin(theta)
            assert np.max(np.abs(got - np.array([[c, s], [-s, c]]))) <= 1e-13

    def test_zero_is_exactly_the_identity(self):
        for n in (1, 2, 7, 258):
            assert np.array_equal(expm(np.zeros((n, n))), np.eye(n))

    def test_rejects_bad_input(self):
        for a in (np.zeros((2, 3)), np.zeros(4), np.array([[0.0, np.inf], [0.0, 0.0]]),
                  np.array([[np.nan]])):
            with pytest.raises(ValueError):
                expm(a)


class TestOneBlasThread:
    def test_pins_one_thread_and_restores(self):
        handle = numeric._openblas_threads()
        if handle is None:
            pytest.skip("numpy ships no scipy-openblas")
        get, put = handle
        before = get()
        with numeric._one_blas_thread() as lanes:
            assert lanes == before
            assert get() == 1
        assert get() == before
        with pytest.raises(RuntimeError):
            with numeric._one_blas_thread():
                raise RuntimeError
        assert get() == before

    def test_one_lane_without_the_library(self, monkeypatch):
        monkeypatch.setattr(numeric, "_openblas_threads", lambda: None)
        with numeric._one_blas_thread() as lanes:
            assert lanes == 1
