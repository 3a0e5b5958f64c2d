"""numeric.brentq against its oracle, scipy.optimize.brentq, compared with ==.

scipy is imported here only; the library's root finds never load it.
"""
import math

import numpy as np
import pytest
from scipy.optimize import brentq as scipy_brentq

from darwinlab.branching import two_branch_entropy
from darwinlab.darwin import PhotonSource
from darwinlab.numeric import BRENTQ_MAXITER, brentq
from darwinlab.photon import invert_partial_info, photon_mutual_info
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
