import math

import mpmath
import numpy as np
import pytest

from cqduffing.elliptic import cn_period, complete_k, jacobi_sn_cn_dn

# independent oracle values (mpmath theta-function evaluation, 30 digits)
CN_1_HALF = 0.5959765676721407   # cn(1, m=0.5)
K_HALF = 1.8540746773013719      # K(0.5) by the integral definition


class TestCn:
    def test_cn_at_zero(self):
        for m in (-2.0, 0.0, 0.3, 0.97, 1.0, 2.5):
            assert jacobi_sn_cn_dn(0.0, m)[1] == pytest.approx(1.0, abs=1e-15)

    def test_circular_limit(self):
        for u in np.linspace(-7, 7, 41):
            assert jacobi_sn_cn_dn(u, 0.0)[1] == pytest.approx(math.cos(u), abs=1e-14)

    def test_hyperbolic_limit(self):
        for u in np.linspace(-7, 7, 41):
            assert jacobi_sn_cn_dn(u, 1.0)[1] == pytest.approx(1 / math.cosh(u), abs=1e-14)

    def test_against_independent_oracle(self):
        assert jacobi_sn_cn_dn(1.0, 0.5)[1] == pytest.approx(CN_1_HALF, abs=1e-12)

    def test_mpmath_cross_check_all_ranges(self, rng):
        for mlo, mhi in ((0.0, 0.999), (1.001, 5.0), (-5.0, -0.01)):
            for _ in range(40):
                u = rng.uniform(-8, 8)
                m = rng.uniform(mlo, mhi)
                sn, cn, dn = jacobi_sn_cn_dn(u, m)
                for got, name in ((sn, "sn"), (cn, "cn"), (dn, "dn")):
                    want = complex(mpmath.ellipfun(name, u, m=m))
                    assert abs(want.imag) < 1e-15
                    assert got == pytest.approx(want.real, abs=2e-12), (name, u, m)

    def test_pythagorean_identities(self, rng):
        for _ in range(1000):
            u = rng.uniform(-10, 10)
            m = rng.uniform(0.0, 1.0 - 1e-12)
            sn, cn, dn = jacobi_sn_cn_dn(u, m)
            assert abs(sn * sn + cn * cn - 1.0) < 1e-12
            assert abs(dn * dn + m * sn * sn - 1.0) < 1e-12

    def test_periodicity(self, rng):
        for m in (0.1, 0.3, 0.8):
            K = complete_k(m)
            for u in rng.uniform(-5, 5, 20):
                assert jacobi_sn_cn_dn(u + 4 * K, m)[1] == pytest.approx(jacobi_sn_cn_dn(u, m)[1],
                                                                         abs=1e-10)

    def test_hyperbolic_limit_past_the_cosh_overflow(self):
        # cosh overflows past |u| ~ 710: sech takes its limit 0.0
        assert jacobi_sn_cn_dn(720.0, 1.0) == (1.0, 0.0, 0.0)
        assert jacobi_sn_cn_dn(-720.0, 1.0) == (-1.0, 0.0, 0.0)
        assert jacobi_sn_cn_dn(700.0, 1.0)[1] == 1.0 / math.cosh(700.0) > 0.0

    def test_near_circular_limit(self):
        worst = max(abs(jacobi_sn_cn_dn(u, 1e-12)[1] - math.cos(u))
                    for u in np.linspace(-5, 5, 201))
        assert worst < 1e-9

    def test_near_hyperbolic_limit(self):
        worst = max(abs(jacobi_sn_cn_dn(u, 1 - 1e-12)[1] - 1 / math.cosh(u))
                    for u in np.linspace(-5, 5, 201))
        assert worst < 1e-6

    def test_rejects_non_finite_parameter(self):
        with pytest.raises(ValueError, match="non-finite"):
            jacobi_sn_cn_dn(1.0, math.nan)[1]
        with pytest.raises(ValueError, match="non-finite"):
            jacobi_sn_cn_dn(math.inf, 0.5)[1]


class TestCompleteK:
    def test_circular_value(self):
        assert complete_k(0.0) == pytest.approx(math.pi / 2, abs=1e-15)

    def test_oracle_value(self):
        assert complete_k(0.5) == pytest.approx(K_HALF, abs=1e-13)

    def test_monotone(self):
        ms = np.linspace(0.0, 0.99, 50)
        ks = [complete_k(m) for m in ms]
        assert all(k2 > k1 for k1, k2 in zip(ks, ks[1:]))

    def test_quarter_period(self):
        m = 0.3
        assert jacobi_sn_cn_dn(4 * complete_k(m), m)[1] == pytest.approx(1.0, abs=1e-10)

    def test_domain_errors(self):
        for m in (1.0, 1.5, -0.2, math.nan):
            with pytest.raises(ValueError):
                complete_k(m)


class TestCnPeriod:
    def test_matches_direct_period(self):
        for m in (0.3, -0.7, 1.31, 2.4):
            T = cn_period(m)
            for u in (0.0, 0.4, 1.1):
                assert jacobi_sn_cn_dn(u + T, m)[1] == pytest.approx(jacobi_sn_cn_dn(u, m)[1],
                                                                     abs=1e-10)

    def test_hyperbolic_is_aperiodic(self):
        assert cn_period(1.0) == math.inf


@pytest.mark.parametrize("m", [math.nan, math.inf, -math.inf])
def test_cn_period_rejects_non_finite_m(m):
    with pytest.raises(ValueError, match="non-finite parameter"):
        cn_period(m)
