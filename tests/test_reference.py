"""Quadrature: K_nu reference values, the adaptive integrator, the
Riemann-Liouville fractional integral and the fixed Gauss-Legendre table."""

import math

import mpmath
import numpy as np
import pytest
from scipy.special import kve

from afrelay.channel import ChannelParams, combined_cdf_exact
from afrelay.reference import (
    _GAUSS_LEGENDRE,
    QuadratureError,
    adaptive_quad,
    bessel_k,
    fractional_integral,
)


class TestBesselK:
    def test_half_integer_closed_forms(self):
        # K_{1/2}(z) = sqrt(pi/(2z)) e^{-z}; K_{3/2}(z) = same * (1 + 1/z)
        for z in (0.3, 1.0, 2.0, 5.0):
            half = math.sqrt(math.pi / (2 * z)) * math.exp(-z)
            assert bessel_k(0.5, z) == pytest.approx(half, rel=1e-9)
            assert bessel_k(1.5, z) == pytest.approx(half * (1 + 1 / z), rel=1e-9)

    def test_known_points(self):
        assert bessel_k(0.5, 1.0) == pytest.approx(
            math.sqrt(math.pi / 2) * math.exp(-1), rel=1e-10
        )
        assert bessel_k(1.0, 2.0) == pytest.approx(0.139866, rel=1e-5)
        assert bessel_k(0.0, 1.0) == pytest.approx(0.421024, rel=1e-5)

    def test_three_term_recurrence(self):
        # K_2(z) = K_0(z) + (2/z) K_1(z)
        z = 0.5
        while z <= 5.0:
            lhs = bessel_k(2.0, z)
            rhs = bessel_k(0.0, z) + (2.0 / z) * bessel_k(1.0, z)
            assert abs(lhs - rhs) / lhs < 1e-8, z
            z += 0.5

    def test_large_argument_asymptotic(self):
        # K_nu(z) ~ sqrt(pi/(2z)) e^{-z} for large z, any order
        z = 60.0
        lead = math.sqrt(math.pi / (2 * z)) * math.exp(-z)
        assert bessel_k(1.0, z) == pytest.approx(lead, rel=0.01)

    @pytest.mark.parametrize("nu", (0.0, 1.0, 2.0, 3.7))
    def test_relative_accuracy_everywhere(self, nu):
        # kve(nu, z) e^-z is scipy's kv without its underflow to 0 at
        # z = 700.  An absolute tolerance floor, or an integrand gone
        # subnormal (unscaled, above z ~ 685), would cost relative accuracy
        # at large z; measured worst 4e-15
        for z in np.geomspace(1e-8, 700.0, 400).tolist() + [690.0, 705.0]:
            want = kve(nu, z) * math.exp(-z)
            assert abs(bessel_k(nu, z) - want) <= 1e-13 * want, z

    def test_domain(self):
        with pytest.raises(ValueError):
            bessel_k(1.0, 0.0)
        with pytest.raises(ValueError):
            bessel_k(-1.0, 1.0)
        with pytest.raises(ValueError):
            bessel_k(1.0, math.inf)


class TestAdaptiveQuad:
    def test_polynomial_exact(self):
        got = adaptive_quad(lambda t: 3 * t * t, 0.0, 2.0)
        assert got == pytest.approx(8.0, rel=1e-12)

    def test_respects_tolerances(self):
        got = adaptive_quad(math.exp, 0.0, 1.0, abs_tol=1e-8, rel_tol=1e-6, limit=50)
        assert got == pytest.approx(math.e - 1.0, rel=1e-6)

    def test_budget_exhaustion_raises(self):
        # an integrand with a dense comb of narrow spikes cannot converge
        # on a one-interval budget
        f = lambda t: math.sin(1000.0 * t) ** 2
        with pytest.raises(QuadratureError) as err:
            adaptive_quad(f, 0.0, 50.0, abs_tol=1e-13, rel_tol=1e-13, limit=1)
        assert math.isfinite(err.value.estimate)

    def test_settings_checked_by_scipy(self):
        # scipy refuses no tolerance at all and an empty budget; an
        # absolute-only tolerance is a valid setting
        with pytest.raises(ValueError):
            adaptive_quad(math.exp, 0.0, 1.0, abs_tol=0.0, rel_tol=0.0)
        with pytest.raises(ValueError):
            adaptive_quad(math.exp, 0.0, 1.0, limit=0)
        got = adaptive_quad(math.exp, 0.0, 1.0, abs_tol=1e-12, rel_tol=0.0)
        assert got == pytest.approx(math.e - 1.0, rel=1e-12)


class TestFractionalIntegral:
    def test_power_rule(self):
        # integral of order s applied to t**p gives
        # Gamma(1+p)/Gamma(1+p+s) x**(p+s)
        for s in (0.25, 0.5, 1.0, 1.5, 2.5, 4.0):
            for p in (0, 1, 2):
                for x in (0.5, 1.0, 2.0):
                    expected = (
                        math.gamma(1 + p) / math.gamma(1 + p + s) * x ** (p + s)
                    )
                    got = fractional_integral(lambda t: t**p, s, x)
                    assert got == pytest.approx(expected, rel=1e-9), (s, p, x)

    def test_zero_function(self):
        assert fractional_integral(lambda t: 0.0, 0.3, 1.0) == 0.0

    def test_reduces_to_plain_integral_at_order_one(self):
        got = fractional_integral(math.cos, 1.0, 1.5)
        assert got == pytest.approx(math.sin(1.5), rel=1e-10)

    def test_domain(self):
        with pytest.raises(ValueError):
            fractional_integral(math.exp, 0.0, 1.0)
        with pytest.raises(ValueError):
            fractional_integral(math.exp, 0.5, 0.0)


class TestGaussLegendreTable:
    def test_each_entry_is_its_40_digit_value_rounded(self):
        # the positive roots of P_20 by mpmath.findroot from the cosine guesses,
        # w = 2 / ((1 - s^2) P_20'(s)^2); on a mismatch the message holds
        # the table's lines as they should read
        n = 2 * len(_GAUSS_LEGENDRE)
        rows = []
        with mpmath.workdps(40):
            weight_sum = 0
            for i in range(n // 2, 0, -1):
                guess = mpmath.cos(mpmath.pi * (i - 0.25) / (n + 0.5))
                s = mpmath.findroot(lambda t: mpmath.legendre(n, t), guess)
                dp = n * (s * mpmath.legendre(n, s) - mpmath.legendre(n - 1, s)) / (s * s - 1)
                w = 2 / ((1 - s * s) * dp * dp)
                weight_sum += w
                rows.append((float(s), float(w)))
            # ten distinct roots: their weights sum to half the interval
            assert abs(weight_sum - 1) < mpmath.mpf(10) ** -35
        lines = "\n".join(f"    ({s!r}, {w!r})," for s, w in rows)
        assert tuple(rows) == _GAUSS_LEGENDRE, f"the table should read:\n{lines}"

    def test_exact_cdf_at_a_fast_direct_path(self):
        # lambda_sd = 1e8, x = 1e-3: the direct-path density lives within a
        # few 1e-8 of u = x, where u(t) = x + log(t) / lambda_sd spreads it
        # over all of t in [0, 1].  The convolution at 30 digits is
        # 0.0021216283976809336077 at x = 1e-3 and 4.4e-20 more at the
        # double nearest it, 2.1e-20 past; the panels are 1.1e-16 from it
        p = ChannelParams(gamma=100.0, lambda_sd=1e8, lambda_sr=1.0, lambda_rd=1.0)
        x = 1e-3
        with mpmath.workdps(30):
            lam, xm = mpmath.mpf(p.lambda_sd), mpmath.mpf(x)

            def survival(u):  # of S: z K_1(z) exp(-lambda_s u)
                z = 2 * mpmath.sqrt(p.lambda_p * u * (u + 1 / mpmath.mpf(p.gamma)))
                return z * mpmath.besselk(1, z) * mpmath.exp(-p.lambda_s * u) if u else 1

            cuts = [0] + [mpmath.mpf(k) / lam for k in (1, 4, 16, 64)] + [xm]
            inner = mpmath.quad(lambda v: lam * mpmath.exp(-lam * v) * survival(xm - v), cuts)
            want = 1 - mpmath.exp(-lam * xm) - inner
            assert abs(want - mpmath.mpf("0.0021216283976809336077")) < 1e-19
        assert abs(combined_cdf_exact(p, x) - float(want)) <= 2e-15
