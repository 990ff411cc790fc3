"""Quadrature oracle: K_nu reference values, the adaptive integrator and
the Riemann-Liouville fractional integral."""

import math

import pytest

from afrelay.reference import (
    QuadratureError,
    QuadratureSpec,
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

    def test_respects_spec_object(self):
        spec = QuadratureSpec(abs_tol=1e-8, rel_tol=1e-6, max_subdivisions=50)
        got = adaptive_quad(math.exp, 0.0, 1.0, spec)
        assert got == pytest.approx(math.e - 1.0, rel=1e-6)

    def test_budget_exhaustion_raises(self):
        # an integrand with a dense comb of narrow spikes cannot converge
        # on a one-interval budget
        spec = QuadratureSpec(abs_tol=1e-13, rel_tol=1e-13, max_subdivisions=1)
        f = lambda t: math.sin(1000.0 * t) ** 2
        with pytest.raises(QuadratureError) as err:
            adaptive_quad(f, 0.0, 50.0, spec)
        assert math.isfinite(err.value.estimate)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            QuadratureSpec(abs_tol=0.0)
        with pytest.raises(ValueError):
            QuadratureSpec(max_subdivisions=0)


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
