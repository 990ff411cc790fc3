"""Series construction: Lah numbers, term coefficients, collapsed tables,
truncated evaluation and the reciprocal-exponential derivative, and the
argument gates and the refusal past the doubles that every module shares."""

import hashlib
import math
import re
import warnings
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from scipy.special import kve

from afrelay import bessel_series, validation
from afrelay.bessel_series import (
    K_MAX,
    CoefficientTable,
    evaluate,
    exp_reciprocal_deriv,
    lah,
    series_coeffs,
    term_coeff,
)
from afrelay.channel import ChannelParams, SeriesCdfCoeffs, combined_cdf_coeffs
from afrelay.metrics import bit_error_prob, capacity
from afrelay.montecarlo import SimConfig, simulate
from afrelay.reference import bessel_k, fractional_integral
from afrelay.validation import _exp_reciprocal_fd

README = Path(__file__).resolve().parents[1] / "README.md"


def collapsed_mp(nu: float, k: int):
    """The depth-k table of the double order nu, summed at 60 significant
    digits from the term formula."""
    v, half = mp.mpf(nu), mp.mpf(1) / 2

    def term(n, i):
        L = lah(n, i)
        if L == 0:
            return mp.mpf(0)
        num = (-1) ** i * mp.sqrt(mp.pi) * mp.gamma(2 * v) * mp.gamma(half + n - v) * L
        den = mp.mpf(2) ** (v - i) * mp.gamma(half - v) * mp.gamma(half + n + v) * mp.factorial(n)
        return num / den

    with mp.workdps(60):
        return [+mp.fsum(term(l, q) for l in range(q, k + 1)) for q in range(k + 1)]


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
        for k in (5, 10, 30):
            a = series_coeffs(1.0, k).a
            for q, ref in enumerate(collapsed_mp(1.0, k)):
                assert abs((mp.mpf(a[q]) - ref) / ref) < 1e-12, (k, q)

    @pytest.mark.parametrize("k", (2, 10, 30))
    @pytest.mark.parametrize("nu", [n + 0.5 + s for n in range(4) for s in (-1e-13, 1e-13)])
    def test_near_half_integer_against_extended_precision(self, nu, k):
        # only the exact half-integers are poles: 1e-13 away the table
        # holds within 1e-14 of its largest entry (measured worst 4.4e-15)
        a = series_coeffs(nu, k).a
        ref = collapsed_mp(nu, k)
        scale = max(abs(r) for r in ref)
        for q in range(k + 1):
            assert abs(mp.mpf(a[q]) - ref[q]) < 1e-14 * scale, (nu, k, q)

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

    @pytest.mark.parametrize("nu", (0.5, 1.5, 2.5, 151.2, 170.0, 1e16, 1e300))
    def test_refused_where_a_term_leaves_the_doubles(self, nu):
        # the gamma poles, an overflowing exp and 0.5 - nu rounding to an
        # integer all refuse with one ValueError: no OverflowError, nan
        # table or numpy warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for k in (0, 10, 30):
                with pytest.raises(ValueError, match="half-integer order unsupported"):
                    series_coeffs(nu, k)
                with pytest.raises(ValueError, match="past the double range"):
                    evaluate(nu, k, 1.0)

    def test_finite_tables_keep_their_bits(self):
        # the gate has no margin: 150.25 at depth 30 is just inside the
        # double range, and every table here is pinned to the bit
        h = hashlib.sha256()
        for nu in (0.25, 1.0, 2.0, 3.7, 7.25, 150.25):
            for k in (0, 2, 10, 30):
                h.update(" ".join(map(float.hex, series_coeffs(nu, k).a)).encode() + b"\n")
        assert h.hexdigest() == (
            "c60cd2717764cfcf7a5ebc841b7cebd055b92433ecc366f42edde86a7b2ebcb2"
        )

    def test_table_is_the_cached_tuple(self):
        # the coefficients are a tuple of Python floats, the depth is read
        # off their count, and each (nu, k) has one table
        t = series_coeffs(1.0, 7)
        assert isinstance(t.a, tuple) and all(type(v) is float for v in t.a)
        assert t.k == len(t.a) - 1 == 7
        assert series_coeffs(1.0, 7) is t and series_coeffs(1, 7) is t
        assert CoefficientTable(nu=2.0, a=(1.0, 0.5)).k == 1


def test_coefficient_table_check_names_a_mismatch(monkeypatch):
    # one printed value off by far more than its last digit: the check
    # fails and prints the entry's k=... q=... line
    (k, q, printed, digits), *rest = validation._PRINTED
    monkeypatch.setattr(validation, "_PRINTED", [(k, q, 2.0 * printed, digits), *rest])
    result = validation.check_coefficient_table()
    assert not result.passed
    assert result.lines[0] == f"printed-value mismatches: 1 of {len(validation._PRINTED)}"
    assert result.lines[1].startswith(f"k={k} q={q}: computed ")


class TestEvaluate:
    def test_shallow_depth_small_argument(self):
        # depth 2 at z = 0.1: value pinned, ~1% off the quadrature oracle
        value = evaluate(1.0, 2, 0.1)
        assert value == pytest.approx(9.760179615881214, rel=1e-12)
        oracle = bessel_k(1.0, 0.1)
        assert oracle == pytest.approx(9.853844780870604, rel=1e-10)
        assert abs(value - oracle) / oracle < 0.011

    def test_depth_ten_moderate_argument(self):
        # depth 10 at z = 2: pinned value; the measured oracle deviation is
        # 1.10e-3 relative, just past the nominal 1e-3 envelope of the
        # depth-10 row, so the assertion reflects what the series does
        value = evaluate(1.0, 10, 2.0)
        assert value == pytest.approx(0.13971156974097615, rel=1e-12)
        oracle = bessel_k(1.0, 2.0)
        assert oracle == pytest.approx(0.13986588181652246, rel=1e-10)
        assert abs(value - oracle) / oracle < 1.2e-3

    def test_domain(self):
        with pytest.raises(ValueError):
            evaluate(1.0, 2, 0.0)
        # order 0: z <= 0 is refused before 2/z is formed
        with pytest.raises(ValueError, match="series argument z must be"):
            evaluate(0.0, 2, 0.0)
        with pytest.raises(ValueError):
            evaluate(1.0, 2, -1.0)
        with pytest.raises(ValueError):
            evaluate(1.5, 2, 1.0)

    @pytest.mark.parametrize(
        "nu, k, z",
        ((100.0, 5, 1e-8), (149.0, 2, 743.0), (149.0, 30, 300.0), (100.0, 5, 300.0),
         (100.0, 5, 709.0)),
    )
    def test_value_past_the_doubles_is_refused(self, nu, k, z):
        # z**(-nu) overflows at small z; at large z exp(-z) z**(-nu)
        # underflows, whatever the polynomial: K_100(300) = 5.41e-125 read
        # 0.0, and an overflowed polynomial read nan
        with pytest.raises(ValueError, match="leaves the doubles"):
            evaluate(nu, k, z)

    def test_deeper_is_better_small_argument(self):
        # monotone improvement holds where the expansion converges well
        for z in (0.1, 0.5, 1.0):
            oracle = bessel_k(1.0, z)
            e2 = abs(evaluate(1.0, 2, z) - oracle)
            e10 = abs(evaluate(1.0, 10, z) - oracle)
            assert e10 < e2, z


class TestEvaluateK0:
    def test_value_at_one(self):
        value = evaluate(0.0, 10, 1.0)
        assert value == pytest.approx(0.4209461971179045, rel=1e-12)
        oracle = bessel_k(0.0, 1.0)
        assert oracle == pytest.approx(0.4210244382407084, rel=1e-10)
        assert abs(value - oracle) / oracle < 2e-4

    def test_value_at_five(self):
        # the recurrence subtracts two nearly equal depth-10 values here;
        # cancellation leaves ~9.1e-3 relative against the oracle (pinned,
        # measured), an order above the small-argument accuracy
        value = evaluate(0.0, 10, 5.0)
        assert value == pytest.approx(0.0037245907816652914, rel=1e-12)
        oracle = bessel_k(0.0, 5.0)
        assert abs(value - oracle) / oracle < 1e-2

    def test_definitional_identity_exact(self):
        # k0 + (2/z) k1 - k2 == 0 holds exactly: it is the defining formula
        for z in (0.3, 1.0, 4.0):
            k0 = evaluate(0.0, 8, z)
            k1 = evaluate(1.0, 8, z)
            k2 = evaluate(2.0, 8, z)
            assert k0 + (2.0 / z) * k1 - k2 == 0.0, z

    def test_keeps_its_bits(self):
        # golden: each value as float.hex, recorded before evaluate lost its
        # error estimate.  The z grid is parsed from decimal literals (the
        # E10 series, 1e-3 to 50), so its bits do not depend on which SIMD
        # kernels numpy dispatches to, as np.geomspace's do
        zs = [z for e in range(-3, 2)
              for m in ("1", "1.25", "1.6", "2", "2.5", "3.15", "4", "5", "6.3", "8")
              if (z := float(f"{m}e{e}")) <= 50.0]
        h = hashlib.sha256()
        for k in (0, 2, 5, 10, 30):
            for z in zs:
                h.update(f"{evaluate(0.0, k, z).hex()}\n".encode())
        assert h.hexdigest() == (
            "a465714e1302dcd957a169b27faee77591bd69d58891ef15ce2c922e03a2a8a0"
        )


# the reach table of the module docstring: a header and one line per order
REACH_TABLE = bessel_series.__doc__.split("\n\n    nu ", 1)[1].split("\n\n", 1)[0].splitlines()[1:]


def test_stated_reach_holds():
    # each cell is the longest run of z with relative error below 1e-2
    # against scipy's kve, on 600 geometric z in [1e-3, 300]; each printed
    # bound sits within one grid step of the run's measured end.  README
    # prints the same table
    step = 3e5 ** (1 / 599)
    zs = [1e-3 * step**i for i in range(600)]
    assert len(REACH_TABLE) == 7
    for line in REACH_TABLE:
        nu, *cells = line.replace(",", "").replace("[", "").replace("]", "").split()
        for depth, lo, hi in ((10, *cells[:2]), (30, *cells[2:])):
            run = longest = (0, -1)
            for i, z in enumerate(zs):
                oracle = float(kve(float(nu), z)) * math.exp(-z)
                try:
                    reached = abs(evaluate(float(nu), depth, z) - oracle) / oracle < 1e-2
                except ValueError:
                    reached = False
                if reached:
                    run = (run[0], i) if run[1] == i - 1 else (i, i)
                    longest = max(longest, run, key=lambda r: r[1] - r[0])
            for printed, end in ((lo, longest[0]), (hi, longest[1])):
                assert abs(math.log(zs[end] / float(printed))) <= math.log(step), (line, depth)
        assert line.strip() in README.read_text(), line


_UNIT = ChannelParams(gamma=1000.0, lambda_sd=1.0, lambda_sr=1.0, lambda_rd=1.0)


@pytest.mark.parametrize(
    "name, call",
    (
        ("truncation depth k", lambda v: series_coeffs(1.0, v)),
        ("truncation depth k", lambda v: evaluate(1.0, v, 1.0)),
        ("truncation depth k", lambda v: evaluate(0.0, v, 1.0)),
        ("seed", lambda v: SimConfig(seed=v, samples=10)),
        ("samples", lambda v: SimConfig(seed=1, samples=v)),
        ("relays", lambda v: SimConfig(seed=1, samples=10, relays=v)),
        ("relays", lambda v: simulate(_UNIT, SimConfig(1, 10, 3), "capacity", relays=v)),
        ("workers", lambda v: simulate(_UNIT, SimConfig(1, 10), "capacity", workers=v)),
        ("lah n", lambda v: lah(v, 1)),
        ("lah i", lambda v: lah(3, v)),
        ("derivative order n", lambda v: exp_reciprocal_deriv(v, 1.0, 1.0)),
    ),
    ids=(
        "series_coeffs-k", "evaluate-k", "evaluate-order-0-k", "SimConfig-seed",
        "SimConfig-samples", "SimConfig-relays", "simulate-relays", "simulate-workers",
        "lah-n", "lah-i", "exp_reciprocal_deriv-n",
    ),
)
def test_one_refusal_for_every_integer_argument(name, call):
    # one gate: a float, a bool or a string is refused by name, never
    # truncated, read as 0 or 1, or left to raise a TypeError; a numpy
    # integer is an integer
    for bad in (2.5, True, "3"):
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            call(bad)
    call(np.int64(3))


@pytest.mark.parametrize(
    "name, zero, call",
    (
        ("series order nu", False, lambda v: term_coeff(v, 1, 1)),
        ("series order nu", False, lambda v: series_coeffs(v, 2)),
        ("series order nu", True, lambda v: evaluate(v, 2, 1.0)),
        ("series argument z", False, lambda v: evaluate(1.0, 2, v)),
        ("beta", False, lambda v: exp_reciprocal_deriv(1, v, 1.0)),
        ("x", False, lambda v: exp_reciprocal_deriv(1, 1.0, v)),
        ("order nu", True, lambda v: bessel_k(v, 1.0)),
        ("argument z", False, lambda v: bessel_k(1.0, v)),
        ("fractional order s", False, lambda v: fractional_integral(math.exp, v, 1.0)),
        ("evaluation point x", False, lambda v: fractional_integral(math.exp, 0.5, v)),
        ("gamma", False, lambda v: ChannelParams(v, 1.0, 1.0, 1.0)),
        ("lambda_sd", False, lambda v: ChannelParams(1.0, v, 1.0, 1.0)),
        ("lambda_sr", False, lambda v: ChannelParams(1.0, 1.0, v, 1.0)),
        ("lambda_rd", False, lambda v: ChannelParams(1.0, 1.0, 1.0, v)),
    ),
    ids=(
        "term_coeff-nu", "series_coeffs-nu", "evaluate-nu", "evaluate-z",
        "exp_reciprocal_deriv-beta", "exp_reciprocal_deriv-x", "bessel_k-nu",
        "bessel_k-z", "fractional_integral-s", "fractional_integral-x",
        "ChannelParams-gamma", "ChannelParams-lambda_sd", "ChannelParams-lambda_sr",
        "ChannelParams-lambda_rd",
    ),
)
def test_one_refusal_for_every_positive_real_argument(name, zero, call):
    # one gate: nan, an infinity, an int past the doubles, a value at or
    # below 0 (0 is an order where the caller serves K_0), a bool, a string
    # and None are refused by name; an int and a numpy float are the float
    # they equal
    for bad in (math.nan, math.inf, -math.inf, 10**400, -1.0, True, "1", None,
                *(() if zero else (0.0,))):
        with pytest.raises(ValueError, match=f"^{name} must be a finite real"):
            call(bad)
    if zero:
        call(0.0)

    def bits(out):
        # the type and hex of every float a result holds: a value, or the
        # fields and attributes of a table or a ChannelParams
        if isinstance(out, float):
            return type(out), out.hex()
        if isinstance(out, tuple):
            return [bits(v) for v in out]
        return {k: bits(v) for k, v in vars(out).items()} if hasattr(out, "__dict__") else out

    want = bits(call(2.0))
    assert bits(call(2)) == want
    assert bits(call(np.float64(2.0))) == want


def _at_depth(metric, params, k):
    return metric(params, combined_cdf_coeffs(params, series_coeffs(1.0, k)))


# the model of the hand-built two-column coefficients whose BEP sum meets inf - inf
_TINY_HOPS = ChannelParams(1e-3, 1.0, 1e-6, 1e-6)


@pytest.mark.parametrize(
    "call, named",
    (
        (lambda: evaluate(100.0, 5, 1e-8), dict(nu=100.0, z=1e-8, k=5)),
        (lambda: bessel_k(140.0, 0.5), dict(nu=140.0, z=0.5)),
        (lambda: combined_cdf_coeffs(ChannelParams(1.0, 1e30, 1.0, 1.0), series_coeffs(1.0, 10)),
         dict(lambda_sd=1e30, lambda_srd=4.0, k=10)),
        (lambda: ChannelParams(1.0, 1.0, 1e155, 1e155), dict(lambda_sr=1e155, lambda_rd=1e155)),
        (lambda: _at_depth(bit_error_prob, ChannelParams(1e-30, 1.0, 1e-20, 1e-20), 30),
         dict(gamma=1e-30, k=30)),
        (lambda: bit_error_prob(_TINY_HOPS, SeriesCdfCoeffs(
            [1.7e308, -1.7e308], CoefficientTable(nu=1.0, a=(1.0, 0.0)),
            _TINY_HOPS.lambda_sd, _TINY_HOPS.lambda_p, _TINY_HOPS.lambda_s)),
         dict(gamma=1e-3, k=1)),
        (lambda: _at_depth(capacity, ChannelParams(1e11, 1.0, 1.0, 1.0), 30), dict(gamma=1e11, k=30)),
        (lambda: _at_depth(capacity, ChannelParams(1e300, 1e-30, 1.0, 1.0), 0),
         dict(gamma=1e300, k=0)),
        (lambda: fractional_integral(math.exp, 200.0, 1.0), dict(s=200.0, x=1.0)),
        (lambda: fractional_integral(math.exp, 0.5, 1e300), dict(s=0.5, x=1e300)),
        (lambda: exp_reciprocal_deriv(200, 1.0, 1e-3), dict(n=200, beta=1.0, x=1e-3)),
        (lambda: exp_reciprocal_deriv(1, 1e300, 1e-300), dict(n=1, beta=1e300, x=1e-300)),
        (lambda: exp_reciprocal_deriv(5, 1e-300, 1e-300), dict(n=5, beta=1e-300, x=1e-300)),
        (lambda: exp_reciprocal_deriv(2, 1e300, 1e-300), dict(n=2, beta=1e300, x=1e-300)),
    ),
    ids=(
        "evaluate", "bessel_k", "combined_cdf_coeffs", "ChannelParams",
        "bit_error_prob-underflow", "bit_error_prob-inf-minus-inf", "capacity-overflow",
        "capacity-direct-underflow", "fractional_integral-gamma", "fractional_integral-integrand",
        "exp_reciprocal_deriv-lah", "exp_reciprocal_deriv-nan",
        "exp_reciprocal_deriv-underflow", "exp_reciprocal_deriv-inf-minus-inf",
    ),
)
def test_one_refusal_for_every_result_past_the_doubles(call, named):
    # an overflow, an underflow to 0 under a division, a nan or an inf is
    # refused by one ValueError that names the point: never an
    # OverflowError, a ZeroDivisionError, fsum's own ValueError or a nan
    at = ", ".join(f"{name}={value!r}" for name, value in named.items())
    with pytest.raises(ValueError, match=f" leaves the doubles at {re.escape(at)}$"):
        call()


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
            collapsed = evaluate(1.0, k, z)
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
