"""Elementary-function series for the modified Bessel function K_nu.

The representation used throughout this package writes

    K_nu(z) = exp(-z) * z**(-nu) * P_k(z) + truncation error,

where P_k is a degree-k polynomial whose coefficients are built from Lah
numbers and ratios of gamma functions.  Unlike a fixed power series, the
whole coefficient set depends on the truncation depth k: deepening the
expansion reshuffles every polynomial coefficient, not just the tail.

The representation is valid for real order nu > 0 excluding the exact
half-integers (1/2, 3/2, ...), where the gamma factors hit poles, and orders
past the double range (nu > ~150); :func:`term_coeff` refuses both.
:func:`evaluate` reaches K_0 through the three-term recurrence
K_0 = K_2 - (2/z) K_1 (DLMF 10.29.1).  The package's three gates live here:
_require_positive, _require_count (arguments) and _past_doubles (results).

The series reaches only part of the z axis.  Measured reach: the longest
run of z on which the relative error against scipy.special.kve stays below
1e-2, on 600 geometric z in [1e-3, 300] (tests/test_bessel_series.py
regenerates it):

    nu      depth 10         depth 30
    0       [0.29, 5.0]      [0.034, 8.4]
    0.25    [0.075, 0.093]   [0.023, 0.036]
    1       [0.001, 4.5]     [0.001, 7.1]
    2       [0.001, 11.5]    [0.001, 16]
    3.7     [0.001, 18]      [0.001, 28]
    10      [0.001, 56]      [0.001, 59]
    100     [0.067, 0.25]    [0.067, 54]

Past a run's upper end the error grows, crossing zero at isolated z (nu = 1
at depth 10 is within 1e-2 again near z = 6.1), so one accurate point is no
reach.  At nu < 1 the small-z end fails because K_nu's z**(2 nu) term has no
polynomial form.  Below z = 0.067, K_100 is past the doubles.  Order 0
keeps the recurrence, and with it the cancellation of K_2 against
(2/z) K_1 at small z: its value there is returned, not refused, and is off
by orders of magnitude (relative error 13 at z = 1e-3 and 5e5 at
z = 1e-8, depth 10).

Coefficient magnitudes and signs are handled in the log-gamma domain so
that negative gamma arguments (for example Gamma(-1/2) = -2*sqrt(pi)) do
not lose their sign or overflow.
"""

from __future__ import annotations

import math
import numbers
import operator
import sys
from dataclasses import dataclass, field
from functools import lru_cache

__all__ = [
    "K_MAX",
    "CoefficientTable",
    "lah",
    "term_coeff",
    "series_coeffs",
    "evaluate",
    "exp_reciprocal_deriv",
]

# Deepest truncation exposed publicly.  Tests validate coefficient accuracy
# against an extended-precision recomputation up to this depth.
K_MAX = 30


def _require_count(name: str, value, lo: int, hi: int | None = None) -> int:
    """value as an int in [lo, hi] (hi inclusive, when given), or a
    ValueError naming it: the package's one integer gate.  operator.index
    takes ints and numpy integers and refuses floats, strings and numpy
    bools; a bool is an int but never a count."""
    try:
        n = operator.index(value)
    except TypeError:
        n = None
    if n is None or isinstance(value, bool) or n < lo or (hi is not None and n > hi):
        bounds = f"in [{lo}, {hi}]" if hi is not None else f">= {lo}"
        raise ValueError(f"{name} must be an integer {bounds}, got {value!r}")
    return n


def _is_real(value) -> bool:
    """Ints, floats and numpy reals are real; bools, strings, None and 0-d arrays are not."""
    return isinstance(value, float) or isinstance(value, numbers.Real) and type(value) is not bool


def _require_positive(name: str, value, zero: bool = False) -> float:
    """A real value as a finite float > 0 (>= 0 where zero is set), or a ValueError naming it."""
    try:
        x = float(value) if _is_real(value) else math.nan
    except OverflowError:  # an int past the doubles
        x = math.inf
    if (x >= 0.0 if zero else x > 0.0) and x < math.inf:
        return x
    raise ValueError(f"{name} must be a finite real {'>=' if zero else '>'} 0, got {value!r}")


def _past_doubles(what: str, **named) -> ValueError:
    """ValueError("{what} leaves the doubles at name=value, ..."), by repr."""
    at = ", ".join(f"{name}={value!r}" for name, value in named.items())
    return ValueError(f"{what} leaves the doubles at {at}")


def lah(n: int, i: int) -> int:
    """Lah number: ways to partition n labelled items into i ordered lists.

    Exact integer arithmetic; L(n, i) = C(n-1, i-1) * n!/i! for n, i >= 1,
    L(0, 0) = 1 and L(n, 0) = 0 for n > 0.  Arguments outside 0 <= i <= n
    are rejected rather than returned as zero so that index bugs surface.
    """
    n = _require_count("lah n", n, 0)
    i = _require_count("lah i", i, 0, n)
    if n == 0:
        return 1
    if i == 0:
        return 0
    return math.comb(n - 1, i - 1) * (math.factorial(n) // math.factorial(i))


def term_coeff(nu: float, n: int, i: int) -> float:
    """Coefficient of the (n, i) term of the double-series expansion of K_nu.

    The term multiplies z**(i - nu) * exp(-z).  Computed as
    sign * exp(log magnitude) with the gamma factors split into log-modulus
    (scipy.special.gammaln) and sign (scipy.special.gammasgn); the sign
    bookkeeping matters because two of the gamma arguments go negative.
    Past the gate, it is the one place a series order is refused: a ValueError
    where the log magnitude is not finite (a gamma pole, at a half-integer or
    where 0.5 - nu rounds to an integer) or its exponential overflows.
    """
    # imported on first use: importing the package does not load scipy,
    # and the coefficient cache keeps this off every evaluation path
    from scipy.special import gammaln, gammasgn

    nu = _require_positive("series order nu", nu)
    L = lah(n, i)
    if L == 0:
        return 0.0
    # summed as Python floats, so a pole's inf - inf reads nan silently
    log_mag = (
        0.5 * math.log(math.pi)
        + float(gammaln(2.0 * nu))
        + float(gammaln(0.5 + n - nu))
        + math.log(L)
        - (nu - i) * math.log(2.0)
        - float(gammaln(0.5 - nu))
        - float(gammaln(0.5 + n + nu))
        - math.lgamma(n + 1.0)
    )
    sign = (-1.0) ** (i % 2) * gammasgn(0.5 + n - nu) * gammasgn(0.5 - nu)
    if math.isfinite(log_mag):
        try:
            return sign * math.exp(log_mag)
        except OverflowError:
            pass
    raise ValueError(f"half-integer order unsupported, as is one past the double range: nu={nu!r}")


@dataclass(frozen=True, eq=False)
class CoefficientTable:
    """Polynomial coefficients a_0..a_k of the depth-k truncation for one
    order nu, a tuple of Python floats.  The depth k = len(a) - 1 is
    derived on construction and is not a field."""

    nu: float
    a: tuple[float, ...] = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "k", len(self.a) - 1)


@lru_cache(maxsize=None)
def _table(nu: float, k: int) -> CoefficientTable:
    # Column sums of the triangular term array: a_q = sum_{l=q..k} coeff(l, q).
    # Cached write-once per (nu, k); the table is frozen and holds a tuple.
    a = tuple(
        math.fsum(term_coeff(nu, l, q) for l in range(q, k + 1))
        for q in range(k + 1)
    )
    return CoefficientTable(nu=nu, a=a)


def series_coeffs(nu: float, k: int) -> CoefficientTable:
    """Collapsed polynomial coefficients a_0..a_k of the depth-k truncation,
    built once per (nu, k): every call returns the same table.

    Raises ValueError for nu <= 0, exact half-integers and orders past the
    double range (from nu ~ 150.4 at depth 30, ~ 151.1 at depth 0).
    """
    nu = _require_positive("series order nu", nu)
    return _table(nu, _require_count("truncation depth k", k, 0, K_MAX))


def _horner(c, x):
    """sum_i c[i] x**i with numpy.polynomial.polyval's operations, bit for
    bit, for a Python float or an ndarray x.  An array runs in one buffer,
    updated in place: p *= x; p += c[i] rounds as c[i] + p * x does."""
    p = c[-1] + x * 0.0
    if isinstance(p, float):
        for ci in c[-2::-1]:
            p = ci + p * x
        return p
    for ci in c[-2::-1]:
        p *= x
        p += ci
    return p


def evaluate(nu: float, k: int, z: float) -> float:
    """Depth-k truncated series value of K_nu(z) for nu >= 0 and z > 0.

    No error estimate comes with it: the module docstring states where the
    series reaches.  The series is undefined at nu = 0, so K_0 is
    K_2 - (2/z) K_1 from the two depth-k series.  Raises ValueError where
    an evaluation leaves the doubles: z**(-nu) overflows at small z, and at
    large z exp(-z) z**(-nu) underflows below the normal doubles (K_100(300)
    is 5.4e-125, but exp(-300) 300**(-100) underflows to 0).
    """
    nu = _require_positive("series order nu", nu, zero=True)
    z = _require_positive("series argument z", z)
    if nu == 0.0:
        return evaluate(2.0, k, z) - 2.0 / z * evaluate(1.0, k, z)
    k = _require_count("truncation depth k", k, 0, K_MAX)
    try:
        scale = math.exp(-z) * z ** (-nu)
    except ArithmeticError:  # z**(-nu) overflows
        scale = 0.0
    value = scale * _horner(_table(nu, k).a, z)
    if not (scale >= sys.float_info.min and math.isfinite(value)):
        raise _past_doubles("the truncated series of K_nu", nu=nu, z=z, k=k)
    return value


def exp_reciprocal_deriv(n: int, beta: float, x: float) -> float:
    """n-th derivative of exp(-beta/x) with respect to x, in closed form.

    The derivative equals
    exp(-beta/x) * ((-1)**n / x**n) * sum_i (-1)**i L(n, i) (beta/x)**i,
    which is where Lah numbers enter the series construction.
    """
    n = _require_count("derivative order n", n, 0)
    beta = _require_positive("beta", beta)
    x = _require_positive("x", x)
    r = beta / x
    try:
        s = math.fsum((-1.0) ** (i % 2) * lah(n, i) * r**i for i in range(n + 1))
        value = math.exp(-r) * (-1.0) ** (n % 2) / x**n * s
        if math.isfinite(value):
            return value
    except (ArithmeticError, ValueError):  # ValueError: fsum met inf and -inf
        pass
    raise _past_doubles("the derivative of exp(-beta/x)", n=n, beta=beta, x=x)
