"""Elementary-function series for the modified Bessel function K_nu.

The representation used throughout this package writes

    K_nu(z) = exp(-z) * z**(-nu) * P_k(z) + truncation error,

where P_k is a degree-k polynomial whose coefficients are built from Lah
numbers and ratios of gamma functions.  Unlike a fixed power series, the
whole coefficient set depends on the truncation depth k: deepening the
expansion reshuffles every polynomial coefficient, not just the tail.

The representation is valid for real order nu > 0 excluding half-integers
(1/2, 3/2, ...), where the gamma factors hit poles.  K_0 is reachable
through the downward three-term recurrence, see :func:`evaluate_k0`.

Coefficient magnitudes and signs are handled in the log-gamma domain so
that negative gamma arguments (for example Gamma(-1/2) = -2*sqrt(pi)) do
not lose their sign or overflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

__all__ = [
    "K_MAX",
    "CoefficientTable",
    "TruncatedValue",
    "lah",
    "term_coeff",
    "series_coeffs",
    "evaluate",
    "evaluate_k0",
    "exp_reciprocal_deriv",
]

# Deepest truncation exposed publicly.  Tests validate coefficient accuracy
# against an extended-precision recomputation up to this depth.
K_MAX = 30

_HALF_INT_TOL = 1e-12


def _check_order(nu: float) -> float:
    """Validate a series order: positive real, not a half-integer."""
    nu = float(nu)
    if not math.isfinite(nu) or nu <= 0.0:
        raise ValueError(f"series order must be a positive real, got {nu!r}")
    twice = 2.0 * nu
    if abs(twice - round(twice)) < _HALF_INT_TOL and round(twice) % 2 == 1:
        raise ValueError(
            f"half-integer order unsupported: the gamma factors of the "
            f"expansion are singular at nu={nu!r}"
        )
    return nu


def _check_depth(k: int) -> int:
    k = int(k)
    if k < 0 or k > K_MAX:
        raise ValueError(f"truncation depth must be in [0, {K_MAX}], got {k}")
    return k


def lah(n: int, i: int) -> int:
    """Lah number: ways to partition n labelled items into i ordered lists.

    Exact integer arithmetic; L(n, i) = C(n-1, i-1) * n!/i! for n, i >= 1,
    L(0, 0) = 1 and L(n, 0) = 0 for n > 0.  Arguments outside 0 <= i <= n
    are rejected rather than returned as zero so that index bugs surface.
    """
    if n < 0 or i < 0 or i > n:
        raise ValueError(f"lah numbers need 0 <= i <= n, got n={n}, i={i}")
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
    """
    # imported on first use: importing the package does not load scipy,
    # and the coefficient cache keeps this off every evaluation path
    from scipy.special import gammaln, gammasgn

    nu = _check_order(nu)
    L = lah(n, i)
    if L == 0:
        return 0.0
    log_mag = (
        0.5 * math.log(math.pi)
        + gammaln(2.0 * nu)
        + gammaln(0.5 + n - nu)
        + math.log(L)
        - (nu - i) * math.log(2.0)
        - gammaln(0.5 - nu)
        - gammaln(0.5 + n + nu)
        - math.lgamma(n + 1.0)
    )
    sign = (-1.0) ** (i % 2) * gammasgn(0.5 + n - nu) * gammasgn(0.5 - nu)
    return sign * math.exp(log_mag)


@dataclass(frozen=True, eq=False)
class CoefficientTable:
    """Polynomial coefficients a_0..a_k of the depth-k truncation for one
    order nu, a tuple of Python floats.  The depth k = len(a) - 1 is
    derived on construction and is not a field."""

    nu: float
    a: tuple[float, ...] = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "k", len(self.a) - 1)


@dataclass(frozen=True)
class TruncatedValue:
    """A truncated-series value together with a truncation-error estimate.

    The return value of evaluate and evaluate_k0, read by the bessel
    command and demos/bessel_series_accuracy.py.
    """

    value: float
    epsilon_estimate: float


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

    Raises ValueError for nu = 0 and half-integer nu, where the expansion
    is undefined.
    """
    return _table(_check_order(nu), _check_depth(k))


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


def _eval_poly_form(a, nu: float, z: float) -> float:
    return math.exp(-z) * z ** (-nu) * _horner(a, z)


def evaluate(nu: float, k: int, z: float) -> TruncatedValue:
    """Depth-k truncated series value of K_nu(z) for z > 0.

    The error estimate is the difference against the depth-(k+1)
    evaluation; it is a heuristic, not a bound.
    """
    nu = _check_order(nu)
    k = _check_depth(k)
    z = float(z)
    if not z > 0.0:
        raise ValueError(f"series argument must be positive, got {z!r}")
    value = _eval_poly_form(_table(nu, k).a, nu, z)
    value_next = _eval_poly_form(_table(nu, k + 1).a, nu, z)
    return TruncatedValue(value=value, epsilon_estimate=abs(value - value_next))


def evaluate_k0(k: int, z: float) -> TruncatedValue:
    """Truncated K_0(z) through the recurrence K_0 = K_2 - (2/z) K_1.

    The expansion itself is undefined at nu = 0, so the zeroth order is
    assembled from the two valid integer orders.  Error estimates of the
    two legs are combined by the triangle inequality.
    """
    t2 = evaluate(2.0, k, z)
    t1 = evaluate(1.0, k, z)
    w = 2.0 / z
    return TruncatedValue(
        value=t2.value - w * t1.value,
        epsilon_estimate=t2.epsilon_estimate + w * t1.epsilon_estimate,
    )


def exp_reciprocal_deriv(n: int, beta: float, x: float) -> float:
    """n-th derivative of exp(-beta/x) with respect to x, in closed form.

    The derivative equals
    exp(-beta/x) * ((-1)**n / x**n) * sum_i (-1)**i L(n, i) (beta/x)**i,
    which is where Lah numbers enter the series construction.
    """
    if n < 0:
        raise ValueError(f"derivative order must be >= 0, got {n}")
    beta = float(beta)
    x = float(x)
    if beta <= 0.0 or x <= 0.0:
        raise ValueError("beta and x must be positive")
    r = beta / x
    s = math.fsum((-1.0) ** (i % 2) * lah(n, i) * r**i for i in range(n + 1))
    return math.exp(-r) * (-1.0) ** (n % 2) / x**n * s
