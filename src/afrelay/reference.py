"""Quadrature: K_nu and Riemann-Liouville reference values, validation-grade
and favouring robustness over speed, and the exact CDF's fixed rule.

K_nu comes from the exponentially decaying integral representation

    K_nu(z) = exp(-z) integral_0^inf exp(-z (cosh t - 1)) cosh(nu t) dt,

which has no oscillation, so plain adaptive quadrature on a truncated
interval is reliable; scaled by exp(z), the integrand is 1 at t = 0 for
every z, never subnormal, and is integrated to relative 1e-12 with no
absolute floor.  At large orders cosh(nu t) alone overflows where the
integrand does not, so from nu t = 700 on it is split into exponentials
that take the decay first; where exp(z) K_nu(z) overflows, exp(-z) moves
into the integrand, so only a K_nu(z) past the doubles is refused.
The series module never calls into this one, which borrows only its gates
(_require_positive, _past_doubles), not its math, so each can audit the other.

The fixed rule is 20-node Gauss-Legendre, from a correctly rounded
table, on panels graded geometrically toward one end, t = 0, of [0, 1]
(_panel_rule), with an error estimate from the Legendre tail of each
panel's interpolant (_panel_tail).

adaptive_quad passes its tolerances and budget to scipy.integrate.quad as
they are, so scipy's ValueError refuses invalid ones; it imports
scipy.integrate on its first call, so importing the package does not.
"""

from __future__ import annotations

import functools
import math
import sys
from typing import Callable

import numpy as np

from .bessel_series import _past_doubles, _require_positive

__all__ = [
    "QuadratureError",
    "adaptive_quad",
    "bessel_k",
    "fractional_integral",
]


class QuadratureError(RuntimeError):
    """A quadrature failed to reach its requested tolerance: adaptive_quad
    did not converge, or the _panel_tail estimate of a fixed panel rule
    passed its caller's bound (combined_cdf_exact's EXACT_ABS_TOL)."""

    def __init__(self, message: str, estimate: float = math.nan):
        super().__init__(message)
        self.estimate = estimate


def adaptive_quad(
    f: Callable[[float], float], lo: float, hi: float,
    abs_tol: float = 1e-12, rel_tol: float = 1e-10, limit: int = 200,
) -> float:
    """Adaptive quadrature of f over [lo, hi] by scipy.integrate.quad, to
    max(abs_tol, rel_tol * |result|) in at most limit subdivisions.

    Raises QuadratureError (with the achieved error estimate attached)
    when the subdivision budget is exhausted before convergence, and
    scipy's ValueError for settings it refuses (both tolerances 0, or a
    limit below 1).
    """
    from scipy import integrate

    out = integrate.quad(
        f, lo, hi, epsabs=abs_tol, epsrel=rel_tol, limit=limit, full_output=1
    )
    if len(out) > 3:
        # quad appends an explanation message when it could not converge
        raise QuadratureError(
            f"quadrature did not converge: {out[3]}", estimate=out[1]
        )
    return out[0]


def bessel_k(nu: float, z: float) -> float:
    """Reference K_nu(z) for real nu >= 0, z > 0, by adaptive quadrature.

    A K_nu(z) past the largest double is a ValueError; one below the least is 0.0.
    """
    nu = _require_positive("order nu", nu, zero=True)
    z = _require_positive("argument z", z)
    # Cut at T with exp(-z (cosh T - 1) + nu T) * (1 + 1/z) below 1e-17 of
    # 1/sqrt(1 + z) <= exp(z) K_nu(z); the 1/z factor covers the tail-mass
    # amplification at small arguments.
    c = math.log(1e17) + math.log1p(1.0 / z) + 0.5 * math.log1p(z)
    cut = 1.0
    for _ in range(4):
        cut = max(1.0, math.acosh(1.0 + (c + max(nu, 1.0) * cut) / z))

    def integrand(t: float) -> float:
        u = -2.0 * z * math.sinh(0.5 * t) ** 2 - shift  # -z (cosh t - 1) - shift, no cancellation
        if u < -745.0:  # exp underflows anyway; avoids inf * 0 at large t
            return 0.0
        nt = nu * t
        if nt < 700.0:
            return math.exp(u) * math.cosh(nt)
        # cosh(nt) alone would overflow: its exponentials take u first
        return 0.5 * (math.exp(u + nt) + math.exp(u - nt))

    # integrand reads shift: exp(z) K_nu(z), or K_nu(z) itself where that overflows
    for shift in (0.0, z):
        try:
            q = adaptive_quad(integrand, 0.0, min(cut + 1.0, 705.0), abs_tol=0.0, rel_tol=1e-12)
            # in logs where exp(shift - z) is subnormal (z > 708.4), unless q is 0
            scale = math.exp(shift - z)
            k = scale * q if scale >= sys.float_info.min or not q else math.exp(math.log(q) + shift - z)
        except ArithmeticError:
            continue
        if math.isfinite(k):
            return k
    raise _past_doubles("K_nu(z)", nu=nu, z=z)


def fractional_integral(f: Callable[[float], float], s: float, x: float) -> float:
    """Riemann-Liouville fractional integral of order s of f, at x.

    Computes (1/Gamma(s)) * integral_0^x (x-t)**(s-1) f(t) dt for s > 0,
    x > 0 and f integrable on [0, x].  The substitution u = (x-t)**s makes
    the weight constant for every order, and for s < 1 removes the
    endpoint singularity at t = x:

        integral = (1/s) * integral_0^{x**s} f(x - u**(1/s)) du.
    """
    s = _require_positive("fractional order s", s)
    x = _require_positive("evaluation point x", x)
    inv_s = 1.0 / s

    def g(u: float) -> float:
        t = x - u**inv_s
        if t < 0.0:  # rounding can push u**(1/s) a hair past x
            t = 0.0
        return f(t)

    try:
        value = adaptive_quad(g, 0.0, x**s) / (s * math.gamma(s))
        if math.isfinite(value):
            return value
    except ArithmeticError:  # Gamma(s), x**s or f overflows
        pass
    raise _past_doubles("the fractional integral", s=s, x=x)


# The 20-node Gauss-Legendre rule on [-1, 1]: its ten positive nodes, rising,
# and their weights, each correctly rounded from 40-digit mpmath (a test in
# tests/test_reference.py prints these lines anew); mirrored at use.
_GAUSS_LEGENDRE = (
    (0.07652652113349734, 0.15275338713072584),
    (0.22778585114164507, 0.14917298647260374),
    (0.37370608871541955, 0.14209610931838204),
    (0.5108670019508271, 0.13168863844917664),
    (0.636053680726515, 0.11819453196151841),
    (0.7463319064601508, 0.10193011981724044),
    (0.8391169718222188, 0.08327674157670475),
    (0.912234428251326, 0.06267204833410907),
    (0.9639719272779138, 0.04060142980038694),
    (0.9931285991850949, 0.017614007139152118),
)
_PANEL_RATIO = 0.25  # each panel of _panel_rule is a quarter of the one before it


@functools.cache
def _legendre_rule():
    """The rule's nodes s and weights w, and the map from its n node values
    to the Legendre coefficients c_j = (j + 1/2) sum_i w_i P_j(s_i) f_i,
    j = n-4..n-1, of their interpolant, P_j by the three-term recurrence."""
    pos, half = np.array(_GAUSS_LEGENDRE).T
    s, w = np.concatenate((-pos[::-1], pos)), np.concatenate((half[::-1], half))
    p = [np.ones_like(s), s]
    for j in range(2, s.size):
        p.append((p[-1] * s * (2 * j - 1) - p[-2] * (j - 1)) / j)
    j = np.arange(s.size - 4, s.size)
    return s, w, np.array(p[-4:]) * w * (j[:, None] + 0.5)


@functools.cache
def _panel_rule(low: int):
    """The rule on [0, 1] in panels of the 20 nodes: low + 1 panels on
    [0, 0.5], each a quarter of the one before it, down to
    [0, 0.5 * 4**-low], and one on [0.5, 1].  Returns the nodes, their
    weights and the panel widths, from t = 0 on."""
    s, w, _ = _legendre_rule()
    half = 0.5 * (1.0 + s)  # the nodes on [0, 1]
    edges = np.concatenate(([0.0], 0.5 * _PANEL_RATIO ** np.arange(low, -1, -1), [1.0]))
    width = np.diff(edges)
    t = (edges[:-1, None] + width[:, None] * half).ravel()
    return t, (0.5 * width[:, None] * w).ravel(), width


def _panel_tail(values: np.ndarray, width: np.ndarray) -> np.ndarray:
    """The error estimate of a _panel_rule, per row of values at its nodes,
    summed over its panels.  Per panel: the n node values fix the Legendre
    coefficients c_0..c_{n-1} of their interpolant, and the rule errs by
    about c_{2n}; max(|c_{n-2}|, |c_{n-1}|) is carried to degree 2n at the
    rate it falls from max(|c_{n-4}|, |c_{n-3}|) (not at all where it does
    not), times the panel's width."""
    tail = _legendre_rule()[2]
    n = tail.shape[1]
    c = np.abs(values.reshape(len(values), -1, n) @ tail.T)
    hi, lo = c[..., 2:].max(axis=-1), c[..., :2].max(axis=-1)
    fall = np.divide(hi, lo, out=np.ones_like(hi), where=lo > hi)
    return (width * hi * fall ** ((n + 1) / 2)).sum(axis=1)
