"""Quadrature reference values: K_nu and the Riemann-Liouville integral.

Everything here is validation-grade and favours robustness over speed.
K_nu comes from the exponentially decaying integral representation

    K_nu(z) = exp(-z) integral_0^inf exp(-z (cosh t - 1)) cosh(nu t) dt,

which has no oscillation, so plain adaptive quadrature on a truncated
interval is reliable; scaled by exp(z), the integrand is 1 at t = 0 for
every z, never subnormal, and is integrated to relative 1e-12 with no
absolute floor.  The series module never calls into this one; the
two stay independent so each can audit the other.

scipy.integrate is imported by adaptive_quad on its first call, so
importing this module (and the package) does not load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

__all__ = [
    "QuadratureError",
    "QuadratureSpec",
    "DEFAULT_SPEC",
    "adaptive_quad",
    "bessel_k",
    "fractional_integral",
]


class QuadratureError(RuntimeError):
    """A quadrature failed to reach its requested tolerance: adaptive_quad
    did not converge, or combined_cdf_exact's error estimate passed its bound."""

    def __init__(self, message: str, estimate: float = math.nan):
        super().__init__(message)
        self.estimate = estimate


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and subdivision budget for the adaptive integrator."""

    abs_tol: float = 1e-12
    rel_tol: float = 1e-10
    max_subdivisions: int = 200

    def __post_init__(self):
        if self.abs_tol <= 0.0 or self.rel_tol <= 0.0:
            raise ValueError("quadrature tolerances must be positive")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")


DEFAULT_SPEC = QuadratureSpec()
_BESSEL_SPEC = QuadratureSpec(abs_tol=1e-300, rel_tol=1e-12)


def adaptive_quad(f: Callable[[float], float], lo: float, hi: float, spec: QuadratureSpec = DEFAULT_SPEC) -> float:
    """Adaptive quadrature of f over [lo, hi] under the spec's tolerances.

    Raises QuadratureError (with the achieved error estimate attached)
    when the subdivision budget is exhausted before convergence.
    """
    from scipy import integrate

    out = integrate.quad(
        f,
        lo,
        hi,
        epsabs=spec.abs_tol,
        epsrel=spec.rel_tol,
        limit=spec.max_subdivisions,
        full_output=1,
    )
    if len(out) > 3:
        # quad appends an explanation message when it could not converge
        raise QuadratureError(
            f"quadrature did not converge: {out[3]}", estimate=out[1]
        )
    return out[0]


def bessel_k(nu: float, z: float) -> float:
    """Reference K_nu(z) for real nu >= 0, z > 0, by adaptive quadrature."""
    nu = float(nu)
    z = float(z)
    if not math.isfinite(z) or z <= 0.0:
        raise ValueError(f"argument must be positive, got {z!r}")
    if not math.isfinite(nu) or nu < 0.0:
        raise ValueError(f"order must be >= 0, got {nu!r}")
    # Cut at T with exp(-z (cosh T - 1) + nu T) * (1 + 1/z) below 1e-17 of
    # 1/sqrt(1 + z) <= exp(z) K_nu(z); the 1/z factor covers the tail-mass
    # amplification at small arguments.
    c = math.log(1e17) + math.log1p(1.0 / z) + 0.5 * math.log1p(z)
    cut = 1.0
    for _ in range(4):
        cut = max(1.0, math.acosh(1.0 + (c + max(nu, 1.0) * cut) / z))

    def integrand(t: float) -> float:
        u = -2.0 * z * math.sinh(0.5 * t) ** 2  # -z (cosh t - 1), no cancellation
        if u < -745.0:  # exp underflows anyway; avoids inf * 0 at large t
            return 0.0
        return math.exp(u) * math.cosh(nu * t)

    return math.exp(-z) * adaptive_quad(integrand, 0.0, min(cut + 1.0, 705.0), _BESSEL_SPEC)


def fractional_integral(f: Callable[[float], float], s: float, x: float) -> float:
    """Riemann-Liouville fractional integral of order s of f, at x.

    Computes (1/Gamma(s)) * integral_0^x (x-t)**(s-1) f(t) dt for s > 0,
    x > 0 and f integrable on [0, x].  The substitution u = (x-t)**s makes
    the weight constant for every order, and for s < 1 removes the
    endpoint singularity at t = x:

        integral = (1/s) * integral_0^{x**s} f(x - u**(1/s)) du.
    """
    s = float(s)
    x = float(x)
    if not s > 0.0:
        raise ValueError(f"fractional order must be positive, got {s!r}")
    if not x > 0.0:
        raise ValueError(f"evaluation point must be positive, got {x!r}")
    inv_s = 1.0 / s

    def g(u: float) -> float:
        t = x - u**inv_s
        if t < 0.0:  # rounding can push u**(1/s) a hair past x
            t = 0.0
        return f(t)

    val = adaptive_quad(g, 0.0, x**s)
    return val / (s * math.gamma(s))
