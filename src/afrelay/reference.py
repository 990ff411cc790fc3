"""Quadrature reference values: K_nu and the Riemann-Liouville integral.

Everything here is validation-grade and favours robustness over speed.
K_nu comes from the exponentially decaying integral representation

    K_nu(z) = integral_0^inf exp(-z cosh t) cosh(nu t) dt,

which has no oscillation, so plain adaptive quadrature on a truncated
interval is reliable.  The series module never calls into this one; the
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
    """Adaptive quadrature failed to converge to the requested tolerance."""

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


def _cutoff(nu: float, z: float, abs_tol: float) -> float:
    # Pick T with exp(-z cosh T + nu T) * (1 + 1/z) below abs_tol/10; the
    # 1/z factor covers the tail-mass amplification at small arguments.
    c = math.log(10.0 / abs_tol) + math.log1p(1.0 / z)
    t = 1.0
    for _ in range(4):
        t = max(1.0, math.acosh(max((c + max(nu, 1.0) * t) / z, 1.0)))
    return min(t + 1.0, 705.0)


def bessel_k(nu: float, z: float, spec: QuadratureSpec = DEFAULT_SPEC) -> float:
    """Reference K_nu(z) for real nu >= 0, z > 0, by adaptive quadrature."""
    nu = float(nu)
    z = float(z)
    if not math.isfinite(z) or z <= 0.0:
        raise ValueError(f"argument must be positive, got {z!r}")
    if not math.isfinite(nu) or nu < 0.0:
        raise ValueError(f"order must be >= 0, got {nu!r}")
    t_max = _cutoff(nu, z, spec.abs_tol)

    def integrand(t: float) -> float:
        u = -z * math.cosh(t)
        if u < -745.0:  # exp underflows anyway; avoids inf * 0 at large t
            return 0.0
        return math.exp(u) * math.cosh(nu * t)

    return adaptive_quad(integrand, 0.0, t_max, spec)


def fractional_integral(
    f: Callable[[float], float],
    s: float,
    x: float,
    spec: QuadratureSpec = DEFAULT_SPEC,
) -> float:
    """Riemann-Liouville fractional integral of order s of f, at x.

    Computes (1/Gamma(s)) * integral_0^x (x-t)**(s-1) f(t) dt for s > 0,
    x > 0 and f integrable on [0, x].  For s < 1 the endpoint singularity
    at t = x is removed by the substitution u = (x-t)**s, under which the
    weight becomes constant:

        integral = (1/s) * integral_0^{x**s} f(x - u**(1/s)) du.
    """
    s = float(s)
    x = float(x)
    if not s > 0.0:
        raise ValueError(f"fractional order must be positive, got {s!r}")
    if not x > 0.0:
        raise ValueError(f"evaluation point must be positive, got {x!r}")
    if s < 1.0:
        inv_s = 1.0 / s

        def g(u: float) -> float:
            t = x - u**inv_s
            if t < 0.0:  # rounding can push u**(1/s) a hair past x
                t = 0.0
            return f(t)

        val = adaptive_quad(g, 0.0, x**s, spec)
        return val / (s * math.gamma(s))
    val = adaptive_quad(lambda t: (x - t) ** (s - 1.0) * f(t), 0.0, x, spec)
    return val / math.gamma(s)
