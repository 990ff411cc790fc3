"""Outage, bit error probability and ergodic capacity in closed form.

All three metrics consume the exponential-polynomial CDF coefficients
(channel.SeriesCdfCoeffs) and reduce to elementary functions plus, for
capacity, the exponential integral E_1.  Each closed form ships with an
adaptive-quadrature twin over the same distribution so the algebra can be
checked independently of the model approximation.

Capacity derivation used here: for a combined-power CDF F,

    C = (1/2) E[ln(1 + gamma X)] = (1/2) integral_0^inf gamma (1 - F(x)) / (1 + gamma x) dx

(integration by parts; the 1/2 is the half-duplex factor).  With
1 - F(x) = A exp(-l1 x) - sum_c col_c x^c exp(-l2 x) every term reduces to

    T_c(mu) = integral_0^inf y^c exp(-mu y) / (1 + y) dy,

where T_0(mu) = exp(mu) E_1(mu) and T_c = (c-1)!/mu^c - T_{c-1}.  The
recurrence is used for small mu and swapped for direct quadrature of a
normalized integrand once mu is large enough to destabilize it; at the
transmit SNRs of interest mu = rate/gamma stays well under 1.
"""

from __future__ import annotations

import math

import numpy as np

from .channel import ChannelParams, SeriesCdfCoeffs, combined_cdf, combined_pdf
from .reference import QuadratureError, QuadratureSpec, adaptive_quad

__all__ = [
    "e1_scaled",
    "outage",
    "bit_error_prob",
    "bit_error_prob_quadrature",
    "capacity",
    "capacity_quadrature",
]

_EULER = 0.5772156649015329


def _e1_series(x: float) -> float:
    # E_1(x) = -euler - ln x + sum_{n>=1} (-1)^{n+1} x^n / (n n!), x <= 1
    total = -_EULER - math.log(x)
    t = 1.0
    s = 0.0
    for n in range(1, 80):
        t *= -x / n
        s -= t / n
        if abs(t) / n < 1e-18 * (abs(total + s) + 1e-300):
            return total + s
    raise QuadratureError("E1 series did not converge")  # pragma: no cover


def _e1_cf(x: float) -> float:
    # exp(x) E_1(x) = 1/(x+1- 1^2/(x+3- 2^2/(x+5- ...))), modified Lentz
    tiny = 1e-300
    b = x + 1.0
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 300):
        a = -float(i * i)
        b += 2.0
        d = a * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + a / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = c * d
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            return h
    raise QuadratureError("E1 continued fraction did not converge")  # pragma: no cover


def e1_scaled(x: float) -> float:
    """exp(x) * E_1(x) for x > 0, stable for large x where E_1 alone
    underflows.

    Alternating series below 1, continued fraction above; relative
    accuracy around 1e-14 over the tested range (target 1e-12).
    """
    x = float(x)
    if not x > 0.0:
        raise ValueError(f"E1 needs x > 0, got {x!r}")
    if x <= 1.0:
        return math.exp(x) * _e1_series(x)
    return _e1_cf(x)


def _out_of_range(metric: str, params: ChannelParams, coeffs: SeriesCdfCoeffs) -> ValueError:
    # the c-th term of a closed form scales like gamma**c, so at high SNR
    # the deepest terms leave the double range before the sum does
    return ValueError(
        f"closed-form {metric} leaves the double range at gamma={params.gamma!r} "
        f"with series depth {coeffs.k}; use a shallower depth at this SNR"
    )


def outage(params: ChannelParams, coeffs: SeriesCdfCoeffs, snr_threshold: float) -> float:
    """Probability that the total receive SNR falls below snr_threshold.

    The threshold is linear (not dB).  Total SNR is gamma * (D + S), so
    this is the combined-power CDF at snr_threshold / gamma.
    """
    if not snr_threshold > 0.0:
        raise ValueError(f"threshold must be positive, got {snr_threshold!r}")
    return combined_cdf(params, coeffs, snr_threshold / params.gamma)


def bit_error_prob(params: ChannelParams, coeffs: SeriesCdfCoeffs) -> float:
    """Closed-form average BEP of coherent BPSK over the combined channel.

    Averaging (1/2) erfc(sqrt(gamma x)) against the series PDF and
    integrating by parts leaves half-integer gamma-function moments of
    the CDF terms:

        p = 1/2 [ 1 - A sqrt(g/(g+l1))
                  + sqrt(g/pi) sum_c col_c Gamma(c+1/2)/(g+l2)^(c+1/2) ].
    """
    g = params.gamma
    lam_srd = params.lambda_srd
    try:
        s = math.fsum(
            col * math.gamma(c + 0.5) / (g + lam_srd) ** (c + 0.5)
            for c, col in enumerate(coeffs.cols)
        )
    except OverflowError:
        raise _out_of_range("bit error probability", params, coeffs) from None
    return 0.5 * (
        1.0
        - coeffs.A * math.sqrt(g / (g + params.lambda_sd))
        + math.sqrt(g / math.pi) * s
    )


def bit_error_prob_quadrature(params: ChannelParams, coeffs: SeriesCdfCoeffs) -> float:
    """BEP by direct quadrature of (1/2) erfc(sqrt(gamma x)) * pdf(x).

    Substituting x = y*y removes the square-root cusp at the origin, so
    the integrand is smooth and the adaptive rule converges fast.
    """
    # imported here, once per call and not per integrand evaluation, so
    # importing the package does not load scipy
    from scipy.special import erfc

    g = params.gamma
    root_g = math.sqrt(g)

    def integrand(y: float) -> float:
        return erfc(root_g * y) * combined_pdf(params, coeffs, y * y) * y

    # erfc(sqrt(g) y) caps the support at a few 1/sqrt(g); 40x is margin
    return adaptive_quad(integrand, 0.0, 40.0 / root_g)


def _t_single(mu: float, c: int) -> float:
    # T_c by quadrature of the Gamma(c+1)-normalized integrand, so the
    # working scale is O(1) whatever the magnitudes of mu**c and c!
    lgf = math.lgamma(c + 1)

    def h(w: float) -> float:
        if w <= 0.0:
            return 1.0 if c == 0 else 0.0
        return math.exp(c * math.log(w) - w - lgf) / (1.0 + w / mu)

    hi = c + 40.0 * math.sqrt(c + 1.0) + 40.0
    q = adaptive_quad(h, 0.0, hi, QuadratureSpec(1e-15, 5e-14, 300))
    return math.exp(lgf - (c + 1) * math.log(mu)) * q


def _t_moments(mu: float, count: int) -> np.ndarray:
    # T_c(mu) = integral_0^inf y^c exp(-mu y)/(1+y) dy.  The forward
    # recurrence T_c = (c-1)!/mu^c - T_{c-1} amplifies rounding by mu/c
    # per step, so it is reserved for small mu (worst case ~ eps * e**mu);
    # larger mu falls back to direct quadrature per moment.
    out = np.empty(count + 1)
    if mu <= 12.0:
        # prev carries T_{c-1} as a Python float: the same bits as reading
        # it back from out, and an overflow to inf - inf gives nan without
        # a numpy warning
        prev = out[0] = e1_scaled(mu)
        fact = 1.0
        for c in range(1, count + 1):
            prev = out[c] = fact / mu**c - prev
            fact *= c
        return out
    for c in range(count + 1):
        out[c] = _t_single(mu, c)
    return out


def capacity(params: ChannelParams, coeffs: SeriesCdfCoeffs) -> float:
    """Closed-form ergodic capacity in nats per channel use.

    Assembled from the scaled exponential integral through the T_c
    moments described in the module docstring.  Multiply by 1/ln(2) for
    bits.
    """
    g = params.gamma
    t_direct = e1_scaled(params.lambda_sd / g)
    try:
        t_relay = _t_moments(params.lambda_srd / g, coeffs.k)
        relay_part = math.fsum(
            col * t_relay[c] / g**c for c, col in enumerate(coeffs.cols)
        )
    except (OverflowError, ZeroDivisionError, ValueError):
        # g**c overflows, mu**c underflows to 0, or fsum meets inf and -inf
        relay_part = math.nan
    if not math.isfinite(relay_part):
        raise _out_of_range("capacity", params, coeffs)
    return 0.5 * (coeffs.A * t_direct - relay_part)


def capacity_quadrature(params: ChannelParams, coeffs: SeriesCdfCoeffs) -> float:
    """Ergodic capacity by quadrature of the complementary-CDF integral."""
    g = params.gamma

    def integrand(x: float) -> float:
        return g * (1.0 - combined_cdf(params, coeffs, x, clamp=False)) / (1.0 + g * x)

    hi = 60.0 / min(params.lambda_sd, params.lambda_srd)
    return 0.5 * adaptive_quad(integrand, 0.0, hi)
