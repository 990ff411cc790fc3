"""Outage, bit error probability and ergodic capacity in closed form.

All three metrics read gamma from their params and the rates from the
exponential-polynomial CDF coefficients (channel.SeriesCdfCoeffs), refuse
params of another model, and reduce to elementary functions plus, for
capacity, the exponential integral E_1.  Each has an adaptive-quadrature
twin over the same distribution, to check the algebra apart from the model.

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

from .bessel_series import _past_doubles
from .channel import ChannelParams, SeriesCdfCoeffs, _require_model, combined_cdf, combined_pdf
from .reference import adaptive_quad

__all__ = [
    "e1_scaled",
    "outage",
    "bit_error_prob",
    "bit_error_prob_quadrature",
    "capacity",
    "capacity_quadrature",
]


# Gamma(c + 1/2) for every c where it is a finite double (c <= 171): the BEP
# sum's factors; from c = 172 on it refuses as past the doubles.
_HALF_GAMMAS = tuple(math.gamma(c + 0.5) for c in range(172))


def e1_scaled(x: float) -> float:
    """exp(x) * E_1(x) for x > 0, stable for large x where E_1 alone
    underflows.

    scipy.special.exp1 scaled by exp(x) below 700; from 700 on, where
    exp(x) nears overflow, 8 terms of the asymptotic series
    (1/x) sum_n (-1)^n n!/x^n, whose truncation error there is below
    1e-18 relative.  Within 2e-15 relative of 40-digit mpmath on
    [1e-10, 1e6].
    """
    x = float(x)
    if not x > 0.0:
        raise ValueError(f"E1 needs x > 0, got {x!r}")
    if x < 700.0:
        # imported here so that importing the package does not load scipy
        from scipy.special import exp1

        return math.exp(x) * float(exp1(x))
    term = total = 1.0 / x
    for n in range(1, 8):
        term *= -n / x
        total += term
    return total


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
    _require_model(params, coeffs)
    g = params.gamma
    g_srd = g + coeffs.lambda_srd
    try:
        s = math.fsum(
            col * gh / g_srd ** (c + 0.5)
            for c, (col, gh) in enumerate(zip(coeffs.cols, _HALF_GAMMAS))
        )
        p = 0.5 * (1.0 - coeffs.A * math.sqrt(g / (g + coeffs.lambda_sd))
                   + math.sqrt(g / math.pi) * s)
        if coeffs.k < len(_HALF_GAMMAS) and math.isfinite(p):
            return p
    except (ArithmeticError, ValueError):  # ValueError: fsum met inf and -inf
        pass
    # the c-th term scales like gamma**c: at high SNR the deepest leave the doubles first
    raise _past_doubles("the closed-form bit error probability", gamma=g, k=coeffs.k)


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

    def h(w: float) -> float:  # the Kronrod rule never evaluates the endpoint w = 0
        return math.exp(c * math.log(w) - w - lgf) / (1.0 + w / mu)

    hi = c + 40.0 * math.sqrt(c + 1.0) + 40.0
    q = adaptive_quad(h, 0.0, hi, abs_tol=1e-15, rel_tol=5e-14, limit=300)
    return math.exp(lgf - (c + 1) * math.log(mu)) * q


def _t_moments(mu: float, count: int) -> list[float]:
    # T_c(mu) = integral_0^inf y^c exp(-mu y)/(1+y) dy.  The forward
    # recurrence T_c = (c-1)!/mu^c - T_{c-1} amplifies rounding by mu/c
    # per step, so it is reserved for small mu (worst case ~ eps * e**mu);
    # larger mu falls back to direct quadrature per moment.
    if mu > 12.0:
        return [_t_single(mu, c) for c in range(count + 1)]
    out = [e1_scaled(mu)]
    fact = 1.0
    for c in range(1, count + 1):
        out.append(fact / mu**c - out[-1])
        fact *= c
    return out


def capacity(params: ChannelParams, coeffs: SeriesCdfCoeffs) -> float:
    """Closed-form ergodic capacity in nats per channel use.

    Assembled from the scaled exponential integral through the T_c
    moments described in the module docstring.  Multiply by 1/ln(2) for
    bits.
    """
    _require_model(params, coeffs)
    g = params.gamma
    try:
        t_direct = e1_scaled(coeffs.lambda_sd / g)
        t_relay = _t_moments(coeffs.lambda_srd / g, coeffs.k)
        relay_part = math.fsum(col * t_relay[c] / g**c for c, col in enumerate(coeffs.cols))
        nats = 0.5 * (coeffs.A * t_direct - relay_part)
        if math.isfinite(nats):
            return nats
    except (ArithmeticError, ValueError):
        # g**c overflows, mu**c or a rate over g underflows to 0, or fsum meets inf and -inf
        pass
    raise _past_doubles("the closed-form capacity", gamma=g, k=coeffs.k)


def capacity_quadrature(params: ChannelParams, coeffs: SeriesCdfCoeffs) -> float:
    """Ergodic capacity by quadrature of the complementary-CDF integral.

    The reference tests/test_metrics.py compares capacity against.
    """
    g = params.gamma

    def integrand(x: float) -> float:
        return g * (1.0 - combined_cdf(params, coeffs, x, clamp=False)) / (1.0 + g * x)

    hi = 60.0 / min(coeffs.lambda_sd, coeffs.lambda_srd)
    return 0.5 * adaptive_quad(integrand, 0.0, hi)
