"""SNR statistics of a two-hop amplify-and-forward link with a direct path.

Model: source-destination, source-relay and relay-destination channel
powers are independent exponentials with rates lambda_sd, lambda_sr,
lambda_rd (unit-mean fading corresponds to rate 1).  With a variable-gain
relay at transmit SNR gamma, the relayed path contributes the equivalent
power

    S = X * Y / (X + Y + 1/gamma),   X ~ Exp(lambda_sr), Y ~ Exp(lambda_rd),

and maximum-ratio combining adds the direct-path power D ~ Exp(lambda_sd),
so the total receive SNR is gamma * (D + S).

Closed forms implemented here:

* exact CDF/PDF of S (srd_cdf / srd_pdf), valid at any gamma, with K_0/K_1
  from scipy.special (the quadrature oracle reference.bessel_k audits them
  in the tests), imported on the first exact-model evaluation;
* a high-SNR series CDF/PDF of D + S (combined_cdf / combined_pdf) built
  from the truncated Bessel-K series, in the exponential-polynomial form

      F(x) = 1 - A exp(-lambda_sd x) + exp(-lambda_srd x) sum_c cols[c] x^c;

* the exact convolution CDF of D + S by quadrature (combined_cdf_exact),
  used to audit the high-SNR form;
* the classical min(X, Y) upper-bound baseline (minbound_cdf/minbound_pdf),
  a hypoexponential Exp(lambda_sd) + Exp(lambda_sr + lambda_rd).

The vectorized closed forms take a scalar or an array of powers through one
formula.  A scalar stays a Python float end to end and comes back as one,
so a quadrature integrand pays for a few float operations and np.exp
calls, not for array set-up.  Facts that depend only on the parameters are
computed once: ChannelParams derives its rate combinations on
construction, and SeriesCdfCoeffs its A and its derivative polynomial.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import bessel_series, reference
from .bessel_series import _horner

__all__ = [
    "ChannelParams",
    "SeriesCdfCoeffs",
    "DegenerateParameterError",
    "srd_cdf",
    "srd_pdf",
    "combined_cdf_coeffs",
    "combined_cdf",
    "combined_pdf",
    "combined_cdf_exact",
    "minbound_cdf",
    "minbound_pdf",
]

# Excursions of the series CDF beyond [0,1] larger than this are reported
# as truncation artifacts before clamping.
EXCURSION_TOL = 1e-6

# exp(-_MASS_CUTOFF) is below the smallest subnormal double.
_MASS_CUTOFF = 745.0

# Relative spacing of lambda_srd and lambda_sd below which the series
# coefficients hit their removable singularity.
DEGENERATE_REL_TOL = 1e-9


# scipy.special.k0 and k1, bound by _bind_bessel on the first exact-model
# evaluation so that importing the package does not load scipy; srd_cdf
# and srd_pdf need no other order.  _k1 is stored last, so callers test
# it alone: once it is set, both are.
_k0 = _k1 = None


class DegenerateParameterError(RuntimeError):
    """Parameters sit on a removable singularity of the closed form."""


@dataclass(frozen=True)
class ChannelParams:
    """Transmit SNR (linear) and the three exponential fading rates.

    The rate combinations that recur in every closed form are attributes
    computed once on construction, not fields, so equality, hash, repr and
    dataclasses.replace ignore them:

        lambda_p = lambda_sr lambda_rd,  lambda_s = lambda_sr + lambda_rd,
        lambda_srd = lambda_s + 2 sqrt(lambda_p) = (sqrt(lambda_sr) + sqrt(lambda_rd))**2.
    """

    gamma: float
    lambda_sd: float
    lambda_sr: float
    lambda_rd: float

    def __post_init__(self):
        for name in ("gamma", "lambda_sd", "lambda_sr", "lambda_rd"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0.0):
                raise ValueError(f"{name} must be positive and finite, got {v!r}")
        lam_p = self.lambda_sr * self.lambda_rd
        lam_s = self.lambda_sr + self.lambda_rd
        object.__setattr__(self, "lambda_p", lam_p)
        object.__setattr__(self, "lambda_s", lam_s)
        object.__setattr__(self, "lambda_srd", lam_s + 2.0 * math.sqrt(lam_p))


def _bind_bessel() -> None:
    global _k0, _k1
    from scipy.special import k0, k1

    _k0 = k0
    _k1 = k1


def srd_cdf(params: ChannelParams, x: float) -> float:
    """Exact CDF of the relayed-path equivalent power S at x >= 0.

    F(x) = 1 - 2 zeta exp(-lambda_s x) K_1(2 zeta) with
    zeta = sqrt(lambda_p x (x + 1/gamma)).  The x -> 0 limit is 0 because
    z K_1(z) -> 1.  K_1 is scipy.special.k1.
    """
    x = float(x)
    if x < 0.0:
        raise ValueError(f"power must be >= 0, got {x!r}")
    if x == 0.0:
        return 0.0
    zeta = math.sqrt(params.lambda_p * x * (x + 1.0 / params.gamma))
    z = 2.0 * zeta
    if z < 1e-8:
        # z*K_1(z) = 1 + O(z^2 log z); below double resolution of the product
        tail = math.exp(-params.lambda_s * x)
    else:
        if _k1 is None:
            _bind_bessel()
        tail = z * math.exp(-params.lambda_s * x) * float(_k1(z))
    return min(max(1.0 - tail, 0.0), 1.0)


def srd_pdf(params: ChannelParams, x: float) -> float:
    """Exact PDF of the relayed-path equivalent power S at x > 0.

    f(x) = 2 exp(-lambda_s x) (lambda_p (2x + 1/gamma) K_0(2 zeta)
    + lambda_s zeta K_1(2 zeta)), with K_0/K_1 from scipy.special.
    """
    x = float(x)
    if x <= 0.0:
        raise ValueError(f"density is defined for x > 0, got {x!r}")
    inv_g = 1.0 / params.gamma
    zeta = math.sqrt(params.lambda_p * x * (x + inv_g))
    if _k1 is None:
        _bind_bessel()
    k0 = float(_k0(2.0 * zeta))
    k1 = float(_k1(2.0 * zeta))
    return 2.0 * math.exp(-params.lambda_s * x) * (
        params.lambda_p * (2.0 * x + inv_g) * k0 + params.lambda_s * zeta * k1
    )


@dataclass(frozen=True, eq=False)
class SeriesCdfCoeffs:
    """The polynomial of the high-SNR exponential-polynomial CDF of D + S.

    F(x) = 1 - A exp(-lambda_sd x) + exp(-lambda_srd x) sum_{c=0..k} cols[c] x^c,
    with cols a tuple of Python floats, so a scalar power stays a Python
    float.  A = 1 + cols[0] pins F(0) = 0 at every truncation depth.  The
    depth k, A and the derivative polynomial are derived from cols once,
    on construction, and are not fields.
    """

    cols: tuple[float, ...]

    def __post_init__(self):
        cols = tuple(map(float, self.cols))
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "k", len(cols) - 1)
        object.__setattr__(self, "A", 1.0 + cols[0])
        # at k = 0 the derivative polynomial is the zero constant
        dcols = tuple(c * cols[c] for c in range(1, len(cols)))
        object.__setattr__(self, "_dpoly", dcols or (0.0,))


def combined_cdf_coeffs(
    params: ChannelParams, table: bessel_series.CoefficientTable
) -> SeriesCdfCoeffs:
    """Build the high-SNR series CDF coefficients from a depth-k table.

    With d = lambda_srd - lambda_sd, term q of the series adds
    base_q / (c! d^(q-c+1)) to cols[c] for c = 0..q, where
    base_q = lambda_sd (2 sqrt(lambda_p))^q q! a_q; each column is summed
    in q order.  The table must be for order nu = 1 (the CDF of S involves
    K_1 only).  Raises DegenerateParameterError when lambda_srd is within
    relative 1e-9 of lambda_sd, where the coefficients blow up; perturbing
    lambda_sd by one part in 1e6 moves off the singularity.
    """
    if table.nu != 1.0:
        raise ValueError(f"coefficients need the order-1 table, got nu={table.nu}")
    d = params.lambda_srd - params.lambda_sd
    if abs(d) < DEGENERATE_REL_TOL * params.lambda_srd:
        raise DegenerateParameterError(
            f"lambda_srd={params.lambda_srd!r} and lambda_sd={params.lambda_sd!r} "
            f"coincide to within {DEGENERATE_REL_TOL:g} relative; the series "
            f"CDF has a removable singularity there. Perturb lambda_sd by "
            f"~1e-6 relative to evaluate nearby."
        )
    two_root_p = 2.0 * math.sqrt(params.lambda_p)
    cols = [0.0] * (table.k + 1)
    q_fact = 1.0
    for q, a_q in enumerate(table.a):
        if q > 0:
            q_fact *= q
        base = params.lambda_sd * two_root_p**q * q_fact * a_q
        c_fact = 1.0
        for c in range(q + 1):
            if c > 0:
                c_fact *= c
            cols[c] += base / (c_fact * d ** (q - c + 1))
    return SeriesCdfCoeffs(tuple(cols))


def _powers(x):
    """The checked power argument: a Python float for a scalar (float, int,
    np.float64 or 0-d array), else a float ndarray."""
    if not isinstance(x, (float, int)):
        x = np.asarray(x, dtype=float)
        if x.ndim:
            if (x < 0.0).any():  # the method skips np.any's dispatch
                raise ValueError("power must be >= 0")
            return x
    v = float(x)
    if v < 0.0:
        raise ValueError(f"power must be >= 0, got {v!r}")
    return v


def _result(out, v):
    """A closed form's value in its argument's shape: a float for a scalar."""
    return out if isinstance(v, np.ndarray) else float(out)


def _excursion(raw: np.ndarray) -> float:
    """How far an array leaves [0, 1]; nan exactly when a value is nan."""
    return max(float(np.max(raw - 1.0, initial=0.0)), float(np.max(-raw, initial=0.0)))


def combined_cdf(params: ChannelParams, coeffs: SeriesCdfCoeffs, x, clamp: bool = True):
    """High-SNR series CDF of the combined power D + S, vectorized over x.

    Values are clamped to [0, 1]; pre-clamp excursions beyond 1e-6 raise a
    RuntimeWarning as a truncation diagnostic.  Pass clamp=False for the
    raw values.  Where exp(-lambda_srd x) underflows to 0 the relay term is
    0, so no x, however large, gives nan.
    """
    v = _powers(x)
    direct = 1.0 - coeffs.A * np.exp(-params.lambda_sd * v)
    relay = np.exp(-params.lambda_srd * v)
    raw = direct + relay * _horner(coeffs.cols, v)
    # a nan marks where the relay factor underflowed to 0 while the
    # polynomial overflowed; the relay term there is 0
    if isinstance(v, np.ndarray):
        excursion = _excursion(raw)
        if excursion != excursion:
            raw = np.where(relay == 0.0, direct, raw)
            excursion = _excursion(raw)
        out = np.clip(raw, 0.0, 1.0) if clamp else raw
    else:
        raw = float(raw)
        if raw != raw and relay == 0.0:
            raw = float(direct)
        excursion = max(raw - 1.0, -raw)
        out = min(max(raw, 0.0), 1.0) if clamp else raw
    if excursion > EXCURSION_TOL:
        warnings.warn(
            f"series CDF leaves [0,1] by {excursion:.3e}; deepen the "
            f"truncation or treat this parameter point with the exact form",
            RuntimeWarning,
            stacklevel=2,
        )
    return out


def combined_pdf(params: ChannelParams, coeffs: SeriesCdfCoeffs, x):
    """High-SNR series PDF of D + S (derivative of combined_cdf), vectorized.

    Finite at x = 0: the linear-power terms of the polynomial part
    contribute a constant there.  Like combined_cdf, it takes the relay
    term as 0 where exp(-lambda_srd x) underflows to 0.
    """
    v = _powers(x)
    lam_srd = params.lambda_srd
    direct = coeffs.A * params.lambda_sd * np.exp(-params.lambda_sd * v)
    relay = np.exp(-lam_srd * v)
    out = _result(
        direct + relay * (_horner(coeffs._dpoly, v) - lam_srd * _horner(coeffs.cols, v)), v
    )
    # as in combined_cdf, a nan marks where the relay factor underflowed
    # to 0, and the relay term there is 0
    nan = np.isnan(out).any() if isinstance(v, np.ndarray) else out != out
    if nan:
        out = _result(np.where(relay == 0.0, direct, out), v)
    return out


def combined_cdf_exact(params: ChannelParams, x: float) -> float:
    """Exact CDF of D + S by convolving srd_cdf with the direct-path density.

    F(x) = integral_0^x lambda_sd exp(-lambda_sd v) F_S(x - v) dv, taken
    over v <= 745 / lambda_sd, past which the direct-path density carries
    no mass a double can hold.  No high-SNR assumption; this is the audit
    target for combined_cdf.
    """
    x = float(x)
    if x < 0.0:
        raise ValueError(f"power must be >= 0, got {x!r}")
    if x == 0.0:
        return 0.0
    lam = params.lambda_sd

    def integrand(v: float) -> float:
        return lam * math.exp(-lam * v) * srd_cdf(params, x - v)

    # over all of a far larger [0, x] the quadrature misses the mass near 0
    val = reference.adaptive_quad(integrand, 0.0, min(x, _MASS_CUTOFF / lam))
    return min(max(val, 0.0), 1.0)


def minbound_cdf(params: ChannelParams, x):
    """CDF of the classical min-of-hops bound: Exp(lambda_sd) + Exp(lambda_s).

    Hypoexponential closed form; the equal-rate case degenerates to an
    Erlang(2) and is handled explicitly.
    """
    v = _powers(x)
    a, b = params.lambda_sd, params.lambda_s
    if abs(a - b) <= 1e-9 * max(a, b):
        m = 0.5 * (a + b)
        out = 1.0 - np.exp(-m * v) * (1.0 + m * v)
    else:
        out = 1.0 - (b * np.exp(-a * v) - a * np.exp(-b * v)) / (b - a)
    out = np.clip(out, 0.0, 1.0)
    return _result(out, v)


def minbound_pdf(params: ChannelParams, x):
    """Density of the min-of-hops bound (derivative of minbound_cdf)."""
    v = _powers(x)
    a, b = params.lambda_sd, params.lambda_s
    if abs(a - b) <= 1e-9 * max(a, b):
        m = 0.5 * (a + b)
        out = m * m * v * np.exp(-m * v)
    else:
        out = (a * b / (b - a)) * (np.exp(-a * v) - np.exp(-b * v))
    return _result(out, v)
