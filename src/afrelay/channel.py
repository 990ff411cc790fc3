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

      F(x) = 1 - A exp(-lambda_sd x) + exp(-lambda_srd x) sum_c cols[c] x^c,

  and its density, of the same form with the polynomial pdf; one
  evaluator (_expoly) computes both;

* the exact convolution CDF of D + S by quadrature (combined_cdf_exact),
  used to audit the high-SNR form;
* the classical min(X, Y) upper-bound baseline (minbound_cdf/minbound_pdf),
  a hypoexponential Exp(lambda_sd) + Exp(lambda_sr + lambda_rd), in one
  form that keeps its accuracy at every spacing of the two rates.

The vectorized closed forms take a scalar or an array of powers through one
formula.  A scalar stays a Python float end to end and comes back as one,
so a quadrature integrand pays for a few float operations and np.exp
calls, not for array set-up.  Facts that depend only on the parameters are
computed once: ChannelParams derives its rate combinations on
construction, and combined_cdf_coeffs builds the CDF's and the density's
polynomials together.
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
    z K_1(z) -> 1.  K_1 is scipy.special.k1.  The tail is 0 where
    exp(-lambda_s x) is 0, as at x = inf.
    """
    x = float(x)
    if x < 0.0:
        raise ValueError(f"power must be >= 0, got {x!r}")
    if x == 0.0:
        return 0.0
    decay = math.exp(-params.lambda_s * x)
    if decay == 0.0:
        return 1.0
    zeta = math.sqrt(params.lambda_p * x * (x + 1.0 / params.gamma))
    z = 2.0 * zeta
    if z < 1e-8:
        # z*K_1(z) = 1 + O(z^2 log z); below double resolution of the product
        tail = decay
    else:
        if _k1 is None:
            _bind_bessel()
        tail = z * decay * float(_k1(z))
    return min(max(1.0 - tail, 0.0), 1.0)


def srd_pdf(params: ChannelParams, x: float) -> float:
    """Exact PDF of the relayed-path equivalent power S at x > 0.

    f(x) = 2 exp(-lambda_s x) (lambda_p (2x + 1/gamma) K_0(2 zeta)
    + lambda_s zeta K_1(2 zeta)), with K_0/K_1 from scipy.special; 0 where
    exp(-lambda_s x) is 0, as at x = inf.
    """
    x = float(x)
    if x <= 0.0:
        raise ValueError(f"density is defined for x > 0, got {x!r}")
    decay = math.exp(-params.lambda_s * x)
    if decay == 0.0:
        return 0.0
    inv_g = 1.0 / params.gamma
    zeta = math.sqrt(params.lambda_p * x * (x + inv_g))
    if _k1 is None:
        _bind_bessel()
    k0 = float(_k0(2.0 * zeta))
    k1 = float(_k1(2.0 * zeta))
    return 2.0 * decay * (
        params.lambda_p * (2.0 * x + inv_g) * k0 + params.lambda_s * zeta * k1
    )


@dataclass(frozen=True, eq=False)
class SeriesCdfCoeffs:
    """The polynomials of the high-SNR series CDF of D + S and its density:

    F(x) = 1 - A exp(-lambda_sd x) + exp(-lambda_srd x) sum_{c=0..k} cols[c] x^c,
    f(x) = A lambda_sd exp(-lambda_sd x) + exp(-lambda_srd x) sum_{c=0..k} pdf[c] x^c,

    with cols and pdf tuples of Python floats, so a scalar power stays a
    Python float.  A = 1 + cols[0] pins F(0) = 0 and pdf[0] = -A lambda_sd
    pins f(0) = 0 at every truncation depth.  The depth k and A are derived
    from cols on construction and are not fields.
    """

    cols: tuple[float, ...]
    pdf: tuple[float, ...]

    def __post_init__(self):
        for name in ("cols", "pdf"):
            object.__setattr__(self, name, tuple(map(float, getattr(self, name))))
        object.__setattr__(self, "k", len(self.cols) - 1)
        object.__setattr__(self, "A", 1.0 + self.cols[0])


def combined_cdf_coeffs(
    params: ChannelParams, table: bessel_series.CoefficientTable
) -> SeriesCdfCoeffs:
    """Build the high-SNR series CDF and density coefficients from a depth-k table.

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
    cols = [0.0] * (table.k + 2)  # cols[k+1] = 0 pads the density's top term
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
    # pdf[c] = (c + 1) cols[c+1] - lambda_srd cols[c]; at c = 0 that is exactly
    # -A lambda_sd, as cols[1] - d cols[0] + lambda_sd = lambda_sd (1 - a_0) = 0
    pdf = [(c + 1) * cols[c + 1] - params.lambda_srd * cols[c] for c in range(table.k + 1)]
    pdf[0] = -((1.0 + cols[0]) * params.lambda_sd)
    return SeriesCdfCoeffs(tuple(cols[:-1]), tuple(pdf))


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


def _expoly(params: ChannelParams, v, const: float, a: float, poly):
    """const + a exp(-lambda_sd v) + exp(-lambda_srd v) sum_c poly[c] v^c, a
    float for a scalar v.  The relay term is 0 where exp(-lambda_srd v) is
    0, so 0 times an overflowed polynomial gives no nan at any v."""
    direct = const + a * np.exp(-params.lambda_sd * v)
    relay = np.exp(-params.lambda_srd * v)
    if isinstance(v, np.ndarray):
        term = relay * _horner(poly, v)
        if not relay.all():
            term[relay == 0.0] = 0.0
        return direct + term
    return float(direct + relay * _horner(poly, v)) if relay else float(direct)


def combined_cdf(params: ChannelParams, coeffs: SeriesCdfCoeffs, x, clamp: bool = True):
    """High-SNR series CDF of the combined power D + S, vectorized over x.

    Values are clamped to [0, 1]; pre-clamp excursions beyond 1e-6 raise a
    RuntimeWarning as a truncation diagnostic.  Pass clamp=False for the
    raw values.  No x, however large, gives nan (see _expoly).
    """
    raw = _expoly(params, _powers(x), 1.0, -coeffs.A, coeffs.cols)
    if isinstance(raw, np.ndarray):
        excursion = max(float(raw.max(initial=1.0)) - 1.0, -float(raw.min(initial=0.0)))
        out = np.clip(raw, 0.0, 1.0) if clamp else raw
    else:
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

    Exactly 0 at x = 0; like combined_cdf, it takes the relay term as 0
    where exp(-lambda_srd x) underflows to 0.
    """
    return _expoly(params, _powers(x), 0.0, coeffs.A * params.lambda_sd, coeffs.pdf)


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


def _hypoexp(params: ChannelParams, x):
    """The powers v, the min-of-hops rates a <= b and exp(-a v) g(v), with
    g(v) = (1 - exp(-(b - a) v)) / (b - a), which is v at equal rates."""
    v = _powers(x)
    a, b = sorted((params.lambda_sd, params.lambda_s))
    g = -np.expm1((a - b) * v) / (b - a) if b > a else v
    return v, a, b, np.exp(-a * v) * g


def minbound_cdf(params: ChannelParams, x):
    """CDF of the classical min-of-hops bound: Exp(lambda_sd) + Exp(lambda_s).

    F(v) = 1 - exp(-a v) - a exp(-a v) g(v) (see _hypoexp): one formula,
    accurate at every spacing of the two rates, Erlang(2) at equal ones.
    """
    v, a, _, eg = _hypoexp(params, x)
    return _result(np.clip(-np.expm1(-a * v) - a * eg, 0.0, 1.0), v)


def minbound_pdf(params: ChannelParams, x):
    """Density of the min-of-hops bound (derivative of minbound_cdf):
    f(v) = a b exp(-a v) g(v)."""
    v, a, b, eg = _hypoexp(params, x)
    return _result(a * b * eg, v)
