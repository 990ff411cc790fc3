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

* exact CDF/PDF of S (srd_cdf / srd_pdf), valid at any gamma whose 1/gamma
  is a double (gamma >= 5.56e-309; below, they and combined_cdf_exact
  refuse with a ValueError naming gamma), with K_0/K_1 from scipy.special
  (the quadrature oracle reference.bessel_k audits them in the tests),
  imported where they are called;
* a high-SNR series CDF/PDF of D + S (combined_cdf / combined_pdf) built
  from the truncated Bessel-K series, in the exponential-polynomial form

      F(x) = 1 - A exp(-lambda_sd x) + exp(-lambda_srd x) sum_c cols[c] x^c,

  and its density, the same form with the polynomial pdf that SeriesCdfCoeffs
  derives from cols; one evaluator (_expoly) computes both at the rates the
  coefficients carry, and every series form refuses params of another model;
* the exact CDF of D + S (combined_cdf_exact), used to audit the high-SNR
  form: the convolution of the direct path with the survival function of
  S, taken over the direct path's own probability, in which its density
  is uniform, so reference's fixed panel rule is graded toward one end
  only; a whole grid of powers at once;
* the classical min(X, Y) upper-bound baseline (minbound_cdf/minbound_pdf),
  a hypoexponential Exp(lambda_sd) + Exp(lambda_sr + lambda_rd), in one
  form that keeps its accuracy at every spacing of the two rates, and the
  CDF near the origin by its power series.

The vectorized closed forms take a scalar or an array of powers through one
formula, and a scalar comes back as a Python float.  In the series forms a
scalar stays a Python float end to end: each of its two np.exp calls turns
into a float at once, and the rest is float arithmetic, so a quadrature
integrand pays for a few float operations, not for numpy scalars or array
set-up.  An array grid is evaluated in place, in one result buffer plus
the relay decay, the powers the polynomial reads and the polynomial.  The
exact forms and the min bound run numpy on a scalar.  Facts that depend
only on the parameters are computed once: ChannelParams derives its rate
combinations on construction, combined_cdf_coeffs builds the CDF's columns,
for every gamma, from one table of powers of d, and series_coeffs caches one
table per order and depth.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass
from itertools import accumulate
from operator import mul

import numpy as np

from . import bessel_series
from .bessel_series import _horner, _is_real, _past_doubles, _require_positive
from .reference import _PANEL_RATIO, QuadratureError, _panel_rule, _panel_tail

__all__ = [
    "ChannelParams",
    "SeriesCdfCoeffs",
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

# Relative spacing of lambda_srd and lambda_sd below which the series
# coefficients hit their removable singularity.
DEGENERATE_REL_TOL = 1e-9

# combined_cdf_exact raises QuadratureError past this absolute error estimate.
EXACT_ABS_TOL = 1e-12

# The levels of combined_cdf_exact's panels toward t = 0; see there.
_PANEL_LEVELS = 17
_LOW_REACH = 1e7
_EXTRA_LEVELS = 32

# The smallest normal double; see _bessel_argument.
_TINY = sys.float_info.min

# Grid points per pass of combined_cdf_exact on the 19 panels of the base
# rule, fewer in proportion on more panels: bounds its temporaries to a few
# MB, as each point takes one value per node.
_EXACT_CHUNK = 1024


@dataclass(frozen=True)
class ChannelParams:
    """Transmit SNR (linear) and three exponential fading rates, finite floats > 0.

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
            object.__setattr__(self, name, _require_positive(name, getattr(self, name)))
        sr, rd = self.lambda_sr, self.lambda_rd
        lam_p, lam_s = sr * rd, sr + rd
        lam_srd = lam_s + 2.0 * math.sqrt(lam_p)
        # a subnormal holds too few bits to stand for the rate
        if not all(math.isfinite(v) and v >= _TINY for v in (lam_p, lam_s, lam_srd)):
            raise _past_doubles("lambda_p, lambda_s or lambda_srd", lambda_sr=sr, lambda_rd=rd)
        object.__setattr__(self, "lambda_p", lam_p)
        object.__setattr__(self, "lambda_s", lam_s)
        object.__setattr__(self, "lambda_srd", lam_srd)


@dataclass(frozen=True, eq=False)
class SeriesCdfCoeffs:
    """The polynomials of the high-SNR series CDF of D + S and its density:

    F(x) = 1 - A exp(-lambda_sd x) + exp(-lambda_srd x) sum_{c=0..k} cols[c] x^c,
    f(x) = A lambda_sd exp(-lambda_sd x) + exp(-lambda_srd x) sum_{c=0..k} pdf[c] x^c.

    SeriesCdfCoeffs(cols, table, lambda_sd, lambda_p, lambda_s) takes F's k + 1 >= 1 columns,
    their order-1 table (k = table.k; another order is refused) and the rates of one model,
    which the series forms read here.  It derives k, lambda_srd, A = 1 + cols[0], which pins
    F(0) to 0 up to its rounding, and the density's pdf, F' term by term with pdf[0] = -A
    lambda_sd, which pins f(0) = 0 exactly; so pdf is F' where cols[1] = d cols[0] - lambda_sd
    (d = lambda_srd - lambda_sd), as in every built table.  cols and pdf hold Python floats.
    """

    cols: tuple[float, ...]
    table: bessel_series.CoefficientTable
    lambda_sd: float
    lambda_p: float
    lambda_s: float

    def __post_init__(self):
        if self.table.nu != 1.0:
            raise ValueError(f"coefficients need the order-1 table, got nu={self.table.nu}")
        cols, k = tuple(map(float, self.cols)), self.table.k
        if not len(cols) == k + 1 > 0:
            raise ValueError(f"cols need k + 1 >= 1 entries at k={k}, got {len(cols)}")
        A, lambda_srd = 1.0 + cols[0], self.lambda_s + 2.0 * math.sqrt(self.lambda_p)
        padded = cols + (0.0,)
        pdf = [(c + 1) * padded[c + 1] - lambda_srd * padded[c] for c in range(k + 1)]
        pdf[0] = -(A * self.lambda_sd)
        self.__dict__.update(cols=cols, k=k, A=A, lambda_srd=lambda_srd, pdf=tuple(pdf))


def combined_cdf_coeffs(
    params: ChannelParams, table: bessel_series.CoefficientTable
) -> SeriesCdfCoeffs:
    """Build the high-SNR series CDF coefficients from a depth-k table.

    With d = lambda_srd - lambda_sd, term q of the series adds
    base_q / (c! d^(q-c+1)) to cols[c] for c = 0..q, where
    base_q = lambda_sd (2 sqrt(lambda_p))^q q! a_q; each column is summed
    in q order.  The powers d^m (one pow each) and the factorials c! (the
    running product) are computed once per call, and every term reads
    them from those tables.  The result carries the table, which must be
    for order nu = 1 (the CDF of S involves K_1 only), and the rates of
    params, derives the density, and serves params of any gamma.  Raises
    ValueError when lambda_srd is within relative 1e-9 of lambda_sd, where
    the coefficients blow up (one part in 1e6 off it the series CDF is still
    off by orders of magnitude, so that band needs combined_cdf_exact or
    Monte Carlo), and where a power of d or of 2 sqrt(lambda_p) leaves the
    doubles: a rate of 1e30 with the others at 1, or depth 30 at rates 1e-20.
    """
    d = params.lambda_srd - params.lambda_sd
    if abs(d) < DEGENERATE_REL_TOL * params.lambda_srd:
        raise ValueError(
            f"lambda_srd={params.lambda_srd!r} and lambda_sd={params.lambda_sd!r} "
            f"coincide to within {DEGENERATE_REL_TOL:g} relative; the series "
            f"CDF has a removable singularity there and is far off near it. "
            f"Use combined_cdf_exact or Monte Carlo in this band."
        )
    two_root_p = 2.0 * math.sqrt(params.lambda_p)
    try:
        d_pow = [d**m for m in range(1, table.k + 2)]  # d_pow[m] = d^(m+1)
        fact = list(accumulate(range(1, table.k + 1), mul, initial=1.0))  # fact[c] = c!, in floats
        cols = [0.0] * (table.k + 1)
        for q, a_q in enumerate(table.a):
            base = params.lambda_sd * two_root_p**q * fact[q] * a_q
            for c in range(q + 1):
                cols[c] += base / (fact[c] * d_pow[q - c])
    except ArithmeticError:  # a power of d overflowed, or underflowed to 0
        raise _past_doubles(
            "the series CDF", lambda_sd=params.lambda_sd, lambda_srd=params.lambda_srd, k=table.k
        ) from None
    return SeriesCdfCoeffs(cols, table, params.lambda_sd, params.lambda_p, params.lambda_s)


def _powers(x):
    """The checked power argument: a Python float for a real number (see _is_real) or a
    0-d array, else a float ndarray; an array of other than integers or floats is refused."""
    if not _is_real(x):
        if (a := np.asarray(x)).dtype.kind not in "iuf":
            raise ValueError(f"power must be a real number or an array of them, got {x!r}")
        x = a.astype(float, copy=False)
        if x.ndim:
            # one reduction; fmin skips nan, so a negative entry among nans
            # is refused, and an empty or all-nan grid reads the initial 0
            if np.fmin.reduce(x, axis=None, initial=0.0) < 0.0:
                raise ValueError("power must be >= 0")
            return x
    v = float(x)
    if v < 0.0:
        raise ValueError(f"power must be >= 0, got {v!r}")
    return v


def _result(out, v):
    """A closed form's value in its argument's shape: a float for a scalar."""
    return out if isinstance(v, np.ndarray) else float(out)


def _require_model(params: ChannelParams, coeffs: SeriesCdfCoeffs) -> None:
    """Refuse params of another model than coeffs'; swapped hop rates are the same one."""
    own = (coeffs.lambda_sd, coeffs.lambda_p, coeffs.lambda_s)
    got = (params.lambda_sd, params.lambda_p, params.lambda_s)
    if got != own:
        raise ValueError(f"coefficients at (lambda_sd, lambda_p, lambda_s) = {own} refuse params at {got}")


def _expoly(coeffs: SeriesCdfCoeffs, v, const: float, a: float, poly):
    """const + a exp(-lambda_sd v) + exp(-lambda_srd v) sum_c poly[c] v^c at the
    rates of coeffs, a float for a scalar v.  The polynomial is read only
    where exp(-lambda_srd v) is nonzero (an array reads it at 0 elsewhere),
    so a power past the double range neither overflows it nor gives nan.

    An array fills a new result buffer in place, never v itself.  A scalar
    turns each np.exp into a Python float at once, and the rest is float
    arithmetic; np.exp and not math.exp, whose bits differ."""
    if isinstance(v, np.ndarray):
        out = np.multiply(v, -coeffs.lambda_sd)
        np.exp(out, out=out)
        out *= a
        out += const
        relay = np.multiply(v, -coeffs.lambda_srd)
        np.exp(relay, out=relay)
        term = _horner(poly, np.where(relay, v, 0.0))
        term *= relay
        out += term
        return out
    direct = const + a * float(np.exp(-coeffs.lambda_sd * v))
    relay = float(np.exp(-coeffs.lambda_srd * v))
    return direct + relay * _horner(poly, v) if relay else direct


def combined_cdf(params: ChannelParams, coeffs: SeriesCdfCoeffs, x, clamp: bool = True):
    """High-SNR series CDF of the combined power D + S, vectorized over x.

    Values are clamped to [0, 1]; pre-clamp excursions beyond 1e-6 raise a
    RuntimeWarning as a truncation diagnostic.  Pass clamp=False for the
    raw values.  No x, however large, gives nan (see _expoly).
    """
    _require_model(params, coeffs)
    raw = _expoly(coeffs, _powers(x), 1.0, -coeffs.A, coeffs.cols)
    if isinstance(raw, np.ndarray):
        excursion = max(float(raw.max(initial=1.0)) - 1.0, -float(raw.min(initial=0.0)))
        out = raw.clip(0.0, 1.0, out=raw) if clamp else raw
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
    _require_model(params, coeffs)
    return _expoly(coeffs, _powers(x), 0.0, coeffs.A * coeffs.lambda_sd, coeffs.pdf)


def _require_inverse_gamma(params: ChannelParams) -> None:
    """Refuse a gamma whose reciprocal leaves the doubles (gamma below
    1/DBL_MAX, about 5.56e-309): the exact model of S reads 1/gamma."""
    if math.isinf(1.0 / params.gamma):
        raise _past_doubles("1/gamma", gamma=params.gamma)


def _bessel_argument(params: ChannelParams, u):
    """z = 2 sqrt(lambda_p u (u + 1/gamma)) and exp(-lambda_s u): the Bessel
    argument and the decay in the CDF and PDF of S at powers u.  Where
    lambda_p u or the product under the root falls below the normal
    doubles at u > 0, so that it loses bits or reads 0, or the product
    overflows at a finite u > 0 (1/gamma near the largest double), z is
    formed as 2 sqrt(lambda_p) sqrt(u) sqrt(u + 1/gamma), each root a
    double; every other z keeps the one formula."""
    inv_gamma = 1.0 / params.gamma
    lam_u = params.lambda_p * u
    product = lam_u * (u + inv_gamma)
    z = 2.0 * np.sqrt(product)
    edge = ((np.fmin(lam_u, product) < _TINY) | (product == np.inf)) & (u > 0.0) & (u < np.inf)
    if edge.any():
        roots = 2.0 * math.sqrt(params.lambda_p) * np.sqrt(u) * np.sqrt(u + inv_gamma)
        z = np.where(edge, roots, z)
    return z, np.exp(-params.lambda_s * u)


def _survival(params: ChannelParams, u: np.ndarray) -> np.ndarray:
    """Survival function of S at an array of powers u >= 0: 1 - F_S(u) =
    z K_1(z) exp(-lambda_s u) (see _bessel_argument), in [0, 1].

    z K_1(z) falls from its limit 1 at z = 0; np.fmin caps it at 1, which
    also takes that limit where the product reads 0 * inf = nan, at u = 0,
    and gives 1 * 0 at u = inf, where it reads inf * 0.
    """
    from scipy.special import k1

    with np.errstate(over="ignore", invalid="ignore"):
        z, decay = _bessel_argument(params, u)
        return np.fmin(z * k1(z), 1.0) * decay


def srd_cdf(params: ChannelParams, x):
    """Exact CDF of the relayed-path equivalent power S, vectorized over x >= 0.

    F(x) = 1 - 2 zeta exp(-lambda_s x) K_1(2 zeta) with
    zeta = sqrt(lambda_p x (x + 1/gamma)), K_1 from scipy.special: 0 at
    x = 0, because z K_1(z) -> 1, and 1 where exp(-lambda_s x) is 0, as at
    x = inf.  combined_cdf_exact integrates the same survival function.
    A scalar runs the array formula on a 0-d array and comes back a float.
    The paper's exact statistic of S; the tests check it against the
    bessel_k quadrature oracle.  Refuses gamma < 5.56e-309, whose 1/gamma
    leaves the doubles, with a ValueError naming gamma.
    """
    _require_inverse_gamma(params)
    v = _powers(x)
    return _result(1.0 - _survival(params, np.asarray(v)), v)


def srd_pdf(params: ChannelParams, x):
    """Exact PDF of the relayed-path equivalent power S, vectorized over x > 0.

    f(x) = 2 exp(-lambda_s x) (lambda_p (2x + 1/gamma) K_0(2 zeta)
    + lambda_s zeta K_1(2 zeta)), with K_0/K_1 from scipy.special; 0 where
    exp(-lambda_s x) is 0, as at x = inf.  A scalar runs the array formula
    on a 0-d array and comes back a float.  The paper's exact statistic of
    S; the tests check it against the bessel_k quadrature oracle.  Like
    srd_cdf it refuses gamma < 5.56e-309.  zeta K_1(2 zeta) is capped at
    its limit 1/2, which it takes where K_1 overflows, as in _survival.  It
    never returns nan or inf: where another term leaves the doubles
    (lambda_p / gamma past them, or a Bessel argument below the subnormals)
    it raises a ValueError naming the point.
    """
    from scipy.special import k0, k1

    _require_inverse_gamma(params)
    v = _powers(x)
    u = np.asarray(v)
    if (u == 0.0).any():
        raise ValueError("density is defined for x > 0; it has a log divergence at 0")
    with np.errstate(over="ignore", invalid="ignore"):
        z, decay = _bessel_argument(params, u)
        density = 2.0 * decay * (
            params.lambda_p * (2.0 * u + 1.0 / params.gamma) * k0(z)
            + params.lambda_s * np.fmin((0.5 * z) * k1(z), 0.5)
        )
        density = np.where(decay == 0.0, 0.0, density)
    bad = ~np.isfinite(density) & ~np.isnan(u)  # a nan power maps to nan
    if bad.any():
        raise _past_doubles("the density of S", gamma=params.gamma, x=float(u[bad].flat[0]))
    return _result(density, v)


def _exact_cdf_block(params: ChannelParams, x: np.ndarray, grow: np.ndarray, low: int):
    """combined_cdf_exact on a 1-d array of powers x, with grow =
    expm1(lambda_sd x), on the panels of _panel_rule(low); see there."""
    t, w, width = _panel_rule(low)
    n = t.size // width.size  # nodes per panel
    lam = params.lambda_sd
    big = np.isinf(grow)  # where expm1 overflows, log1p(t grow) = lambda_sd x + log t
    u = np.log1p(np.where(big, 0.0, grow)[:, None] * t) / lam
    if big.any():
        u[big] = x[big, None] + np.log(t) / lam
    sf = _survival(params, u)
    mass = -np.expm1(-lam * x)  # W = P[D <= x]

    # The error estimate: _panel_tail's, and a bound on the first panel, as
    # S-bar falls from 1 by at most its drop at the next panel's first node
    estimate = mass * (_panel_tail(sf, width) + width[0] * (1.0 - sf[:, n]))
    if (estimate > EXACT_ABS_TOL).any():
        i = int(np.argmax(estimate))
        raise QuadratureError(
            f"exact CDF at x = {float(x[i])!r}: quadrature error estimate "
            f"{estimate[i]:.3g} exceeds {EXACT_ABS_TOL:g}",
            estimate=float(estimate[i]),
        )
    return np.clip(mass * (1.0 - (sf * w).sum(axis=1)), 0.0, 1.0)


def combined_cdf_exact(params: ChannelParams, x):
    """Exact CDF of D + S, vectorized over x: the audit target for combined_cdf.

    With S-bar = 1 - srd_cdf the survival function of S, W = P[D <= x] =
    -expm1(-lambda_sd x) and t = P[D <= x - u | D <= x] the direct path's
    own probability, in which its density is uniform,

        F(x) = W (1 - integral_0^1 S-bar(u(t)) dt),
        u(t) = log1p(t expm1(lambda_sd x)) / lambda_sd,

    or x + log(t) / lambda_sd where expm1 overflows (lambda_sd x past about
    709.8), with no high-SNR assumption.  u runs from 0 at t = 0, where
    S-bar has a u log u cusp, changes on the scale 1/gamma and falls on the
    scale 1/rate, rate = max(lambda_srd, lambda_p / gamma).  So the fixed
    Gauss-Legendre panels of reference._panel_rule are graded toward t = 0
    only, down to [0, 0.5 * 4**-17], and one level deeper per factor 4 by
    which rate u'(0) = rate expm1(lambda_sd x) / lambda_sd passes 1e7, at
    most 32 more.  The levels depend on each point's own x, so a point's
    value does not depend on the rest of the grid.  Against a tight
    adaptive quadrature the result is within 1e-13 absolute from -20 to
    100 dB, out to x = 1e3 / lambda_sd, with the direct path up to 2.5e299
    times faster than lambda_srd, and with S's mass within 1e-9 of 0.

    The same node values give an error estimate (see _exact_cdf_block);
    where it passes 1e-12 absolute, QuadratureError is raised with the
    estimate attached instead of a value returned.  The CDF is exactly 0
    at x = 0 and 1 where the direct path and S have no mass a double can
    hold, as at x = inf.  Grid points are evaluated 1024 at a time on the
    base panels.  Like srd_cdf it refuses gamma < 5.56e-309.
    """
    _require_inverse_gamma(params)
    v = _powers(x)
    flat = np.array(v, dtype=float).reshape(-1)
    lam = params.lambda_sd
    rate = max(params.lambda_srd, params.lambda_p / params.gamma)
    steps = _LOW_REACH * _PANEL_RATIO ** -np.arange(_EXTRA_LEVELS)
    # overflows read inf, past every step: expm1 from lambda_sd x = 709.8, rate u'(0)
    with np.errstate(over="ignore"):
        grow = np.expm1(lam * flat)
        low = _PANEL_LEVELS + (rate * grow[:, None] / lam > steps).sum(axis=1)
    out = np.empty_like(flat)
    for lo in np.unique(low).tolist():
        at = np.flatnonzero(low == lo)
        step = _EXACT_CHUNK * (_PANEL_LEVELS + 2) // (lo + 2)
        for i in range(0, at.size, step):
            part = at[i : i + step]
            out[part] = _exact_cdf_block(params, flat[part], grow[part], lo)
    return _result(out.reshape(np.shape(v)), v)


# minbound_cdf's power series serves (a + b) v < 0.5, where its 15 terms
# reach below 1e-17 of the first: h_m <= 0.5**m
_MINBOUND_REACH = 0.5
_MINBOUND_TERMS = 15


def _hypoexp(params: ChannelParams, x):
    """The powers v, the min-of-hops rates a <= b and exp(-a v) g(v), with
    g(v) = (1 - exp(-(b - a) v)) / (b - a), which is v at equal rates.
    There v is capped at the largest double, so that exp(-a v) g(v) is 0
    at v = inf, not 0 * inf."""
    v = _powers(x)
    a, b = sorted((params.lambda_sd, params.lambda_s))
    g = -np.expm1((a - b) * v) / (b - a) if b > a else np.minimum(v, sys.float_info.max)
    return v, a, b, np.exp(-a * v) * g


def minbound_cdf(params: ChannelParams, x):
    """CDF of the classical min-of-hops bound: Exp(lambda_sd) + Exp(lambda_s).

    F(v) = 1 - exp(-a v) - a exp(-a v) g(v) (see _hypoexp): one formula,
    accurate at every spacing of the two rates, Erlang(2) at equal ones.
    Its two terms cancel as v -> 0 (relative error ~ eps/(a v)), so below
    (a + b) v = _MINBOUND_REACH F is the power series
    y z sum_m (-1)^m h_m(y, z) / (m + 2)!, with y = a v, z = b v and
    h_m(y, z) = sum_j y^j z^(m-j) = z h_(m-1) + y^m: every h_m is
    positive, and nothing divides by b - a or overflows.  With
    Histogram.cdf_at_edges, the reference pair of TestMinbound.
    """
    v, a, b, eg = _hypoexp(params, x)
    f = np.array(np.clip(-np.expm1(-a * v) - a * eg, 0.0, 1.0))
    near = np.asarray(v) < _MINBOUND_REACH / (a + b)
    if near.any():
        u = np.asarray(v)[near]
        y, z = a * u, b * u
        h, yp = [np.ones_like(u)], np.ones_like(u)
        for _ in range(1, _MINBOUND_TERMS):
            yp = yp * y
            h.append(z * h[-1] + yp)
        s = np.zeros_like(u)
        for m in reversed(range(_MINBOUND_TERMS)):  # the smallest terms first
            s += (-1) ** m / math.factorial(m + 2) * h[m]
        f[near] = y * z * s
    return _result(f, v)


def minbound_pdf(params: ChannelParams, x):
    """Density of the min-of-hops bound (derivative of minbound_cdf): f(v) =
    b (a exp(-a v) g(v)), whose inner factor is at most 1/e, so never overflows."""
    v, a, b, eg = _hypoexp(params, x)
    return _result(b * (a * eg), v)
