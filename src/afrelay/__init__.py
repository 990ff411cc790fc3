"""Closed-form and Monte Carlo analysis of two-hop amplify-and-forward
relaying with maximum-ratio combining over Rayleigh fading.

The analytical core is a truncated series representation of the modified
Bessel function of the second kind built from Lah numbers and fractional
integration, which turns the combined receive-power distribution into an
exponential-polynomial closed form; outage probability, bit error
probability and ergodic capacity follow from it.  Quadrature references
and a deterministic, counter-seeded Monte Carlo simulator cross-check
every claim.
"""

from .bessel_series import (
    K_MAX,
    CoefficientTable,
    TruncatedValue,
    evaluate,
    evaluate_k0,
    exp_reciprocal_deriv,
    lah,
    series_coeffs,
    term_coeff,
)
from .channel import (
    ChannelParams,
    DegenerateParameterError,
    SeriesCdfCoeffs,
    combined_cdf,
    combined_cdf_coeffs,
    combined_cdf_exact,
    combined_pdf,
    minbound_cdf,
    minbound_pdf,
    srd_cdf,
    srd_pdf,
)
from .metrics import (
    bit_error_prob,
    bit_error_prob_quadrature,
    capacity,
    capacity_quadrature,
    e1_scaled,
    outage,
)
from .reference import (
    QuadratureError,
    QuadratureSpec,
    adaptive_quad,
    bessel_k,
    fractional_integral,
)
from .montecarlo import (
    BLOCK,
    Histogram,
    SimConfig,
    SimEstimate,
    histogram_at_edges,
    relay_power,
    simulate,
)
from .validation import CheckResult, render_report, run_all

__version__ = "0.1.0"

__all__ = [
    "K_MAX",
    "BLOCK",
    "CoefficientTable",
    "TruncatedValue",
    "ChannelParams",
    "SeriesCdfCoeffs",
    "DegenerateParameterError",
    "QuadratureSpec",
    "QuadratureError",
    "SimConfig",
    "SimEstimate",
    "Histogram",
    "CheckResult",
    "lah",
    "term_coeff",
    "series_coeffs",
    "evaluate",
    "evaluate_k0",
    "exp_reciprocal_deriv",
    "adaptive_quad",
    "bessel_k",
    "fractional_integral",
    "srd_cdf",
    "srd_pdf",
    "combined_cdf_coeffs",
    "combined_cdf",
    "combined_pdf",
    "combined_cdf_exact",
    "minbound_cdf",
    "minbound_pdf",
    "outage",
    "bit_error_prob",
    "bit_error_prob_quadrature",
    "capacity",
    "capacity_quadrature",
    "e1_scaled",
    "relay_power",
    "simulate",
    "histogram_at_edges",
    "run_all",
    "render_report",
    "__version__",
]
