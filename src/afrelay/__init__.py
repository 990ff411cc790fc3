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

from .bessel_series import series_coeffs
from .channel import ChannelParams, combined_cdf, combined_cdf_coeffs
from .metrics import bit_error_prob, capacity, outage
from .montecarlo import SimConfig, simulate
from .reference import QuadratureError

__version__ = "0.1.0"

# the quick start's names and the error its quadrature raises; every other
# public name is imported from the module that defines it
__all__ = [
    "ChannelParams",
    "QuadratureError",
    "SimConfig",
    "__version__",
    "bit_error_prob",
    "capacity",
    "combined_cdf",
    "combined_cdf_coeffs",
    "outage",
    "series_coeffs",
    "simulate",
]
