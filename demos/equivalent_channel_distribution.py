"""
Distribution of the combined receive power
==========================================

Compares three routes to the same curve: the elementary-function series
CDF/PDF, exact quadrature of the relayed-path convolution, and a
10-million-sample simulation of the exact model.  The classical
min-of-hops baseline is included to show what the series form buys.
"""

import numpy as np

from afrelay.bessel_series import series_coeffs
from afrelay.channel import (
    ChannelParams,
    combined_cdf,
    combined_cdf_coeffs,
    combined_cdf_exact,
    combined_pdf,
    minbound_pdf,
)
from afrelay.montecarlo import SimConfig, histogram_at_edges

params = ChannelParams(gamma=1000.0, lambda_sd=1.0, lambda_sr=1.0, lambda_rd=1.0)
coeffs = combined_cdf_coeffs(params, series_coeffs(1.0, 10))

# closed form vs the quadrature route, pointwise
xs = np.array([0.25, 0.5, 1.0, 2.0, 4.0])
print("     x      cdf series    cdf quadrature   abs diff")
for x, a, b in zip(xs, combined_cdf(params, coeffs, xs), combined_cdf_exact(params, xs)):
    print(f"  {x:5.2f}   {a:.9f}    {b:.9f}    {abs(a - b):.2e}")
print()

# histogram of the exact model on 80 bins over [0, 8]; the density is
# normalized by every sample drawn, so the mass past 8 is not spread
# over the bins
hist = histogram_at_edges(
    params, SimConfig(seed=42, samples=10**7), np.linspace(0.0, 8.0, 81), workers=4
)
density = hist.sample_density
centers = hist.centers
pdf_closed = combined_pdf(params, coeffs, centers)
pdf_bound = minbound_pdf(params, centers)

gap = np.abs(pdf_closed - density)
gap_bound = np.abs(pdf_bound - density)
peak = pdf_closed.max()
print(f"density peak                      {peak:.4f}")
print(f"series pdf vs histogram, max gap  {gap.max():.2e}  ({gap.max() / peak:.2%} of peak)")
print(f"series pdf vs histogram, mean     {gap.mean():.2e}")
print(f"min-bound pdf vs histogram, mean  {gap_bound.mean():.2e}")
print()

# a coarse side-by-side of the three densities
print("     x    simulation      series     min-bound")
for i in range(4, 80, 16):
    print(
        f"  {centers[i]:5.2f}   {density[i]:.6f}    {pdf_closed[i]:.6f}    {pdf_bound[i]:.6f}"
    )
