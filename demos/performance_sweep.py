"""
Link-level metrics across transmit SNR
======================================

Closed-form outage, bit error probability and ergodic capacity over a dB
grid, with exact-model simulation alongside.  The closed forms ride on the
high-SNR series CDF, so their agreement with simulation tightens as the
SNR grows; the capacity column shows the residual bias most clearly.
"""

import numpy as np

from afrelay.bessel_series import series_coeffs
from afrelay.channel import ChannelParams, combined_cdf_coeffs
from afrelay.metrics import bit_error_prob, capacity, outage
from afrelay.montecarlo import SimConfig, simulate

SAMPLES = 2_000_000
THRESHOLD = 1.0  # absolute linear SNR threshold (0 dB)
TABLE = series_coeffs(1.0, 10)


def unit(g_db):
    return ChannelParams(gamma=10 ** (g_db / 10), lambda_sd=1.0, lambda_sr=1.0, lambda_rd=1.0)


# gamma never enters the random draws, so every metric over the whole SNR
# grid is one simulation pass (one call), not one call per SNR or metric
grid = [unit(float(g_db)) for g_db in np.linspace(0.0, 30.0, 7)]
cfg = SimConfig(seed=42, samples=SAMPLES)
mc_out, mc_bep, mc_cap = simulate(
    grid, cfg, ("outage", "bep", "capacity"), threshold=THRESHOLD, workers=4
)

print(" SNR dB    outage        mc outage     bep           mc bep        capacity    mc capacity")
for i, p in enumerate(grid):
    co = combined_cdf_coeffs(p, TABLE)
    print(
        f"  {10 * np.log10(p.gamma):5.1f}   {outage(p, co, THRESHOLD):.5e}  {mc_out[i].value:.5e}"
        f"  {bit_error_prob(p, co):.5e}  {mc_bep[i].value:.5e}"
        f"  {capacity(p, co):.6f}    {mc_cap[i].value:.6f}"
    )

print()
print("capacity with a second relay (simulation only, same seed):")
two_db = (0.0, 10.0, 20.0)
# the one-relay total is a prefix of the two-relay total: one pass for both
one, two = simulate(
    [unit(g_db) for g_db in two_db], SimConfig(seed=42, samples=SAMPLES, relays=2),
    "capacity", workers=4, relays=(1, 2),
)
for g_db, e1, e2 in zip(two_db, one, two):
    print(f"  {g_db:5.1f} dB   1 relay {e1.value:.6f}   2 relays {e2.value:.6f}")
