"""Seeded Monte Carlo of the exact relay model (no high-SNR assumption).

Stream design: one counter-based Philox stream per channel, keyed by
(seed, link index) with link 0 the direct path and link r the r-th relay
(whose stream carries source-relay / relay-destination draws interleaved
in pairs).  Work is split into fixed one-million-sample blocks; block b
of link l reads the draws at counter offset b * draws_per_block, so the
sampled values are a pure function of (seed, link, sample index).  Block
results are merged in block order, which makes every estimate bitwise
reproducible regardless of how many workers processed the blocks.

Exponentials come from the inverse CDF, -log(1 - U)/rate, one uniform
per draw, keeping the draw count per sample fixed (a requirement for the
counter arithmetic above).

The transmit SNR gamma never enters the draws: it appears only in the
relayed-path power x*y/(x + y + 1/gamma) and in the metric reductions.
So `simulate` over a sequence of gamma (an SNR grid) is one pass over the
streams, drawing each block once and reducing it at every gamma; its
results come back in input order, each bit-identical to a one-gamma call.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .channel import ChannelParams

__all__ = [
    "BLOCK",
    "SimConfig",
    "SimEstimate",
    "Histogram",
    "simulate",
    "simulate_minbound",
]

BLOCK = 1_000_000  # samples per block; multiple of 4 (Philox counter step)

_METRICS = ("cdf", "pdf", "outage", "bep", "capacity")


@dataclass(frozen=True)
class SimConfig:
    """Sample budget, stream seed and histogram geometry."""

    seed: int
    samples: int
    relays: int = 1
    histogram_bins: int = 80
    histogram_range: tuple[float, float] = (0.0, 8.0)

    def __post_init__(self):
        # the seed is one 64-bit Philox key word; masking it instead would
        # give -1 and 2**64 - 1 the same stream
        if not (isinstance(self.seed, numbers.Integral) and 0 <= self.seed < 2**64):
            raise ValueError(f"seed must be an integer in [0, 2**64), got {self.seed!r}")
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        if self.relays < 1:
            raise ValueError("relays must be >= 1")
        if self.histogram_bins < 2:
            raise ValueError("histogram_bins must be >= 2")
        lo, hi = self.histogram_range
        if not (0.0 <= lo < hi):
            raise ValueError("histogram_range must satisfy 0 <= lo < hi")


@dataclass(frozen=True)
class SimEstimate:
    """Point estimate with its standard error and the sample count used."""

    value: float
    std_error: float
    samples_used: int


@dataclass(frozen=True, eq=False)
class Histogram:
    """Counted histogram with out-of-range mass tracked, not dropped silently.

    density integrates to exactly 1 over the binned range; range_warning
    flags runs where more than 1% of the mass fell outside the range.
    """

    edges: np.ndarray
    counts: np.ndarray
    below: int
    above: int
    samples_used: int

    @property
    def centers(self) -> np.ndarray:
        return 0.5 * (self.edges[:-1] + self.edges[1:])

    @property
    def density(self) -> np.ndarray:
        total = self.counts.sum()
        widths = np.diff(self.edges)
        if total == 0:
            return np.zeros_like(widths)
        return self.counts / (total * widths)

    @property
    def sample_density(self) -> np.ndarray:
        """Density normalized by all samples drawn, out-of-range mass included.

        Unlike density this is an unbiased estimate of the underlying pdf
        over the binned range, at the price of integrating to < 1 when mass
        fell outside.
        """
        return self.counts / (self.samples_used * np.diff(self.edges))

    @property
    def range_warning(self) -> bool:
        return (self.below + self.above) > 0.01 * self.samples_used

    def cdf_at_edges(self) -> np.ndarray:
        """Empirical CDF at every bin edge (exact counts, no binning loss)."""
        cum = np.concatenate([[0], np.cumsum(self.counts)])
        return (self.below + cum) / self.samples_used


def _uniforms(seed: int, link: int, start: int, n: int) -> np.ndarray:
    # start is in draw units and must sit on a Philox counter boundary
    # (4 x 64-bit words per counter step, one word per double)
    bg = np.random.Philox(key=np.array([seed, link], dtype=np.uint64))
    bg.advance(start // 4)
    return np.random.Generator(bg).random(n)


def _exponential(u: np.ndarray, rate: float) -> np.ndarray:
    return -np.log1p(-u) / rate


def relay_power(x, y, inv_gamma: float):
    """Equivalent power of one relayed path given the two hop powers.

    Exact product form x*y/(x + y + 1/gamma), no high-SNR shortcut.
    Zero on either hop gives zero (the path is down).
    """
    return x * y / (x + y + inv_gamma)


def _block_draws(params: ChannelParams, seed: int, relays: int, b: int, m: int):
    # direct-path power and each relay's (source-relay, relay-destination)
    # hop powers for samples [b*BLOCK, b*BLOCK + m); gamma plays no part
    direct = _exponential(_uniforms(seed, 0, b * BLOCK, m), params.lambda_sd)
    hops = []
    for r in range(1, relays + 1):
        u = _uniforms(seed, r, 2 * b * BLOCK, 2 * m).reshape(m, 2)
        hops.append(
            (_exponential(u[:, 0], params.lambda_sr), _exponential(u[:, 1], params.lambda_rd))
        )
    return direct, hops


def _powers(draws, gamma: float) -> np.ndarray:
    # total combined power D + sum_r S_r at one SNR, relays added in order
    direct, hops = draws
    total = direct.copy()
    inv_g = 1.0 / gamma
    for x, y in hops:
        total += relay_power(x, y, inv_g)
    return total


def _block_powers(params: ChannelParams, cfg: SimConfig, b: int, m: int) -> np.ndarray:
    return _powers(_block_draws(params, cfg.seed, cfg.relays, b, m), params.gamma)


def _block_minbound(params: ChannelParams, cfg: SimConfig, b: int, m: int) -> np.ndarray:
    # direct path plus min of the first relay's two hops, same streams as
    # _block_powers so bound and model are compared on common randomness
    direct, [(x, y)] = _block_draws(params, cfg.seed, 1, b, m)
    return direct + np.minimum(x, y)


def _blocks(samples: int):
    full, rem = divmod(samples, BLOCK)
    sizes = [BLOCK] * full + ([rem] if rem else [])
    return list(enumerate(sizes))


def _map_blocks(fn, blocks, workers: int):
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers!r}")
    if workers == 1:
        return [fn(b, m) for b, m in blocks]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(lambda bm: fn(*bm), blocks))


def _mean_estimate(partials, n: int) -> SimEstimate:
    # partials arrive in block order; reduce left to right so the result
    # does not depend on how many workers produced them
    total = 0.0
    total_sq = 0.0
    for s, s2 in partials:
        total += s
        total_sq += s2
    mean = total / n
    var = max(total_sq - n * mean * mean, 0.0) / max(n - 1, 1)
    return SimEstimate(value=mean, std_error=math.sqrt(var / n), samples_used=n)


def _count_estimate(hits: int, n: int) -> SimEstimate:
    p = hits / n
    return SimEstimate(
        value=p, std_error=math.sqrt(p * (1.0 - p) / n), samples_used=n
    )


def _config_edges(cfg: SimConfig) -> np.ndarray:
    lo, hi = cfg.histogram_range
    return np.linspace(lo, hi, cfg.histogram_bins + 1)


def _bin(powers: np.ndarray, edges: np.ndarray):
    counts, _ = np.histogram(powers, bins=edges)
    below = int(np.count_nonzero(powers < edges[0]))
    above = int(np.count_nonzero(powers > edges[-1]))
    return counts.astype(np.int64), below, above


def _merge_bins(partials, edges: np.ndarray, n: int) -> Histogram:
    counts = np.zeros(len(edges) - 1, dtype=np.int64)
    below = above = 0
    for c, b_, a_ in partials:
        counts += c
        below += b_
        above += a_
    return Histogram(edges=edges, counts=counts, below=below, above=above, samples_used=n)


def simulate(
    params: ChannelParams | Sequence[ChannelParams],
    cfg: SimConfig,
    metric: str,
    x: float | None = None,
    threshold: float | None = None,
    workers: int = 1,
):
    """Monte Carlo estimate over the exact model.

    metric is one of 'cdf' (P[D + sum S_r <= x], needs x), 'pdf'
    (Histogram of the combined power), 'outage' (needs threshold, linear
    SNR), 'bep' (mean conditional BPSK error rate) or 'capacity' (mean
    half-duplex rate, nats).  Returns a Histogram for 'pdf' and a
    SimEstimate otherwise.

    params may also be a sequence of ChannelParams that share the three
    fading rates and differ only in gamma, e.g. an SNR grid.  gamma never
    enters the draws, so the whole sequence is one pass over the streams:
    each block is drawn once and reduced at every gamma.  A sequence
    returns a list of results in input order, each bit-identical to the
    call with that element alone.
    """
    single = isinstance(params, ChannelParams)
    grid = [params] if single else list(params)
    if not grid:
        raise ValueError("params sequence is empty")
    if len({(p.lambda_sd, p.lambda_sr, p.lambda_rd) for p in grid}) > 1:
        raise ValueError("params in one simulate call may differ only in gamma")
    if metric not in _METRICS:
        raise ValueError(f"metric must be one of {_METRICS}, got {metric!r}")
    if metric == "cdf" and x is None:
        raise ValueError("metric 'cdf' needs x")
    if metric == "outage" and (threshold is None or threshold <= 0.0):
        raise ValueError("metric 'outage' needs a positive threshold")
    n = cfg.samples

    # reduce: one gamma's block powers to a partial result; merge: the
    # partials of every block, in block order, to that gamma's result
    if metric in ("cdf", "outage"):

        def reduce(p, s):
            return int(np.count_nonzero(s <= (x if metric == "cdf" else threshold / p.gamma)))

        def merge(partials):
            return _count_estimate(sum(partials), n)

    elif metric == "pdf":
        edges = _config_edges(cfg)

        def reduce(p, s):
            return _bin(s, edges)

        def merge(partials):
            return _merge_bins(partials, edges, n)

    else:
        if metric == "bep":
            # imported in the calling thread, so no worker thread runs an
            # import, and only where it is used: importing the package
            # does not load scipy
            from scipy.special import erfc

        def reduce(p, s):
            gs = p.gamma * s
            v = 0.5 * (erfc(np.sqrt(gs)) if metric == "bep" else np.log1p(gs))
            return float(v.sum()), float((v * v).sum())

        def merge(partials):
            return _mean_estimate(partials, n)

    def fn(b, m):
        draws = _block_draws(grid[0], cfg.seed, cfg.relays, b, m)
        return [reduce(p, _powers(draws, p.gamma)) for p in grid]

    per_block = _map_blocks(fn, _blocks(n), workers)
    results = [merge([blk[i] for blk in per_block]) for i in range(len(grid))]
    return results[0] if single else results


def _histogram(
    params: ChannelParams, cfg: SimConfig, workers: int, block_fn, edges
) -> Histogram:
    partials = _map_blocks(
        lambda b, m: _bin(block_fn(params, cfg, b, m), edges),
        _blocks(cfg.samples),
        workers,
    )
    return _merge_bins(partials, edges, cfg.samples)


def simulate_minbound(params: ChannelParams, cfg: SimConfig, workers: int = 1) -> Histogram:
    """Histogram of the min-of-hops bound, on common random numbers."""
    return _histogram(params, cfg, workers, _block_minbound, _config_edges(cfg))


def histogram_at_edges(
    params: ChannelParams,
    cfg: SimConfig,
    edges,
    workers: int = 1,
    minbound: bool = False,
) -> Histogram:
    """Histogram of the combined power on an explicit (possibly non-uniform)
    ascending edge array, e.g. bins centered on a caller's x grid."""
    edges = np.asarray(edges, dtype=float)
    if edges.ndim != 1 or len(edges) < 3 or np.any(np.diff(edges) <= 0):
        raise ValueError("edges must be a 1-D ascending array with >= 2 bins")
    if edges[0] < 0:
        raise ValueError("edges must be nonnegative (powers are nonnegative)")
    fn = _block_minbound if minbound else _block_powers
    return _histogram(params, cfg, workers, fn, edges)
