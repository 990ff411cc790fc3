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

One pass per call: every entry point runs the same block kernel, which
draws each link once per block and reduces the block at every requested
(relay count, gamma, metric).  Two facts make that exact:

- gamma never enters the draws: it appears only in the relayed-path power
  x*y/(x + y + 1/gamma), whose gamma-free parts x*y and x + y are
  computed once per block, and in the metric reductions;
- the combined power is built in relay order, D, then D + S_1, then
  D + S_1 + S_2, ..., so the total for r relays is a prefix of the total
  for more relays, on the same streams.

So `simulate` over an SNR grid, a tuple of metrics and a tuple of relay
counts is one pass, and each of its results is bit-identical to the call
that asks for that one result alone.
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
    "relay_power",
    "simulate",
    "histogram_at_edges",
]

BLOCK = 1_000_000  # samples per block; multiple of 4 (Philox counter step)

_METRICS = ("cdf", "pdf", "outage", "bep", "capacity")

# np.linspace arguments of the 'pdf' metric's bin edges: 80 bins on [0, 8]
_PDF_EDGES = (0.0, 8.0, 81)


def _require_count(name: str, value, lo: int, hi: int | None = None) -> None:
    # bool is an Integral but never a count; hi, when given, is inclusive
    if (
        isinstance(value, bool)
        or not isinstance(value, numbers.Integral)
        or value < lo
        or (hi is not None and value > hi)
    ):
        bounds = f"in [{lo}, {hi}]" if hi is not None else f">= {lo}"
        raise ValueError(f"{name} must be an integer {bounds}, got {value!r}")


@dataclass(frozen=True)
class SimConfig:
    """Stream seed, sample budget and relay count.

    relays is the number of relayed paths simulated; one simulate call may
    also read the totals over fewer (its relays argument).
    """

    seed: int
    samples: int
    relays: int = 1

    def __post_init__(self):
        # the seed is one 64-bit Philox key word; masking it instead would
        # give -1 and 2**64 - 1 the same stream
        if not (isinstance(self.seed, numbers.Integral) and 0 <= self.seed < 2**64):
            raise ValueError(f"seed must be an integer in [0, 2**64), got {self.seed!r}")
        _require_count("samples", self.samples, 1)
        _require_count("relays", self.relays, 1)


@dataclass(frozen=True)
class SimEstimate:
    """Point estimate with its standard error and the sample count used."""

    value: float
    std_error: float
    samples_used: int


@dataclass(frozen=True, eq=False)
class Histogram:
    """Counted histogram with out-of-range mass tracked, not dropped silently.

    below and above count the samples left of the first edge and right of
    the last; density integrates to exactly 1 over the binned range.
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


def _exponential(u: np.ndarray, rate) -> np.ndarray:
    # -log1p(-u)/rate computed in u's own storage: the same operations in
    # the same order, so the same bits, without the temporaries; rate may
    # be one rate per column of u
    np.negative(u, out=u)
    np.log1p(u, out=u)
    np.negative(u, out=u)
    u /= rate
    return u


def relay_power(x, y, inv_gamma: float):
    """Equivalent power of one relayed path given the two hop powers.

    Exact product form x*y/(x + y + 1/gamma), no high-SNR shortcut.
    Zero on either hop gives zero (the path is down).
    """
    return x * y / (x + y + inv_gamma)


def _relay_term(xy: np.ndarray, xpy: np.ndarray, inv_gamma: float, out: np.ndarray):
    # relay_power(x, y, inv_gamma) from its gamma-free parts x*y and x + y,
    # written to out; the same operations, so the same bits
    np.add(xpy, inv_gamma, out=out)
    return np.divide(xy, out, out=out)


def _block_draws(params: ChannelParams, seed: int, relays: int, b: int, m: int):
    # direct-path power and each relay's (source-relay, relay-destination)
    # hop powers for samples [b*BLOCK, b*BLOCK + m); gamma plays no part
    direct = _exponential(_uniforms(seed, 0, b * BLOCK, m), params.lambda_sd)
    hops = []
    rates = np.array([params.lambda_sr, params.lambda_rd])
    for r in range(1, relays + 1):
        pair = _exponential(_uniforms(seed, r, 2 * b * BLOCK, 2 * m).reshape(m, 2), rates)
        hops.append((pair[:, 0], pair[:, 1]))
    return direct, hops


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


def _run(params: ChannelParams, cfg: SimConfig, requests, workers: int) -> list[list]:
    """The block kernel: one pass over the streams for every request.

    requests holds (r, gamma, reduce) triples with 1 <= r <= cfg.relays.
    Per block, links 0..max r are drawn once.  For each distinct gamma the
    running total D + S_1 + ... + S_r is built in relay order, and every
    request with that gamma is reduced, reduce(total, gamma), when the
    total reaches its relay count.  gamma None stands for the min-of-hops
    bound, S_r = min(X_r, Y_r).  Returns each request's partials, in block
    order.
    """
    plan: dict = {}  # gamma -> {relay count -> [(request index, reduce)]}
    for i, (r, gamma, reduce) in enumerate(requests):
        plan.setdefault(gamma, {}).setdefault(r, []).append((i, reduce))
    depth = max(r for r, _, _ in requests)
    model = any(gamma is not None for gamma in plan)

    def block(b, m):
        direct, hops = _block_draws(params, cfg.seed, depth, b, m)
        if model:
            parts = [(x * y, x + y) for x, y in hops]
        total, term = np.empty(m), np.empty(m)
        out = [None] * len(requests)
        for gamma, at in plan.items():
            np.copyto(total, direct)
            for r in range(1, max(at) + 1):
                if gamma is None:
                    np.minimum(*hops[r - 1], out=term)
                else:
                    _relay_term(*parts[r - 1], 1.0 / gamma, term)
                total += term
                for i, reduce in at.get(r, ()):
                    out[i] = reduce(total, gamma)
        return out

    per_block = _map_blocks(block, _blocks(cfg.samples), workers)
    return [[blk[i] for blk in per_block] for i in range(len(requests))]


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


def _reducer(metric: str, cfg: SimConfig, x, threshold):
    """(reduce, merge) of one metric: reduce(total, gamma) takes one block's
    combined power to a partial, merge takes the partials of every block,
    in block order, to the result."""
    n = cfg.samples
    if metric in ("cdf", "outage"):

        def reduce(s, gamma):
            return int(np.count_nonzero(s <= (x if metric == "cdf" else threshold / gamma)))

        return reduce, lambda partials: _count_estimate(sum(partials), n)
    if metric == "pdf":
        edges = np.linspace(*_PDF_EDGES)
        return (
            lambda s, gamma: _bin(s, edges),
            lambda partials: _merge_bins(partials, edges, n),
        )
    if metric == "bep":
        # imported in the calling thread, so no worker thread runs an
        # import, and only where it is used: importing the package does
        # not load scipy
        from scipy.special import erfc

    def reduce(s, gamma):
        # v = 0.5*erfc(sqrt(gamma*s)) or 0.5*log1p(gamma*s), in one buffer
        v = np.multiply(s, gamma)
        if metric == "bep":
            erfc(np.sqrt(v, out=v), out=v)
        else:
            np.log1p(v, out=v)
        v *= 0.5
        total = float(v.sum())
        return total, float(np.square(v, out=v).sum())

    return reduce, lambda partials: _mean_estimate(partials, n)


def _nest(flat: list, axes):
    # flat results in row-major order over axes, given as (length, is a
    # sequence) pairs; an axis the caller gave as a scalar is not nested
    for n, many in reversed(axes):
        flat = [flat[i : i + n] if many else flat[i] for i in range(0, len(flat), n)]
    return flat[0]


def simulate(
    params: ChannelParams | Sequence[ChannelParams],
    cfg: SimConfig,
    metric: str | Sequence[str],
    x: float | None = None,
    threshold: float | None = None,
    workers: int = 1,
    relays: int | Sequence[int] | None = None,
):
    """Monte Carlo estimate over the exact model.

    metric is one of 'cdf' (P[D + sum S_r <= x], needs x), 'pdf'
    (Histogram of the combined power, 80 bins on [0, 8]; histogram_at_edges
    takes any other edges), 'outage' (needs threshold, linear
    SNR), 'bep' (mean conditional BPSK error rate) or 'capacity' (mean
    half-duplex rate, nats).  Returns a Histogram for 'pdf' and a
    SimEstimate otherwise.  relays is the number of relayed paths summed,
    1 <= relays <= cfg.relays; None means cfg.relays.

    One call is one pass over the streams, and three arguments may be
    sequences to ask for several results from it:

    - params: ChannelParams that share the three fading rates and differ
      only in gamma, e.g. an SNR grid (gamma never enters the draws);
    - metric: a tuple of metric names, all reduced from the same draws;
    - relays: a tuple of relay counts, each at most cfg.relays; the total
      over r relays is a prefix of the total over more, so the links are
      drawn once, up to the largest count, and each count reads its prefix.

    Each sequence argument adds one level of nested lists, in the order
    relays, metric, params, and each result is bit-identical to the call
    that asks for it alone.  For example, with cfg.relays = 2,
    ``simulate(grid, cfg, ("bep", "capacity"), relays=(1, 2))[1][0][i]``
    is ``simulate(grid[i], cfg, "bep")``.
    """
    many_params = not isinstance(params, ChannelParams)
    grid = list(params) if many_params else [params]
    if not grid:
        raise ValueError("params sequence is empty")
    if len({(p.lambda_sd, p.lambda_sr, p.lambda_rd) for p in grid}) > 1:
        raise ValueError("params in one simulate call may differ only in gamma")
    many_metrics = not isinstance(metric, str)
    metrics = tuple(metric) if many_metrics else (metric,)
    if not metrics:
        raise ValueError("metric sequence is empty")
    for m in metrics:
        if m not in _METRICS:
            raise ValueError(f"metric must be one of {_METRICS}, got {m!r}")
    if "cdf" in metrics and x is None:
        raise ValueError("metric 'cdf' needs x")
    if "outage" in metrics and (threshold is None or threshold <= 0.0):
        raise ValueError("metric 'outage' needs a positive threshold")
    if relays is None:
        relays = cfg.relays
    many_relays = not isinstance(relays, numbers.Number)
    counts = tuple(relays) if many_relays else (relays,)
    if not counts:
        raise ValueError("relays sequence is empty")
    for r in counts:
        _require_count("relays", r, 1, cfg.relays)

    reducers = [_reducer(m, cfg, x, threshold) for m in metrics]
    jobs = [(r, p.gamma, red) for r in counts for red in reducers for p in grid]
    partials = _run(grid[0], cfg, [(r, g, reduce) for r, g, (reduce, _) in jobs], workers)
    flat = [merge(parts) for (_, _, (_, merge)), parts in zip(jobs, partials)]
    return _nest(
        flat,
        ((len(counts), many_relays), (len(metrics), many_metrics), (len(grid), many_params)),
    )


def histogram_at_edges(
    params: ChannelParams,
    cfg: SimConfig,
    edges,
    workers: int = 1,
    minbound: bool = False,
) -> Histogram:
    """Histogram of the combined power on an explicit (possibly non-uniform)
    ascending edge array, e.g. bins centered on a caller's x grid.

    With minbound it is the histogram of the min-of-hops bound
    D + min(X_1, Y_1) of the first relay instead, drawn from the model's
    own streams, so bound and model are compared on common randomness.
    """
    edges = np.asarray(edges, dtype=float)
    if edges.ndim != 1 or len(edges) < 3 or np.any(np.diff(edges) <= 0):
        raise ValueError("edges must be a 1-D ascending array with >= 2 bins")
    if edges[0] < 0:
        raise ValueError("edges must be nonnegative (powers are nonnegative)")

    def reduce(s, gamma):
        return _bin(s, edges)

    request = (1, None, reduce) if minbound else (cfg.relays, params.gamma, reduce)
    [partials] = _run(params, cfg, [request], workers)
    return _merge_bins(partials, edges, cfg.samples)
