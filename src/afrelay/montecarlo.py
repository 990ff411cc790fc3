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

One pass per call: `simulate` runs one block kernel, which draws each
link once per block and reduces the block at every requested (relay
count, gamma, model or min-of-hops bound, metric).  Three facts make that
exact:

- gamma never enters the draws: it appears only in the relayed-path power
  x*y/(x + y + 1/gamma), whose gamma-free parts x*y and x + y are
  computed once per sample, and in the metric reductions;
- the bound's relayed power min(x, y) is formed from the same hop draws
  as the model's x*y and x + y;
- the combined power is built in relay order, D, then D + S_1, then
  D + S_1 + S_2, ..., so the total for r relays is a prefix of the total
  for more relays, on the same streams.

So a `simulate` call is one pass however many requests it holds, and each
of its results is bit-identical to the call that asks for that one result
alone.

Chunks: a block runs in chunks of at most _CHUNK samples, so every
per-sample array is chunk-sized and stays in cache; no array is as long
as a block.  Each link's stream is opened once per block and read on
from chunk to chunk, so the chunks see the draws of the whole block.
Every per-sample operation is elementwise, so chunking changes no
sample's value.  Of the reductions, counts and histograms add exactly; a
histogram takes one sort per chunk and reads its bins from the sorted copy.
Sums of doubles do not: numpy sums an array pairwise, splitting it at
half its length rounded down to a multiple of 8.  The chunks are the
parts of that same split, and their sums are joined up the same tree, so
each block's sum has the bits of one np.sum over the whole block (Higham,
"The accuracy of floating point summation", SIAM J. Sci. Comput. 14(4),
1993, describes pairwise summation).
"""

from __future__ import annotations

import functools
import math
import numbers
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from .bessel_series import _require_count
from .channel import ChannelParams

__all__ = [
    "BLOCK",
    "SimConfig",
    "SimEstimate",
    "Histogram",
    "relay_power",
    "simulate",
]

BLOCK = 1_000_000  # samples per block; multiple of 4 (Philox counter step)

# samples per chunk at most: a block runs in chunks whose per-sample
# arrays stay in cache
_CHUNK = 2**15

_METRICS = ("cdf", "pdf", "outage", "bep", "capacity")

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
        _require_count("seed", self.seed, 0, 2**64 - 1)
        _require_count("samples", self.samples, 1)
        _require_count("relays", self.relays, 1)


@dataclass(frozen=True)
class SimEstimate:
    """Point estimate, its standard error (nan from one sample) and sample count."""

    value: float
    std_error: float
    samples_used: int


@dataclass(frozen=True, eq=False)
class Histogram:
    """Counted histogram with out-of-range mass tracked, not dropped silently.

    below and above count the samples left of the first edge and right of
    the last; the last bin is closed.
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
    def sample_density(self) -> np.ndarray:
        """Density normalized by all samples drawn, out-of-range mass included.

        An unbiased estimate of the underlying pdf over the binned range, at
        the price of integrating to < 1 when mass fell outside.
        """
        return self.counts / (self.samples_used * np.diff(self.edges))

    def cdf_at_edges(self) -> np.ndarray:
        """Empirical CDF at every bin edge (exact counts, no binning loss).

        With minbound_cdf, the reference pair of TestMinbound.
        """
        cum = np.concatenate([[0], np.cumsum(self.counts)])
        return (self.below + cum) / self.samples_used


def _stream(seed: int, link: int, start: int) -> np.random.Generator:
    # the link's stream from draw start on; start must sit on a Philox
    # counter boundary (4 x 64-bit words per counter step, one word per
    # double).  Draws continue where the last one stopped, so buffers
    # filled one after another hold the values of one long draw.
    bg = np.random.Philox(key=np.array([seed, link], dtype=np.uint64))
    bg.advance(start // 4)
    return np.random.Generator(bg)


def _exponentials(stream: np.random.Generator, u: np.ndarray, rates, outs) -> None:
    # fills u with the stream's next uniforms and outs[j] with the draws
    # j, j + k, j + 2k, ... of them (k = len(rates)) as exponentials of
    # rate rates[j]: t = log1p(-u) in u's own storage, then t / (-rate),
    # which has the bits of -log1p(-u)/rate (division is sign-symmetric
    # under round-to-nearest); with one rate, outs may be (u,)
    stream.random(out=u)
    np.negative(u, out=u)
    np.log1p(u, out=u)
    k = len(rates)
    for j, (rate, out) in enumerate(zip(rates, outs)):
        np.divide(u[j::k], -rate, out=out)


def relay_power(x, y, inv_gamma: float):
    """Equivalent power of one relayed path given the two hop powers.

    Exact product form x*y/(x + y + 1/gamma), no high-SNR shortcut.
    Zero on either hop gives zero (the path is down).  It is _relay_term
    of x*y and x + y, the formula the kernel runs; a float64 for scalars.
    """
    xpy = np.add(x, y)  # an array result reuses the sum's buffer: two temporaries, not four
    return _relay_term(x * y, xpy, inv_gamma, xpy if xpy.ndim else None)


def _relay_term(xy, xpy, inv_gamma: float, out: np.ndarray | None = None):
    # xy / (xpy + inv_gamma), in out when given: the one relayed-power formula,
    # which the kernel runs on each sample's gamma-free parts x*y and x + y
    return np.divide(xy, np.add(xpy, inv_gamma, out=out), out=out)


def _pairwise(lo: int, hi: int, leaf, join):
    """leaf over the sample range [lo, hi), one chunk at a time.

    The range splits where numpy's pairwise summation splits an array of
    hi - lo doubles, at half its length rounded down to a multiple of 8,
    until no part is longer than _CHUNK; leaf(lo, hi) reduces one part
    and join joins the results of two adjacent parts.  So the np.sum of
    each chunk, joined by +, has the bits of np.sum over the whole range.
    Chunks are visited in ascending order.
    """
    n = hi - lo
    if n <= _CHUNK:
        return leaf(lo, hi)
    h = n // 2 - n // 2 % 8
    return join(_pairwise(lo, lo + h, leaf, join), _pairwise(lo + h, hi, leaf, join))


def _join(a: list, b: list) -> list:
    # per request, the partials of two adjacent sample ranges added: every
    # partial is a tuple of sums or of counts
    return [tuple(x + y for x, y in zip(p, q)) for p, q in zip(a, b)]


def _blocks(samples: int):
    full, rem = divmod(samples, BLOCK)
    sizes = [BLOCK] * full + ([rem] if rem else [])
    return list(enumerate(sizes))


def _map_blocks(fn, blocks, workers: int):
    _require_count("workers", workers, 1)
    if workers == 1:
        return [fn(b, m) for b, m in blocks]
    # imported here: importing the package loads no concurrent.futures,
    # nor the logging it brings
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(lambda bm: fn(*bm), blocks))


def _run(params: ChannelParams, cfg: SimConfig, requests, workers) -> list[tuple]:
    """The block kernel: one pass over the streams for every request.

    requests holds (r, gamma, bound, reduce) with 1 <= r <= cfg.relays.
    Per chunk, links 0..max r are drawn once, and each relay's hop pair
    gives x*y and x + y if a model request needs them and min(x, y) if a
    bound request does.  For each distinct (gamma, bound) the running total
    D + S_1 + ... + S_r is built in relay order, S_r the model's relay term
    at gamma or, for the bound, min(X_r, Y_r), and every request with that
    key is reduced, reduce(total, gamma), when the total reaches its relay
    count.  Returns each request's partial over all samples: the chunks'
    partials joined in _pairwise's tree within a block, then the blocks'
    in block order.
    """
    plan: dict = {}  # (gamma, bound) -> {relay count -> [(request index, reduce)]}
    for i, (r, gamma, is_bound, reduce) in enumerate(requests):
        plan.setdefault((gamma, is_bound), {}).setdefault(r, []).append((i, reduce))
    depth = max(r for r, *_ in requests)
    model = not all(b for _, b in plan)  # some request needs x*y and x + y
    bound = any(b for _, b in plan)  # some request needs min(x, y)
    hop_rates = (params.lambda_sr, params.lambda_rd)

    def block(b, m):
        streams = [_stream(cfg.seed, 0, b * BLOCK)]
        streams += [_stream(cfg.seed, r, 2 * b * BLOCK) for r in range(1, depth + 1)]
        k = min(m, _CHUNK)
        direct, total, term, x, y = (np.empty(k) for _ in range(5))
        # per relay, its hop pair's uniforms, then x*y, x + y and min(x, y)
        hops = [np.empty(3 * k) for _ in range(depth)]

        def chunk(lo, hi):
            n = hi - lo
            d, s, t, xn, yn = direct[:n], total[:n], term[:n], x[:n], y[:n]
            _exponentials(streams[0], d, (params.lambda_sd,), (d,))
            for stream, h in zip(streams[1:], hops):
                _exponentials(stream, h[: 2 * n], hop_rates, (xn, yn))
                if model:
                    np.multiply(xn, yn, out=h[:n])
                    np.add(xn, yn, out=h[n : 2 * n])
                if bound:
                    np.minimum(xn, yn, out=h[2 * n : 3 * n])
            out = [None] * len(requests)
            for (gamma, is_bound), at in plan.items():
                for r in range(1, max(at) + 1):
                    h = hops[r - 1]
                    if is_bound:
                        s_r = h[2 * n : 3 * n]
                    else:
                        s_r = _relay_term(h[:n], h[n : 2 * n], 1.0 / gamma, t)
                    np.add(d if r == 1 else s, s_r, out=s)
                    for i, reduce in at.get(r, ()):
                        out[i] = reduce(s, gamma)
            return out

        return _pairwise(0, m, chunk, _join)

    return functools.reduce(_join, _map_blocks(block, _blocks(cfg.samples), workers))


def _mean_estimate(total: float, total_sq: float, n: int) -> SimEstimate:
    mean = total / n
    # one sample has no spread to estimate: its standard error is undefined
    var = max(total_sq - n * mean * mean, 0.0) / (n - 1) if n > 1 else math.nan
    return SimEstimate(value=mean, std_error=math.sqrt(var / n), samples_used=n)


def _count_estimate(hits: int, n: int) -> SimEstimate:
    p = hits / n
    se = math.sqrt(p * (1.0 - p) / n) if n > 1 else math.nan  # as in _mean_estimate
    return SimEstimate(value=p, std_error=se, samples_used=n)


def _bin(powers: np.ndarray, edges: np.ndarray):
    # (counts, below, above) from one sorted copy: np.histogram's own
    # algorithm for explicit edges, the last bin closed.  nan sorts past
    # inf, so it is counted in no bin and neither below nor above.
    ranked = np.sort(powers)
    cuts = ranked.searchsorted(edges)
    cuts[-1], end = ranked.searchsorted((edges[-1], np.inf), "right")
    return np.diff(cuts), int(cuts[0]), int(end - cuts[-1])


def _edges(edges) -> np.ndarray:
    # the 'pdf' metric's bin edges as a float array, refused unless
    # finite, ascending with two bins or more, and nonnegative
    edges = np.asarray(edges, dtype=float)
    if not np.all(np.isfinite(edges)):
        raise ValueError("edges must be finite")
    if edges.ndim != 1 or len(edges) < 3 or np.any(np.diff(edges) <= 0):
        raise ValueError("edges must be a 1-D ascending array with >= 2 bins")
    if edges[0] < 0:
        raise ValueError("edges must be nonnegative (powers are nonnegative)")
    return edges


def _reducer(metric: str, cfg: SimConfig, x, threshold, edges):
    """(reduce, finish) of one metric: reduce(total, gamma) takes one
    chunk's combined power to a partial, a tuple of sums or counts, and
    finish takes the partial over all samples to the result."""
    n = cfg.samples
    if metric in ("cdf", "outage"):

        def reduce(s, gamma):
            return (int(np.count_nonzero(s <= (x if metric == "cdf" else threshold / gamma))),)

        return reduce, lambda hits: _count_estimate(hits, n)
    if metric == "pdf":
        return (
            lambda s, gamma: _bin(s, edges),
            lambda counts, below, above: Histogram(edges, counts, below, above, n),
        )
    if metric == "bep":
        # imported in the calling thread, so no worker thread runs an
        # import, and only where it is used: importing the package does
        # not load scipy
        from scipy.special import erfc

    def reduce(s, gamma):
        # v = erfc(sqrt(gamma*s)) or log1p(gamma*s), in one buffer; halved at finish
        v = np.multiply(s, gamma)
        if metric == "bep":
            erfc(np.sqrt(v, out=v), out=v)
        else:
            np.log1p(v, out=v)
        total = float(v.sum())
        return total, float(np.square(v, out=v).sum())

    # halving commutes with each rounding of a sum of normal doubles: the sums of 0.5*v
    return reduce, lambda total, total_sq: _mean_estimate(0.5 * total, 0.25 * total_sq, n)


def _axis(name: str, value, one_type, what: str) -> tuple[tuple, bool]:
    # (values, many): a one_type value is one value shared by every request; else a sequence of them
    many = not isinstance(value, one_type)
    values = tuple(value) if many and isinstance(value, Iterable) else (value,)
    if not values:
        raise ValueError(f"{name} sequence is empty")
    if not all(isinstance(v, one_type) for v in values):
        raise ValueError(f"{name} must be {what}, or a sequence of them, got {value!r}")
    return values, many


def simulate(
    params: ChannelParams | Sequence[ChannelParams],
    cfg: SimConfig,
    metric: str | Sequence[str],
    x: float | None = None,
    threshold: float | None = None,
    workers: int = 1,
    relays: int | Sequence[int] | None = None,
    edges=None,
    minbound: bool | Sequence[bool] = False,
):
    """Monte Carlo estimate over the exact model or the min-of-hops bound.

    metric is one of 'cdf' (P[D + sum S_r <= x], needs x), 'pdf'
    (Histogram of the combined power on edges, an ascending array of
    finite nonnegative values, e.g. bins centered on a caller's x grid;
    None means 80 bins on [0, 8]), 'outage' (needs threshold, linear SNR),
    'bep' (mean conditional BPSK error rate) or 'capacity' (mean
    half-duplex rate, nats).  Returns a Histogram for 'pdf' and a
    SimEstimate otherwise.  relays is the number of relayed paths summed,
    1 <= relays <= cfg.relays; None means cfg.relays.  With minbound each
    relayed path is the min-of-hops bound min(X_r, Y_r) instead of the
    model's x*y/(x + y + 1/gamma), drawn from the model's own streams, so
    bound and model are compared on common randomness.

    One call is one pass over the streams, and it may ask for several
    results: params, metric, relays and minbound are each one value shared
    by every request or a sequence, all sequences of one length n (else a
    ValueError).  Request i is (relays[i], params[i].gamma, minbound[i],
    metric[i]), and the call returns the list of its n results in request
    order; with no sequence it returns the one result.  The params share
    the three fading rates and may differ in gamma, which never enters the
    draws; the total over r relays is a prefix of the total over more, so
    the links are drawn once, up to the largest count.  Each result is
    bit-identical to the call that asks for it alone.  For example,
    ``simulate(p, cfg, "pdf", minbound=(False, True))`` is the model's
    histogram and the bound's, and its second entry is
    ``simulate(p, cfg, "pdf", minbound=True)``.
    """
    axes = {
        "params": _axis("params", params, ChannelParams, "a ChannelParams"),
        "metric": _axis("metric", metric, str, "a metric name"),
        "relays": _axis("relays", cfg.relays if relays is None else relays, numbers.Number, "an integer"),
        "minbound": _axis("minbound", minbound, bool, "True or False"),
    }
    lengths = {name: len(values) for name, (values, many) in axes.items() if many}
    if len(set(lengths.values())) > 1:
        got = ", ".join(f"{name} {k}" for name, k in lengths.items())
        raise ValueError(f"sequence arguments must have one length, got {got}")
    n = max(lengths.values(), default=1)
    grid, metrics, counts, bounds = (values if many else values * n for values, many in axes.values())
    if len({(p.lambda_sd, p.lambda_sr, p.lambda_rd) for p in grid}) > 1:
        raise ValueError("params in one simulate call may differ only in gamma")
    for m in metrics:
        if m not in _METRICS:
            raise ValueError(f"metric must be one of {_METRICS}, got {m!r}")
    # nan compares False, so it is refused by name rather than counted
    if "cdf" in metrics and (x is None or math.isnan(x)):
        raise ValueError(f"metric 'cdf' needs x, got {x!r}")
    if "outage" in metrics and (threshold is None or not threshold > 0.0):
        raise ValueError(f"metric 'outage' needs a positive threshold, got {threshold!r}")
    for r in counts:
        _require_count("relays", r, 1, cfg.relays)
    edges = np.linspace(0.0, 8.0, 81) if edges is None else _edges(edges)

    reducers = {m: _reducer(m, cfg, x, threshold, edges) for m in metrics}
    requests = [(r, p.gamma, b, reducers[m][0]) for r, p, b, m in zip(counts, grid, bounds, metrics)]
    partials = _run(grid[0], cfg, requests, workers)
    results = [reducers[m][1](*part) for m, part in zip(metrics, partials)]
    return results if lengths else results[0]
