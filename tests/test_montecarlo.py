"""Simulation backend: counter-based streams, block decomposition,
estimators and histograms.

The load-bearing property is bitwise reproducibility: a run is a pure
function of (seed, samples, relays, metric arguments), no matter how many
workers execute it or whether the sample count fills the last block.
"""

import math
import operator
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from afrelay import montecarlo, validation
from afrelay.channel import ChannelParams, combined_cdf, combined_cdf_coeffs, minbound_cdf
from afrelay.bessel_series import series_coeffs
from afrelay.montecarlo import (
    _CHUNK,
    BLOCK,
    Histogram,
    SimConfig,
    SimEstimate,
    _bin,
    _exponentials,
    _pairwise,
    _relay_term,
    _stream,
    relay_power,
    simulate,
)

UNIT = ChannelParams(gamma=1000.0, lambda_sd=1.0, lambda_sr=1.0, lambda_rd=1.0)


def _draw(seed: int, link: int, n: int, rate: float) -> np.ndarray:
    # n exponentials of the given rate from the start of a link's stream
    u = np.empty(n)
    _exponentials(_stream(seed, link, 0), u, (rate,), (u,))
    return u


class TestSimConfig:
    def test_field_validation(self):
        with pytest.raises(ValueError, match="samples"):
            SimConfig(seed=1, samples=0)
        with pytest.raises(ValueError, match="relays"):
            SimConfig(seed=1, samples=10, relays=0)

    @pytest.mark.parametrize(
        "field, bad",
        [
            ("samples", 1500.5),
            ("relays", 1.5),
            ("samples", True),
            ("relays", True),
        ],
    )
    def test_counts_must_be_integers(self, field, bad):
        # refused up front, naming the field, rather than failing inside
        # the block split or mid-simulation (or, for True, running a
        # one-sample simulation)
        with pytest.raises(ValueError, match=field):
            SimConfig(**{"seed": 1, "samples": 10, field: bad})

    def test_numpy_integers_are_counts(self):
        cfg = SimConfig(seed=1, samples=np.int64(10), relays=np.int32(2))
        assert simulate(UNIT, cfg, "capacity").samples_used == 10

    def test_seed_range(self):
        # the seed is one 64-bit Philox key word: both ends of [0, 2**64)
        # are accepted, and values outside are refused rather than wrapped
        # onto another seed's stream; a bool is refused as for the counts
        SimConfig(seed=0, samples=1)
        SimConfig(seed=2**64 - 1, samples=1)
        SimConfig(seed=np.uint64(2**64 - 1), samples=1)
        for bad in (-1, 2**64, 1.5, True, False):
            with pytest.raises(ValueError, match="seed"):
                SimConfig(seed=bad, samples=1)


class TestStreams:
    def test_slices_are_consistent(self):
        # drawing [1000, 5000) directly equals slicing a longer run: the
        # stream is addressed by absolute draw index, not by call history
        full = _stream(123, 0, 0).random(5000)
        part = _stream(123, 0, 1000).random(4000)
        np.testing.assert_array_equal(full[1000:], part)

    def test_successive_fills_continue_the_stream(self):
        # the kernel fills one chunk buffer after another from one stream
        # per block; ragged fills read exactly the values of one long draw
        full = _stream(123, 2, 4000).random(5000)
        stream = _stream(123, 2, 4000)
        parts = []
        for n in (1, 6, 1000, 3, 3990):
            buf = np.empty(n)
            stream.random(out=buf)
            parts.append(buf)
        assert np.concatenate(parts).tobytes() == full.tobytes()

    def test_links_are_distinct(self):
        a = _stream(123, 0, 0).random(100)
        b = _stream(123, 1, 0).random(100)
        assert not np.any(a == b)

    def test_matches_manual_philox(self):
        bg = np.random.Philox(key=np.array([99, 2], dtype=np.uint64))
        expected = np.random.Generator(bg).random(64)
        np.testing.assert_array_equal(_stream(99, 2, 0).random(64), expected)

    def test_exponential_sampler_moments(self):
        rate = 1.7
        n = 100_000
        s = _draw(7, 0, n, rate)
        mean, var = float(s.mean()), float(s.var(ddof=1))
        # exact variance of the sample mean and (via mu_4 = 9/rate**4) of
        # the sample variance; both measured well inside one sigma
        assert abs(mean - 1 / rate) < 5 / (rate * math.sqrt(n))
        assert abs(var - 1 / rate**2) < 5 * math.sqrt(8.0) / (rate**2 * math.sqrt(n))

    def test_exponential_in_place_is_bit_identical(self):
        # the in-place transform, log1p(-u) divided by the negated rate,
        # has the bits of -log1p(-u)/rate: in the uniforms' own buffer
        # (direct path), and deinterleaved into one array per hop at that
        # hop's rate (relay pair)
        u = _stream(7, 1, 0).random(2000)
        assert _draw(7, 1, 2000, 1.7).tobytes() == (-np.log1p(-u) / 1.7).tobytes()
        x, y = np.empty(1000), np.empty(1000)
        _exponentials(_stream(7, 1, 0), np.empty(2000), (1.3, 2.0), (x, y))
        assert x.tobytes() == (-np.log1p(-u[0::2]) / 1.3).tobytes()
        assert y.tobytes() == (-np.log1p(-u[1::2]) / 2.0).tobytes()

    def test_exponential_sampler_distribution(self):
        s = _draw(7, 0, 100_000, 1.7)
        p = stats.kstest(s, stats.expon(scale=1 / 1.7).cdf).pvalue
        assert p > 1e-3  # frozen run gives p = 0.465


class TestRelayPower:
    def test_dead_hop_kills_the_path(self):
        assert relay_power(0.0, 3.0, 0.01) == 0.0
        assert relay_power(3.0, 0.0, 0.01) == 0.0

    def test_below_min_of_hops(self):
        rng = np.random.default_rng(5)
        x, y = rng.exponential(size=(2, 1000))
        s = relay_power(x, y, 1e-3)
        assert np.all(s <= np.minimum(x, y))

    def test_high_snr_limit(self):
        assert relay_power(2.0, 3.0, 0.0) == pytest.approx(1.2, rel=1e-15)

    @pytest.mark.parametrize("inv_gamma", (0.0, 1e-3, 1.0, 7.3))
    def test_hoisted_term_is_bit_identical(self, inv_gamma):
        # the kernel computes x*y and x + y once per sample and the term per
        # gamma from them, in the buffer it reuses, with the bits of the
        # model's formula; seeded draws with dead hops mixed in (and, at
        # inv_gamma = 0, the 0/0 of two dead hops)
        x, y = np.empty(10_000), np.empty(10_000)
        _exponentials(_stream(3, 1, 0), np.empty(20_000), (0.7, 1.9), (x, y))
        x[::97] = 0.0
        y[::89] = 0.0
        with np.errstate(invalid="ignore"):
            got = _relay_term(x * y, x + y, inv_gamma, np.empty(len(x)))
            want = x * y / (x + y + inv_gamma)
            public = relay_power(x, y, inv_gamma)
        assert got.tobytes() == want.tobytes() == public.tobytes()


class TestSimulate:
    def test_argument_validation(self):
        cfg = SimConfig(seed=1, samples=100)
        with pytest.raises(ValueError, match="metric"):
            simulate(UNIT, cfg, "median")
        with pytest.raises(ValueError, match="needs x"):
            simulate(UNIT, cfg, "cdf")
        with pytest.raises(ValueError, match="positive threshold"):
            simulate(UNIT, cfg, "outage")
        with pytest.raises(ValueError, match="positive threshold"):
            simulate(UNIT, cfg, "outage", threshold=0.0)
        # 2.5 would size the thread pool from a float, True run as 1 worker
        for workers in (0, -3, 2.5, True):
            with pytest.raises(ValueError, match="workers"):
                simulate(UNIT, cfg, "capacity", workers=workers)
        with pytest.raises(ValueError, match="metric sequence is empty"):
            simulate(UNIT, cfg, ())
        with pytest.raises(ValueError, match="metric"):
            simulate(UNIT, cfg, ("bep", "median"))
        with pytest.raises(ValueError, match="needs x"):
            simulate(UNIT, cfg, ("bep", "cdf"))
        two = SimConfig(seed=1, samples=100, relays=2)
        for relays in (0, 3, 1.5, True, (1, 3)):
            with pytest.raises(ValueError, match="relays"):
                simulate(UNIT, two, "bep", relays=relays)
        with pytest.raises(ValueError, match="relays sequence is empty"):
            simulate(UNIT, two, "bep", relays=())
        with pytest.raises(ValueError, match="minbound sequence is empty"):
            simulate(UNIT, cfg, "pdf", minbound=())
        # a value neither of the axis' one type nor a sequence is refused by name
        for bad in ("yes", (False, 1), (None,), np.True_, None, 1):
            with pytest.raises(ValueError, match="minbound must be True or False"):
                simulate(UNIT, cfg, "pdf", minbound=bad)
        for name, bad in (("metric", 5), ("params", None), ("params", 3.0), ("params", [3.0])):
            args = {"params": UNIT, "cfg": cfg, "metric": "bep", name: bad}
            with pytest.raises(ValueError, match=f"{name} must be"):
                simulate(**args)

    def test_nan_x_and_threshold_are_refused(self):
        # nan compares False: counted, it would read 0.0 +- 0.0
        cfg = SimConfig(seed=1, samples=100)
        with pytest.raises(ValueError, match="needs x"):
            simulate(UNIT, cfg, "cdf", x=math.nan)
        with pytest.raises(ValueError, match="needs x"):
            simulate(UNIT, cfg, ("bep", "cdf"), x=math.nan)
        with pytest.raises(ValueError, match="positive threshold"):
            simulate(UNIT, cfg, "outage", threshold=math.nan)
        with pytest.raises(ValueError, match="positive threshold"):
            simulate([UNIT, UNIT], cfg, ("bep", "outage"), threshold=np.float64("nan"))

    def test_infinite_threshold_is_certain(self):
        est = simulate(UNIT, SimConfig(seed=1, samples=1000), "outage", threshold=math.inf)
        assert est.value == 1.0
        assert est.std_error == 0.0

    def test_one_sample_mean_has_no_standard_error(self):
        # one sample has no spread to estimate: nan, not an exact 0, for a
        # mean and for a count
        for metric in ("bep", "capacity", "outage", "cdf"):
            est = simulate(UNIT, SimConfig(seed=42, samples=1), metric, x=1.0, threshold=1.0)
            assert math.isfinite(est.value), metric
            assert math.isnan(est.std_error), metric

    def test_counting_metrics_are_exact_fractions(self):
        n = 12_345
        est = simulate(UNIT, SimConfig(seed=3, samples=n), "cdf", x=1.0)
        hits = est.value * n
        assert hits == round(hits)
        assert est.samples_used == n

    def test_worker_count_is_invisible(self):
        # 2.5 blocks: exercises the ragged tail and out-of-order completion
        cfg = SimConfig(seed=42, samples=2 * BLOCK + BLOCK // 2)
        runs = [simulate(UNIT, cfg, "cdf", x=1.0, workers=w) for w in (1, 2, 4)]
        assert runs[0] == runs[1] == runs[2]

    def test_mean_metrics_reduce_in_block_order(self):
        cfg = SimConfig(seed=42, samples=2 * BLOCK + BLOCK // 2)
        runs = [simulate(UNIT, cfg, "bep", workers=w) for w in (1, 4)]
        assert runs[0].value == runs[1].value
        assert runs[0].std_error == runs[1].std_error

    def test_repeat_runs_are_identical(self):
        cfg = SimConfig(seed=9, samples=300_000)
        a = simulate(UNIT, cfg, "capacity")
        b = simulate(UNIT, cfg, "capacity")
        assert a == b

    def test_second_relay_adds_power(self):
        # an extra relayed path can only shift mass upward; at x = 1 the
        # one-relay CDF sits hundreds of standard errors above
        n = 10**6
        one = simulate(UNIT, SimConfig(seed=42, samples=n), "cdf", x=1.0)
        two = simulate(UNIT, SimConfig(seed=42, samples=n, relays=2), "cdf", x=1.0)
        assert two.value < one.value - 3 * one.std_error


# unsorted SNRs and non-unit rates, so input order and rate handling show
GRID = [
    ChannelParams(gamma=g, lambda_sd=0.7, lambda_sr=1.3, lambda_rd=2.0)
    for g in (1000.0, 1.0, 10.0)
]
GRID_KW = {"cdf": {"x": 1.0}, "outage": {"threshold": 1.0}, "bep": {}, "capacity": {}, "pdf": {}}


def _same(a, b) -> bool:
    if isinstance(a, Histogram):
        return (
            np.array_equal(a.edges, b.edges) and np.array_equal(a.counts, b.counts)
            and (a.below, a.above, a.samples_used) == (b.below, b.above, b.samples_used)
        )
    return a == b


class TestGrid:
    """simulate with a request per gamma, the metric shared by all: one
    pass, each result bit-identical to the call with that gamma alone."""

    @pytest.mark.parametrize("relays", (1, 2))
    @pytest.mark.parametrize("metric", sorted(GRID_KW))
    def test_matches_one_gamma_calls(self, metric, relays):
        # BLOCK + 1000 samples: one full block and a partial last block
        cfg = SimConfig(seed=5, samples=BLOCK + 1000, relays=relays)
        kw = GRID_KW[metric]
        alone = [simulate(p, cfg, metric, **kw) for p in GRID]
        for workers in (1, 2, 4):
            grid = simulate(GRID, cfg, metric, workers=workers, **kw)
            assert isinstance(grid, list) and len(grid) == len(GRID)
            for g, a in zip(grid, alone):
                assert _same(g, a), (workers, g, a)

    def test_one_element_sequence(self):
        cfg = SimConfig(seed=5, samples=1000)
        assert simulate(GRID[:1], cfg, "capacity") == [simulate(GRID[0], cfg, "capacity")]

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            simulate([], SimConfig(seed=5, samples=1000), "capacity")

    def test_mixed_fading_rates_rejected(self):
        other = ChannelParams(gamma=10.0, lambda_sd=0.7, lambda_sr=1.3, lambda_rd=2.5)
        with pytest.raises(ValueError, match="gamma"):
            simulate([GRID[0], other], SimConfig(seed=5, samples=1000), "capacity")


# unsorted and duplicate SNRs at non-unit rates
ONE_PASS_GRID = GRID + [GRID[1]]
METRICS = tuple(sorted(GRID_KW))
ONE_PASS_CFG = {r: SimConfig(seed=5, samples=BLOCK + 1000, relays=r) for r in (1, 2)}


@pytest.fixture(scope="module")
def alone():
    """Each (relay count, metric) over ONE_PASS_GRID, one call per result,
    simulated with cfg.relays equal to that relay count."""
    return {
        (r, m): [simulate(p, ONE_PASS_CFG[r], m, **GRID_KW[m]) for p in ONE_PASS_GRID]
        for r in (1, 2)
        for m in METRICS
    }


def _all_same(got, want) -> bool:
    return len(got) == len(want) and all(_same(g, w) for g, w in zip(got, want))


def _requests(cells):
    # simulate's three sequence arguments for (relay count, metric, grid
    # index) cells: a request per cell
    counts, metrics, at = zip(*cells)
    return [ONE_PASS_GRID[i] for i in at], metrics, counts


class TestOnePass:
    """Requests of several relay counts and metrics in one simulate call
    come from one pass, each result bit-identical to its own call."""

    @pytest.mark.parametrize("workers", (1, 2, 4))
    def test_relay_prefix_matches_separate_calls(self, alone, workers):
        n = len(ONE_PASS_GRID)
        for m in METRICS:
            both = simulate(
                ONE_PASS_GRID * 2, ONE_PASS_CFG[2], m, workers=workers, relays=[1] * n + [2] * n,
                **GRID_KW[m],
            )
            one, two = both[:n], both[n:]
            assert _all_same(one, alone[(1, m)]), (m, workers)
            assert _all_same(two, alone[(2, m)]), (m, workers)
            if m == "capacity":  # a second relay never lowers a sample's capacity
                assert all(t.value >= o.value for o, t in zip(one, two)), workers
            # a shared relay count below cfg.relays reads the same prefix
            below = simulate(ONE_PASS_GRID, ONE_PASS_CFG[2], m, workers=workers, relays=1, **GRID_KW[m])
            assert _all_same(below, alone[(1, m)]), (m, workers)

    @pytest.mark.parametrize("workers", (1, 2, 4))
    def test_metric_requests_match_one_metric_calls(self, alone, workers):
        n = len(ONE_PASS_GRID)
        for r in (1, 2):
            fused = simulate(
                ONE_PASS_GRID * len(METRICS), ONE_PASS_CFG[r], [m for m in METRICS for _ in range(n)],
                x=1.0, threshold=1.0, workers=workers,
            )
            assert len(fused) == n * len(METRICS)
            for j, m in enumerate(METRICS):
                assert _all_same(fused[j * n : (j + 1) * n], alone[(r, m)]), (r, m, workers)

    def test_relays_and_metrics_in_one_call(self, alone):
        cells = [(r, m, i) for r in (2, 1) for m in METRICS for i in range(len(ONE_PASS_GRID))]
        grid, metrics, counts = _requests(cells)
        fused = simulate(grid, ONE_PASS_CFG[2], metrics, x=1.0, threshold=1.0, workers=2,
                         relays=counts)
        assert len(fused) == len(cells)
        for (r, m, i), got in zip(cells, fused):
            assert _same(got, alone[(r, m)][i]), (r, m, i)


class TestRequests:
    """simulate's request form: params, metric and relays position by
    position, a shared value serving every request."""

    def test_length_mismatch_is_refused(self):
        cfg = SimConfig(seed=5, samples=1000, relays=2)
        with pytest.raises(ValueError, match="one length, got params 2, metric 3"):
            simulate([UNIT, UNIT], cfg, ("bep", "capacity", "bep"))
        with pytest.raises(ValueError, match="one length, got metric 2, relays 1"):
            simulate(UNIT, cfg, ("bep", "capacity"), relays=(2,))
        with pytest.raises(ValueError, match="one length, got metric 2, minbound 3"):
            simulate(UNIT, cfg, ("bep", "pdf"), minbound=(False, True, True))

    def test_a_single_value_serves_every_request(self):
        cfg = SimConfig(seed=5, samples=1000, relays=2)
        est = simulate(UNIT, cfg, "capacity", relays=1)
        assert isinstance(est, SimEstimate)
        assert simulate(UNIT, cfg, "capacity", relays=(1, 2)) == [est, simulate(UNIT, cfg, "capacity")]
        assert simulate([UNIT, UNIT], cfg, "capacity", relays=1) == [est, est]
        assert simulate(UNIT, cfg, ("capacity", "bep"), relays=1) == [
            est, simulate(UNIT, cfg, "bep", relays=1)
        ]
        # a sequence of one is a list of one, whichever argument it is
        for kw in ({"params": [UNIT]}, {"metric": ["capacity"]}, {"relays": [1]}):
            args = {"params": UNIT, "metric": "capacity", "relays": 1, **kw}
            assert simulate(cfg=cfg, **args) == [est], kw

    @pytest.mark.parametrize("workers", (1, 2, 4))
    def test_results_come_in_request_order(self, alone, workers):
        # interleaved relay counts, metrics and SNRs, one cell asked twice
        cells = [(2, "bep", 3), (1, "pdf", 0), (2, "cdf", 1), (1, "capacity", 2),
                 (2, "outage", 0), (1, "bep", 1), (2, "pdf", 2), (1, "cdf", 3),
                 (2, "capacity", 0), (1, "outage", 3), (2, "bep", 3)]
        grid, metrics, counts = _requests(cells)
        got = simulate(grid, ONE_PASS_CFG[2], metrics, x=1.0, threshold=1.0, workers=workers,
                       relays=counts)
        assert len(got) == len(cells)
        for (r, m, i), result in zip(cells, got):
            assert _same(result, alone[(r, m)][i]), (r, m, i, workers)

    def test_capacity_check_asks_for_the_cells_it_reports(self, monkeypatch):
        # five one-relay and three two-relay capacities, in one pass
        calls = []

        def run(params, cfg, requests, workers):
            calls.append([(r, gamma, bound) for r, gamma, bound, _ in requests])
            return kernel(params, cfg, requests, workers)

        kernel = montecarlo._run
        monkeypatch.setattr(montecarlo, "_run", run)
        validation.check_capacity_vs_mc(42, 1000, 1)
        gammas = [10 ** (db / 10) for db in (0.0, 5.0, 10.0, 15.0, 20.0)]
        assert calls == [[(1, g, False) for g in gammas] + [(2, g, False) for g in gammas[::2]]]

    @pytest.mark.parametrize("workers", (1, 2, 4))
    def test_bound_requests_beside_model_requests(self, workers):
        # the bound is one more request axis: model and bound, every metric
        # and both relay counts in one pass, each result bit-identical to
        # its own call; the edges serve every 'pdf' request
        cfg = ONE_PASS_CFG[2]
        edges = np.linspace(0.0, 5.0, 41)
        cells = [(r, m, b, i) for b in (True, False) for r in (2, 1) for m in METRICS
                 for i in (0, 1)]
        counts, metrics, bounds, at = zip(*cells)
        got = simulate([GRID[i] for i in at], cfg, metrics, x=1.0, threshold=1.0,
                       workers=workers, relays=counts, edges=edges, minbound=bounds)
        assert len(got) == len(cells)
        for (r, m, b, i), result in zip(cells, got):
            own = simulate(GRID[i], cfg, m, x=1.0, threshold=1.0, relays=r, edges=edges, minbound=b)
            assert _same(result, own), (r, m, b, i, workers)


@pytest.fixture(scope="module")
def hist():
    return simulate(UNIT, SimConfig(seed=42, samples=10**6), "pdf", workers=2)


class TestHistogram:
    def test_counts_are_conserved(self, hist):
        assert hist.below + int(hist.counts.sum()) + hist.above == hist.samples_used

    def test_sample_density_accounts_for_tails(self, hist):
        total = float(np.sum(hist.sample_density * np.diff(hist.edges)))
        assert total == pytest.approx(hist.counts.sum() / hist.samples_used, rel=1e-12)
        assert total <= 1.0

    def test_cdf_at_edges_monotone_and_bounded(self, hist):
        c = hist.cdf_at_edges()
        assert len(c) == len(hist.edges)
        assert np.all(np.diff(c) >= 0)
        assert c[0] == hist.below / hist.samples_used
        assert c[-1] == pytest.approx(1.0 - hist.above / hist.samples_used, abs=0)

    def test_cdf_at_edges_matches_counting_estimate(self, hist):
        # same seed, same draws: the binned CDF and the direct counter can
        # disagree only on samples exactly equal to the probe edge
        est = simulate(UNIT, SimConfig(seed=42, samples=10**6), "cdf", x=2.0)
        i = int(np.searchsorted(hist.edges, 2.0))
        assert hist.edges[i] == 2.0
        assert abs(hist.cdf_at_edges()[i] - est.value) <= 2 / hist.samples_used

    @pytest.mark.parametrize("workers", (1, 2))
    def test_pdf_metric_defaults_to_80_bins_on_0_to_8(self, workers):
        cfg = SimConfig(seed=42, samples=BLOCK + 1000)
        edges = np.linspace(0, 8, 81)
        pdf = simulate(UNIT, cfg, "pdf", workers=workers)
        at = simulate(UNIT, cfg, "pdf", workers=workers, edges=edges)
        assert pdf.edges.tobytes() == edges.tobytes()
        assert np.array_equal(pdf.counts, at.counts)
        assert (pdf.below, pdf.above) == (at.below, at.above)
        assert pdf.above > 0


def _centred_edges(xs: np.ndarray) -> np.ndarray:
    # the bins `afrelay dist` centres on its x grid, the first edge
    # clamped at zero, so the first bin is half as wide as the rest
    inner = 0.5 * (xs[:-1] + xs[1:])
    first = max(xs[0] - (inner[0] - xs[0]), 0.0)
    return np.concatenate([[first], inner, [xs[-1] + (xs[-1] - inner[-1])]])


BIN_EDGES = {
    "uniform": np.linspace(0.0, 6.0, 61),
    "centred": _centred_edges(np.linspace(0.0, 6.0, 61)),
}


def _chunks(edges: np.ndarray):
    # seeded chunks holding every edge value, values below the first edge
    # and above the last, inf and nan (inf/inf at subnormal rates)
    special = np.concatenate([edges, [edges[0] - 0.25, edges[-1] + 0.25, np.inf, np.nan]])
    rng = np.random.default_rng(19)
    yield from (np.array([v]) for v in special)
    for n in (1, 12_345, _CHUNK):
        powers = rng.exponential(2.0, n)
        if n > 1:
            powers[rng.choice(n, 3 * len(special), replace=False)] = np.repeat(special, 3)
        yield powers


class TestBin:
    @pytest.mark.parametrize("name", BIN_EDGES)
    def test_matches_np_histogram(self, name):
        edges = BIN_EDGES[name]
        for powers in _chunks(edges):
            counts, below, above = _bin(powers, edges)
            want, _ = np.histogram(powers, bins=edges)
            assert counts.dtype == np.int64
            assert np.array_equal(counts, want), len(powers)
            assert below == np.count_nonzero(powers < edges[0]), len(powers)
            assert above == np.count_nonzero(powers > edges[-1]), len(powers)


class TestEdges:
    def test_edge_validation(self):
        cfg = SimConfig(seed=1, samples=100)
        with pytest.raises(ValueError, match="ascending"):
            simulate(UNIT, cfg, "pdf", edges=[0.0, 1.0])  # single bin
        with pytest.raises(ValueError, match="ascending"):
            simulate(UNIT, cfg, "pdf", edges=[0.0, 2.0, 1.0])
        with pytest.raises(ValueError, match="nonnegative"):
            simulate(UNIT, cfg, "pdf", edges=[-1.0, 0.0, 1.0])

    @pytest.mark.parametrize(
        "edges",
        ([0.0, 1.0, math.nan, 3.0], [math.nan, 1.0, 2.0], [0.0, 1.0, 2.0, math.inf], [0.0, math.inf, 1.0]),
    )
    @pytest.mark.parametrize("minbound", (False, True))
    def test_non_finite_edges_are_refused(self, edges, minbound):
        # a nan edge passes the ascending check (nan compares False) and
        # would bin into negative counts
        with pytest.raises(ValueError, match="finite"):
            simulate(UNIT, SimConfig(seed=1, samples=1000), "pdf", edges=edges, minbound=minbound)

    def test_nonuniform_edges_agree_with_closed_form(self):
        cfg = SimConfig(seed=42, samples=10**6)
        edges = np.array([0.0, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0])
        h = simulate(UNIT, cfg, "pdf", edges=edges, workers=2)
        co = combined_cdf_coeffs(UNIT, series_coeffs(1.0, 10))
        emp = h.cdf_at_edges()
        for i, e in enumerate(edges):
            assert abs(emp[i] - combined_cdf(UNIT, co, float(e))) < 5e-3, e


class TestMinbound:
    def test_histogram_matches_closed_cdf(self):
        cfg = SimConfig(seed=42, samples=10**6)
        h = simulate(UNIT, cfg, "pdf", edges=np.linspace(0.0, 10.0, 81), workers=2, minbound=True)
        emp = h.cdf_at_edges()
        worst = max(
            abs(emp[i] - minbound_cdf(UNIT, float(e)))
            for i, e in enumerate(h.edges)
        )
        assert worst < 3e-3

    def test_dominates_model_on_common_randomness(self):
        # min(X, Y) >= XY/(X + Y + 1/gamma) sample by sample, and both
        # histograms come from one pass over the same streams, so the
        # bound's CDF sits below the model's at every edge surely, not just
        # on average
        cfg = SimConfig(seed=11, samples=10**6)
        edges = np.linspace(0.0, 8.0, 33)
        model, bound = simulate(UNIT, cfg, "pdf", edges=edges, minbound=(False, True))
        assert np.all(bound.cdf_at_edges() <= model.cdf_at_edges())


class TestChunks:
    """A block runs in chunks of at most _CHUNK samples, and every estimate
    keeps the bits of the whole-block arithmetic."""

    @pytest.mark.parametrize("n", (BLOCK, BLOCK // 2 + 3, 999_999, _CHUNK, _CHUNK + 1, 12_345))
    def test_chunk_sums_join_to_one_sum(self, n):
        # the summation contract the mean metrics rest on: np.sum per
        # chunk, joined up the kernel's split tree, is np.sum of the whole
        # array bit for bit.  If numpy changes its pairwise rule, this
        # names the cause before a golden fails.
        v = np.random.default_rng(n).exponential(size=n)
        chunks = _pairwise(0, n, lambda lo, hi: [(lo, hi)], operator.add)
        assert [lo for lo, _ in chunks] == [0] + [hi for _, hi in chunks[:-1]]
        assert chunks[-1][1] == n
        assert max(hi - lo for lo, hi in chunks) <= _CHUNK
        for a in (v, np.square(v)):
            got = _pairwise(0, n, lambda lo, hi: float(a[lo:hi].sum()), operator.add)
            assert got.hex() == float(a.sum()).hex()

    def test_peak_memory_is_chunk_sized(self):
        # one block at 2 relays, a request per metric of three at each of
        # 9 SNRs: whole-block arrays would peak near 100 MB
        grid = [ChannelParams(gamma=10 ** (db / 10), lambda_sd=1.0, lambda_sr=1.0, lambda_rd=1.0)
                for db in range(0, 45, 5)]
        params = grid * 3
        metrics = [m for m in ("outage", "bep", "capacity") for _ in grid]
        simulate(params, SimConfig(seed=3, samples=100, relays=2), metrics, threshold=1.0)  # imports
        tracemalloc.start()
        try:
            simulate(params, SimConfig(seed=3, samples=BLOCK, relays=2), metrics, threshold=1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20, peak


def _oracle_uniforms(seed: int, link: int, start: int, n: int) -> np.ndarray:
    bg = np.random.Philox(key=np.array([seed, link], dtype=np.uint64))
    bg.advance(start // 4)
    return np.random.Generator(bg).random(n)


def _oracle(params: ChannelParams, cfg: SimConfig, metric: str, relays: int, edges=None,
            minbound=False, x=1.0, threshold=1.0):
    """The whole-block arithmetic, one block-length array per step: the
    estimate the chunked kernel must reproduce bit for bit."""
    from scipy.special import erfc

    g = params.gamma
    partials = []
    for b in range(-(-cfg.samples // BLOCK)):
        m = min(BLOCK, cfg.samples - b * BLOCK)
        total = -np.log1p(-_oracle_uniforms(cfg.seed, 0, b * BLOCK, m)) / params.lambda_sd
        for r in range(1, relays + 1):
            u = _oracle_uniforms(cfg.seed, r, 2 * b * BLOCK, 2 * m)
            hx = -np.log1p(-u[0::2]) / params.lambda_sr
            hy = -np.log1p(-u[1::2]) / params.lambda_rd
            total = total + (np.minimum(hx, hy) if minbound else relay_power(hx, hy, 1.0 / g))
        if edges is not None:
            counts, _ = np.histogram(total, bins=edges)
            partials.append((counts, np.count_nonzero(total < edges[0]),
                             np.count_nonzero(total > edges[-1])))
        elif metric in ("cdf", "outage"):
            partials.append(np.count_nonzero(total <= (x if metric == "cdf" else threshold / g)))
        else:
            v = 0.5 * (erfc(np.sqrt(g * total)) if metric == "bep" else np.log1p(g * total))
            partials.append((float(v.sum()), float(np.square(v).sum())))
    n = cfg.samples
    if edges is not None:
        return (sum(c for c, _, _ in partials), sum(b for _, b, _ in partials),
                sum(a for _, _, a in partials))
    if metric in ("cdf", "outage"):
        p = sum(partials) / n
        return SimEstimate(p, math.sqrt(p * (1.0 - p) / n), n)
    total = total_sq = 0.0
    for s, s2 in partials:
        total += s
        total_sq += s2
    mean = total / n
    var = max(total_sq - n * mean * mean, 0.0) / max(n - 1, 1)
    return SimEstimate(mean, math.sqrt(var / n), n)


# the last block (3 * _CHUNK + 7 samples) and its last chunk are ragged
ORACLE_CFG = SimConfig(seed=8, samples=BLOCK + 3 * _CHUNK + 7, relays=2)
ORACLE_GRID = GRID[:2]


class TestKernelOracle:
    @pytest.mark.parametrize("workers", (1, 3))
    def test_simulate_matches_whole_block_arithmetic(self, workers):
        # the model and the bound, D + min(X_1, Y_1) + ..., at both relay counts
        cells = [(r, metric, p, b) for r in (1, 2) for metric in METRICS for p in ORACLE_GRID
                 for b in (False, True)]
        counts, metrics, grid, bounds = zip(*cells)
        got = simulate(grid, ORACLE_CFG, metrics, x=1.0, threshold=1.0, workers=workers,
                       relays=counts, minbound=bounds)
        assert len(got) == len(cells)
        for (r, metric, p, b), est in zip(cells, got):
            if metric == "pdf":
                want = _oracle(p, ORACLE_CFG, metric, r, edges=np.linspace(0.0, 8.0, 81),
                               minbound=b)
                assert np.array_equal(est.counts, want[0]), (r, p.gamma, b)
                assert (est.below, est.above) == want[1:], (r, p.gamma, b)
            else:
                assert est == _oracle(p, ORACLE_CFG, metric, r, minbound=b), (r, metric, p.gamma, b)

    @pytest.mark.parametrize("workers", (1, 3))
    @pytest.mark.parametrize("minbound", (False, True))
    def test_histogram_matches_whole_block_arithmetic(self, workers, minbound):
        # explicit edges, at one and two relays
        edges = np.linspace(0.0, 5.0, 41)
        p = ORACLE_GRID[0]
        got = simulate(p, ORACLE_CFG, "pdf", edges=edges, workers=workers, relays=(1, 2),
                       minbound=minbound)
        for r, h in zip((1, 2), got):
            counts, below, above = _oracle(p, ORACLE_CFG, "pdf", r, edges=edges,
                                           minbound=minbound)
            assert np.array_equal(h.counts, counts), r
            assert (h.below, h.above, h.samples_used) == (below, above, ORACLE_CFG.samples), r
