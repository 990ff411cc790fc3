"""Simulation backend: counter-based streams, block decomposition,
estimators and histograms.

The load-bearing property is bitwise reproducibility: a run is a pure
function of (seed, samples, relays, metric arguments), no matter how many
workers execute it or whether the sample count fills the last block.
"""

import math

import numpy as np
import pytest
from scipy import stats

from afrelay.channel import ChannelParams, combined_cdf, combined_cdf_coeffs, minbound_cdf
from afrelay.bessel_series import series_coeffs
from afrelay.montecarlo import (
    BLOCK,
    Histogram,
    SimConfig,
    SimEstimate,
    _exponential,
    _relay_term,
    _uniforms,
    histogram_at_edges,
    relay_power,
    simulate,
    simulate_minbound,
)

UNIT = ChannelParams(gamma=1000.0, lambda_sd=1.0, lambda_sr=1.0, lambda_rd=1.0)


class TestSimConfig:
    def test_field_validation(self):
        with pytest.raises(ValueError, match="samples"):
            SimConfig(seed=1, samples=0)
        with pytest.raises(ValueError, match="relays"):
            SimConfig(seed=1, samples=10, relays=0)
        with pytest.raises(ValueError, match="histogram_bins"):
            SimConfig(seed=1, samples=10, histogram_bins=1)
        with pytest.raises(ValueError, match="histogram_range"):
            SimConfig(seed=1, samples=10, histogram_range=(2.0, 1.0))
        with pytest.raises(ValueError, match="histogram_range"):
            SimConfig(seed=1, samples=10, histogram_range=(-1.0, 1.0))

    @pytest.mark.parametrize(
        "field, bad",
        [
            ("samples", 1500.5),
            ("relays", 1.5),
            ("histogram_bins", 10.5),
            ("samples", True),
            ("relays", True),
            ("histogram_bins", True),
        ],
    )
    def test_counts_must_be_integers(self, field, bad):
        # refused up front, naming the field, rather than failing inside
        # the block split or mid-simulation (or, for True, running a
        # one-sample simulation)
        with pytest.raises(ValueError, match=field):
            SimConfig(**{"seed": 1, "samples": 10, field: bad})

    def test_numpy_integers_are_counts(self):
        cfg = SimConfig(seed=1, samples=np.int64(10), relays=np.int32(2), histogram_bins=np.int64(4))
        assert simulate(UNIT, cfg, "capacity").samples_used == 10

    def test_seed_range(self):
        # the seed is one 64-bit Philox key word: both ends of [0, 2**64)
        # are accepted, and values outside are refused rather than wrapped
        # onto another seed's stream
        SimConfig(seed=0, samples=1)
        SimConfig(seed=2**64 - 1, samples=1)
        for bad in (-1, 2**64, 1.5):
            with pytest.raises(ValueError, match="seed"):
                SimConfig(seed=bad, samples=1)


class TestStreams:
    def test_slices_are_consistent(self):
        # drawing [1000, 5000) directly equals slicing a longer run: the
        # stream is addressed by absolute draw index, not by call history
        full = _uniforms(123, 0, 0, 5000)
        part = _uniforms(123, 0, 1000, 4000)
        np.testing.assert_array_equal(full[1000:], part)

    def test_links_are_distinct(self):
        a = _uniforms(123, 0, 0, 100)
        b = _uniforms(123, 1, 0, 100)
        assert not np.any(a == b)

    def test_matches_manual_philox(self):
        bg = np.random.Philox(key=np.array([99, 2], dtype=np.uint64))
        expected = np.random.Generator(bg).random(64)
        np.testing.assert_array_equal(_uniforms(99, 2, 0, 64), expected)

    def test_exponential_sampler_moments(self):
        rate = 1.7
        n = 100_000
        s = _exponential(_uniforms(7, 0, 0, n), rate)
        mean, var = float(s.mean()), float(s.var(ddof=1))
        # exact variance of the sample mean and (via mu_4 = 9/rate**4) of
        # the sample variance; both measured well inside one sigma
        assert abs(mean - 1 / rate) < 5 / (rate * math.sqrt(n))
        assert abs(var - 1 / rate**2) < 5 * math.sqrt(8.0) / (rate**2 * math.sqrt(n))

    def test_exponential_in_place_is_bit_identical(self):
        # the in-place transform does -log1p(-u)/rate step for step, also
        # with one rate per column of an interleaved hop pair
        u = _uniforms(7, 1, 0, 2000)
        np.testing.assert_array_equal(_exponential(u.copy(), 1.7), -np.log1p(-u) / 1.7)
        pair = u.reshape(1000, 2)
        got = _exponential(pair.copy(), np.array([1.3, 2.0]))
        assert got[:, 0].tobytes() == (-np.log1p(-pair[:, 0]) / 1.3).tobytes()
        assert got[:, 1].tobytes() == (-np.log1p(-pair[:, 1]) / 2.0).tobytes()

    def test_exponential_sampler_distribution(self):
        s = _exponential(_uniforms(7, 0, 0, 100_000), 1.7)
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
        # the kernel computes x*y and x + y once per block and the term per
        # gamma from them; seeded draws with dead hops mixed in (and, at
        # inv_gamma = 0, the 0/0 of two dead hops)
        pair = _exponential(_uniforms(3, 1, 0, 20_000).reshape(10_000, 2), np.array([0.7, 1.9]))
        pair[::97, 0] = 0.0
        pair[::89, 1] = 0.0
        x, y = pair[:, 0], pair[:, 1]
        with np.errstate(invalid="ignore"):
            got = _relay_term(x * y, x + y, inv_gamma, np.empty(len(x)))
            want = relay_power(x, y, inv_gamma)
        assert got.tobytes() == want.tobytes()


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
        for workers in (0, -3):
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

    def test_infinite_threshold_is_certain(self):
        est = simulate(UNIT, SimConfig(seed=1, samples=1000), "outage", threshold=math.inf)
        assert est.value == 1.0
        assert est.std_error == 0.0

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
    """simulate over a sequence of gamma: one pass, each element
    bit-identical to the call with that element alone."""

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


class TestOnePass:
    """Relay counts and metrics asked of one simulate call come from one
    pass, each result bit-identical to its own call."""

    @pytest.mark.parametrize("workers", (1, 2, 4))
    def test_relay_prefix_matches_separate_calls(self, alone, workers):
        for m in METRICS:
            one, two = simulate(
                ONE_PASS_GRID, ONE_PASS_CFG[2], m, workers=workers, relays=(1, 2), **GRID_KW[m]
            )
            assert _all_same(one, alone[(1, m)]), (m, workers)
            assert _all_same(two, alone[(2, m)]), (m, workers)
            if m == "capacity":  # a second relay never lowers a sample's capacity
                assert all(t.value >= o.value for o, t in zip(one, two)), workers
            # a scalar relay count below cfg.relays reads the same prefix
            below = simulate(ONE_PASS_GRID, ONE_PASS_CFG[2], m, workers=workers, relays=1, **GRID_KW[m])
            assert _all_same(below, alone[(1, m)]), (m, workers)

    @pytest.mark.parametrize("workers", (1, 2, 4))
    def test_metric_tuple_matches_one_metric_calls(self, alone, workers):
        for r in (1, 2):
            fused = simulate(
                ONE_PASS_GRID, ONE_PASS_CFG[r], METRICS, x=1.0, threshold=1.0, workers=workers
            )
            assert len(fused) == len(METRICS)
            for m, got in zip(METRICS, fused):
                assert _all_same(got, alone[(r, m)]), (r, m, workers)

    def test_relays_and_metrics_in_one_call(self, alone):
        fused = simulate(
            ONE_PASS_GRID, ONE_PASS_CFG[2], METRICS, x=1.0, threshold=1.0, workers=2,
            relays=(2, 1),
        )
        for r, by_metric in zip((2, 1), fused):
            for m, got in zip(METRICS, by_metric):
                assert _all_same(got, alone[(r, m)]), (r, m)

    def test_nesting_follows_the_sequence_arguments(self):
        cfg = SimConfig(seed=5, samples=1000, relays=2)
        est = simulate(UNIT, cfg, "capacity", relays=1)
        assert isinstance(est, SimEstimate)
        by_relays = simulate(UNIT, cfg, "capacity", relays=(1, 2))
        assert by_relays == [est, simulate(UNIT, cfg, "capacity")]
        by_metric = simulate(UNIT, cfg, ("capacity", "bep"))
        assert by_metric == [simulate(UNIT, cfg, "capacity"), simulate(UNIT, cfg, "bep")]
        assert simulate([UNIT], cfg, ("capacity",), relays=(1,)) == [[[est]]]


@pytest.fixture(scope="module")
def hist():
    return simulate(UNIT, SimConfig(seed=42, samples=10**6), "pdf", workers=2)


class TestHistogram:
    def test_counts_are_conserved(self, hist):
        assert hist.below + int(hist.counts.sum()) + hist.above == hist.samples_used

    def test_density_normalizes_exactly(self, hist):
        total = float(np.sum(hist.density * np.diff(hist.edges)))
        assert abs(total - 1.0) < 1e-12

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

    def test_range_warning_flags_clipped_coverage(self):
        narrow = SimConfig(seed=1, samples=50_000, histogram_range=(0.0, 0.5))
        assert simulate(UNIT, narrow, "pdf").range_warning
        wide = SimConfig(seed=1, samples=50_000, histogram_range=(0.0, 30.0))
        assert not simulate(UNIT, wide, "pdf").range_warning


class TestHistogramAtEdges:
    def test_edge_validation(self):
        cfg = SimConfig(seed=1, samples=100)
        with pytest.raises(ValueError, match="ascending"):
            histogram_at_edges(UNIT, cfg, [0.0, 1.0])  # single bin
        with pytest.raises(ValueError, match="ascending"):
            histogram_at_edges(UNIT, cfg, [0.0, 2.0, 1.0])
        with pytest.raises(ValueError, match="nonnegative"):
            histogram_at_edges(UNIT, cfg, [-1.0, 0.0, 1.0])

    def test_nonuniform_edges_agree_with_closed_form(self):
        cfg = SimConfig(seed=42, samples=10**6)
        edges = np.array([0.0, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0])
        h = histogram_at_edges(UNIT, cfg, edges, workers=2)
        co = combined_cdf_coeffs(UNIT, series_coeffs(1.0, 10))
        emp = h.cdf_at_edges()
        for i, e in enumerate(edges):
            assert abs(emp[i] - combined_cdf(UNIT, co, float(e))) < 5e-3, e


class TestMinbound:
    def test_histogram_matches_closed_cdf(self):
        cfg = SimConfig(seed=42, samples=10**6, histogram_range=(0.0, 10.0))
        h = simulate_minbound(UNIT, cfg, workers=2)
        emp = h.cdf_at_edges()
        worst = max(
            abs(emp[i] - minbound_cdf(UNIT, float(e)))
            for i, e in enumerate(h.edges)
        )
        assert worst < 3e-3

    def test_dominates_model_on_common_randomness(self):
        # min(X, Y) >= XY/(X + Y + 1/gamma) sample by sample, and both
        # histograms consume identical streams, so the bound's CDF sits
        # below the model's at every edge surely, not just on average
        cfg = SimConfig(seed=11, samples=10**6)
        edges = np.linspace(0.0, 8.0, 33)
        bound = histogram_at_edges(UNIT, cfg, edges, minbound=True)
        model = histogram_at_edges(UNIT, cfg, edges, minbound=False)
        assert np.all(bound.cdf_at_edges() <= model.cdf_at_edges())
