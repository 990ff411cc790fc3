"""Relay channel statistics: exact relayed-path CDF/PDF, the series CDF of
the combined power, its coefficients, the exact convolution audit and the
min-of-hops baseline.

Monte Carlo cross-checks in this file use 1e7 samples and finish in a few
seconds each; the heavyweight figure-scale comparisons live in the
acceptance suite.
"""

import dataclasses
import itertools
import math
import re
import sys
import warnings

import mpmath as mp
import numpy as np
import pytest

from afrelay import channel, reference
from afrelay.bessel_series import K_MAX, CoefficientTable, series_coeffs
from afrelay.channel import (
    EXACT_ABS_TOL,
    ChannelParams,
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
from afrelay.montecarlo import SimConfig, relay_power, simulate
from afrelay.reference import QuadratureError, adaptive_quad

UNIT = ChannelParams(gamma=1000.0, lambda_sd=1.0, lambda_sr=1.0, lambda_rd=1.0)
TABLE10 = series_coeffs(1.0, 10)


def srd_samples(seed: int, n: int) -> np.ndarray:
    """n seeded draws of the relayed-path power S at UNIT, through the
    simulator's own product form."""
    rng = np.random.default_rng(seed)
    x = rng.exponential(1.0 / UNIT.lambda_sr, n)
    y = rng.exponential(1.0 / UNIT.lambda_rd, n)
    return relay_power(x, y, 1.0 / UNIT.gamma)


def unit_coeffs(k: int = 10) -> SeriesCdfCoeffs:
    return combined_cdf_coeffs(UNIT, series_coeffs(1.0, k))


class TestChannelParams:
    def test_rejects_nonpositive(self):
        for field in ("gamma", "lambda_sd", "lambda_sr", "lambda_rd"):
            kw = dict(gamma=1.0, lambda_sd=1.0, lambda_sr=1.0, lambda_rd=1.0)
            kw[field] = 0.0
            with pytest.raises(ValueError):
                ChannelParams(**kw)

    @pytest.mark.parametrize("sr,rd", [
        (1e155, 1e155), (1e-200, 1e-200), (1e308, 1e308), (1e-300, 1e-20), (2.0**-511, 2.0**-512),
    ])
    def test_rejects_rates_whose_combinations_leave_the_doubles(self, sr, rd):
        # lambda_p overflows, lambda_p underflows, lambda_s overflows;
        # lambda_p subnormal: 1e-320 is held as 0x0.00000000007e8p-1022,
        # 1.1e-5 off, and 2**-1023 is exact but below the normal doubles
        at = f"lambda_sr={sr!r}, lambda_rd={rd!r}"
        with pytest.raises(ValueError, match=re.escape(f"leaves the doubles at {at}")):
            ChannelParams(gamma=1.0, lambda_sd=1.0, lambda_sr=sr, lambda_rd=rd)

    def test_derived_combinations(self):
        p = ChannelParams(gamma=10.0, lambda_sd=1.0, lambda_sr=2.0, lambda_rd=0.5)
        assert p.lambda_p == pytest.approx(1.0)
        assert p.lambda_s == pytest.approx(2.5)
        assert p.lambda_srd == pytest.approx((math.sqrt(2.0) + math.sqrt(0.5)) ** 2)
        # the smallest normal lambda_p is served
        assert ChannelParams(1.0, 1.0, 2.0**-511, 2.0**-511).lambda_p == sys.float_info.min
        assert p.lambda_srd > p.lambda_s

    def test_derived_computed_once(self):
        # plain attributes set on construction, from the formula's own
        # operations, and as frozen as the fields
        p = ChannelParams(gamma=10.0, lambda_sd=1.0, lambda_sr=2.0, lambda_rd=0.5)
        assert (p.lambda_p, p.lambda_s) == (1.0, 2.5)
        assert p.lambda_srd == 2.5 + 2.0 * math.sqrt(1.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            p.lambda_srd = 0.0

    def test_cache_is_not_part_of_the_value(self):
        p = ChannelParams(gamma=10.0, lambda_sd=1.0, lambda_sr=2.0, lambda_rd=0.5)
        twin = ChannelParams(gamma=10.0, lambda_sd=1.0, lambda_sr=2.0, lambda_rd=0.5)
        assert p == twin and hash(p) == hash(twin)
        assert repr(p) == (
            "ChannelParams(gamma=10.0, lambda_sd=1.0, lambda_sr=2.0, lambda_rd=0.5)"
        )
        assert [f.name for f in dataclasses.fields(p)] == [
            "gamma", "lambda_sd", "lambda_sr", "lambda_rd",
        ]
        assert p != dataclasses.replace(p, gamma=11.0)

    def test_replace_derives_afresh(self):
        p = ChannelParams(gamma=10.0, lambda_sd=1.0, lambda_sr=0.5, lambda_rd=0.5)
        q = dataclasses.replace(p, lambda_sr=2.0)
        fresh = ChannelParams(gamma=10.0, lambda_sd=1.0, lambda_sr=2.0, lambda_rd=0.5)
        assert (q.lambda_p, q.lambda_s, q.lambda_srd) == (
            fresh.lambda_p, fresh.lambda_s, fresh.lambda_srd
        )
        assert q.lambda_s == 2.5
        assert p.lambda_s == 1.0


class TestSrdCdf:
    def test_zero_at_origin(self):
        assert srd_cdf(UNIT, 0.0) == 0.0

    def test_saturates(self):
        x = 50.0 / UNIT.lambda_s
        assert srd_cdf(UNIT, x) >= 1.0 - 1e-6

    def test_monotone(self):
        xs = np.linspace(0.0, 20.0, 1000)
        vals = [srd_cdf(UNIT, float(x)) for x in xs]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_matches_empirical_cdf(self):
        # 1e7 draws of the exact product form; the empirical CDF carries a
        # standard error of about 1.3e-4 at this point (measured gap 5.2e-5)
        s = srd_samples(42, 10**7)
        emp = float(np.mean(s <= 0.5))
        assert abs(emp - srd_cdf(UNIT, 0.5)) < 3e-3

    def test_domain(self):
        with pytest.raises(ValueError):
            srd_cdf(UNIT, -0.1)


class TestSrdPdf:
    def test_matches_cdf_derivative(self):
        h = 1e-6
        fd = (srd_cdf(UNIT, 0.5 + h) - srd_cdf(UNIT, 0.5 - h)) / (2 * h)
        pdf = srd_pdf(UNIT, 0.5)
        assert abs(pdf - fd) / pdf < 1e-5

    def test_normalizes(self):
        total = adaptive_quad(
            lambda x: srd_pdf(UNIT, x) if x > 0 else 0.0,
            0.0,
            40.0,
            abs_tol=1e-10,
            rel_tol=1e-9,
            limit=300,
        )
        assert abs(total - 1.0) < 1e-6

    def test_matches_histogram_density(self):
        # measured relative gap 2.3e-3, mostly the bin's curvature bias
        n = 10**7
        s = srd_samples(7, n)
        count = float(np.count_nonzero((s >= 1.0) & (s < 1.1)))
        density = count / (n * 0.1)
        mid = srd_pdf(UNIT, 1.05)
        assert abs(density - mid) / mid < 0.02

    def test_origin_is_out_of_domain(self):
        # the density has an integrable log divergence at 0
        with pytest.raises(ValueError):
            srd_pdf(UNIT, 0.0)


class TestExactModelAtTheDoubleEdges:
    """The exact model answers or refuses with the one past-the-doubles
    ValueError; it never returns nan."""

    @pytest.mark.parametrize("form", (srd_cdf, srd_pdf, combined_cdf_exact))
    @pytest.mark.parametrize("x", (0.5, np.array([0.5, 2.0])))
    def test_gamma_whose_reciprocal_leaves_the_doubles_is_refused(self, form, x):
        # 1/1e-310 is inf, where z K_1(z) read inf * 0 and capped to 1:
        # srd_cdf read 0.632 at 0.5 for a true 1.0, srd_pdf nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^1/gamma leaves the doubles at gamma=1e-310$"):
                form(ChannelParams(1e-310, 1.0, 1.0, 1.0), x)

    def test_smallest_served_gamma_reads_the_zero_snr_limit(self):
        # gamma -> 0: S -> 0 and D + S -> D ~ Exp(1)
        assert srd_cdf(ChannelParams(5.57e-309, 1.0, 1.0, 1.0), 0.5) == 1.0
        p = ChannelParams(1e-300, 1.0, 1.0, 1.0)
        assert srd_cdf(p, 0.5) == 1.0
        assert combined_cdf_exact(p, 2.0) == pytest.approx(-math.expm1(-2.0), rel=1e-15)

    @pytest.mark.parametrize("gamma", (5.57e-309, 1e-308, 1e-307))
    def test_gamma_where_the_bessel_argument_overflows(self, gamma):
        # lambda_p x (x + 1/gamma) overflows at x = 2: z K_1(z) read
        # inf * 0 = nan, capped to 1, so srd_cdf read 0.98168 at 5.57e-309,
        # and combined_cdf_exact warned of an overflow and raised
        # QuadratureError; z from the three roots reads the gamma -> 0 limit
        p = ChannelParams(gamma, 1.0, 1.0, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert srd_cdf(p, 2.0) == 1.0
            assert srd_pdf(p, 2.0) == 0.0
            assert combined_cdf_exact(p, 2.0) == -math.expm1(-2.0) == 0.8646647167633873
            xs = np.array([0.5, 2.0, 1e300])
            assert combined_cdf_exact(p, xs).tolist() == [combined_cdf_exact(p, x) for x in xs]

    @staticmethod
    def _density(p: ChannelParams, x: float) -> float:
        with mp.workdps(50):
            x = mp.mpf(x)
            inv_gamma = 1 / mp.mpf(p.gamma)
            z = 2 * mp.sqrt(p.lambda_p * x * (x + inv_gamma))
            return float(2 * mp.exp(-p.lambda_s * x) * (
                p.lambda_p * (2 * x + inv_gamma) * mp.besselk(0, z)
                + p.lambda_s * (z / 2) * mp.besselk(1, z)
            ))

    @pytest.mark.parametrize("gamma, xs", (
        (1e3, (1e-200, 1e-310, 5e-324)),
        (1e308, (1e-300, 1e-154, 5e-324)),
    ))
    def test_density_where_the_root_product_underflows(self, gamma, xs):
        # lambda_p x (x + 1/gamma) underflows to 0 (or to a subnormal) at
        # x > 0: the density read nan at 5e-324 (gamma 1e3) and below about
        # 1e-154 (gamma 1e308); measured within 1.2e-16 of 50-digit mpmath
        p = ChannelParams(gamma, 1.0, 1.0, 1.0)
        got = srd_pdf(p, np.array(xs))
        assert got.tolist() == [srd_pdf(p, x) for x in xs]
        for x, f in zip(xs, got.tolist()):
            assert f == pytest.approx(self._density(p, x), rel=1e-15), x

    def test_density_refuses_where_a_term_leaves_the_doubles(self):
        # lambda_p / gamma = 1e310 overflows, and inf times K_0 = 0 read nan
        p = ChannelParams(1e-300, 1.0, 1e5, 1e5)
        with pytest.raises(ValueError, match=r"^the density of S leaves the doubles at "
                                             r"gamma=1e-300, x=1e-05$"):
            srd_pdf(p, np.array([1.0, 1e-5]))

    def test_density_is_finite_or_refused_across_the_doubles(self):
        xs = np.array([5e-324, 1e-310, 1e-300, 1e-154, 1e-20, 1.0, 1e20, 1e300])
        rates = (1e-300, 1e-20, 1.0, 1e20, 1e300)
        answered = 0
        for gamma in (5.57e-309, 1e-300, 1e-20, 1.0, 1e20, 1e308):
            for sr, rd in itertools.product(rates, rates):
                try:
                    p = ChannelParams(gamma, 1.0, sr, rd)
                except ValueError:
                    continue
                for x in (xs, *xs):
                    try:
                        f = srd_pdf(p, x)
                    except ValueError as exc:
                        assert "leaves the doubles" in str(exc)
                        continue
                    assert np.isfinite(f).all() and (np.asarray(f) >= 0.0).all(), (p, x)
                    answered += 1
        assert answered > 500


class TestSeriesCdfCoeffs:
    def test_reference_scenario_leading_coefficient(self):
        # k = 2, unit fading: lambda_srd = 4 and the closed form gives
        # A = 1 + sum_q (2)**q q! a_q / 3**(q+1) = 1.47160...
        co = combined_cdf_coeffs(UNIT, series_coeffs(1.0, 2))
        assert co.A == pytest.approx(1.471604938271605, rel=1e-12)

    def test_zero_power_identity(self):
        # A - 1 equals the x**0 coefficient; this is what pins F(0) = 0
        rng = np.random.default_rng(3)
        for _ in range(10):
            lsd, lsr, lrd = np.exp(rng.uniform(np.log(0.2), np.log(5.0), 3))
            p = ChannelParams(gamma=100.0, lambda_sd=lsd, lambda_sr=lsr, lambda_rd=lrd)
            if abs(p.lambda_srd - lsd) < 0.05:
                continue
            co = combined_cdf_coeffs(p, TABLE10)
            lhs = co.A - 1.0
            rhs = co.cols[0]
            assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)
            assert combined_cdf(p, co, 0.0, clamp=False) == pytest.approx(0.0, abs=1e-12)

    def test_top_row_scaling(self):
        # only term q = k reaches x**k, and there the c! denominator and
        # the d-power collapse: cols[k] = lambda_sd (2 sqrt(lambda_p))**k a_k / d
        d = UNIT.lambda_srd - UNIT.lambda_sd
        two_root_p = 2.0 * math.sqrt(UNIT.lambda_p)
        for k in range(6):
            table = series_coeffs(1.0, k)
            co = combined_cdf_coeffs(UNIT, table)
            expected = UNIT.lambda_sd * two_root_p**k * float(table.a[k]) / d
            assert co.cols[k] == pytest.approx(expected, rel=1e-13), k

    def test_degenerate_rates_rejected_with_hint(self):
        # lambda_srd = 4 collides with lambda_sd = 4
        p = ChannelParams(gamma=100.0, lambda_sd=4.0, lambda_sr=1.0, lambda_rd=1.0)
        with pytest.raises(ValueError, match="Use combined_cdf_exact or Monte Carlo"):
            combined_cdf_coeffs(p, TABLE10)

    @pytest.mark.parametrize(
        "rates, k",
        (((1e30, 1.0, 1.0), 10), ((1.0, 1e300, 1.0), 10), ((1e-20, 1e-20, 1e-20), 30)),
    )
    def test_powers_past_the_doubles_are_refused(self, rates, k):
        # d**m or (2 sqrt(lambda_p))**q overflows, or d**m underflows to 0
        p = ChannelParams(1.0, *rates)
        at = f"lambda_sd={p.lambda_sd!r}, lambda_srd={p.lambda_srd!r}, k={k}"
        with pytest.raises(ValueError, match=re.escape(f"leaves the doubles at {at}")):
            combined_cdf_coeffs(p, series_coeffs(1.0, k))

    @pytest.mark.parametrize("rates", ((1.0, 1.0, 1.0), (0.7, 2.0, 0.3)))
    def test_independent_of_gamma(self, rates):
        # gamma enters only where the coefficients are evaluated, so one
        # build serves a whole SNR grid (perf and the validate checks)
        built = [
            combined_cdf_coeffs(ChannelParams(g, *rates), TABLE10) for g in (1e-3, 1.0, 1e6)
        ]
        for poly in ("cols", "pdf"):
            bits = {np.array(getattr(co, poly)).tobytes() for co in built}
            assert len(bits) == 1, poly

    def test_validation_builds_the_unit_coefficients_once(self):
        # they depend on nothing a validate round varies: one build per process
        from afrelay import validation

        co = validation._unit_coeffs()
        assert validation._unit_coeffs() is co
        assert (co.cols, co.pdf) == (unit_coeffs().cols, unit_coeffs().pdf)

    def test_wrong_order_table_rejected(self):
        # by the type itself, so hand-built coefficients are refused too
        with pytest.raises(ValueError, match="order-1 table, got nu=2.0"):
            combined_cdf_coeffs(UNIT, series_coeffs(2.0, 5))
        table = CoefficientTable(nu=2.0, a=(1.0, 0.5))
        with pytest.raises(ValueError, match="order-1 table, got nu=2.0"):
            SeriesCdfCoeffs([0.5, 0.25], table, UNIT.lambda_sd, UNIT.lambda_p, UNIT.lambda_s)

    def test_derived_density_keeps_the_builders_bits(self):
        # the density polynomial the builder used to compute, pdf[c] =
        # (c + 1) cols[c+1] - lambda_srd cols[c] on the columns padded with one
        # 0.0, then pdf[0] = -A lambda_sd, at every depth: with rates anywhere,
        # lambda_sd up to 1e22, and relative spacings |lambda_srd - lambda_sd| /
        # lambda_srd down to just outside the 1e-9 guard
        rng = np.random.default_rng(37)
        points = [(1e22, 1.0, 1.0), (1e22, 1e-2, 1e2)]
        points += [(4.0 * (1.0 + rel), 1.0, 1.0) for rel in (1.01e-9, -1.01e-9)]  # lambda_srd = 4
        for i in range(60):
            sr, rd = np.exp(rng.uniform(math.log(1e-2), math.log(1e2), 2)).tolist()
            srd = (math.sqrt(sr) + math.sqrt(rd)) ** 2
            rel = 10.0 ** rng.uniform(math.log10(1.01e-9), -1.0) * rng.choice((-1.0, 1.0))
            lsd = (10.0 ** rng.uniform(-3.0, 22.0), srd * (1.0 + rel), 10.0 ** rng.uniform(18.0, 22.0))[i % 3]
            points.append((lsd, sr, rd))
        built = 0
        for rates in points:
            p = ChannelParams(1.0, *rates)
            for k in range(K_MAX + 1):
                try:
                    co = combined_cdf_coeffs(p, series_coeffs(1.0, k))
                except ValueError as exc:  # a power of d or of 2 sqrt(lambda_p)
                    assert "leaves the doubles" in str(exc), (rates, k)
                    continue
                cols = co.cols + (0.0,)
                want = [(c + 1) * cols[c + 1] - p.lambda_srd * cols[c] for c in range(k + 1)]
                want[0] = -((1.0 + cols[0]) * p.lambda_sd)
                assert [v.hex() for v in co.pdf] == [v.hex() for v in want], (rates, k)
                built += 1
        assert built > 1000

    def test_hand_built_coefficients_keep_their_invariants(self):
        # any finite columns: f(0) = 0 exactly, as pdf[0] = -A lambda_sd, and
        # F(0) = (1 - A) + cols[0] is the rounding error of A = 1 + cols[0],
        # which the clamp takes to 0 where it is negative.  Where cols[1] =
        # d cols[0] - lambda_sd, as in every built table (a_0 = 1), pdf is F's
        # derivative: a central difference of F agrees with it to 1e-7 of the
        # size of the density's terms
        p = ChannelParams(gamma=100.0, lambda_sd=0.7, lambda_sr=2.0, lambda_rd=0.3)
        d = p.lambda_srd - p.lambda_sd
        rng = np.random.default_rng(41)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # F leaves [0, 1]
            for _ in range(300):
                k = int(rng.integers(1, 12))
                cols = (rng.uniform(-3.0, 3.0, k + 1) * 10.0 ** rng.uniform(-3.0, 3.0, k + 1)).tolist()
                table = CoefficientTable(nu=1.0, a=(0.0,) * (k + 1))
                co = SeriesCdfCoeffs(cols, table, p.lambda_sd, p.lambda_p, p.lambda_s)
                raw = combined_cdf(p, co, 0.0, clamp=False)
                assert abs(raw) <= math.ulp(max(1.0, abs(cols[0]), abs(co.A))), cols
                assert combined_cdf(p, co, 0.0) == max(raw, 0.0) and combined_pdf(p, co, 0.0) == 0.0

                cols[1] = d * cols[0] - p.lambda_sd
                co = SeriesCdfCoeffs(cols, table, p.lambda_sd, p.lambda_p, p.lambda_s)
                for x in (0.5, 1.0, 2.0):
                    h = 1e-5 * x
                    diff = combined_cdf(p, co, x + h, clamp=False) - combined_cdf(p, co, x - h, clamp=False)
                    size = abs(co.A) * p.lambda_sd * math.exp(-p.lambda_sd * x) + math.exp(-p.lambda_srd * x) * sum(
                        abs(c) * x**j for j, c in enumerate(co.pdf)
                    )
                    assert abs(combined_pdf(p, co, x) - diff / (2.0 * h)) <= 1e-7 * size, (cols, x)

    def test_carries_its_table_and_rates(self):
        # the order-1 table it was built from, and the rates of its model
        p = ChannelParams(gamma=100.0, lambda_sd=0.7, lambda_sr=2.0, lambda_rd=0.3)
        co = combined_cdf_coeffs(p, TABLE10)
        assert co.table is TABLE10 and co.k == TABLE10.k == 10
        got = (co.lambda_sd, co.lambda_p, co.lambda_s, co.lambda_srd)
        assert got == (p.lambda_sd, p.lambda_p, p.lambda_s, p.lambda_srd)

    @pytest.mark.parametrize(
        "cols, k",
        (([1.0], 1), ([1.0, 2.0], 2), ([], -1)),
        ids=("ragged-cols", "off-the-table", "empty"),
    )
    def test_ragged_or_empty_polynomials_refused(self, cols, k):
        # the columns have table.k + 1 >= 1 entries, and the derived density as
        # many; an empty pair raised IndexError
        table = CoefficientTable(nu=1.0, a=(0.0,) * (k + 1))
        with pytest.raises(ValueError, match=re.escape(f"entries at k={k}, got {len(cols)}")):
            SeriesCdfCoeffs(cols, table, UNIT.lambda_sd, UNIT.lambda_p, UNIT.lambda_s)

    def test_immutable(self):
        co = unit_coeffs(4)
        for poly in (co.cols, co.pdf):
            assert isinstance(poly, tuple) and len(poly) == co.k + 1 == 5
            assert all(type(c) is float for c in poly)
        with pytest.raises(TypeError):
            co.cols[0] = 99.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            co.cols = (0.0,) * 5

    def test_column_sums_cached_read_only(self):
        # cols[c] sums the (q, c) terms in q order: bit for bit the column
        # sums of the term matrix B[q, c] = base_q / (c! d^(q-c+1)), and A
        # is 1 + cols[0]
        table = series_coeffs(1.0, 10)
        p = ChannelParams(gamma=100.0, lambda_sd=0.7, lambda_sr=2.0, lambda_rd=0.3)
        d = p.lambda_srd - p.lambda_sd
        two_root_p = 2.0 * math.sqrt(p.lambda_p)
        B = np.zeros((11, 11))
        for q in range(11):
            base = p.lambda_sd * two_root_p**q * math.factorial(q) * table.a[q]
            for c in range(q + 1):
                B[q, c] = base / (math.factorial(c) * d ** (q - c + 1))
        co = combined_cdf_coeffs(p, table)
        assert np.array_equal(np.array(co.cols).view(np.uint64), B.sum(axis=0).view(np.uint64))
        assert co.A == 1.0 + co.cols[0]

    @pytest.mark.parametrize("k", (0, 1, 10, 30))
    def test_density_polynomial(self, k):
        # pdf[c] = (c + 1) cols[c+1] - lambda_srd cols[c], with cols[k+1] = 0;
        # the constant is -A lambda_sd, to which the c = 0 expression is
        # equal in exact arithmetic (cols[1] - d cols[0] + lambda_sd = 0);
        # in doubles they differ by 2.2e-16 at depth 10, 2.8e-12 at 30
        p = ChannelParams(gamma=100.0, lambda_sd=0.7, lambda_sr=2.0, lambda_rd=0.3)
        co = combined_cdf_coeffs(p, series_coeffs(1.0, k))
        cols = co.cols + (0.0,)
        assert co.pdf[0] == -(co.A * p.lambda_sd)
        assert co.pdf[0] == pytest.approx(cols[1] - p.lambda_srd * cols[0], rel=1e-10)
        assert co.pdf[1:] == tuple(
            (c + 1) * cols[c + 1] - p.lambda_srd * cols[c] for c in range(1, k + 1)
        )


class TestCombinedCdf:
    def test_zero_at_origin(self):
        assert combined_cdf(UNIT, unit_coeffs(), 0.0) == 0.0

    def test_approaches_one(self):
        assert combined_cdf(UNIT, unit_coeffs(), 60.0) == pytest.approx(1.0, abs=1e-12)

    def test_monotone(self):
        xs = np.linspace(0.0, 20.0, 1000)
        vals = combined_cdf(UNIT, unit_coeffs(), xs)
        assert np.all(np.diff(vals) >= 0.0)

    def test_matches_monte_carlo(self):
        # exact-model simulation; tolerance covers both the sampling noise
        # and the high-SNR truncation bias at 30 dB
        closed = combined_cdf(UNIT, unit_coeffs(), 1.0)
        est = simulate(UNIT, SimConfig(seed=42, samples=10**7), "cdf", x=1.0, workers=2)
        assert abs(closed - est.value) < 5e-3

    def test_vectorized_matches_scalar(self):
        co = unit_coeffs()
        xs = np.array([0.0, 0.3, 1.7, 4.2])
        vec = combined_cdf(UNIT, co, xs)
        for i, x in enumerate(xs):
            assert vec[i] == combined_cdf(UNIT, co, float(x))

    def test_excursion_warning_near_degeneracy(self):
        # one part in 1e3 from the removable singularity: the coefficients
        # are huge and cancellation rips the CDF out of [0, 1]
        p = ChannelParams(gamma=1000.0, lambda_sd=4.004, lambda_sr=1.0, lambda_rd=1.0)
        co = combined_cdf_coeffs(p, TABLE10)
        with pytest.warns(RuntimeWarning, match="series CDF leaves"):
            combined_cdf(p, co, np.linspace(0.0, 6.0, 50))
        # a scalar power takes the same diagnostic
        with pytest.warns(RuntimeWarning, match="series CDF leaves"):
            assert combined_cdf(p, co, 1.0) == 0.0

    def test_clamp_off_returns_raw(self):
        p = ChannelParams(gamma=1000.0, lambda_sd=4.004, lambda_sr=1.0, lambda_rd=1.0)
        co = combined_cdf_coeffs(p, TABLE10)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            raw = combined_cdf(p, co, np.linspace(0.0, 6.0, 50), clamp=False)
            assert float(np.max(raw)) > 1.0 or float(np.min(raw)) < 0.0

    @pytest.mark.parametrize("x", (1e40, math.inf))
    def test_finite_past_the_double_range(self, x):
        # exp(-lambda_srd x) underflows to 0 while the polynomial overflows;
        # the relay term is 0 there, so the CDF is 1 and the PDF 0, not nan
        co = unit_coeffs()
        xs = np.array([1.0, x])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)  # no excursion diagnostic
            warnings.filterwarnings("ignore", "(overflow|invalid value) encountered")
            cdf, pdf = combined_cdf(UNIT, co, x), combined_pdf(UNIT, co, x)
            cdfs, pdfs = combined_cdf(UNIT, co, xs), combined_pdf(UNIT, co, xs)
        assert (cdf, pdf) == (1.0, 0.0)
        assert type(cdf) is float and type(pdf) is float
        assert cdfs.tolist() == [combined_cdf(UNIT, co, 1.0), 1.0]
        assert pdfs.tolist() == [combined_pdf(UNIT, co, 1.0), 0.0]


GRID_FORMS = {
    "combined_cdf": lambda x: combined_cdf(UNIT, unit_coeffs(), x, clamp=False),
    "combined_pdf": lambda x: combined_pdf(UNIT, unit_coeffs(), x),
    "srd_cdf": lambda x: srd_cdf(UNIT, x),
    "srd_pdf": lambda x: srd_pdf(UNIT, x),
    "combined_cdf_exact": lambda x: combined_cdf_exact(UNIT, x),
    "minbound_cdf": lambda x: minbound_cdf(UNIT, x),
    "minbound_pdf": lambda x: minbound_pdf(UNIT, x),
}


@pytest.mark.parametrize("form", GRID_FORMS.values(), ids=GRID_FORMS.keys())
class TestPowerGrid:
    """Every closed form checks a grid of powers with one reduction that
    skips nan: a negative entry is refused wherever it sits, and nan, -0.0
    and empty grids pass as they always did.  A power that is not a number,
    or an array of other than integers or floats, is refused by name."""

    @pytest.mark.parametrize(
        "x, message",
        [(np.array(grid), "power must be >= 0") for grid in (
            [math.nan, -1.0, -0.0, math.inf], [-0.0, math.inf, math.nan, -1e-300],
            [math.nan, math.nan, -math.inf], [[math.nan, 1.0], [2.0, -1.0]],
        )] + [(x, "power must be a real number") for x in (
            None, True, np.True_, "1.0", np.array([True, False]), np.array(["1.0"]), [1.0, None], 1j,
        )],
        ids=("negative-4", "negative-last", "negative-inf", "negative-2d", "None", "True", "np.True_",
             "str", "bool-array", "str-array", "None-in-list", "complex"),
    )
    def test_negative_or_non_number_refused(self, form, x, message):
        # a non-number was read as nan (None), parsed ("1.0") or read as 1 and 0 (bools)
        with pytest.raises(ValueError, match=re.escape(message)):
            form(x)

    @staticmethod
    def _outcome(form, x) -> list[str]:
        # float.hex per value, where a nan of either sign reads "nan", or
        # the message of a refusal once per power (srd_pdf refuses 0)
        try:
            return [v.hex() for v in np.atleast_1d(form(x)).tolist()]
        except ValueError as exc:
            return [str(exc)] * np.size(x)

    def test_nan_signed_zero_and_empty_grids_pass(self, form):
        # each entry is what the scalar, checked apart, gives
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            for grid in ([math.nan] * 3, [-0.0, -0.0]):
                want = [h for v in grid for h in self._outcome(form, v)]
                assert self._outcome(form, np.array(grid)) == want, grid
        empty = form(np.array([]))
        assert empty.shape == (0,) and empty.dtype == float

    def test_nan_maps_to_nan(self, form):
        # not to a value: a nan power is not read as one past the double range
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert math.isnan(form(math.nan))
            assert np.isnan(form(np.full(3, math.nan))).all()


def scalar_path_draws(seed: int, n: int, db=(0.0, 40.0)):
    """Seeded parameter points over the whole rate box, half of them put
    right next to the removable singularity lambda_sd = lambda_srd, with
    gamma uniform in dB over db."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        lsd, lsr, lrd = np.exp(rng.uniform(np.log(0.2), np.log(5.0), 3))
        if i % 2:
            rel = rng.choice((-1.0, 1.0)) * 10 ** rng.uniform(-12.0, -1.0)
            lsd = (math.sqrt(lsr) + math.sqrt(lrd)) ** 2 * (1.0 + rel)
        gamma = 10 ** (rng.uniform(*db) / 10)
        out.append(ChannelParams(gamma=gamma, lambda_sd=lsd, lambda_sr=lsr, lambda_rd=lrd))
    return out


class TestScalarPath:
    """A scalar power runs the array formula in Python floats: every scalar
    call equals its element of the array call bit for bit."""

    XS = np.concatenate(([0.0], np.geomspace(1e-5, 50.0, 60)))

    @pytest.mark.parametrize("k", (2, 5, 10, 20, 30))
    def test_scalar_equals_array_bitwise(self, k):
        table = series_coeffs(1.0, k)
        checked = 0
        for p in scalar_path_draws(k, 16):
            try:
                co = combined_cdf_coeffs(p, table)
            except ValueError as exc:  # skips the colliding rates alone
                assert "Use combined_cdf_exact or Monte Carlo" in str(exc), p
                continue
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                for f in (
                    lambda x: combined_cdf(p, co, x),
                    lambda x: combined_cdf(p, co, x, clamp=False),
                    lambda x: combined_pdf(p, co, x),
                ):
                    vec = f(self.XS)
                    one = np.array([f(float(x)) for x in self.XS])
                    assert np.array_equal(one.view(np.uint64), vec.view(np.uint64)), p
            checked += 1
        assert checked >= 12

    def test_scalar_types_return_python_float(self):
        co = unit_coeffs()
        for x, same in ((0.5, 0.5), (2, 2.0), (np.float64(0.5), 0.5), (np.array(0.5), 0.5)):
            for f in (combined_cdf, combined_pdf):
                out = f(UNIT, co, x)
                assert type(out) is float, (f, type(x))
                assert out == f(UNIT, co, same)
            assert type(combined_cdf(UNIT, co, x, clamp=False)) is float

    def test_negative_scalar_rejected(self):
        co = unit_coeffs()
        for x in (-1e-300, -1, np.float64(-0.5), np.array(-0.5)):
            for f in (combined_cdf, combined_pdf):
                with pytest.raises(ValueError):
                    f(UNIT, co, x)


class TestCombinedPdf:
    def test_normalizes_to_one(self):
        for k in (2, 5, 10):
            co = unit_coeffs(k)
            total = adaptive_quad(
                lambda v: combined_pdf(UNIT, co, v),
                0.0,
                200.0,
                abs_tol=1e-13,
                rel_tol=1e-12,
                limit=300,
            )
            assert abs(total - 1.0) < 1e-9, k

    def test_matches_cdf_derivative(self):
        co = unit_coeffs()
        worst = 0.0
        for x in np.linspace(0.1, 10.0, 34):
            h = 1e-6 * max(float(x), 1.0)
            fd = (
                combined_cdf(UNIT, co, float(x) + h, clamp=False)
                - combined_cdf(UNIT, co, float(x) - h, clamp=False)
            ) / (2 * h)
            pdf = combined_pdf(UNIT, co, float(x))
            worst = max(worst, abs(pdf - fd) / max(abs(pdf), 1e-12))
        assert worst < 1e-6

    def test_depth_zero_derivative(self):
        # the k = 0 series has a constant polynomial part, so its density
        # polynomial is the constant -lambda_srd cols[0] = -A lambda_sd
        co = unit_coeffs(0)
        h = 1e-6
        for x in (0.5, 1.0, 3.0):
            fd = (
                combined_cdf(UNIT, co, x + h, clamp=False)
                - combined_cdf(UNIT, co, x - h, clamp=False)
            ) / (2 * h)
            assert combined_pdf(UNIT, co, x) == pytest.approx(fd, rel=1e-6), x

    def test_finite_at_origin(self):
        # the model's density is 0 at the origin, and the series PDF is
        # exactly 0 there: the density polynomial's constant is -A lambda_sd,
        # the direct-path term's value at 0
        xs = np.array([0.0, 0.5])
        points = [UNIT] + [p for p in scalar_path_draws(11, 12)[::2]]
        for k in range(31):
            table = series_coeffs(1.0, k)
            for p in points:
                co = combined_cdf_coeffs(p, table)
                assert combined_pdf(p, co, 0.0) == 0.0, (k, p)
                assert combined_pdf(p, co, xs)[0] == 0.0, (k, p)


class TestCombinedCdfExact:
    def test_zero_at_origin(self):
        assert combined_cdf_exact(UNIT, 0.0) == 0.0

    def test_series_tight_at_30db(self):
        # measured sup distance 1.05e-4 on [0, 10]
        co = unit_coeffs()
        sup = max(
            abs(combined_cdf(UNIT, co, float(x)) - combined_cdf_exact(UNIT, float(x)))
            for x in np.linspace(0.0, 10.0, 41)
        )
        assert sup < 1e-2

    @pytest.mark.parametrize("x", (1e5, 1e40, math.inf))
    def test_one_far_past_the_direct_path_mass(self, x):
        # quadrature over all of [0, x] missed the mass near 0 and read
        # 2e-45 at 1e5 and 0 from 1e6 on; at inf srd_cdf was inf * 0 * 0
        assert combined_cdf_exact(UNIT, x) == 1.0

    def test_low_snr_deviation_is_bounded(self):
        # at 0 dB the high-SNR form is visibly biased; the measured sup
        # deviation is 5.75e-2, reported here as a sanity envelope rather
        # than a accuracy claim
        p = ChannelParams(gamma=1.0, lambda_sd=1.0, lambda_sr=1.0, lambda_rd=1.0)
        co = combined_cdf_coeffs(p, TABLE10)
        sup = max(
            abs(combined_cdf(p, co, float(x)) - combined_cdf_exact(p, float(x)))
            for x in np.linspace(0.0, 10.0, 21)
        )
        assert 0.0 < sup < 0.1


def oracle_srd_cdf(p: ChannelParams, x: float) -> float:
    """srd_cdf's formula with K_1 from the quadrature oracle."""
    if x == 0.0:
        return 0.0
    z = 2.0 * math.sqrt(p.lambda_p * x * (x + 1.0 / p.gamma))
    tail = z * math.exp(-p.lambda_s * x) * reference.bessel_k(1.0, z)
    return min(max(1.0 - tail, 0.0), 1.0)


def oracle_srd_pdf(p: ChannelParams, x: float) -> float:
    """srd_pdf's formula with K_0/K_1 from the quadrature oracle."""
    inv_g = 1.0 / p.gamma
    zeta = math.sqrt(p.lambda_p * x * (x + inv_g))
    k0 = reference.bessel_k(0.0, 2.0 * zeta)
    k1 = reference.bessel_k(1.0, 2.0 * zeta)
    return 2.0 * math.exp(-p.lambda_s * x) * (
        p.lambda_p * (2.0 * x + inv_g) * k0 + p.lambda_s * zeta * k1
    )


def rel_gap(a: float, b: float) -> float:
    return abs(a - b) / abs(b) if b else abs(a)


class TestExactModelAgainstOracle:
    """scipy's K_0/K_1 in the exact model, audited by the quadrature oracle."""

    RATES = ((0.3, 2.5), (1.7, 4.0))  # (lambda_sr, lambda_rd)

    def test_srd_cdf_and_pdf_match_oracle(self):
        # measured worst relative gap 2.1e-15 (1 - F) and 1.9e-15 (pdf)
        xs = np.geomspace(1e-6, 15.0, 40)
        worst_sf = worst_pdf = 0.0
        for gamma in (1.0, 1e3, 1e6):
            for lsr, lrd in self.RATES:
                p = ChannelParams(gamma=gamma, lambda_sd=1.0, lambda_sr=lsr, lambda_rd=lrd)
                for x in map(float, xs):
                    worst_sf = max(
                        worst_sf, rel_gap(1.0 - srd_cdf(p, x), 1.0 - oracle_srd_cdf(p, x))
                    )
                    worst_pdf = max(worst_pdf, rel_gap(srd_pdf(p, x), oracle_srd_pdf(p, x)))
        assert worst_sf < 1e-12
        assert worst_pdf < 1e-12

    def test_combined_cdf_exact_matches_oracle_convolution(self):
        # measured gaps 0, 2.6e-12 and 4.4e-15 relative; at gamma = 1e3 the
        # default-spec quadrature here is the less accurate side (see
        # TestExactPanels.test_default_spec_is_the_looser_side)
        for gamma, (lsr, lrd), x in (
            (1.0, self.RATES[0], 0.7),
            (1e3, self.RATES[1], 2.0),
            (1e6, (1.0, 1.0), 5.0),
        ):
            p = ChannelParams(gamma=gamma, lambda_sd=0.6, lambda_sr=lsr, lambda_rd=lrd)
            lam = p.lambda_sd
            want = adaptive_quad(
                lambda v: lam * math.exp(-lam * v) * oracle_srd_cdf(p, x - v), 0.0, x
            )
            assert rel_gap(combined_cdf_exact(p, x), want) < 1e-10, (gamma, x)

    def test_no_nested_quadrature(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the exact model must not call the quadrature oracle")

        monkeypatch.setattr(reference, "bessel_k", refuse)
        assert 0.0 < srd_cdf(UNIT, 0.5) < 1.0
        assert srd_pdf(UNIT, 0.5) > 0.0
        assert 0.0 < combined_cdf_exact(UNIT, 1.0) < 1.0
        # far in the tail K_1 and K_0 underflow to 0: no NaN, no negative mass
        assert srd_cdf(UNIT, 1e3) == 1.0
        pdf = srd_pdf(UNIT, 1e3)
        assert math.isfinite(pdf) and pdf >= 0.0

    def test_tail_at_infinity(self):
        # exp(-lambda_s x) is 0, and so is the tail, where the formulas
        # would read inf * 0
        assert (srd_cdf(UNIT, math.inf), srd_pdf(UNIT, math.inf)) == (1.0, 0.0)


def adaptive_cdf_exact(p: ChannelParams, x: float) -> float:
    """The exact CDF of D + S by adaptive quadrature, one point at a time:
    integral_0^x lambda_sd exp(-lambda_sd v) F_S(x - v) dv over
    v <= 745 / lambda_sd, past which the direct-path density holds no mass
    a double can hold, at relative 1e-14, absolute 1e-15 and up to 2000
    subdivisions (adaptive_quad's default is 1e-10, 1e-12 and 200).

    The range is cut at v = x - x 10**-k, k = 1..12, toward the end where
    F_S(x - v) rises from 0.  Where S has its mass within a sliver of 0,
    one quadrature over the whole range misses that mass: 1.45e-6 at
    -20 dB, lambda_sd = 0.2, both hops at rate 5 and x = 20, the value
    combined_cdf_exact returned before it integrated on fixed panels.
    QUADPACK's roundoff verdict is accepted, as relative 1e-14 is below the
    ~50 ulp it certifies and it then returns its value at double accuracy;
    any other verdict fails.
    """
    from scipy import integrate

    if x == 0.0:
        return 0.0
    lam = p.lambda_sd
    hi = min(x, 745.0 / lam)
    cuts = [0.0] + [x - x * 10.0**-k for k in range(1, 13) if x - x * 10.0**-k < hi] + [hi]
    total = 0.0
    for a, b in zip(cuts, cuts[1:]):
        out = integrate.quad(
            lambda v: lam * math.exp(-lam * v) * srd_cdf(p, x - v), a, b,
            epsabs=1e-15, epsrel=1e-14, limit=2000, full_output=1,
        )
        assert len(out) == 3 or "occurrence of roundoff error" in out[3], out[3]
        total += out[0]
    return total


def _unit_db(db: float) -> ChannelParams:
    return ChannelParams(gamma=10 ** (db / 10), lambda_sd=1.0, lambda_sr=1.0, lambda_rd=1.0)


# (parameters, powers): the validate audit grid, the dist default grid, a
# gamma sweep at unit rates out to x = 1e3 / lambda_sd, seeded draws over
# the rate box (the lambda_sd ~ lambda_srd band kept) out to the same
# reach, fast hops at -20 dB, where S has its mass within 1e-3 of 0, a
# direct path 100 to 2.5e7 times faster than lambda_srd, one 2.5e11 to
# 2.5e299 times faster, where expm1(lambda_sd x) overflows and u(t) takes
# its logarithmic form, and a relayed path whose mass sits within 1e-9 of 0
# (-90 dB, or hops at rate 1e9), where the panels are graded further
# toward t = 0
SWEEP = {
    "audit-60dB": [(_unit_db(60.0), np.linspace(0.0, 10.0, 101))],
    "audit-0dB": [(_unit_db(0.0), np.linspace(0.0, 10.0, 101))],
    "dist": [(_unit_db(db), np.linspace(0.0, 6.0, 61)) for db in (0.0, 20.0, 40.0)],
    "gamma": [
        (_unit_db(db), np.geomspace(1e-6, 1e3, 19)) for db in (-20, 0, 20, 40, 60, 80, 100)
    ],
    "draws": [
        (p, np.geomspace(1e-4, 1e3, 15) / p.lambda_sd)
        for p in scalar_path_draws(15, 10, db=(-20.0, 100.0))
    ],
    "fast-hops": [
        (ChannelParams(gamma=0.01, lambda_sd=0.2, lambda_sr=5.0, lambda_rd=5.0),
         np.linspace(0.0, 40.0, 21))
    ],
    "fast-direct": [
        (ChannelParams(gamma=1e3, lambda_sd=lam, lambda_sr=1.0, lambda_rd=1.0),
         np.geomspace(1e-3, 30.0, 16))
        for lam in (400.0, 1e4, 1e8)
    ],
    "fastest-direct": [
        (ChannelParams(gamma=1e3, lambda_sd=lam, lambda_sr=1.0, lambda_rd=1.0),
         np.geomspace(1e-3, 10.0, 16))
        for lam in (1e12, 1e22, 1e100, 1e300)
    ],
    "faint-relay": [
        (ChannelParams(gamma=1e-9, lambda_sd=1.0, lambda_sr=1.0, lambda_rd=1.0),
         np.geomspace(1e-3, 30.0, 16)),
        (ChannelParams(gamma=1e3, lambda_sd=1.0, lambda_sr=1e9, lambda_rd=1e9),
         np.geomspace(1e-3, 30.0, 16)),
    ],
}


class TestExactPanels:
    """combined_cdf_exact's fixed Gauss-Legendre panels against the
    adaptive route, adaptive_cdf_exact."""

    @pytest.mark.parametrize("name", SWEEP)
    def test_within_1e13_of_the_tight_adaptive_route(self, name):
        # measured worst 5.6e-16 over the 721 points of the other groups
        # (dist, 20 dB, x = 3.3), 6.7e-16 in fast-direct (lambda_sd = 1e8,
        # x = 15.1) and 3.3e-16 in fastest-direct, on the correctly rounded
        # 20-node table; none raises, so every error estimate stays within
        # EXACT_ABS_TOL
        worst = 0.0
        for p, xs in SWEEP[name]:
            got = combined_cdf_exact(p, xs)
            for x, value in zip(xs.tolist(), got.tolist()):
                worst = max(worst, abs(value - adaptive_cdf_exact(p, x)))
        assert worst <= 1e-13, name

    def test_default_spec_is_the_looser_side(self):
        # the 2.6e-12 relative gap at gamma = 1e3 in
        # test_combined_cdf_exact_matches_oracle_convolution is its
        # default-spec quadrature's: the tight route is 1.7e-12 from it and
        # 1.1e-16 from the panels
        p = ChannelParams(gamma=1e3, lambda_sd=0.6, lambda_sr=1.7, lambda_rd=4.0)
        lam = p.lambda_sd
        loose = adaptive_quad(
            lambda v: lam * math.exp(-lam * v) * oracle_srd_cdf(p, 2.0 - v), 0.0, 2.0
        )
        tight = adaptive_cdf_exact(p, 2.0)
        assert abs(combined_cdf_exact(p, 2.0) - tight) < 1e-15
        assert abs(loose - tight) > 1e-12

    def test_scalar_equals_array_bitwise(self):
        xs = np.concatenate(([0.0], np.geomspace(1e-9, 1e3, 60), [1e40, math.inf]))
        # lambda_sd = 400: expm1(lambda_sd x) from 4e-7 to inf takes 0 to 32
        # extra levels toward t = 0, and each point gets the value it gets
        # alone
        fast = ChannelParams(gamma=1e3, lambda_sd=400.0, lambda_sr=1.0, lambda_rd=1.0)
        for p in [UNIT, fast] + scalar_path_draws(5, 6, db=(-20.0, 100.0)):
            for f, grid in ((srd_cdf, xs), (srd_pdf, xs[1:]), (combined_cdf_exact, xs)):
                vec = f(p, grid)
                one = np.array([f(p, x) for x in grid.tolist()])
                assert np.array_equal(one.view(np.uint64), vec.view(np.uint64)), (f, p)
                assert type(f(p, grid[1])) is float and type(f(p, np.array(grid[1]))) is float
                assert f(p, grid[:62].reshape(2, 31)).shape == (2, 31)

    def test_grid_larger_than_one_pass(self):
        # 1024 points per pass: a longer grid takes two, with the same bits
        xs = np.linspace(0.0, 12.0, 1500)
        whole = combined_cdf_exact(UNIT, xs)
        parts = np.concatenate(
            [combined_cdf_exact(UNIT, xs[:700]), combined_cdf_exact(UNIT, xs[700:])]
        )
        assert np.array_equal(whole.view(np.uint64), parts.view(np.uint64))

    def test_fast_direct_path_past_expm1(self):
        # lambda_sd = 1e22 with unit hops: at x = 1e-23 lambda_sd x is 0.1,
        # and u(t) takes its log1p form; at 1e-3 and 1 expm1 overflows, and
        # it takes its logarithmic form, in the same pass
        p = ChannelParams(gamma=1e3, lambda_sd=1e22, lambda_sr=1.0, lambda_rd=1.0)
        xs = np.array([1e-23, 1e-3, 1.0])
        got = combined_cdf_exact(p, xs)
        for x, value in zip(xs.tolist(), got.tolist()):
            assert abs(value - adaptive_cdf_exact(p, x)) <= 1e-13, x

    def test_refuses_past_its_error_bound(self, monkeypatch):
        # a bound below every estimate: the pass raises with the estimate
        # attached, which the real bound would have let through
        monkeypatch.setattr(channel, "EXACT_ABS_TOL", 1e-300)
        with pytest.raises(QuadratureError, match="error estimate") as info:
            combined_cdf_exact(UNIT, np.array([0.5, 1.0]))
        assert 1e-300 < info.value.estimate <= EXACT_ABS_TOL


class TestMinboundBaseline:
    def test_hypoexponential_value(self):
        # rates 1 and 2: F(1) = 1 - 2 e**-1 + e**-2
        exact = 1.0 - 2.0 * math.exp(-1.0) + math.exp(-2.0)
        assert minbound_cdf(UNIT, 1.0) == pytest.approx(exact, rel=1e-14)
        assert minbound_cdf(UNIT, 1.0) == pytest.approx(0.39957640089372803, rel=1e-14)

    def test_equal_rate_erlang_branch(self):
        # lambda_sd = 2 meets lambda_s = 2: the same formula gives the
        # Erlang(2) CDF
        p = ChannelParams(gamma=10.0, lambda_sd=2.0, lambda_sr=1.0, lambda_rd=1.0)
        for x in (0.3, 1.0, 2.5):
            expected = 1.0 - math.exp(-2.0 * x) * (1.0 + 2.0 * x)
            assert minbound_cdf(p, x) == pytest.approx(expected, rel=1e-12), x

    @pytest.mark.parametrize("rel", (0.0, 1e-12, 1e-9, 1e-4, 0.1, 3.0, -0.5))
    def test_matches_hypoexponential_at_every_spacing(self, rel):
        # lambda_sd = 2 (1 + rel) against lambda_s = 2, by 50-digit mpmath:
        # a difference quotient of two exponentials loses digits as the
        # rates meet, and a switch to Erlang(2) at some spacing jumps.
        # Measured worst: 2.7e-13 (CDF, at x = 1e-3), 3e-16 (PDF)
        p = ChannelParams(gamma=10.0, lambda_sd=2.0 * (1.0 + rel), lambda_sr=1.0, lambda_rd=1.0)
        xs = np.concatenate((np.geomspace(1e-3, 0.1, 10), np.linspace(0.2, 20.0, 40)))
        cdfs, pdfs = minbound_cdf(p, xs), minbound_pdf(p, xs)
        with mp.workdps(50):
            a, b = mp.mpf(p.lambda_sd), mp.mpf(p.lambda_s)
            for i, x in enumerate(xs.tolist()):
                ea, eb = mp.exp(-a * x), mp.exp(-b * x)
                if a == b:
                    cdf, pdf = 1 - ea * (1 + a * x), a * a * x * ea
                else:
                    cdf, pdf = 1 - (b * ea - a * eb) / (b - a), a * b * (ea - eb) / (b - a)
                assert abs(cdfs[i] - cdf) <= 5e-13 * cdf, (rel, x)
                assert abs(pdfs[i] - pdf) <= 2e-15 * pdf, (rel, x)
                assert (minbound_cdf(p, x), minbound_pdf(p, x)) == (cdfs[i], pdfs[i])

    @staticmethod
    def _hypoexp_cdf(a: float, b: float, x: float) -> float:
        # by 600-digit mpmath: F is 1 less terms within 1e-200 of 1 at the
        # smallest powers below, where 50 and 80 digits read 0
        with mp.workdps(600):
            a, b, x = mp.mpf(a), mp.mpf(b), mp.mpf(x)
            if a == b:
                return 1 - mp.exp(-a * x) * (1 + a * x)
            return 1 - (b * mp.exp(-a * x) - a * mp.exp(-b * x)) / (b - a)

    @pytest.mark.parametrize("rel", (None, 0.0, 1e-12, 1e-9, 1e-4, 0.1, 3.0, -0.5))
    def test_small_powers_keep_their_digits(self, rel):
        # unit rates and the spacings of the test above: the closed form's
        # two terms cancel toward the origin (6.1e-7 relative at unit rates,
        # x = 1e-10), which its power series does not
        p = UNIT if rel is None else ChannelParams(10.0, 2.0 * (1.0 + rel), 1.0, 1.0)
        xs = [1e-10, 1e-8, 1e-6, 1e-4, 1e-3]
        got = minbound_cdf(p, np.array(xs)).tolist()
        assert got == [minbound_cdf(p, x) for x in xs]
        for x, g in zip(xs, got):
            want = self._hypoexp_cdf(p.lambda_sd, p.lambda_s, x)
            assert abs(g - want) <= 1e-15 * want, (rel, x, g)

    def test_cdf_at_rates_near_the_doubles(self):
        # lambda_sd = lambda_s = 1e200: F = 5e-201 at x = 1e-300, which the
        # closed form read as 0
        p = ChannelParams(1.0, 1e200, 1e200 - 1.0, 1.0)
        assert p.lambda_sd == p.lambda_s
        for x in (1e-300, 1e-250, 1e-210):
            want = self._hypoexp_cdf(p.lambda_sd, p.lambda_s, x)
            assert abs(minbound_cdf(p, x) - want) <= 1e-15 * want, x

    def test_pdf_at_rates_whose_product_overflows(self):
        # lambda_sd = lambda_s = 1e200: the Erlang(2) density a**2 x exp(-a x)
        # is a double, 1e100 at x = 1e-300, where a * b = 1e400 overflowed to
        # inf (inf * 0 = nan at x = 0); by 50-digit mpmath, rounded
        p = ChannelParams(1.0, 1e200, 1e200, 1.0)
        xs = [0.0, 1e-300, 1e-200, 1.0]
        with mp.workdps(50):
            a = mp.mpf(p.lambda_sd)
            want = [float(a * a * x * mp.exp(-a * x)) for x in xs]
        got = minbound_pdf(p, np.array(xs)).tolist()
        assert got == [minbound_pdf(p, x) for x in xs]
        for g, w in zip(got, want):
            assert abs(g - w) <= 2e-15 * w, (g, w)

    def test_ends_at_one_and_zero(self):
        assert (minbound_cdf(UNIT, math.inf), minbound_pdf(UNIT, math.inf)) == (1.0, 0.0)
        assert minbound_cdf(UNIT, np.array([0.0, math.inf])).tolist() == [0.0, 1.0]

    def test_equal_rates_end_at_one_and_zero(self):
        # lambda_sd = lambda_s = 2: exp(-a v) v was 0 * inf = nan at v = inf
        p = ChannelParams(gamma=10.0, lambda_sd=2.0, lambda_sr=1.0, lambda_rd=1.0)
        assert (minbound_cdf(p, math.inf), minbound_pdf(p, math.inf)) == (1.0, 0.0)
        xs = np.array([1.0, math.inf])
        assert minbound_cdf(p, xs).tolist() == [minbound_cdf(p, 1.0), 1.0]
        assert minbound_pdf(p, xs).tolist() == [minbound_pdf(p, 1.0), 0.0]

    def test_pdf_normalizes(self):
        total = adaptive_quad(lambda x: minbound_pdf(UNIT, x), 0.0, 60.0)
        assert abs(total - 1.0) < 1e-9

    def test_pdf_matches_cdf_derivative(self):
        h = 1e-6
        for x in (0.4, 1.0, 3.0):
            fd = (minbound_cdf(UNIT, x + h) - minbound_cdf(UNIT, x - h)) / (2 * h)
            assert minbound_pdf(UNIT, x) == pytest.approx(fd, rel=1e-7), x

    def test_bound_underestimates_outage(self):
        # min(X, Y) >= XY/(X + Y + 1/gamma) pointwise, so the bound's CDF
        # sits below the exact relayed-path CDF everywhere: the baseline
        # is optimistic about outage, not pessimistic
        lam_s = UNIT.lambda_s
        for x in np.linspace(0.05, 5.0, 25):
            bound_cdf = 1.0 - math.exp(-lam_s * float(x))
            assert bound_cdf <= srd_cdf(UNIT, float(x)) + 1e-12

    def test_combined_bound_direction(self):
        # same ordering after adding the shared direct-path power
        for x in (0.5, 1.0, 2.0, 4.0):
            assert minbound_cdf(UNIT, x) <= combined_cdf_exact(UNIT, x) + 1e-9
