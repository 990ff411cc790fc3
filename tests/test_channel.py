"""Relay channel statistics: exact relayed-path CDF/PDF, the series CDF of
the combined power, its coefficients, the exact convolution audit and the
min-of-hops baseline.

Monte Carlo cross-checks in this file use 1e7 samples and finish in a few
seconds each; the heavyweight figure-scale comparisons live in the
acceptance suite.
"""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from afrelay import reference
from afrelay.bessel_series import series_coeffs
from afrelay.channel import (
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
from afrelay.montecarlo import SimConfig, relay_power, simulate
from afrelay.reference import QuadratureSpec, adaptive_quad

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

    def test_derived_combinations(self):
        p = ChannelParams(gamma=10.0, lambda_sd=1.0, lambda_sr=2.0, lambda_rd=0.5)
        assert p.lambda_p == pytest.approx(1.0)
        assert p.lambda_s == pytest.approx(2.5)
        assert p.lambda_srd == pytest.approx((math.sqrt(2.0) + math.sqrt(0.5)) ** 2)
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
            QuadratureSpec(1e-10, 1e-9, 300),
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
        with pytest.raises(DegenerateParameterError, match="Perturb lambda_sd"):
            combined_cdf_coeffs(p, TABLE10)

    def test_wrong_order_table_rejected(self):
        with pytest.raises(ValueError):
            combined_cdf_coeffs(UNIT, series_coeffs(2.0, 5))

    def test_immutable(self):
        co = unit_coeffs(4)
        assert isinstance(co.cols, tuple) and len(co.cols) == co.k + 1 == 5
        assert all(type(c) is float for c in co.cols)
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


def scalar_path_draws(seed: int, n: int):
    """Seeded parameter points over the whole rate box, half of them put
    right next to the removable singularity lambda_sd = lambda_srd."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        lsd, lsr, lrd = np.exp(rng.uniform(np.log(0.2), np.log(5.0), 3))
        if i % 2:
            rel = rng.choice((-1.0, 1.0)) * 10 ** rng.uniform(-12.0, -1.0)
            lsd = (math.sqrt(lsr) + math.sqrt(lrd)) ** 2 * (1.0 + rel)
        gamma = 10 ** (rng.uniform(0.0, 40.0) / 10)
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
            except DegenerateParameterError:
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
                QuadratureSpec(1e-13, 1e-12, 300),
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
        # the k = 0 series has a constant polynomial part, whose derivative
        # is the zero polynomial
        co = unit_coeffs(0)
        h = 1e-6
        for x in (0.5, 1.0, 3.0):
            fd = (
                combined_cdf(UNIT, co, x + h, clamp=False)
                - combined_cdf(UNIT, co, x - h, clamp=False)
            ) / (2 * h)
            assert combined_pdf(UNIT, co, x) == pytest.approx(fd, rel=1e-6), x

    def test_finite_at_origin(self):
        v = combined_pdf(UNIT, unit_coeffs(), 0.0)
        assert math.isfinite(v)
        assert abs(v) < 1e-12  # direct path density cancels the c=1 terms here


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

    @pytest.mark.parametrize("x", (1e5, 1e40))
    def test_one_far_past_the_direct_path_mass(self, x):
        # quadrature over all of [0, x] missed the mass near 0 and read
        # 2e-45 at 1e5 and 0 from 1e6 on
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


# relative-only tolerance for the quadrature oracle: with the default
# absolute floor of 1e-12, K_nu(z) loses relative accuracy for z >~ 20
ORACLE_SPEC = QuadratureSpec(abs_tol=1e-300, rel_tol=1e-12)


def oracle_srd_cdf(p: ChannelParams, x: float) -> float:
    """srd_cdf's formula with K_1 from the quadrature oracle."""
    if x == 0.0:
        return 0.0
    z = 2.0 * math.sqrt(p.lambda_p * x * (x + 1.0 / p.gamma))
    tail = z * math.exp(-p.lambda_s * x) * reference.bessel_k(1.0, z, ORACLE_SPEC)
    return min(max(1.0 - tail, 0.0), 1.0)


def oracle_srd_pdf(p: ChannelParams, x: float) -> float:
    """srd_pdf's formula with K_0/K_1 from the quadrature oracle."""
    inv_g = 1.0 / p.gamma
    zeta = math.sqrt(p.lambda_p * x * (x + inv_g))
    k0 = reference.bessel_k(0.0, 2.0 * zeta, ORACLE_SPEC)
    k1 = reference.bessel_k(1.0, 2.0 * zeta, ORACLE_SPEC)
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
        # the outer quadrature lands on the same value: measured gap 0
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


class TestMinboundBaseline:
    def test_hypoexponential_value(self):
        # rates 1 and 2: F(1) = 1 - 2 e**-1 + e**-2
        exact = 1.0 - 2.0 * math.exp(-1.0) + math.exp(-2.0)
        assert minbound_cdf(UNIT, 1.0) == pytest.approx(exact, rel=1e-14)
        assert minbound_cdf(UNIT, 1.0) == pytest.approx(0.39957640089372803, rel=1e-14)

    def test_equal_rate_erlang_branch(self):
        # lambda_sd = 2 meets lambda_s = 2: the hypoexponential formula
        # degenerates and the Erlang(2) form takes over
        p = ChannelParams(gamma=10.0, lambda_sd=2.0, lambda_sr=1.0, lambda_rd=1.0)
        for x in (0.3, 1.0, 2.5):
            expected = 1.0 - math.exp(-2.0 * x) * (1.0 + 2.0 * x)
            assert minbound_cdf(p, x) == pytest.approx(expected, rel=1e-12), x

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
