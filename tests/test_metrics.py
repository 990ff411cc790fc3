"""Performance metrics on top of the series CDF: exponential integral,
moment table, outage, bit error probability and ergodic capacity.

Every closed form has a quadrature twin in the package; the tests here pit
the two routes against each other and against mpmath recomputations at
higher precision.
"""

import hashlib
import math
import re
import warnings

import mpmath as mp
import numpy as np
import pytest

from afrelay.bessel_series import K_MAX, CoefficientTable, series_coeffs
from afrelay.channel import (
    ChannelParams,
    SeriesCdfCoeffs,
    combined_cdf,
    combined_cdf_coeffs,
    combined_cdf_exact,
    combined_pdf,
)
from afrelay.metrics import (
    _t_moments,
    bit_error_prob,
    bit_error_prob_quadrature,
    capacity,
    capacity_quadrature,
    e1_scaled,
    outage,
)
from afrelay.montecarlo import SimConfig, simulate
from afrelay.reference import adaptive_quad
from afrelay.validation import _draws

TABLE10 = series_coeffs(1.0, 10)


def unit_params(gamma: float) -> ChannelParams:
    return ChannelParams(gamma=gamma, lambda_sd=1.0, lambda_sr=1.0, lambda_rd=1.0)


def unit_coeffs(gamma: float):
    p = unit_params(gamma)
    return p, combined_cdf_coeffs(p, TABLE10)


def direct_coeffs(p: ChannelParams, cols) -> SeriesCdfCoeffs:
    """Coefficients built by hand, deeper than any series table, for the
    model of p: their order-1 table has one (unread) entry per column."""
    table = CoefficientTable(nu=1.0, a=(0.0,) * len(cols))
    return SeriesCdfCoeffs(cols, table, p.lambda_sd, p.lambda_p, p.lambda_s)


class TestE1:
    def test_scaled_against_mpmath(self):
        # both sides of the scipy / asymptotic-series switch at x = 700
        mp.mp.dps = 40
        xs = (*np.geomspace(1e-10, 1e6, 600).tolist(), 699.999, 700.0, 700.001)
        for x in xs:
            ref = float(mp.exp(x) * mp.e1(x))
            assert abs(e1_scaled(x) - ref) <= 2e-15 * abs(ref), x

    def test_series_cf_handoff_is_continuous(self):
        # the implementation switches to the asymptotic series at x = 700
        below = e1_scaled(math.nextafter(700.0, 0.0))
        above = e1_scaled(700.0)
        assert abs(below - above) <= 1e-15 * above

    def test_domain(self):
        for bad in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError):
                e1_scaled(bad)


class TestMomentTable:
    @staticmethod
    def _mp_moment(mu: float, c: int) -> float:
        mp.mp.dps = 40
        f = lambda y: y**c * mp.exp(-mu * y) / (1 + y)
        return float(mp.quad(f, [0, mp.inf]))

    @pytest.mark.parametrize("mu", [0.5, 5.0, 11.9, 12.1, 40.0])
    def test_against_mpmath(self, mu):
        # straddles the recurrence/quadrature switchover at mu = 12
        vals = _t_moments(mu, 10)
        for c in (0, 1, 2, 5, 10):
            ref = self._mp_moment(mu, c)
            assert abs(vals[c] - ref) <= 1e-10 * abs(ref), (mu, c)

    def test_zeroth_is_scaled_e1(self):
        for mu in (0.3, 2.0, 25.0):
            assert _t_moments(mu, 0)[0] == pytest.approx(e1_scaled(mu), rel=1e-10)

    def test_reduction_identity(self):
        # y^c/(1+y) = y^(c-1) - y^(c-1)/(1+y) integrates to
        # T_c + T_{c-1} = (c-1)!/mu^c
        for mu in (0.7, 6.0, 30.0):
            vals = _t_moments(mu, 6)
            for c in range(1, 7):
                lhs = vals[c] + vals[c - 1]
                rhs = math.gamma(c) / mu**c
                assert lhs == pytest.approx(rhs, rel=1e-9), (mu, c)


class TestOutage:
    def test_is_cdf_at_scaled_threshold(self):
        p, co = unit_coeffs(1000.0)
        thr = 37.5
        assert outage(p, co, thr) == combined_cdf(p, co, thr / p.gamma)

    def test_limits(self):
        p, co = unit_coeffs(100.0)
        assert outage(p, co, 1e-9) < 1e-6
        assert outage(p, co, 1e6) == pytest.approx(1.0, abs=1e-9)

    def test_threshold_must_be_positive(self):
        # True was served as a threshold of 1, None and "1" raised TypeError
        p, co = unit_coeffs(100.0)
        for bad in (0.0, math.nan, True, None, "1"):
            with pytest.raises(ValueError, match="snr_threshold must be a real > 0"):
                outage(p, co, bad)
        assert outage(p, co, np.float64(2.0)) == outage(p, co, 2) == outage(p, co, 2.0)

    def test_nonincreasing_in_snr(self):
        # more transmit SNR never hurts at a fixed absolute threshold
        prev = 1.1
        for g_db in np.linspace(-5.0, 35.0, 9):
            p, co = unit_coeffs(10 ** (g_db / 10))
            val = outage(p, co, 2.0)
            assert val <= prev + 1e-12, g_db
            prev = val

    def test_matches_monte_carlo(self):
        # exact-model simulation at 30 dB; closed form carries ~1e-4 of
        # high-SNR truncation bias at this point, well inside 5e-3
        p, co = unit_coeffs(1000.0)
        est = simulate(p, SimConfig(seed=42, samples=10**6), "outage", threshold=1000.0)
        assert abs(outage(p, co, 1000.0) - est.value) < 5e-3


class TestBitErrorProb:
    def test_low_snr_limit_is_half(self):
        # at vanishing SNR every bit is a coin flip
        p, co = unit_coeffs(1e-12)
        val = bit_error_prob(p, co)
        assert val == pytest.approx(0.5, abs=1e-5)
        assert val == pytest.approx(0.4999993928777926, rel=1e-12)

    def test_quadrature_twin_at_20db(self):
        p, co = unit_coeffs(100.0)
        a = bit_error_prob(p, co)
        b = bit_error_prob_quadrature(p, co)
        assert a == pytest.approx(b, rel=1e-9)

    def test_quadrature_twin_across_draws(self):
        # measured worst relative gap 9.9e-10, dominated by the quadrature
        for p in _draws(11):
            co = combined_cdf_coeffs(p, TABLE10)
            a = bit_error_prob(p, co)
            b = bit_error_prob_quadrature(p, co)
            assert a == pytest.approx(b, rel=1e-6), p

    def test_matches_monte_carlo(self):
        # erfc averaged over 1e7 exact-model draws; frozen run gives
        # closed = 3.9557e-5 vs mc = 3.9086e-5 +- 5.3e-7, i.e. |z| = 0.89
        p, co = unit_coeffs(100.0)
        est = simulate(p, SimConfig(seed=42, samples=10**7), "bep", workers=2)
        assert est.std_error > 0.0
        assert abs(bit_error_prob(p, co) - est.value) < 3.0 * est.std_error

    @staticmethod
    def _per_term(p, co):
        # the closed form with Gamma(c + 1/2) from math.gamma term by term
        s = math.fsum(
            col * math.gamma(c + 0.5) / (p.gamma + p.lambda_srd) ** (c + 0.5)
            for c, col in enumerate(co.cols)
        )
        return 0.5 * (
            1.0 - co.A * math.sqrt(p.gamma / (p.gamma + p.lambda_sd))
            + math.sqrt(p.gamma / math.pi) * s
        )

    def test_gamma_table_covers_columns_past_k_max(self):
        # 36 columns, past K_MAX: the terms fall off like c^(-1/2), so a
        # table cut at K_MAX + 1 columns would move the bits
        p = unit_params(1.0)  # gamma + lambda_srd = 5
        cols = [1e-2 * (-5.0) ** c / math.factorial(c) for c in range(36)]
        co = direct_coeffs(p, cols)
        assert co.k > K_MAX
        assert bit_error_prob(p, co).hex() == self._per_term(p, co).hex()

    def test_refuses_where_the_gamma_factor_overflows(self):
        # Gamma(171.5) is the last finite factor: 172 columns give the
        # per-term bits, and 173 refuse where math.gamma overflowed
        p = unit_params(1.0)
        co = direct_coeffs(p, [1e-3] * 172)
        assert bit_error_prob(p, co).hex() == self._per_term(p, co).hex()
        co = direct_coeffs(p, [1e-3] * 173)
        with pytest.raises(OverflowError):
            self._per_term(p, co)
        with pytest.raises(ValueError, match=re.escape(f"leaves the doubles at gamma={p.gamma!r}, k=172")):
            bit_error_prob(p, co)


class TestCapacity:
    def test_quadrature_twin_at_10db(self):
        p, co = unit_coeffs(10.0)
        a = capacity(p, co)
        b = capacity_quadrature(p, co)
        assert a == pytest.approx(1.2097935448750674, rel=1e-12)
        assert a == pytest.approx(b, rel=1e-12)

    def test_quadrature_twin_across_draws(self):
        # measured worst relative gap 3.8e-13
        for p in _draws(11):
            co = combined_cdf_coeffs(p, TABLE10)
            a = capacity(p, co)
            b = capacity_quadrature(p, co)
            assert a == pytest.approx(b, rel=1e-8), p

    def test_nondecreasing_in_snr(self):
        prev = -1.0
        for g_db in np.linspace(-5.0, 35.0, 9):
            p, co = unit_coeffs(10 ** (g_db / 10))
            val = capacity(p, co)
            assert val >= prev - 1e-12, g_db
            prev = val

    def test_monte_carlo_matches_exact_model(self):
        # the simulator against (1/2) integral gamma (1 - F)/(1 + gamma x) dx
        # of the exact CDF F, the fast fall near 0 on a panel of its own;
        # measured z = -0.38, -0.67, -0.77
        points = [unit_params(10 ** (g_db / 10)) for g_db in (0.0, 10.0, 20.0)]
        ests = simulate(points, SimConfig(seed=42, samples=10**6), "capacity", workers=2)
        for p, est in zip(points, ests):

            def integrand(x):
                return p.gamma * (1.0 - combined_cdf_exact(p, x)) / (1.0 + p.gamma * x)

            exact = 0.5 * (adaptive_quad(integrand, 0.0, 1.0) + adaptive_quad(integrand, 1.0, 60.0))
            z = (est.value - exact) / est.std_error
            assert abs(z) <= 3.0, (p.gamma, z)

    def test_small_snr_scales_linearly(self):
        # C ~ (gamma/2) E[D + S] as gamma -> 0, so halving gamma halves C
        p1, co1 = unit_coeffs(1e-6)
        p2, co2 = unit_coeffs(5e-7)
        c1 = capacity(p1, co1)
        c2 = capacity(p2, co2)
        assert c1 == pytest.approx(6.666659500014622e-07, rel=1e-10)
        assert c1 / c2 == pytest.approx(2.0, rel=1e-4)


@pytest.mark.parametrize(
    "metric, k, gamma_db",
    (
        (bit_error_prob, 30, 110.0),
        (capacity, 30, 110.0),
        (bit_error_prob, 20, 160.0),
        (capacity, 20, 160.0),
        # no exception here, but the moment recurrence overflows to inf
        (capacity, 30, 100.0),
    ),
    ids=("bep-30-110dB", "capacity-30-110dB", "bep-20-160dB", "capacity-20-160dB",
         "capacity-30-100dB"),
)
def test_double_range_overflow_names_gamma_and_depth(metric, k, gamma_db):
    # the depth-k terms scale like gamma**k; once they leave the double
    # range the closed form refuses, naming the point, where it raised
    # OverflowError or ZeroDivisionError or returned inf
    p = unit_params(10 ** (gamma_db / 10))
    co = combined_cdf_coeffs(p, series_coeffs(1.0, k))
    with pytest.raises(ValueError, match=re.escape(f"leaves the doubles at gamma={p.gamma!r}, k={k}")):
        metric(p, co)


def _non_unit_points():
    """One draw of well-separated non-unit rates per depth 0-30, with its
    series coefficients."""
    for k, p in enumerate(_draws(5, 31)):
        yield p, combined_cdf_coeffs(p, series_coeffs(1.0, k))


NON_UNIT_XS = np.concatenate(([0.0], np.geomspace(1e-3, 20.0, 40)))


def test_closed_forms_pinned_at_non_unit_rates():
    """Golden over the non-unit points: the CDF (clamped and raw) array
    bytes and the float.hex of outage, BEP and capacity.  Recorded before
    the series PDF got its own density polynomial, which left these bits
    unchanged."""
    h = hashlib.sha256()
    with warnings.catch_warnings():
        # the shallowest depths leave [0, 1] by more than the diagnostic's
        # tolerance; the raw values are part of the golden
        warnings.simplefilter("ignore", RuntimeWarning)
        for p, co in _non_unit_points():
            h.update(combined_cdf(p, co, NON_UNIT_XS).tobytes())
            h.update(combined_cdf(p, co, NON_UNIT_XS, clamp=False).tobytes())
            for v in (outage(p, co, 1.0), bit_error_prob(p, co), capacity(p, co)):
                h.update(float(v).hex().encode())
    assert h.hexdigest() == (
        "902008c7ef8b6278e6f1aea444f34d9eefdccf07b5029b64036c2dd0f819bb67"
    )


def test_series_pdf_pinned_at_non_unit_rates():
    """Golden over the non-unit points: the series PDF array bytes,
    recorded when the PDF became one density polynomial, exactly 0 at the
    origin."""
    h = hashlib.sha256()
    for p, co in _non_unit_points():
        h.update(combined_pdf(p, co, NON_UNIT_XS).tobytes())
    assert h.hexdigest() == (
        "5cbaa7e0dfbb938e536a067c94d484657d58a040a64bdef25f818b1147929ed8"
    )


def _near_degenerate_points():
    """lambda_sd = lambda_srd (1 + rel) at rel = +-1e-1 .. +-1e-4, depths 2,
    5, 10 and 20, for two hop pairs at 10 and 30 dB: the band where the
    coefficient build divides by powers of a small d = lambda_srd - lambda_sd
    and cancels, which the non-unit points skip."""
    for lam_sr, lam_rd in ((1.0, 1.0), (0.5, 3.0)):
        lam_srd = (math.sqrt(lam_sr) + math.sqrt(lam_rd)) ** 2
        for gamma_db in (10.0, 30.0):
            for rel in (1e-1, 1e-2, 1e-3, 1e-4, -1e-1, -1e-2, -1e-3, -1e-4):
                for k in (2, 5, 10, 20):
                    p = ChannelParams(10 ** (gamma_db / 10), lam_srd * (1.0 + rel), lam_sr, lam_rd)
                    yield p, combined_cdf_coeffs(p, series_coeffs(1.0, k))


def test_closed_forms_pinned_near_degenerate_band():
    """Golden over the near-degenerate band: the CDF (clamped and raw) and
    PDF array bytes, and the float.hex of outage, BEP and capacity.
    Recorded before the coefficient build took its powers of d from a
    table.  At the smaller spacings these values are far off the exact
    model; this pins their bits, not their accuracy."""
    h = hashlib.sha256()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for p, co in _near_degenerate_points():
            h.update(combined_cdf(p, co, NON_UNIT_XS).tobytes())
            h.update(combined_cdf(p, co, NON_UNIT_XS, clamp=False).tobytes())
            h.update(combined_pdf(p, co, NON_UNIT_XS).tobytes())
            for v in (outage(p, co, 1.0), bit_error_prob(p, co), capacity(p, co)):
                h.update(float(v).hex().encode())
    assert h.hexdigest() == (
        "738b0a9e109dbc20bed7cf4b409cda9229223f4ddb1a58bfe50dd5488bf29541"
    )


# every consumer of the series coefficients, at one power or threshold
SERIES_FORMS = {
    "combined_cdf": lambda p, co: combined_cdf(p, co, np.linspace(0.0, 6.0, 61)),
    "combined_pdf": lambda p, co: combined_pdf(p, co, 0.5),
    "outage": lambda p, co: outage(p, co, 10.0),
    "bit_error_prob": bit_error_prob,
    "bit_error_prob_quadrature": bit_error_prob_quadrature,
    "capacity": capacity,
    "capacity_quadrature": capacity_quadrature,
}


class TestModelGate:
    @pytest.mark.parametrize("lambda_sd", (4.0, 50.0))
    @pytest.mark.parametrize("form", SERIES_FORMS)
    def test_params_of_another_model_are_refused(self, form, lambda_sd):
        # unit-rate coefficients with lambda_sd = 50 read BEP 0.1315 for
        # 0.001414 and capacity -0.0209 at 20 dB; with 4 (inside the
        # band their own build refuses) BEP 0.0107, with no warning
        _, co = unit_coeffs(100.0)
        p = ChannelParams(gamma=100.0, lambda_sd=lambda_sd, lambda_sr=1.0, lambda_rd=1.0)
        named = f"(lambda_sd, lambda_p, lambda_s) = (1.0, 1.0, 2.0) refuse params at ({lambda_sd!r}, 1.0, 2.0)"
        with pytest.raises(ValueError, match=re.escape(named)):
            SERIES_FORMS[form](p, co)

    @pytest.mark.parametrize("form", SERIES_FORMS)
    def test_swapped_hop_rates_are_the_same_model(self, form):
        # lambda_p and lambda_s are symmetric in the hop rates, so one build
        # serves both orders, bit for bit
        p = ChannelParams(gamma=100.0, lambda_sd=0.7, lambda_sr=2.0, lambda_rd=0.3)
        swapped = ChannelParams(gamma=100.0, lambda_sd=0.7, lambda_sr=0.3, lambda_rd=2.0)
        co = combined_cdf_coeffs(p, TABLE10)
        own = combined_cdf_coeffs(swapped, TABLE10)
        assert (own.cols, own.pdf) == (co.cols, co.pdf)
        want = np.asarray(SERIES_FORMS[form](p, co)).tobytes()
        assert np.asarray(SERIES_FORMS[form](swapped, co)).tobytes() == want
