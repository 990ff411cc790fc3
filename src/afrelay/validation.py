"""Self-checks over every analytical claim the library makes.

Each check recomputes one gate of the release checklist from scratch —
coefficient tables against their reference values, series accuracy against
the quadrature oracle, closed forms against their quadrature twins, and
model predictions against seeded Monte Carlo — and reports pass/fail with
the measured numbers.  The rendered report is deterministic byte for byte
for a fixed (seed, samples, depth): no timestamps, no machine info, fixed
float formatting, and Monte Carlo results that do not depend on the worker
count.

Each gate is implemented here and only here: the acceptance tests call
these checks and assert on their verdicts, so every grid, seed, stencil and
tolerance of the gates is pinned in this module.

Two checks are expected to fail on this build; the section comments on
`check_series_accuracy_grid` and `check_capacity_vs_mc` state the measured
behavior.  A failing check is reported, never silently relaxed.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import metrics, reference
from .montecarlo import SimConfig, simulate as run_simulation
from .bessel_series import evaluate, exp_reciprocal_deriv, series_coeffs
from .channel import (
    ChannelParams,
    combined_cdf,
    combined_cdf_coeffs,
    combined_cdf_exact,
    combined_pdf,
    minbound_pdf,
)

__all__ = ["CheckResult", "run_all", "render_report", "CHECK_NAMES"]


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one validation gate: verdict plus the measured evidence."""

    name: str
    passed: bool
    lines: tuple[str, ...]


def _f(v: float) -> str:
    return f"{v:.10g}"


# printed reference coefficients for order 1: (depth, index, value, sig digits);
# the exact-fraction entries are checked separately at 1e-12 relative
_PRINTED = [
    (2, 2, -0.1333, 4),
    (5, 2, -0.4237, 4),
    (5, 3, 0.1824, 4),
    (5, 4, -0.0375, 3),
    (5, 5, 2.693e-3, 4),
    (10, 2, -0.7047, 4),
    (10, 3, 0.7239, 4),
    (10, 4, -0.5000, 4),
    (10, 5, 0.2111, 4),
    (10, 6, -5.415e-2, 4),
    (10, 7, 8.375e-3, 4),
    (10, 8, -7.55e-4, 3),
    (10, 9, 3.619e-5, 4),
    (10, 10, -7.0724e-7, 5),
]


def _matches_printed(got: float, printed: float, digits: int) -> bool:
    # within one unit of the printed value's last significant digit;
    # the reference table truncates rather than rounds, so half-ulp
    # agreement cannot be demanded
    ulp = 10.0 ** (math.floor(math.log10(abs(printed))) - digits + 1)
    return abs(got - printed) < ulp


def check_coefficient_table() -> CheckResult:
    """Depth-2/5/10 coefficient rows against their printed reference values
    (the exact entries a[0] = 1 and a[1] to 1e-12 relative), plus the exact
    closed form a[1] = 2k/(2k+1) up to the depth cap."""
    mismatches = []
    for k, q, printed, digits in _PRINTED:
        got = float(series_coeffs(1.0, k).a[q])
        if not _matches_printed(got, printed, digits):
            mismatches.append(f"k={k} q={q}: computed {_f(got)} vs printed {_f(printed)}")
    rel_a1 = {
        k: abs(series_coeffs(1.0, k).a[1] - 2 * k / (2 * k + 1)) / (2 * k / (2 * k + 1))
        for k in range(1, 31)
    }
    worst_exact = max(
        max(abs(series_coeffs(1.0, k).a[0] - 1.0), rel_a1[k]) for k in (2, 5, 10)
    )
    worst_a1 = max(rel_a1.values())
    lines = [
        f"printed-value mismatches: {len(mismatches)} of {len(_PRINTED)}",
        *mismatches,
        f"exact entries (a[0], a[1]) worst rel: {_f(worst_exact)}",
        f"a[1] = 2k/(2k+1) worst rel over k=1..30: {_f(worst_a1)} (tol 1e-12)",
    ]
    return CheckResult(
        "coefficient-table",
        not mismatches and worst_exact <= 1e-12 and worst_a1 <= 1e-12,
        tuple(lines),
    )


def check_series_accuracy_grid() -> CheckResult:
    """Truncated series vs quadrature oracle on z = 0.5..8 step 0.5.

    Gate as stated: depth-2 relative error <= 5% everywhere AND depth-10
    strictly better at every point.  Measured behavior: the depth-2 error
    grows past 5% from z = 3 (reaching 131% at z = 8), and at z = 2 the
    depth-2 error happens to cross zero (1.4e-4) so depth 10 (1.1e-3) is
    not an improvement there.  The check reports the failure honestly.
    """
    zs = [0.5 * i for i in range(1, 17)]
    bad5, badstrict = [], []
    worst2 = worst10 = 0.0
    for z in zs:
        oracle = reference.bessel_k(1.0, z)
        r2 = abs(evaluate(1.0, 2, z) - oracle) / oracle
        r10 = abs(evaluate(1.0, 10, z) - oracle) / oracle
        worst2, worst10 = max(worst2, r2), max(worst10, r10)
        if r2 > 0.05:
            bad5.append(f"z={_f(z)}: depth-2 rel {_f(r2)}")
        if not r10 < r2:
            badstrict.append(f"z={_f(z)}: depth-10 {_f(r10)} !< depth-2 {_f(r2)}")
    lines = [
        f"grid points: {len(zs)}, depth-2 worst rel: {_f(worst2)}, depth-10 worst rel: {_f(worst10)}",
        f"depth-2 points above 5%: {len(bad5)}",
        *bad5,
        f"points without strict depth-10 improvement: {len(badstrict)}",
        *badstrict,
    ]
    return CheckResult("series-accuracy-grid", not bad5 and not badstrict, tuple(lines))


def _exp_reciprocal_fd(n: int, beta: float, x: float, h: float) -> float:
    """Central finite difference of order n = 1, 2 or 3 of exp(-beta/u) at x."""
    f = lambda u: math.exp(-beta / u)
    if n == 1:
        return (f(x + h) - f(x - h)) / (2 * h)
    if n == 2:
        return (f(x + h) - 2 * f(x) + f(x - h)) / h**2
    return (f(x + 2 * h) - 2 * f(x + h) + 2 * f(x - h) - f(x - 2 * h)) / (2 * h**3)


def check_proof_identities() -> CheckResult:
    """Fractional-integral identity on the (s, beta, x) grid and the
    reciprocal-exponential derivative formula vs finite differences."""
    worst_frac = 0.0
    for s in (0.2, 0.25, 0.4):
        for beta in (0.5, 1.0, 2.0):
            for x in (0.5, 1.0, 2.0):
                f = lambda t: t ** (-2.0 * s) * math.exp(-beta / t) if t > 0 else 0.0
                lhs = reference.fractional_integral(f, s, x)
                z = beta / (2.0 * x)
                rhs = (
                    beta ** (0.5 - s)
                    / math.sqrt(math.pi * x)
                    * math.exp(-z)
                    * reference.bessel_k(abs(s - 0.5), z)
                )
                worst_frac = max(worst_frac, abs(lhs - rhs) / abs(rhs))

    # beta chosen per order so no derivative root falls near the x grid
    worst_fd = 0.0
    for n, beta in ((1, 1.0), (2, 1.6), (3, 1.6)):
        for x in (0.5, 1.0, 2.0):
            h = (1e-4 if n < 3 else 4e-4) * x
            a = exp_reciprocal_deriv(n, beta, x)
            worst_fd = max(worst_fd, abs(a - _exp_reciprocal_fd(n, beta, x, h)) / abs(a))
    lines = [
        f"fractional-integral identity worst rel over 27-point grid: {_f(worst_frac)} (tol 1e-6)",
        f"derivative formula vs finite differences worst rel: {_f(worst_fd)} (tol 1e-5)",
    ]
    return CheckResult(
        "proof-identities", worst_frac <= 1e-6 and worst_fd <= 1e-5, tuple(lines)
    )


def _unit(gamma_db: float) -> ChannelParams:
    """The reference scenario: unit fading parameters at gamma_db."""
    return ChannelParams(
        gamma=10 ** (gamma_db / 10), lambda_sd=1.0, lambda_sr=1.0, lambda_rd=1.0
    )


@functools.cache
def _unit_coeffs():
    """Depth-10 series coefficients at unit fading rates.  They depend on
    the rates alone, not on gamma or on anything a round varies, so one
    build per process serves every SNR and every check."""
    return combined_cdf_coeffs(_unit(0.0), series_coeffs(1.0, 10))


def _draws(seed: int, n: int = 10):
    """Seeded non-degenerate parameter draws shared by the draw-based checks."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n:
        lsd, lsr, lrd = np.exp(rng.uniform(np.log(0.2), np.log(5.0), 3))
        gdb = rng.uniform(10.0, 40.0)
        p = ChannelParams(
            gamma=10 ** (gdb / 10), lambda_sd=lsd, lambda_sr=lsr, lambda_rd=lrd
        )
        if abs(p.lambda_srd - lsd) >= 0.5:
            out.append(p)
    return out


def check_pdf_normalization(seed: int) -> CheckResult:
    """Unit mass of the series density for 10 parameter draws at every
    tabulated depth, by adaptive quadrature."""
    worst = 0.0
    for p in _draws(seed):
        for k in (2, 5, 10):
            co = combined_cdf_coeffs(p, series_coeffs(1.0, k))
            hi = 200.0 / min(p.lambda_sd, p.lambda_srd)
            total = reference.adaptive_quad(
                lambda v: combined_pdf(p, co, v), 0.0, hi,
                abs_tol=1e-13, rel_tol=1e-12, limit=300,
            )
            worst = max(worst, abs(total - 1.0))
    lines = [f"worst |integral(pdf) - 1| over 10 draws x depths (2,5,10): {_f(worst)} (tol 1e-9)"]
    return CheckResult("pdf-normalization", worst <= 1e-9, tuple(lines))


def check_density_vs_histogram(seed: int, samples: int, workers: int) -> CheckResult:
    """Series density against the Monte Carlo histogram of the exact model,
    and the min-bound baseline's larger deviation, at the reference scenario
    (unit fading parameters, 30 dB)."""
    p = _unit(30.0)
    co = _unit_coeffs()
    cfg = SimConfig(seed=seed, samples=samples)
    edges = np.linspace(0.0, 6.0, 61)
    h = run_simulation(p, cfg, "pdf", edges=edges, workers=workers)
    # never read (the bound's deviation comes from minbound_pdf): kept while
    # perfbench pins this check at 2 Monte Carlo calls, until ROADMAP item 2
    run_simulation(p, cfg, "pdf", edges=edges, workers=workers, minbound=True)
    centers = h.centers
    model = combined_pdf(p, co, centers)
    mc = h.sample_density
    peak = float(model.max())
    dev = float(np.max(np.abs(model - mc)))
    mad_eq = float(np.mean(np.abs(model - mc)))
    mad_min = float(np.mean(np.abs(minbound_pdf(p, centers) - mc)))
    lines = [
        f"max |series pdf - MC density|: {_f(dev)} = {_f(dev / peak)} of peak {_f(peak)} (tol 2% of peak)",
        f"mean abs deviation: series {_f(mad_eq)}, min-bound {_f(mad_min)} (bound must be worse)",
        f"out-of-range mass: below {h.below}, above {h.above} of {h.samples_used}",
    ]
    return CheckResult(
        "density-vs-histogram",
        dev <= 0.02 * peak and mad_min > mad_eq,
        tuple(lines),
    )


def check_bep_closed_form(seed: int) -> CheckResult:
    """Closed-form bit error probability against quadrature of the same
    density for 10 draws, plus monotonicity in SNR."""
    worst = 0.0
    tab = series_coeffs(1.0, 10)
    for p in _draws(seed):
        co = combined_cdf_coeffs(p, tab)
        b = metrics.bit_error_prob(p, co)
        bq = metrics.bit_error_prob_quadrature(p, co)
        worst = max(worst, abs(b - bq) / bq)
    unit = _unit_coeffs()
    beps = [metrics.bit_error_prob(_unit(gdb), unit) for gdb in np.arange(-5.0, 35.01, 2.5)]
    mono = bool(np.all(np.diff(beps) <= 0.0))
    lines = [
        f"closed vs quadrature worst rel over 10 draws: {_f(worst)} (tol 1e-6)",
        f"monotone nonincreasing on -5..35 dB: {mono}",
    ]
    return CheckResult("bep-closed-form", worst <= 1e-6 and mono, tuple(lines))


def check_capacity_vs_mc(seed: int, samples: int, workers: int) -> CheckResult:
    """Closed-form capacity against exact-model Monte Carlo at five SNRs,
    plus the two-relay gain.

    Gate as stated: agreement within 3 standard errors at 1e7 samples.
    Measured behavior: the closed form inherits the high-SNR series bias
    (+2.4e-2 nats at 0 dB down to +1.0e-3 at 20 dB) while the MC standard
    error is ~1e-4, so |z| runs from ~379 down to ~8.6 and the gate fails
    at every point; the simulator itself matches exact-model quadrature
    within ~1 SE.  Reported honestly.
    """
    co = _unit_coeffs()
    # one simulation pass for the eight cells reported: the one-relay total
    # is a prefix of the two-relay total on the same streams
    single_db = (0.0, 5.0, 10.0, 15.0, 20.0)
    two_db = (0.0, 10.0, 20.0)
    cells = [(1, gdb) for gdb in single_db] + [(2, gdb) for gdb in two_db]
    ests = run_simulation(
        [_unit(gdb) for _, gdb in cells], SimConfig(seed=seed, samples=samples, relays=2),
        "capacity", workers=workers, relays=[r for r, _ in cells],
    )
    one = dict(zip(single_db, ests))
    two = dict(zip(two_db, ests[len(single_db) :]))
    lines = []
    ok = True
    worst_z = 0.0
    for gdb, est in one.items():
        closed = metrics.capacity(_unit(gdb), co)
        z = (closed - est.value) / est.std_error
        worst_z = max(abs(z), worst_z)  # max keeps its first argument against a nan
        ok = ok and abs(z) <= 3.0
        lines.append(
            f"gamma {_f(gdb)} dB: closed {_f(closed)}, MC {_f(est.value)} +- {_f(est.std_error)}, z = {_f(z)}"
        )
    two_ok = True
    for gdb in two_db:
        e1r, e2r = one[gdb], two[gdb]
        slack = 3.0 * math.hypot(e1r.std_error, e2r.std_error)
        two_ok = two_ok and (e2r.value >= e1r.value - slack)
        lines.append(
            f"two-relay gain at {_f(gdb)} dB: {_f(e2r.value - e1r.value)} (slack {_f(slack)})"
        )
    lines.insert(0, f"worst |z| over the grid: {_f(worst_z)} (gate 3)")
    return CheckResult("capacity-vs-mc", ok and two_ok, tuple(lines))


def check_high_snr_audit() -> CheckResult:
    """Series CDF vs exact-convolution CDF: asserted at 60 dB, measured and
    reported at 0 dB."""
    xs = np.linspace(0.0, 10.0, 101)
    co = _unit_coeffs()
    sups = {}
    for gdb in (60.0, 0.0):
        p = _unit(gdb)
        sups[gdb] = float(np.abs(combined_cdf(p, co, xs) - combined_cdf_exact(p, xs)).max())
    lines = [
        f"sup |series - exact| at 60 dB: {_f(sups[60.0])} (tol 1e-3)",
        f"sup |series - exact| at 0 dB: {_f(sups[0.0])} (reported, not gated)",
    ]
    return CheckResult("high-snr-audit", sups[60.0] <= 1e-3, tuple(lines))


CHECK_NAMES = (
    "coefficient-table",
    "series-accuracy-grid",
    "proof-identities",
    "pdf-normalization",
    "density-vs-histogram",
    "bep-closed-form",
    "capacity-vs-mc",
    "high-snr-audit",
)


def run_all(seed: int = 42, samples: int = 10**7, workers: int = 1) -> list[CheckResult]:
    """Run every check; deterministic for fixed arguments."""
    return [
        check_coefficient_table(),
        check_series_accuracy_grid(),
        check_proof_identities(),
        check_pdf_normalization(seed),
        check_density_vs_histogram(seed, samples, workers),
        check_bep_closed_form(seed),
        check_capacity_vs_mc(seed, samples, workers),
        check_high_snr_audit(),
    ]


def render_report(results: list[CheckResult], seed: int, samples: int) -> str:
    """Fixed-format text report; identical bytes for identical results."""
    out = [
        "afrelay validation report",
        f"seed={seed} samples={samples}",
        "",
    ]
    for r in results:
        out.append(f"[{'PASS' if r.passed else 'FAIL'}] {r.name}")
        out.extend(f"    {line}" for line in r.lines)
    passed = sum(r.passed for r in results)
    out.append("")
    out.append(f"result: {passed}/{len(results)} checks passed")
    return "\n".join(out) + "\n"
