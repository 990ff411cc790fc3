"""The four benchmark workloads: their operations and the checks of each.

A workload is a fixed list of operations, built from the benchmark seed
alone; one pass over the list is a round.  Every operation calls afrelay
through its public entry points (``afrelay.cli.main`` or library
functions, looked up at call time so a tracer can wrap them), and every
output is checked.  A check returns a list of problems; an empty list
means the operation passed.

The Monte Carlo workloads run the CLI with a program seed taken from
PROGRAM_SEEDS by the benchmark seed, and compare the Monte Carlo columns
with the values recorded in expected.json for that program seed
(regenerate with make_expected.py).  Estimates and histogram densities
must match to the printed digit; standard errors and closed-form columns
are compared with a relative tolerance, so that a correct rewrite of
their arithmetic is not reported as a failure.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from pathlib import Path

import numpy as np

import afrelay.cli
from afrelay import bessel_series, channel, metrics, validation
from afrelay.channel import ChannelParams

EXPECTED_PATH = Path(__file__).with_name("expected.json")

# The benchmark seed picks one of these as the program's --seed; 42 is the
# CLI default.  expected.json holds the Monte Carlo columns for each.
PROGRAM_SEEDS = (42,) + tuple(range(1001, 1016))

# an even number of whole 1e6 blocks, so both worker threads get equal work
SAMPLES = 2_000_000
WORKERS = 2  # nproc of the 2-core reference box

REL_TOL = 1e-6
ABS_TOL = 1e-12


def program_seed(seed: int) -> int:
    return PROGRAM_SEEDS[seed % len(PROGRAM_SEEDS)]


def run_cli(argv: list[str]) -> tuple[int, str]:
    """One afrelay CLI call in-process; returns (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = afrelay.cli.main(argv)
    return rc, out.getvalue()


def _table(text: str):
    lines = text.splitlines()
    if len(lines) < 2 or not lines[0].startswith("# "):
        raise ValueError("output lacks the manifest line and header")
    json.loads(lines[0][2:])
    columns = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    if any(len(r) != len(columns) for r in rows):
        raise ValueError("ragged csv rows")
    return columns, {c: [r[i] for r in rows] for i, c in enumerate(columns)}


def _digest(cells) -> str:
    return hashlib.sha256("\n".join(",".join(c) for c in cells).encode()).hexdigest()


def _floats(cells) -> list[float]:
    return [float(v) for v in cells]


def _compare(label: str, got: list[float], want: list[float]) -> list[str]:
    if len(got) != len(want):
        return [f"{label}: {len(got)} values, expected {len(want)}"]
    return [
        f"{label}[{i}]: {g!r} vs expected {w!r}"
        for i, (g, w) in enumerate(zip(got, want))
        if not abs(g - w) <= REL_TOL * max(abs(g), abs(w)) + ABS_TOL
    ]


class Workload:
    """A benchmark workload: a fixed list of operations built from the seed.

    A run performs every operation once and checks its output, then
    repeats the same operations in timed rounds; each repeat must
    reproduce the checked output bit for bit.  So a run attempts one
    operation per entry of `ops()`, whatever its length in rounds.
    """

    name = ""
    mc_calls = 0  # Monte Carlo estimates per round, each of SAMPLES samples
    failed_ceiling = 0.0  # largest failed share of a correct run
    point_latencies = False  # report per-operation latency percentiles

    def __init__(self, seed: int, expected: dict | None = None):
        self.seed = seed
        self.program_seed = program_seed(seed)
        self.expected = expected

    @property
    def mc_samples(self) -> int:
        return self.mc_calls * SAMPLES

    def ops(self) -> list:
        raise NotImplementedError

    def run_op(self, op):
        """One operation through afrelay's public entry points; an
        exception is returned as the output (and fails its check)."""
        raise NotImplementedError

    def check_op(self, op, out) -> list[str]:
        """Problems of one output; an empty list means it passed."""
        raise NotImplementedError

    def key(self, out) -> bytes:
        """The bytes a repeat of the operation must reproduce."""
        raise NotImplementedError


class CliWorkload(Workload):
    """A workload whose operations are afrelay CLI calls."""

    def ops(self):
        return self.argvs()

    def argvs(self) -> list[list[str]]:
        raise NotImplementedError

    def run_op(self, argv):
        try:
            return run_cli(argv)
        except Exception as exc:  # counted as a failed operation
            return (None, repr(exc))

    def check_op(self, argv, out):
        rc, text = out
        try:
            return self.check(argv, rc, text)
        except (ValueError, KeyError, IndexError) as exc:
            return [f"unreadable output: {exc!r}"]

    def key(self, out) -> bytes:
        rc, text = out
        return f"{rc}\n{text}".encode()

    def check(self, argv, rc: int, text: str) -> list[str]:
        raise NotImplementedError


MC_SWEEP_EXACT = ("mc_outage", "mc_bep", "mc_capacity_nats")
MC_SWEEP_SE = ("mc_outage_se", "mc_bep_se", "mc_capacity_nats_se")
MC_SWEEP_CLOSED = ("gamma_db", "outage", "bep", "capacity_nats")


class McSweep(CliWorkload):
    """perf --with-mc over the default -5:35:9 dB grid, all three metrics:
    27 simulate calls per round."""

    name = "mc-sweep"
    mc_calls = 27

    def argvs(self):
        return [[
            "perf", "--with-mc", "--samples", str(SAMPLES),
            "--workers", str(WORKERS), "--seed", str(self.program_seed),
        ]]

    @staticmethod
    def record(text: str) -> dict:
        columns, cols = _table(text)
        return {
            "columns": columns,
            "closed": {c: _floats(cols[c]) for c in MC_SWEEP_CLOSED},
            "se": {c: _floats(cols[c]) for c in MC_SWEEP_SE},
            "mc_digest": _digest(cols[c] for c in MC_SWEEP_EXACT),
        }

    def check(self, argv, rc, text):
        if rc != 0:
            return [f"exit code {rc}"]
        got = self.record(text)
        want = self.expected["mc-sweep"]
        seeded = want["by_seed"][str(self.program_seed)]
        if got["columns"] != want["columns"]:
            return [f"columns {got['columns']} != {want['columns']}"]
        problems = []
        if got["mc_digest"] != seeded["mc_digest"]:
            problems.append("Monte Carlo estimates differ from the recorded ones")
        for c in MC_SWEEP_CLOSED:
            problems += _compare(c, got["closed"][c], want["closed"][c])
        for c in MC_SWEEP_SE:
            problems += _compare(c, got["se"][c], seeded["se"][c])
        return problems


DIST_GAMMAS_DB = ("0", "20", "40")
DIST_EXACT = ("mc_density", "minbound_density")
DIST_CLOSED = ("x", "cdf_eq", "pdf_eq", "cdf_quadrature")


class ExactDist(CliWorkload):
    """dist --with-mc --with-minbound at 0, 20 and 40 dB on the default
    61-point grid: exact-model quadrature plus two histograms per call."""

    name = "exact-dist"
    mc_calls = 2 * len(DIST_GAMMAS_DB)

    def argvs(self):
        return [
            [
                "dist", "--gamma-db", g, "--with-mc", "--with-minbound",
                "--samples", str(SAMPLES), "--workers", str(WORKERS),
                "--seed", str(self.program_seed),
            ]
            for g in DIST_GAMMAS_DB
        ]

    @staticmethod
    def record(text: str) -> dict:
        columns, cols = _table(text)
        return {
            "columns": columns,
            "closed": {c: _floats(cols[c]) for c in DIST_CLOSED},
            "mc_digest": _digest(cols[c] for c in DIST_EXACT),
        }

    def check(self, argv, rc, text):
        if rc != 0:
            return [f"exit code {rc}"]
        g = argv[argv.index("--gamma-db") + 1]
        got = self.record(text)
        want = self.expected["exact-dist"]
        if got["columns"] != want["columns"]:
            return [f"columns {got['columns']} != {want['columns']}"]
        problems = []
        if got["mc_digest"] != want["by_seed"][str(self.program_seed)][g]:
            problems.append(f"{g} dB: Monte Carlo densities differ from the recorded ones")
        for c in DIST_CLOSED:
            problems += _compare(f"{g} dB {c}", got["closed"][c], want["closed"][g][c])
        return problems


# criteria 02 and 07 fail by design (see afrelay.validation) and stay red;
# the order is that of validation.run_all
VALIDATE_VERDICTS = {
    "coefficient-table": "PASS",
    "series-accuracy-grid": "FAIL",
    "proof-identities": "PASS",
    "pdf-normalization": "PASS",
    "density-vs-histogram": "PASS",
    "bep-closed-form": "PASS",
    "capacity-vs-mc": "FAIL",
    "high-snr-audit": "PASS",
}


# the arguments validation.run_all passes to each check
VALIDATE_ARGS = {
    "coefficient-table": (),
    "series-accuracy-grid": (),
    "proof-identities": (),
    "pdf-normalization": ("seed",),
    "density-vs-histogram": ("seed", "samples", "workers"),
    "bep-closed-form": ("seed",),
    "capacity-vs-mc": ("seed", "samples", "workers"),
    "high-snr-audit": (),
}


class Validate(Workload):
    """The eight validation checks at a reduced sample count, 13 Monte
    Carlo estimates among them; each check is one operation.  This is the
    work of ``afrelay validate`` without rendering its report.  As eight
    operations, a 4-5 s round gets eight host-speed probes between them
    instead of one, and a failed check is reported by name.

    Always run at the CLI's default seed: the seed also picks the parameter
    draws of two checks, whose quadrature work, and so the round time,
    differs from seed to seed by up to 20%.  (At program seeds 1003 and
    1013 bep-closed-form fails too, on a draw with lambda_sd within 30% of
    lambda_srd, where the series coefficients reach |B| ~ 1e4.)"""

    name = "validate"
    mc_calls = 13  # density-vs-histogram 2, capacity-vs-mc 5 + 3 x 2

    def __init__(self, seed: int, expected: dict | None = None):
        super().__init__(seed, expected)
        self.program_seed = PROGRAM_SEEDS[0]

    def ops(self):
        return list(VALIDATE_VERDICTS)

    def run_op(self, check):
        args = {"seed": self.program_seed, "samples": SAMPLES, "workers": WORKERS}
        fn = getattr(validation, "check_" + check.replace("-", "_"))
        try:
            return fn(*(args[a] for a in VALIDATE_ARGS[check]))
        except Exception as exc:  # counted as a failed operation
            return exc

    def check_op(self, check, out):
        if isinstance(out, BaseException):
            return [f"raised {out!r}"]
        verdict = "PASS" if out.passed else "FAIL"
        problems = []
        if out.name != check:
            problems.append(f"result named {out.name!r}, expected {check!r}")
        if verdict != VALIDATE_VERDICTS[check]:
            problems.append(f"{check}: {verdict}, expected {VALIDATE_VERDICTS[check]}")
        return problems

    def key(self, out) -> bytes:
        return repr(out).encode()


DEPTHS = (2, 5, 10, 20)
XS = np.linspace(0.0, 6.0, 61)
OUTAGE_THRESHOLD = 1.0  # linear SNR, 0 dB
POINTS = 1000


def draw_points(seed: int, n: int = POINTS):
    """n seeded operating points: rates log-uniform on [0.2, 5]^3, gamma
    uniform on 0-40 dB, depth cycling 2, 5, 10, 20.  The band where
    lambda_sd is close to lambda_srd is not skipped."""
    rng = np.random.default_rng(seed)
    rates = np.exp(rng.uniform(math.log(0.2), math.log(5.0), (n, 3)))
    gamma_db = rng.uniform(0.0, 40.0, n)
    return [
        (ChannelParams(10 ** (g / 10), *lam), DEPTHS[i % len(DEPTHS)])
        for i, (lam, g) in enumerate(zip(rates.tolist(), gamma_db.tolist()))
    ]


def closed_form_point(params: ChannelParams, depth: int):
    co = channel.combined_cdf_coeffs(params, bessel_series.series_coeffs(1.0, depth))
    return (
        channel.combined_cdf(params, co, XS),
        channel.combined_pdf(params, co, XS),
        metrics.outage(params, co, OUTAGE_THRESHOLD),
        metrics.bit_error_prob(params, co),
        metrics.capacity(params, co),
    )


def check_point(params: ChannelParams, out) -> list[str]:
    """0 <= outage <= 1, 0 < BEP <= 1/2 and 0 <= capacity <= the Jensen
    bound (1/2) ln(1 + gamma E[D + min(X, Y)]) >= (1/2) ln(1 + gamma E[D + S])."""
    if isinstance(out, BaseException):
        return [f"raised {out!r}"]
    outage, bep, cap = (float(v) for v in out[2:])
    jensen = 0.5 * math.log1p(
        params.gamma * (1.0 / params.lambda_sd + 1.0 / (params.lambda_sr + params.lambda_rd))
    )
    problems = []
    if not 0.0 <= outage <= 1.0:
        problems.append(f"outage {outage!r} outside [0, 1]")
    if not 0.0 < bep <= 0.5:
        problems.append(f"BEP {bep!r} outside (0, 1/2]")
    if not 0.0 <= cap <= jensen:
        problems.append(f"capacity {cap!r} outside [0, {jensen!r}]")
    return problems


class ClosedFormDraws(Workload):
    """In-process library loop over POINTS seeded operating points; the
    series, channel and metrics layers do all the work, with no Monte
    Carlo.  Each point is one operation."""

    name = "closed-form-draws"
    point_latencies = True
    # ~2% of the points fail at the parent commit: the series closed forms
    # break down near lambda_sd = lambda_srd.  They count as failed
    # operations; the run is reported incorrect only past this share.
    failed_ceiling = 0.10

    def ops(self):
        return draw_points(self.seed)

    def run_op(self, point):
        try:
            return closed_form_point(*point)
        except Exception as exc:  # counted as a failed operation
            return exc

    def check_op(self, point, out):
        return check_point(point[0], out)

    def key(self, out) -> bytes:
        if isinstance(out, BaseException):
            return repr(out).encode()
        return out[0].tobytes() + out[1].tobytes() + repr(out[2:]).encode()


WORKLOADS = {w.name: w for w in (McSweep, ExactDist, ClosedFormDraws, Validate)}


def load_expected() -> dict:
    with open(EXPECTED_PATH) as fh:
        return json.load(fh)
