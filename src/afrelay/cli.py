"""Command-line surface: coefficient tables, series-vs-oracle sweeps,
distribution curves, performance sweeps and the validation suite.

Every run emits a manifest describing it — command, parameters, seed,
output path and a sha256 checksum of the payload — either as a `# {json}`
header line (csv / text) or embedded in the JSON object.  Its parameters
are every flag the parser gave a value except the seed and the output
path, which have fields of their own, and the worker count, which cannot
change the bytes.

Flags that several commands share are declared once, each group in a
parent parser: --out on every command; --format csv|json on bessel, dist
and perf (coeffs has its own, with table1); --k on coeffs and bessel, and
with the three --lambda-* rates on dist and perf; and --seed, --samples
and --workers on dist, perf and validate.

Exit codes: 0 success, 1 validation checks failed, 2 usage or domain
error (an input the closed forms cannot serve among them), 3 a quadrature
that did not reach its tolerance.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys

import numpy as np

from . import metrics, reference
from .bessel_series import _require_count, evaluate, series_coeffs
from .channel import (
    ChannelParams,
    combined_cdf,
    combined_cdf_coeffs,
    combined_cdf_exact,
    combined_pdf,
)
from .reference import QuadratureError
from .montecarlo import SimConfig, simulate as run_simulation

__all__ = ["main"]

_LN2 = math.log(2.0)


def _grid_value(text: str) -> float:
    v = float(text)
    if not math.isfinite(v):
        raise ValueError(f"grid values must be finite, got {text.strip()!r}")
    return v


def _parse_grid(text: str) -> np.ndarray:
    """Parse 'start:stop:count' (inclusive linspace) or 'v1,v2,...' of
    finite values."""
    s = text.strip()
    if ":" in s:
        parts = s.split(":")
        if len(parts) != 3:
            raise ValueError(f"grid must be start:stop:count, got {text!r}")
        start, stop = _grid_value(parts[0]), _grid_value(parts[1])
        try:
            count = int(parts[2])
        except ValueError:  # '2.5' or '1e1': refused below, by the count's name
            count = parts[2]
        return np.linspace(start, stop, _require_count("grid count", count, 1))
    vals = [_grid_value(v) for v in s.split(",") if v.strip()]
    if not vals:
        raise ValueError("empty grid")
    return np.asarray(vals)


def _db_to_linear(flag: str, db):
    """10**(db/10) of a dB flag's value or grid, refused with the flag's
    name where a value leaves the positive doubles."""
    try:
        with np.errstate(over="ignore"):
            linear = 10 ** (db / 10)
    except OverflowError:  # a float's pow raises where numpy's reads inf
        linear = math.inf
    if not np.all(np.isfinite(linear) & (linear > 0.0)):
        raise ValueError(f"{flag} must give a finite positive linear value 10**(dB/10)")
    return linear


def _fmt_cell(v) -> str:
    return "" if v is None else f"{v:.12g}"


def _json_cell(v):
    if v is None or isinstance(v, int):
        return v
    return float(v) if math.isfinite(v) else None


# flags that never reach a manifest's parameters: the subcommand and its
# handler, the seed and output path (fields of their own) and the worker
# count (it cannot change the bytes)
_UNRECORDED = frozenset(("cmd", "func", "out", "seed", "workers"))


def _manifest(args, body: str) -> dict:
    """The run's manifest; its checksum is the sha256 of body."""
    return {
        "command": args.cmd,
        "parameters": {
            k: v for k, v in vars(args).items() if v is not None and k not in _UNRECORDED
        },
        "seed": getattr(args, "seed", None),
        "output_path": args.out or "-",
        "artifact_checksum": hashlib.sha256(body.encode()).hexdigest(),
    }


def _with_header(args, body: str) -> str:
    return "# " + json.dumps(_manifest(args, body), sort_keys=True) + "\n" + body


def _render(args, columns, rows) -> str:
    """Rows to a json object, or for any other format to csv under a
    manifest header; returns text."""
    if args.format == "json":
        records = [{c: _json_cell(v) for c, v in zip(columns, row)} for row in rows]
        body = json.dumps(records, sort_keys=True, separators=(",", ":"))
        doc = {"manifest": _manifest(args, body), "records": records}
        return json.dumps(doc, sort_keys=True) + "\n"
    lines = [",".join(columns)]
    lines.extend(",".join(_fmt_cell(v) for v in row) for row in rows)
    return _with_header(args, "\n".join(lines) + "\n")


def _deliver(text: str, out_path: str | None, note: str = "") -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
        _log(f"wrote {out_path}" + (f" ({note})" if note else ""))
    else:
        sys.stdout.write(text)


def _log(msg: str, *, bad: bool = False) -> None:
    if sys.stderr.isatty() and not os.environ.get("NO_COLOR"):
        color = "\033[31m" if bad else "\033[32m"
        msg = f"{color}{msg}\033[0m"
    print(msg, file=sys.stderr)


def _channel_params(args, gamma: float) -> ChannelParams:
    return ChannelParams(gamma, args.lambda_sd, args.lambda_sr, args.lambda_rd)


def _cmd_coeffs(args) -> int:
    table = series_coeffs(args.nu, args.k)
    table1 = args.format == "table1"
    rows = [(q, float(f"{a:.4g}") if table1 else a) for q, a in enumerate(table.a)]
    _deliver(_render(args, ("q", "a"), rows), args.out)
    return 0


def _cmd_bessel(args) -> int:
    betas = _parse_grid(args.beta_list)
    xs = _parse_grid(args.x_grid)
    if np.any(betas <= 0) or np.any(xs <= 0):
        raise ValueError("beta and x values must be positive")
    rows = []
    for beta in betas.tolist():
        for x in xs.tolist():
            z = beta * x
            # the series refuses z past 708.4, where exp(-z) is subnormal,
            # so the oracle is never 0 here (it underflows from z ~ 745)
            value = evaluate(args.nu, args.k, z)
            oracle = reference.bessel_k(args.nu, z)
            rows.append((beta, x, value, oracle, abs(value - oracle) / abs(oracle)))
    _deliver(_render(args, ("beta", "x", "series", "oracle", "rel_error"), rows), args.out)
    return 0


def _cmd_dist(args) -> int:
    xs = _parse_grid(args.x_grid)
    if np.any(np.diff(xs) <= 0) or xs[0] < 0:
        raise ValueError("x grid must be ascending and nonnegative")
    if (args.with_mc or args.with_minbound) and len(xs) < 2:
        raise ValueError("sampled densities need an x grid of at least two points")
    linear = args.gamma_linear
    if linear is None:
        linear = _db_to_linear("--gamma-db", args.gamma_db)
    params = _channel_params(args, linear)
    # built before any work so a bad seed or sample count is refused
    # whether or not Monte Carlo is asked for
    cfg = SimConfig(seed=args.seed, samples=args.samples)
    co = combined_cdf_coeffs(params, series_coeffs(1.0, args.k))

    cdf = combined_cdf(params, co, xs)
    pdf = combined_pdf(params, co, xs)
    cdfq = combined_cdf_exact(params, xs)

    densities = {}  # minbound flag -> sampled density
    if args.with_mc or args.with_minbound:
        # bins centered on the grid; the first edge is clamped at zero
        inner = 0.5 * (xs[:-1] + xs[1:])
        first = max(xs[0] - (inner[0] - xs[0]), 0.0)
        edges = np.concatenate([[first], inner, [xs[-1] + (xs[-1] - inner[-1])]])
        # one pass: the model's histogram, the bound's or both, on the same streams
        asked = [b for b, on in ((False, args.with_mc), (True, args.with_minbound)) if on]
        hists = run_simulation(params, cfg, "pdf", edges=edges, workers=args.workers, minbound=asked)
        densities = {b: h.sample_density for b, h in zip(asked, hists)}

    # one row per x; a column not asked for is empty
    values = (xs, cdf, pdf, cdfq, densities.get(False), densities.get(True))
    rows = zip(*([None] * len(xs) if v is None else v.tolist() for v in values))
    columns = ("x", "cdf_eq", "pdf_eq", "cdf_quadrature", "mc_density", "minbound_density")
    _deliver(_render(args, columns, rows), args.out)
    return 0


# each metric's analytic limit at zero SNR, where the model needs gamma > 0
_LIMITS = {"outage": 1.0, "bep": 0.5, "capacity": 0.0}


def _cmd_perf(args) -> int:
    wanted = [m.strip() for m in args.metrics.split(",") if m.strip()]
    if not wanted or any(m not in _LIMITS for m in wanted):
        raise ValueError(
            f"metrics must be a comma list from {tuple(_LIMITS)}, got {args.metrics!r}"
        )
    for i, m in enumerate(wanted):
        if m in wanted[:i]:
            raise ValueError(f"metric {m!r} is repeated in {args.metrics!r}")
    if args.gamma_linear_grid is not None:
        gammas = _parse_grid(args.gamma_linear_grid)
        if np.any(gammas < 0):
            raise ValueError("linear SNR values must be >= 0")
    else:
        gammas = _db_to_linear("--gamma-db-grid", _parse_grid(args.gamma_db_grid))
    snr_threshold = _db_to_linear("--snr-threshold-db", args.snr_threshold_db)
    # built before any work so a bad seed, sample or relay count is
    # refused whether or not Monte Carlo is asked for
    cfg = SimConfig(seed=args.seed, samples=args.samples, relays=args.relays)

    # the series CDF coefficients depend only on the fading rates, not on gamma
    co = combined_cdf_coeffs(_channel_params(args, 1.0), series_coeffs(1.0, args.k))
    # one point per SNR, None at zero SNR; the rest form the model's grid
    points = [None if g == 0.0 else _channel_params(args, g) for g in gammas]
    grid = [p for p in points if p is not None]
    # one pass over the streams: a request per metric and SNR, metric by metric
    mc = iter(run_simulation(
        grid * len(wanted), cfg, [m for m in wanted for _ in grid],
        threshold=snr_threshold, workers=args.workers,
    ) if args.with_mc and grid else ())
    closed = {
        "outage": lambda p: metrics.outage(p, co, snr_threshold),
        "bep": lambda p: metrics.bit_error_prob(p, co),
        "capacity": lambda p: metrics.capacity(p, co),
    }
    # one lookup of each metric's scale and column name for all its columns:
    # --bits turns nats into bits, and 1.0 times another metric is exact
    units = {"capacity": (1.0 / _LN2, "capacity_bits") if args.bits else (1.0, "capacity_nats")}
    columns = {
        "gamma_db": [-math.inf if p is None else 10 * math.log10(p.gamma) for p in points]
    }
    for m in wanted:
        scale, name = units.get(m, (1.0, m))
        columns[name] = [_LIMITS[m] if p is None else scale * closed[m](p) for p in points]
        if args.with_mc:
            ests = [None if p is None else next(mc) for p in points]
            columns[f"mc_{name}"] = [_LIMITS[m] if e is None else scale * e.value for e in ests]
            columns[f"mc_{name}_se"] = [0.0 if e is None else scale * e.std_error for e in ests]

    _deliver(_render(args, tuple(columns), zip(*columns.values())), args.out)
    return 0


def _cmd_validate(args) -> int:
    from . import validation

    SimConfig(seed=args.seed, samples=args.samples)  # refuses a bad seed or count up front
    results = validation.run_all(seed=args.seed, samples=args.samples, workers=args.workers)
    report = validation.render_report(results, args.seed, args.samples)
    passed = sum(r.passed for r in results)
    _deliver(_with_header(args, report), args.out, note=f"{passed}/{len(results)} checks passed")
    if passed < len(results):
        _log(f"{len(results) - passed} check(s) failed", bad=True)
        return 1
    return 0


class _Replaces(argparse.Action):
    """Store the value and drop the default of the flag whose dest is
    const, this flag's mutually exclusive twin, so that the manifest
    records only the one that set the SNR."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        setattr(namespace, self.const, None)


def _build_parser() -> argparse.ArgumentParser:
    # each flag that commands share is declared once, in a parent parser
    def parent(*parents):
        return argparse.ArgumentParser(add_help=False, parents=parents)

    out, fmt, depth, sim = parent(), parent(), parent(), parent()
    out.add_argument("--out", help="output file (default stdout)")
    fmt.add_argument("--format", choices=("csv", "json"), default="csv")
    depth.add_argument("--k", type=int, default=10, help="truncation depth")
    rates = parent(depth)  # --k with the three fading rates
    rates.add_argument("--lambda-sd", type=float, default=1.0, help="direct-link fading parameter")
    rates.add_argument("--lambda-sr", type=float, default=1.0, help="first-hop fading parameter")
    rates.add_argument("--lambda-rd", type=float, default=1.0, help="second-hop fading parameter")
    sim.add_argument("--seed", type=int, default=42)
    sim.add_argument("--samples", type=int, default=10**7)
    sim.add_argument("--workers", type=int, default=1,
                     help="Monte Carlo threads; they never change the bytes")

    ap = argparse.ArgumentParser(
        prog="afrelay",
        description="Closed-form and Monte Carlo analysis of two-hop "
        "amplify-and-forward relaying with maximum-ratio combining.",
    )
    sub = ap.add_subparsers(dest="cmd", required=True, metavar="command")

    sp = sub.add_parser("coeffs", parents=[depth, out],
                        help="series coefficient table for one (order, depth)")
    sp.add_argument("--nu", type=float, required=True, help="order in (0, ~150), not a half-integer")
    sp.add_argument("--format", choices=("csv", "json", "table1"), default="csv",
                    help="table1 rounds to 4 significant digits")
    sp.set_defaults(func=_cmd_coeffs)

    sp = sub.add_parser("bessel", parents=[depth, fmt, out],
                        help="truncated series vs quadrature oracle over a grid")
    sp.add_argument("--nu", type=float, default=1.0,
                    help="order; 0 is reached through K_0 = K_2 - (2/z) K_1")
    sp.add_argument("--beta-list", default="0.5,1,2", help="comma list of scale factors")
    sp.add_argument("--x-grid", default="0.5:8:16", help="start:stop:count or comma list")
    sp.set_defaults(func=_cmd_bessel)

    sp = sub.add_parser("dist", parents=[rates, sim, fmt, out],
                        help="combined-power CDF/PDF curves with optional Monte Carlo")
    g = sp.add_mutually_exclusive_group()
    g.add_argument("--gamma-db", type=float, default=30.0, help="transmit SNR in dB")
    g.add_argument("--gamma-linear", type=float, action=_Replaces, const="gamma_db",
                   help="transmit SNR, linear scale")
    sp.add_argument("--x-grid", default="0:6:61")
    sp.add_argument("--with-mc", action="store_true", help="add a Monte Carlo density column")
    sp.add_argument("--with-minbound", action="store_true",
                    help="add the min-of-hops baseline density column")
    sp.set_defaults(func=_cmd_dist)

    sp = sub.add_parser("perf", parents=[rates, sim, fmt, out],
                        help="outage / bit error probability / capacity over an SNR grid")
    g = sp.add_mutually_exclusive_group()
    g.add_argument("--gamma-db-grid", default="-5:35:9")
    g.add_argument("--gamma-linear-grid", action=_Replaces, const="gamma_db_grid",
                   help="linear SNR grid; a 0 entry emits the analytic zero-SNR limits")
    sp.add_argument("--metrics", default="outage,bep,capacity")
    sp.add_argument("--snr-threshold-db", type=float, default=0.0,
                    help="absolute outage SNR threshold in dB (linear threshold 10^(dB/10))")
    sp.add_argument("--bits", action="store_true", help="report capacity in bits instead of nats")
    sp.add_argument("--with-mc", action="store_true")
    sp.add_argument("--relays", type=int, default=1, help="relay count for the Monte Carlo columns")
    sp.set_defaults(func=_cmd_perf)

    sp = sub.add_parser("validate", parents=[sim, out], help="run the full self-check suite")
    sp.set_defaults(func=_cmd_validate)
    return ap


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse reports usage errors with code 2
        return int(exc.code or 0)
    try:
        # refused before any work, as SimConfig refuses a bad seed
        _require_count("workers", getattr(args, "workers", 1), 1)
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except QuadratureError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
