"""Command-line surface: coefficient tables, series-vs-oracle sweeps,
distribution curves, performance sweeps and the validation suite.

Every run emits a manifest describing it — command, semantic parameters,
seed, output path and a sha256 checksum of the payload — either as a
`# {json}` header line (csv / text) or embedded in the JSON object.  The
worker count is deliberately not part of the manifest: results are
bit-identical for any degree of parallelism, and the manifest records only
what determines the bytes.

Exit codes: 0 success, 1 validation checks failed, 2 usage or domain
error, 3 numerical failure (quadrature non-convergence or degenerate
parameters).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys

import numpy as np

from . import metrics, reference, validation
from .bessel_series import evaluate, evaluate_k0, series_coeffs
from .channel import (
    ChannelParams,
    DegenerateParameterError,
    combined_cdf,
    combined_cdf_coeffs,
    combined_cdf_exact,
    combined_pdf,
)
from .reference import QuadratureError
from .montecarlo import SimConfig, histogram_at_edges
from .montecarlo import simulate as run_simulation

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
    if not s:
        raise ValueError("empty grid")
    if ":" in s:
        parts = s.split(":")
        if len(parts) != 3:
            raise ValueError(f"grid must be start:stop:count, got {text!r}")
        start, stop, count = _grid_value(parts[0]), _grid_value(parts[1]), int(parts[2])
        if count < 1:
            raise ValueError("grid count must be >= 1")
        return np.linspace(start, stop, count)
    vals = [_grid_value(v) for v in s.split(",") if v.strip()]
    if not vals:
        raise ValueError("empty grid")
    return np.asarray(vals)


def _fmt_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return str(v).lower()
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    f = float(v)
    if math.isinf(f):
        return "inf" if f > 0 else "-inf"
    return f"{f:.12g}"


def _json_cell(v):
    if v is None or isinstance(v, (bool, int, str)):
        return v
    if isinstance(v, np.integer):
        return int(v)
    f = float(v)
    return f if math.isfinite(f) else None


def _manifest(command, parameters, seed, out_path, body: str) -> dict:
    """The run's manifest; its checksum is the sha256 of body."""
    return {
        "command": command,
        "parameters": parameters,
        "seed": seed,
        "output_path": out_path if out_path else "-",
        "artifact_checksum": hashlib.sha256(body.encode()).hexdigest(),
    }


def _with_header(manifest: dict, body: str) -> str:
    return "# " + json.dumps(manifest, sort_keys=True) + "\n" + body


def _render(command, parameters, seed, out_path, columns, rows, fmt):
    """Rows to csv-with-manifest-header or a json object; returns text."""
    if fmt == "json":
        records = [
            {c: _json_cell(v) for c, v in zip(columns, row)} for row in rows
        ]
        body = json.dumps(records, sort_keys=True, separators=(",", ":"))
        manifest = _manifest(command, parameters, seed, out_path, body)
        return (
            json.dumps({"manifest": manifest, "records": records}, sort_keys=True)
            + "\n"
        )
    lines = [",".join(columns)]
    lines.extend(",".join(_fmt_cell(v) for v in row) for row in rows)
    body = "\n".join(lines) + "\n"
    return _with_header(_manifest(command, parameters, seed, out_path, body), body)


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
    return ChannelParams(
        gamma=gamma,
        lambda_sd=args.lambda_sd,
        lambda_sr=args.lambda_sr,
        lambda_rd=args.lambda_rd,
    )


def _lambda_parameters(args) -> dict:
    return {
        "lambda_sd": args.lambda_sd,
        "lambda_sr": args.lambda_sr,
        "lambda_rd": args.lambda_rd,
    }


def _cmd_coeffs(args) -> int:
    table = series_coeffs(args.nu, args.k)
    fmt = args.format
    if fmt == "table1":
        rows = [(q, float(f"{a:.4g}")) for q, a in enumerate(table.a)]
        fmt = "csv"
    else:
        rows = [(q, float(a)) for q, a in enumerate(table.a)]
    text = _render(
        "coeffs",
        {"format": args.format, "k": args.k, "nu": args.nu},
        None,
        args.out,
        ("q", "a"),
        rows,
        fmt,
    )
    _deliver(text, args.out)
    return 0


def _cmd_bessel(args) -> int:
    betas = _parse_grid(args.beta_list)
    xs = _parse_grid(args.x_grid)
    if np.any(betas <= 0) or np.any(xs <= 0):
        raise ValueError("beta and x values must be positive")
    rows = []
    for beta in betas:
        for x in xs:
            z = float(beta * x)
            tv = evaluate_k0(args.k, z) if args.nu == 0 else evaluate(args.nu, args.k, z)
            oracle = reference.bessel_k(args.nu, z)
            rows.append(
                (float(beta), float(x), tv.value, oracle, abs(tv.value - oracle) / abs(oracle))
            )
    text = _render(
        "bessel",
        {
            "beta_list": args.beta_list,
            "format": args.format,
            "k": args.k,
            "nu": args.nu,
            "x_grid": args.x_grid,
        },
        None,
        args.out,
        ("beta", "x", "series", "oracle", "rel_error"),
        rows,
        args.format,
    )
    _deliver(text, args.out)
    return 0


def _resolve_gamma(args) -> tuple[float, dict]:
    if args.gamma_linear is not None:
        return args.gamma_linear, {"gamma_linear": args.gamma_linear}
    return 10 ** (args.gamma_db / 10), {"gamma_db": args.gamma_db}


def _cmd_dist(args) -> int:
    xs = _parse_grid(args.x_grid)
    if np.any(np.diff(xs) <= 0) or xs[0] < 0:
        raise ValueError("x grid must be ascending and nonnegative")
    if (args.with_mc or args.with_minbound) and len(xs) < 2:
        raise ValueError("sampled densities need an x grid of at least two points")
    gamma, gamma_param = _resolve_gamma(args)
    params = _channel_params(args, gamma)
    # built before any work so a bad seed or sample count is refused
    # whether or not Monte Carlo is asked for
    cfg = SimConfig(seed=args.seed, samples=args.samples)
    co = combined_cdf_coeffs(params, series_coeffs(1.0, args.k))

    cdf = combined_cdf(params, co, xs)
    pdf = combined_pdf(params, co, xs)
    cdfq = np.array([combined_cdf_exact(params, float(x)) for x in xs])

    mc = mb = None
    if args.with_mc or args.with_minbound:
        # bins centered on the grid; the first edge is clamped at zero
        inner = 0.5 * (xs[:-1] + xs[1:])
        first = max(xs[0] - (inner[0] - xs[0]), 0.0)
        edges = np.concatenate([[first], inner, [xs[-1] + (xs[-1] - inner[-1])]])
        if args.with_mc:
            mc = histogram_at_edges(
                params, cfg, edges, workers=args.workers
            ).sample_density
        if args.with_minbound:
            mb = histogram_at_edges(
                params, cfg, edges, workers=args.workers, minbound=True
            ).sample_density

    rows = []
    for i, x in enumerate(xs):
        rows.append(
            (
                float(x),
                float(cdf[i]),
                float(pdf[i]),
                float(cdfq[i]),
                None if mc is None else float(mc[i]),
                None if mb is None else float(mb[i]),
            )
        )
    parameters = {
        "format": args.format,
        "k": args.k,
        "samples": args.samples,
        "with_mc": args.with_mc,
        "with_minbound": args.with_minbound,
        "x_grid": args.x_grid,
        **gamma_param,
        **_lambda_parameters(args),
    }
    text = _render(
        "dist",
        parameters,
        args.seed,
        args.out,
        ("x", "cdf_eq", "pdf_eq", "cdf_quadrature", "mc_density", "minbound_density"),
        rows,
        args.format,
    )
    _deliver(text, args.out)
    return 0


def _cmd_perf(args) -> int:
    wanted = [m.strip() for m in args.metrics.split(",") if m.strip()]
    valid = ("outage", "bep", "capacity")
    if not wanted or any(m not in valid for m in wanted):
        raise ValueError(f"metrics must be a comma list from {valid}, got {args.metrics!r}")
    if args.gamma_linear_grid is not None:
        gammas = _parse_grid(args.gamma_linear_grid)
        if np.any(gammas < 0):
            raise ValueError("linear SNR values must be >= 0")
        grid_param = {"gamma_linear_grid": args.gamma_linear_grid}
    else:
        gammas = 10 ** (_parse_grid(args.gamma_db_grid) / 10)
        grid_param = {"gamma_db_grid": args.gamma_db_grid}
    snr_threshold = 10 ** (args.snr_threshold_db / 10)
    cap_scale = 1.0 / _LN2 if args.bits else 1.0
    cap_name = "capacity_bits" if args.bits else "capacity_nats"
    # built before any work so a bad seed, sample or relay count is
    # refused whether or not Monte Carlo is asked for
    cfg = SimConfig(seed=args.seed, samples=args.samples, relays=args.relays)

    # the series CDF coefficients depend only on the fading rates, not on gamma
    co = combined_cdf_coeffs(
        _channel_params(args, 1.0), series_coeffs(1.0, args.k)
    )
    # the model itself needs gamma > 0; zero-SNR rows get analytic limits
    grid = [_channel_params(args, float(g)) for g in gammas if g != 0.0]
    limits = {"outage": 1.0, "bep": 0.5, "capacity": 0.0}
    # one pass over the streams for every metric over the whole SNR grid
    mc = dict(zip(wanted, run_simulation(
        grid, cfg, tuple(wanted), threshold=snr_threshold, workers=args.workers
    ))) if args.with_mc and grid else {}
    columns = ["gamma_db"]
    by_gamma = []  # per column after gamma_db, its values over grid
    zero_row = []
    for m in wanted:
        if m == "outage":
            closed = [metrics.outage(p, co, snr_threshold) for p in grid]
        elif m == "bep":
            closed = [metrics.bit_error_prob(p, co) for p in grid]
        else:
            closed = [cap_scale * metrics.capacity(p, co) for p in grid]
        base = cap_name if m == "capacity" else m
        columns.append(base)
        by_gamma.append(closed)
        zero_row.append(limits[m])
        if args.with_mc:
            ests = mc.get(m, [])
            scale = cap_scale if m == "capacity" else 1.0
            columns.extend((f"mc_{base}", f"mc_{base}_se"))
            by_gamma.append([scale * e.value for e in ests])
            by_gamma.append([scale * e.std_error for e in ests])
            zero_row.extend((limits[m], 0.0))

    rows = []
    j = 0
    for g in gammas:
        g = float(g)
        if g == 0.0:
            rows.append((-math.inf, *zero_row))
        else:
            rows.append((10 * math.log10(g), *(col[j] for col in by_gamma)))
            j += 1

    parameters = {
        "bits": args.bits,
        "format": args.format,
        "k": args.k,
        "metrics": args.metrics,
        "relays": args.relays,
        "samples": args.samples,
        "snr_threshold_db": args.snr_threshold_db,
        "with_mc": args.with_mc,
        **grid_param,
        **_lambda_parameters(args),
    }
    text = _render(
        "perf", parameters, args.seed, args.out, tuple(columns), rows, args.format
    )
    _deliver(text, args.out)
    return 0


def _cmd_validate(args) -> int:
    results = validation.run_all(
        seed=args.seed, samples=args.samples, workers=args.workers
    )
    report = validation.render_report(results, args.seed, args.samples)
    manifest = _manifest("validate", {"samples": args.samples}, args.seed, args.out, report)
    text = _with_header(manifest, report)
    passed = sum(r.passed for r in results)
    _deliver(text, args.out, note=f"{passed}/{len(results)} checks passed")
    if passed < len(results):
        _log(f"{len(results) - passed} check(s) failed", bad=True)
        return 1
    return 0


def _add_lambda_flags(sp) -> None:
    sp.add_argument("--lambda-sd", type=float, default=1.0, help="direct-link fading parameter")
    sp.add_argument("--lambda-sr", type=float, default=1.0, help="first-hop fading parameter")
    sp.add_argument("--lambda-rd", type=float, default=1.0, help="second-hop fading parameter")


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="afrelay",
        description="Closed-form and Monte Carlo analysis of two-hop "
        "amplify-and-forward relaying with maximum-ratio combining.",
    )
    sub = ap.add_subparsers(dest="cmd", required=True, metavar="command")

    sp = sub.add_parser("coeffs", help="series coefficient table for one (order, depth)")
    sp.add_argument("--nu", type=float, required=True, help="series order (not 0 or half-integer)")
    sp.add_argument("--k", type=int, default=10, help="truncation depth")
    sp.add_argument("--format", choices=("csv", "json", "table1"), default="csv",
                    help="table1 rounds to 4 significant digits")
    sp.add_argument("--out", help="output file (default stdout)")
    sp.set_defaults(func=_cmd_coeffs)

    sp = sub.add_parser("bessel", help="truncated series vs quadrature oracle over a grid")
    sp.add_argument("--nu", type=float, default=1.0,
                    help="order; 0 selects the recurrence-based evaluation")
    sp.add_argument("--k", type=int, default=10)
    sp.add_argument("--beta-list", default="0.5,1,2", help="comma list of scale factors")
    sp.add_argument("--x-grid", default="0.5:8:16", help="start:stop:count or comma list")
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.add_argument("--out")
    sp.set_defaults(func=_cmd_bessel)

    sp = sub.add_parser("dist", help="combined-power CDF/PDF curves with optional Monte Carlo")
    g = sp.add_mutually_exclusive_group()
    g.add_argument("--gamma-db", type=float, default=30.0, help="transmit SNR in dB")
    g.add_argument("--gamma-linear", type=float, help="transmit SNR, linear scale")
    _add_lambda_flags(sp)
    sp.add_argument("--k", type=int, default=10)
    sp.add_argument("--x-grid", default="0:6:61")
    sp.add_argument("--with-mc", action="store_true", help="add a Monte Carlo density column")
    sp.add_argument("--with-minbound", action="store_true",
                    help="add the min-of-hops baseline density column")
    sp.add_argument("--seed", type=int, default=42)
    sp.add_argument("--samples", type=int, default=10**7)
    sp.add_argument("--workers", type=int, default=1)
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.add_argument("--out")
    sp.set_defaults(func=_cmd_dist)

    sp = sub.add_parser("perf", help="outage / bit error probability / capacity over an SNR grid")
    g = sp.add_mutually_exclusive_group()
    g.add_argument("--gamma-db-grid", default="-5:35:9")
    g.add_argument("--gamma-linear-grid",
                   help="linear SNR grid; a 0 entry emits the analytic zero-SNR limits")
    _add_lambda_flags(sp)
    sp.add_argument("--k", type=int, default=10)
    sp.add_argument("--metrics", default="outage,bep,capacity")
    sp.add_argument("--snr-threshold-db", type=float, default=0.0,
                    help="absolute outage SNR threshold in dB (linear threshold 10^(dB/10))")
    sp.add_argument("--bits", action="store_true", help="report capacity in bits instead of nats")
    sp.add_argument("--with-mc", action="store_true")
    sp.add_argument("--relays", type=int, default=1, help="relay count for the Monte Carlo columns")
    sp.add_argument("--seed", type=int, default=42)
    sp.add_argument("--samples", type=int, default=10**7)
    sp.add_argument("--workers", type=int, default=1)
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.add_argument("--out")
    sp.set_defaults(func=_cmd_perf)

    sp = sub.add_parser("validate", help="run the full self-check suite")
    sp.add_argument("--seed", type=int, default=42)
    sp.add_argument("--samples", type=int, default=10**7)
    sp.add_argument("--workers", type=int, default=1)
    sp.add_argument("--out")
    sp.set_defaults(func=_cmd_validate)
    return ap


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse reports usage errors with code 2
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DegenerateParameterError, QuadratureError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
