"""afrelay benchmark: run one workload (or all) and print its metrics.

Run from the root of an afrelay checkout:

    python3 perfbench/run.py --workload closed-form-draws --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 0

With ``--trace 0`` it measures the end-to-end metrics: set-up time (fresh
interpreters importing afrelay), then rounds of the workload's fixed
operations in a closed loop, one caller, until ``--seconds`` have passed;
the first round warms caches and is checked but not timed.  The host's
speed drifts by up to 2x over seconds to minutes, so between operations
a fixed calibration loop probes it, and the gated ``wall_ref_s`` is the
mean round time scaled to a host on which that loop takes 1 ms.  The raw
mean round time is printed beside it as ``wall_s``.  With ``--trace 1``
it alternates untraced and traced rounds of the same operations and
reports per-layer numbers of one traced round, the tracing overhead and
the Monte Carlo layer probes.  Every output is checked; the last line of
stdout is a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The lines before it give each metric with its unit and
sample count, plus the figures that are not gated (raw round time, host
speed, Monte Carlo throughput, per-point latency percentiles, peak RSS,
failed ratio).
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import subprocess
import sys
import warnings
from pathlib import Path
from statistics import mean, median
from time import perf_counter

HERE = Path(__file__).resolve().parent
WORKLOAD_NAMES = ("mc-sweep", "exact-dist", "closed-form-draws", "validate")
SETUP_RUNS = 5
MIN_ROUNDS = 3
MIN_TRACED_ROUNDS = 2
# The host's speed drifts by up to 2x over seconds to minutes.  Calibration
# probes between operations measure that speed, and the gated round time
# is scaled by it (see reference_time and README.md).
CALIBRATION_LOOP = 10_000
CALIBRATION_SHARE = 100  # probes per round, at most one per operation
CALIBRATION_REF_S = 1e-3

VALIDATION_CHECKS = (
    "coefficient-table",
    "series-accuracy-grid",
    "proof-identities",
    "pdf-normalization",
    "density-vs-histogram",
    "bep-closed-form",
    "capacity-vs-mc",
    "high-snr-audit",
)
END_TO_END = {"setup_s": "s", "wall_ref_s": "s"}
HISTOGRAM_SPANS = ("montecarlo.histogram_at_edges", "montecarlo.simulate_minbound")


def _percentile(values, q: float) -> float:
    return float(sorted(values)[min(len(values) - 1, math.ceil(q * len(values)) - 1)])


def measure_setup(src: Path) -> list[float]:
    """Seconds from spawning a fresh interpreter to the return of
    ``import afrelay``, for SETUP_RUNS interpreters after one that writes
    the bytecode cache."""
    code = (
        f"import sys, time; sys.path.insert(0, {str(src)!r}); "
        "import afrelay; print(time.perf_counter())"
    )
    times = []
    for i in range(SETUP_RUNS + 1):
        t0 = perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            check=True, timeout=120,
        )
        if i:
            times.append(float(proc.stdout.split()[-1]) - t0)
    return times


class Tally:
    """Operations attempted and failed in one run.

    Each of the workload's operations counts once: it fails if its first
    output fails its check, or if a later round (traced or not) does not
    reproduce that output bit for bit.  Run-level checks (probes, repeated
    per-layer counts) count as one operation each.  The counts therefore
    do not depend on how many rounds fit in the run."""

    def __init__(self, w, outputs):
        self.w = w
        self.keys = [w.key(out) for out in outputs]
        self.problems = [w.check_op(op, out) for op, out in zip(w.ops(), outputs)]

    def repeat(self, outputs, why: str = "a repeat gave another output") -> None:
        for problems, key, out in zip(self.problems, self.keys, outputs):
            if self.w.key(out) != key and why not in problems:
                problems.append(why)

    def add(self, problems: list[str]) -> None:
        self.problems.append(problems)

    @property
    def attempted(self) -> int:
        return len(self.problems)

    @property
    def failed(self) -> int:
        return sum(1 for p in self.problems if p)


def calibrate() -> float:
    """Seconds of a fixed pure-Python loop that does not touch afrelay: a
    probe of the host's current speed."""
    t0 = perf_counter()
    s = 0
    for i in range(CALIBRATION_LOOP):
        s += i * i % 7
    return perf_counter() - t0


def run_round(w, ops, calibration: list | None = None):
    """Every operation once, each timed on its own.  Returns
    (per-operation seconds, outputs).  With a `calibration` list, a
    calibration probe runs after every CALIBRATION_SHARE-th share of the
    operations, untimed by the round, and its time is appended there."""
    every = max(1, len(ops) // CALIBRATION_SHARE)
    seconds, outputs = [], []
    for i, op in enumerate(ops):
        t0 = perf_counter()
        outputs.append(w.run_op(op))
        seconds.append(perf_counter() - t0)
        if calibration is not None and i % every == 0:
            calibration.append(calibrate())
    return seconds, outputs


def reference_time(round_s: list[float], calibration_s: list[float]) -> float:
    """Mean round time scaled to a host on which the calibration loop
    takes CALIBRATION_REF_S."""
    return mean(round_s) * CALIBRATION_REF_S / mean(calibration_s)


def run_untraced(w, seconds: float):
    """A checked warm-up round, then timed rounds, with calibration probes
    between operations, until `seconds` have passed.  Returns (tally,
    round times, calibration times, every per-operation time)."""
    ops = w.ops()
    _, outputs = run_round(w, ops)
    tally = Tally(w, outputs)
    round_s, calibration_s, latencies = [], [], []
    t_start = perf_counter()
    while len(round_s) < MIN_ROUNDS or perf_counter() - t_start < seconds:
        times, outputs = run_round(w, ops, calibration_s)
        tally.repeat(outputs)
        round_s.append(sum(times))
        latencies.extend(times)
    return tally, round_s, calibration_s, latencies


def run_traced(w, seconds: float, tracer):
    """Alternate untraced and traced rounds; a traced round must reproduce
    the untraced outputs."""
    ops = w.ops()
    _, outputs = run_round(w, ops)
    tally = Tally(w, outputs)
    plain_s, traced_s, summaries = [], [], []
    t_start = perf_counter()
    while len(traced_s) < MIN_TRACED_ROUNDS or perf_counter() - t_start < seconds:
        times, outputs = run_round(w, ops)
        plain_s.append(sum(times))
        tally.repeat(outputs)
        with tracer:
            tracer.begin_run()
            times, outputs = run_round(w, ops)
            summaries.append(tracer.summary())
        traced_s.append(sum(times))
        tally.repeat(outputs, "tracing changed the output")
    counts = [_counts(s) for s in summaries]
    tally.add([] if all(c == counts[0] for c in counts)
              else ["per-layer counts differ between traced rounds"])
    return tally, plain_s, traced_s, summaries


def _counts(summary: dict) -> tuple:
    return (
        sorted(summary["calls"].items()), summary["quad_evals"], summary["draws"],
        summary["capacity_quad_fallbacks"], summary["validation_mc_calls"],
    )


def layer_metrics(summaries: list[dict], overhead: float, probes: dict) -> dict:
    """Per-layer metrics of one traced round: counts from the first traced
    round (they repeat exactly), times as medians over traced rounds."""
    first = summaries[0]
    out = {}

    def count(metric, *spans):
        out[metric] = (sum(first["calls"].get(s, 0) for s in spans), "count")

    def seconds(metric, key, *spans):
        out[metric] = (median(sum(s[key].get(sp, 0.0) for sp in spans) for s in summaries), "s")

    for layer, spans in (
        ("montecarlo.simulate", ("montecarlo.simulate",)),
        ("montecarlo.histogram", HISTOGRAM_SPANS),
        ("reference.adaptive_quad", ("reference.adaptive_quad",)),
        ("reference.bessel_k", ("reference.bessel_k",)),
        ("channel.combined_cdf_exact", ("channel.combined_cdf_exact",)),
        ("channel.srd_cdf", ("channel.srd_cdf",)),
        ("bessel_series.series_coeffs", ("bessel_series.series_coeffs",)),
        ("bessel_series.evaluate", ("bessel_series.evaluate",)),
    ):
        count(f"{layer}.calls", *spans)
        seconds(f"{layer}.self_s", "self_s", *spans)
    for span in (
        "channel.combined_cdf_coeffs", "channel.combined_cdf", "channel.combined_pdf",
        "metrics.outage", "metrics.bit_error_prob", "metrics.capacity", "cli.main",
    ):
        seconds(f"{span}.self_s", "self_s", span)
    out["montecarlo.draws"] = (first["draws"], "count")
    out["reference.quad_evals"] = (first["quad_evals"], "count")
    out["metrics.capacity.quad_fallbacks"] = (first["capacity_quad_fallbacks"], "count")
    for check in VALIDATION_CHECKS:
        seconds(f"validation.{check}.s", "total_s", "validation.check_" + check.replace("-", "_"))
    out["validation.mc_calls"] = (first["validation_mc_calls"], "count")
    out["trace.overhead_ratio"] = (overhead, "ratio")
    out.update(probes)
    return out


def _line(name, value, unit, note="") -> str:
    v = f"{value:.6g}" if isinstance(value, float) else str(value)
    return f"  {name:<40} {v:>14} {unit:<10} {note}".rstrip()


def _start(args, src: Path):
    """Import afrelay from src and build the workload."""
    sys.path.insert(0, str(src))
    import afrelay

    if not Path(afrelay.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"error: imported afrelay from {afrelay.__file__}, not {src}")
    import workloads

    # excursion diagnostics of the series CDF; the point checks see the values
    warnings.simplefilter("ignore", RuntimeWarning)
    w = workloads.WORKLOADS[args.workload](args.seed, workloads.load_expected())
    print(f"afrelay benchmark: workload {w.name}, seed {args.seed}, "
          f"{args.seconds} s, tracing {'on' if args.trace else 'off'}")
    return workloads, w


def run_end_to_end(args, src: Path) -> int:
    setup_s = measure_setup(src)
    workloads, w = _start(args, src)
    tally, round_s, calibration_s, latencies = run_untraced(w, args.seconds)
    values = {"setup_s": median(setup_s), "wall_ref_s": reference_time(round_s, calibration_s)}
    metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}
    wall_s = mean(round_s)
    lines = [
        _line("setup_s", values["setup_s"], "s", f"median of {len(setup_s)} fresh interpreters"),
        _line("wall_ref_s", values["wall_ref_s"], "s",
              f"wall_s at host_speed 1, over {len(round_s)} rounds"),
        _line("wall_s", wall_s, "s", f"mean of {len(round_s)} rounds"),
        _line("host_speed", CALIBRATION_REF_S / mean(calibration_s), "ratio",
              f"{CALIBRATION_REF_S * 1e3:g} ms / mean of {len(calibration_s)} calibration probes"),
    ]
    if w.mc_samples:
        lines.append(_line("mc_msamples_per_s", w.mc_samples / wall_s / 1e6,
                           "Msamples/s", f"{w.mc_calls} x {workloads.SAMPLES} samples per round"))
    if w.point_latencies:
        for q, name in ((0.5, "point_p50_ms"), (0.99, "point_p99_ms")):
            lines.append(_line(name, _percentile(latencies, q) * 1e3, "ms",
                               f"{len(latencies)} points"))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    lines.append(_line("peak_rss_mb", rss_mb, "MB", "workload process"))
    return _finish(w, tally, metrics, lines)


def run_per_layer(args, src: Path) -> int:
    _, w = _start(args, src)
    import afrelay
    import probes
    import tracer

    tr = tracer.Tracer(afrelay)
    tally, plain_s, traced_s, summaries = run_traced(w, args.seconds, tr)
    overhead = median(traced_s) / median(plain_s) - 1.0
    probe_metrics, problems = probes.run_probes(w.program_seed)
    tally.add(problems)
    metrics = layer_metrics(summaries, overhead, probe_metrics)
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"spans-{w.name}-seed{args.seed}.jsonl"
    tr.write(spans_path, 0)
    lines = [_line(k, v, u) for k, (v, u) in metrics.items()]
    lines.append(f"  per traced round; {len(traced_s)} traced and {len(plain_s)} "
                 f"untraced rounds; spans of the first in {spans_path.relative_to(HERE.parent)}")
    return _finish(w, tally, metrics, lines)


def _label(op) -> str:
    if isinstance(op, str):  # validation check
        return op
    if isinstance(op[0], str):  # CLI argv
        return " ".join(op)
    params, depth = op
    return f"depth {depth}, {params}"


def _finish(w, tally: Tally, metrics: dict, lines: list[str]) -> int:
    ratio = tally.failed / tally.attempted
    lines.append(_line("failed_ratio", ratio, "ratio",
                       f"{tally.failed} failed of {tally.attempted} attempted"))
    print("\n".join(lines))
    ops = w.ops()
    failures = [(i, p) for i, p in enumerate(tally.problems) if p]
    for i, p in failures[:5]:
        label = _label(ops[i]) if i < len(ops) else "run check"
        print(f"  failed: {label}: {'; '.join(p[:3])}")
    print(json.dumps({
        "correct": ratio <= w.failed_ceiling,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process; a combined JSON line last."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.splitlines()[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for k, v in result["metrics"].items():
            combined["metrics"][f"{name}.{k}"] = v
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    src = Path.cwd() / "src"
    if not (src / "afrelay" / "__init__.py").is_file():
        print("error: src/afrelay not found; run from the root of an afrelay checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return (run_per_layer if args.trace else run_end_to_end)(args, src)


if __name__ == "__main__":
    sys.exit(main())
