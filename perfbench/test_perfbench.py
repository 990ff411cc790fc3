"""Tests of the benchmark itself: tracing must not change any output, and
every correctness check must reject a corrupted output.

Run from the root of the checkout:  python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import afrelay  # noqa: E402
import probes  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from afrelay import cli, montecarlo, validation  # noqa: E402
from afrelay.channel import ChannelParams  # noqa: E402

# excursion warnings of the series CDF on the seeded draws
pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")


@pytest.fixture(scope="module")
def expected():
    return workloads.load_expected()


def _traced(fn):
    with tracer.Tracer(afrelay) as tr:
        tr.begin_run()
        out = fn()
        summary = tr.summary()
    return out, summary, tr


CHEAP_CLI_CALLS = [
    ["perf", "--with-mc", "--samples", "1000000", "--gamma-db-grid=-5,20", "--workers", "2"],
    ["dist", "--x-grid", "0:6:13", "--with-mc", "--with-minbound", "--samples", "1000000",
     "--workers", "2"],
    ["bessel", "--nu", "0", "--k", "5", "--x-grid", "0.5:4:4"],
]


@pytest.mark.parametrize("argv", CHEAP_CLI_CALLS, ids=lambda a: a[0])
def test_tracing_keeps_cli_output(argv):
    plain = workloads.run_cli(argv)
    traced, summary, _ = _traced(lambda: workloads.run_cli(argv))
    assert plain[0] == 0
    assert traced == plain
    assert summary["calls"]["cli.main"] == 1
    assert len(summary["calls"]) > 1


def test_tracing_keeps_closed_form_round():
    w = workloads.ClosedFormDraws(seed=7)
    ops = w.ops()
    _, plain = run.run_round(w, ops)
    (_, traced), summary, _ = _traced(lambda: run.run_round(w, ops))
    assert [w.key(o) for o in traced] == [w.key(o) for o in plain]
    assert summary["calls"]["channel.combined_cdf_coeffs"] == workloads.POINTS
    assert summary["calls"]["metrics.capacity"] == workloads.POINTS


def test_tracing_keeps_validation_checks():
    def checks():
        return [
            validation.check_bep_closed_form(42),
            validation.check_density_vs_histogram(42, 1_000_000, 2),
        ]

    plain = checks()
    traced, summary, _ = _traced(checks)
    assert traced == plain
    assert summary["validation_mc_calls"] == 2
    assert summary["draws"] == 2 * 3 * 1_000_000


def test_tracer_restores_every_binding():
    before = (cli.run_simulation, montecarlo.simulate, afrelay.simulate, afrelay.metrics.adaptive_quad)
    with tracer.Tracer(afrelay):
        assert cli.run_simulation is montecarlo.simulate is afrelay.simulate
        assert cli.run_simulation is not before[0]
        assert afrelay.metrics.adaptive_quad is afrelay.reference.adaptive_quad
    after = (cli.run_simulation, montecarlo.simulate, afrelay.simulate, afrelay.metrics.adaptive_quad)
    assert all(a is b for a, b in zip(before, after))


def test_quadrature_counts_and_fallbacks():
    p = ChannelParams(gamma=10 ** -0.5, lambda_sd=1.0, lambda_sr=1.0, lambda_rd=1.0)
    co = afrelay.combined_cdf_coeffs(p, afrelay.series_coeffs(1.0, 10))
    # lambda_srd / gamma = 12.6 > 12: capacity falls back to quadrature
    _, summary, _ = _traced(lambda: afrelay.metrics.capacity(p, co))
    assert summary["capacity_quad_fallbacks"] == 1
    assert summary["calls"]["reference.adaptive_quad"] == 11
    assert summary["quad_evals"] >= 21 * 11


def test_self_time_subtracts_children():
    spans = [
        ("validation.check_x", 0.0, 10.0, -1, 1),
        ("montecarlo.simulate", 1.0, 4.0, 0, 1),
        ("metrics.capacity", 5.0, 9.0, 0, 1),
        ("reference.adaptive_quad", 6.0, 7.0, 2, 1),
        ("reference.adaptive_quad", 7.0, 8.5, 2, 1),
    ]
    s = tracer.summarize(spans)
    assert s["self_s"]["validation.check_x"] == pytest.approx(3.0)
    assert s["self_s"]["metrics.capacity"] == pytest.approx(1.5)
    assert s["total_s"]["metrics.capacity"] == pytest.approx(4.0)
    assert s["calls"]["reference.adaptive_quad"] == 2
    assert s["capacity_quad_fallbacks"] == 1
    assert s["validation_mc_calls"] == 1


def test_span_file_round_trips(tmp_path):
    _, _, tr = _traced(lambda: workloads.run_cli(CHEAP_CLI_CALLS[2]))
    path = tmp_path / "spans.jsonl"
    tr.write(path)
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(rows) == len(tr.runs[0])
    assert {r["name"] for r in rows if r["parent"] == -1} == {"cli.main"}
    assert all(r["end"] >= r["start"] >= 0.0 for r in rows)


def _replace_cell(text: str, column: str, row: int, fn) -> str:
    lines = text.splitlines()
    columns = lines[1].split(",")
    cells = lines[2 + row].split(",")
    i = columns.index(column)
    cells[i] = fn(cells[i])
    lines[2 + row] = ",".join(cells)
    return "\n".join(lines) + "\n"


def _last_digit(cell: str) -> str:
    mantissa, _, exp = cell.partition("e")
    d = mantissa[-1]
    mantissa = mantissa[:-1] + ("1" if d == "0" else "0")
    return mantissa + ("e" + exp if exp else "")


def _scaled(factor):
    return lambda cell: repr(float(cell) * factor)


@pytest.fixture(scope="module")
def sweep_output(expected):
    w = workloads.McSweep(seed=0, expected=expected)
    [argv] = w.ops()
    rc, text = w.run_op(argv)
    return w, rc, text


def test_mc_sweep_output_passes(sweep_output):
    w, rc, text = sweep_output
    assert w.check_op(w.ops()[0], (rc, text)) == []


@pytest.mark.parametrize("column, corrupt", [
    ("mc_outage", _last_digit),
    ("mc_bep", _last_digit),
    ("mc_capacity_nats", _last_digit),
    ("mc_bep_se", _scaled(1.0001)),
    ("capacity_nats", _scaled(1.0001)),
    ("outage", _scaled(0.999)),
])
def test_mc_sweep_check_rejects_corruption(sweep_output, column, corrupt):
    w, rc, text = sweep_output
    bad = _replace_cell(text, column, 4, corrupt)
    assert bad != text
    assert w.check_op(w.ops()[0], (rc, bad))


def test_mc_sweep_check_rejects_exit_code_and_garbage(sweep_output):
    w, rc, text = sweep_output
    argv = w.ops()[0]
    assert w.check_op(argv, (3, text))
    assert w.check_op(argv, (0, text[: len(text) // 2]))
    assert w.check_op(argv, (0, ""))


@pytest.fixture(scope="module")
def dist_output(expected):
    w = workloads.ExactDist(seed=0, expected=expected)
    argv = w.argvs()[2]
    rc, text = workloads.run_cli(argv)
    return w, argv, rc, text


def test_exact_dist_output_passes(dist_output):
    w, argv, rc, text = dist_output
    assert w.check(argv, rc, text) == []


@pytest.mark.parametrize("column, corrupt", [
    ("mc_density", _last_digit),
    ("minbound_density", _last_digit),
    ("cdf_quadrature", _scaled(1.0001)),
    ("cdf_eq", _scaled(1.0001)),
    ("pdf_eq", _scaled(0.999)),
])
def test_exact_dist_check_rejects_corruption(dist_output, column, corrupt):
    w, argv, rc, text = dist_output
    bad = _replace_cell(text, column, 10, corrupt)
    assert bad != text
    assert w.check(argv, rc, bad)


def test_validate_check():
    w = workloads.Validate(seed=5)
    assert w.program_seed == 42
    assert w.ops() == list(validation.CHECK_NAMES)
    for name, v in workloads.VALIDATE_VERDICTS.items():
        good = validation.CheckResult(name, v == "PASS", ("measured",))
        assert w.check_op(name, good) == []
        assert w.check_op(name, validation.CheckResult(name, v != "PASS", ("measured",))), name
    assert w.check_op("bep-closed-form", validation.CheckResult("high-snr-audit", True, ()))
    assert w.check_op("bep-closed-form", ValueError("boom"))


def test_validate_op_runs_the_check():
    w = workloads.Validate(seed=0)
    out = w.run_op("bep-closed-form")
    assert out == validation.check_bep_closed_form(42)
    assert w.check_op("bep-closed-form", out) == []


def test_closed_form_point_check():
    p = ChannelParams(gamma=100.0, lambda_sd=1.0, lambda_sr=1.0, lambda_rd=1.0)
    out = workloads.closed_form_point(p, 10)
    assert workloads.check_point(p, out) == []
    jensen = 0.5 * math.log1p(100.0 * 1.5)
    for i, bad in ((2, 1.5), (2, -0.1), (3, 0.0), (3, 0.6), (4, -1e-3),
                   (4, jensen * 1.01), (4, math.nan), (3, math.nan)):
        corrupted = out[:i] + (bad,) + out[i + 1:]
        assert workloads.check_point(p, corrupted), (i, bad)
    assert workloads.check_point(p, RuntimeError("boom"))


def test_closed_form_ops_repeat_with_the_seed():
    a, b = workloads.ClosedFormDraws(seed=3), workloads.ClosedFormDraws(seed=3)
    assert a.ops() == b.ops() != workloads.ClosedFormDraws(seed=4).ops()
    assert len(a.ops()) == workloads.POINTS


class _Toy(workloads.Workload):
    """Operations are numbers; an operation fails its check when negative."""

    def __init__(self, values):
        super().__init__(0)
        self.values = values

    def ops(self):
        return list(range(len(self.values)))

    def run_op(self, i):
        return self.values[i]

    def check_op(self, i, out):
        return ["negative"] if out < 0 else []

    def key(self, out):
        return repr(out).encode()


def test_tally_counts_each_operation_once():
    w = _Toy([1.0, -1.0, 2.0])
    _, outputs = run.run_round(w, w.ops())
    tally = run.Tally(w, outputs)
    for _ in range(4):
        tally.repeat(run.run_round(w, w.ops())[1])
    assert (tally.attempted, tally.failed) == (3, 1)
    tally.repeat([1.0, -1.0, 2.5])
    tally.repeat([1.0, -1.0, 2.5])
    assert (tally.attempted, tally.failed) == (3, 2)
    assert tally.problems[2] == ["a repeat gave another output"]
    tally.add([])
    tally.add(["probe disagrees"])
    assert (tally.attempted, tally.failed) == (5, 3)


def test_untraced_run_probes_between_operations():
    w = _Toy([1.0, 2.0])
    tally, round_s, calibration_s, latencies = run.run_untraced(w, 0.0)
    assert len(round_s) == run.MIN_ROUNDS
    assert len(latencies) == 2 * run.MIN_ROUNDS
    assert len(calibration_s) == 2 * run.MIN_ROUNDS  # one per operation
    assert all(c > 0.0 for c in calibration_s)
    assert (tally.attempted, tally.failed) == (2, 0)
    calibration_s = []
    run.run_round(workloads.ClosedFormDraws(seed=1), workloads.draw_points(1, 250),
                  calibration_s)
    assert len(calibration_s) == 125  # every other of 250 operations


def test_reference_time_cancels_host_speed():
    ref = run.CALIBRATION_REF_S
    assert run.reference_time([0.3, 0.5], [ref, ref]) == pytest.approx(0.4)
    # a host at half speed doubles both the rounds and the probes
    assert run.reference_time([0.6, 1.0], [2 * ref, 2 * ref]) == pytest.approx(0.4)
    assert run.reference_time([0.6, 1.0], [ref, ref]) == pytest.approx(0.8)


def test_probe_identity_check():
    a = montecarlo.SimEstimate(0.5, 0.01, 10)
    assert probes.same_estimates([a, montecarlo.SimEstimate(0.5, 0.01, 10)])
    assert not probes.same_estimates([a, montecarlo.SimEstimate(0.5 + 1e-16, 0.01, 10)])
    assert not probes.same_estimates([a, montecarlo.SimEstimate(0.5, 0.0100001, 10)])


def test_benchmark_json_matches_the_runner():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOAD_NAMES)
    assert set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS)
    summary = {"calls": {}, "self_s": {}, "total_s": {}, "quad_evals": 0, "draws": 0,
               "capacity_quad_fallbacks": 0, "validation_mc_calls": 0}
    probe_names = [f"montecarlo.block_ms.{m}" for m in probes.BLOCK_METRICS] + [
        "montecarlo.relay_power.ns_per_sample", "montecarlo.scaling_eff_w2"]
    names = run.layer_metrics([summary], 0.1, {n: (1.0, "x") for n in probe_names})
    assert [m["name"] for m in spec["per_layer"]] == list(names)
    assert all(m["unit"] == names[m["name"]][1] for m in spec["per_layer"][:-len(probe_names)])
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
