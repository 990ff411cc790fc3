"""Smoke test of the demos: each runs to exit 0 in a fresh interpreter and
prints something.  They call the min-of-hops density, the quadrature
oracle and the series PDF, which no other test reaches through them."""

import subprocess
import sys
from pathlib import Path

import pytest

from afrelay.cli import main

DEMOS = Path(__file__).resolve().parents[1] / "demos"


def run_demo(env: dict, name: str, *args: str) -> str:
    proc = subprocess.run(
        [sys.executable, str(DEMOS / name), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip(), name
    return proc.stdout


@pytest.mark.parametrize(
    "name",
    ("bessel_series_accuracy.py", "equivalent_channel_distribution.py", "performance_sweep.py"),
)
def test_printing_demo_runs(name, child_env):
    run_demo(child_env, name)


def test_plot_demo_draws_a_perf_artifact(tmp_path, capsys, child_env):
    csv = tmp_path / "perf.csv"
    assert main(["perf", "--gamma-db-grid=-5:35:17", "--out", str(csv)]) == 0
    capsys.readouterr()
    out = run_demo(child_env, "plot_cli_output.py", str(csv), "gamma_db", "outage", "--log-y")
    assert "checksum ok (17 rows)" in out
