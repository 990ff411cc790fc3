"""Cold start: importing afrelay loads numpy and no scipy module.

Each scipy function is imported where it is first used.  These tests run
fresh interpreters, because the test process loaded scipy long ago: one
checks what an import or a command leaves loaded, the others make one
scipy-touching call first thing and compare its bits with the same call
made here.
"""

import subprocess
import sys

import pytest

from afrelay.bessel_series import series_coeffs

SCIPY_LOADED = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"


def run_fresh(code: str, env: dict) -> str:
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_import_loads_no_scipy(child_env):
    out = run_fresh(f"import sys, afrelay\nprint({SCIPY_LOADED})", child_env)
    assert out.strip() == "[]"


@pytest.mark.parametrize(
    "argv", (["coeffs", "--nu", "1"], ["perf", "--gamma-db-grid", "0:30:4"]), ids=("coeffs", "perf"),
)
def test_command_does_not_load_scipy_integrate(argv, child_env):
    # no point of this perf grid needs the quadrature fallback of capacity
    code = (
        "import contextlib, io, sys\n"
        "import afrelay.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = afrelay.cli.main({argv!r})\n"
        "print(code, 'scipy.integrate' in sys.modules)"
    )
    assert run_fresh(code, child_env).split() == ["0", "False"]


# Shared by the child and this process.  The order-1 depth-10 table is
# given by value, so building the series coefficients loads no scipy.
PRELUDE = f"""
from afrelay import (
    BLOCK, ChannelParams, CoefficientTable, SimConfig, bit_error_prob_quadrature,
    combined_cdf_coeffs, combined_cdf_exact, simulate, srd_cdf, srd_pdf, term_coeff,
)

P = ChannelParams(gamma=100.0, lambda_sd=1.0, lambda_sr=1.0, lambda_rd=2.0)
CO = combined_cdf_coeffs(P, CoefficientTable(1.0, {series_coeffs(1.0, 10).a!r}))


def bits(v):
    if isinstance(v, float):
        return v.hex()
    return [v.value.hex(), v.std_error.hex(), v.samples_used]
"""

FIRST_USES = {
    "srd_cdf": "srd_cdf(P, 0.5)",
    "srd_pdf": "srd_pdf(P, 0.5)",
    "combined_cdf_exact": "combined_cdf_exact(P, 1.0)",
    "bit_error_prob_quadrature": "bit_error_prob_quadrature(P, CO)",
    # two blocks on two worker threads
    "simulate_bep": "simulate(P, SimConfig(seed=7, samples=BLOCK + 1000), 'bep', workers=2)",
    "term_coeff": "term_coeff(1.0, 3, 2)",
}


@pytest.mark.parametrize("expr", FIRST_USES.values(), ids=FIRST_USES.keys())
def test_first_use_computes_the_same_bits(expr, child_env):
    code = f"import sys\n{PRELUDE}\nassert not {SCIPY_LOADED}\nprint(repr(bits({expr})))"
    ns = {}
    exec(PRELUDE, ns)
    assert run_fresh(code, child_env).strip() == repr(ns["bits"](eval(expr, ns)))
