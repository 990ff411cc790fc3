"""Cold start: importing afrelay loads numpy and, beyond it, only three
standard-library modules and the package's own six; no scipy module, nor
numpy.polynomial, nor the thread pool of the Monte Carlo workers, nor the
validation suite or the command line.  A command other than validate
loads no validation suite either.

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


LOADED = "sorted(sys.modules)"

# what `import afrelay` loads beyond `import numpy`: a module added here
# costs every cold start
ADDED_BY_AFRELAY = [
    "__future__",
    "afrelay",
    "afrelay.bessel_series",
    "afrelay.channel",
    "afrelay.metrics",
    "afrelay.montecarlo",
    "afrelay.reference",
    "copy",
    "dataclasses",
]


def test_import_adds_only_its_own_modules_to_numpy(child_env):
    numpy_only = set(eval(run_fresh(f"import sys, numpy\nprint({LOADED})", child_env)))
    with_afrelay = set(eval(run_fresh(f"import sys, afrelay\nprint({LOADED})", child_env)))
    assert numpy_only <= with_afrelay
    assert sorted(with_afrelay - numpy_only) == ADDED_BY_AFRELAY


def test_import_loads_no_scipy(child_env):
    code = f"import sys, afrelay\nprint({SCIPY_LOADED}, 'numpy.polynomial' in sys.modules)"
    assert run_fresh(code, child_env).strip() == "[] False"


def test_import_loads_no_thread_pool(child_env):
    # the Monte Carlo thread pool is imported where more than one worker
    # runs, so importing the package loads neither it nor its logging
    code = "import sys, afrelay\nprint('concurrent.futures' in sys.modules, 'logging' in sys.modules)"
    assert run_fresh(code, child_env).split() == ["False", "False"]


def test_import_loads_no_validation(child_env):
    # no name of the package namespace lives in validation or cli, so
    # importing the package runs neither the self-check suite nor the parser
    code = (
        "import sys, afrelay\n"
        "print('afrelay.validation' in sys.modules, 'afrelay.cli' in sys.modules)"
    )
    assert run_fresh(code, child_env).split() == ["False", "False"]


@pytest.mark.parametrize(
    "argv",
    (["coeffs", "--nu", "1"], ["perf", "--gamma-db-grid", "0:30:4"], ["dist", "--gamma-db", "20"]),
    ids=("coeffs", "perf", "dist"),
)
def test_command_loads_neither_scipy_integrate_nor_validation(argv, child_env):
    # cli imports the self-check suite inside the validate command alone.
    # No point of this perf grid needs the quadrature fallback of capacity,
    # and dist's cdf_quadrature column takes fixed panels, not scipy.integrate,
    # on a literal Gauss-Legendre table, not numpy.polynomial's.  scipy.special
    # loads numpy.polynomial itself (through its array-API layer), so the
    # child replaces every numpy.polynomial function by one that raises: a
    # command that called one would fail
    code = (
        "import contextlib, io, sys\n"
        "import numpy.polynomial as npp\n"
        "def refuse(*args, **kwargs):\n"
        "    raise RuntimeError('numpy.polynomial called')\n"
        "for mod in (npp.chebyshev, npp.hermite, npp.hermite_e, npp.laguerre,\n"
        "            npp.legendre, npp.polynomial):\n"
        "    for name in mod.__all__:\n"
        "        setattr(mod, name, refuse)\n"
        "import afrelay.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = afrelay.cli.main({argv!r})\n"
        "print(code, 'scipy.integrate' in sys.modules, 'afrelay.validation' in sys.modules)"
    )
    assert run_fresh(code, child_env).split() == ["0", "False", "False"]


# Shared by the child and this process.  The order-1 depth-10 table is
# given by value, so building the series coefficients loads no scipy.
PRELUDE = f"""
from afrelay import ChannelParams, SimConfig, combined_cdf_coeffs, simulate
from afrelay.bessel_series import CoefficientTable, term_coeff
from afrelay.channel import combined_cdf_exact, srd_cdf, srd_pdf
from afrelay.metrics import bit_error_prob_quadrature, e1_scaled
from afrelay.montecarlo import BLOCK

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
    "e1_scaled": "e1_scaled(0.5)",
}


@pytest.mark.parametrize("expr", FIRST_USES.values(), ids=FIRST_USES.keys())
def test_first_use_computes_the_same_bits(expr, child_env):
    code = f"import sys\n{PRELUDE}\nassert not {SCIPY_LOADED}\nprint(repr(bits({expr})))"
    ns = {}
    exec(PRELUDE, ns)
    assert run_fresh(code, child_env).strip() == repr(ns["bits"](eval(expr, ns)))
