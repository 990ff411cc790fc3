"""Acceptance gate: one test per shipped guarantee, each emitting a single
pass/fail line under pytest -v.

Criteria 01-08 run the matching `afrelay.validation` check, the one
implementation of each gate, and assert its verdict with the check's
report lines as the failure message.  Grids, seeds, stencils and
tolerances are pinned in `src/afrelay/validation.py`; the runtime
budgets are pinned here.  Two tests fail by design of the suite, not by
accident, and stay red on purpose:

* test_criterion_02...: the depth-2 series is nowhere near a 5% envelope
  on the upper half of the argument range (measured up to 131% relative at
  beta*x = 8), and deepening to k = 10 does not help at every grid point
  (at beta*x = 2 the k = 2 truncation is the more accurate one by chance).
* test_criterion_07...: the closed-form capacity inherits the high-SNR
  bias of the series CDF; against a 1e7-sample exact-model run the gap is
  +379 standard errors at 0 dB, falling to +8.6 at 20 dB, so a 3-SE
  agreement band cannot hold on this SNR range.

Both are documented measurement outcomes of the implemented formulas; the
checks state the advertised property honestly and report the measured
violation when it fires.
"""

import json
import time

from afrelay import validation
from afrelay.cli import main as cli_main


def assert_passes(check, *args, budget: float) -> None:
    t0 = time.perf_counter()
    result = check(*args)
    elapsed = time.perf_counter() - t0
    assert result.passed, "\n".join(result.lines)
    assert elapsed < budget


def test_criterion_01_coefficient_table():
    assert_passes(validation.check_coefficient_table, budget=1.0)


def test_criterion_02_series_accuracy_envelope():
    assert_passes(validation.check_series_accuracy_grid, budget=10.0)


def test_criterion_03_proof_identities():
    assert_passes(validation.check_proof_identities, budget=30.0)


def test_criterion_04_density_normalization():
    assert_passes(validation.check_pdf_normalization, 17, budget=5.0)


def test_criterion_05_density_matches_simulation():
    assert_passes(validation.check_density_vs_histogram, 42, 10**7, 2, budget=120.0)


def test_criterion_06_bep_closed_form():
    assert_passes(validation.check_bep_closed_form, 23, budget=30.0)


def test_criterion_07_capacity_agreement():
    assert_passes(validation.check_capacity_vs_mc, 42, 10**7, 2, budget=300.0)


def test_criterion_08_high_snr_audit():
    assert_passes(validation.check_high_snr_audit, budget=60.0)


def test_criterion_09_deterministic_validation(capsys):
    # byte-identical reports for any worker count; 2.5e6 samples spans
    # multiple scheduling blocks plus a ragged tail.  The quadrature checks
    # call the series PDF/CDF one scalar at a time, so the golden also pins
    # the scalar path of the closed forms.  Re-recorded when the series PDF
    # got one density polynomial (the pdf-normalization and
    # bep-closed-form twin lines moved in their last digits)
    for workers in ("1", "2", "4"):
        assert cli_main(["validate", "--samples", "2500000", "--workers", workers]) == 1
        header = capsys.readouterr().out.split("\n", 1)[0]
        assert json.loads(header[2:])["artifact_checksum"] == (
            "87ec2b921b8c0da3a60147ad7526a98e5d49314e60c3dc4a8e14cd426fe3c5a9"
        ), workers
