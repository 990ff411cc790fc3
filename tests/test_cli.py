"""Command-line surface: argument handling, output formats, manifests,
exit codes and byte-level reproducibility.

Commands run in process through main(argv) with captured streams; one
subprocess test pins the module entry point.
"""

import argparse
import hashlib
import itertools
import json
import math
import platform
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

from afrelay import channel, montecarlo, validation
from afrelay.cli import _build_parser, _parse_grid, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    """Split a csv-with-manifest payload into (manifest, columns, rows)."""
    header, body = text.split("\n", 1)
    assert header.startswith("# ")
    manifest = json.loads(header[2:])
    lines = body.rstrip("\n").split("\n")
    columns = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return manifest, columns, rows


def column(rows, columns, name):
    i = columns.index(name)
    return [r[i] for r in rows]


class TestParseGrid:
    def test_colon_form_is_inclusive(self):
        np.testing.assert_allclose(_parse_grid("0:6:4"), [0.0, 2.0, 4.0, 6.0])

    def test_single_point_grid(self):
        np.testing.assert_allclose(_parse_grid("5:9:1"), [5.0])
        np.testing.assert_allclose(_parse_grid("3.5"), [3.5])

    def test_comma_form(self):
        np.testing.assert_allclose(_parse_grid("1,2.5, 4,"), [1.0, 2.5, 4.0])

    def test_rejects_malformed(self):
        for bad in (
            "", "  ", "1:2", "1:2:3:4", "0:1:0", "a,b",
            "0,nan,2", "0:inf:3", "-inf:0:3", "1, -inf", "nan",
        ):
            with pytest.raises(ValueError):
                _parse_grid(bad)

    def test_non_integer_count_is_refused_by_name(self):
        # not int()'s "invalid literal" message
        for bad in ("0:1:2.5", "0:1:1e1"):
            with pytest.raises(ValueError, match="grid count"):
                _parse_grid(bad)

    def test_non_finite_grid_is_usage_error(self, capsys):
        # every grid flag, refused before any quadrature runs
        for argv in (
            ("dist", "--x-grid", "0,nan,2"),
            ("dist", "--x-grid", "0:inf:3"),
            ("bessel", "--beta-list", "1,inf"),
            ("bessel", "--x-grid", "nan:2:3"),
            ("perf", "--gamma-db-grid", "0,inf"),
            ("perf", "--gamma-linear-grid", "nan,1"),
        ):
            code, out, err = run_cli(capsys, *argv)
            assert (code, out) == (2, ""), argv
            assert "grid values must be finite" in err, argv

    def test_comma_only_grid_is_usage_error(self, capsys):
        for argv in (("dist", "--x-grid", ","), ("bessel", "--beta-list", " , ,")):
            code, out, err = run_cli(capsys, *argv)
            assert (code, out) == (2, ""), argv
            assert "empty grid" in err, argv

    def test_negative_linear_snr_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "perf", "--gamma-linear-grid", "0,-1,2")
        assert (code, out) == (2, "")
        assert "linear SNR values must be >= 0" in err


class TestManifest:
    def test_csv_checksum_covers_body(self, capsys):
        code, out, _ = run_cli(capsys, "coeffs", "--nu", "1", "--k", "4")
        assert code == 0
        header, body = out.split("\n", 1)
        manifest = json.loads(header[2:])
        assert manifest["command"] == "coeffs"
        assert manifest["output_path"] == "-"
        assert manifest["artifact_checksum"] == hashlib.sha256(body.encode()).hexdigest()

    def test_json_checksum_covers_records(self, capsys):
        code, out, _ = run_cli(capsys, "coeffs", "--nu", "1", "--k", "4", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        recomputed = json.dumps(doc["records"], sort_keys=True, separators=(",", ":"))
        assert (
            doc["manifest"]["artifact_checksum"]
            == hashlib.sha256(recomputed.encode()).hexdigest()
        )

    def test_worker_count_never_reaches_the_manifest(self, capsys):
        code, out, _ = run_cli(
            capsys, "dist", "--x", "0:2:3", "--with-mc", "--samples", "50000",
            "--workers", "4",
        )
        assert code == 0
        manifest, _, _ = parse_csv(out)
        assert "workers" not in json.dumps(manifest)

    def test_out_file_records_its_own_path(self, capsys, tmp_path):
        target = tmp_path / "c.csv"
        code = main(["coeffs", "--nu", "1", "--k", "2", "--out", str(target)])
        capsys.readouterr()
        assert code == 0
        manifest, _, _ = parse_csv(target.read_text())
        assert manifest["output_path"] == str(target)
        assert manifest["parameters"] == {"format": "csv", "k": 2, "nu": 1.0}

    UNIT_RATES = {"lambda_rd": 1.0, "lambda_sd": 1.0, "lambda_sr": 1.0}
    DIST = {
        "format": "csv", "k": 10, "samples": 10**7, "with_mc": False,
        "with_minbound": False, **UNIT_RATES,
    }
    PERF = {
        "bits": False, "format": "csv", "k": 10, "metrics": "outage,bep,capacity",
        "relays": 1, "samples": 10**7, "snr_threshold_db": 0.0, "with_mc": False,
        **UNIT_RATES,
    }

    @pytest.mark.parametrize("argv, parameters, seed", [
        (("coeffs", "--nu", "1", "--k", "4"), {"format": "csv", "k": 4, "nu": 1.0}, None),
        (
            ("coeffs", "--nu", "1", "--k", "4", "--format", "table1"),
            {"format": "table1", "k": 4, "nu": 1.0}, None,
        ),
        (
            ("bessel", "--k", "5", "--beta-list", "1", "--x-grid", "1:2:2"),
            {"beta_list": "1", "format": "csv", "k": 5, "nu": 1.0, "x_grid": "1:2:2"},
            None,
        ),
        (("dist",), {**DIST, "gamma_db": 30.0, "x_grid": "0:6:61"}, 42),
        (
            ("dist", "--gamma-linear", "50", "--x-grid", "0:2:3", "--seed", "7",
             "--workers", "2"),
            {**DIST, "gamma_linear": 50.0, "x_grid": "0:2:3"}, 7,
        ),
        (("perf",), {**PERF, "gamma_db_grid": "-5:35:9"}, 42),
        (
            ("perf", "--gamma-linear-grid", "0,10", "--workers", "2"),
            {**PERF, "gamma_linear_grid": "0,10"}, 42,
        ),
    ], ids=("coeffs", "table1", "bessel", "dist", "dist-linear", "perf", "perf-linear"))
    def test_parameters_are_the_flags_with_values(self, capsys, argv, parameters, seed):
        # every flag the parser gave a value but the seed, output path and
        # worker count; the dB default of a linear-scale run stays out
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        manifest, _, _ = parse_csv(out)
        assert manifest["parameters"] == parameters
        assert manifest["seed"] == seed


class TestCoeffs:
    def test_raw_values_in_json(self, capsys):
        code, out, _ = run_cli(capsys, "coeffs", "--nu", "1", "--k", "2", "--format", "json")
        assert code == 0
        records = json.loads(out)["records"]
        assert [r["q"] for r in records] == [0, 1, 2]
        assert records[0]["a"] == 0.9999999999999999
        assert records[1]["a"] == 0.7999999999999999
        assert records[2]["a"] == -0.13333333333333341

    def test_display_rounding_mode(self, capsys):
        code, out, _ = run_cli(capsys, "coeffs", "--nu", "1", "--k", "2", "--format", "table1")
        assert code == 0
        _, columns, rows = parse_csv(out)
        assert column(rows, columns, "a") == ["1", "0.8", "-0.1333"]

    def test_half_integer_order_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "coeffs", "--nu", "0.5", "--k", "3")
        assert code == 2
        assert "half-integer" in err

    def test_order_past_the_double_range_is_usage_error(self, capsys):
        # an overflowing term and 0.5 - nu rounding to an integer refuse
        # as the half-integers do, with no traceback or nan table
        for argv in (
            ("coeffs", "--nu", "170", "--k", "3"),
            ("coeffs", "--nu", "1e16", "--k", "2"),
            ("bessel", "--nu", "200", "--x-grid", "1"),
        ):
            code, out, err = run_cli(capsys, *argv)
            assert (code, out) == (2, ""), argv
            assert "past the double range" in err, argv

    def test_near_half_integer_order_is_served(self, capsys):
        code, out, _ = run_cli(capsys, "coeffs", "--nu", "0.5000000000001", "--k", "3")
        assert code == 0
        _, _, rows = parse_csv(out)
        assert all(math.isfinite(float(a)) for _, a in rows)


class TestBessel:
    def test_series_and_oracle_columns(self, capsys):
        code, out, _ = run_cli(
            capsys, "bessel", "--nu", "0", "--k", "10", "--beta", "1", "--x", "1",
            "--format", "json",
        )
        assert code == 0
        rec = json.loads(out)["records"][0]
        assert rec["series"] == pytest.approx(0.4209461971179045, rel=1e-12)
        assert rec["oracle"] == pytest.approx(0.4210244382407084, rel=1e-9)
        assert rec["rel_error"] < 2e-4

    def test_sweep_shape(self, capsys):
        code, out, _ = run_cli(
            capsys, "bessel", "--nu", "1", "--k", "5", "--beta", "0.5,2", "--x", "1:3:3",
        )
        assert code == 0
        _, columns, rows = parse_csv(out)
        assert columns == ["beta", "x", "series", "oracle", "rel_error"]
        assert len(rows) == 6  # 2 betas x 3 points

    def test_rejects_nonpositive_arguments(self, capsys):
        code, _, err = run_cli(capsys, "bessel", "--nu", "1", "--beta", "-1", "--x", "1")
        assert code == 2
        assert "positive" in err

    def test_overflowing_argument_refused_as_a_python_float(self, capsys):
        # beta * x is a float product: inf with no numpy overflow warning
        code, out, err = run_cli(capsys, "bessel", "--beta-list", "1e308", "--x-grid", "10")
        assert (code, out) == (2, "")
        assert err == "error: series argument z must be a finite real > 0, got inf\n"

    def test_large_order_row(self, capsys):
        # K_100(1) = 5.90e185: the oracle's cosh(nu t) alone would overflow
        code, out, _ = run_cli(
            capsys, "bessel", "--nu", "100", "--k", "5", "--beta-list", "1", "--x-grid", "1"
        )
        assert code == 0
        _, columns, [row] = parse_csv(out)
        assert float(column([row], columns, "oracle")[0]) == pytest.approx(5.900333e185, rel=1e-6)

    # goldens: the artifact_checksum of each command when order 0 had a
    # function of its own; the first is perfbench's call
    @pytest.mark.parametrize(
        "argv, checksum",
        (
            (("--nu", "0", "--k", "5", "--x-grid", "0.5:4:4"),
             "4263d741eeb7997093199c45f2935168d39863c388bbd676a67a2a96d24ce1a6"),
            (("--nu", "0", "--k", "10", "--beta-list", "1", "--x-grid", "1e-3,0.1,1,5"),
             "97a54b4527ca7b62cafcbf129791035b8b8f1bd0e20d1f16c223103784f6fce2"),
            (("--nu", "1", "--k", "10"),
             "9d99c49c270d7e95c27afa092311cc5a166b6fd8a5b6c3f21ce42e37b2548a25"),
        ),
    )
    def test_pinned_artifact(self, capsys, argv, checksum):
        code, out, _ = run_cli(capsys, "bessel", *argv)
        assert code == 0
        manifest, _, _ = parse_csv(out)
        assert manifest["artifact_checksum"] == checksum

    @pytest.mark.parametrize(
        "argv, where",
        ((("--beta-list", "100", "--x-grid", "8"), "nu=1.0, z=800.0"),
         (("--nu", "100", "--k", "5", "--beta-list", "1", "--x-grid", "300"), "nu=100.0, z=300.0")),
    )
    def test_series_underflow_is_usage_error(self, capsys, argv, where):
        # exp(-z) z**(-nu) underflows: at z = 800 the oracle K_1 is 0.0
        # too, and the relative error would divide by it; K_100(300) =
        # 5.41e-125, where the series read 0.0
        code, out, err = run_cli(capsys, "bessel", *argv)
        assert (code, out) == (2, "")
        assert f"leaves the doubles at {where}" in err


class TestDist:
    def test_closed_form_columns(self, capsys):
        code, out, _ = run_cli(capsys, "dist", "--x", "0:3:4")
        assert code == 0
        _, columns, rows = parse_csv(out)
        cdf = [float(v) for v in column(rows, columns, "cdf_eq")]
        assert cdf[0] == 0.0
        assert cdf[1] == pytest.approx(0.472209723459, rel=1e-9)
        assert cdf[2] == pytest.approx(0.801001923547, rel=1e-9)
        assert cdf[3] == pytest.approx(0.92668089654, rel=1e-9)
        quad = [float(v) for v in column(rows, columns, "cdf_quadrature")]
        assert quad[1] == pytest.approx(0.472303365829, rel=1e-9)

    def test_mc_columns_blank_without_sampling(self, capsys):
        code, out, _ = run_cli(capsys, "dist", "--x", "0:2:3")
        assert code == 0
        _, columns, rows = parse_csv(out)
        assert set(column(rows, columns, "mc_density")) == {""}
        assert set(column(rows, columns, "minbound_density")) == {""}

    def test_sampled_densities_fill_in(self, capsys):
        code, out, _ = run_cli(
            capsys, "dist", "--x", "0.5:2:4", "--with-mc", "--with-minbound",
            "--samples", "100000", "--format", "json",
        )
        assert code == 0
        records = json.loads(out)["records"]
        pdf = np.array([r["pdf_eq"] for r in records])
        mc = np.array([r["mc_density"] for r in records])
        assert np.all(mc > 0)
        assert np.all(np.abs(mc - pdf) / pdf < 0.15)
        assert all(r["minbound_density"] > 0 for r in records)

    def test_descending_grid_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "dist", "--x", "2,1,3")
        assert code == 2

    def test_hop_rates_past_the_double_range_are_usage_error(self, capsys):
        # lambda_p = lambda_sr lambda_rd overflows or underflows
        for rate in ("1e155", "1e-200"):
            code, out, err = run_cli(
                capsys, "dist", "--lambda-sr", rate, "--lambda-rd", rate, "--x-grid", "0:1:3"
            )
            assert (code, out) == (2, ""), rate
            assert "lambda_sr" in err and "lambda_rd" in err, rate

    def test_one_point_grid_with_sampling_is_usage_error(self, capsys):
        # one grid point gives no bin width; refused before any work
        for flag in ("--with-mc", "--with-minbound"):
            code, out, err = run_cli(capsys, "dist", "--x", "2", flag)
            assert code == 2
            assert out == ""
            assert "two points" in err
        code, out, _ = run_cli(capsys, "dist", "--x", "2")
        assert code == 0
        _, _, rows = parse_csv(out)
        assert len(rows) == 1

    def test_workers_do_not_change_bytes(self, capsys):
        argv = ["dist", "--x", "0:4:5", "--with-mc", "--samples", "2500000"]
        _, out1, _ = run_cli(capsys, *argv, "--workers", "1")
        _, out4, _ = run_cli(capsys, *argv, "--workers", "4")
        assert out1 == out4

    def test_negative_seed_is_usage_error_without_sampling(self, capsys):
        code, out, err = run_cli(capsys, "dist", "--x", "0:2:3", "--seed", "-1")
        assert code == 2
        assert out == ""
        assert "seed" in err

    def test_fast_direct_path(self, capsys):
        # lambda_sd = 400: the direct-path density changes on the scale
        # 1/400 near u = x, and is uniform in the variable of the panels,
        # the direct path's own probability; the cells match a tight
        # quadrature of the convolution
        from scipy import integrate

        from afrelay.channel import ChannelParams, srd_cdf

        code, out, _ = run_cli(capsys, "dist", "--lambda-sd", "400", "--gamma-db", "30")
        assert code == 0
        _, columns, rows = parse_csv(out)
        xs = [float(v) for v in column(rows, columns, "x")]
        quad = [float(v) for v in column(rows, columns, "cdf_quadrature")]
        p = ChannelParams(gamma=1e3, lambda_sd=400.0, lambda_sr=1.0, lambda_rd=1.0)
        for i in (5, 15, 60):
            x = xs[i]
            want, _ = integrate.quad(
                lambda v: 400.0 * math.exp(-400.0 * v) * srd_cdf(p, x - v),
                0.0, min(x, 745.0 / 400.0), epsabs=1e-15, epsrel=1e-13, limit=200,
            )
            assert quad[i] == pytest.approx(want, rel=1e-11), x

    def test_direct_path_past_expm1(self, capsys):
        # lambda_sd x passes 709.8 at every x > 0; the exact column takes
        # u(t)'s logarithmic form and returns a value
        code, out, _ = run_cli(capsys, "dist", "--lambda-sd", "1e22", "--x-grid", "0:2:3")
        assert code == 0
        _, columns, rows = parse_csv(out)
        quad = [float(v) for v in column(rows, columns, "cdf_quadrature")]
        assert quad[0] == 0.0 and 0.0 < quad[1] < quad[2] < 1.0

    def test_gamma_whose_reciprocal_leaves_the_doubles_is_usage_error(self, capsys):
        # 1/1e-310 is inf: refused naming gamma, before any numpy warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(
                capsys, "dist", "--gamma-linear", "1e-310", "--x-grid", "0:6:4"
            )
        assert (code, out) == (2, "")
        assert err == "error: 1/gamma leaves the doubles at gamma=1e-310\n"

    def test_smallest_gamma_reads_the_zero_snr_limit(self, capsys):
        # as gamma -> 0, S -> 0 and D + S -> D: cdf_quadrature at x = 2 is
        # 1 - exp(-2)
        code, out, _ = run_cli(capsys, "dist", "--gamma-linear", "1e-300", "--x-grid", "0:6:4")
        assert code == 0
        _, columns, rows = parse_csv(out)
        assert column(rows, columns, "cdf_quadrature")[1] == "0.864664716763"

    def test_pinned_artifact(self, capsys):
        # golden: covers the array path of the series CDF/PDF and of the
        # exact CDF; re-recorded when pdf_eq at x = 0 went from
        # -8.881784197e-16 to exactly 0, and when cdf_quadrature moved to
        # fixed panels (26 of 61 cells, by at most 1.17e-10, each toward a
        # tight adaptive quadrature)
        code, out, _ = run_cli(capsys, "dist", "--gamma-db", "20")
        assert code == 0
        manifest, _, _ = parse_csv(out)
        assert manifest["artifact_checksum"] == (
            "aa1a9233edc22ce17acbe9d2053539bc0e40a1a7ae1f453c32a3dfb82676b9ae"
        )

    # golden: the artifact_checksum of this command while the model's and
    # the bound's histograms were two separate passes over the streams
    SAMPLED_ARGV = ("dist", "--with-mc", "--with-minbound", "--samples", "200000")
    SAMPLED_CHECKSUM = "7962f9157b83e39a20c35f24b710590627ee5d6bad38a3db1a41178b554e6f57"

    @pytest.mark.parametrize("workers", ("1", "2"))
    def test_pinned_sampled_artifact(self, capsys, workers):
        code, out, _ = run_cli(capsys, *self.SAMPLED_ARGV, "--workers", workers)
        assert code == 0
        manifest, _, _ = parse_csv(out)
        assert manifest["artifact_checksum"] == self.SAMPLED_CHECKSUM

    def test_model_and_bound_share_one_pass(self, capsys, monkeypatch):
        # one stream opened per (link, block): the direct link and the one
        # relay of the single block, read once for both histograms
        opened = []

        def stream(seed, link, start):
            opened.append((link, start))
            return open_stream(seed, link, start)

        open_stream = montecarlo._stream
        monkeypatch.setattr(montecarlo, "_stream", stream)
        code, _, _ = run_cli(capsys, *self.SAMPLED_ARGV)
        assert code == 0
        assert sorted(opened) == [(0, 0), (1, 0)]


class TestPerf:
    def test_closed_form_sweep_values(self, capsys):
        code, out, _ = run_cli(capsys, "perf", "--gamma-db-grid", "0:20:3")
        assert code == 0
        _, columns, rows = parse_csv(out)
        assert columns[0] == "gamma_db"
        outage = [float(v) for v in column(rows, columns, "outage")]
        bep = [float(v) for v in column(rows, columns, "bep")]
        cap = [float(v) for v in column(rows, columns, "capacity_nats")]
        assert outage[0] == pytest.approx(0.472209723459, rel=1e-9)
        assert outage[2] == pytest.approx(0.000105171395585, rel=1e-9)
        assert bep[1] == pytest.approx(0.00357882889479, rel=1e-9)
        assert cap[2] == pytest.approx(2.30285077264, rel=1e-9)

    def test_outage_never_increases_with_snr(self, capsys):
        code, out, _ = run_cli(capsys, "perf", "--gamma-db-grid=-5:35:9")
        assert code == 0
        _, columns, rows = parse_csv(out)
        outage = [float(v) for v in column(rows, columns, "outage")]
        assert all(b <= a for a, b in zip(outage, outage[1:]))

    def test_zero_snr_rows_use_limits(self, capsys):
        code, out, _ = run_cli(
            capsys, "perf", "--gamma-linear-grid", "0,1,100", "--bits",
        )
        assert code == 0
        _, columns, rows = parse_csv(out)
        assert rows[0][columns.index("gamma_db")] == "-inf"
        assert float(rows[0][columns.index("outage")]) == 1.0
        assert float(rows[0][columns.index("bep")]) == 0.5
        assert float(rows[0][columns.index("capacity_bits")]) == 0.0
        cap_bits = [float(v) for v in column(rows, columns, "capacity_bits")]
        assert cap_bits[1] == pytest.approx(0.552256030862, rel=1e-9)
        assert cap_bits[2] == pytest.approx(3.32231138959, rel=1e-9)

    def test_bits_scale_every_capacity_column_alone(self, capsys):
        # --bits renames the closed-form, mc_ and mc_..._se capacity columns
        # and multiplies each by 1/ln 2; the other metrics keep their bytes
        argv = ("perf", "--gamma-linear-grid", "0,1,100", "--with-mc", "--samples", "1000",
                "--format", "json")
        code, nats, _ = run_cli(capsys, *argv)
        code_bits, bits, _ = run_cli(capsys, *argv, "--bits")
        assert code == code_bits == 0
        for rec, rec_bits in zip(json.loads(nats)["records"], json.loads(bits)["records"]):
            for col in ("{}", "mc_{}", "mc_{}_se"):
                cap_bits = rec_bits.pop(col.format("capacity_bits"))
                assert cap_bits == rec.pop(col.format("capacity_nats")) * (1.0 / math.log(2.0))
            assert rec_bits == rec

    def test_monte_carlo_columns(self, capsys):
        # 20 dB: the high-SNR truncation bias of the closed form is far
        # below one standard error at this sample count
        code, out, _ = run_cli(
            capsys, "perf", "--gamma-db-grid", "20:20:1", "--metrics", "bep",
            "--with-mc", "--samples", "200000", "--format", "json",
        )
        assert code == 0
        rec = json.loads(out)["records"][0]
        assert rec["mc_bep_se"] > 0
        assert abs(rec["mc_bep"] - rec["bep"]) < 5 * rec["mc_bep_se"]

    def test_one_sample_standard_error_is_undefined(self, capsys):
        # one sample has no spread to estimate: the standard error prints
        # as nan in csv and null in json, not as an exact 0
        argv = ("perf", "--with-mc", "--samples", "1", "--gamma-db-grid", "10")
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        _, columns, rows = parse_csv(out)
        names = ("mc_outage_se", "mc_bep_se", "mc_capacity_nats_se")
        for name in names:
            assert column(rows, columns, name) == ["nan"], name
        code, out, _ = run_cli(capsys, *argv, "--format", "json")
        assert code == 0
        rec = json.loads(out)["records"][0]
        assert [rec[name] for name in names] == [None, None, None]

    def test_unknown_metric_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "perf", "--metrics", "outage,nope")
        assert code == 2

    def test_repeated_metric_is_usage_error(self, capsys):
        # a repeat printed two same-named csv columns but one json key
        for fmt in ("csv", "json"):
            code, out, err = run_cli(
                capsys, "perf", "--metrics", "bep,outage, bep", "--format", fmt
            )
            assert (code, out) == (2, ""), fmt
            assert "'bep' is repeated" in err, fmt

    def test_negative_seed_is_usage_error(self, capsys):
        # refused also where no row needs Monte Carlo (a zero-SNR grid)
        for extra in ((), ("--gamma-linear-grid", "0")):
            code, out, err = run_cli(capsys, "perf", "--seed", "-1", *extra)
            assert code == 2
            assert out == ""
            assert "seed" in err

    def test_double_range_overflow_is_usage_error(self, capsys):
        # the depth-k closed forms leave the double range at these SNRs
        for grid, k in (("110", "30"), ("160", "20")):
            code, out, err = run_cli(capsys, "perf", "--gamma-db-grid", grid, "--k", k)
            assert (code, out) == (2, ""), grid
            assert re.search(f"leaves the doubles at gamma=.*, k={k}$", err.strip()), grid

    def test_nonpositive_workers_is_usage_error(self, capsys, monkeypatch):
        # refused before any work in every command that takes it, whether
        # or not Monte Carlo runs
        def no_checks(**_):
            raise AssertionError("validate ran its checks")

        monkeypatch.setattr(validation, "run_all", no_checks)
        for argv in (
            ("perf", "--gamma-db-grid", "0:10:2", "--with-mc", "--samples", "1000",
             "--workers", "-3"),
            ("perf", "--gamma-db-grid", "0:10:2", "--workers", "0"),
            ("dist", "--x-grid", "0:2:3", "--workers", "0"),
            ("validate", "--samples", "1000", "--workers", "0"),
        ):
            code, out, err = run_cli(capsys, *argv)
            assert (code, out) == (2, ""), argv
            assert "workers must be an integer >= 1" in err, argv

    # golden: the artifact_checksum of this command before the SNR grid was
    # simulated in one pass; three dB points, two relays, 1000500 samples
    # (one full block and a partial one)
    PINNED_ARGV = (
        "perf", "--with-mc", "--gamma-db-grid", "0:20:3", "--samples", "1000500",
        "--relays", "2",
    )
    PINNED_CHECKSUM = "ffdf528720f3538e4c39a1e37dc94ccb922596b454d5f81b378d546983da9882"

    @pytest.mark.parametrize("workers", ("1", "2", "4"))
    def test_pinned_monte_carlo_artifact(self, capsys, workers):
        code, out, _ = run_cli(capsys, *self.PINNED_ARGV, "--workers", workers)
        assert code == 0
        manifest, _, _ = parse_csv(out)
        assert manifest["artifact_checksum"] == self.PINNED_CHECKSUM

    def test_pinned_closed_form_artifact(self, capsys):
        # golden: the default sweep, recorded before the closed forms took
        # scalars as Python floats
        code, out, _ = run_cli(capsys, "perf")
        assert code == 0
        manifest, _, _ = parse_csv(out)
        assert manifest["artifact_checksum"] == (
            "e796fa7c6cfb71d787643f5688e4b016eaf4709e4bce8dc973c367067d697631"
        )


class TestValidate:
    @pytest.mark.parametrize(
        "flag, value", (("--seed", "-1"), ("--samples", "0")), ids=("seed", "samples"),
    )
    def test_bad_seed_or_samples_refused_before_any_check(self, capsys, monkeypatch, flag, value):
        def refuse(**kwargs):
            raise AssertionError("a check ran before the arguments were checked")

        monkeypatch.setattr(validation, "run_all", refuse)
        code, out, err = run_cli(capsys, "validate", flag, value)
        assert (code, out) == (2, "")
        assert flag[2:] in err

    def test_report_shape_and_exit(self, capsys, tmp_path):
        # small sample budget: fast, and the suite contains checks that
        # fail honestly, so the exit code is 1
        target = tmp_path / "report.txt"
        code = main(["validate", "--samples", "20000", "--out", str(target)])
        capsys.readouterr()
        assert code == 1
        text = target.read_text()
        header, report = text.split("\n", 1)
        manifest = json.loads(header[2:])
        assert manifest["command"] == "validate"
        assert manifest["parameters"] == {"samples": 20000}
        assert (
            manifest["artifact_checksum"]
            == hashlib.sha256(report.encode()).hexdigest()
        )
        assert "[PASS]" in report and "[FAIL]" in report
        assert report.rstrip().splitlines()[-1].startswith("result: ")


    def test_all_checks_passing_exits_zero(self, capsys, monkeypatch):
        passing = [validation.CheckResult(name, True, ()) for name in validation.CHECK_NAMES]
        monkeypatch.setattr(validation, "run_all", lambda **_: passing)
        code, out, err = run_cli(capsys, "validate", "--samples", "1000")
        assert code == 0
        assert out.rstrip().splitlines()[-1] == "result: 8/8 checks passed"
        assert "failed" not in err

    def test_one_sample_reports_an_undefined_z(self, capsys):
        # a nan standard error makes every z nan: the capacity check fails
        # and reports its worst |z| as nan
        code, out, _ = run_cli(capsys, "validate", "--samples", "1")
        assert code == 1
        assert "[FAIL] capacity-vs-mc\n    worst |z| over the grid: nan (gate 3)" in out


def _contract_sweep():
    """bessel over orders, depths and arguments; dist and perf at depths 10
    and 30 with one rate, both hop rates or all three at each of six
    magnitudes, at each of five SNRs from -300 to 300 dB; dist at powers
    past the double range and bessel at a beta * x that overflows."""
    for nu, k, x in itertools.product(
        ("0", "0.25", "1", "2.5000001", "7.25", "60", "100", "149", "1e-300"),
        ("0", "2", "30"),
        ("1e-300", "1e-8", "1e-3", "1", "300", "743", "1000", "1e300"),
    ):
        yield ["bessel", "--nu", nu, "--k", k, "--beta-list", "1", "--x-grid", x]
    flag_sets = (("--lambda-sd",), ("--lambda-sr",), ("--lambda-rd",),
                 ("--lambda-sr", "--lambda-rd"), ("--lambda-sd", "--lambda-sr", "--lambda-rd"))
    for cmd, k, flags, v, db in itertools.product(
        (("dist", "--gamma-db"), ("perf", "--gamma-db-grid")),
        ("10", "30"),
        flag_sets,
        ("1e-300", "1e-20", "1e-8", "1e8", "1e20", "1e300"),
        ("-300", "-50", "0", "50", "300"),
    ):
        yield [cmd[0], f"{cmd[1]}={db}", "--k", k, *(a for f in flags for a in (f, v))]
    yield ["dist", "--k", "30", "--x-grid", "0,1e20"]
    yield ["dist", "--x-grid", "0,1e300"]
    yield ["bessel", "--beta-list", "1e308", "--x-grid", "10"]


class TestExitContract:
    @pytest.mark.parametrize("cmd", ("dist", "perf"))
    @pytest.mark.parametrize("lambda_sd", ("4", "4.000000002", "3.999999998"))
    def test_degenerate_rates_exit_domain_error(self, capsys, cmd, lambda_sd):
        # unit hops put lambda_srd at 4: each lambda_sd is within the 1e-9
        # guard of it, where the series closed forms refuse
        code, out, err = run_cli(capsys, cmd, "--lambda-sd", lambda_sd)
        assert (code, out) == (2, "")
        assert err.startswith("error: ")
        assert "Use combined_cdf_exact or Monte Carlo in this band." in err

    def test_quadrature_short_of_its_tolerance_exits_3(self, capsys, monkeypatch):
        # no exact CDF reaches an absolute error of 1e-300
        monkeypatch.setattr(channel, "EXACT_ABS_TOL", 1e-300)
        code, out, err = run_cli(capsys, "dist", "--x-grid", "0.5,1")
        assert (code, out) == (3, "")
        assert err.startswith("numerical failure: exact CDF at x = ")

    def test_no_run_escapes_the_exit_codes(self, capsys):
        # every run answers (0) or refuses (2 usage or domain, 3 a
        # quadrature short of its tolerance): no exception escapes main,
        # no run raises a warning of any kind, and no answer holds a nan
        # or inf cell
        bad = []
        for argv in _contract_sweep():
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    code, out, _ = run_cli(capsys, *argv)
            except Exception as exc:
                bad.append((argv, repr(exc)))
                continue
            body = out.split("\n", 1)[-1]
            if code not in (0, 2, 3) or (code == 0 and re.search(r"\b(nan|inf)\b", body)):
                bad.append((argv, code, body))
        assert bad == []


class TestParser:
    # each command's flags as (option strings, default, type, choices), by
    # dest, recorded from the parser in which every command declared each
    # of its flags itself, before the shared ones moved to parent parsers
    FLAGS = {
        "coeffs": {
            "format": (("--format",), "csv", None, ("csv", "json", "table1")),
            "k": (("--k",), 10, int, None),
            "nu": (("--nu",), None, float, None),
            "out": (("--out",), None, None, None),
        },
        "bessel": {
            "beta_list": (("--beta-list",), "0.5,1,2", None, None),
            "format": (("--format",), "csv", None, ("csv", "json")),
            "k": (("--k",), 10, int, None),
            "nu": (("--nu",), 1.0, float, None),
            "out": (("--out",), None, None, None),
            "x_grid": (("--x-grid",), "0.5:8:16", None, None),
        },
        "dist": {
            "format": (("--format",), "csv", None, ("csv", "json")),
            "gamma_db": (("--gamma-db",), 30.0, float, None),
            "gamma_linear": (("--gamma-linear",), None, float, None),
            "k": (("--k",), 10, int, None),
            "lambda_rd": (("--lambda-rd",), 1.0, float, None),
            "lambda_sd": (("--lambda-sd",), 1.0, float, None),
            "lambda_sr": (("--lambda-sr",), 1.0, float, None),
            "out": (("--out",), None, None, None),
            "samples": (("--samples",), 10000000, int, None),
            "seed": (("--seed",), 42, int, None),
            "with_mc": (("--with-mc",), False, None, None),
            "with_minbound": (("--with-minbound",), False, None, None),
            "workers": (("--workers",), 1, int, None),
            "x_grid": (("--x-grid",), "0:6:61", None, None),
        },
        "perf": {
            "bits": (("--bits",), False, None, None),
            "format": (("--format",), "csv", None, ("csv", "json")),
            "gamma_db_grid": (("--gamma-db-grid",), "-5:35:9", None, None),
            "gamma_linear_grid": (("--gamma-linear-grid",), None, None, None),
            "k": (("--k",), 10, int, None),
            "lambda_rd": (("--lambda-rd",), 1.0, float, None),
            "lambda_sd": (("--lambda-sd",), 1.0, float, None),
            "lambda_sr": (("--lambda-sr",), 1.0, float, None),
            "metrics": (("--metrics",), "outage,bep,capacity", None, None),
            "out": (("--out",), None, None, None),
            "relays": (("--relays",), 1, int, None),
            "samples": (("--samples",), 10000000, int, None),
            "seed": (("--seed",), 42, int, None),
            "snr_threshold_db": (("--snr-threshold-db",), 0.0, float, None),
            "with_mc": (("--with-mc",), False, None, None),
            "workers": (("--workers",), 1, int, None),
        },
        "validate": {
            "out": (("--out",), None, None, None),
            "samples": (("--samples",), 10000000, int, None),
            "seed": (("--seed",), 42, int, None),
            "workers": (("--workers",), 1, int, None),
        },
    }

    @staticmethod
    def _commands():
        parser = _build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        return parser, sub.choices

    def test_every_command_has_its_recorded_flags(self):
        _, commands = self._commands()
        assert list(commands) == list(self.FLAGS)
        for name, sp in commands.items():
            table = {
                a.dest: (tuple(a.option_strings), a.default, a.type, a.choices)
                for a in sp._actions if not isinstance(a, argparse._HelpAction)
            }
            assert table == self.FLAGS[name], name

    def test_default_namespace_is_the_recorded_defaults(self):
        parser, _ = self._commands()
        for name, flags in self.FLAGS.items():
            required = {"nu": 1.0} if name == "coeffs" else {}
            ns = vars(parser.parse_args([name, *(["--nu", "1"] if required else [])]))
            assert ns.pop("func").__name__ == f"_cmd_{name}"
            assert ns == {"cmd": name, **{d: row[1] for d, row in flags.items()}, **required}


class TestHarness:
    @pytest.mark.parametrize(
        "argv, flag",
        (
            (["dist", "--gamma-db", "4000"], "--gamma-db"),
            (["perf", "--snr-threshold-db", "4000"], "--snr-threshold-db"),
            (["perf", "--gamma-db-grid", "0:4000:2"], "--gamma-db-grid"),
        ),
    )
    def test_db_value_past_the_double_range_is_usage_error(self, capsys, argv, flag):
        # 10**400 is past the largest double: refused with the flag's name,
        # with neither an OverflowError nor numpy's overflow warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert flag in err

    def test_missing_subcommand_is_usage_error(self, capsys):
        assert run_cli(capsys)[0] == 2

    def test_help_exits_zero(self, capsys):
        assert run_cli(capsys, "--help")[0] == 0

    def test_captured_stderr_has_no_ansi(self, capsys):
        _, _, err = run_cli(capsys, "dist", "--x", "0:1:2")
        assert "\x1b[" not in err

    def test_module_entry_point(self, tmp_path, child_env):
        for module in ("afrelay", "afrelay.cli"):
            proc = subprocess.run(
                [sys.executable, "-m", module, "coeffs", "--nu", "1", "--k", "2"],
                capture_output=True, text=True, cwd=tmp_path, env=child_env,
            )
            assert proc.returncode == 0, (module, proc.stderr)
            assert proc.stdout.startswith("# "), module


class TestDispatchTarget:
    """The pinned CLI goldens where numpy runs no AVX-512 kernel.

    numpy dispatches exp, log and log1p to AVX-512 kernels where the CPU
    has them, and those differ from the AVX2 and baseline kernels in the
    last bit.  The goldens were recorded with AVX-512; a child interpreter
    with NPY_DISABLE_CPU_FEATURES set runs the other kernels, on any x86-64
    CPU.  dist, the sampled dist and the Monte Carlo perf hold on both
    targets.  validate and the default perf move: each prints the BEP
    closed form, which cancels (ROADMAP items 10 and 19), so the last-bit
    differences of np.exp reach bep-closed-form's 10-digit worst gap and
    the 25 dB BEP's 12th digit.
    """

    DISABLE_AVX512 = "X86_V4 AVX512_ICL AVX512_SPR"

    # name: (argv, the artifact_checksum recorded with AVX-512)
    GOLDENS = {
        "dist": (
            ("dist", "--gamma-db", "20"),
            "aa1a9233edc22ce17acbe9d2053539bc0e40a1a7ae1f453c32a3dfb82676b9ae",
        ),
        "dist-sampled": (TestDist.SAMPLED_ARGV, TestDist.SAMPLED_CHECKSUM),
        "perf-monte-carlo": (TestPerf.PINNED_ARGV, TestPerf.PINNED_CHECKSUM),
        "perf": (
            ("perf",),
            "e796fa7c6cfb71d787643f5688e4b016eaf4709e4bce8dc973c367067d697631",
        ),
        "validate": (
            ("validate", "--samples", "2500000"),
            "87ec2b921b8c0da3a60147ad7526a98e5d49314e60c3dc4a8e14cd426fe3c5a9",
        ),
    }
    # the artifact_checksum of each golden that moves without AVX-512
    MOVED = {
        "perf": "89ade07f0229e3776c8ec10306bc4c8155afe45982363ad413ab803ad123641e",
        "validate": "8b060fbac47652eff2dff3b0c0865352079894da175a53a838b8c76f4f2682ee",
    }

    @pytest.mark.skipif(
        platform.machine().lower() not in ("x86_64", "amd64"),
        reason="the feature names and the digests without AVX-512 are x86-64's",
    )
    def test_goldens_without_avx512(self, child_env):
        argvs = {name: list(argv) for name, (argv, _) in self.GOLDENS.items()}
        code = (
            "import contextlib, io, json\n"
            "from afrelay.cli import main\n"
            "sums = {}\n"
            f"for name, argv in {argvs!r}.items():\n"
            "    buf = io.StringIO()\n"
            "    with contextlib.redirect_stdout(buf):\n"
            "        main(argv)\n"
            "    header = buf.getvalue().split('\\n', 1)[0]\n"
            "    sums[name] = json.loads(header[2:])['artifact_checksum']\n"
            "print(json.dumps(sums))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=300,
            env={**child_env, "NPY_DISABLE_CPU_FEATURES": self.DISABLE_AVX512},
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == {
            name: self.MOVED.get(name, recorded) for name, (_, recorded) in self.GOLDENS.items()
        }
