import json
import os
import subprocess
import sys
import textwrap
import time
import warnings

import mpmath
import pytest

import benford_lab
from benford_lab import cli, equidist, rmt


def run_cli(args, capsys):
    code = cli.main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestDigitsCommand:
    def test_uniform_digits_histogram(self, tmp_path, capsys):
        f = tmp_path / "vals.txt"
        f.write_text("\n".join(str(d) for d in range(1, 10)))
        code, out, _ = run_cli(["digits", str(f), "--format", "json"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert all(abs(r["observed"] - 1 / 9) < 1e-12
                   for r in doc["report"]["per_digit"])

    def test_uniform_digits_reject_benford(self, tmp_path, capsys):
        f = tmp_path / "vals.txt"
        f.write_text(("\n".join(str(d) for d in range(1, 10)) + "\n") * 100)
        code, out, _ = run_cli(["digits", str(f), "--format", "json"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["report"]["verdict_alpha05"] is False

    def test_powers_of_two_are_benford(self, tmp_path, capsys):
        f = tmp_path / "pows.txt"
        f.write_text("\n".join(str(2 ** k) for k in range(1001)))
        code, out, _ = run_cli(["digits", str(f), "--format", "json"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["report"]["chi_square"] < 15.51

    def test_base_two_report_is_valid_json(self, tmp_path, capsys):
        # every digit is 1 in base 2, with Benford probability 1: z is 0,
        # not 0/0, and the perfect match (chi-square 0 on 0 dof) is accepted
        f = tmp_path / "pows.txt"
        f.write_text("\n".join(str(2 ** k) for k in range(1, 300)))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out, _ = run_cli(["digits", str(f), "--base", "2",
                                    "--format", "json"], capsys)
        assert code == 0

        def reject(name):
            raise ValueError(f"{name} is not JSON")

        report = json.loads(out, parse_constant=reject)["report"]
        assert report["per_digit"] == [
            {"digit": 1, "observed": 1.0, "benford": 1.0, "z": 0.0}]
        assert report["chi_square"] == 0.0 and report["dof"] == 0
        assert report["verdict_alpha05"] is True

    def test_empty_file_is_usage_error(self, tmp_path, capsys):
        f = tmp_path / "empty.txt"
        f.write_text("")
        code, _, err = run_cli(["digits", str(f)], capsys)
        assert code == 2 and "no values" in err

    def test_malformed_line_reports_number(self, tmp_path, capsys):
        f = tmp_path / "bad.txt"
        for text in ("not-a-number", "inf", "nan", "3/4", "0", "1e1000000"):
            f.write_text(f"12\n{text}\n9\n")
            code, _, err = run_cli(["digits", str(f)], capsys)
            assert code == 2 and ":2:" in err, text

    def test_file_not_utf8_is_usage_error(self, tmp_path, capsys):
        # the decode error is raised while reading, not while parsing a line
        f = tmp_path / "bytes.txt"
        f.write_bytes(b"\xff\xfe12\n")
        code, out, err = run_cli(["digits", str(f)], capsys)
        assert code == 2 and out == ""
        assert err.startswith(f"error: {f}")

    @pytest.mark.parametrize("text, want", [("12\n", 0), ("12\n0\n", 2)])
    def test_int_str_limit_restored(self, text, want, tmp_path, capsys):
        # the command lifts the int/str digit limit for its own file only:
        # after a good file, and after one that holds a zero, the process
        # has the limit it had before
        f = tmp_path / "vals.txt"
        f.write_text(text)
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(5000)
        try:
            code = run_cli(["digits", str(f)], capsys)[0]
            after = sys.get_int_max_str_digits()
        finally:
            sys.set_int_max_str_digits(limit)
        assert (code, after) == (want, 5000)

    @pytest.mark.parametrize("text,digit", [
        ("2.99999999999999999", 2),  # 3.0 as a float
        ("1.99999999999999999e5", 1),
        ("29999999999999999999", 2),
        ("1e400", 1),  # overflows a float
    ])
    def test_digit_of_the_number_as_written(self, text, digit, tmp_path,
                                            capsys):
        f = tmp_path / "vals.txt"
        f.write_text(text + "\n")
        code, out, _ = run_cli(["digits", str(f), "--format", "json"], capsys)
        assert code == 0
        per_digit = json.loads(out)["report"]["per_digit"]
        assert per_digit[digit - 1]["observed"] == 1.0


class TestCollatzCommands:
    def test_structure(self, capsys):
        code, out, _ = run_cli(
            ["collatz", "structure", "--ktuple", "1,1", "--limit", "100000",
             "--format", "json"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["modulus"] == 24 and len(doc["residues"]) == 2

    def test_structure_bad_limit_is_config_error(self, capsys):
        code, _, err = run_cli(
            ["collatz", "structure", "--ktuple", "1,1", "--limit", "10"],
            capsys)
        assert code == 2

    def test_ratio_preset_small(self, capsys):
        code, out, _ = run_cli(
            ["collatz", "experiment", "--preset", "ratio-base4",
             "--count", "4000", "--format", "json"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["observed"][2] == 0.0  # digit 3 never occurs in base 4
        assert abs(doc["observed"][0] - 0.5) < 0.05

    def test_kvalues(self, capsys):
        code, out, _ = run_cli(
            ["collatz", "kvalues", "--count", "3000", "--format", "json"],
            capsys)
        assert code == 0
        doc = json.loads(out)
        assert abs(doc["mean"] - 2.0) < 0.1

    def test_ratio_with_model_ks(self, capsys):
        code, out, _ = run_cli(
            ["collatz", "ratio", "--count", "2000", "--base", "10",
             "--format", "json"], capsys)
        assert code == 0
        assert "ks_vs_model" in json.loads(out)

    def test_model(self, capsys):
        code, out, _ = run_cli(
            ["collatz", "model", "--iterations", "10", "--samples", "5000",
             "--base", "8", "--format", "json"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["observed"][2] == 0.0  # digit 3 unreachable in base 8

    def test_parser_modes_are_collatz_modes(self):
        # the parser names the trajectory modes itself, so that building it
        # imports no collatz
        from benford_lab import collatz
        assert cli.BIGNUM_MODES == collatz.MODES
        for mode in collatz.MODES:
            args = cli.build_parser().parse_args(
                ["collatz", "experiment", "--mode", mode])
            assert args.mode == mode

    def test_bignum_preset_tiny(self, capsys):
        code, out, _ = run_cli(
            ["collatz", "experiment", "--preset", "bignum-remove2",
             "--digits", "300", "--format", "json"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["reached_one"] is True
        assert doc["n_recorded"] > 1000

    def test_unknown_preset(self, capsys):
        code, _, err = run_cli(
            ["collatz", "experiment", "--preset", "nope"], capsys)
        assert code == 2 and "unknown preset" in err

    @pytest.mark.parametrize("args", [
        ["kvalues", "--start", "-5", "--count", "100"],
        ["kvalues", "-m", "-1", "--count", "100"],
        ["experiment", "--start", "-5", "--count", "100"],
        ["ratio", "--start", "-5", "--count", "100"],
        ["model", "--samples", "0"],
        ["model", "-m", "0"],
        ["structure", "--ktuple", "a", "--limit", "1000"],
        ["model", "--base", "1"],
        ["model", "--base", "0"],
        ["experiment", "--mode", "single_step", "--digits", "20",
         "--base", "0"],
        ["experiment", "--mode", "single_step", "--digits", "20",
         "--base", "-3"],
        ["experiment", "--mode", "single_step", "--digits", "20",
         "--seed", "-1"],
    ])
    def test_bad_input_is_config_error(self, args, capsys):
        code, out, err = run_cli(["collatz"] + args, capsys)
        assert code == 2 and out == "" and err.startswith("error: ")


# stdout of each ratio command on the headline census (10^5 seeds = 1 mod 6
# from 419,753,999,998,525, m = 10, --format json), as the per-seed _log2s
# gate printed it: the gate on the vectorised estimate of log2 u must give
# the same bytes, ks_vs_model 0.09564 included
HEADLINE_RATIO_STDOUT = {
    "experiment --preset ratio-base4": (
        '{"meta": {"command": "collatz", "params": {"base": 4, "count":'
        ' 100000, "digits": 100000, "iterations": 10, "preset": '
        '"ratio-base4", "start": 419753999998525, "subcommand": '
        '"experiment"}, "seed": 0, "version": "0.1.0", "workers": 1}, '
        '"observed": [0.50286, 0.49714, 0.0], "predicted": [0.5, 0.5, '
        '0.0]}'),
    "experiment --preset ratio-base8": (
        '{"meta": {"command": "collatz", "params": {"base": 8, "count":'
        ' 100000, "digits": 100000, "iterations": 10, "preset": '
        '"ratio-base8", "start": 419753999998525, "subcommand": '
        '"experiment"}, "seed": 0, "version": "0.1.0", "workers": 1}, '
        '"observed": [0.3308, 0.33603, 0.0, 0.33317, 0.0, 0.0, 0.0], '
        '"predicted": [0.3333333333333333, 0.3333333333333333, 0.0, '
        '0.3333333333333333, 0.0, 0.0, 0.0]}'),
    "experiment --preset ratio-base10": (
        '{"meta": {"command": "collatz", "params": {"base": 10, '
        '"count": 100000, "digits": 100000, "iterations": 10, "preset":'
        ' "ratio-base10", "start": 419753999998525, "subcommand": '
        '"experiment"}, "seed": 0, "version": "0.1.0", "workers": 1}, '
        '"observed": [0.29847, 0.1785, 0.12086, 0.10003, 0.08465, '
        '0.09759, 0.02378, 0.08727, 0.00885], "predicted": '
        '[0.30102999566398114, 0.17609125905568124, '
        '0.12493873660829993, 0.0969100130080564, 0.07918124604762483, '
        '0.0669467896306132, 0.057991946977686754, '
        '0.051152522447381284, 0.045757490560675115]}'),
    "experiment --preset ratio-base16": (
        '{"meta": {"command": "collatz", "params": {"base": 16, '
        '"count": 100000, "digits": 100000, "iterations": 10, "preset":'
        ' "ratio-base16", "start": 419753999998525, "subcommand": '
        '"experiment"}, "seed": 0, "version": "0.1.0", "workers": 1}, '
        '"observed": [0.24983, 0.24957, 0.0, 0.25303, 0.0, 0.0, 0.0, '
        '0.24757, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0], "predicted": '
        '[0.25, 0.25, 0.0, 0.25, 0.0, 0.0, 0.0, 0.25, 0.0, 0.0, 0.0, '
        '0.0, 0.0, 0.0, 0.0]}'),
    "experiment --base 7": (
        '{"meta": {"command": "collatz", "params": {"base": 7, "count":'
        ' 100000, "digits": 100000, "iterations": 10, "start": '
        '419753999998525, "subcommand": "experiment"}, "seed": 0, '
        '"version": "0.1.0", "workers": 1}, "observed": [0.36454, '
        '0.23241, 0.13187, 0.16841, 0.04354, 0.05923], "predicted": '
        '[0.3562071871080222, 0.20836784694555743, 0.14783934016246472,'
        ' 0.11467310113087181, 0.09369474581468565, '
        '0.07921777883839821]}'),
    "ratio --base 10 --seed 0": (
        '{"ks_vs_model": 0.09564, "meta": {"command": "collatz", '
        '"params": {"base": 10, "count": 100000, "iterations": 10, '
        '"start": 419753999998525, "subcommand": "ratio"}, "seed": 0, '
        '"version": "0.1.0", "workers": 1}, "observed": [0.29847, '
        '0.1785, 0.12086, 0.10003, 0.08465, 0.09759, 0.02378, 0.08727, '
        '0.00885]}'),
}


@pytest.mark.parametrize("command", sorted(HEADLINE_RATIO_STDOUT))
def test_headline_ratio_stdout_is_pinned(command, capsys):
    code, out, _ = run_cli(
        ["collatz"] + command.split() + [
            "--start", "419753999998525", "--count", "100000", "-m", "10",
            "--format", "json"], capsys)
    assert code == 0
    assert out == HEADLINE_RATIO_STDOUT[command] + "\n"


class TestZetaCommand:
    def test_small_scan_csv_deterministic(self, capsys):
        args = ["zeta", "--t-start", "0", "--t-end", "30", "--step", "0.5",
                "--format", "csv"]
        code, out1, _ = run_cli(args, capsys)
        assert code == 0
        code, out2, _ = run_cli(args, capsys)
        assert out1 == out2
        lines = out1.strip().split("\n")
        assert lines[0].startswith("# {")
        assert lines[1] == ",".join(
            ("t", "sigma", "re", "im", "abs", "log_abs", "digit", "cert_err"))
        assert len(lines) == 2 + 61

    def test_near_critical_validation(self, capsys):
        code, _, err = run_cli(
            ["zeta", "--t-start", "1", "--t-end", "10", "--step", "1",
             "--near-critical-delta", "0.5"], capsys)
        assert code == 2

    @pytest.mark.parametrize("base", ["1", "0"])
    def test_bad_base_is_config_error(self, base, capsys):
        code, out, err = run_cli(
            ["zeta", "--t-end", "5", "--base", base], capsys)
        assert code == 2 and out == "" and err.startswith("error: ")

    @pytest.mark.parametrize("args, word", [
        (["--t-start", "nan"], "finite"),
        (["--t-end", "nan"], "finite"),
        (["--step", "nan"], "finite"),
        (["--sigma", "nan"], "sigma"),
        (["--sigma", "inf"], "sigma"),
        (["--step", "1e-300"], "points"),
        # 10^7 points: refused before any array is built
        (["--t-end", "100000", "--step", "0.01"], "points"),
    ])
    def test_bad_grid_or_sigma_is_config_error(self, args, word, capsys):
        code, out, err = run_cli(["zeta"] + args, capsys)
        assert code == 2 and out == "" and err.startswith("error: ")
        assert word in err

    def test_no_certified_digit_is_explained(self, capsys):
        # at sigma = 60, |zeta| = 1 + O(2^-60) lies within its band of the
        # digit boundary at 1 at every point
        code, out, err = run_cli(["zeta", "--sigma", "60", "--t-end", "5"],
                                 capsys)
        assert code == 2 and out == "" and err.startswith("error: ")
        assert "certified" in err and "21 skipped" in err


class TestCueCommand:
    def test_json_run(self, capsys):
        code, out, _ = run_cli(
            ["cue", "--dim", "6", "--samples", "400", "--format", "json",
             "--seed", "5"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["moments"]["n_samples"] == 400
        assert sum(doc["histogram"]) == 400

    def test_worker_invariance_bytes(self, capsys):
        base = ["cue", "--dim", "6", "--samples", "600", "--format", "csv",
                "--seed", "3"]
        _, out1, _ = run_cli(base + ["--workers", "1"], capsys)
        _, out2, _ = run_cli(base + ["--workers", "3"], capsys)
        # identical apart from the metadata echo of the worker count
        assert out1.split("\n")[1:] == out2.split("\n")[1:]

    def test_seed0_dim64_histogram_is_pinned(self, capsys):
        # the benchmark's seed-0 reference for its cue command; the payload
        # on one worker differs only in the echoed worker count
        args = ["cue", "--dim", "64", "--samples", "4000", "--seed", "0",
                "--format", "json", "--workers"]
        docs = []
        for workers in ("2", "1"):
            code, out, _ = run_cli(args + [workers], capsys)
            assert code == 0
            docs.append(json.loads(out))
        assert docs[0]["histogram"] == [1199, 694, 496, 381, 324, 276, 243,
                                        219, 168]
        assert docs[0]["meta"].pop("workers") == 2
        assert docs[1]["meta"].pop("workers") == 1
        assert docs[0] == docs[1]

    def test_worker_count_above_cap_refused_before_any_work(self, monkeypatch,
                                                            capsys):
        # each worker is an OS thread: the count is refused before a pool
        # exists, so the experiment is never entered
        def no_work(*args, **kwargs):
            raise AssertionError("cue_experiment ran")
        monkeypatch.setattr(rmt, "cue_experiment", no_work)
        code, out, err = run_cli(
            ["cue", "--dim", "4", "--samples", "10",
             "--workers", str(cli.MAX_WORKERS + 1)], capsys)
        assert code == 2 and out == "" and err.startswith("error: ")
        assert str(cli.MAX_WORKERS) in err

    @pytest.mark.parametrize("base", ["1", "0"])
    def test_bad_base_is_config_error(self, base, capsys):
        code, out, err = run_cli(
            ["cue", "--dim", "4", "--samples", "10", "--base", base], capsys)
        assert code == 2 and out == "" and err.startswith("error: ")


class TestEquidistCommands:
    def test_kalpha_log_form(self, capsys):
        code, out, _ = run_cli(
            ["equidist", "kalpha", "--alpha", "log:2:10", "--count", "20000",
             "--format", "json"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["report"]["star"] < 1e-3
        assert doc["report"]["erdos_turan"] >= doc["report"]["extreme"]

    @pytest.mark.parametrize("alpha", ["1/3", "log:2:10", "0.25"])
    def test_kalpha_point_count_is_bounded_for_every_alpha(self, alpha,
                                                           capsys):
        start = time.perf_counter()
        code, out, err = run_cli(
            ["equidist", "kalpha", "--alpha", alpha, "--count", "300000000"],
            capsys)
        assert code == 2 and out == "" and err.startswith("error: ")
        assert time.perf_counter() - start < 1.0

    def test_cf(self, capsys):
        code, out, _ = run_cli(
            ["equidist", "cf", "--alpha", "log:2:10", "--depth", "8",
             "--format", "json"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert ["1", "3"] in doc["convergents"]

    @pytest.mark.parametrize("depth, dps", [(600, 700), (1000, 1200)])
    def test_cf_holds_past_500_digits(self, depth, dps, capsys):
        # log:X:B is evaluated at dps and guard digits, so convergents that
        # 500 digits cannot determine are still log10(2)'s own
        code, out, _ = run_cli(
            ["equidist", "cf", "--alpha", "log:2:10", "--depth", str(depth),
             "--dps", str(dps), "--format", "json"], capsys)
        assert code == 0
        want, (p, p0, q, q0) = [], (1, 0, 0, 1)
        with mpmath.workdps(2 * dps):
            a = mpmath.log(2) / mpmath.log(10)
            for _ in range(depth):
                k = int(mpmath.floor(a))
                a = 1 / (a - k)
                p, p0, q, q0 = k * p + p0, p, k * q + q0, q
                want.append([str(p), str(q)])
        assert json.loads(out)["convergents"] == want

    def test_cf_rational_rejected(self, capsys):
        code, _, err = run_cli(
            ["equidist", "cf", "--alpha", "3/7", "--depth", "8"], capsys)
        assert code == 2

    def test_type(self, capsys):
        code, out, _ = run_cli(
            ["equidist", "type", "--alpha", "log:2:10", "--depth", "12",
             "--gammas", "0.5,1.0", "--format", "json"], capsys)
        assert code == 0
        assert "empirical_type" in json.loads(out)

    @pytest.mark.parametrize("args, kernel, flag, cap", [
        (["kalpha", "--alpha", "0.3"], "kalpha_points", "--et-m", "MAX_ET_M"),
        (["cf", "--alpha", "0.3"], "continued_fraction", "--dps", "MAX_DPS"),
        (["type", "--alpha", "0.3"], "type_probe", "--dps", "MAX_DPS"),
    ])
    def test_cost_flag_above_cap_refused_before_any_work(
            self, args, kernel, flag, cap, monkeypatch, capsys):
        # --et-m sets an O(count * m) sum and --dps the precision of cf and
        # type: the cap reaches the kernel, one more is refused before it
        class Entered(Exception):
            pass

        def entered(*args, **kwargs):
            raise Entered
        monkeypatch.setattr(equidist, kernel, entered)
        cap = getattr(cli, cap)
        with pytest.raises(Entered):
            cli.main(["equidist", *args, flag, str(cap)])
        code, out, err = run_cli(["equidist", *args, flag, str(cap + 1)],
                                 capsys)
        assert code == 2 and out == ""
        assert err == f"error: {flag} must be <= {cap}, got {cap + 1}\n"

    @pytest.mark.parametrize("args", [
        ["kalpha", "--alpha", "log:a:10"],
        ["kalpha", "--alpha", "1/0"],
        ["type", "--alpha", "log:2:10", "--gammas", "x"],
        ["kalpha", "--alpha", "nan"],
        ["kalpha", "--alpha", "inf"],
        ["kalpha", "--alpha", "1e400"],
        ["kalpha", "--alpha", "log:0:10"],
        ["cf", "--alpha", "nan"],
        ["cf", "--alpha", "1e400"],
        ["type", "--alpha", "inf"],
        ["type", "--alpha", "log:0:10"],
        ["kalpha", "--alpha", "log:2:0"],
        ["cf", "--alpha", "log:2:0"],
        ["cf", "--alpha", "log:0:10"],
        ["type", "--alpha", "log:2:0"],
    ])
    def test_malformed_argument_is_config_error(self, args, capsys):
        code, out, err = run_cli(["equidist"] + args, capsys)
        assert code == 2 and out == "" and err.startswith("error: ")


class TestPoissonCheck:
    def test_sweep_passes(self, capsys):
        code, out, _ = run_cli(
            ["poisson-check", "--format", "json"], capsys)
        assert code == 0
        assert json.loads(out)["max_residual"] < 1e-12

    def test_worker_count_comes_from_the_flag_alone(self, monkeypatch,
                                                    capsys):
        monkeypatch.setenv("BENFORD_LAB_WORKERS", "abc")
        code, out, _ = run_cli(["poisson-check", "--format", "json"], capsys)
        assert code == 0 and json.loads(out)["meta"]["workers"] == 1

    def test_malformed_sigmas_is_config_error(self, capsys):
        code, out, err = run_cli(["poisson-check", "--sigmas", "x"], capsys)
        assert code == 2 and out == "" and err.startswith("error: ")

    @pytest.mark.parametrize("args", [
        ["--sigmas", "nan"],
        ["--sigmas", "inf"],
        ["--sigmas", "1e200"],
        ["--sigmas", "1e-200"],
        ["--sigmas", "0.5,1e-200"],
    ])
    def test_bad_sigma_or_cutoff_is_config_error(self, args, capsys):
        code, out, err = run_cli(["poisson-check"] + args, capsys)
        assert code == 2 and out == "" and err.startswith("error: ")


def test_out_file(tmp_path, capsys):
    target = tmp_path / "result.csv"
    code, out, _ = run_cli(
        ["poisson-check", "--format", "csv", "--out", str(target)], capsys)
    assert code == 0 and out == ""
    text = target.read_text()
    assert text.startswith("# {") and "sigma,residual" in text


@pytest.mark.parametrize("args", [
    ["poisson-check", "--out", "{tmp}/missing/x.csv"],
    ["digits", "{tmp}/missing.txt"],
    # bases above 2^16 are refused before an O(base) histogram is built
    ["collatz", "model", "--base", "1000000000"],
    ["cue", "--dim", "4", "--samples", "10", "--base", "100000000000"],
    ["digits", "{tmp}/vals.txt", "--base", "70000"],
    # sizes above 2^24 are refused before any array is allocated
    ["collatz", "structure", "--ktuple", "1", "--limit", "100000000000000"],
    ["collatz", "kvalues", "--count", "100000000000000"],
    ["cue", "--dim", "4", "--samples", str(10 ** 18)],
    ["collatz", "model", "--samples", str(10 ** 18)],
    ["collatz", "experiment", "--mode", "single_step", "--digits",
     str(10 ** 18)],
])
def test_refused_quickly(args, tmp_path, capsys):
    (tmp_path / "vals.txt").write_text("12\n")
    start = time.perf_counter()
    code, out, err = run_cli([a.format(tmp=tmp_path) for a in args], capsys)
    assert code == 2 and out == "" and err.startswith("error: ")
    assert time.perf_counter() - start < 5.0


def test_failed_check_prints_its_rows_first(monkeypatch, capsys):
    monkeypatch.setattr(equidist, "theta_identity_residual",
                        lambda sigma: 1.0)
    code, out, err = run_cli(
        ["poisson-check", "--sigmas", "0.5", "--format", "csv"], capsys)
    assert code == 1 and out.endswith("sigma,residual\n0.5,1.000e+00\n")
    assert err.startswith("assertion failed: ")


def _src_env() -> dict:
    src = os.path.dirname(os.path.dirname(os.path.abspath(
        benford_lab.__file__)))
    return dict(os.environ, PYTHONPATH=src)


def test_cold_start_imports_no_scipy_and_builds_no_table():
    # importing the CLI and building its parser load no library module, no
    # mpmath and no thread pool; a census command loads only the modules it
    # runs; the package names its modules all the same; the residue table of
    # trajectory blocks is built at first use; and neither the import nor a
    # digit report loads scipy
    code = textwrap.dedent("""\
        import io, sys, contextlib, benford_lab.cli

        def loaded(*names):
            return [n for n in names if n in sys.modules]

        census = ['mpmath', 'benford_lab.zeta', 'benford_lab.rmt',
                  'benford_lab.equidist']
        cold = census + ['benford_lab.collatz', 'benford_lab.benford_stats',
                         'concurrent.futures']
        benford_lab.cli.build_parser()
        assert not loaded(*cold), loaded(*cold)
        with contextlib.redirect_stdout(io.StringIO()):
            assert benford_lab.cli.main(
                ['collatz', 'kvalues', '--count', '2000']) == 0
        assert not loaded(*census), loaded(*census)
        from benford_lab import collatz
        assert collatz._residue_table.cache_info().currsize == 0
        import benford_lab
        assert benford_lab.zeta is sys.modules['benford_lab.zeta']
        assert not hasattr(benford_lab, 'nope')
        from benford_lab import rmt
        assert rmt is sys.modules['benford_lab.rmt']
        with contextlib.redirect_stdout(io.StringIO()):
            assert benford_lab.cli.main(
                ['cue', '--dim', '4', '--samples', '100']) == 0
        assert not [m for m in sys.modules if m.split('.')[0] == 'scipy'], \\
            'scipy imported'
        """)
    proc = subprocess.run([sys.executable, "-c", code], env=_src_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


_SCIPY_BLOCKED_RUNS = [
    ["digits", "{tmp}/pows.txt"],
    ["digits", "{tmp}/pows.txt", "--base", "7", "--format", "json"],
    ["collatz", "experiment", "--mode", "remove_all_twos", "--digits", "2000",
     "--base", "10"],
    ["collatz", "experiment", "--mode", "single_step", "--digits", "2000",
     "--base", "10", "--format", "json"],
    # across the route change at t = 200, and near the critical line
    ["zeta", "--t-start", "190", "--t-end", "210", "--format", "csv"],
    ["zeta", "--t-start", "190", "--t-end", "210"],
    ["zeta", "--t-start", "1000", "--t-end", "1010",
     "--near-critical-delta", "0.5", "--format", "json"],
    ["cue", "--dim", "4", "--samples", "2000", "--format", "csv"],
    ["cue", "--dim", "4", "--samples", "2000", "--format", "json"],
    ["collatz", "ratio", "--count", "2000", "--format", "json"],
    ["equidist", "kalpha", "--alpha", "log:2:10", "--count", "10000",
     "--format", "json"],
]


def test_commands_run_with_scipy_blocked(tmp_path):
    # every command runs on numpy and mpmath alone, with the bytes it
    # prints when scipy is importable
    (tmp_path / "pows.txt").write_text(
        "\n".join(str(2 ** k) for k in range(1, 300)))
    runs = [[a.format(tmp=tmp_path) for a in args]
            for args in _SCIPY_BLOCKED_RUNS]
    code = ("import io, json, sys, contextlib\n"
            "if sys.argv[1] == 'block':\n"
            "    sys.modules['scipy'] = None\n"
            "from benford_lab import cli\n"
            "outs = []\n"
            "for args in json.loads(sys.argv[2]):\n"
            "    buf = io.StringIO()\n"
            "    with contextlib.redirect_stdout(buf):\n"
            "        assert cli.main(args) == 0, args\n"
            "    outs.append(buf.getvalue())\n"
            "assert not [m for m, mod in sys.modules.items() if mod and "
            "m.split('.')[0] == 'scipy'], 'scipy imported'\n"
            "print(json.dumps(outs))\n")
    outs = {}
    for mode in ("block", "open"):
        proc = subprocess.run(
            [sys.executable, "-c", code, mode, json.dumps(runs)],
            env=_src_env(), capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        outs[mode] = json.loads(proc.stdout)
    assert len(outs["block"]) == len(runs)
    assert all(outs["block"])
    assert outs["block"] == outs["open"]


_PARSER_REUSE_RUNS = [
    ["collatz", "ratio", "--base", "ten"],                  # argparse: exit 2
    ["collatz", "experiment", "--preset", "nope"],          # ConfigError
    ["collatz", "experiment", "--preset", "ratio-base10", "--count", "2000",
     "--format", "json"],
    ["collatz", "experiment", "--base", "7", "--count", "2000",
     "--format", "json"],
    ["zeta", "--t-start", "1000", "--t-end", "1010",
     "--near-critical-delta", "0.5", "--format", "json"],
    ["zeta", "--t-start", "1000", "--t-end", "1010", "--format", "json"],
]


def test_parser_reuse_matches_fresh_processes(capsys):
    # main builds its parser once per process: failures, presets and
    # optional flags of one call must not leak into the next
    assert cli.build_parser() is cli.build_parser()
    codes = []
    for args in _PARSER_REUSE_RUNS:
        try:
            code = cli.main(args)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        proc = subprocess.run(
            [sys.executable, "-m", "benford_lab.cli", *args], env=_src_env(),
            capture_output=True, text=True, timeout=120)
        assert (code, out, err) == (proc.returncode, proc.stdout,
                                    proc.stderr), args
        codes.append(code)
    assert codes == [2, 2, 0, 0, 0, 0]
    assert cli.build_parser.cache_info().misses == 1
