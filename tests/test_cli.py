"""End-to-end tests for the command-line interface.

Everything goes through main(argv) so the tests exercise the same
paths as the installed console script, including exit codes and the
stdout/stderr split.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cospricer.cli import main
from cospricer.errors import ConfigurationError
from cospricer.presets import PROFILE_NAMES, load_strike_table


def run_cli(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse refuses a flag this way
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPrice:
    def test_default_profile_call(self, capsys):
        code, out, err = run_cli(capsys, "price", "--profile", "heston", "--strike", "100")
        assert code == 0 and err == ""
        assert out == "15.6621055646 (stable)\n"

    def test_profiles_match_reference_table(self, capsys):
        table = load_strike_table()
        for name in PROFILE_NAMES:
            for strike in (80, 100, 120):
                code, out, _ = run_cli(
                    capsys, "price", "--profile", name, "--strike", str(strike)
                )
                assert code == 0
                want = table[(name, "stable", float(strike))]
                assert out == f"{want:.10f} (stable)\n", (name, strike)

    def test_put_call_parity_through_the_cli(self, capsys):
        _, call_out, _ = run_cli(capsys, "price", "--profile", "kou", "--strike", "100")
        # the profile preset is tuned for the damped call; alpha 0 with
        # the wider parity-column range gives the converged undamped put
        _, put_out, _ = run_cli(
            capsys, "price", "--profile", "kou", "--strike", "100", "--kind", "put",
            "--alpha", "0", "--L", "11", "--N", "210",
        )
        call_px = float(call_out.split()[0])
        put_px = float(put_out.split()[0])
        forward = 100.0 - 100.0 * math.exp(-0.1)
        assert call_px - put_px == pytest.approx(forward, abs=1e-8)

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "price", "--profile", "kou", "--strike", "95", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["method"] == "stable"
        assert payload["profile"] == "kou"
        assert payload["kind"] == "call"
        assert payload["strike"] == 95.0
        want = load_strike_table()[("kou", "stable", 95.0)]
        assert payload["price"] == pytest.approx(want, abs=5e-10)

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "price", "--profile", "heston", "--strike", "105", "--format", "csv"
        )
        assert code == 0
        header, row = out.splitlines()
        assert header == "price,method,profile,kind,strike,maturity"
        cells = row.split(",")
        want = load_strike_table()[("heston", "stable", 105.0)]
        assert float(cells[0]) == pytest.approx(want, abs=5e-10)
        assert cells[1:] == ["stable", "heston", "call", "105.0", "1.0"]

    def test_output_file_instead_of_stdout(self, capsys, tmp_path):
        target = tmp_path / "price.txt"
        code, out, _ = run_cli(
            capsys, "price", "--profile", "heston", "--strike", "100",
            "--output", str(target),
        )
        assert code == 0 and out == ""
        assert target.read_text() == "15.6621055646 (stable)\n"

    @pytest.mark.parametrize("where", ["missing/x.txt", "."])
    def test_unwritable_output_is_an_error_line(self, capsys, tmp_path, monkeypatch, where):
        # a missing directory, or a directory itself, used to end in a
        # traceback; it is refused before any pricing
        from cospricer import cli

        def unreachable(*args, **kwargs):
            raise AssertionError("an unwritable --output must be refused before any pricing")

        monkeypatch.setattr(cli, "price", unreachable)
        code, out, err = run_cli(capsys, "price", "--output", str(tmp_path / where))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and str(tmp_path) in err
        assert os.listdir(tmp_path) == []

    def test_low_alpha_call_is_refused(self, capsys):
        code, out, err = run_cli(
            capsys, "price", "--profile", "heston", "--strike", "100", "--alpha", "0.5"
        )
        assert code == 2 and out == ""
        assert err.startswith("error: ")
        assert "alpha must exceed 1" in err

    def test_put_ignores_the_call_damping_of_the_preset(self, capsys):
        # the cgmy2 stable preset carries alpha = 1.001 for calls; applied
        # to the put it printed 6.4e80 with exit code 0
        args = ("price", "--profile", "cgmy2", "--method", "stable", "--kind", "put",
                "--strike", "100")
        code, out, err = run_cli(capsys, *args)
        _, explicit, _ = run_cli(capsys, *args, "--alpha", "0")
        assert code == 0 and err == ""
        assert out == explicit == "90.4836473137 (stable)\n"

    def test_alpha_past_the_heston_strip_is_refused(self, capsys):
        # E[(S_T/S_0)^90] explodes before T = 1; the refusal used to read
        # the closed form's complex value -3.087e-20+4.249e-20j as the moment
        code, out, err = run_cli(capsys, "price", "--profile", "heston", "--alpha", "90")
        assert (code, out) == (2, "")
        assert err == ("error: contour shift 90 lies outside the admissible interval "
                       "(-25.3174, 84.9501) for HestonParams at T = 1, so "
                       "E[(S_T/S_0)^90] is infinite\n")

    def test_positive_alpha_put_is_refused(self, capsys):
        code, out, err = run_cli(
            capsys, "price", "--profile", "kou", "--kind", "put", "--alpha", "1.1"
        )
        assert code == 2 and out == ""
        assert "alpha must not exceed 0" in err

    def test_overflowing_range_is_an_error_line(self, capsys):
        # exp(b) of the undamped call coefficients overflows on this range
        code, out, err = run_cli(
            capsys, "price", "--profile", "kou", "--method", "direct", "--L", "2000"
        )
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "overflows" in err

    def test_underflowed_characteristic_function_is_an_error_line(self, capsys):
        # used to end in a ZeroDivisionError traceback with exit code 1
        code, out, err = run_cli(capsys, "price", "--profile", "kou", "--maturity", "1e10")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "underflows" in err

    @pytest.mark.parametrize(
        "flags",
        [
            ("--rate", "-1"),
            ("--dividend", "-1", "--method", "parity"),
        ],
        ids=["discount", "parity-forward"],
    )
    def test_overflowing_discount_is_an_error_line(self, capsys, flags):
        # exp(1000) used to end in an OverflowError traceback with exit code 1
        code, out, err = run_cli(
            capsys, "price", "--profile", "kou", "--maturity", "1000", *flags
        )
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "not a positive finite float" in err

    def test_given_rate_applies_before_the_market_is_checked(self, capsys):
        # the preset rate 0.1 at T = 8000 underflows e^(-rT); the given rate
        # 0 does not, so the market is built in one step with it
        code, out, err = run_cli(
            capsys, "price", "--profile", "kou", "--maturity", "8000", "--rate", "0",
            "--method", "parity",
        )
        assert (code, out, err) == (0, "100.0000000000 (parity)\n", "")

    @pytest.mark.parametrize("flags", [("--method", "direct", "--alpha", "1.5"),
                                       ("--method", "parity", "--alpha", "-3")])
    def test_alpha_of_an_undamped_method_is_refused(self, capsys, flags):
        # used to be ignored: direct printed 23.9335400090 with or without it
        code, out, err = run_cli(capsys, "price", "--profile", "kou", *flags)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "stable variant only" in err

    def test_method_and_overrides(self, capsys):
        # parity and stable disagree only at quadrature noise level
        _, stable_out, _ = run_cli(capsys, "price", "--profile", "cgmy1", "--strike", "90")
        code, parity_out, _ = run_cli(
            capsys, "price", "--profile", "cgmy1", "--strike", "90", "--method", "parity"
        )
        assert code == 0
        assert parity_out.endswith("(parity)\n")
        gap = abs(float(stable_out.split()[0]) - float(parity_out.split()[0]))
        assert gap < 1e-7


# one invalid setting each, with the text its error line must carry both
# as a flag and as a config-file line
INVALID_SETTINGS = [
    ("kind", "straddle", "'straddle'"),
    ("method", "midpoint", "'midpoint'"),
    ("format", "xml", "'xml'"),
    ("profile", "bs", "'bs'"),
    ("strike", "-10", "strike must be positive and finite, got -10.0"),
    ("strike", "nan", "strike must be positive and finite, got nan"),
    ("maturity", "0", "maturity must be positive and finite, got 0.0"),
    ("L", "-2", "range_width must be positive and finite, got -2.0"),
    ("N", "0", "n_terms must be a positive whole number, got 0"),
    ("N", "-5", "n_terms must be a positive whole number, got -5"),
]


class TestConfigFile:
    def test_config_file_prices_like_the_same_flags(self, capsys, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# near-second-order tempered stable, damped expansion\n"
            "profile = cgmy1\n"
            "method = stable\n"
            "kind = call\n"
            "strike = 90\n"
            "maturity = 0.5\n"
            "spot = 101\n"
            "rate = 0.05\n"
            "dividend = 0.01\n"
            "alpha = 1.001\n"
            "L = 10\n"
            "N = 50\n"
            "format = json\n"
        )
        code, with_file, err = run_cli(capsys, "price", "--config", str(path))
        assert code == 0 and err == ""
        _, explicit, _ = run_cli(
            capsys, "price", "--profile", "cgmy1", "--method", "stable", "--kind", "call",
            "--strike", "90", "--maturity", "0.5", "--spot", "101", "--rate", "0.05",
            "--dividend", "0.01", "--alpha", "1.001", "--L", "10", "--N", "50",
            "--format", "json",
        )
        assert with_file == explicit
        payload = json.loads(with_file)
        assert (payload["profile"], payload["strike"], payload["maturity"]) == ("cgmy1", 90.0, 0.5)

    def test_empty_file_prices_like_no_file(self, capsys, tmp_path):
        path = tmp_path / "empty.cfg"
        path.write_text("# only a comment\n\n")
        code, with_file, _ = run_cli(capsys, "price", "--config", str(path))
        _, without, _ = run_cli(capsys, "price")
        assert code == 0
        assert with_file == without == "15.6621055646 (stable)\n"

    @pytest.mark.parametrize("key, value, want", INVALID_SETTINGS)
    @pytest.mark.parametrize("source", ["flag", "file"])
    def test_invalid_setting_is_refused(self, capsys, tmp_path, source, key, value, want):
        if source == "flag":
            argv = [f"--{key}={value}"]
        else:
            path = tmp_path / "bad.cfg"
            path.write_text(f"{key} = {value}\n")
            argv = ["--config", str(path)]
        code, out, err = run_cli(capsys, "price", *argv)
        assert (code, out) == (2, "")
        assert "error: " in err and want in err
        assert "Traceback" not in err

    def test_flags_override_file_without_clearing_it(self, capsys, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("profile = kou\nstrike = 90\nN = 64\n")
        code, with_file, _ = run_cli(
            capsys, "price", "--config", str(path), "--strike", "110"
        )
        assert code == 0
        # same result as spelling everything on the command line: the
        # flag wins for strike, the file still supplies N
        _, explicit, _ = run_cli(
            capsys, "price", "--profile", "kou", "--strike", "110", "--N", "64"
        )
        assert with_file == explicit

    def test_negative_terms_named_in_error(self, capsys, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("N = -5\n")
        code, _, err = run_cli(capsys, "price", "--config", str(path))
        assert code == 2
        assert "n_terms must be a positive whole number, got -5" in err

    def test_non_numeric_value_named_in_error(self, capsys, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("N = plenty\n")
        code, _, err = run_cli(capsys, "price", "--config", str(path))
        assert code == 2
        assert "N must be an integer, got 'plenty'" in err

    def test_parse_error_reports_line_number(self, capsys, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("profile = heston\njust words\n")
        code, _, err = run_cli(capsys, "price", "--config", str(path))
        assert code == 2
        assert "parse error at line 2" in err
        assert "'just words'" in err

    def test_unknown_key_reports_line_number(self, capsys, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("vol = 0.2\n")
        code, _, err = run_cli(capsys, "price", "--config", str(path))
        assert code == 2
        assert "unknown config key 'vol' at line 1" in err

    def test_missing_file_is_an_error_line(self, capsys, tmp_path):
        path = tmp_path / "absent.cfg"
        code, out, err = run_cli(capsys, "price", "--config", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "No such file" in err and str(path) in err

    def test_unknown_profile_in_file(self, capsys, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("profile = bs\n")
        code, _, err = run_cli(capsys, "price", "--config", str(path))
        assert code == 2
        assert "profile must be one of heston, kou, cgmy1, cgmy2, got 'bs'" in err


class TestReproduce:
    def test_unknown_target(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "reproduce", "fig9", "--output", str(tmp_path)
        )
        assert code == 2
        assert "unknown target 'fig9'" in err

    def test_unknown_target_creates_no_directory(self, capsys, tmp_path):
        out_dir = tmp_path / "out"
        code, out, err = run_cli(capsys, "reproduce", "tabel5", "--output", str(out_dir))
        assert (code, out) == (2, "")
        assert "unknown target 'tabel5'" in err
        assert not out_dir.exists()

    def test_output_that_is_a_file_is_an_error_line(self, capsys, tmp_path):
        taken = tmp_path / "taken"
        taken.write_text("")
        code, out, err = run_cli(capsys, "reproduce", "table6", "--output", str(taken))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and str(taken) in err

    def test_strike_table_report(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "reproduce", "table5", "--output", str(tmp_path))
        lines = out.splitlines()
        report = {line.split(":")[0]: line for line in lines}
        # the expansion columns reproduce the reference table except
        # for one boundary parity cell and the noise-floor column of
        # the heavy-tail direct expansion; the report says so honestly
        assert report["stable"].startswith("stable: 36/36 PASS")
        assert report["parity"].startswith("parity: 35/36 FAIL")
        assert report["direct"].startswith("direct: 18/27 FAIL")
        assert report["fourier_integral"].startswith("fourier_integral: 36/36 PASS")
        assert report["carr_madan"].startswith("carr_madan: 36/36 PASS")
        assert code == 1
        assert (tmp_path / "strike_table.csv").exists()
        assert (tmp_path / "strike_table.json").exists()

    # (profile, variant) runs of each figure target, in print order
    FIGURE_RUNS = {
        "fig1": [(name, None) for name in PROFILE_NAMES],
        "fig2": [(name, None) for name in PROFILE_NAMES],
        "fig3": [(name, None) for name in PROFILE_NAMES],
        "fig4": [(name, variant) for name in PROFILE_NAMES
                 for variant in ("stable", "parity", "direct")],
        "fig5": [("cgmy1", "stable"), ("cgmy1", "parity")],
        "fig6": [("cgmy2", "stable"), ("cgmy2", "parity")],
        "fig7": [(name, None) for name in PROFILE_NAMES],
    }
    FIGURE_SUMMARIES = {
        "fig1": "spread ",
        "fig2": "spread ",
        "fig3": "spread ",
        "fig4": "final log10 error ",
        "fig5": "final log10 error ",
        "fig6": "final log10 error ",
        "fig7": "max |damped-call - undamped-put-parity| ",
    }

    @pytest.mark.parametrize("target", sorted(FIGURE_RUNS))
    def test_figure_targets(self, capsys, tmp_path, target):
        code, out, err = run_cli(capsys, "reproduce", target, "--output", str(tmp_path))
        assert code == 0 and err == ""
        lines = out.splitlines()
        runs = self.FIGURE_RUNS[target]
        assert len(lines) == len(runs)
        written = set()
        for line, (name, variant) in zip(lines, runs):
            parts = [target, name] + ([variant] if variant else [])
            if (name, variant) == ("cgmy2", "direct"):
                # the undamped fat-tail series has no preset
                assert line == "fig4 cgmy2 direct: skipped (no preset)"
                continue
            assert line.startswith(" ".join(parts) + ": " + self.FIGURE_SUMMARIES[target])
            stem = "_".join(parts)
            written |= {stem + ".csv", stem + ".json"}
        assert set(os.listdir(tmp_path)) == written

    def test_reference_set_report(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "reproduce", "table6", "--output", str(tmp_path))
        lines = out.splitlines()
        assert code == 1
        for name in ("heston", "kou", "cgmy1"):
            line = next(l for l in lines if l.startswith(f"{name}:"))
            assert "PASS" in line
        cgmy2_line = next(l for l in lines if l.startswith("cgmy2:"))
        assert "FAIL" in cgmy2_line
        assert "rounded in its 13th digit" in cgmy2_line
        assert lines[-1] == "references: FAIL (tol 5e-13)"
        assert (tmp_path / "reference_set.csv").exists()


class TestSweep:
    def test_l_sweep_writes_csv_and_sidecar(self, capsys, tmp_path):
        target = tmp_path / "widths.csv"
        code, out, _ = run_cli(
            capsys, "sweep", "--experiment", "l_sweep", "--profile", "kou",
            "--l-min", "7", "--l-max", "9", "--l-points", "3",
            "--n-terms", "512", "--output", str(target),
        )
        assert code == 0
        assert str(target) in out
        assert "max variant gap" in out
        assert target.exists()
        assert (tmp_path / "widths.json").exists()
        rows = target.read_text().splitlines()
        assert rows[0] == "range_width,variant=stable,variant=parity"
        assert len(rows) == 4

    def test_stability_sweep_small_grid(self, capsys, tmp_path):
        target = tmp_path / "surface.csv"
        code, out, _ = run_cli(
            capsys, "sweep", "--experiment", "stability", "--profile", "heston",
            "--alpha-points", "2", "--l-min", "7", "--l-max", "8", "--l-points", "2",
            "--output", str(target), "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["experiment"] == "stability_heston"
        assert "spread" in payload["summary"]
        assert target.exists()

    def test_convergence_sweep(self, capsys, tmp_path):
        target = tmp_path / "conv.csv"
        code, out, _ = run_cli(
            capsys, "sweep", "--experiment", "convergence", "--profile", "heston",
            "--n-values", "16,32,64", "--output", str(target),
        )
        assert code == 0
        assert "final log10 error" in out
        rows = target.read_text().splitlines()
        assert rows[0] == "n_terms,value"
        assert len(rows) == 4

    def test_l_points_without_bounds_spans_the_profile_widths(self, capsys, tmp_path):
        target = tmp_path / "surface.csv"
        code, _, _ = run_cli(
            capsys, "sweep", "--experiment", "stability", "--profile", "heston",
            "--alpha-points", "2", "--l-points", "3", "--output", str(target),
        )
        assert code == 0
        header = target.read_text().splitlines()[0]
        assert header == "alpha,range_width=6.0,range_width=12.0,range_width=18.0"

    def test_alpha_flags_override_the_default_dampings_one_by_one(self, capsys, tmp_path):
        target = tmp_path / "surface.csv"
        for flags, want in ((("--alpha-points", "3"), ["1.0001", "1.10005", "1.2"]),
                            (("--alpha-max", "1.5", "--alpha-points", "2"), ["1.0001", "1.5"])):
            code, _, _ = run_cli(
                capsys, "sweep", "--experiment", "stability", "--profile", "heston",
                *flags, "--l-points", "1", "--output", str(target),
            )
            assert code == 0
            rows = target.read_text().splitlines()[1:]
            assert [row.split(",")[0] for row in rows] == want

    def test_l_bounds_must_come_in_pairs(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "sweep", "--experiment", "l_sweep", "--profile", "kou",
            "--l-min", "7", "--output", str(tmp_path / "x.csv"),
        )
        assert code == 2
        assert "--l-min and --l-max must be given together" in err

    @pytest.mark.parametrize("experiment, flag", [("stability", "--alpha-points"),
                                                  ("stability", "--l-points"),
                                                  ("l_sweep", "--l-points")])
    def test_negative_grid_size_is_refused(self, capsys, tmp_path, monkeypatch,
                                           experiment, flag):
        # used to end in a NumPy traceback with exit code 1
        from cospricer import cli

        def unreachable(*args, **kwargs):
            raise AssertionError("a negative grid size must be refused before any pricing")

        monkeypatch.setattr(cli.harness, "run_stability_surface", unreachable)
        monkeypatch.setattr(cli.harness, "run_l_sweep", unreachable)
        target = tmp_path / "x.csv"
        code, out, err = run_cli(
            capsys, "sweep", "--experiment", experiment, "--profile", "heston",
            flag, "-1", "--output", str(target),
        )
        assert (code, out) == (2, "")
        assert f"error: {flag} must not be negative, got -1" in err
        assert not target.exists()

    def test_csv_is_not_a_report_format(self, capsys, tmp_path):
        # --format csv used to print nothing and exit 0; the CSV is always written
        target = tmp_path / "x.csv"
        code, out, err = run_cli(
            capsys, "sweep", "--experiment", "stability", "--profile", "kou",
            "--format", "csv", "--output", str(target),
        )
        assert (code, out) == (2, "")
        assert "invalid choice: 'csv'" in err
        assert not target.exists()

    @pytest.mark.parametrize("where", ["missing/widths.csv", "."])
    def test_unwritable_output_is_an_error_line(self, capsys, tmp_path, monkeypatch, where):
        # the whole grid used to be priced before the write failed
        from cospricer import cli

        def unreachable(*args, **kwargs):
            raise AssertionError("an unwritable --output must be refused before any pricing")

        monkeypatch.setattr(cli.harness, "run_l_sweep", unreachable)
        target = tmp_path / where
        code, out, err = run_cli(
            capsys, "sweep", "--experiment", "l_sweep", "--profile", "kou",
            "--l-min", "7", "--l-max", "9", "--l-points", "3", "--output", str(target),
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and str(target) in err
        assert os.listdir(tmp_path) == []

    def test_bad_n_values_grid(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "sweep", "--experiment", "convergence", "--profile", "heston",
            "--n-values", "16,then more", "--output", str(tmp_path / "x.csv"),
        )
        assert code == 2
        assert "--n-values must be a comma-separated number list" in err

    @pytest.mark.parametrize("n_values", ["16.7,32", "16,32.5", "0,16", "-16", "inf", "nan",
                                          "true,16", "", ","])
    def test_term_counts_must_be_whole(self, capsys, tmp_path, monkeypatch, n_values):
        # 16.7 used to be truncated and recorded as a row 16, and an empty
        # list used to run the default grid
        from cospricer import cli

        def unreachable(*args, **kwargs):
            raise AssertionError("bad term counts must be refused before any pricing")

        monkeypatch.setattr(cli.harness, "run_convergence", unreachable)
        with pytest.raises(ConfigurationError, match="whole term counts"):
            cli._parse_terms(n_values)
        target = tmp_path / "x.csv"
        code, out, err = run_cli(
            capsys, "sweep", "--experiment", "convergence", "--profile", "heston",
            "--n-values", n_values, "--output", str(target),
        )
        assert (code, out) == (2, "")
        assert "--n-values must be a comma-separated number list" in err
        assert not target.exists()

    def test_whole_term_counts_in_float_notation_are_accepted(self, capsys, tmp_path):
        target = tmp_path / "conv.csv"
        code, _, _ = run_cli(
            capsys, "sweep", "--experiment", "convergence", "--profile", "heston",
            "--n-values", "16.0, 1e3", "--output", str(target),
        )
        assert code == 0
        rows = target.read_text().splitlines()
        assert [row.split(",")[0] for row in rows[1:]] == ["16", "1000"]


def test_python_dash_m_runs_the_cli():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "cospricer", "price", "--profile", "kou", "--strike", "95"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "26.4197703718 (stable)\n"
