"""CLI behavior: JSON/CSV output shape, exit codes, determinism."""
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from bnsum import cli
from bnsum.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_oracle_neumann_value(self, capsys):
        code, out, _ = run(capsys, "eval", "--a", "0", "--beta", "0", "--m", "0",
                           "--mprime", "0", "--r", "2", "--method", "oracle")
        assert code == 0
        obj = json.loads(out)
        assert obj["method"] == "oracle"
        # (1 - J_0(2)^2)/2 with J_0(2) = 0.22389077914123567
        assert obj["value"] == pytest.approx((1.0 - 0.22389077914123567 ** 2) / 2.0,
                                             abs=1e-12)

    def test_r_zero(self, capsys):
        code, out, _ = run(capsys, "eval", "--a", "-2", "--beta", "0", "--m", "0",
                           "--mprime", "0", "--r", "0")
        assert code == 0
        assert json.loads(out)["value"] == 0.0

    @pytest.mark.parametrize("flag, value", [("--a", "-1e-5"), ("--a", "-2.5e0"),
                                             ("--beta", "-5E-1"), ("--a", "-1.5")])
    def test_negative_value_spaced_or_joined(self, capsys, flag, value):
        # argparse alone reads "--a -1e-5" as --a followed by an unknown flag
        spec = {"--a": "-0.5", "--beta": "0", "--m": "0", "--mprime": "0", "--r": "5"}
        base = [arg for key, v in spec.items() if key != flag for arg in (key, v)]
        spaced = run(capsys, "eval", *base, flag, value, "--method", "oracle")
        joined = run(capsys, "eval", *base, f"{flag}={value}", "--method", "oracle")
        assert spaced[0] == 0 and spaced == joined

    def test_hankel_matches_oracle(self, capsys):
        args = ["--a", "-0.5", "--beta", "0", "--m", "0", "--mprime", "0", "--r", "5"]
        _, out_h, _ = run(capsys, "eval", *args, "--method", "hankel")
        _, out_o, _ = run(capsys, "eval", *args, "--method", "oracle")
        assert json.loads(out_h)["value"] == pytest.approx(
            json.loads(out_o)["value"], abs=1e-8
        )

    def test_negative_order(self, capsys):
        # m, m' are any integers: "--m -1" is an order, not a flag
        args = ["--a", "-0.5", "--beta", "0", "--m", "-1", "--mprime", "0", "--r", "7"]
        code, out_h, _ = run(capsys, "eval", *args, "--method", "hankel")
        assert code == 0
        _, out_o, _ = run(capsys, "eval", *args, "--method", "oracle")
        assert json.loads(out_h)["value"] == pytest.approx(
            json.loads(out_o)["value"], rel=1e-12, abs=0
        )

    def test_auto_picks_oracle_then_asym(self, capsys):
        base = ["--a", "-1", "--beta", "0", "--m", "0", "--mprime", "0"]
        _, out1, _ = run(capsys, "eval", *base, "--r", "10")
        _, out2, _ = run(capsys, "eval", *base, "--r", "100")
        assert json.loads(out1)["method"] == "oracle"
        assert json.loads(out2)["method"] == "asym"

    def test_usage_error_exit_2(self, capsys):
        code, _, err = run(capsys, "eval", "--a", "0", "--beta", "-2", "--m", "0",
                           "--mprime", "0", "--r", "1")
        assert code == 2
        assert "beta" in err

    def test_bad_flag_exit_2(self, capsys):
        assert run(capsys, "eval", "--a", "0")[0] == 2

    @pytest.mark.parametrize("flags", [
        ("--r", "inf", "--method", "oracle"),
        ("--r", "nan", "--method", "asym"),
        ("--beta", "nan"),
        ("--a", "nan"),
        ("--tol", "nan"),
    ])
    def test_nonfinite_input_exit_2(self, capsys, flags):
        # argparse keeps the last value of a repeated flag
        code, out, err = run(capsys, "eval", "--a", "-1.5", "--beta", "0", "--m", "0",
                             "--mprime", "1", "--r", "5", *flags)
        assert code == 2
        assert out == "" and "finite" in err

    @pytest.mark.parametrize("r, want", [("1e-60", 2.5e-121), ("5e-324", 0.0)])
    def test_tiny_r_oracle_value(self, capsys, r, want):
        # the sum is J_1(r)^2 = (r/2)^2 to 1e-100 relative; at the subnormal
        # 5e-324, r/2 rounds to 0 and the certified length must not take log(r/2)
        code, out, _ = run(capsys, "eval", "--a", "-1", "--beta", "0", "--m", "0",
                           "--mprime", "0", "--r", r, "--method", "oracle")
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(want, rel=1e-15, abs=0.0)

    def test_out_of_memory_exit_3(self, capsys, monkeypatch):
        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr("bnsum.cli.eval_hankel", exhausted)
        code, out, err = run(capsys, "eval", "--a", "-0.5", "--beta", "0", "--m", "0",
                             "--mprime", "0", "--r", "5", "--method", "hankel")
        assert code == 3
        assert out == "" and err.startswith("error: out of memory")

    @pytest.mark.parametrize("argv", [
        ("eval", "--method", "lifted", "--a", "104", "--beta", "1000", "--r", "0.001"),
        ("asym", "--a", "2000", "--beta", "0", "--r", "10"),
        ("eval", "--method", "asym", "--a", "400", "--beta", "0", "--r", "100"),
        ("eval", "--a", "-1500.5", "--beta", "0", "--r", "60"),
    ])
    def test_overflow_exit_3(self, capsys, argv):
        # coefficients or powers beyond the float range are a numeric failure
        # of the route: an error line and exit 3, not a traceback
        with np.errstate(over="ignore", invalid="ignore"):
            code, out, err = run(capsys, *argv, "--m", "0", "--mprime", "0")
        assert code == 3
        assert out == "" and err.startswith("error: ")

    def test_overflowed_lowering_fails_quietly(self):
        # the lowered coefficients overflow: one error line before any numpy
        # arithmetic on them, so no RuntimeWarning reaches stderr
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH")))))
        argv = ["eval", "--method", "lifted", "--a", "104", "--beta", "1000",
                "--m", "0", "--mprime", "0", "--r", "0.001"]
        out = subprocess.run([sys.executable, "-m", "bnsum.cli", *argv], env=env,
                             capture_output=True, text=True)
        assert out.returncode == 3 and out.stdout == ""
        lines = out.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: lifted lowering overflowed")
        assert "RuntimeWarning" not in out.stderr

    def test_underflowing_substitution_exit_3(self, capsys):
        # at alpha = 0.03 the smallest eps = u^(1/alpha) nodes underflow to 0,
        # a numeric failure of the route, not a usage error
        code, out, err = run(capsys, "eval", "--a", "-0.03", "--beta", "0.3", "--m", "1",
                             "--mprime", "0", "--r", "20", "--method", "hankel")
        assert code == 3
        assert out == "" and "alpha = 0.03" in err

    @pytest.mark.parametrize("a", ["400", "1e308"])
    def test_nonfinite_oracle_exit_3(self, capsys, a):
        # (l+beta)^a overflows; at 1e308 so does the certificate's term ratio
        code, out, err = run(capsys, "eval", "--a", a, "--beta", "0", "--m", "0",
                             "--mprime", "0", "--r", "5", "--method", "oracle")
        assert code == 3
        assert out == "" and err.startswith("error:")


class TestSweep:
    def test_structure(self, capsys, tmp_path):
        out = tmp_path / "sweep.csv"
        code, _, _ = run(capsys, "sweep", "--a", "-1.5", "--beta", "0", "--m", "0",
                         "--mprime", "0", "--r-start", "1", "--r-end", "10",
                         "--points", "10", "--out", str(out))
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "r,oracle,hankel,lifted,asym,diff_oracle_hankel,diff_oracle_asym"
        assert len(lines) == 11
        first = lines[1].split(",")
        assert float(first[0]) == 1.0
        assert abs(float(first[5])) < 1e-8  # |oracle - hankel|

    def test_methods_subset_leaves_empty(self, capsys, tmp_path):
        out = tmp_path / "sweep.csv"
        code, _, _ = run(capsys, "sweep", "--a", "-1.5", "--beta", "0", "--m", "0",
                         "--mprime", "0", "--r-start", "1", "--r-end", "4",
                         "--points", "3", "--methods", "oracle", "--out", str(out))
        assert code == 0
        for line in out.read_text().strip().split("\n")[1:]:
            cells = line.split(",")
            assert cells[1] != "" and cells[2] == "" and cells[4] == "" and cells[5] == ""

    def test_deterministic(self, capsys, tmp_path):
        args = ["sweep", "--a", "0.5", "--beta", "0.5", "--m", "1", "--mprime", "0",
                "--r-start", "2", "--r-end", "20", "--points", "6", "--log-grid"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(capsys, *args, "--out", str(a))[0] == 0
        assert run(capsys, *args, "--out", str(b))[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_r_zero_leaves_asym_empty(self, capsys, tmp_path):
        out = tmp_path / "sweep.csv"
        code, _, _ = run(capsys, "sweep", "--a", "-1.5", "--beta", "0", "--m", "0",
                         "--mprime", "0", "--r-start", "0", "--r-end", "2",
                         "--points", "3", "--out", str(out))
        assert code == 0
        rows = [line.split(",") for line in out.read_text().strip().split("\n")[1:]]
        assert rows[0][4] == "" and rows[1][4] != ""

    def test_r_zero_lifted_is_zero(self, capsys, tmp_path):
        out = tmp_path / "sweep.csv"
        code, _, _ = run(capsys, "sweep", "--a", "0.5", "--beta", "0", "--m", "0",
                         "--mprime", "0", "--r-start", "0", "--r-end", "2",
                         "--points", "3", "--methods", "lifted", "--out", str(out))
        assert code == 0
        rows = [line.split(",") for line in out.read_text().strip().split("\n")[1:]]
        assert rows[0][3] == "0" and float(rows[1][3]) > 0.0

    @pytest.mark.parametrize("r_end", ["-5", "0", "nan", "inf", "-1e0"])
    def test_log_grid_bad_end_exit_2(self, capsys, tmp_path, r_end):
        out = tmp_path / "sweep.csv"
        code, _, err = run(capsys, "sweep", "--a", "-1.5", "--beta", "0", "--m", "0",
                           "--mprime", "0", "--r-start", "1", "--r-end", r_end,
                           "--points", "3", "--log-grid", "--out", str(out))
        assert code == 2
        assert "--r-end > 0" in err
        assert not out.exists()

    @pytest.mark.parametrize("r_start, r_end, points", [
        ("0.9", "0", "8"),  # the last row, 0.9 + 7 * (-0.9 / 7), rounds to -1.1e-16
        ("1", "nan", "4"),
    ])
    def test_bad_row_rejected_before_any_evaluation(self, capsys, tmp_path, monkeypatch,
                                                    r_start, r_end, points):
        def no_evaluation(*args, **kwargs):
            raise AssertionError("a row was evaluated")

        monkeypatch.setattr("bnsum.cli.sum_series", no_evaluation)
        monkeypatch.setattr("bnsum.cli.eval_hankel_grid", no_evaluation)
        out = tmp_path / "sweep.csv"
        code, _, err = run(capsys, "sweep", "--a", "-1.5", "--beta", "0", "--m", "0",
                           "--mprime", "0", "--r-start", r_start, "--r-end", r_end,
                           "--points", points, "--out", str(out))
        assert code == 2 and "finite" in err
        assert not out.exists()

    def test_hankel_column_matches_eval(self, capsys, tmp_path):
        spec = ["--a", "-0.7", "--beta", "0.3", "--m", "2", "--mprime", "1"]
        out = tmp_path / "sweep.csv"
        code, _, _ = run(capsys, "sweep", *spec, "--r-start", "0.5", "--r-end", "60",
                         "--points", "10", "--out", str(out))
        assert code == 0
        rows = out.read_text().strip().split("\n")[1:]
        assert len(rows) == 10
        for line in rows:
            cells = line.split(",")
            _, out_h, _ = run(capsys, "eval", *spec, "--r", cells[0], "--method", "hankel",
                              "--tol", "1e-10")
            want = json.loads(out_h)["value"]
            assert abs(float(cells[2]) - want) <= 1e-13 * abs(want)
            assert float(cells[5]) < 1e-8  # diff_oracle_hankel

    def test_unconverged_hankel_row_leaves_its_cell_empty(self, capsys, tmp_path,
                                                           monkeypatch):
        from bnsum.quadrature import eval_hankel_grid

        def second_unconverged(*args, **kwargs):
            results = eval_hankel_grid(*args, **kwargs)
            results[1] = None
            return results

        monkeypatch.setattr("bnsum.cli.eval_hankel_grid", second_unconverged)
        out = tmp_path / "sweep.csv"
        code, _, _ = run(capsys, "sweep", "--a", "-1.5", "--beta", "0", "--m", "0",
                         "--mprime", "0", "--r-start", "1", "--r-end", "3",
                         "--points", "3", "--out", str(out))
        assert code == 0
        rows = [line.split(",") for line in out.read_text().strip().split("\n")[1:]]
        assert [row[2] == "" for row in rows] == [False, True, False]
        assert [row[5] == "" for row in rows] == [False, True, False]
        assert all(row[1] != "" and row[4] != "" for row in rows)

    @pytest.mark.parametrize("a", ["-0.03", "0.956"])
    def test_underflowing_substitution_leaves_cells_empty(self, capsys, tmp_path, a):
        # hankel at alpha = 0.03, and lifted through its leaf at a - 1 = -0.044,
        # fail on eps = u^(1/alpha) underflowing; the sweep keeps its other cells
        out = tmp_path / "sweep.csv"
        code, _, _ = run(capsys, "sweep", "--a", a, "--beta", "0.3", "--m", "1",
                         "--mprime", "0", "--r-start", "5", "--r-end", "20",
                         "--points", "3", "--out", str(out))
        assert code == 0
        rows = [line.split(",") for line in out.read_text().strip().split("\n")[1:]]
        assert len(rows) == 3
        for row in rows:
            assert row[1] != "" and row[4] != ""  # oracle, asym
            assert row[2] == "" and row[3] == "" and row[5] == ""  # hankel, lifted

    def test_unwritable_exit_4(self, capsys):
        code, _, _ = run(capsys, "sweep", "--a", "-1", "--beta", "0", "--m", "0",
                         "--mprime", "0", "--r-start", "1", "--r-end", "2",
                         "--points", "2", "--out", "/nonexistent/dir/x.csv")
        assert code == 4


class TestAsym:
    def test_show_terms(self, capsys):
        code, out, _ = run(capsys, "asym", "--a", "-0.5", "--beta", "0", "--m", "0",
                           "--mprime", "0", "--r", "10", "--show-terms")
        assert code == 0
        obj = json.loads(out)
        assert obj["gamma_err"] == 1.5
        powers = {t["power"] for t in obj["terms"]}
        assert powers == {0.5, 1.0}

    def test_negative_orders(self, capsys):
        code, out, _ = run(capsys, "asym", "--a", "-1.5", "--beta", "0.3", "--m", "-2",
                           "--mprime", "1", "--r", "400")
        assert code == 0 and math.isfinite(json.loads(out)["value"])

    @pytest.mark.parametrize("command", [("asym",), ("eval", "--method", "asym")])
    def test_r_zero_exit_2(self, capsys, command):
        code, out, err = run(capsys, *command, "--a", "-1.5", "--beta", "0", "--m", "0",
                             "--mprime", "0", "--r", "0")
        assert code == 2
        assert out == "" and "r > 0" in err


class TestParserReuse:
    def test_one_parser_serves_a_sequence(self, capsys, tmp_path):
        # main builds its parser once per process: neither a failed parse nor
        # one command's flags or defaults may reach the next call
        csv = tmp_path / "sweep.csv"
        spec = ["--a", "-0.5", "--beta", "0", "--m", "0", "--mprime", "0"]
        calls = [
            ("eval", "--a", "0"),
            ("eval", "--a", "0", "--beta", "0", "--m", "0", "--mprime", "0", "--r", "2",
             "--method", "oracle"),
            ("sweep", *spec, "--r-start", "40", "--r-end", "60", "--points", "3",
             "--methods", "oracle,asym", "--out", str(csv)),
            ("asym", *spec, "--r", "10", "--show-terms"),
            ("eval", *spec, "--r", "100"),
        ]

        def call(argv):
            code, out, err = run(capsys, *argv)
            return code, out, err, csv.read_text() if argv[0] == "sweep" else None

        fresh = []
        for argv in calls:
            cli._build_parser.cache_clear()
            fresh.append(call(argv))
        cli._build_parser.cache_clear()
        shared = [call(argv) for argv in calls]
        assert cli._build_parser.cache_info().misses == 1
        assert shared == fresh

        (bad, *_), oracle, sweep, asym, auto = shared
        assert bad == 2
        assert json.loads(oracle[1])["value"] == pytest.approx(
            (1.0 - 0.22389077914123567 ** 2) / 2.0, abs=1e-12)
        rows = [line.split(",") for line in sweep[3].strip().split("\n")[1:]]
        assert sweep[0] == 0 and len(rows) == 3
        assert all(c[1] and c[4] and not c[2] and not c[3] for c in rows)
        assert {t["power"] for t in json.loads(asym[1])["terms"]} == {0.5, 1.0}
        assert json.loads(auto[1])["method"] == "asym"  # auto, not the oracle flag before


class TestValidate:
    def test_kernel_suite(self, capsys, tmp_path):
        report = tmp_path / "report.json"
        code, _, _ = run(capsys, "validate", "--suite", "kernel",
                         "--report", str(report))
        assert code == 0
        obj = json.loads(report.read_text())
        assert all(c["status"] == "pass" for c in obj["checks"])
        assert all(math.isfinite(c["residual"]) for c in obj["checks"])

    def test_stdout_is_json(self, capsys):
        # the per-check summary goes to stderr, so stdout loads as one report
        code, out, err = run(capsys, "validate", "--suite", "kernel")
        assert code == 0
        obj = json.loads(out)
        assert all(f" {c['name']} residual=" in err for c in obj["checks"])
