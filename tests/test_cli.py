"""CLI behavior: JSON/CSV output shape, exit codes, determinism."""
import json
import math

import pytest

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

    def test_hankel_matches_oracle(self, capsys):
        args = ["--a", "-0.5", "--beta", "0", "--m", "0", "--mprime", "0", "--r", "5"]
        _, out_h, _ = run(capsys, "eval", *args, "--method", "hankel")
        _, out_o, _ = run(capsys, "eval", *args, "--method", "oracle")
        assert json.loads(out_h)["value"] == pytest.approx(
            json.loads(out_o)["value"], abs=1e-8
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

    @pytest.mark.parametrize("r", ["1e-60", "5e-324"])
    def test_tiny_r_oracle_exit_3(self, capsys, r):
        # the Bessel row is not finite there; at the subnormal 5e-324 r/2 is
        # 0, so the certified length must not take log(r/2)
        code, out, err = run(capsys, "eval", "--a", "-1", "--beta", "0", "--m", "0",
                             "--mprime", "0", "--r", r, "--method", "oracle")
        assert code == 3
        assert out == "" and err.startswith("error:")

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

    @pytest.mark.parametrize("command", [("asym",), ("eval", "--method", "asym")])
    def test_r_zero_exit_2(self, capsys, command):
        code, out, err = run(capsys, *command, "--a", "-1.5", "--beta", "0", "--m", "0",
                             "--mprime", "0", "--r", "0")
        assert code == 2
        assert out == "" and "r > 0" in err


class TestValidate:
    def test_kernel_suite(self, capsys, tmp_path):
        report = tmp_path / "report.json"
        code, _, _ = run(capsys, "validate", "--suite", "kernel",
                         "--report", str(report))
        assert code == 0
        obj = json.loads(report.read_text())
        assert all(c["status"] == "pass" for c in obj["checks"])
        assert all(math.isfinite(c["residual"]) for c in obj["checks"])
