import csv
import os
import warnings

import numpy as np
import pytest

from bitconv.cli import main
from bitconv.quantize import read_pgm, write_pgm


def run(args):
    return main([str(a) for a in args])


class TestVerify:
    def test_default_exits_zero(self, tmp_path, capsys):
        assert run(["--out", tmp_path, "verify", "--cases", "15"]) == 0
        out = capsys.readouterr().out
        assert "0 failures" in out

    def test_corrupt_pad_exits_nonzero(self, tmp_path):
        assert run(["--out", tmp_path, "verify", "--cases", "5", "--corrupt-pad"]) != 0

    def test_list_cases_reports_shapes(self, tmp_path, capsys):
        assert run(["--out", tmp_path, "verify", "--cases", "4", "--list-cases"]) == 0
        out = capsys.readouterr().out
        assert "shape=" in out and "stride=" in out


class TestCost:
    def test_table_rows(self, tmp_path, capsys):
        assert run(["--out", tmp_path, "cost", "--table1"]) == 0
        out = capsys.readouterr().out
        assert "462422016" in out
        assert "3612672" in out
        assert "7225344" in out
        assert "56448" in out
        assert (tmp_path / "cost.csv").exists()

    def test_table_csv_types(self, tmp_path):
        assert run(["--out", tmp_path, "cost", "--table1"]) == 0
        rows = list(csv.DictReader(open(tmp_path / "cost.csv")))
        types = {r["layer"]: r["type"] for r in rows}
        assert types == {"fp_regular_3x3": "conv3x3", "fp_depthwise_3x3": "dw3x3",
                         "binary_regular_3x3": "conv3x3", "binary_depthwise_3x3": "dw3x3",
                         "total": ""}

    def test_model_cost(self, tmp_path, capsys):
        assert run(["--out", tmp_path, "cost", "--variant", "A"]) == 0
        rows = list(csv.DictReader(open(tmp_path / "cost.csv")))
        total = next(r for r in rows if r["layer"] == "total")
        assert float(total["ops"]) == float(total["bops"]) / 64 + float(total["flops"])


class TestCondition:
    def test_sweep_columns_and_improvement(self, tmp_path):
        assert run(["--out", tmp_path, "--seed", "3", "condition", "--num", "5",
                    "--include-zero"]) == 0
        rows = list(csv.DictReader(open(tmp_path / "condition.csv")))
        assert len(rows) == 6
        kj = float(rows[0]["kappa_j"])
        # alpha = 0 row: the shift degenerates and kappa is unchanged
        assert np.isclose(float(rows[0]["kappa_j_prime"]), kj, rtol=1e-9)
        errs = []
        for row in rows[1:]:
            assert float(row["kappa_j_prime"]) < kj
            errs.append(float(row["approx_abs_error"]))
        # approximation error shrinks as alpha grows
        assert errs[-1] < errs[0]

    @pytest.mark.parametrize("flag,value", [("--alpha-min", "0"), ("--alpha-min", "-1"),
                                            ("--alpha-max", "0"), ("--alpha-max", "-0.5")])
    def test_non_positive_alpha_exits_2(self, tmp_path, capsys, flag, value):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # rejected before numpy sees it
            assert run(["--out", tmp_path / "out", "condition", flag, value, "--include-zero"]) == 2
        assert capsys.readouterr().err == (f"error: {flag} must be > 0, got {float(value):g} "
                                           "(--include-zero adds alpha = 0)\n")
        assert not (tmp_path / "out").exists()


class TestTrain:
    def test_deterministic_reports(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        args = ["train", "--config", "prebn_dual", "--epochs", "2", "--samples", "96"]
        assert run(["--out", a, "--seed", "5"] + args) == 0
        assert run(["--out", b, "--seed", "5"] + args) == 0
        assert (a / "train_report.csv").read_text() == (b / "train_report.csv").read_text()
        assert (a / "model.ckpt").read_bytes() == (b / "model.ckpt").read_bytes()

    @pytest.mark.parametrize("flags,message", [(["--samples", "2"], "empty validation split"),
                                               (["--batch-size", "0"], "batch_size must be >= 1"),
                                               (["--batch-size", "-1"], "batch_size must be >= 1"),
                                               (["--step", "two-step"],
                                                "two-step training needs epochs >= 2, one for each step")])
    def test_bad_split_or_batch_exits_2(self, tmp_path, capsys, flags, message):
        assert run(["--out", tmp_path, "train", "--config", "baseline", "--epochs", "1"] + flags) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


class TestHessianCmd:
    def test_probe_spectrum(self, tmp_path, capsys):
        assert run(["--out", tmp_path, "hessian", "--mode", "probe", "--dim", "16",
                    "--k", "2"]) == 0
        out = capsys.readouterr().out
        assert "constructed:" in out
        rows = list(csv.DictReader(open(tmp_path / "spectrum.csv")))
        assert len(rows) == 2
        assert float(rows[0]["eigenvalue"]) >= float(rows[1]["eigenvalue"])

    def test_k_above_dim_exits_2(self, tmp_path):
        assert run(["--out", tmp_path, "hessian", "--mode", "probe", "--dim", "3",
                    "--k", "5"]) == 2


class TestLandscapeCmd:
    def test_line_mode_csv(self, tmp_path):
        assert run(["--out", tmp_path, "landscape", "--config", "prebn_dual",
                    "--epochs", "0", "--samples", "48", "--grid", "3",
                    "--mode", "2d-line"]) == 0
        rows = list(csv.DictReader(open(tmp_path / "landscape.csv")))
        assert len(rows) == 3
        assert all(r["y"] == "0.0" for r in rows)


class TestBenchCmd:
    def test_small_geometry(self, tmp_path, capsys):
        assert run(["--out", tmp_path, "bench", "--geometry", "8x8:8", "--reps", "3",
                    "--warmup", "1"]) == 0
        rows = list(csv.DictReader(open(tmp_path / "latency.csv")))
        assert len(rows) == 6

    def test_bad_geometry_flag(self, tmp_path):
        with pytest.raises(SystemExit):
            run(["--out", tmp_path, "bench", "--geometry", "nonsense"])


class TestVisualize:
    def test_ramp_triptych(self, tmp_path, capsys):
        ramp = np.tile(np.arange(256, dtype=np.uint8), (32, 1))
        src = tmp_path / "ramp.pgm"
        write_pgm(src, ramp)
        assert run(["--out", tmp_path, "visualize", "--input", src]) == 0
        out = capsys.readouterr().out
        assert "levels: otsu 2, ternary 3" in out
        two = read_pgm(tmp_path / "otsu.pgm")
        three = read_pgm(tmp_path / "ternary.pgm")
        assert len(np.unique(two)) == 2
        assert sorted(np.unique(three).tolist()) == [0, 128, 255]

    def test_explicit_thresholds(self, tmp_path):
        ramp = np.tile(np.arange(256, dtype=np.uint8), (8, 1))
        src = tmp_path / "ramp.pgm"
        write_pgm(src, ramp)
        assert run(["--out", tmp_path, "visualize", "--input", src,
                    "--t1", "100", "--t2", "200"]) == 0
        three = read_pgm(tmp_path / "ternary.pgm")
        assert int((three == 0).sum()) == 8 * 100

    def test_missing_input_is_error(self, tmp_path):
        assert run(["--out", tmp_path, "visualize", "--input", tmp_path / "nope.pgm"]) == 2
