import pytest

from bitconv.bench import OPS, BenchResult, bench_interleaved, bench_op, bench_suite


class TestBenchOp:
    def test_tiny_geometry_completes(self):
        r = bench_op("float_dw", geometry=(1, 1, 1), reps=3, warmup=1)
        assert r.median_ms > 0
        assert r.reps == 3 and r.warmup == 1
        # interleaved seeds: one result per seed, in the order given
        rs = bench_interleaved("float_dw", (3, 1), geometry=(1, 1, 1), reps=3, warmup=1)
        assert [r.seed for r in rs] == [3, 1]
        assert all(r.median_ms > 0 and r.reps == 3 for r in rs)

    def test_all_ops_run_at_small_geometry(self):
        for op in OPS:
            r = bench_op(op, geometry=(8, 8, 8), reps=3, warmup=1)
            assert r.op == op and r.median_ms > 0

    def test_faults_are_nonnegative_counts(self):
        for op in OPS:
            r = bench_op(op, geometry=(8, 8, 8), reps=3, warmup=1)
            assert type(r.faults) is int and r.faults >= 0, (op, r.faults)

    def test_unknown_op_rejected(self):
        with pytest.raises(ValueError):
            bench_op("winograd", geometry=(8, 8, 8))

    def test_bad_reps_rejected(self):
        with pytest.raises(ValueError):
            bench_op("float_dw", reps=0)

    def test_iqr_nonnegative(self):
        r = bench_op("residual_add", geometry=(16, 16, 8), reps=5, warmup=1)
        assert r.iqr_ms >= 0


class TestBenchSuite:
    def test_row_count_and_csv(self, tmp_path):
        path = tmp_path / "latency.csv"
        results = bench_suite(geometry=(8, 8, 8), reps=3, warmup=1, out_path=path)
        assert len(results) == 6
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "op,geometry,median_ms,iqr_ms,reps,warmup,faults"
        assert len(lines) == 7
        assert all("8x8:8" in line for line in lines[1:])

    def test_csv_row_format(self):
        r = BenchResult("float_conv", (56, 56, 128), 1.234, 0.1, 30, 5)
        row = r.csv_row()
        assert row[0] == "float_conv"
        assert row[1] == "56x56:128"
