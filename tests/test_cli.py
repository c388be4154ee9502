import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from ginibre import cli


def run_cli(args, **kwargs):
    return subprocess.run([sys.executable, "-m", "ginibre.cli", *args],
                          capture_output=True, text=True, **kwargs)


class TestSampleCommand:
    def test_conditioned_nine_points(self, tmp_path):
        out = tmp_path / "pts.csv"
        rc = cli.main(["sample", "--method", "conditioned", "--n", "9",
                       "--radius", "2", "--seed", "7", "-o", str(out)])
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "# seed=7 method=conditioned"
        assert lines[1] == "sample_id,point_id,re,im"
        assert len(lines) == 11
        for line in lines[2:]:
            _, _, re_s, im_s = line.split(",")
            assert math.hypot(float(re_s), float(im_s)) <= 2.0 + 1e-12

    def test_matrix_bit_identical_rerun(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        argv = ["sample", "--method", "matrix", "--n", "1", "--count", "3", "--seed", "1"]
        assert cli.main(argv + ["-o", str(a)]) == 0
        assert cli.main(argv + ["-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert len(a.read_text().strip().splitlines()) == 5  # seed + header + 3 points

    def test_worker_count_does_not_change_bytes(self, tmp_path):
        # each count is at or above its route's fan-out threshold, so two
        # workers split the batch
        from ginibre import pipelines
        for route in (["--method", "projected", "--radius", "1.0", "--count", "150"],
                      ["--method", "conditioned", "--n", "3", "--radius", "1.0",
                       "--count", str(pipelines.SEQUENTIAL_FAN_OUT_MIN)],
                      ["--method", "matrix", "--n", "3",
                       "--count", str(2 * pipelines.MATRIX_CHUNK + 1)]):
            one = tmp_path / "w1.csv"
            two = tmp_path / "w2.csv"
            base = ["sample", *route, "--seed", "5"]
            assert cli.main(base + ["--workers", "1", "-o", str(one)]) == 0
            assert cli.main(base + ["--workers", "2", "-o", str(two)]) == 0
            assert one.read_bytes() == two.read_bytes(), route

    @pytest.mark.parametrize("route", [["--method", "conditioned", "--n", "200", "--radius", "2"],
                                       ["--method", "projected", "--radius", "8"]],
                             ids=["conditioned_n200", "projected_r8"])
    def test_blas_thread_count_does_not_change_bytes(self, tmp_path, route):
        # the sequential routes' BLAS calls (gemm, gemv, rank-1 geru) are
        # large enough at these sizes for OpenBLAS to split them over threads
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"t{threads}.csv"
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads}
            done = run_cli(["sample", *route, "--seed", "3", "-o", str(out)], env=env)
            assert done.returncode == 0, done.stderr
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_projected_low_radius_has_empty_samples(self, tmp_path):
        out = tmp_path / "p.csv"
        rc = cli.main(["sample", "--method", "projected", "--radius", "0.5",
                       "--count", "100", "--seed", "3", "-o", str(out)])
        assert rc == 0
        lines = out.read_text().strip().splitlines()[2:]
        ids = {int(line.split(",")[0]) for line in lines}
        # hole probability ~0.756: most of the 100 samples are empty
        assert 0 < len(ids) < 70

    def test_csv_round_trip_17_digits(self, tmp_path):
        out = tmp_path / "rt.csv"
        cli.main(["sample", "--method", "matrix", "--n", "5", "--seed", "9",
                  "-o", str(out)])
        from ginibre import pipelines
        expected = pipelines.sample_matrix_batch(5, seed=9, count=1)[0].points
        got = {}
        for line in out.read_text().strip().splitlines()[2:]:
            _, pid, re_s, im_s = line.split(",")
            got[int(pid)] = complex(float(re_s), float(im_s))
        for j, z in enumerate(expected):
            assert got[j] == z  # exact, not approximate

    def test_json_round_trip(self, tmp_path):
        out = tmp_path / "s.json"
        cli.main(["sample", "--method", "conditioned", "--n", "4", "--radius", "1.5",
                  "--seed", "2", "--format", "json", "-o", str(out)])
        payload = json.loads(out.read_text())
        assert payload["schema_version"] == 1
        from ginibre import pipelines
        rebuilt = np.array([complex(re, im) for re, im in payload["samples"][0]["points"]])
        direct = pipelines.sample_conditioned_truncated(4, 1.5, seed=2)
        assert np.array_equal(rebuilt, direct.points)

    def test_projected_json_params_are_the_radius(self, tmp_path):
        out = tmp_path / "s.json"
        assert cli.main(["sample", "--method", "projected", "--radius", "0.5", "--count", "3",
                         "--seed", "1", "--format", "json", "-o", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["params"] == {"R": 0.5}
        assert all(s["params"] == {"R": 0.5} for s in payload["samples"])

    def test_usage_errors_exit_2(self):
        assert cli.main(["sample", "--method", "matrix", "--radius", "2",
                         "--n", "3"]) == 2
        assert cli.main(["sample", "--method", "projected", "--n", "3"]) == 2
        assert cli.main(["sample", "--method", "conditioned", "--n", "3"]) == 2
        assert cli.main(["sample", "--method", "matrix", "--n", "3",
                         "--workers", "-2"]) == 2
        assert cli.main(["sample", "--method", "projected", "--radius", "1",
                         "--workers", "0"]) == 2

    @pytest.mark.parametrize("argv", [
        "sample --method conditioned --n 3 --radius inf",
        "sample --method projected --radius nan",
        "sample --method projected --radius inf",
        "sample --method projected --radius 1e200",  # finite, but R^2 overflows
        "sample --method projected --radius 1e150",  # R^2 finite, its table is not
        "sample --method conditioned --n 3 --radius 1 --max-proposals 0",
        "bench --methods conditioned --sizes 0",
        "bench --methods matrix --sizes -2",
        "sample --method matrix --n 3 --seed -1",
        "validate --seed -1",
        "bench --seed -1",
    ])
    def test_bad_values_exit_2_with_one_line(self, argv, capsys):
        assert cli.main(argv.split()) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("ginibre") and captured.err.count("\n") == 1

    def test_proposal_cap_exit_3_with_workers(self, tmp_path):
        rc = cli.main(["sample", "--method", "conditioned", "--n", "20",
                       "--radius", "2", "--count", "64", "--workers", "2",
                       "--max-proposals", "1", "-o", str(tmp_path / "x.csv")])
        assert rc == 3

    def test_eigensolver_failure_exit_3(self, tmp_path, monkeypatch):
        from ginibre import eigen
        real = eigen.zgees
        monkeypatch.setattr(eigen, "zgees", lambda *a, **k: (*real(*a, **k)[:-1], 1))
        rc = cli.main(["sample", "--method", "matrix", "--n", "5", "--count", "2",
                       "--seed", "1", "-o", str(tmp_path / "x.csv")])
        assert rc == 3


class TestIntensityCommand:
    def test_table_properties(self, tmp_path):
        out = tmp_path / "int.csv"
        n = 40
        rc = cli.main(["intensity", "--n", str(n), "--points", "2000", "-o", str(out)])
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "r,rho1N,lower_bound,upper_bound"
        rows = [line.split(",") for line in lines[1:]]
        rs = np.array([float(r[0]) for r in rows])
        rho = np.array([float(r[1]) for r in rows])
        assert rho[0] == pytest.approx(1 / math.pi, rel=1e-12)
        assert rs[-1] == pytest.approx(math.sqrt(n) + 3.0)
        # trapezoid integral of 2 pi r rho ~ N within 0.1%
        total = np.trapezoid(2 * math.pi * rs * rho, rs)
        assert total == pytest.approx(n, rel=1e-3)

    def test_rejects_bad_args(self):
        assert cli.main(["intensity", "--n", "0"]) == 2


class TestValidateCommand:
    def test_quick_suite_passes_and_writes_report(self, tmp_path):
        out = tmp_path / "report.json"
        rc = cli.main(["validate", "--seed", "123", "--scale", "0.02",
                       "--workers", "2", "-o", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["passed"] is True
        assert payload["schema_version"] == 1

    def test_seeded_report_reproducible(self, tmp_path):
        # checks and verdict are deterministic; runtime_seconds is wall clock
        # the second run at one worker: the report must not depend on the split
        payloads = []
        for name, workers in (("r1.json", "2"), ("r2.json", "1")):
            out = tmp_path / name
            rc = cli.main(["validate", "--seed", "9", "--scale", "0.01",
                           "--workers", workers, "-o", str(out)])
            assert rc == 0
            payloads.append(json.loads(out.read_text()))
        assert payloads[0]["checks"] == payloads[1]["checks"]
        assert payloads[0]["passed"] == payloads[1]["passed"]

    @pytest.mark.parametrize("flag, value", [
        ("--scale", "nan"), ("--scale", "inf"), ("--scale", "-1"), ("--scale", "0"),
        ("--workers", "0"),
    ])
    def test_bad_scale_or_workers_exit_2(self, flag, value):
        assert cli.main(["validate", flag, value]) == 2

    def test_fault_injection_fails_kostlan(self, tmp_path):
        out = tmp_path / "bad.json"
        rc = cli.main(["validate", "--seed", "123", "--scale", "0.02",
                       "--workers", "2", "--inject-fault", "-o", str(out)])
        assert rc == 1
        payload = json.loads(out.read_text())
        failed = {c["name"] for c in payload["checks"] if not c["passed"]}
        assert any("kostlan" in name for name in failed)


class TestBenchCommand:
    def test_grid_shape_and_rates(self, tmp_path):
        out = tmp_path / "bench.csv"
        rc = cli.main(["bench", "--methods", "matrix,conditioned,projected",
                       "--sizes", "3,6", "--count", "4", "--seed", "1",
                       "-o", str(out)])
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "# seed=1"
        assert lines[1] == "method,size,wall_mean_s,wall_std_s,acceptance_rate"
        assert len(lines) == 2 + 3 * 2
        for line in lines[2:]:
            method, _, mean_s, _, rate_s = line.split(",")
            assert float(mean_s) >= 0.0
            if method in ("conditioned", "projected") and rate_s:
                assert 0.0 < float(rate_s) <= 1.0

    def test_rejects_unknown_method(self):
        assert cli.main(["bench", "--methods", "warp", "--sizes", "2"]) == 2


class TestSubprocessEntry:
    def test_module_invocation(self):
        proc = run_cli(["sample", "--method", "matrix", "--n", "2", "--seed", "4"])
        assert proc.returncode == 0
        assert proc.stdout.startswith("# seed=4 method=matrix\nsample_id,point_id,re,im")

    def test_argparse_usage_exit(self):
        proc = run_cli(["sample"])  # missing --method
        assert proc.returncode == 2
