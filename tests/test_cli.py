"""CLI commands, artifact files, exit codes, and full-pipeline determinism."""

import json
import math
from pathlib import Path

import pytest
from scipy import stats as sps

from qevt.cli import (
    EXIT_CONFIG,
    EXIT_DEGENERATE,
    EXIT_LOCKED,
    EXIT_OK,
    EXIT_UNREACHABLE,
    main,
)
from qevt.pipeline import ExperimentConfig, SyntheticSpec, run_estimate, run_sample_size
from qevt.sample_size import SampleSizeConfig


def fast_config(out_seed=0, **overrides):
    """Small but non-degenerate estimate configuration for tests."""
    params = {
        "synthetic": SyntheticSpec(n=10, k=8, seed=4),
        "qaoa_restarts": 3,
        "qaoa_maxiter": 60,
        "shots_grid": (100, 300),
        "runs": 60,
        "alphas": (0.90, 0.95),
        "seed": out_seed,
        "sa": {"sweeps": 300, "restarts": 5},
    }
    params.update(overrides)
    return ExperimentConfig(**params)


@pytest.fixture(scope="module")
def estimate_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("est")
    cfg = fast_config()
    report = run_estimate(cfg, out)
    return out, cfg, report


class TestGenerateCommand:
    def test_writes_instance_and_prints_optimum(self, tmp_path, capsys):
        target = tmp_path / "inst.json"
        code = main(["generate", "--n", "10", "--k", "8", "--seed", "1", "-o", str(target)])
        assert code == EXIT_OK
        assert target.exists()
        out = capsys.readouterr().out
        assert "brute-force optimum" in out
        payload = json.loads(target.read_text())
        assert payload["n"] == 10 and payload["k"] == 8

    def test_same_seed_same_bytes(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["generate", "--n", "8", "--seed", "3", "-o", str(a)])
        main(["generate", "--n", "8", "--seed", "3", "-o", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_invalid_n_rejected(self, tmp_path):
        code = main(["generate", "--n", "0", "-o", str(tmp_path / "x.json")])
        assert code == EXIT_CONFIG


class TestSolveSaCommand:
    def test_writes_baseline_json(self, tmp_path):
        code = main([
            "solve-sa", "--n", "8", "--instance-seed", "2", "--seed", "5",
            "--sweeps", "200", "--out-dir", str(tmp_path),
        ])
        assert code == EXIT_OK
        payload = json.loads((tmp_path / "baseline.json").read_text())
        assert set(payload) >= {"x", "energy", "config"}
        assert len(payload["x"]) == 8


class TestEstimatePipeline:
    def test_report_structure(self, estimate_dir):
        out, cfg, report = estimate_dir
        assert report["status"] == "ok"
        assert (out / "report.json").exists()
        assert (out / "instance.json").exists()
        assert (out / "qaoa_params.json").exists()
        for entry in report["per_shots"]:
            assert (out / entry["extremes_csv"]).exists()
            svg = (out / entry["svg"]).read_text()
            route = entry["estimates"][0]["route"]
            title = f"(hits {entry['hits']}/{cfg.runs} at the baseline, answer via {route})"
            assert title in svg
            for est in entry["estimates"]:
                assert 0.0 <= est["success_prob"] <= 1.0

    def test_alpha_monotonicity(self, estimate_dir):
        _, _, report = estimate_dir
        for entry in report["per_shots"]:
            by_alpha = {est["alpha"]: est["n_evt"] for est in entry["estimates"]}
            assert by_alpha[0.90] <= by_alpha[0.95]

    def test_extremes_csv_has_contract_columns(self, estimate_dir):
        out, _, report = estimate_dir
        header = (out / report["per_shots"][0]["extremes_csv"]).read_text().splitlines()[0]
        assert header == "run_index,seed,min_energy,shots_s"

    def test_provenance_recorded(self, estimate_dir):
        _, cfg, report = estimate_dir
        prov = report["provenance"]
        assert prov["master_seed"] == cfg.seed
        assert prov["config_hash"] == cfg.config_hash()
        assert "sa" in prov["seeds"]

    def test_byte_identical_across_directories(self, tmp_path):
        cfg = fast_config(shots_grid=(100,), runs=40)
        dir_a, dir_b = tmp_path / "a", tmp_path / "b"
        run_estimate(cfg, dir_a)
        run_estimate(cfg, dir_b)
        files_a = sorted(p.name for p in dir_a.iterdir())
        assert files_a == sorted(p.name for p in dir_b.iterdir())
        for name in files_a:
            assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes(), name

    def test_degenerate_instance_exit_code(self, tmp_path, capsys):
        # tiny instance: every run finds the optimum, extremes collapse
        code = main([
            "estimate", "--n", "6", "--k", "5", "--instance-seed", "1",
            "--shots", "500", "--runs", "40", "--seed", "2",
            "--out-dir", str(tmp_path),
        ])
        assert code == EXIT_DEGENERATE
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["status"] == "degenerate"
        assert report["per_shots"][0]["breakdown"] == "degenerate_samples"

    def test_unreachable_target_exit_code(self, tmp_path):
        code = main([
            "estimate", "--n", "10", "--k", "8", "--instance-seed", "4",
            "--shots", "200", "--runs", "60", "--seed", "3",
            "--y-ideal", "-99.0",
            "--out-dir", str(tmp_path),
        ])
        assert code == EXIT_UNREACHABLE
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["status"] == "unreachable"
        est = report["per_shots"][0]["estimates"][0]
        assert est["n_evt"] == "inf" and est["total_shots"] == "inf"
        assert est["success_prob"] == 0.0


class TestValidateCommand:
    def test_requires_report(self, tmp_path):
        code = main(["validate", "--shots", "100", "--out-dir", str(tmp_path)])
        assert code == EXIT_CONFIG

    def test_curve_and_artifacts(self, estimate_dir):
        out, cfg, report = estimate_dir
        code = main([
            "validate", "--shots", "100", "--alpha", "0.95",
            "--delta-min", "-1", "--delta-max", "1", "--trials", "60",
            "--seed", str(cfg.seed), "--out-dir", str(out),
        ])
        assert code == EXIT_OK
        payload = json.loads((out / "validate_s100_a95.json").read_text())
        assert all(0.0 <= point["ratio"] <= 1.0 for point in payload["curve"])
        assert (out / "validate_s100_a95.csv").exists()
        assert (out / "validate_s100_a95.svg").exists()

    def test_rejects_zero_trials(self, estimate_dir):
        out, cfg, _ = estimate_dir
        code = main([
            "validate", "--shots", "100", "--trials", "0",
            "--seed", str(cfg.seed), "--out-dir", str(out),
        ])
        assert code == EXIT_CONFIG


class TestShotSweepCommand:
    def test_single_point_grid_flagged_high_variance(self, estimate_dir, capsys):
        out, cfg, _ = estimate_dir
        code = main([
            "shot-sweep", "--shots", "150", "--reps", "1",
            "--seed", str(cfg.seed), "--out-dir", str(out),
        ])
        assert code == EXIT_OK
        payload = json.loads((out / "sweep.json").read_text())
        assert payload["high_variance"] is True
        assert len(payload["points"]) == 1
        assert "high-variance" in capsys.readouterr().out

    def test_reuses_persisted_artifacts(self, estimate_dir):
        out, cfg, report = estimate_dir
        code = main([
            "shot-sweep", "--shots", "100", "200", "--reps", "5",
            "--seed", str(cfg.seed), "--out-dir", str(out),
        ])
        assert code == EXIT_OK
        payload = json.loads((out / "sweep.json").read_text())
        # baseline reused from the estimate stage, not recomputed
        assert payload["y_ideal"] == report["y_ideal"]


class TestSampleSizeCommand:
    @pytest.fixture()
    def pool_csv(self, tmp_path):
        rng = sps.genextreme.rvs(c=-0.1, loc=0, scale=1, size=400, random_state=3)
        path = tmp_path / "pool.csv"
        lines = ["run_index,seed,min_energy,shots_s"]
        lines += [f"{i},0,{float(-v)!r},100" for i, v in enumerate(rng)]
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_pool_csv_end_to_end(self, tmp_path, pool_csv):
        code = main([
            "sample-size", "--pool", str(pool_csv), "--n", "10",
            "--n-min", "20", "--n-max", "80", "--stride", "30",
            "--inner-draws", "8", "--outer-reps", "2",
            "--seed", "1", "--out-dir", str(tmp_path),
        ])
        assert code == EXIT_OK
        payload = json.loads((tmp_path / "sample_size.json").read_text())
        result = payload["result"]
        assert result["n_estimate"] == max(result["n_ht2"], result["n_mst"])
        assert 20 <= result["n_estimate"] <= 80
        assert (tmp_path / "sample_size.svg").exists()
        assert (tmp_path / "sample_size.csv").exists()

    def test_pool_smaller_than_n_max_rejected(self, tmp_path, pool_csv, capsys):
        code = main([
            "sample-size", "--pool", str(pool_csv), "--n", "10",
            "--n-min", "20", "--n-max", "500",
            "--seed", "1", "--out-dir", str(tmp_path),
        ])
        assert code == EXIT_CONFIG
        assert "pool" in capsys.readouterr().err

    def test_deterministic_json(self, tmp_path, pool_csv):
        args = [
            "sample-size", "--pool", str(pool_csv), "--n", "10",
            "--n-min", "20", "--n-max", "60", "--stride", "20",
            "--inner-draws", "8", "--outer-reps", "2", "--seed", "9",
        ]
        main(args + ["--out-dir", str(tmp_path / "a")])
        main(args + ["--out-dir", str(tmp_path / "b")])
        assert (tmp_path / "a/sample_size.json").read_bytes() == (
            tmp_path / "b/sample_size.json"
        ).read_bytes()


class TestLockfile:
    def test_locked_directory_rejected(self, tmp_path):
        tmp_path.joinpath(".qevt.lock").write_text("pid=1\n")
        code = main([
            "solve-sa", "--n", "6", "--seed", "0", "--out-dir", str(tmp_path),
        ])
        assert code == EXIT_LOCKED

    def test_lock_released_after_run(self, tmp_path):
        code = main(["solve-sa", "--n", "6", "--seed", "0", "--sweeps", "50",
                     "--out-dir", str(tmp_path)])
        assert code == EXIT_OK
        assert not (tmp_path / ".qevt.lock").exists()


class TestConfigFile:
    def test_config_file_round_trip(self, tmp_path):
        cfg = fast_config()
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg.to_dict()))
        loaded = ExperimentConfig.from_dict(json.loads(path.read_text()))
        assert loaded == cfg
        assert loaded.config_hash() == cfg.config_hash()

    def test_unknown_fields_rejected(self):
        with pytest.raises(Exception):
            ExperimentConfig.from_dict({"bogus": 1, "synthetic": {"n": 5}})

    def test_requires_exactly_one_instance_source(self):
        with pytest.raises(Exception):
            ExperimentConfig(instance_path="x.json", synthetic=SyntheticSpec(n=5))
        with pytest.raises(Exception):
            ExperimentConfig()

    def test_flag_overrides_config_file(self, tmp_path, capsys):
        cfg = fast_config(shots_grid=(100,), runs=30)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg.to_dict()))
        code = main([
            "estimate", "--config", str(path), "--runs", "25",
            "--out-dir", str(tmp_path / "out"),
        ])
        assert code == EXIT_OK
        report = json.loads((tmp_path / "out/report.json").read_text())
        assert report["runs"] == 25
