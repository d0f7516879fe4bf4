"""CLI commands, artifact files, exit codes, and full-pipeline determinism."""

import argparse
import csv
import io
import json
import math
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from scipy import stats as sps

import qevt.pipeline
import qevt.qaoa
from qevt.annealing import SaConfig
from qevt.cli import (
    EXIT_CONFIG,
    EXIT_DEGENERATE,
    EXIT_LOCKED,
    EXIT_OK,
    EXIT_UNREACHABLE,
    build_parser,
    main,
)
from qevt.errors import ConfigError
from qevt.pipeline import (
    ExperimentConfig,
    SyntheticSpec,
    answer_minima,
    ensure_stage_artifacts,
    meets_baseline,
    resolve_instance,
    run_estimate,
    run_sample_size,
    run_validate,
)
from qevt.qaoa import QaoaParams, circuit_law, circuit_state
from qevt.qubo import energy_table, load_instance, to_ising
from qevt.sample_size import SampleSizeConfig
from qevt.seeding import derive_seed
from qevt.utils import jsonable


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

    def test_instance_flag_without_n_sets_the_config_files_instance(self, tmp_path):
        # --k names a field of the file's synthetic block; the file keeps n and seed
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"synthetic": {"n": 6, "seed": 1}}))
        code = main(["solve-sa", "--config", str(path), "--k", "2", "--sweeps", "50",
                     "--out-dir", str(tmp_path / "out")])
        assert code == EXIT_OK
        desc = json.loads((tmp_path / "out/baseline.json").read_text())["instance"]
        assert desc == {"source": "synthetic", "n": 6, "k": 2, "seed": 1}

    def test_directory_of_another_instance_refused(self, tmp_path, capsys):
        # the baseline beside an instance.json belongs to that instance, so
        # solve-sa does not overwrite it with another instance's
        assert main(["estimate", "--n", "6", "--instance-seed", "1", "--shots", "2",
                     "--runs", "30", "--seed", "1", "--out-dir", str(tmp_path)]) == EXIT_OK
        before = (tmp_path / "baseline.json").read_bytes()
        code = main(["solve-sa", "--n", "6", "--instance-seed", "2", "--seed", "1",
                     "--out-dir", str(tmp_path)])
        assert code == EXIT_CONFIG
        assert "instance.json" in capsys.readouterr().err
        assert (tmp_path / "baseline.json").read_bytes() == before

    @pytest.mark.parametrize("config, extra", [
        ({"instance_path": "inst.json"}, ["--k", "2"]),  # --k drops the file's instance
        ({"synthetic": {"seed": 1}}, []),
    ])
    def test_synthetic_instance_without_n_is_a_config_error(
        self, tmp_path, capsys, config, extra
    ):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        code = main(["solve-sa", "--config", str(path), "--out-dir", str(tmp_path / "out"),
                     *extra])
        assert code == EXIT_CONFIG
        assert "a synthetic instance needs its size n" in capsys.readouterr().err


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

    def test_report_entries_are_the_answer_to_the_recorded_minima(self, estimate_dir):
        # the report's per-shots entries are answer_minima run on the minima
        # that extremes_s*.csv records, with the jitter seeds of fit_s*.json
        out, cfg, _ = estimate_dir
        report = json.loads((out / "report.json").read_text())
        draws = []
        for s in cfg.shots_grid:
            with open(out / f"extremes_s{s}.csv", newline="") as fh:
                minima = np.array([float(row["min_energy"]) for row in csv.DictReader(fh)])
            draws.append((s, minima, json.loads((out / f"fit_s{s}.json").read_text())["seed"]))
        entries = answer_minima(draws, report["y_ideal"], cfg.alphas)
        # the circuit law's exact fields are run_estimate's, not the answer's
        recorded = [
            {k: v for k, v in entry.items() if k not in ("extremes_csv", "svg", "p_run_exact")}
            for entry in report["per_shots"]
        ]
        for entry in recorded:
            entry["estimates"] = [{k: v for k, v in est.items() if k != "n_exact"}
                                  for est in entry["estimates"]]
        assert recorded == jsonable(entries)

    def test_exact_fields_next_to_every_answer(self, estimate_dir):
        out, cfg, report = estimate_dir
        inst = load_instance(out / "instance.json")
        law = circuit_law(inst, QaoaParams.from_dict(report["qaoa_params"]),
                          cfg.readout_flip_prob, cfg.initial_state)
        y_ideal = report["y_ideal"]
        assert report["log_miss_per_shot"] == law.log_miss(y_ideal)
        assert report["initial_state"] == cfg.initial_state
        for entry in report["per_shots"]:
            assert entry["p_run_exact"] == law.p_run(y_ideal, entry["shots_s"])
            for est in entry["estimates"]:
                assert est["n_exact"] == law.n_exact(y_ideal, entry["shots_s"], est["alpha"])

    def test_answer_minima_writes_no_file(self, tmp_path, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError(f"answer_minima opened {args[0]!r}")

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr("builtins.open", forbidden)
        monkeypatch.setattr(io, "open", forbidden)
        draws = [(20, -(np.arange(40.0) % 7), 1), (50, np.full(40, -3.0), 2)]
        entries = answer_minima(draws, -6.0, (0.9, 0.95))
        assert [sorted(entry) for entry in entries] == [
            ["estimates", "gev", "hits", "shots_s"], ["breakdown", "detail", "hits", "shots_s"],
        ]
        assert list(tmp_path.iterdir()) == []

    def test_a_batch_answers_like_lone_calls(self, monkeypatch):
        # one batched fit gives each draw the entry a call on that draw alone
        # gives, in draw order: the fit lanes give every lane the doubles of
        # a lone fit
        batch_sizes = []
        fit_batch = qevt.pipeline.fit_gev_minima_batch

        def counted(samples_list):
            batch_sizes.append(len(samples_list))
            return fit_batch(samples_list)

        monkeypatch.setattr(qevt.pipeline, "fit_gev_minima_batch", counted)
        # fittable with hits, all equal, fittable without hits (and of another size)
        draws = [(20, -(np.arange(40.0) % 7), 1), (50, np.full(40, -3.0), 2),
                 (100, -(np.arange(60.0) % 5), 3)]
        batched = answer_minima(draws, -6.0, (0.9, 0.95))
        lone = [answer_minima([draw], -6.0, (0.9, 0.95))[0] for draw in draws]
        assert jsonable(batched) == jsonable(lone)
        assert [entry["shots_s"] for entry in batched] == [20, 50, 100]
        assert [est["route"] for est in batched[0]["estimates"] + batched[2]["estimates"]] == [
            "hit_rate", "hit_rate", "gev", "gev",
        ]
        assert "breakdown" in batched[1]
        # one fit call per answer_minima call, the all-equal draw's with no sample
        assert batch_sizes == [2, 1, 0, 1]

    def test_repeated_shots_setting_is_a_config_error(self, tmp_path, capsys):
        # one extremes_s100.csv cannot hold two settings' runs
        code = main(["estimate", "--n", "6", "--shots", "100", "100", "--runs", "30",
                     "--out-dir", str(tmp_path)])
        assert code == EXIT_CONFIG
        assert "shots_grid repeats a setting: [100, 100]" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_byte_identical_across_directories(self, tmp_path):
        cfg = fast_config(shots_grid=(100,), runs=40)
        dir_a, dir_b = tmp_path / "a", tmp_path / "b"
        run_estimate(cfg, dir_a)
        run_estimate(cfg, dir_b)
        files_a = sorted(p.name for p in dir_a.iterdir())
        assert files_a == sorted(p.name for p in dir_b.iterdir())
        for name in files_a:
            assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes(), name

    def test_one_circuit_and_table_per_estimate(self, tmp_path, monkeypatch):
        # every shots setting samples the same state; building it (and the
        # energy table) once per setting was most of an n=18 estimate's time
        cfg = fast_config(shots_grid=(50, 100, 200), runs=30)
        ensure_stage_artifacts(cfg, tmp_path)
        calls = {"circuit_state": 0, "energy_table": 0}
        for name in calls:
            original = getattr(qevt.qaoa, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(qevt.qaoa, name, counted)
        run_estimate(cfg, tmp_path)
        assert calls == {"circuit_state": 1, "energy_table": 1}

    def test_one_law_per_estimate(self, tmp_path, monkeypatch):
        # every shots setting draws its run minima from one law, built once
        # on the table the circuit's phases come from, the one the angles
        # were tuned on
        cfg = fast_config(shots_grid=(50, 100), runs=30)
        ensure_stage_artifacts(cfg, tmp_path)
        circuits, laws = [], []

        def circuit(*args, _original=qevt.qaoa.circuit_state, **kwargs):
            circuits.append(kwargs["energies"])
            return _original(*args, **kwargs)

        def law(probs, table, _original=qevt.qaoa.RunMinimumLaw.from_distribution):
            laws.append(table)
            return _original(probs, table)

        monkeypatch.setattr(qevt.qaoa, "circuit_state", circuit)
        monkeypatch.setattr(qevt.qaoa.RunMinimumLaw, "from_distribution", staticmethod(law))
        run_estimate(cfg, tmp_path)
        (circuit_table,), (law_table,) = circuits, laws
        assert law_table is circuit_table

    def test_cold_estimate_builds_the_instance_once(self, tmp_path, monkeypatch):
        # SA, the angle optimizer and the sampler all run on the one
        # instance the resolver built
        calls = []
        original = qevt.pipeline.generate_synthetic_q

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(qevt.pipeline, "generate_synthetic_q", counted)
        run_estimate(fast_config(shots_grid=(100,), runs=30), tmp_path)
        assert len(calls) == 1

    def test_stale_stage_refused(self, tmp_path, capsys):
        # a directory staged for one instance is not reused for another:
        # its baseline and angles belong to the instance it holds
        args = ["estimate", "--n", "6", "--shots", "20", "--runs", "30", "--seed", "1",
                "--out-dir", str(tmp_path)]
        main(args + ["--instance-seed", "1"])
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        assert "report.json" in before
        assert main(args + ["--instance-seed", "2"]) == EXIT_CONFIG
        assert "instance.json" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_baseline_of_another_instance_refused(self, tmp_path, capsys):
        # solve-sa writes baseline.json alone; a later estimate of another
        # instance must not take it as its own baseline
        assert main(["solve-sa", "--n", "6", "--instance-seed", "1", "--seed", "1",
                     "--out-dir", str(tmp_path)]) == EXIT_OK
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        args = ["estimate", "--n", "6", "--shots", "2", "--runs", "30", "--seed", "1",
                "--out-dir", str(tmp_path)]
        assert main(args + ["--instance-seed", "2"]) == EXIT_CONFIG
        assert "baseline.json" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
        # the instance it was annealed on still reuses it
        assert main(args + ["--instance-seed", "1"]) == EXIT_OK
        baseline = json.loads(before["baseline.json"])
        assert json.loads((tmp_path / "report.json").read_text())["y_ideal"] == baseline["energy"]

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

    def test_equal_minima_above_an_unreachable_baseline_are_degenerate(self, tmp_path):
        # the documented order: the degenerate check comes before the answer,
        # so minima that are all the ground energy give "degenerate" (exit 3)
        # even when the baseline lies below every level and no run can meet it
        ground = float(energy_table(SyntheticSpec(n=6, k=5, seed=1).build()).min())
        code = main([
            "estimate", "--n", "6", "--k", "5", "--instance-seed", "1",
            "--shots", "500", "--runs", "40", "--seed", "2", "--y-ideal", repr(ground - 1.0),
            "--out-dir", str(tmp_path),
        ])
        assert code == EXIT_DEGENERATE
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["status"] == "degenerate"
        assert report["per_shots"][0]["p_run_exact"] == 0.0
        assert report["per_shots"][0]["breakdown"] == "degenerate_samples"

    def test_bad_noise_rejected_before_any_work(self, tmp_path, capsys):
        # the flip probability is checked with the config, before SA and the
        # angle optimizer run, so nothing is written
        code = main([
            "estimate", "--n", "6", "--instance-seed", "1", "--shots", "20",
            "--runs", "30", "--noise", "0.7", "--seed", "1", "--out-dir", str(tmp_path),
        ])
        assert code == EXIT_CONFIG
        assert list(tmp_path.iterdir()) == []
        assert "readout_flip_prob" in capsys.readouterr().err

    @pytest.mark.parametrize("sa, message", [
        ({"sweeps": 0}, "sweeps must be a positive integer"),
        ({"cooling_rate": 1.0}, "cooling_rate must be a number in (0, 1)"),
        ({"initial_temperature": 0}, "initial_temperature must be a positive number"),
    ])
    def test_bad_sa_value_rejected_before_any_work(self, tmp_path, capsys, sa, message):
        # SaConfig's own rules, applied with the config: nothing is written
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"synthetic": {"n": 6}, "sa": sa}))
        out = tmp_path / "out"
        out.mkdir()
        code = main(["estimate", "--config", str(path), "--shots", "20", "--runs", "30",
                     "--out-dir", str(out)])
        assert code == EXIT_CONFIG
        assert list(out.iterdir()) == []
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("field, value, message", [
        ("qaoa_restarts", 0, "restarts must be a positive integer"),
        ("qaoa_maxiter", 0, "maxiter must be a positive integer"),
        ("qaoa_depth", 0, "depth must be a positive integer"),
        ("initial_state", "zero", "initial_state must be one of"),
    ])
    def test_bad_optimizer_value_rejected_before_any_work(
        self, tmp_path, capsys, field, value, message
    ):
        # the optimizer's rules are applied with the config, before SA runs
        # and before instance.json or baseline.json is written
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"synthetic": {"n": 6}, field: value}))
        out = tmp_path / "out"
        out.mkdir()
        code = main(["estimate", "--config", str(path), "--shots", "20", "--runs", "30",
                     "--out-dir", str(out)])
        assert code == EXIT_CONFIG
        assert list(out.iterdir()) == []
        assert message in capsys.readouterr().err

    def test_oversize_instance_refused_before_any_write(self, tmp_path, capsys):
        # the circuit cannot take n=26, so neither SA nor a stage file is spent on it
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"synthetic": {"n": 26}, "sa": {"sweeps": 5, "restarts": 1}}))
        out = tmp_path / "out"
        code = main(["estimate", "--config", str(path), "--shots", "20", "--runs", "30",
                     "--out-dir", str(out)])
        assert code == EXIT_CONFIG
        assert not (out / "instance.json").exists()
        assert not (out / "baseline.json").exists()
        assert "n=26 exceeds the statevector limit of 24" in capsys.readouterr().err

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

    def test_samples_under_the_noise_of_the_estimate(self, tmp_path):
        # validate has no --noise flag, so its config carries no readout noise;
        # the draws must still follow the noise the report was estimated under
        assert main([
            "estimate", "--n", "8", "--instance-seed", "1", "--shots", "20", "--runs", "60",
            "--noise", "0.3", "--seed", "3", "--out-dir", str(tmp_path),
        ]) == EXIT_OK
        assert main([
            "validate", "--shots", "20", "--trials", "100", "--seed", "3",
            "--out-dir", str(tmp_path),
        ]) == EXIT_OK
        from_cli = json.loads((tmp_path / "validate_s20_a95.json").read_text())
        cfg = ExperimentConfig(
            instance_path=str(tmp_path / "instance.json"), readout_flip_prob=0.3, seed=3
        )
        direct = run_validate(cfg, tmp_path, shots_s=20, alpha=0.95, trials=100)
        # the provenance names the config sampled under, so the hashes agree too
        assert from_cli == json.loads(json.dumps(direct))
        assert min(point["ratio"] for point in from_cli["curve"]) < 1.0

    def test_report_without_instance_json(self, estimate_dir, tmp_path):
        # validate reads the report alone, so no instance source is needed
        out, cfg, _ = estimate_dir
        (tmp_path / "report.json").write_bytes((out / "report.json").read_bytes())
        code = main(["validate", "--shots", "100", "--trials", "50", "--seed", str(cfg.seed),
                     "--out-dir", str(tmp_path)])
        assert code == EXIT_OK
        assert (tmp_path / "validate_s100_a95.json").exists()
        assert not (tmp_path / "instance.json").exists()

    def test_point_does_not_move_with_the_range(self, estimate_dir):
        # each offset draws on the seed of its own delta, so rerunning a
        # narrower range redraws the same numbers at the offsets it shares
        out, cfg, _ = estimate_dir
        curves = [
            {p["delta"]: p for p in run_validate(cfg, out, shots_s=100, alpha=0.90,
                                                 delta_range=span, trials=400)["curve"]}
            for span in ((-1, 1), (-3, 3))
        ]
        assert curves[0][0]["ratio"] == curves[1][0]["ratio"]
        assert 0.0 < curves[0][0]["ratio"] < 1.0

    def test_exact_curve_next_to_the_ratios(self, estimate_dir):
        out, cfg, report = estimate_dir
        payload = run_validate(cfg, out, shots_s=100, alpha=0.95, trials=400)
        inst = load_instance(out / "instance.json")
        state = circuit_state(to_ising(inst), QaoaParams.from_dict(report["qaoa_params"]))
        p_shot = float((np.abs(state) ** 2)[meets_baseline(energy_table(inst), report["y_ideal"])].sum())
        assert payload["p_run_exact"] == pytest.approx(1.0 - (1.0 - p_shot) ** 100, rel=1e-9)
        for point in payload["curve"]:
            exact = point["exact_ratio"]
            assert exact == pytest.approx(1.0 - (1.0 - payload["p_run_exact"]) ** point["runs"],
                                          rel=1e-9)
            assert abs(point["ratio"] - exact) <= 5.0 * math.sqrt(exact * (1.0 - exact) / 400)
        header = (out / "validate_s100_a95.csv").read_text().splitlines()[0]
        assert header == "delta,runs,ratio,exact_ratio"
        assert "exact ratio" in (out / "validate_s100_a95.svg").read_text()

    def test_validation_builds_no_law_and_no_circuit(self, estimate_dir, monkeypatch):
        # every offset draws run hits from the miss probability the report
        # records; rebuilding the circuit and its law was the O(n 2^n) part
        out, cfg, report = estimate_dir
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            raise AssertionError("validate rebuilt the circuit or its law")

        monkeypatch.setattr(qevt.qaoa.RunMinimumLaw, "from_distribution", staticmethod(counted))
        monkeypatch.setattr(qevt.qaoa, "circuit_state", counted)
        payload = run_validate(cfg, out, shots_s=100, alpha=0.95, delta_range=(-3, 3), trials=20)
        entry = next(e for e in report["per_shots"] if e["shots_s"] == 100)
        n_evt = next(est["n_evt"] for est in entry["estimates"] if est["alpha"] == 0.95)
        # an offset that leaves no run is skipped
        assert len(payload["curve"]) == sum(n_evt + delta >= 1 for delta in range(-3, 4))
        assert calls == []

    def test_checks_the_estimates_circuit_not_its_own_configs(self, tmp_path):
        # the estimate ran from |+>^n; validate without --config defaults to
        # |->^n, yet must check the circuit the report was estimated on
        path = tmp_path / "config.json"
        path.write_text(json.dumps({
            "synthetic": {"n": 8, "seed": 1}, "initial_state": "plus", "qaoa_restarts": 1,
            "qaoa_maxiter": 40, "sa": {"sweeps": 50, "restarts": 1},
        }))
        out = tmp_path / "out"
        assert main(["estimate", "--config", str(path), "--shots", "20", "--runs", "40",
                     "--out-dir", str(out)]) == EXIT_OK
        assert main(["validate", "--out-dir", str(out), "--shots", "20",
                     "--trials", "200"]) == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        payload = json.loads((out / "validate_s20_a95.json").read_text())
        law = circuit_law(load_instance(out / "instance.json"),
                          QaoaParams.from_dict(report["qaoa_params"]), 0.0, "plus")
        assert payload["p_run_exact"] == law.p_run(report["y_ideal"], 20)
        sampled = ExperimentConfig(instance_path=str(out / "instance.json"), initial_state="plus")
        assert payload["provenance"]["config_hash"] == sampled.config_hash()

    def test_report_without_the_miss_probability_refused(self, estimate_dir, tmp_path, capsys):
        # a report written before the estimate recorded log_miss_per_shot
        out, cfg, _ = estimate_dir
        report = json.loads((out / "report.json").read_text())
        del report["log_miss_per_shot"]
        (tmp_path / "report.json").write_text(json.dumps(report))
        (tmp_path / "instance.json").write_bytes((out / "instance.json").read_bytes())
        code = main(["validate", "--shots", "100", "--out-dir", str(tmp_path)])
        assert code == EXIT_CONFIG
        assert "log_miss_per_shot" in capsys.readouterr().err
        assert list(tmp_path.glob("validate_*")) == []

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
        # the provenance hashes the config with the grid that was swept
        swept = ExperimentConfig(instance_path=str(out / "instance.json"),
                                 shots_grid=(100, 200), seed=cfg.seed)
        assert payload["provenance"]["config_hash"] == swept.config_hash()

    def test_zero_shots_is_a_config_error(self, tmp_path, capsys):
        code = main(["shot-sweep", "--n", "6", "--shots", "0", "--out-dir", str(tmp_path)])
        assert code == EXIT_CONFIG
        assert "shots_grid must be non-empty positive integers" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


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

    def test_pool_needs_no_instance_source(self, tmp_path, pool_csv):
        out = tmp_path / "out"
        code = main([
            "sample-size", "--pool", str(pool_csv), "--n-max", "40", "--stride", "20",
            "--inner-draws", "8", "--outer-reps", "1", "--out-dir", str(out),
        ])
        assert code == EXIT_OK
        assert (out / "sample_size.json").exists()
        assert not (out / "instance.json").exists()

    def test_pool_smaller_than_n_max_rejected(self, tmp_path, pool_csv, capsys):
        code = main([
            "sample-size", "--pool", str(pool_csv), "--n", "10",
            "--n-min", "20", "--n-max", "500",
            "--seed", "1", "--out-dir", str(tmp_path),
        ])
        assert code == EXIT_CONFIG
        assert "pool" in capsys.readouterr().err

    @pytest.mark.parametrize("extra", [[], ["--stride", "5"], ["--config"]])
    def test_bootstrap_seed_does_not_depend_on_the_block_source(
        self, tmp_path, pool_csv, monkeypatch, extra
    ):
        # no flag, a flag at its default value, or a config-file block
        # without a seed: all draw on the master seed's "sample-size" stream
        class Stop(Exception):
            pass

        seen = []

        def recorded(pool, ss_cfg, theta_sim):
            seen.append(ss_cfg)
            raise Stop

        monkeypatch.setattr(qevt.pipeline, "estimate_required_extremes", recorded)
        if extra == ["--config"]:
            path = tmp_path / "config.json"
            path.write_text(json.dumps({"synthetic": {"n": 10}, "sample_size": {"stride": 5}}))
            extra = ["--config", str(path)]
        with pytest.raises(Stop):
            main(["sample-size", "--pool", str(pool_csv), "--n", "10", "--seed", "3",
                  "--out-dir", str(tmp_path / "out"), *extra])
        assert seen == [SampleSizeConfig(seed=derive_seed(3, "sample-size"))]

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


# flags that are arguments of their command rather than config overrides
COMMAND_ARGUMENTS = {
    "help", "command", "config", "out_dir", "output",
    "n", "k", "magnitude", "signal_to_noise",  # generate's instance
    "shots", "alpha", "n_evt", "delta_min", "delta_max", "trials", "reps", "pool",
}


def test_every_flag_names_a_config_field_or_a_command_argument():
    # _load_config applies a flag by its dest; a dest that names no field
    # and is not a command argument would be dropped without a word
    nested = {"sample_size": SampleSizeConfig, "sa": SaConfig, "synthetic": SyntheticSpec}
    allowed = {f.name for f in fields(ExperimentConfig)} | COMMAND_ARGUMENTS
    allowed |= {f"{block}.{f.name}" for block, cls in nested.items() for f in fields(cls)}
    (commands,) = [a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction)]
    for name, parser in commands.choices.items():
        for action in parser._actions:
            assert action.dest in allowed, (name, action.dest)


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

    @pytest.mark.parametrize("block", ["synthetic", "sample_size", "sa"])
    def test_unknown_nested_field_is_a_config_error(self, tmp_path, capsys, block):
        # e.g. a config written before the generator's "style" key was removed
        payload = {"synthetic": {"n": 6}, "seed": 1}
        payload.setdefault(block, {})["style"] = "perf-delta"
        path = tmp_path / "config.json"
        path.write_text(json.dumps(payload))
        code = main(["solve-sa", "--config", str(path), "--out-dir", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        assert f"unknown {block} fields: ['style']" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value", [
        ("runs", "5"),
        ("runs", 5.0),
        ("runs", True),
        ("shots_grid", ["20"]),
        ("shots_grid", [20.5]),
        ("shots_grid", [True]),
        ("shots_grid", 20),
        ("alphas", ["0.9"]),
        ("alphas", [True]),
        ("alphas", 0.9),
        ("readout_flip_prob", "0.1"),
        ("readout_flip_prob", False),
        ("qaoa_restarts", 2.0),
        ("seed", "1"),
        ("y_ideal_override", True),
        ("sa", {"sweeps": "10"}),
        ("sa", {"cooling_rate": True}),
        ("sa", 5),
        ("synthetic", {"n": "6"}),
        ("synthetic", {"n": 6, "k": 2.0}),
        ("synthetic", {"n": 6, "seed": True}),
        ("synthetic", {"n": 6, "magnitude": "0.05"}),
        ("synthetic", {"n": 6, "signal_to_noise": None}),
        ("synthetic", {"n": 6, "penalty_weight": False}),
    ])
    def test_mistyped_value_is_a_config_error(self, tmp_path, capsys, field, value):
        # a JSON string, bool or float where the config means another type is
        # refused before it is compared, so it never ends in a traceback
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"synthetic": {"n": 6}, field: value}))
        out = tmp_path / "out"
        code = main(["estimate", "--config", str(path), "--out-dir", str(out)])
        assert code == EXIT_CONFIG
        assert field in capsys.readouterr().err
        assert not out.exists()

    def test_allows_at_most_one_instance_source(self):
        # a config may name no instance: validate and sample-size --pool read none
        with pytest.raises(ConfigError, match="exactly one of instance_path / synthetic"):
            ExperimentConfig(instance_path="x.json", synthetic=SyntheticSpec(n=5))
        with pytest.raises(ConfigError, match="exactly one of instance_path / synthetic"):
            resolve_instance(ExperimentConfig())

    def test_estimate_without_instance_source_writes_nothing(self, tmp_path, capsys):
        # refused after the lock is taken: the directory the lock made goes too
        out = tmp_path / "out"
        code = main(["estimate", "--shots", "20", "--runs", "30", "--out-dir", str(out)])
        assert code == EXIT_CONFIG
        assert "exactly one of instance_path / synthetic" in capsys.readouterr().err
        assert not out.exists()

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
