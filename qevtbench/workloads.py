"""The benchmark's workloads.

A workload builds its inputs from the workload seed (``prepare``), runs one
operation through the public ``qevt.pipeline`` entry points into a fresh
output directory (``run``, which returns the seconds spent inside those
calls), and checks the operation's outputs (``check``).  Every operation of
one benchmark run uses the same inputs, so their artifacts must hash alike.

Estimator accuracy is judged against the exact oracle on each of the
workload's laws (one law per instance and shots setting).  One operation
answers each law once, which is too few answers for a steady mean, so
``replicate`` asks the program for more after the timed operations: it
reruns ``run_estimate`` with other seeds, warm (the operation's instance,
SA baseline and angles copied into a fresh directory), and reads ``n_evt``
from each ``report.json``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from qevt.errors import DegenerateSamplesError, FitFailureError
from qevt.gev import GevParams, estimate_shots
from qevt.pipeline import (
    STATUS_OK,
    ExperimentConfig,
    SyntheticSpec,
    meets_baseline,
    read_json,
    run_estimate,
    run_sample_size,
    run_validate,
    write_csv,
    write_json,
)
from qevt.qaoa import QaoaParams
from qevt.qubo import QuboInstance, brute_force_minimum
from qevt.sample_size import SampleSizeConfig, reference_parameters
from qevt.stats import mvsw_null_stats

from .oracle import (
    exact_runs,
    minimum_law,
    run_hit_probability,
    sample_run_minima,
    shot_hit_probability,
    stratified_run_minima,
)
from .trace import instance_key

ALPHA = 0.95
ANGLES_PATH = Path(__file__).with_name("angles.json")
# what a warm run_estimate finds in its output directory instead of recomputing
STAGE_FILES = ("instance.json", "baseline.json", "qaoa_params.json")


def pinned_angles(key: str) -> tuple[dict, QaoaParams]:
    """The stored angle set ``key`` and its parameters, loaded the way the
    pipeline loads ``qaoa_params.json``."""
    entry = json.loads(ANGLES_PATH.read_text())[key]
    return entry, QaoaParams.from_dict(entry["params"])


def file_digest(*paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(Path(path).read_bytes())
    return h.hexdigest()


def replicate_seed(seed: int, r: int) -> int:
    return int(np.random.SeedSequence([seed, r]).generate_state(1)[0])


@dataclass(frozen=True)
class Law:
    """One per-run-minimum law: an instance's circuit at one shots setting."""

    inst: QuboInstance
    params: QaoaParams
    y_ideal: float
    flip_prob: float
    shots_s: int


@dataclass
class Outcome:
    """What one operation produced, as the checks saw it."""

    digest: str = ""
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    answers: list = field(default_factory=list)     # (Law, n_evt) per answered law
    thresholds: dict = field(default_factory=dict)  # instance key -> y_ideal
    tables_built: int = 0                           # MVSW null tables computed


def _alpha_estimate(entry: dict) -> dict:
    return next(e for e in entry["estimates"] if abs(e["alpha"] - ALPHA) < 1e-12)


def check_estimate_report(report: dict, inst: QuboInstance, flip_prob: float, outcome: Outcome):
    """Status, finiteness of every n_evt, and the answers per shots setting."""
    if report["status"] != STATUS_OK:
        outcome.problems.append(f"report status {report['status']!r}, expected 'ok'")
    params = QaoaParams.from_dict(report["qaoa_params"])
    for entry in report["per_shots"]:
        outcome.attempted += 1
        if "breakdown" in entry:
            outcome.failed += 1
            continue
        values = [e["n_evt"] for e in entry["estimates"]]
        if not all(isinstance(v, (int, float)) and math.isfinite(v) for v in values):
            outcome.failed += 1
            outcome.problems.append(f"non-finite n_evt at shots_s={entry['shots_s']}: {values}")
            continue
        law = Law(inst, params, float(report["y_ideal"]), flip_prob, entry["shots_s"])
        outcome.answers.append((law, _alpha_estimate(entry)["n_evt"]))
    outcome.thresholds[instance_key(inst)] = float(report["y_ideal"])


def warm_estimate(cfg: ExperimentConfig, staged: Path, out: Path) -> dict:
    """``run_estimate`` in a fresh ``out`` that holds ``staged``'s instance,
    SA baseline and angles, so neither SA nor the optimizer runs."""
    out.mkdir(parents=True)
    for name in STAGE_FILES:
        shutil.copyfile(staged / name, out / name)
    return run_estimate(cfg, out)


def log2_errors(answers: list) -> list[float]:
    """|log2(n_evt / n_exact)| per answer, n_exact from the exact oracle."""
    p_shot = {}
    errors = []
    for law, n_evt in answers:
        key = (id(law.inst), law.y_ideal)     # one angle set and flip rate per instance
        if key not in p_shot:
            p_shot[key] = shot_hit_probability(law.inst, law.params, law.y_ideal, law.flip_prob)
        errors.append(abs(math.log2(n_evt / exact_runs(p_shot[key], law.shots_s, ALPHA))))
    return errors


class Workload:
    name = ""
    # answers per law beyond the operation's own, asked for after the timed
    # operations; sized so the error's spread across seeds stays inside its bound
    replicates = 0

    def prepare(self, seed: int, work: Path) -> None:
        raise NotImplementedError

    def run(self, out: Path) -> float:
        raise NotImplementedError

    def check(self, out: Path) -> Outcome:
        raise NotImplementedError

    def replicate(self, out: Path, seed: int) -> Outcome:
        """More answers from the program, for the operation that wrote ``out``."""
        raise NotImplementedError


class EstimateN12Cold(Workload):
    name = "estimate-n12-cold"
    replicates = 7
    INSTANCE_SEEDS = (1, 2, 3)
    SHOTS_GRID = (50, 100, 200)
    RUNS = 200
    # the one start is the all-zero angles, so the optimized angles, and the
    # laws the accuracy is judged on, are the same for every workload seed
    RESTARTS = 1

    def prepare(self, seed, work):
        self.cfgs = [
            ExperimentConfig(
                synthetic=SyntheticSpec(n=12, seed=s),
                shots_grid=self.SHOTS_GRID,
                runs=self.RUNS,
                qaoa_restarts=self.RESTARTS,
                seed=seed,
            )
            for s in self.INSTANCE_SEEDS
        ]
        self.instances = [cfg.synthetic.build() for cfg in self.cfgs]

    def run(self, out):
        spent = 0.0
        for i, cfg in enumerate(self.cfgs):
            spent += _timed(run_estimate, cfg, out / f"instance{i}")
        return spent

    def check(self, out):
        dirs = [out / f"instance{i}" for i in range(len(self.cfgs))]
        outcome = Outcome(digest=file_digest(*(d / "report.json" for d in dirs)))
        for d, inst in zip(dirs, self.instances):
            check_estimate_report(read_json(d / "report.json"), inst, 0.0, outcome)
        return outcome

    def replicate(self, out, seed):
        outcome = Outcome()
        for i, (cfg, inst) in enumerate(zip(self.cfgs, self.instances)):
            for r in range(self.replicates):
                rep = out.with_name(f"replicate{i}-{r}")
                cfg_r = dataclasses.replace(cfg, seed=replicate_seed(seed, r))
                check_estimate_report(warm_estimate(cfg_r, out / f"instance{i}", rep), inst, 0.0,
                                      outcome)
                shutil.rmtree(rep)
        return outcome


class EstimateN18Warm(Workload):
    name = "estimate-n18-warm"
    replicates = 6
    FLIP_PROB = 0.02
    VALIDATE_SHOTS = 1000
    # trials per offset; with the pinned exact run count at 1000 shots the
    # validation costs about as much as the estimate
    VALIDATE_TRIALS = 14

    def prepare(self, seed, work):
        entry, self.params = pinned_angles("n18")
        spec = SyntheticSpec(n=entry["instance"]["n"], seed=entry["instance"]["seed"])
        self.cfg = ExperimentConfig(synthetic=spec, readout_flip_prob=self.FLIP_PROB, seed=seed)
        self.inst = spec.build()
        # validated run count: exact, and taken at the true optimum rather than
        # at the SA baseline of the seed, so validation costs the same on every
        # seed; its curve should cross ALPHA near offset 0
        self.validate_runs = entry["validate_runs"]
        self._p_shot = {}

    def p_shot(self, y_ideal: float) -> float:
        if y_ideal not in self._p_shot:
            self._p_shot[y_ideal] = shot_hit_probability(
                self.inst, self.params, y_ideal, self.FLIP_PROB
            )
        return self._p_shot[y_ideal]

    def run(self, out):
        out.mkdir(parents=True)
        write_json(out / "qaoa_params.json", self.params.to_dict())
        spent = _timed(run_estimate, self.cfg, out)
        spent += _timed(
            run_validate, self.cfg, out, self.VALIDATE_SHOTS, ALPHA,
            trials=self.VALIDATE_TRIALS, n_evt=self.validate_runs,
        )
        return spent

    def check(self, out):
        tag = f"s{self.VALIDATE_SHOTS}_a{int(round(ALPHA * 100))}"
        outcome = Outcome(digest=file_digest(out / "report.json", out / f"validate_{tag}.json"))
        report = read_json(out / "report.json")
        check_estimate_report(report, self.inst, self.FLIP_PROB, outcome)
        validation = read_json(out / f"validate_{tag}.json")
        outcome.attempted += 1
        p_run = run_hit_probability(self.p_shot(float(report["y_ideal"])), self.VALIDATE_SHOTS)
        hits = expected = variance = 0.0
        for point in validation["curve"]:
            ratio = point["ratio"]
            if not 0.0 <= ratio <= 1.0:
                outcome.problems.append(f"validation ratio {ratio} outside [0, 1]")
            p = 1.0 - (1.0 - p_run) ** point["runs"]
            hits += ratio * validation["trials"]
            expected += p * validation["trials"]
            variance += p * (1.0 - p) * validation["trials"]
        # the batched sampler's hit rate must agree with the exact law
        if abs(hits - expected) > 6.0 * math.sqrt(variance) + 1.0:
            outcome.failed += 1
            outcome.problems.append(
                f"validation hits {hits:.0f} far from the exact expectation {expected:.1f}"
            )
        return outcome

    def replicate(self, out, seed):
        outcome = Outcome()
        for r in range(self.replicates):
            rep = out.with_name(f"replicate{r}")
            cfg_r = dataclasses.replace(self.cfg, seed=replicate_seed(seed, r))
            check_estimate_report(warm_estimate(cfg_r, out, rep), self.inst, self.FLIP_PROB,
                                  outcome)
            shutil.rmtree(rep)
        return outcome


class SampleSizeAtoms(Workload):
    """No run_estimate here: the answer is the run count that the procedure's
    reference fit (``reference_parameters``, from ``sample_size.json``)
    implies, and replicates are that reference fit on fresh pools."""

    name = "sample-size-atoms"
    replicates = 95
    POOL_SHOTS = 100
    POOL_SIZE = 1000
    SAMPLE_SIZE = dict(n_min=20, n_max=60, stride=20, inner_draws=30, outer_reps=1)

    def prepare(self, seed, work):
        entry, params = pinned_angles("n12")
        spec = SyntheticSpec(n=entry["instance"]["n"], seed=entry["instance"]["seed"])
        inst = spec.build()
        _, y_opt = brute_force_minimum(inst)
        self.law = Law(inst, params, y_opt, 0.0, self.POOL_SHOTS)
        # drawn by the benchmark from the exact law, so a change to the
        # program's sampler cannot change this input; stratified, so every
        # seed's pool holds the law's level frequencies to within one count
        # and the seed moves only their order and the procedure's resampling
        self.levels, self.cdf = minimum_law(inst, params)
        pool = stratified_run_minima(self.levels, self.cdf, self.POOL_SHOTS, self.POOL_SIZE,
                                     np.random.default_rng(seed))
        self.pool_path = work / "pool.csv"
        write_csv(self.pool_path, ["run_index", "min_energy"],
                  [(i, repr(float(e))) for i, e in enumerate(pool)])
        self.cfg = ExperimentConfig(
            synthetic=spec, seed=seed,
            sample_size=SampleSizeConfig(seed=seed, **self.SAMPLE_SIZE),
        )

    def run(self, out):
        # a fresh process builds its null table; so must every operation here
        mvsw_null_stats.cache_clear()
        return _timed(run_sample_size, self.cfg, out, pool_path=self.pool_path)

    def check(self, out):
        outcome = Outcome(digest=file_digest(out / "sample_size.json"),
                          tables_built=mvsw_null_stats.cache_info().misses)
        payload = read_json(out / "sample_size.json")
        result, cfg = payload["result"], payload["config"]
        if not cfg["n_min"] <= result["n_estimate"] <= cfg["n_max"]:
            outcome.problems.append(
                f"n_estimate {result['n_estimate']} outside [{cfg['n_min']}, {cfg['n_max']}]"
            )
        for cell in result["fit_failures"].values():
            outcome.attempted += cell["attempted"]
            outcome.failed += cell["failed"]
        self._answer(GevParams(**payload["reference"]), outcome)
        return outcome

    def replicate(self, out, seed):
        outcome = Outcome()
        rng = np.random.default_rng([seed, 0xACC])
        for _ in range(self.replicates):
            pool = sample_run_minima(self.levels, self.cdf, self.POOL_SHOTS, self.POOL_SIZE, rng)
            outcome.attempted += 1
            try:
                reference = reference_parameters(pool, int(rng.integers(2**62)))
            except (DegenerateSamplesError, FitFailureError):
                outcome.failed += 1
                continue
            self._answer(reference, outcome)
        return outcome

    def _answer(self, reference: GevParams, outcome: Outcome):
        n_evt = estimate_shots(reference, self.law.y_ideal, ALPHA, self.POOL_SHOTS).n_evt
        if math.isfinite(n_evt):
            outcome.answers.append((self.law, n_evt))
        else:
            outcome.failed += 1


def _timed(fn, *args, **kwargs) -> float:
    start = time.perf_counter()
    fn(*args, **kwargs)
    return time.perf_counter() - start


def hit_fraction(minima: list, thresholds: dict) -> tuple[int, int]:
    """Per-run minima meeting their instance's baseline, and minima seen."""
    hits = total = 0
    for key, values in minima:
        if key in thresholds:
            hits += int(meets_baseline(values, thresholds[key]).sum())
            total += values.size
    return hits, total


WORKLOADS = {w.name: w for w in (EstimateN12Cold, EstimateN18Warm, SampleSizeAtoms)}
