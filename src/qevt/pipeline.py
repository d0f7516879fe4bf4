"""Experiment orchestration behind the CLI commands.

Every pipeline stage derives its RNG stream from the one master seed, writes
its artifacts (JSON reports, CSV tables, SVG plots) into the output
directory, and records enough provenance (seeds, config hash, version) that
a rerun with the same configuration reproduces every byte.  No timestamps
are written, deliberately.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import __version__
from .annealing import SaConfig, default_sa_config, simulated_annealing
from .errors import ConfigError, DegenerateSamplesError
from .gev import (
    GevParams,
    count_hits,
    estimate_runs,
    fit_gev_minima,
    gev_nll,
    gev_pdf,
    jitter,
    meets_baseline,
)
from .qaoa import (
    NoiseConfig,
    OptimizerConfig,
    QaoaParams,
    circuit_state,
    collect_extreme_samples,
    optimize_parameters,
    run_minima_batch,
)
from .qubo import (
    QuboInstance,
    brute_force_minimum,
    energy_table,
    generate_synthetic_q,
    load_instance,
    save_instance,
    to_ising,
)
from .sample_size import SampleSizeConfig, estimate_required_extremes, reference_parameters
from .seeding import derive_seed
from .svg import histogram_with_curve, line_chart
from .utils import jsonable

STATUS_OK = "ok"
STATUS_DEGENERATE = "degenerate"
STATUS_UNREACHABLE = "unreachable"

BREAKDOWN_DEGENERATE = "degenerate_samples"

DEFAULT_SHOTS_GRID = (500, 1000, 2000)
DEFAULT_ALPHAS = (0.90, 0.95)
DEFAULT_RUNS = 200
DEFAULT_DEPTH = 3


@dataclass(frozen=True)
class SyntheticSpec:
    n: int
    k: int | None = None
    style: str = "perf-delta"
    seed: int = 0
    magnitude: float = 0.05
    signal_to_noise: float = 3.0
    penalty_weight: float = 1.0

    def build(self) -> QuboInstance:
        return generate_synthetic_q(
            n=self.n,
            style=self.style,
            seed=self.seed,
            k=self.k,
            magnitude=self.magnitude,
            signal_to_noise=self.signal_to_noise,
            penalty_weight=self.penalty_weight,
        )


@dataclass(frozen=True)
class ExperimentConfig:
    instance_path: str | None = None
    synthetic: SyntheticSpec | None = None
    sa: dict | None = None                 # overrides for default_sa_config
    qaoa_depth: int = DEFAULT_DEPTH
    qaoa_restarts: int = 10
    qaoa_maxiter: int = 200
    initial_state: str = "minus"
    readout_flip_prob: float = 0.0
    shots_grid: tuple = DEFAULT_SHOTS_GRID
    runs: int = DEFAULT_RUNS
    alphas: tuple = DEFAULT_ALPHAS
    sample_size: SampleSizeConfig | None = None
    pool_runs: int = 1000                  # fresh-pool size for sample-size runs
    y_ideal_override: float | None = None
    seed: int = 0

    def __post_init__(self):
        if (self.instance_path is None) == (self.synthetic is None):
            raise ConfigError("exactly one of instance_path / synthetic must be set")
        if self.runs < 1:
            raise ConfigError("runs must be positive")
        if not self.shots_grid or any(s < 1 for s in self.shots_grid):
            raise ConfigError("shots_grid must be non-empty positive integers")
        if not self.alphas or any(not 0 < a < 1 for a in self.alphas):
            raise ConfigError("alphas must lie in (0, 1)")
        object.__setattr__(self, "shots_grid", tuple(int(s) for s in self.shots_grid))
        object.__setattr__(self, "alphas", tuple(float(a) for a in self.alphas))

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "ExperimentConfig":
        payload = dict(payload)
        extra = set(payload) - {f.name for f in fields(cls)}
        if extra:
            raise ConfigError(f"unknown config fields: {sorted(extra)}")
        if payload.get("synthetic") is not None:
            payload["synthetic"] = SyntheticSpec(**payload["synthetic"])
        if payload.get("sample_size") is not None:
            payload["sample_size"] = SampleSizeConfig(**payload["sample_size"])
        return cls(**payload)

    def config_hash(self) -> str:
        canonical = json.dumps(jsonable(self.to_dict()), sort_keys=True)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def write_json(path, payload) -> None:
    Path(path).write_text(
        json.dumps(jsonable(payload), indent=2, sort_keys=True, allow_nan=False) + "\n"
    )


def read_json(path) -> dict:
    return json.loads(Path(path).read_text())


def write_csv(path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _provenance(cfg: ExperimentConfig, seeds: dict) -> dict:
    return {
        "master_seed": cfg.seed,
        "config_hash": cfg.config_hash(),
        "version": __version__,
        "seeds": seeds,
    }


def resolve_instance(cfg: ExperimentConfig) -> tuple[QuboInstance, dict]:
    if cfg.instance_path is not None:
        inst = load_instance(cfg.instance_path)
        return inst, {"source": "file", "path": cfg.instance_path, "n": inst.n, "k": inst.k}
    inst = cfg.synthetic.build()
    desc = {"source": "synthetic", "n": inst.n, "k": inst.k, "seed": cfg.synthetic.seed,
            "style": cfg.synthetic.style}
    return inst, desc


def run_generate(spec: SyntheticSpec, out_path) -> dict:
    """Write a synthetic instance; include its exact optimum when tractable."""
    inst = spec.build()
    save_instance(inst, out_path)
    info = {"path": str(out_path), "n": inst.n, "k": inst.k}
    if inst.n <= 20:
        bits, energy = brute_force_minimum(inst)
        info["optimum"] = {"bits": [int(b) for b in bits], "energy": energy}
    return info


def run_solve_sa(cfg: ExperimentConfig, out_dir) -> dict:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    inst, desc = resolve_instance(cfg)
    sa_cfg = build_sa_config(cfg, inst)
    bits, energy = simulated_annealing(inst, sa_cfg)
    payload = {
        "x": [int(b) for b in bits],
        "energy": energy,
        "config": asdict(sa_cfg),
        "instance": desc,
        "provenance": _provenance(cfg, {"sa": sa_cfg.seed}),
    }
    write_json(out / "baseline.json", payload)
    return payload


def build_sa_config(cfg: ExperimentConfig, inst: QuboInstance) -> SaConfig:
    overrides = dict(cfg.sa or {})
    overrides.setdefault("seed", derive_seed(cfg.seed, "sa"))
    return default_sa_config(inst, **overrides)


def _optimizer_config(cfg: ExperimentConfig) -> OptimizerConfig:
    return OptimizerConfig(
        restarts=cfg.qaoa_restarts,
        maxiter=cfg.qaoa_maxiter,
        seed=derive_seed(cfg.seed, "qaoa-opt"),
        initial_state=cfg.initial_state,
    )


def ensure_stage_artifacts(cfg: ExperimentConfig, out_dir) -> tuple[QuboInstance, float, QaoaParams]:
    """Load instance/baseline/angles from ``out_dir`` or compute and persist them.

    Sampling dominates runtime, so tuned angles and the SA baseline are reused
    across subcommands rather than recomputed.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    inst_path = out / "instance.json"
    if inst_path.exists():
        inst = load_instance(inst_path)
    else:
        inst, _ = resolve_instance(cfg)
        save_instance(inst, inst_path)

    baseline_path = out / "baseline.json"
    if baseline_path.exists():
        y_ideal = float(read_json(baseline_path)["energy"])
    else:
        y_ideal = run_solve_sa(cfg, out)["energy"]

    params_path = out / "qaoa_params.json"
    if params_path.exists():
        params = QaoaParams.from_dict(read_json(params_path))
    else:
        params = optimize_parameters(inst, cfg.qaoa_depth, _optimizer_config(cfg))
        write_json(params_path, params.to_dict())
    return inst, y_ideal, params


def _gev_density_svg(
    extremes: np.ndarray, fitted: GevParams, shots_s: int, hits: int, route: str
) -> str:
    """Histogram of the run minima under the fitted law; the title names the
    hit count and the route the answer took, since with ``hit_rate`` the
    plotted law is not where the answer came from."""
    lo, hi = float(extremes.min()), float(extremes.max())
    pad = 0.1 * (hi - lo or 1.0)
    xs = np.linspace(lo - pad, hi + pad, 200)
    # fitted law lives in the negated (maxima) domain; map back to minima
    ys = gev_pdf(fitted, -xs)
    return histogram_with_curve(
        extremes,
        xs,
        ys,
        title=(
            f"Fitted GEV density, s={shots_s} "
            f"(hits {hits}/{extremes.size} at the baseline, answer via {route})"
        ),
        xlabel="per-run minimum energy",
    )


def run_estimate(cfg: ExperimentConfig, out_dir) -> dict:
    """Full estimation pipeline; returns the report (also written to disk).

    Per shots setting the run minima are collected, jittered and fitted with
    a GEV law, and ``hits`` counts the runs that meet the baseline.  Each
    estimate then takes one of the two routes of
    :func:`qevt.gev.estimate_runs`: ``hit_rate`` (success probability
    hits / runs, the mass of the atom the minima put at y_ideal) when any
    run met the baseline, ``gev`` (the fitted tail at y_ideal) when none
    did.  Every estimate records its ``route`` and the fitted law's own
    probability, ``fitted_prob``.

    The report's ``status`` field distinguishes a clean run ("ok") from the
    two breakdown modes: "degenerate" (no output variability at some shots
    setting) and "unreachable" (zero success probability, infinite run
    count sentinel).
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    inst, y_ideal, params = ensure_stage_artifacts(cfg, out)
    _, desc = resolve_instance(cfg)
    if cfg.y_ideal_override is not None:
        y_ideal = float(cfg.y_ideal_override)
    noise = NoiseConfig(readout_flip_prob=cfg.readout_flip_prob)

    seeds = {"sa": derive_seed(cfg.seed, "sa"), "qaoa_opt": derive_seed(cfg.seed, "qaoa-opt")}
    per_shots = []
    any_degenerate = False
    any_unreachable = False
    for shots_s in cfg.shots_grid:
        extremes_seed = derive_seed(cfg.seed, "extremes", shots_s)
        seeds[f"extremes_s{shots_s}"] = extremes_seed
        extremes = collect_extreme_samples(
            inst, params, shots_s, cfg.runs, noise, extremes_seed, cfg.initial_state
        )
        csv_name = f"extremes_s{shots_s}.csv"
        write_csv(
            out / csv_name,
            ["run_index", "seed", "min_energy", "shots_s"],
            [
                (r, derive_seed(extremes_seed, "extreme-run", r), repr(float(e)), shots_s)
                for r, e in enumerate(extremes)
            ],
        )
        entry = {"shots_s": shots_s, "extremes_csv": csv_name,
                 "hits": count_hits(extremes, y_ideal)}
        jitter_seed = derive_seed(cfg.seed, "jitter", shots_s)
        try:
            smoothed = jitter(extremes, jitter_seed)
            fitted = fit_gev_minima(smoothed)
        except DegenerateSamplesError as exc:
            entry["breakdown"] = BREAKDOWN_DEGENERATE
            entry["detail"] = str(exc)
            any_degenerate = True
            per_shots.append(entry)
            continue
        fit_info = {
            "mu": fitted.mu,
            "sigma": fitted.sigma,
            "xi": fitted.xi,
            "nll": gev_nll(fitted, -smoothed.values),
            "delta": smoothed.delta,
            "seed": jitter_seed,
            "n_samples": int(smoothed.values.size),
        }
        write_json(out / f"fit_s{shots_s}.json", fit_info)
        entry["gev"] = fit_info
        estimates = []
        for alpha in cfg.alphas:
            est = estimate_runs(extremes, fitted, y_ideal, alpha, shots_s)
            if not math.isfinite(est.n_evt):
                any_unreachable = True
            estimates.append(
                {
                    "alpha": est.alpha,
                    "success_prob": est.success_prob,
                    "n_evt": est.n_evt,
                    "shots_s": est.shots_s,
                    "total_shots": est.total_shots,
                    "route": est.route,
                    "fitted_prob": est.fitted_prob,
                }
            )
        entry["estimates"] = estimates
        svg_name = f"gev_s{shots_s}.svg"
        svg = _gev_density_svg(extremes, fitted, shots_s, entry["hits"], estimates[0]["route"])
        (out / svg_name).write_text(svg)
        entry["svg"] = svg_name
        per_shots.append(entry)

    status = STATUS_OK
    if any_degenerate:
        status = STATUS_DEGENERATE
    elif any_unreachable:
        status = STATUS_UNREACHABLE
    report = {
        "instance": desc,
        "y_ideal": y_ideal,
        "qaoa_params": params.to_dict(),
        "noise": {"readout_flip_prob": cfg.readout_flip_prob},
        "runs": cfg.runs,
        "per_shots": per_shots,
        "status": status,
        "provenance": _provenance(cfg, seeds),
    }
    write_json(out / "report.json", report)
    return report


def _report_estimate(report: dict, shots_s: int, alpha: float) -> dict:
    for entry in report["per_shots"]:
        if entry["shots_s"] != shots_s:
            continue
        if "breakdown" in entry:
            raise ConfigError(
                f"estimate at shots_s={shots_s} ended in breakdown "
                f"({entry['breakdown']}); nothing to validate"
            )
        for est in entry["estimates"]:
            if abs(est["alpha"] - alpha) < 1e-12:
                return est
    raise ConfigError(f"report has no estimate for shots_s={shots_s}, alpha={alpha}")


def run_validate(
    cfg: ExperimentConfig,
    out_dir,
    shots_s: int,
    alpha: float,
    delta_range: tuple[int, int] = (-3, 3),
    trials: int = 500,
    n_evt: int | None = None,
) -> dict:
    """Empirical check of the estimated run count.

    For each offset delta, ``trials`` independent experiments of
    (n_evt + delta) runs each are simulated; the ratio is the fraction of
    experiments whose best run reached the baseline.  The curve should cross
    the confidence level near delta = 0.
    """
    out = Path(out_dir)
    report_path = out / "report.json"
    if not report_path.exists():
        raise ConfigError(f"no estimate report at {report_path}; run the estimate command first")
    if trials < 1:
        raise ConfigError("trials must be positive")
    report = read_json(report_path)
    y_ideal = float(report["y_ideal"])
    if n_evt is None:
        raw = _report_estimate(report, shots_s, alpha)["n_evt"]
        if not isinstance(raw, (int, float)) or not math.isfinite(raw):
            raise ConfigError(
                f"estimated n_evt at shots_s={shots_s}, alpha={alpha} is not finite; "
                "the target is unreachable and cannot be validated"
            )
        n_evt = int(raw)
    inst = load_instance(out / "instance.json")
    params = QaoaParams.from_dict(report["qaoa_params"])
    noise = NoiseConfig(readout_flip_prob=cfg.readout_flip_prob)
    state = circuit_state(to_ising(inst), params, cfg.initial_state)
    table = energy_table(inst)

    lo, hi = delta_range
    if lo > hi:
        raise ConfigError("delta range must be non-empty")
    curve = []
    for delta in range(lo, hi + 1):
        runs_count = n_evt + delta
        if runs_count < 1:
            continue
        seed = derive_seed(cfg.seed, "validate", shots_s, delta - lo)
        minima = run_minima_batch(
            state, inst, shots_s, runs_count * trials, noise, seed, table
        ).reshape(trials, runs_count)
        ratio = float(meets_baseline(minima.min(axis=1), y_ideal).mean())
        curve.append({"delta": delta, "runs": runs_count, "ratio": ratio})

    tag = f"s{shots_s}_a{int(round(alpha * 100))}"
    write_csv(
        out / f"validate_{tag}.csv",
        ["delta", "runs", "ratio"],
        [(c["delta"], c["runs"], repr(c["ratio"])) for c in curve],
    )
    svg = line_chart(
        [{"x": [c["delta"] for c in curve], "y": [c["ratio"] for c in curve], "label": "empirical ratio"}],
        title=f"Success ratio vs run-count offset ({shots_s} shots per run)",
        xlabel="offset from estimated run count",
        ylabel="ratio",
        hlines=[(alpha, f"confidence target {alpha:g}")],
    )
    (out / f"validate_{tag}.svg").write_text(svg)
    payload = {
        "shots_s": shots_s,
        "alpha": alpha,
        "n_evt": n_evt,
        "trials": trials,
        "y_ideal": y_ideal,
        "curve": curve,
        "provenance": _provenance(cfg, {"validate": derive_seed(cfg.seed, "validate", shots_s, 0)}),
    }
    write_json(out / f"validate_{tag}.json", payload)
    return payload


def run_shot_sweep(cfg: ExperimentConfig, out_dir, grid=None, reps: int = 20) -> dict:
    """Average per-run minimum across a shots grid, against the SA baseline."""
    if reps < 1:
        raise ConfigError("reps must be positive")
    grid = tuple(int(s) for s in (grid or cfg.shots_grid))
    if not grid or any(s < 1 for s in grid):
        raise ConfigError("shots grid must be non-empty positive integers")
    out = Path(out_dir)
    inst, y_ideal, params = ensure_stage_artifacts(cfg, out)
    noise = NoiseConfig(readout_flip_prob=cfg.readout_flip_prob)
    state = circuit_state(to_ising(inst), params, cfg.initial_state)
    table = energy_table(inst)

    points = []
    for shots_s in grid:
        minima = run_minima_batch(
            state, inst, shots_s, reps, noise, derive_seed(cfg.seed, "sweep", shots_s), table
        )
        points.append({"shots_s": shots_s, "mean_min_energy": float(minima.mean()), "reps": reps})
    write_csv(
        out / "sweep.csv",
        ["shots_s", "mean_min_energy", "reps"],
        [(p["shots_s"], repr(p["mean_min_energy"]), p["reps"]) for p in points],
    )
    svg = line_chart(
        [
            {
                "x": [p["shots_s"] for p in points],
                "y": [p["mean_min_energy"] for p in points],
                "label": "mean per-run minimum",
            }
        ],
        title="Average best-observed energy vs shots per run",
        xlabel="shots per run",
        ylabel="energy",
        hlines=[(y_ideal, "SA baseline")],
    )
    (out / "sweep.svg").write_text(svg)
    payload = {
        "grid": list(grid),
        "reps": reps,
        "y_ideal": y_ideal,
        "points": points,
        "high_variance": reps == 1,
        "provenance": _provenance(cfg, {"sweep": derive_seed(cfg.seed, "sweep", grid[0])}),
    }
    write_json(out / "sweep.json", payload)
    return payload


def _load_pool_csv(path) -> np.ndarray:
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or "min_energy" not in reader.fieldnames:
            raise ConfigError(f"{path}: expected a CSV with a min_energy column")
        values = [float(row["min_energy"]) for row in reader]
    if not values:
        raise ConfigError(f"{path}: pool CSV is empty")
    return np.asarray(values, dtype=np.float64)


def run_sample_size(
    cfg: ExperimentConfig,
    out_dir,
    pool_path=None,
    shots_s: int | None = None,
) -> dict:
    """Sample-size procedure on an extreme-value pool.

    Pool resolution order: explicit CSV path, then an existing extremes CSV
    for ``shots_s`` in the output directory, then a fresh collection of
    ``cfg.pool_runs`` runs.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    ss_cfg = cfg.sample_size or SampleSizeConfig(seed=derive_seed(cfg.seed, "sample-size"))
    pool_source: dict
    if pool_path is not None:
        pool = _load_pool_csv(pool_path)
        pool_source = {"kind": "csv", "path": str(pool_path)}
    else:
        shots_s = shots_s or cfg.shots_grid[0]
        existing = out / f"extremes_s{shots_s}.csv"
        if existing.exists():
            pool = _load_pool_csv(existing)
            pool_source = {"kind": "csv", "path": existing.name}
        else:
            inst, _, params = ensure_stage_artifacts(cfg, out)
            noise = NoiseConfig(readout_flip_prob=cfg.readout_flip_prob)
            pool = collect_extreme_samples(
                inst,
                params,
                shots_s,
                cfg.pool_runs,
                noise,
                derive_seed(cfg.seed, "pool", shots_s),
                cfg.initial_state,
            )
            pool_source = {"kind": "fresh", "shots_s": shots_s, "runs": cfg.pool_runs}
    theta_sim = reference_parameters(pool, ss_cfg.seed)
    result = estimate_required_extremes(pool, ss_cfg, theta_sim)

    write_csv(
        out / "sample_size.csv",
        ["n", "mean_p_ht2", "mean_p_mst"],
        [(r.n, repr(r.mean_p_ht2), repr(r.mean_p_mst)) for r in result.per_n],
    )
    ns = [r.n for r in result.per_n]
    line_pts = lambda line: [line[0] * n + line[1] for n in ns]  # noqa: E731
    svg = line_chart(
        [
            {"x": ns, "y": [r.mean_p_ht2 for r in result.per_n], "label": "mean p (Hotelling T2)"},
            {"x": ns, "y": [r.mean_p_mst for r in result.per_n], "label": "mean p (multivariate SW)"},
            {"x": ns, "y": line_pts(result.line_ht2), "label": "regression (T2)", "dashed": True},
            {"x": ns, "y": line_pts(result.line_mst), "label": "regression (SW)", "dashed": True},
        ],
        title="Bootstrap p-value averages vs subset size",
        xlabel="extreme samples per refit",
        ylabel="mean p-value",
        hlines=[(ss_cfg.level, f"level {ss_cfg.level:g}")],
    )
    (out / "sample_size.svg").write_text(svg)
    payload = {
        "pool": {"size": int(pool.size), **pool_source},
        "reference": {"mu": theta_sim.mu, "sigma": theta_sim.sigma, "xi": theta_sim.xi},
        "config": asdict(ss_cfg),
        "result": result.to_dict(),
        "provenance": _provenance(cfg, {"sample_size": ss_cfg.seed}),
    }
    write_json(out / "sample_size.json", payload)
    return payload
