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
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .annealing import SaConfig, check_sa_values, default_sa_config, simulated_annealing
from .errors import ConfigError, DegenerateSamplesError
from .gev import (
    BASELINE_RTOL,
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
    OptimizerConfig,
    QaoaParams,
    circuit_law,
    collect_extreme_samples,
    optimize_parameters,
    run_minima_batch,
)
from .qubo import (
    QuboInstance,
    brute_force_minimum,
    generate_synthetic_q,
    load_instance,
    qubo_energy,
    save_instance,
)
from .sample_size import SampleSizeConfig, estimate_required_extremes, reference_parameters
from .seeding import derive_seed
from .svg import histogram_with_curve, line_chart
from .utils import is_integer, is_number, jsonable

STATUS_OK = "ok"
STATUS_DEGENERATE = "degenerate"
STATUS_UNREACHABLE = "unreachable"

BREAKDOWN_DEGENERATE = "degenerate_samples"

DEFAULT_SHOTS_GRID = (500, 1000, 2000)
DEFAULT_ALPHAS = (0.90, 0.95)
DEFAULT_RUNS = 200
DEFAULT_DEPTH = 3

_INTEGER_FIELDS = ("qaoa_depth", "qaoa_restarts", "qaoa_maxiter", "runs", "pool_runs", "seed")


@dataclass(frozen=True)
class SyntheticSpec:
    n: int
    k: int | None = None
    seed: int = 0
    magnitude: float = 0.05
    signal_to_noise: float = 3.0
    penalty_weight: float = 1.0

    def build(self) -> QuboInstance:
        return generate_synthetic_q(
            n=self.n,
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
        # types before values: a config file's "5" or true must be refused,
        # not compared
        if (self.instance_path is None) == (self.synthetic is None):
            raise ConfigError("exactly one of instance_path / synthetic must be set")
        for name in _INTEGER_FIELDS:
            if not is_integer(getattr(self, name)):
                raise ConfigError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.runs < 1:
            raise ConfigError("runs must be positive")
        if not is_number(self.readout_flip_prob) or not 0.0 <= self.readout_flip_prob <= 0.5:
            raise ConfigError("readout_flip_prob must lie in [0, 0.5]")
        if not (isinstance(self.shots_grid, (list, tuple)) and self.shots_grid
                and all(is_integer(s) and s >= 1 for s in self.shots_grid)):
            raise ConfigError("shots_grid must be non-empty positive integers")
        if len(set(self.shots_grid)) < len(self.shots_grid):
            raise ConfigError(f"shots_grid repeats a setting: {list(self.shots_grid)}")
        if not isinstance(self.sa or {}, dict):
            raise ConfigError(f"sa must be a mapping of SA settings, got {self.sa!r}")
        try:
            check_sa_values(_known_fields(SaConfig, self.sa or {}, "sa"))
        except ValueError as exc:
            raise ConfigError(f"sa: {exc}") from exc
        if not (isinstance(self.alphas, (list, tuple)) and self.alphas
                and all(is_number(a) and 0 < a < 1 for a in self.alphas)):
            raise ConfigError("alphas must lie in (0, 1)")
        if self.y_ideal_override is not None and not is_number(self.y_ideal_override):
            raise ConfigError(f"y_ideal_override must be a number, got {self.y_ideal_override!r}")
        object.__setattr__(self, "shots_grid", tuple(int(s) for s in self.shots_grid))
        object.__setattr__(self, "alphas", tuple(float(a) for a in self.alphas))

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "ExperimentConfig":
        payload = dict(payload)
        if payload.get("synthetic") is not None:
            spec = _known_fields(SyntheticSpec, payload["synthetic"], "synthetic")
            if "n" not in spec:
                raise ConfigError("a synthetic instance needs its size n")
            payload["synthetic"] = SyntheticSpec(**spec)
        if payload.get("sample_size") is not None:
            payload["sample_size"] = sample_size_config(
                payload.get("seed", cls.seed), payload["sample_size"]
            )
        return cls(**_known_fields(cls, payload, "config"))

    def config_hash(self) -> str:
        canonical = json.dumps(jsonable(self.to_dict()), sort_keys=True)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _known_fields(cls, payload: dict, what: str) -> dict:
    """``payload``, refused with ConfigError if a key is not a field of ``cls``."""
    extra = set(payload) - {f.name for f in fields(cls)}
    if extra:
        raise ConfigError(f"unknown {what} fields: {sorted(extra)}")
    return payload


def sample_size_config(master_seed: int, block: dict | None = None) -> SampleSizeConfig:
    """The bootstrap's config from a ``sample_size`` block.  A block that
    names no ``seed``, or no block at all, draws on the master seed's
    "sample-size" stream."""
    block = {"seed": derive_seed(master_seed, "sample-size"), **(block or {})}
    return SampleSizeConfig(**_known_fields(SampleSizeConfig, block, "sample_size"))


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
    desc = {"source": "synthetic", "n": inst.n, "k": inst.k, "seed": cfg.synthetic.seed}
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
    return _solve_sa(cfg, *resolve_instance(cfg), Path(out_dir))


def _solve_sa(cfg: ExperimentConfig, inst: QuboInstance, desc: dict, out: Path) -> dict:
    """The SA baseline of the resolved instance, written to ``baseline.json``."""
    out.mkdir(parents=True, exist_ok=True)
    sa_cfg = default_sa_config(inst, **{"seed": derive_seed(cfg.seed, "sa"), **(cfg.sa or {})})
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


def _baseline_of(inst: QuboInstance, baseline: dict) -> bool:
    """Whether ``baseline``'s bitstring scores its recorded energy on ``inst``.

    The recorded ``instance`` description names a source, and one instance
    reached through a file and through ``instance.json`` has two; the
    bitstring and its energy identify the instance whatever its source.
    """
    x = baseline["x"]
    if len(x) != inst.n:
        return False
    energy = float(baseline["energy"])
    return abs(qubo_energy(inst, x) - energy) <= BASELINE_RTOL * max(1.0, abs(energy))


def ensure_stage_artifacts(cfg: ExperimentConfig, out_dir):
    """Resolve a sampling command's inputs: ``(inst, desc, y_ideal, params, law)``.

    The instance is the one ``cfg`` names, built once.  The stage files in
    ``out_dir`` are reused, ``baseline.json`` for the SA baseline and
    ``qaoa_params.json`` for the angles; a missing one is computed on that
    instance and written.  An ``instance.json`` that holds another instance
    (``n``, ``k``, ``penalty_weight`` or ``q`` differ), or a ``baseline.json``
    whose bitstring does not score its recorded energy on this instance, is
    refused with ConfigError before SA or the optimizer runs and before any
    file is written.  ``y_ideal`` is ``cfg.y_ideal_override`` when set.  ``law`` is
    the circuit's run-minimum law under ``cfg``'s readout noise, built once
    for all of the command's draws.
    """
    out = Path(out_dir)
    inst, desc = resolve_instance(cfg)
    inst_path = out / "instance.json"
    if inst_path.exists():
        stored = load_instance(inst_path)
        same = (stored.n, stored.k, stored.penalty_weight) == (inst.n, inst.k, inst.penalty_weight)
        if not (same and np.array_equal(stored.q, inst.q)):
            raise ConfigError(
                f"{inst_path} holds another instance than the config names; "
                "use a fresh output directory"
            )
    baseline_path = out / "baseline.json"
    baseline = read_json(baseline_path) if baseline_path.exists() else None
    if baseline is not None and not _baseline_of(inst, baseline):
        raise ConfigError(
            f"{baseline_path} holds the baseline of another instance than the config "
            "names; use a fresh output directory"
        )
    if not inst_path.exists():
        out.mkdir(parents=True, exist_ok=True)
        save_instance(inst, inst_path)

    if baseline is not None:
        y_ideal = float(baseline["energy"])
    else:
        y_ideal = _solve_sa(cfg, inst, desc, out)["energy"]
    if cfg.y_ideal_override is not None:
        y_ideal = float(cfg.y_ideal_override)

    params_path = out / "qaoa_params.json"
    if params_path.exists():
        params = QaoaParams.from_dict(read_json(params_path))
    else:
        optimizer = OptimizerConfig(
            restarts=cfg.qaoa_restarts,
            maxiter=cfg.qaoa_maxiter,
            seed=derive_seed(cfg.seed, "qaoa-opt"),
            initial_state=cfg.initial_state,
        )
        params = optimize_parameters(inst, cfg.qaoa_depth, optimizer)
        write_json(params_path, params.to_dict())
    law, _, _ = circuit_law(inst, params, cfg.readout_flip_prob, cfg.initial_state)
    return inst, desc, y_ideal, params, law


def _gev_density_svg(minima: np.ndarray, entry: dict) -> str:
    """Histogram of the run minima under the entry's fitted law; the title
    names the hit count and the route the answer took, since with
    ``hit_rate`` the plotted law is not where the answer came from."""
    fit = entry["gev"]
    lo, hi = float(minima.min()), float(minima.max())
    pad = 0.1 * (hi - lo or 1.0)
    xs = np.linspace(lo - pad, hi + pad, 200)
    # fitted law lives in the negated (maxima) domain; map back to minima
    ys = gev_pdf(GevParams(fit["mu"], fit["sigma"], fit["xi"]), -xs)
    return histogram_with_curve(
        minima,
        xs,
        ys,
        title=(
            f"Fitted GEV density, s={entry['shots_s']} (hits {entry['hits']}/{minima.size} "
            f"at the baseline, answer via {entry['estimates'][0]['route']})"
        ),
        xlabel="per-run minimum energy",
    )


def answer_minima(minima_by_s: dict, y_ideal: float, alphas, jitter_seeds: dict) -> list[dict]:
    """One report entry per shots setting ``s``, from its run minima alone; no I/O.

    ``hits`` counts the runs in ``minima_by_s[s]`` that meet the baseline.
    The minima, jittered on ``jitter_seeds[s]``, get a GEV fit (``gev``) and
    one :func:`qevt.gev.estimate_runs` per alpha, whose ``route`` is
    ``hit_rate`` (success probability hits / runs, the mass of the atom at
    y_ideal) when any run met the baseline and ``gev`` (the fitted tail at
    y_ideal) when none did.  All-equal minima cannot be fitted; their entry
    holds ``breakdown`` and ``detail`` instead.
    """
    entries = []
    for shots_s, minima in minima_by_s.items():
        entry = {"shots_s": shots_s, "hits": count_hits(minima, y_ideal)}
        entries.append(entry)
        try:
            smoothed = jitter(minima, jitter_seeds[shots_s])
            fitted = fit_gev_minima(smoothed)
        except DegenerateSamplesError as exc:
            entry.update(breakdown=BREAKDOWN_DEGENERATE, detail=str(exc))
            continue
        entry["gev"] = {
            **asdict(fitted),
            "nll": gev_nll(fitted, -smoothed.values),
            "delta": smoothed.delta,
            "seed": smoothed.seed,
            "n_samples": int(smoothed.values.size),
        }
        entry["estimates"] = [
            asdict(estimate_runs(minima, fitted, y_ideal, alpha, shots_s)) for alpha in alphas
        ]
    return entries


def run_estimate(cfg: ExperimentConfig, out_dir) -> dict:
    """Full estimation pipeline; returns the report (also written to disk).

    Collects every shots setting's run minima, each on its own seed, before
    any fit; :func:`answer_minima` answers them; then ``extremes_s*.csv``,
    ``fit_s*.json``, ``gev_s*.svg`` and ``report.json`` are written from its
    entries, so a fit that raises leaves none of them.

    The report's ``status`` is "ok" or names a breakdown: "degenerate" (no
    output variability at some shots setting) or "unreachable" (zero
    success probability, infinite run count sentinel).
    """
    out = Path(out_dir)
    inst, desc, y_ideal, params, law = ensure_stage_artifacts(cfg, out)

    extremes_seeds = {s: derive_seed(cfg.seed, "extremes", s) for s in cfg.shots_grid}
    minima_by_s = {
        s: collect_extreme_samples(inst, params, s, cfg.runs, seed=seed, law=law)
        for s, seed in extremes_seeds.items()
    }
    jitter_seeds = {s: derive_seed(cfg.seed, "jitter", s) for s in cfg.shots_grid}
    entries = answer_minima(minima_by_s, y_ideal, cfg.alphas, jitter_seeds)

    for entry in entries:
        shots_s = entry["shots_s"]
        minima, seed = minima_by_s[shots_s], extremes_seeds[shots_s]
        entry["extremes_csv"] = f"extremes_s{shots_s}.csv"
        write_csv(
            out / entry["extremes_csv"],
            ["run_index", "seed", "min_energy", "shots_s"],
            [
                (r, derive_seed(seed, "extreme-run", r), repr(float(e)), shots_s)
                for r, e in enumerate(minima)
            ],
        )
        if "gev" in entry:
            write_json(out / f"fit_s{shots_s}.json", entry["gev"])
            entry["svg"] = f"gev_s{shots_s}.svg"
            (out / entry["svg"]).write_text(_gev_density_svg(minima, entry))

    status = STATUS_OK
    if any("breakdown" in entry for entry in entries):
        status = STATUS_DEGENERATE
    elif any(not math.isfinite(est["n_evt"]) for entry in entries for est in entry["estimates"]):
        status = STATUS_UNREACHABLE
    seeds = {"sa": derive_seed(cfg.seed, "sa"), "qaoa_opt": derive_seed(cfg.seed, "qaoa-opt")}
    seeds.update({f"extremes_s{s}": seed for s, seed in extremes_seeds.items()})
    report = {
        "instance": desc,
        "y_ideal": y_ideal,
        "qaoa_params": params.to_dict(),
        "noise": {"readout_flip_prob": cfg.readout_flip_prob},
        "runs": cfg.runs,
        "per_shots": entries,
        "status": status,
        "provenance": _provenance(cfg, seeds),
    }
    write_json(out / "report.json", report)
    return report


def _any_hit(p: float, tries: int) -> float:
    """P(at least one of ``tries`` independent tries succeeds), each with
    probability ``p``: 1 - (1 - p)^tries, accurate for small p."""
    return 1.0 if p >= 1.0 else -math.expm1(tries * math.log1p(-p))


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
    the confidence level near delta = 0.  Run minima are drawn from the exact
    per-run minimum law under the readout noise the report records, the
    noise the estimate was made under, and the provenance hashes ``cfg``
    with that noise in place of its own.  Each offset draws on its own seed,
    keyed by delta, so a point does not move with the requested range.

    Next to each ratio the payload gives ``exact_ratio``,
    1 - (1 - p_run)^runs, where ``p_run_exact`` is the exact probability that
    one run meets the baseline (same tolerance as the estimator).
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
    cfg = replace(cfg, readout_flip_prob=report["noise"]["readout_flip_prob"])
    inst = load_instance(out / "instance.json")
    params = QaoaParams.from_dict(report["qaoa_params"])
    law, probs, table = circuit_law(inst, params, cfg.readout_flip_prob, cfg.initial_state)
    p_run = _any_hit(float(probs[meets_baseline(table, y_ideal)].sum()), shots_s)

    lo, hi = delta_range
    if lo > hi:
        raise ConfigError("delta range must be non-empty")
    curve = []
    for delta in range(lo, hi + 1):
        runs_count = n_evt + delta
        if runs_count < 1:
            continue
        seed = derive_seed(cfg.seed, "validate", shots_s, delta)
        minima = run_minima_batch(
            None, inst, shots_s, runs_count * trials, seed=seed, law=law
        ).reshape(trials, runs_count)
        ratio = float(meets_baseline(minima.min(axis=1), y_ideal).mean())
        curve.append({"delta": delta, "runs": runs_count, "ratio": ratio,
                      "exact_ratio": _any_hit(p_run, runs_count)})

    tag = f"s{shots_s}_a{int(round(alpha * 100))}"
    write_csv(
        out / f"validate_{tag}.csv",
        ["delta", "runs", "ratio", "exact_ratio"],
        [(c["delta"], c["runs"], repr(c["ratio"]), repr(c["exact_ratio"])) for c in curve],
    )
    deltas = [c["delta"] for c in curve]
    svg = line_chart(
        [
            {"x": deltas, "y": [c["ratio"] for c in curve], "label": "empirical ratio"},
            {"x": deltas, "y": [c["exact_ratio"] for c in curve], "label": "exact ratio",
             "dashed": True},
        ],
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
        "p_run_exact": p_run,
        "curve": curve,
        "provenance": _provenance(cfg, {"validate": derive_seed(cfg.seed, "validate", shots_s, 0)}),
    }
    write_json(out / f"validate_{tag}.json", payload)
    return payload


def run_shot_sweep(cfg: ExperimentConfig, out_dir, reps: int = 20) -> dict:
    """Average per-run minimum across ``cfg.shots_grid``, against the SA baseline."""
    if reps < 1:
        raise ConfigError("reps must be positive")
    out = Path(out_dir)
    inst, _, y_ideal, _, law = ensure_stage_artifacts(cfg, out)

    points = []
    for shots_s in cfg.shots_grid:
        minima = run_minima_batch(
            None, inst, shots_s, reps, seed=derive_seed(cfg.seed, "sweep", shots_s), law=law
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
        "grid": list(cfg.shots_grid),
        "reps": reps,
        "y_ideal": y_ideal,
        "points": points,
        "high_variance": reps == 1,
        "provenance": _provenance(
            cfg, {"sweep": derive_seed(cfg.seed, "sweep", cfg.shots_grid[0])}
        ),
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
    ss_cfg = cfg.sample_size or sample_size_config(cfg.seed)
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
            inst, _, _, params, law = ensure_stage_artifacts(cfg, out)
            pool = collect_extreme_samples(
                inst, params, shots_s, cfg.pool_runs,
                seed=derive_seed(cfg.seed, "pool", shots_s), law=law,
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
