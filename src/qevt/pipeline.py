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
from .annealing import SaConfig, default_sa_config, simulated_annealing
from .errors import ConfigError, DegenerateSamplesError
from .gev import (
    BASELINE_RTOL,
    GevParams,
    count_hits,
    estimate_runs,
    fit_gev_minima_batch,
    gev_nll,
    gev_pdf,
    jitter,
    meets_baseline,  # noqa: F401  -- imported from here by the benchmark
)
from .qaoa import (
    NoiseConfig,
    OptimizerConfig,
    QaoaParams,
    circuit_law,
    collect_extreme_samples,
    extreme_run_seeds,
    optimize_parameters,
    run_hit_probability,
    run_minima_batch,
)
from .qubo import (
    QuboInstance,
    brute_force_minimum,
    check_qubits,
    generate_synthetic_q,
    load_instance,
    qubo_energy,
    save_instance,
)
from .sample_size import SampleSizeConfig, estimate_required_extremes, reference_parameters
from .seeding import derive_seed
from .svg import histogram_with_curve, line_chart
from .utils import (
    INTEGER,
    OPEN_UNIT,
    POSITIVE_INTEGER,
    check_rules,
    is_integer,
    is_number,
    jsonable,
)

STATUS_OK = "ok"
STATUS_DEGENERATE = "degenerate"
STATUS_UNREACHABLE = "unreachable"

BREAKDOWN_DEGENERATE = "degenerate_samples"

_NUMBER = (is_number, "a number")
_FINITE = (lambda v: is_number(v) and math.isfinite(v), "a finite number")


def _each(test):
    """The test of a non-empty list whose every item passes ``test``."""
    return lambda v: isinstance(v, (list, tuple)) and len(v) > 0 and all(map(test, v))


@dataclass(frozen=True)
class SyntheticSpec:
    n: int
    k: int | None = None
    seed: int = 0
    magnitude: float = 0.05
    signal_to_noise: float = 3.0
    penalty_weight: float = 1.0

    # types only: generate_synthetic_q checks the values
    RULES = {
        "n": INTEGER,
        "k": (lambda v: v is None or is_integer(v), "an integer or null"),
        "seed": INTEGER,
        "magnitude": _NUMBER,
        "signal_to_noise": _NUMBER,
        "penalty_weight": _NUMBER,
    }

    def __post_init__(self):
        check_rules(vars(self), self.RULES, "synthetic")

    def build(self) -> QuboInstance:
        return generate_synthetic_q(**asdict(self))


_ONE_SOURCE = "exactly one of instance_path / synthetic must be set"


@dataclass(frozen=True)
class ExperimentConfig:
    instance_path: str | None = None
    synthetic: SyntheticSpec | None = None
    sa: dict | None = None                 # overrides for default_sa_config
    qaoa_depth: int = 3
    qaoa_restarts: int = 10
    qaoa_maxiter: int = 200
    initial_state: str = "minus"
    readout_flip_prob: float = 0.0
    shots_grid: tuple = (500, 1000, 2000)
    runs: int = 200
    alphas: tuple = (0.90, 0.95)
    sample_size: SampleSizeConfig | None = None
    pool_runs: int = 1000                  # fresh-pool size for sample-size runs
    y_ideal_override: float | None = None
    seed: int = 0

    RULES = {
        "instance_path": (lambda v: v is None or isinstance(v, str), "a path or null"),
        "synthetic": (lambda v: v is None or isinstance(v, SyntheticSpec), "a block or null"),
        "sa": (lambda v: v is None or isinstance(v, dict), "a JSON object or null"),
        "qaoa_depth": POSITIVE_INTEGER,
        "qaoa_restarts": OptimizerConfig.RULES["restarts"],
        "qaoa_maxiter": OptimizerConfig.RULES["maxiter"],
        "initial_state": OptimizerConfig.RULES["initial_state"],
        "readout_flip_prob": NoiseConfig.RULES["readout_flip_prob"],
        "shots_grid": (_each(POSITIVE_INTEGER[0]), "non-empty positive integers"),
        "runs": SampleSizeConfig.RULES["n_min"],
        "alphas": (_each(OPEN_UNIT[0]), "non-empty numbers in (0, 1)"),
        "sample_size": (lambda v: v is None or isinstance(v, SampleSizeConfig), "a block or null"),
        "pool_runs": POSITIVE_INTEGER,
        "y_ideal_override": (lambda v: v is None or _FINITE[0](v), "a finite number or null"),
        "seed": INTEGER,
    }

    def __post_init__(self):
        if self.instance_path is not None and self.synthetic is not None:
            raise ConfigError(_ONE_SOURCE)
        check_rules(vars(self), self.RULES, "config")
        for name in ("shots_grid", "alphas"):
            settings = getattr(self, name)
            if len(set(settings)) < len(settings):
                raise ConfigError(f"{name} repeats a setting: {list(settings)}")
        check_rules(_known_fields(SaConfig, self.sa or {}, "sa"), SaConfig.RULES, "sa")
        object.__setattr__(self, "shots_grid", tuple(int(s) for s in self.shots_grid))
        object.__setattr__(self, "alphas", tuple(float(a) for a in self.alphas))

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "ExperimentConfig":
        payload = dict(_known_fields(cls, payload, "config"))
        if payload.get("synthetic") is not None:
            spec = _known_fields(SyntheticSpec, payload["synthetic"], "synthetic")
            if "n" not in spec:
                raise ConfigError("a synthetic instance needs its size n")
            payload["synthetic"] = SyntheticSpec(**spec)
        # the sample_size block's default seed derives from the master seed,
        # which the config checks first
        block = payload.pop("sample_size", None)
        cfg = cls(**payload)
        return cfg if block is None else replace(cfg, sample_size=sample_size_config(cfg.seed, block))

    def config_hash(self) -> str:
        canonical = json.dumps(jsonable(self.to_dict()), sort_keys=True)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _known_fields(cls, payload, block: str) -> dict:
    """``payload``, refused with ConfigError if it is not a JSON object or a
    key is not a field of ``cls``."""
    if not isinstance(payload, dict):
        raise ConfigError(f"{block} must be a JSON object, got {payload!r}")
    extra = set(payload) - {f.name for f in fields(cls)}
    if extra:
        raise ConfigError(f"unknown {block} fields: {sorted(extra)}")
    return payload


def sample_size_config(master_seed: int, block: dict | None = None) -> SampleSizeConfig:
    """The bootstrap's config from a ``sample_size`` block.  A block that
    names no ``seed``, or no block at all, draws on the master seed's
    "sample-size" stream."""
    block = _known_fields(SampleSizeConfig, {} if block is None else block, "sample_size")
    return SampleSizeConfig(**{"seed": derive_seed(master_seed, "sample-size"), **block})


def write_json(path, payload) -> None:
    Path(path).write_text(
        json.dumps(jsonable(payload), indent=2, sort_keys=True, allow_nan=False) + "\n"
    )


def read_json(path) -> dict:
    return json.loads(Path(path).read_text())


def _read_stage_file(path: Path, rules: dict) -> dict:
    """The JSON object of a stage file, refused with ConfigError naming the
    file and the field when it is no object, lacks a field of ``rules`` or
    holds one that breaks its rule."""
    payload = read_json(path)
    missing = [key for key in rules if not isinstance(payload, dict) or key not in payload]
    if missing:
        raise ConfigError(
            f"{path} records no {' or '.join(missing)}; rerun the command that writes it "
            "in a fresh output directory"
        )
    check_rules({key: payload[key] for key in rules}, rules, str(path))
    return payload


# the fields each stage file is read for, one rule each
_ANGLES = (_each(_FINITE[0]), "a non-empty list of finite numbers")
_BASELINE_FIELDS = {
    "x": (_each(lambda b: is_integer(b) and b in (0, 1)), "a non-empty list of 0/1 bits"),
    "energy": _FINITE,
}
_PARAMS_FIELDS = {"depth_p": POSITIVE_INTEGER, "gammas": _ANGLES, "betas": _ANGLES}
_REPORT_FIELDS = {
    # jsonable writes a log_miss of -inf, every level meeting the baseline, as "-inf"
    "log_miss_per_shot": (lambda v: v == "-inf" or is_number(v) and v <= 0,
                          'a number <= 0 or "-inf"'),
    "initial_state": OptimizerConfig.RULES["initial_state"],
    "y_ideal": _FINITE,
    "noise": (lambda v: isinstance(v, dict)
              and NoiseConfig.RULES["readout_flip_prob"][0](v.get("readout_flip_prob")),
              "an object with a readout_flip_prob in [0, 0.5]"),
}

# read too when validate takes its run count from the report
_ESTIMATES = _each(lambda e: isinstance(e, dict) and is_number(e.get("alpha")) and "n_evt" in e)
_PER_SHOTS_FIELD = {
    "per_shots": (_each(lambda e: isinstance(e, dict) and is_integer(e.get("shots_s"))
                        and ("breakdown" in e or _ESTIMATES(e.get("estimates")))),
                  "a non-empty list of entries with a shots_s and a breakdown or estimates "
                  "(each with alpha and n_evt)"),
}


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
    """The instance ``cfg`` names and its description; a config that names
    none is refused here, since only the commands that read an instance
    need one."""
    if cfg.instance_path is None and cfg.synthetic is None:
        raise ConfigError(_ONE_SOURCE)
    if cfg.instance_path is not None:
        inst = load_instance(cfg.instance_path)
        return inst, {"source": "file", "path": cfg.instance_path, "n": inst.n, "k": inst.k}
    inst = cfg.synthetic.build()
    return inst, {"source": "synthetic", "n": inst.n, "k": inst.k, "seed": cfg.synthetic.seed}


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
    inst, desc = resolve_instance(cfg)
    _check_stage_instance(inst, Path(out_dir))
    return _solve_sa(cfg, inst, desc, Path(out_dir))


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


def _check_stage_instance(inst: QuboInstance, out: Path) -> None:
    """Refuse, with ConfigError, an ``instance.json`` in ``out`` that holds
    another instance than ``inst`` (``n``, ``k``, ``penalty_weight`` or ``q``
    differ): the stage files beside it belong to that instance."""
    inst_path = out / "instance.json"
    if not inst_path.exists():
        return
    stored = load_instance(inst_path)
    same = (stored.n, stored.k, stored.penalty_weight) == (inst.n, inst.k, inst.penalty_weight)
    if not (same and np.array_equal(stored.q, inst.q)):
        raise ConfigError(
            f"{inst_path} holds another instance than the config names; "
            "use a fresh output directory"
        )


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
    instance and written.  An ``instance.json`` of another instance, a
    ``baseline.json`` whose bitstring does not score its recorded energy on
    this one, and a ``baseline.json`` or ``qaoa_params.json`` that lacks a
    field or holds one that breaks its rule are refused with ConfigError
    before anything runs or is written, and so is an instance wider than the
    circuit simulator takes (CapacityError).  ``y_ideal`` is
    ``cfg.y_ideal_override`` when set.  ``law`` is the circuit's
    :class:`~qevt.qaoa.RunMinimumLaw` under ``cfg``'s readout noise, built
    once for all of the command's draws.
    """
    out = Path(out_dir)
    inst, desc = resolve_instance(cfg)
    check_qubits(inst.n)
    _check_stage_instance(inst, out)
    baseline_path = out / "baseline.json"
    baseline = _read_stage_file(baseline_path, _BASELINE_FIELDS) if baseline_path.exists() else None
    if baseline is not None and not _baseline_of(inst, baseline):
        raise ConfigError(
            f"{baseline_path} holds the baseline of another instance than the config "
            "names; use a fresh output directory"
        )
    params_path = out / "qaoa_params.json"
    params = None
    if params_path.exists():
        stored = _read_stage_file(params_path, _PARAMS_FIELDS)
        lengths = (len(stored["gammas"]), len(stored["betas"]))
        if lengths != (stored["depth_p"],) * 2:
            raise ConfigError(
                f"{params_path}: gammas and betas must each have length depth_p "
                f"({stored['depth_p']}), got {lengths[0]} and {lengths[1]}"
            )
        params = QaoaParams.from_dict(stored)
    inst_path = out / "instance.json"
    if not inst_path.exists():
        out.mkdir(parents=True, exist_ok=True)
        save_instance(inst, inst_path)

    if baseline is not None:
        y_ideal = float(baseline["energy"])
    else:
        y_ideal = _solve_sa(cfg, inst, desc, out)["energy"]
    if cfg.y_ideal_override is not None:
        y_ideal = float(cfg.y_ideal_override)

    if params is None:
        optimizer = OptimizerConfig(restarts=cfg.qaoa_restarts, maxiter=cfg.qaoa_maxiter,
                                    seed=derive_seed(cfg.seed, "qaoa-opt"),
                                    initial_state=cfg.initial_state)
        params = optimize_parameters(inst, cfg.qaoa_depth, optimizer)
        write_json(params_path, params.to_dict())
    law = circuit_law(inst, params, cfg.readout_flip_prob, cfg.initial_state)
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


def answer_minima(draws, y_ideal: float, alphas) -> list[dict]:
    """One report entry per draw ``(shots_s, minima, jitter_seed)``, in order; no I/O.

    ``hits`` counts the runs that meet the baseline.  All draws' minima,
    jittered on their ``jitter_seed``, are fitted in one batch (``gev``)
    and get one :func:`qevt.gev.estimate_runs` per alpha, whose ``route`` is
    ``hit_rate`` (hits / runs, the mass of the atom at y_ideal) when any run
    met the baseline and ``gev`` (the fitted tail) when none did.  All-equal
    minima cannot be fitted; their entry holds ``breakdown`` and ``detail``
    instead.  Any other failed fit raises, the first in draw order.
    """
    entries, jittered = [], []
    for shots_s, minima, jitter_seed in draws:
        entry = {"shots_s": shots_s, "hits": count_hits(minima, y_ideal)}
        entries.append(entry)
        try:
            jittered.append((entry, shots_s, minima, jitter(minima, jitter_seed)))
        except DegenerateSamplesError as exc:
            entry.update(breakdown=BREAKDOWN_DEGENERATE, detail=str(exc))
    fits = fit_gev_minima_batch([smoothed for *_, smoothed in jittered])
    for (entry, shots_s, minima, smoothed), fitted in zip(jittered, fits):
        if isinstance(fitted, Exception):
            raise fitted
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

    Collects every shots setting's run minima, each on its own seed, as one
    list of draws before any fit; :func:`answer_minima` answers them; then
    ``extremes_s*.csv``, ``fit_s*.json``, ``gev_s*.svg`` and ``report.json``
    are written from its entries, so a fit that raises leaves none of them.

    Next to each answer the report gives the circuit law's exact values:
    ``p_run_exact`` per shots setting and ``n_exact`` per estimate.  It also
    records ``log_miss_per_shot``, the law's log-probability that one shot
    misses the baseline, which is all :func:`run_validate` needs of the law.

    The report's ``status`` is "ok" or names a breakdown: "degenerate" (no
    output variability at some shots setting) or "unreachable" (zero
    success probability, infinite run count sentinel).
    """
    out = Path(out_dir)
    inst, desc, y_ideal, params, law = ensure_stage_artifacts(cfg, out)

    extremes_seeds = {s: derive_seed(cfg.seed, "extremes", s) for s in cfg.shots_grid}
    draws = [
        (s, collect_extreme_samples(inst, law, s, cfg.runs, seed),
         derive_seed(cfg.seed, "jitter", s))
        for s, seed in extremes_seeds.items()
    ]
    entries = answer_minima(draws, y_ideal, cfg.alphas)

    for entry, (shots_s, minima, _), seed in zip(entries, draws, extremes_seeds.values()):
        entry["p_run_exact"] = law.p_run(y_ideal, shots_s)
        for est in entry.get("estimates", ()):
            est["n_exact"] = law.n_exact(y_ideal, shots_s, est["alpha"])
        entry["extremes_csv"] = f"extremes_s{shots_s}.csv"
        write_csv(
            out / entry["extremes_csv"],
            ["run_index", "seed", "min_energy", "shots_s"],
            [
                (r, run_seed, repr(float(e)), shots_s)
                for r, (run_seed, e) in enumerate(zip(extreme_run_seeds(seed, minima.size), minima))
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
        "initial_state": cfg.initial_state,
        "log_miss_per_shot": law.log_miss(y_ideal),
        "runs": cfg.runs,
        "per_shots": entries,
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
    the confidence level near delta = 0.  Each offset draws on its own seed,
    keyed by delta, so a point does not move with the requested range.

    Runs are drawn from the law the estimate was made under (its circuit,
    readout noise and initial state) through the one number of it the
    report records, ``log_miss_per_shot``: a run meets the baseline exactly
    when its uniform lies below ``p_run_exact``, the hit probability of
    shots_s shots.  :meth:`~qevt.qaoa.RunMinimumLaw.draw` would give the
    same hits from the same uniforms, so no circuit is rebuilt.  A report
    without that field, or another one read here (``per_shots`` when
    ``n_evt`` is not given), is refused with ConfigError.  The provenance
    hashes ``cfg`` with the report's noise and initial state in place of its
    own.

    Next to each ratio the payload gives ``exact_ratio``, the probability
    that the best of ``runs`` runs meets the baseline: the same formula at
    ``runs * shots_s`` shots.
    """
    check_rules({"shots_s": shots_s, "alpha": alpha, "trials": trials, "n_evt": n_evt},
                {"shots_s": POSITIVE_INTEGER, "alpha": OPEN_UNIT, "trials": POSITIVE_INTEGER,
                 "n_evt": (lambda v: v is None or POSITIVE_INTEGER[0](v), "a positive integer")},
                "validate")
    out = Path(out_dir)
    report_path = out / "report.json"
    if not report_path.exists():
        raise ConfigError(f"no estimate report at {report_path}; run the estimate command first")
    report = _read_stage_file(
        report_path, _REPORT_FIELDS if n_evt is not None else {**_REPORT_FIELDS, **_PER_SHOTS_FIELD}
    )
    log_miss = float(report["log_miss_per_shot"])
    y_ideal = float(report["y_ideal"])
    if n_evt is None:
        raw = _report_estimate(report, shots_s, alpha)["n_evt"]
        if not isinstance(raw, (int, float)) or not math.isfinite(raw):
            raise ConfigError(
                f"estimated n_evt at shots_s={shots_s}, alpha={alpha} is not finite; "
                "the target is unreachable and cannot be validated"
            )
        n_evt = int(raw)
    cfg = replace(cfg, readout_flip_prob=report["noise"]["readout_flip_prob"],
                  initial_state=report["initial_state"])
    p_run = run_hit_probability(log_miss, shots_s)

    lo, hi = delta_range
    if lo > hi or n_evt + hi < 1:
        raise ConfigError(f"delta range [{lo}, {hi}] leaves no positive run count at n_evt={n_evt}")
    curve = []
    for delta in range(lo, hi + 1):
        runs_count = n_evt + delta
        if runs_count < 1:
            continue
        seed = derive_seed(cfg.seed, "validate", shots_s, delta)
        uniforms = np.random.default_rng(seed).random(runs_count * trials)
        hits = (uniforms.reshape(trials, runs_count) < p_run).any(axis=1)
        curve.append({"delta": delta, "runs": runs_count, "ratio": float(hits.mean()),
                      "exact_ratio": run_hit_probability(log_miss, shots_s * runs_count)})

    tag = f"s{shots_s}_a{alpha * 100:g}"
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
    check_rules({"reps": reps}, {"reps": POSITIVE_INTEGER}, "shot-sweep")
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


def _pool_value(path, row: int, cell) -> float:
    """Data row ``row``'s ``min_energy`` cell as a finite float; a missing,
    non-numeric or non-finite cell is refused with ConfigError."""
    try:
        value = float(cell)
    except (TypeError, ValueError):  # None when the row is short
        value = math.nan
    if not math.isfinite(value):
        found = "no min_energy" if cell is None else f"min_energy {cell!r}"
        raise ConfigError(f"{path}: data row {row} has {found}; each row needs a finite one")
    return value


def _load_pool_csv(path) -> np.ndarray:
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or "min_energy" not in reader.fieldnames:
            raise ConfigError(f"{path}: expected a CSV with a min_energy column")
        values = np.array([_pool_value(path, row, cells["min_energy"])
                           for row, cells in enumerate(reader, 1)])
    if not values.size:
        raise ConfigError(f"{path}: pool CSV is empty")
    return values


def run_sample_size(
    cfg: ExperimentConfig,
    out_dir,
    pool_path=None,
    shots_s: int | None = None,
) -> dict:
    """Sample-size procedure on an extreme-value pool.

    Pool resolution order: explicit CSV path, then an existing extremes CSV
    for ``shots_s`` (by default the first of ``cfg.shots_grid``) in the output
    directory, then a fresh collection of ``cfg.pool_runs`` runs.
    """
    shots_s = cfg.shots_grid[0] if shots_s is None else shots_s
    check_rules({"shots_s": shots_s}, {"shots_s": POSITIVE_INTEGER}, "sample-size")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    ss_cfg = cfg.sample_size or sample_size_config(cfg.seed)
    if pool_path is not None:
        pool = _load_pool_csv(pool_path)
        pool_source = {"kind": "csv", "path": str(pool_path)}
    else:
        existing = out / f"extremes_s{shots_s}.csv"
        if existing.exists():
            pool = _load_pool_csv(existing)
            pool_source = {"kind": "csv", "path": existing.name}
        else:
            inst, _, _, _, law = ensure_stage_artifacts(cfg, out)
            pool = collect_extreme_samples(
                inst, law, shots_s, cfg.pool_runs, derive_seed(cfg.seed, "pool", shots_s)
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
