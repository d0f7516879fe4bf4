"""Command-line entry point.

Subcommands: generate, solve-sa, estimate, validate, shot-sweep, sample-size.
Every command but generate takes --config (an optional JSON experiment
config), --seed and --out-dir, and flags that override the config.  A flag
that overrides the config names the ``ExperimentConfig`` field it sets in
its argparse ``dest`` (``--noise`` sets ``readout_flip_prob``), and a field
of a nested block as ``block.field`` (``--n-min`` sets ``sample_size.n_min``,
``--n`` sets ``synthetic.n``).  ``_load_config`` applies each flag given.
--instance drops the config file's ``synthetic`` block and --n/--k/
--instance-seed its ``instance_path``; with neither, the instance is the
file's, else the output directory's ``instance.json``.  Only the commands
that read an instance need one (validate and sample-size --pool read none);
they refuse a config that names none.  Other flags are arguments of the
command itself.  Exit codes are part of the contract:

    0  success
    2  configuration error
    3  breakdown: degenerate outputs (no variability in the extreme samples)
    4  breakdown: unreachable target (zero success probability)
    5  I/O error
    6  output directory locked by another invocation
    1  anything unexpected
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from contextlib import suppress
from dataclasses import fields
from functools import partial
from pathlib import Path

from . import __version__
from .errors import (
    ConfigError,
    DegenerateSamplesError,
    EstimationImpossibleError,
    InstanceFormatError,
    OutputLockedError,
    QevtError,
)
from .pipeline import (
    STATUS_DEGENERATE,
    STATUS_UNREACHABLE,
    ExperimentConfig,
    SyntheticSpec,
    run_estimate,
    run_generate,
    run_sample_size,
    run_shot_sweep,
    run_solve_sa,
    run_validate,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_CONFIG = 2
EXIT_DEGENERATE = 3
EXIT_UNREACHABLE = 4
EXIT_IO = 5
EXIT_LOCKED = 6

LOCK_NAME = ".qevt.lock"
CONFIG_FIELDS = frozenset(f.name for f in fields(ExperimentConfig))


class _Lock:
    """Exclusive marker file; concurrent runs on one output directory are
    unsupported and fail fast instead of corrupting artifacts.  If the lock
    created the output directory, it removes that directory again when the
    command left it empty; a failed removal never hides the command's own
    result."""

    def __init__(self, out_dir: Path):
        self.path = out_dir / LOCK_NAME
        self.created = False

    def __enter__(self):
        self.created = not self.path.parent.exists()
        self.path.parent.mkdir(parents=True, exist_ok=True)
        try:
            fd = os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            raise OutputLockedError(
                f"output directory is locked by another invocation ({self.path}); "
                "remove the lock file if that run is gone"
            ) from None
        os.write(fd, f"pid={os.getpid()}\n".encode())
        os.close(fd)
        return self

    def __exit__(self, *exc_info):
        self.path.unlink(missing_ok=True)
        if self.created:
            with suppress(OSError):  # not empty, or already gone
                self.path.parent.rmdir()
        return False


def _add_common(parser):
    parser.add_argument("--config", type=Path, help="JSON experiment config file")
    parser.add_argument("--seed", type=int, help="master seed override")
    parser.add_argument("--out-dir", type=Path, default=Path("out"), help="output directory")


def _add_instance_flags(parser):
    parser.add_argument("--instance", dest="instance_path", help="instance file (.json or .csv)")
    parser.add_argument("--n", dest="synthetic.n", type=int, help="synthetic instance size")
    parser.add_argument("--k", dest="synthetic.k", type=int, help="synthetic cardinality target")
    parser.add_argument("--instance-seed", dest="synthetic.seed", type=int, help="generator seed")


def build_parser() -> argparse.ArgumentParser:
    # no prefix matching: validate has no --n, and must not read it as --n-evt
    parser = argparse.ArgumentParser(
        prog="qevt",
        description="Estimate quantum run counts against a simulated-annealing baseline",
        allow_abbrev=False,
    )
    parser.add_argument("--version", action="version", version=f"qevt {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    command = partial(sub.add_parser, allow_abbrev=False)

    p = command("generate", help="write a synthetic instance file")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--magnitude", type=float, default=0.05)
    p.add_argument("--signal-to-noise", type=float, default=3.0)
    p.add_argument("-o", "--output", type=Path, required=True)

    p = command("solve-sa", help="run the simulated-annealing baseline")
    _add_common(p)
    _add_instance_flags(p)
    p.add_argument("--sweeps", dest="sa.sweeps", type=int)
    p.add_argument("--restarts", dest="sa.restarts", type=int)

    p = command("estimate", help="full pipeline: baseline, QAOA, fits, run counts")
    _add_common(p)
    _add_instance_flags(p)
    p.add_argument("--shots", dest="shots_grid", type=int, nargs="+", help="shots grid override")
    p.add_argument("--runs", type=int, help="extreme samples per shots setting")
    p.add_argument("--alpha", dest="alphas", type=float, nargs="+", help="confidence levels")
    p.add_argument("--noise", dest="readout_flip_prob", type=float,
                   help="readout flip probability")
    p.add_argument("--depth", dest="qaoa_depth", type=int, help="circuit depth")
    p.add_argument("--y-ideal", dest="y_ideal_override", type=float,
                   help="override the baseline energy")

    p = command("validate", help="empirical check of an estimated run count")
    _add_common(p)
    p.add_argument("--shots", type=int, required=True, help="shots setting to validate")
    p.add_argument("--alpha", type=float, default=0.95)
    p.add_argument("--n-evt", type=int, help="run count to probe (default: from the report)")
    p.add_argument("--delta-min", type=int, default=-3)
    p.add_argument("--delta-max", type=int, default=3)
    p.add_argument("--trials", type=int, default=500)

    p = command("shot-sweep", help="average best energy across a shots grid")
    _add_common(p)
    _add_instance_flags(p)
    p.add_argument("--shots", dest="shots_grid", type=int, nargs="+", help="grid override")
    p.add_argument("--reps", type=int, default=20)

    p = command("sample-size", help="estimate how many extreme samples a fit needs")
    _add_common(p)
    _add_instance_flags(p)
    p.add_argument("--pool", type=Path, help="extreme-sample CSV (min_energy column)")
    p.add_argument("--shots", type=int, help="shots setting for pool lookup/collection")
    p.add_argument("--n-min", dest="sample_size.n_min", type=int)
    p.add_argument("--n-max", dest="sample_size.n_max", type=int)
    p.add_argument("--inner-draws", dest="sample_size.inner_draws", type=int)
    p.add_argument("--outer-reps", dest="sample_size.outer_reps", type=int)
    p.add_argument("--stride", dest="sample_size.stride", type=int)
    return parser


def _load_config(args) -> ExperimentConfig:
    payload = {}
    if getattr(args, "config", None):
        try:
            payload = json.loads(Path(args.config).read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{args.config}: invalid JSON ({exc})") from exc
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        if not isinstance(payload, dict):
            raise ConfigError(f"{args.config} must hold a JSON object, got {payload!r}")

    flags = {dest: value for dest, value in vars(args).items()
             if value is not None and dest.partition(".")[0] in CONFIG_FIELDS}
    if "instance_path" in flags:
        payload.pop("synthetic", None)
    elif any(dest.startswith("synthetic.") for dest in flags):
        payload.pop("instance_path", None)
    elif not payload.get("instance_path") and not payload.get("synthetic"):
        # commands operating on a populated output directory reuse its instance
        persisted = Path(args.out_dir) / "instance.json"
        if persisted.exists():
            payload["instance_path"] = str(persisted)

    for dest, value in flags.items():
        block, _, name = dest.rpartition(".")
        if block:
            # a block that is no JSON object is left for from_dict to refuse
            current = {} if payload.get(block) is None else payload[block]
            payload[block] = {**current, name: value} if isinstance(current, dict) else current
        else:
            payload[dest] = value
    return ExperimentConfig.from_dict(payload)


def _dispatch(args) -> int:
    if args.command == "generate":
        spec = SyntheticSpec(
            n=args.n,
            k=args.k,
            seed=args.seed,
            magnitude=args.magnitude,
            signal_to_noise=args.signal_to_noise,
        )
        info = run_generate(spec, args.output)
        print(f"wrote {info['path']} (n={info['n']}, k={info['k']})")
        if "optimum" in info:
            print(f"brute-force optimum: energy={info['optimum']['energy']:.6g} "
                  f"bits={''.join(map(str, info['optimum']['bits']))}")
        return EXIT_OK

    cfg = _load_config(args)
    out_dir = Path(args.out_dir)
    with _Lock(out_dir):
        if args.command == "solve-sa":
            payload = run_solve_sa(cfg, out_dir)
            print(f"SA baseline energy: {payload['energy']:.6g}")
            return EXIT_OK
        if args.command == "estimate":
            report = run_estimate(cfg, out_dir)
            for entry in report["per_shots"]:
                if "breakdown" in entry:
                    print(f"shots={entry['shots_s']}: breakdown ({entry['breakdown']})")
                    continue
                for est in entry["estimates"]:
                    n_evt = est["n_evt"]
                    shown = "inf" if not isinstance(n_evt, int) and not math.isfinite(n_evt) else n_evt
                    print(
                        f"shots={entry['shots_s']} alpha={est['alpha']:g}: "
                        f"p={est['success_prob']:.4g} n_evt={shown} via {est['route']} "
                        f"(hits {entry['hits']}/{report['runs']}, "
                        f"fitted p={est['fitted_prob']:.4g})"
                    )
            print(f"status: {report['status']}")
            if report["status"] == STATUS_DEGENERATE:
                return EXIT_DEGENERATE
            if report["status"] == STATUS_UNREACHABLE:
                return EXIT_UNREACHABLE
            return EXIT_OK
        if args.command == "validate":
            payload = run_validate(
                cfg,
                out_dir,
                shots_s=args.shots,
                alpha=args.alpha,
                delta_range=(args.delta_min, args.delta_max),
                trials=args.trials,
                n_evt=args.n_evt,
            )
            for point in payload["curve"]:
                print(f"delta={point['delta']:+d} runs={point['runs']}: ratio={point['ratio']:.3f} "
                      f"(exact {point['exact_ratio']:.3f})")
            return EXIT_OK
        if args.command == "shot-sweep":
            payload = run_shot_sweep(cfg, out_dir, reps=args.reps)
            for point in payload["points"]:
                print(f"shots={point['shots_s']}: mean min energy {point['mean_min_energy']:.6g}")
            if payload["high_variance"]:
                print("warning: single repetition per point, curve is high-variance")
            return EXIT_OK
        if args.command == "sample-size":
            payload = run_sample_size(cfg, out_dir, pool_path=args.pool, shots_s=args.shots)
            result = payload["result"]
            print(
                f"n_estimate={result['n_estimate']} "
                f"(n_ht2={result['n_ht2']}, n_mst={result['n_mst']}, "
                f"flags={result['flags'] or 'none'})"
            )
            return EXIT_OK
    raise AssertionError(f"unhandled command {args.command}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except OutputLockedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_LOCKED
    except (ConfigError, InstanceFormatError, ValueError) as exc:
        if isinstance(exc, DegenerateSamplesError):
            print(f"breakdown: {exc}", file=sys.stderr)
            return EXIT_DEGENERATE
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except EstimationImpossibleError as exc:
        print(f"estimation impossible: {exc}", file=sys.stderr)
        for n, (failed, attempted) in sorted(exc.failure_table.items()):
            print(f"  n={n}: {failed}/{attempted} fits failed", file=sys.stderr)
        return EXIT_DEGENERATE
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except QevtError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
