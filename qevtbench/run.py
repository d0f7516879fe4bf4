"""qevt benchmark: time to answer and estimator accuracy on three workloads.

Run from the root of a source checkout:

    python3 qevtbench/run.py --workload estimate-n12-cold --seed 1 --seconds 12 --trace 0

The benchmark imports ``qevt`` from the checkout's ``src`` directory and
pins it and BLAS to one thread.  It builds the workload's inputs from
``--seed``, repeats one operation through the public pipeline entry points
for ``--seconds`` seconds (each into a fresh output directory inside the
checkout), checks every operation's outputs, prints each metric with its
unit and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced operations and reports the per-layer metrics, the
tracing overhead among them.  The exit code is 0 only when every check
passed.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

# one thread everywhere, before numpy loads a BLAS
os.environ.update(
    {k: "1" for k in ("QEVT_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
)

ROOT = Path(__file__).resolve().parents[1]
WORK_DIR = ROOT / ".qevtbench_work"
TRACE_DIR = ROOT / ".qevtbench_out"
SETUP_PROBES = 5
MIN_OPS = 2
PROBE_TIMEOUT_S = 60


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only import qevt and build the inputs (timed by the parent run)")
    return parser.parse_args(argv)


def use_checkout_sources():
    """Put the checkout's sources first on the path; fail without them."""
    src = ROOT / "src"
    if not (src / "qevt" / "__init__.py").is_file():
        raise SystemExit(f"no qevt sources under {src}; run from a source checkout")
    sys.path[:0] = [str(src), str(ROOT)]


def measure_setup(args) -> list[float]:
    """Fresh interpreter -> import qevt -> workload inputs, several times."""
    cmd = [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
           "--setup-probe"]
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        probe = subprocess.Popen(cmd, cwd=ROOT)
        # a blocking wait ends when the probe does; subprocess's own timeout
        # polls, which rounds the time up to the next 50 ms
        timer = threading.Timer(PROBE_TIMEOUT_S, probe.kill)
        timer.start()
        code = probe.wait()
        times.append(time.perf_counter() - start)
        timer.cancel()
        if code != 0:
            raise SystemExit(f"set-up probe exited with code {code}")
    return times


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_ops(workload, run_dir: Path, seconds: float, alternate_traced: bool = False):
    """Repeat the operation for ``seconds`` (at least MIN_OPS times).

    With ``alternate_traced`` every second operation runs under a tracer, and
    at least MIN_OPS operations run each way.  The first operation's output
    directory is kept for ``Workload.replicate``.  Returns (wall seconds,
    outcome, trace or None) per operation.
    """
    from qevtbench.trace import Tracer

    records = []
    start = time.perf_counter()
    i = 0
    while i < MIN_OPS * (1 + alternate_traced) or time.perf_counter() - start < seconds:
        out = run_dir / f"op{i}"
        if alternate_traced and i % 2 == 1:
            with Tracer() as tracer:
                wall = workload.run(out)
            trace = tracer.trace
        else:
            wall, trace = workload.run(out), None
        records.append((wall, workload.check(out), trace))
        if i > 0:
            shutil.rmtree(out)
        i += 1
    return records


def layer_metrics(records) -> dict:
    """Per-layer metrics per traced operation, plus the tracing overhead."""
    from qevtbench.workloads import hit_fraction

    traced = [(wall, outcome, trace) for wall, outcome, trace in records if trace is not None]
    traces = [trace for _, _, trace in traced]
    ops = len(traced)

    def total(key):
        return sum(t.counts.get(key, 0.0) for t in traces)

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    for name in ("qubo.energy_table", "qubo.ising_energy_table", "qaoa.circuit_state",
                 "qaoa.sample_shots", "gev.fit_gev_minima", "stats.mvsw_null_stats"):
        m[f"{name}.calls"] = (sum(t.calls(name) for t in traces) / ops, "count")
    for name in ("qubo.energy_table", "qubo.ising_energy_table", "qaoa.optimize_parameters",
                 "qaoa.circuit_state", "qaoa.collect_extreme_samples", "qaoa.sample_shots",
                 "qaoa.run_minima_batch", "annealing.simulated_annealing", "gev.fit_gev_minima",
                 "gev.jitter", "stats.mvsw_null_stats", "stats.hotelling_t2",
                 "stats.shapiro_wilk_multivariate", "sample_size.estimate_required_extremes",
                 "pipeline.io", "svg"):
        m[f"{name}.self_s"] = (sum(t.self_s(name) for t in traces) / ops, "s")
    evals = sum(t.child_calls("qaoa.circuit_state", "qaoa.optimize_parameters") for t in traces)
    m["qaoa.optimize_parameters.objective_evals"] = (evals / ops, "count")
    m["qaoa.shots_drawn"] = (total("qaoa.shots_drawn") / ops, "count")
    hits = [hit_fraction(t.minima, outcome.thresholds) for _, outcome, t in traced]
    m["qaoa.runs_hit_frac"] = (ratio(sum(h for h, _ in hits), sum(n for _, n in hits)), "ratio")
    m["annealing.flips_proposed"] = (total("annealing.flips_proposed") / ops, "count")
    m["gev.fit_gev_minima.failed"] = (total("gev.fit_gev_minima.failed") / ops, "count")
    m["gev.fit_gev_minima.nfev"] = (total("gev.fit_gev_minima.nfev") / ops, "count")
    m["gev.fit.distinct_values"] = (
        ratio(total("gev.jitter.distinct_sum"), total("gev.jitter.calls")), "count")
    m["gev.fit.xi_below_-1_frac"] = (ratio(total("gev.fit.xi_below_-1"), total("gev.fit.ok")),
                                     "ratio")
    m["stats.mvsw_null_stats.tables_built"] = (
        sum(outcome.tables_built for _, outcome, _ in traced) / ops, "count")
    m["sample_size.fits_attempted"] = (total("sample_size.fits_attempted") / ops, "count")
    m["sample_size.fits_failed"] = (total("sample_size.fits_failed") / ops, "count")
    m["pipeline.io.bytes_written"] = (total("pipeline.io.bytes_written") / ops, "B")

    untraced_wall = statistics.median(w for w, _, t in records if t is None)
    traced_wall = statistics.median(w for w, _, _ in traced)
    m["trace.untraced_wall_s"] = (untraced_wall, "s")
    m["trace.traced_wall_s"] = (traced_wall, "s")
    m["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    share = sum(t.total_self_s() for t in traces) / sum(w for w, _, _ in traced)
    m["trace.layers_self_share"] = (share, "ratio")
    return m


def main(argv=None) -> int:
    args = parse_args(argv)
    use_checkout_sources()
    from qevtbench.workloads import WORKLOADS, Outcome, log2_errors

    if args.workload not in WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]()
    run_dir = WORK_DIR / f"{workload.name}-{os.getpid()}"
    run_dir.mkdir(parents=True)
    try:
        workload.prepare(args.seed, run_dir)
        if args.setup_probe:
            return 0
        if args.trace:
            records = run_ops(workload, run_dir, args.seconds, alternate_traced=True)
            metrics = layer_metrics(records)
            TRACE_DIR.mkdir(exist_ok=True)
            spans = [t.to_list() for _, _, t in records if t is not None]
            (TRACE_DIR / f"spans-{workload.name}-seed{args.seed}.json").write_text(json.dumps(spans))
            replicas = Outcome()
        else:
            setup = measure_setup(args)
            records = run_ops(workload, run_dir, args.seconds)
            rss = peak_rss_mb()
            replicas = workload.replicate(run_dir / "op0", args.seed)
            errors = log2_errors(records[0][1].answers + replicas.answers)
            walls = [w for w, _, _ in records]
            metrics = {
                "wall_s": (statistics.median(walls), "s"),
                "setup_s": (statistics.median(setup), "s"),
                "peak_rss_mb": (rss, "MiB"),
                "n_evt_log2_err": (statistics.fmean(errors), "log2"),
            }
            print(f"wall_s samples: {len(walls)} operations")
            print(f"setup_s samples: {setup}")
            print(f"n_evt_log2_err over {len(errors)} answers of the program")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        if WORK_DIR.is_dir() and not any(WORK_DIR.iterdir()):
            WORK_DIR.rmdir()

    outcomes = [o for _, o, _ in records]
    problems = replicas.problems + [p for o in outcomes for p in o.problems]
    if len({o.digest for o in outcomes}) != 1:
        problems.append("artifacts differ between operations with the same seed")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{workload.name} {name} = {value:.6g} {unit}")
    result = {
        "correct": not problems,
        "attempted": sum(o.attempted for o in outcomes + [replicas]),
        "failed": sum(o.failed for o in outcomes + [replicas]),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
