"""The benchmark's layer tracer still finds every function it wraps.

``qevtbench.trace.Tracer`` rebinds functions by name in the ``qevt``
module namespaces; renaming or moving one of them would otherwise surface
only when the benchmark runs with tracing on.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

import qevt.qaoa  # noqa: E402
from qevt.pipeline import (  # noqa: E402
    ExperimentConfig,
    SyntheticSpec,
    run_estimate,
    run_shot_sweep,
    run_validate,
)
from qevt.qaoa import NoiseConfig, QaoaParams, circuit_state  # noqa: E402
from qevt.qubo import generate_synthetic_q, to_ising  # noqa: E402

from qevtbench.trace import TRACED, Tracer, instance_key  # noqa: E402


def _qevt_bindings() -> dict:
    return {
        (mod_name, attr): value
        for mod_name, module in list(sys.modules.items())
        if mod_name == "qevt" or mod_name.startswith("qevt.")
        for attr, value in vars(module).items()
    }


def test_tracer_wraps_every_traced_name_and_restores_them(tmp_path):
    cfg = ExperimentConfig(
        synthetic=SyntheticSpec(n=8, seed=1),
        qaoa_restarts=1,
        qaoa_maxiter=20,
        shots_grid=(20,),
        runs=30,
        readout_flip_prob=0.02,
        seed=2,
        sa={"sweeps": 100, "restarts": 2},
    )
    before = _qevt_bindings()
    with Tracer() as tracer:
        for mod_name, fn_name, _, _ in TRACED:
            bound = getattr(sys.modules[mod_name], fn_name)
            assert getattr(bound, "__wrapped__", None) is before[(mod_name, fn_name)], fn_name
        run_estimate(cfg, tmp_path)
        run_validate(cfg, tmp_path, shots_s=20, alpha=0.95, delta_range=(0, 0), trials=20)
        # validate draws no run minima; the shot sweep reaches run_minima_batch
        run_shot_sweep(cfg, tmp_path, reps=5)
    assert tracer.trace.calls("qubo.energy_table") >= 1
    assert tracer.trace.calls("qaoa.circuit_state") >= 1
    # the tracer keys minima by the instance it reads from the samplers'
    # arguments (collect_extreme_samples' args[0], run_minima_batch's
    # args[1]) and counts shots from their shots_s
    assert tracer.trace.calls("qaoa.collect_extreme_samples") >= 1
    assert tracer.trace.calls("qaoa.run_minima_batch") >= 1
    key = instance_key(cfg.synthetic.build())
    assert tracer.trace.minima and all(k == key for k, _ in tracer.trace.minima)
    assert tracer.trace.counts["qaoa.shots_drawn"] > 0
    # SA runs once, in the estimate (the later commands reuse baseline.json),
    # and proposes one flip per acceptance uniform: restarts x sweeps x n
    assert tracer.trace.counts["annealing.flips_proposed"] == 2 * 100 * 8
    after = _qevt_bindings()
    assert [key for key, value in before.items() if after.get(key) is not value] == []


def test_sample_shots_keeps_the_name_and_arguments_the_tracer_reads():
    # the tracer rebinds qevt.qaoa.sample_shots and reads shots_s as args[2]
    inst = generate_synthetic_q(6, seed=1)
    state = circuit_state(to_ising(inst), QaoaParams(1, [0.4], [0.3]))
    with Tracer() as tracer:
        qevt.qaoa.sample_shots(state, inst, 50, NoiseConfig(0.02), 3)
    assert tracer.trace.calls("qaoa.sample_shots") == 1
    assert tracer.trace.counts["qaoa.shots_drawn"] == 50
