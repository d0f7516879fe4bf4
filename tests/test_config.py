"""Config rules: one rule table per config block, every value checked before
anything runs, and every refusal a ConfigError (exit 2) that writes nothing."""

import json
import math
import tempfile
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qevt.annealing import SaConfig
from qevt.cli import EXIT_CONFIG, main
from qevt.errors import ConfigError
from qevt.pipeline import ExperimentConfig, SyntheticSpec, run_sample_size, write_csv
from qevt.qaoa import NoiseConfig, OptimizerConfig
from qevt.sample_size import SampleSizeConfig

CONFIG_CLASSES = (ExperimentConfig, SyntheticSpec, SampleSizeConfig, SaConfig, OptimizerConfig,
                  NoiseConfig)
BLOCKS = {"synthetic": SyntheticSpec, "sa": SaConfig, "sample_size": SampleSizeConfig}


@pytest.mark.parametrize("cls", CONFIG_CLASSES, ids=lambda cls: cls.__name__)
def test_every_field_has_one_rule(cls):
    # a field added without a rule would go unchecked
    assert set(cls.RULES) == {f.name for f in fields(cls)}


JUNK = st.one_of(
    st.text(max_size=4),
    st.booleans(),
    st.floats(),
    st.none(),
    st.lists(st.one_of(st.integers(), st.text(max_size=2), st.booleans()), max_size=3),
    st.dictionaries(st.text(max_size=4), st.integers(), max_size=2),
    st.integers(max_value=0),
)
FIELD_PATHS = [f.name for f in fields(ExperimentConfig)] + [
    f"{block}.{f.name}" for block, cls in BLOCKS.items() for f in fields(cls)
]


@settings(max_examples=400, deadline=None)
@given(path=st.sampled_from(FIELD_PATHS), value=JUNK)
def test_junk_in_any_field_is_a_config_or_a_config_error(path, value):
    payload = {"synthetic": {"n": 6}, "sa": {}, "sample_size": {}}
    block, _, name = path.rpartition(".")
    (payload[block] if block else payload)[name] = value
    try:
        ExperimentConfig.from_dict(payload)
    except ConfigError:
        pass


# small enough that a run which is not refused still ends in seconds
BOOTSTRAP = {"n_max": 40, "stride": 20, "inner_draws": 8, "outer_reps": 1}
FAST = {"synthetic": {"n": 6}, "sa": {"sweeps": 20, "restarts": 1}, "qaoa_restarts": 1,
        "qaoa_maxiter": 5, "pool_runs": 100, "sample_size": BOOTSTRAP}
REPORT = {"log_miss_per_shot": -0.1, "initial_state": "minus", "y_ideal": -1.0,
          "noise": {"readout_flip_prob": 0.0}, "per_shots": []}
NO_PER_SHOTS = {k: v for k, v in REPORT.items() if k != "per_shots"}


@pytest.mark.parametrize("config, args", [
    ({**FAST, "sample_size": {**BOOTSTRAP, "n_min": "20"}}, ["sample-size"]),
    ({**FAST, "sample_size": {**BOOTSTRAP, "n_min": 20.5}}, ["sample-size", "--pool"]),
    ({**FAST, "sample_size": {**BOOTSTRAP, "mvsw_replicates": 2.5}}, ["sample-size", "--pool"]),
    ({"instance_path": 5}, ["estimate"]),
    (FAST, ["estimate", "--y-ideal", "nan"]),
    ({"synthetic": 6}, ["estimate"]),
    ({"synthetic": 6}, ["estimate", "--k", "2"]),
    ({**FAST, "sample_size": 5}, ["sample-size"]),
    ({**FAST, "sample_size": 5}, ["sample-size", "--n-min", "30"]),
    ([1, 2], ["estimate"]),
    ({**FAST, "pool_runs": 0}, ["sample-size"]),
    (FAST, ["sample-size", "--shots", "0"]),
    (FAST, ["sample-size", "--shots", "-5"]),
    ({"synthetic": {"n": 6}}, ["validate", "--shots", "2", "--n-evt", "1",
                               "--delta-min", "-3", "--delta-max", "-2"]),
    ({"synthetic": {"n": 6}}, ["validate", "--shots", "-5", "--n-evt", "10", "--alpha", "1.5",
                               "--trials", "5", "--delta-min", "0", "--delta-max", "0"]),
    ({"synthetic": {"n": 6}}, ["validate", "--shots", "2", "--n-evt", "10", "--alpha", "1.5"]),
    (FAST, ["estimate", "--shots", "20", "--runs", "5"]),
    (FAST, ["sample-size", "--pool", "nan"]),
    (FAST, ["sample-size", "--pool", "inf"]),
    (FAST, ["shot-sweep", "--reps", "0"]),
    (FAST, ["sample-size", "--pool", "abc"]),
    (FAST, ["sample-size", "--pool", "run_index,min_energy", "1"]),
    (FAST, [{"qaoa_params.json": {}},
            "estimate", "--n", "6", "--instance-seed", "1", "--shots", "20", "--runs", "30"]),
    (FAST, [{"baseline.json": {"energy": 1.0}},
            "estimate", "--n", "6", "--instance-seed", "1", "--shots", "20", "--runs", "30"]),
    ({"synthetic": {"n": 6}}, [{"report.json": {k: v for k, v in REPORT.items() if k != "y_ideal"}},
                               "validate", "--shots", "2", "--n-evt", "5"]),
    (FAST, [{"qaoa_params.json": {"depth_p": None, "gammas": [], "betas": []}},
            "estimate", "--n", "6", "--instance-seed", "1", "--shots", "20", "--runs", "30"]),
    (FAST, [{"baseline.json": {"x": 5, "energy": 1.0}},
            "estimate", "--n", "6", "--instance-seed", "1", "--shots", "20", "--runs", "30"]),
    ({"synthetic": {"n": 6}}, [{"report.json": {**REPORT, "noise": {}}},
                               "validate", "--shots", "20", "--n-evt", "5"]),
    ({"synthetic": {"n": 6}}, ["validate", "--shots", "20", "--n-evt", "0",
                               "--delta-min", "0", "--delta-max", "8", "--trials", "20"]),
    ({"synthetic": {"n": 6}}, [{"report.json": NO_PER_SHOTS}, "validate", "--shots", "20",
                               {"per_shots"}]),
    (FAST, [{"qaoa_params.json": {"depth_p": 3, "gammas": [0.1], "betas": [0.2]}},
            "estimate", "--n", "6", "--instance-seed", "1", "--shots", "20", "--runs", "30",
            {"gammas", "betas", "depth_p"}]),
    # a one-size grid leaves the regression of p-values on n one point
    (FAST, ["sample-size", "--shots", "20", "--n-min", "20", "--n-max", "25", "--stride", "100",
            {"n_min 20", "n_max 25", "stride 100"}]),
    (FAST, ["estimate", "--n", "6", "--instance-seed", "1", "--shots", "20", "--runs", "30",
            "--alpha", "0.5", "0.5", {"alphas repeats a setting: [0.5, 0.5]"}]),
    # validate has no --n; without prefix matching it is not read as --n-evt
    ({"synthetic": {"n": 6}}, ["validate", "--n", "6", "--shots", "20", "--trials", "20",
                               {"--n 6"}]),
])
def test_refused_before_any_write(tmp_path, capsys, config, args):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    out.mkdir()
    # a dict before the command holds the stage files found in the output
    # directory; validate finds a good report unless the case names one.  A
    # set after the command holds the fields the refusal must name
    own_files = isinstance(args[0], dict)
    fields_named = set()
    if isinstance(args[-1], set):
        *args, fields_named = args
    staged = {"report.json": REPORT} if args[0] == "validate" else {}
    if own_files:
        staged, *args = args
    for name, payload in staged.items():
        (out / name).write_text(json.dumps(payload))
    # what the refusal names: a malformed stage file, or the pool's bad row
    named = [str(out / name) for name in staged] if own_files else []
    if "--pool" in args:
        # 100 good rows under the header min_energy; the last value after
        # --pool takes the place of row 50, and a value before it replaces
        # the header, with a run index before each good row's energy
        at = args.index("--pool") + 1
        values = args[at:]
        pool = tmp_path / "pool.csv"
        header = values[0] if len(values) == 2 else "min_energy"
        rows = [repr(-(i % 7) / 7) for i in range(100)]
        if len(values) == 2:
            rows = [f"{i},{row}" for i, row in enumerate(rows)]
        if values:
            rows[50] = values[-1]
            named.append(f"{pool}: data row 51 ")
        pool.write_text(f"{header}\n" + "".join(f"{row}\n" for row in rows))
        args = [*args[:at], str(pool)]
    try:
        code = main([*args, "--config", str(path), "--out-dir", str(out)])
    except SystemExit as exc:  # argparse refuses a flag before any command runs
        code = exc.code
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG, err
    assert sorted(p.name for p in out.iterdir()) == sorted(staged)
    assert all(part in err for part in [*named, *fields_named]), err


def _finite_number(text: str) -> bool:
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


NOT_A_FINITE_NUMBER = st.one_of(
    st.sampled_from(["nan", "-inf", "Infinity", "1e999", ""]),
    st.text(st.characters(exclude_categories=("Cs",)), max_size=6).filter(
        lambda text: not _finite_number(text)
    ),
)


@settings(max_examples=200, deadline=None)
@given(cell=NOT_A_FINITE_NUMBER, row=st.integers(0, 9))
def test_pool_cell_that_is_no_finite_number_is_refused_with_its_file_and_row(cell, row):
    cells = [repr(-i / 10) for i in range(10)]
    cells[row] = cell
    with tempfile.TemporaryDirectory() as tmp:
        pool = Path(tmp) / "pool.csv"
        write_csv(pool, ["run_index", "min_energy"], enumerate(cells))
        with pytest.raises(ConfigError) as refusal:
            run_sample_size(ExperimentConfig.from_dict(FAST), Path(tmp) / "out", pool_path=pool)
    assert f"{pool}: data row {row + 1} has min_energy {cell!r}" in str(refusal.value)
