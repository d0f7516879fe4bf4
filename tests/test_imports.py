"""Which scipy modules each command loads.

scipy is imported inside the functions that call it, so that importing
``qevt`` and running a command that never fits or optimizes costs no scipy
import.  Each check runs a fresh interpreter and reads its ``sys.modules``;
none measures time.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qevt.gev

SRC = Path(__file__).resolve().parents[1] / "src"

_REPORT_SCIPY = (
    "\nimport json, sys\n"
    "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))\n"
)

# a small non-degenerate estimate: one shots setting, one restart of the
# optimizer (no Halton starts), a short SA
_ESTIMATE_CONFIG = {
    "synthetic": {"n": 10, "k": 8, "seed": 4},
    "qaoa_restarts": 1,
    "qaoa_maxiter": 30,
    "shots_grid": [100],
    "runs": 40,
    "sa": {"sweeps": 100, "restarts": 2},
    "seed": 1,
}


def _scipy_modules_after(code: str, cwd: Path) -> set:
    """The scipy modules a fresh interpreter holds after running ``code`` in ``cwd``."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code + _REPORT_SCIPY],
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def _cli(*commands: list) -> str:
    """Code that runs each argument list through ``qevt.cli.main``, asserting exit 0."""
    return "from qevt.cli import main\n" + "".join(
        f"assert main({argv!r}) == 0\n" for argv in commands
    )


@pytest.mark.parametrize("code", [
    "import qevt",
    "import qevt.cli",
    "import contextlib, io\nfrom qevt.cli import main\n"
    "with contextlib.redirect_stdout(io.StringIO()), contextlib.suppress(SystemExit):\n"
    "    main(['--help'])\n",
    _cli(["generate", "--n", "6", "--seed", "1", "-o", "inst.json"]),
    _cli(["solve-sa", "--n", "6", "--instance-seed", "1", "--sweeps", "100", "--out-dir", "out"]),
], ids=["import-qevt", "import-qevt.cli", "help", "generate", "solve-sa"])
def test_loads_no_scipy(tmp_path, code):
    assert _scipy_modules_after(code, tmp_path) == set()


def test_estimate_without_halton_starts_and_validate_load_no_scipy_stats(tmp_path):
    # cold at qaoa_restarts=1, then warm (stored angles) at the default
    # restarts: neither draws Halton starts, and validate never fits
    (tmp_path / "cold.json").write_text(json.dumps(_ESTIMATE_CONFIG))
    warm = {key: value for key, value in _ESTIMATE_CONFIG.items() if key != "qaoa_restarts"}
    (tmp_path / "warm.json").write_text(json.dumps({**warm, "seed": 2}))
    validate = ["validate", "--shots", "100", "--trials", "20", "--out-dir", "out"]
    for config in ("cold.json", "warm.json"):
        estimate = ["estimate", "--config", config, "--out-dir", "out"]
        loaded = _scipy_modules_after(_cli(estimate, validate), tmp_path)
        assert "scipy.optimize" in loaded
        assert not {m for m in loaded if m.startswith("scipy.stats")}, config


def test_gev_optimize_is_scipy_optimize():
    # the benchmark's tracer reads and rebinds qevt.gev.optimize
    import scipy.optimize

    assert qevt.gev.optimize is scipy.optimize
    with pytest.raises(AttributeError):
        qevt.gev.no_such_name


def test_private_scipy_names_still_exist():
    # imported inside the fits and the MVSW statistic; pyproject.toml names them
    from scipy.optimize._lbfgsb import setulb
    from scipy.optimize._lbfgsb_py import status_messages, task_messages
    from scipy.stats._ansari_swilk_statistics import swilk

    assert callable(setulb) and callable(swilk)
    assert status_messages and task_messages
