"""The angle search's doubles do not depend on the BLAS thread count.

OpenBLAS splits a long dot across its threads, which changes the last
digits of the sum.  :func:`qevt.qaoa.expectation_and_gradient` reduces in
blocks too short to be split, so its value and gradient must read the same
with one thread and with two.  Each run is a fresh interpreter, since
OpenBLAS reads ``OPENBLAS_NUM_THREADS`` once, when it loads.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

# n = 14 and 16 reach past one 2^13 block; the angles are fixed
_VALUE_AND_GRADIENT = """
import json
from qevt.qaoa import QaoaParams, expectation_and_gradient
from qevt.qubo import generate_synthetic_q, ising_energy_table, to_ising

out = {}
for n in (14, 16):
    model = to_ising(generate_synthetic_q(n, seed=1))
    params = QaoaParams(3, [0.3, 0.6, 0.9], [0.9, 0.6, 0.3])
    value, grad = expectation_and_gradient(model, params, "minus", ising_energy_table(model))
    out[n] = [float(value).hex()] + [float(g).hex() for g in grad]
print(json.dumps(out))
"""

# OpenBLAS runs no more threads than the process has cores to run on
_VISIBLE_CORES = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                  else os.cpu_count() or 1)


def _hex_under(threads: int) -> dict:
    """The value and gradient, as hex, of a fresh interpreter whose OpenBLAS
    runs ``threads`` threads."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _VALUE_AND_GRADIENT],
        env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": str(threads)},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.skipif(_VISIBLE_CORES < 2,
                    reason="one visible core: OpenBLAS runs one thread either way")
def test_value_and_gradient_hold_across_blas_threads():
    assert _hex_under(1) == _hex_under(2)
