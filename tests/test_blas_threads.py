"""The golden runs' raw float64 state must not depend on the BLAS thread count.

OpenBLAS reads its thread count when numpy loads, so the
configurations of test_golden.py, plus its mlp2 run at the 784-d
stand-in's width, run in child processes under OPENBLAS_NUM_THREADS=1 and
=2, and each must give the same state hash under both. fedpr pins numpy's
OpenBLAS to one thread at import; only where that pin cannot take do two
threads move bits. Run this file directly to print the hashes for the
current thread settings.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import test_golden

from fedpr import parallel

NUMPY_LIBS = Path(np.__file__).resolve().parent.parent / "numpy.libs"

RUNS = {
    **test_golden.RUNS,
    "mlp2-784-fedpr-unsquared": dict(test_golden.RUNS["mlp2-fedpr-unsquared"], synth_dim=784),
}


def run_child(args, threads: str) -> str:
    """Standard output of a Python child with fedpr's sources first on the
    path and every BLAS thread variable set to ``threads``."""
    path = [str(test_golden.SRC), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    env.update({var: threads for var in test_golden.THREAD_VARS})
    proc = subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.fixture(scope="module")
def hashes_by_threads() -> dict:
    return {threads: json.loads(run_child([__file__], threads)) for threads in ("1", "2")}


PROBE = """
import ctypes, sys
import fedpr
lib = ctypes.CDLL(sys.argv[1])
lib.scipy_openblas_get_num_threads64_.restype = ctypes.c_int
print(fedpr.parallel._BLAS_PINNED, lib.scipy_openblas_get_num_threads64_())
"""


def test_import_pins_openblas_to_one_thread():
    libs = sorted(NUMPY_LIBS.glob("libscipy_openblas*"))
    if not libs:
        pytest.skip(f"numpy bundles no OpenBLAS in {NUMPY_LIBS}")
    assert run_child(["-c", PROBE, str(libs[0])], "2").split() == ["True", "1"]


@pytest.mark.parametrize(
    "name",
    [
        "cnn4-fedpr-both",
        pytest.param(
            "cnn4-fedavg",
            marks=pytest.mark.xfail(
                not parallel._BLAS_PINNED and parallel._usable_cpus() >= 2,
                reason="two OpenBLAS threads move low-order bits of conv2's kernel-gradient "
                "GEMM ([20, 64*batch] x [64*batch, 250]) from batch 4 up; np.tensordot "
                "forms the same product, with the same bits under each thread count",
                strict=True,
            ),
        ),
        "mlp2-fedpr-unsquared",
        pytest.param(
            "mlp2-784-fedpr-unsquared",
            marks=pytest.mark.xfail(
                not parallel._BLAS_PINNED and parallel._usable_cpus() >= 2,
                reason="two OpenBLAS threads move low-order bits of a chunk-sized dense "
                "GEMM at 784 inputs (a [500, 784] x [784, 128] product differs), as on "
                "the mlp2-50clients-fedpr benchmark workload",
                strict=True,
            ),
        ),
    ],
)
def test_state_hash_independent_of_blas_threads(hashes_by_threads, name):
    assert hashes_by_threads["1"][name] == hashes_by_threads["2"][name]


if __name__ == "__main__":
    test_golden.RUNS = RUNS  # golden_values() runs every configuration in RUNS
    print(json.dumps({name: run["sha256"] for name, run in test_golden.golden_values().items()}))
