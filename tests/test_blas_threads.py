"""The golden runs' raw float64 state must not depend on the BLAS thread count.

Forward-only conv blocks run on a thread pool next to BLAS's own threads,
so the configurations of test_golden.py, plus its mlp2 run at the 784-d
stand-in's width, run in child processes under OPENBLAS_NUM_THREADS=1 and
=2, and each must give the same state hash under both. Run this file
directly to print the hashes for the current thread settings.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest
import test_golden

from fedpr.nn import _usable_cpus

RUNS = {
    **test_golden.RUNS,
    "mlp2-784-fedpr-unsquared": dict(test_golden.RUNS["mlp2-fedpr-unsquared"], synth_dim=784),
}


@pytest.fixture(scope="module")
def hashes_by_threads() -> dict:
    path = [str(test_golden.SRC), os.environ.get("PYTHONPATH", "")]
    out = {}
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
        env.update({var: threads for var in test_golden.THREAD_VARS})
        proc = subprocess.run(
            [sys.executable, __file__], env=env, capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        out[threads] = json.loads(proc.stdout)
    return out


@pytest.mark.parametrize(
    "name",
    [
        "cnn4-fedpr-both",
        pytest.param(
            "cnn4-fedavg",
            marks=pytest.mark.xfail(
                _usable_cpus() >= 2,
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
                _usable_cpus() >= 2,
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
