"""Golden hashes of the raw float64 state after three shrunken runs.

Each run's final parameters (layer order; weight then bias) followed by
its global prototype vectors (ascending class) are hashed as
little-endian float64 bytes, and every round record is pinned exactly.
A change that moves any low-order bit of training, local prototypes or
evaluation moves these values; a pure speed-up must leave them alone.

The runs execute in a child process with BLAS pinned to one thread,
because the mlp2 state hashes differently under two OpenBLAS threads.
Run this file directly to print the current values.

The values were pinned under numpy 2.4.6 with OpenBLAS 0.3.31. They also
depend on the BLAS build (its dgemm and ddot kernels for small shapes),
so on another numpy or OpenBLAS build a mismatch may come from the
libraries rather than the code; the failure message names both versions.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parent.parent / "src"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

_SYNTH = dict(dataset="synthetic", batch_size=8, local_epochs=1, master_seed=0, rounds=2)
# cnn4: the 300 test samples form one evaluation chunk and each shard of
# the 150 training samples one prototype chunk, so both forward-only
# paths run several whole conv blocks plus a partial one.
RUNS = {
    "cnn4-fedpr-both": dict(
        _SYNTH,
        model="cnn4",
        strategy="fedpr",
        lam=1.0,
        eval_inference="both",
        num_clients=3,
        dirichlet_alpha=0.5,
        synth_dim=784,
        synth_per_class=20,
        synth_test_per_class=30,
        subsample_n=150,
    ),
    # FedAvg (lambda=0): the training step runs without a prototype pull,
    # and partial last batches give several batch sizes.
    "cnn4-fedavg": dict(
        _SYNTH,
        model="cnn4",
        strategy="fedavg",
        lam=0.0,
        eval_inference="softmax",
        num_clients=3,
        dirichlet_alpha=0.5,
        synth_dim=784,
        synth_per_class=20,
        synth_test_per_class=30,
        subsample_n=150,
        master_seed=1,
    ),
    "mlp2-fedpr-unsquared": dict(
        _SYNTH,
        model="mlp2",
        strategy="fedpr",
        lam=1.0,
        proto_loss_form="unsquared",
        eval_inference="both",
        num_clients=4,
        dirichlet_alpha=0.5,
        synth_classes=4,
        synth_dim=8,
        synth_per_class=40,
        synth_test_per_class=10,
        subsample_n=120,
        rounds=3,
    ),
}

GOLDEN = {
    "cnn4-fedpr-both": {
        "sha256": "69b83c15f029af5ace8c0963af6c62a9b8404add878f2f478ec19b40a207e6c6",
        "records": [
            [2.304907215615143, 0.10333333333333333, 0.12],
            [2.3058371813314267, 0.10666666666666667, 0.12666666666666668],
        ],
    },
    "cnn4-fedavg": {
        "sha256": "771cf7e9ca88786210dca98513e535562474b0bf603bf53ff20ff18e22a07f9b",
        "records": [
            [2.3068791034663416, 0.11666666666666667, None],
            [2.3064429011757808, 0.1, None],
        ],
    },
    "mlp2-fedpr-unsquared": {
        "sha256": "0a4507b9084a1a86fee786296ec165ec091201470deb143c9d0fe0af81b349ba",
        "records": [
            [1.3561522449065806, 0.3, 0.975],
            [1.7897616246067183, 0.3, 0.975],
            [1.7833907692639623, 0.275, 0.975],
        ],
    },
}


def _update(h, array) -> None:
    h.update(np.ascontiguousarray(array, dtype="<f8").tobytes())


def golden_values() -> dict:
    """Run every configuration in-process and return its hash and records."""
    from fedpr import federation
    from fedpr.prototypes import GlobalPrototypeSet

    out = {}
    for name, spec in RUNS.items():
        cfg = federation.FederationConfig(**spec).validate()
        train, test, shards = federation.prepare_partition(cfg)
        params = federation.init_global_model(cfg, train)
        protos = GlobalPrototypeSet.empty(0)
        clients = [federation.ClientState(s.client_id, s) for s in shards]
        records = []
        for t in range(1, cfg.rounds + 1):
            params, protos, rec = federation.run_round(
                params, protos, clients, cfg, t, train, test
            )
            records.append(
                [rec.mean_train_loss, rec.test_accuracy_softmax, rec.test_accuracy_prototype]
            )
        h = hashlib.sha256()
        for layer in params.layers:
            _update(h, layer.weight)
            _update(h, layer.bias)
        for vector in protos.class_vectors().values():
            _update(h, vector)
        out[name] = {"sha256": h.hexdigest(), "records": records}
    return out


def _library_versions() -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    return f"numpy {np.__version__}, {blas.get('name', 'BLAS')} {blas.get('version', '?')}"


def test_golden_state_hashes_and_records():
    path = [str(SRC), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    env.update({var: "1" for var in THREAD_VARS})
    proc = subprocess.run(
        [sys.executable, __file__], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    pinned = "pinned under numpy 2.4.6, OpenBLAS 0.3.31"
    for name in RUNS:
        where = f"{name} ({pinned}; running {_library_versions()})"
        assert got[name]["records"] == GOLDEN[name]["records"], where
        assert got[name]["sha256"] == GOLDEN[name]["sha256"], where


if __name__ == "__main__":
    print(json.dumps(golden_values(), indent=2))
