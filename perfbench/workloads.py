"""Benchmark workloads and the checks that make a run count as correct.

A *run* is what a user waits for after set-up: ``rounds`` federated
rounds from a freshly initialised model and empty prototypes, driven
through fedpr's public API. Its final state is reduced to a sha256 over
the raw float64 bytes of the parameters (layer order; weight then bias)
followed by the global prototype vectors (ascending class).
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from fedpr import federation
from fedpr.federation import ClientState, FederationConfig
from fedpr.prototypes import GlobalPrototypeSet

from tracer import ROUND_SPAN

GOLDEN_PATH = Path(__file__).with_name("golden.json")

_SYNTH = dict(dataset="synthetic", synth_dim=784, batch_size=8, local_epochs=1)
_CNN4_REF = dict(
    _SYNTH,
    model="cnn4",
    num_clients=10,
    dirichlet_alpha=0.05,
    synth_per_class=250,
    synth_test_per_class=1000,
    subsample_n=2000,
    rounds=2,
)

# Why each workload exists:
# - cnn4-ref-fedpr: the paper's reference protocol (10 clients, Dir(0.05),
#   B=8, 2000 train / 10k test, cnn4) on the 784-d stand-in; every layer,
#   the prototype pull and local prototypes are live.
# - cnn4-ref-fedavg: the same data, split and seed without any prototype
#   work, so a prototype-path optimisation is predicted to leave it alone.
# - mlp2-50clients-fedpr: no conv, a tiny test set and ~650 small steps
#   per round over 50 clients, so optimiser steps, per-step overhead and
#   server aggregation carry the time.
WORKLOADS = {
    "cnn4-ref-fedpr": dict(_CNN4_REF, strategy="fedpr", lam=1.0, eval_inference="both"),
    "cnn4-ref-fedavg": dict(_CNN4_REF, strategy="fedavg", lam=0.0, eval_inference="softmax"),
    "mlp2-50clients-fedpr": dict(
        _SYNTH,
        model="mlp2",
        num_clients=50,
        dirichlet_alpha=0.5,
        synth_per_class=500,
        synth_test_per_class=50,
        subsample_n=5000,
        strategy="fedpr",
        lam=1.0,
        eval_inference="both",
        rounds=3,
    ),
}


def workload_config(name: str, seed: int) -> FederationConfig:
    if name not in WORKLOADS:
        raise KeyError(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}")
    return FederationConfig(master_seed=seed, **WORKLOADS[name]).validate()


@dataclass
class Setup:
    train: object
    test: object
    shards: list
    params: object
    inputs_sha256: str


def _update(h, array) -> None:
    h.update(np.ascontiguousarray(array, dtype=array.dtype.newbyteorder("<")).tobytes())


def inputs_digest(train, test, shards) -> str:
    h = hashlib.sha256()
    for array in (train.images, train.labels, test.images, test.labels):
        _update(h, array)
    for shard in shards:
        _update(h, shard.indices)
    return h.hexdigest()


def state_digest(params, protos: GlobalPrototypeSet) -> str:
    h = hashlib.sha256()
    for layer in params.layers:
        _update(h, np.asarray(layer.weight, dtype=np.float64))
        _update(h, np.asarray(layer.bias, dtype=np.float64))
    for vector in protos.class_vectors().values():
        _update(h, np.asarray(vector, dtype=np.float64))
    return h.hexdigest()


def set_up(cfg: FederationConfig) -> tuple[Setup, float]:
    """Generate, subsample and partition the data, then initialise the model.

    Returns the set-up and its wall time; the input digest is computed
    after the clock stops.
    """
    start = time.perf_counter()
    train, test, shards = federation.prepare_partition(cfg)
    params = federation.init_global_model(cfg, train)
    elapsed = time.perf_counter() - start
    return Setup(train, test, shards, params, inputs_digest(train, test, shards)), elapsed


def check_record(record, round_index: int, cfg: FederationConfig) -> str | None:
    """Why a round record is malformed, or None when it is well formed."""
    if record.round_index != round_index:
        return f"round {round_index}: record says round {record.round_index}"
    if not math.isfinite(record.mean_train_loss):
        return f"round {round_index}: non-finite mean train loss {record.mean_train_loss}"
    want_proto = cfg.strategy == "fedpr" and cfg.eval_inference in ("prototype", "both")
    want_softmax = cfg.strategy == "fedavg" or cfg.eval_inference in ("softmax", "both")
    for label, value, wanted in (
        ("softmax", record.test_accuracy_softmax, want_softmax),
        ("prototype", record.test_accuracy_prototype, want_proto),
    ):
        if not wanted:
            if value is not None:
                return f"round {round_index}: unexpected {label} accuracy {value}"
        elif value is None or not 0.0 <= value <= 1.0:
            return f"round {round_index}: {label} accuracy {value} outside [0, 1]"
    return None


@dataclass
class RunResult:
    round_seconds: list[float] = field(default_factory=list)
    state_sha256: str | None = None
    error: str | None = None

    @property
    def seconds(self) -> float:
        return sum(self.round_seconds)


def run_rounds(setup: Setup, cfg: FederationConfig, tracer=None) -> RunResult:
    """All rounds of one run; every failure is caught and reported.

    With a tracer, each run_round call is one ``federation.run_round`` span.
    """
    result = RunResult()
    try:
        params = setup.params
        protos = GlobalPrototypeSet.empty(0)
        clients = [ClientState(shard.client_id, shard) for shard in setup.shards]
        for t in range(1, cfg.rounds + 1):
            start = time.perf_counter()
            with tracer.span(ROUND_SPAN) if tracer else nullcontext():
                params, protos, record = federation.run_round(
                    params, protos, clients, cfg, t, setup.train, setup.test
                )
            result.round_seconds.append(time.perf_counter() - start)
            problem = check_record(record, t, cfg)
            if problem:
                result.error = problem
                return result
        result.state_sha256 = state_digest(params, protos)
    except Exception as exc:  # any crash of the simulator is a failed run
        result.error = f"{type(exc).__name__}: {exc}"
    return result


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def expected_digest(workload: str, seed: int, golden: dict, blas_threads: int) -> str | None:
    """The pinned final-state hash, when one is pinned for this seed.

    The low-order bits of BLAS results depend on the thread count, so the
    pins hold only at the thread count they were taken with.
    """
    if blas_threads != golden["blas_threads"]:
        raise ValueError(
            f"hashes were pinned with {golden['blas_threads']} BLAS threads, "
            f"this run uses {blas_threads}"
        )
    if seed != golden["seed"]:
        return None
    return golden["sha256"][workload]


class RunJudge:
    """Counts attempted and failed runs against one reference hash.

    The reference is the pinned hash when the seed has one, otherwise the
    first successful run's; every run must match it.
    """

    def __init__(self, expected: str | None):
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def judge(self, result: RunResult) -> bool:
        self.attempted += 1
        error = result.error
        if error is None:
            if self.expected is None:
                self.expected = result.state_sha256
            elif result.state_sha256 != self.expected:
                error = f"final-state sha256 {result.state_sha256} != expected {self.expected}"
        if error is not None:
            self.failed += 1
            self.errors.append(error)
            return False
        return True
