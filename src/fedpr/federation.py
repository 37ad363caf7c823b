"""Synchronous federation rounds: distribute the global model (and, for
fedpr, the global prototypes), run local SGD on every client, then
data-size-weighted model averaging and prototype aggregation.

Every random draw comes from a stream derived from (master_seed, purpose,
client, round), so a run is a pure function of its configuration.
"""

from __future__ import annotations

import dataclasses
import logging
import math
import time
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import data as datamod, evaluation, nn, prototypes
from .data import _CLASS_COUNT, _COUNT, _NON_NEGATIVE, _POSITIVE, ClientShard, Dataset, _one_of, _shard_indices
from .errors import ConfigError, DimensionError, DivergenceError
from .evaluation import evaluate_accuracy
from .nn import CNN4_INPUT, ModelParams, OptimizerState, build_cnn4, build_mlp2, loss_and_grad, sgd_momentum_step
from .parallel import _fork_map
from .prototypes import GlobalPrototypeSet, LocalPrototypes, aggregate_global_prototypes, compute_local_prototypes

log = logging.getLogger(__name__)

STRATEGIES = ("fedavg", "fedpr")
MODELS = ("cnn4", "mlp2")
DATASETS = ("mnist", "fashion", "synthetic")

# Purpose tags for deriving independent RNG streams from the master seed.
_STREAM_INIT = 1
_STREAM_SUBSAMPLE = 2
_STREAM_PARTITION = 3
_STREAM_CLIENT = 4
_STREAM_SYNTH_TRAIN = 5
_STREAM_SYNTH_TEST = 6


@dataclass
class FederationConfig:
    """Every knob of one experiment. Defaults follow the reference setup."""

    num_clients: int = 10
    rounds: int = 100
    local_epochs: int = 1
    batch_size: int = 8
    learning_rate: float = 0.01
    momentum: float = 0.5
    dirichlet_alpha: float = 0.05
    lam: float = 1.0
    strategy: str = "fedpr"
    model: str = "cnn4"
    master_seed: int = 0
    dataset: str = "mnist"
    data_dir: str = "data"
    subsample_n: int = 2000
    agg_denominator: str = "contributors"
    support_weighted_protos: bool = False
    proto_loss_form: str = "squared"
    eval_inference: str = "both"
    synth_classes: int = 10
    synth_dim: int = 32
    synth_per_class: int = 250
    synth_test_per_class: int = 50
    synth_spread: float = 0.1

    def validate(self) -> "FederationConfig":
        """Check each field's rule step by step in _RULES order, and under
        strategy=fedavg the forced values after eval_inference; the first
        step that fails raises ConfigError under its external name."""
        for field, (test, text) in _checks(self.strategy):
            value = getattr(self, field)
            if not test(value):
                raise ConfigError(f"{CONFIG_NAMES[field]}: {text.format(value)}")
        return self

    replace = dataclasses.replace


# External key of every field, in field order, as config files, flags,
# artifacts and errors spell it; "lambda" is a Python keyword.
CONFIG_NAMES = {f.name: f.name for f in dataclasses.fields(FederationConfig)} | {"lam": "lambda", "master_seed": "seed"}


# What strategy=fedavg forces (FedPR with the prototype terms off), with the message for other values.
_FEDAVG_FORCES = {
    "lam": (0.0, "strategy=fedavg forces lambda=0"),
    "eval_inference": ("softmax", "fedavg produces no prototypes; only softmax inference is available"),
}
FEDAVG_VALUES = {field: value for field, (value, _) in _FEDAVG_FORCES.items()}

# Each field's rule, in check order, so a config with several faults names the
# same first one; its first step checks the type. A rule that a function also
# checks is that module's object.
_RULES = (
    ("num_clients", _COUNT),
    ("rounds", _COUNT),
    ("local_epochs", _COUNT),
    ("batch_size", _COUNT),
    ("learning_rate", _POSITIVE),
    ("momentum", nn._MOMENTUM),
    ("dirichlet_alpha", _POSITIVE),
    ("lam", _NON_NEGATIVE),
    ("master_seed", (datamod._INTEGER, ((lambda v: v >= 0), "must be a non-negative integer, got {}"))),
    ("subsample_n", _COUNT),
    ("strategy", _one_of(STRATEGIES)),
    ("model", _one_of(MODELS)),
    ("dataset", _one_of(DATASETS)),
    ("data_dir", datamod._DIRECTORY),
    ("agg_denominator", prototypes._DENOMINATOR),
    ("support_weighted_protos", prototypes._SUPPORT_WEIGHTED),
    ("proto_loss_form", nn._PROTO_FORM),
    ("eval_inference", evaluation._EVAL_MODE),
    ("synth_classes", _CLASS_COUNT),
    ("synth_dim", _COUNT),
    ("synth_per_class", _COUNT),
    ("synth_test_per_class", _COUNT),
    ("synth_spread", _NON_NEGATIVE),
)


def _checks(strategy: str):
    """(field, step) in the order validate applies them."""
    for field, rule in _RULES:
        for step in rule:
            yield field, step
        if field == "eval_inference" and strategy == "fedavg":
            for forced, (value, text) in _FEDAVG_FORCES.items():
                yield forced, ((lambda v, value=value: v == value), text)


@dataclass
class ClientState:
    """Per-client bookkeeping for one experiment."""

    client_id: int
    shard: ClientShard


@dataclass
class RoundRecord:
    """Metrics for one communication round."""

    round_index: int
    mean_train_loss: float
    test_accuracy_softmax: float | None
    test_accuracy_prototype: float | None


def client_rng(master_seed: int, client_id: int, round_index: int) -> np.random.Generator:
    """Deterministic per-(client, round) stream; injective in its inputs."""
    return np.random.default_rng([master_seed, _STREAM_CLIENT, client_id, round_index])


def client_local_update(
    state: ClientState,
    global_params: ModelParams,
    global_protos: GlobalPrototypeSet,
    cfg: FederationConfig,
    train_data: Dataset,
    round_index: int = 0,
) -> tuple[ModelParams, LocalPrototypes | None, float]:
    """E epochs of mini-batch SGD from the global model, then local prototypes.

    The shard is reshuffled every epoch from the client's stream for this
    round, client_rng(cfg.master_seed, client_id, round_index); the last
    partial batch is trained on as-is. Global prototypes stay fixed for
    the whole update. Returns (params, prototypes, final-epoch mean loss);
    the prototypes are None under fedavg.
    """
    indices = _shard_indices(state.shard, len(train_data))
    if not len(indices):
        raise ValueError(f"client {state.client_id}: empty shard")
    rng = client_rng(cfg.master_seed, state.client_id, round_index)

    params = global_params.copy()
    # Fresh momentum buffers every round: clients start from a new global
    # model, so stale velocity would mix optimization states.
    opt = OptimizerState.zeros(params, cfg.learning_rate, cfg.momentum)

    epoch_loss = 0.0
    for _ in range(cfg.local_epochs):
        order = rng.permutation(len(indices))
        epoch_loss = 0.0
        for start in range(0, len(order), cfg.batch_size):
            batch_idx = indices[order[start : start + cfg.batch_size]]
            report = loss_and_grad(
                params,
                train_data.images[batch_idx],
                train_data.labels[batch_idx],
                global_protos,
                cfg.lam,
                cfg.proto_loss_form,
            )
            if not math.isfinite(report.total_loss):
                raise DivergenceError(
                    f"client {state.client_id} diverged in round {round_index}: "
                    f"loss={report.total_loss}"
                )
            sgd_momentum_step(params, report.grads, opt)
            epoch_loss += report.total_loss * len(batch_idx)
    train_loss = epoch_loss / len(indices)

    protos = compute_local_prototypes(params, train_data, state.shard) if cfg.strategy == "fedpr" else None
    return params, protos, train_loss


def server_weighted_average(updates: Sequence[tuple[ModelParams, float]]) -> ModelParams:
    """Element-wise average with weights D_i / sum(D_i).

    Weights are normalized first and the sum runs in the order given,
    which sets the low bits; run_round gives the updates in client-id order.
    """
    updates = list(updates)
    if not updates:
        raise ValueError("server_weighted_average needs at least one update")
    for i, (_, weight) in enumerate(updates):
        if not (math.isfinite(weight) and weight >= 0):
            raise ValueError(f"update {i} has weight {weight}; weights must be finite and non-negative")
    total = float(sum(weight for _, weight in updates))
    if total <= 0:
        raise ValueError(f"total update weight must be > 0, got {total}")
    reference = updates[0][0]
    out = None
    for params, weight in updates:
        if not params.same_structure(reference):
            raise DimensionError("cannot average models with different layer structure")
        w = weight / total
        if out is None:
            out = params.vector * w
        else:
            out += w * params.vector
    return ModelParams(reference.layers, reference.extractor_boundary, out)


def run_round(
    global_params: ModelParams,
    global_protos: GlobalPrototypeSet,
    clients: Sequence[ClientState],
    cfg: FederationConfig,
    round_index: int,
    train_data: Dataset,
    test_data: Dataset,
) -> tuple[ModelParams, GlobalPrototypeSet, RoundRecord]:
    """One synchronous round against a fixed (params, prototypes) snapshot.

    All clients see the same inputs; aggregation happens once, after the
    last client finishes. The clients train in forked helper processes
    (parallel._fork_map), but they are aggregated in client-id order,
    whatever the order of ``clients``, so the outcome depends on neither.
    Clients with empty shards are skipped.
    """
    active = sorted((state for state in clients if len(state.shard)), key=lambda state: state.client_id)
    if not active:
        raise ValueError("no client has any data; nothing to aggregate")

    def train(state):
        params_i, protos_i, loss_i = client_local_update(
            state, global_params, global_protos, cfg, train_data, round_index
        )
        return params_i.vector, protos_i, loss_i

    results = _fork_map(train, active, [len(state.shard) for state in active])
    layers, boundary = global_params.layers, global_params.extractor_boundary
    updates = [
        (ModelParams(layers, boundary, vector), float(len(state.shard)))
        for state, (vector, _, _) in zip(active, results)
    ]
    local_protos = [protos_i for _, protos_i, _ in results]
    losses = [loss_i for _, _, loss_i in results]

    new_params = server_weighted_average(updates)
    if cfg.strategy == "fedpr":
        new_protos = aggregate_global_prototypes(
            local_protos,
            round_index=round_index,
            denominator=cfg.agg_denominator,
            support_weighted=cfg.support_weighted_protos,
        )
    else:
        new_protos = GlobalPrototypeSet.empty(round_index)

    total_weight = sum(weight for _, weight in updates)
    mean_train_loss = sum((weight / total_weight) * loss for (_, weight), loss in zip(updates, losses))

    report = evaluate_accuracy(new_params, new_protos, test_data, cfg.eval_inference)
    record = RoundRecord(round_index, mean_train_loss, report.accuracy_softmax, report.accuracy_prototype)
    return new_params, new_protos, record


def partition_data(cfg: FederationConfig) -> tuple[Dataset, Dataset, list[ClientShard]]:
    """Load, subsample, and partition exactly as run_experiment does.

    The images keep the dataset's own shape: the split never depends on
    the model. Synthetic data is generated.
    """
    if cfg.dataset == "synthetic":
        train = datamod.synthetic_blobs(
            cfg.synth_classes,
            cfg.synth_dim,
            cfg.synth_per_class,
            cfg.synth_spread,
            [cfg.master_seed, _STREAM_SYNTH_TRAIN],
        )
        test = datamod.synthetic_blobs(
            cfg.synth_classes,
            cfg.synth_dim,
            cfg.synth_test_per_class,
            cfg.synth_spread,
            [cfg.master_seed, _STREAM_SYNTH_TEST],
        )
    else:
        train = datamod.load_idx_dataset(cfg.data_dir, cfg.dataset, "train")
        test = datamod.load_idx_dataset(cfg.data_dir, cfg.dataset, "test")
    if cfg.subsample_n > len(train):
        raise ConfigError(
            f"subsample_n: {cfg.subsample_n} exceeds the {len(train)} training samples "
            f"of dataset {cfg.dataset!r}"
        )
    train = datamod.subsample(train, cfg.subsample_n, [cfg.master_seed, _STREAM_SUBSAMPLE])
    shards = datamod.dirichlet_partition(
        train.labels, cfg.num_clients, cfg.dirichlet_alpha, [cfg.master_seed, _STREAM_PARTITION]
    )
    return train, test, shards


def _as_images(dataset: Dataset, which: str) -> Dataset:
    """dataset with [n, *CNN4_INPUT] images; flat vectors of that size are reshaped."""
    shape = dataset.images.shape
    if shape[1:] == CNN4_INPUT:
        return dataset
    if shape[1:] == (math.prod(CNN4_INPUT),):
        return Dataset(dataset.images.reshape(-1, *CNN4_INPUT), dataset.labels, dataset.num_classes)
    raise ConfigError(
        f"model: cnn4 needs [n,{','.join(map(str, CNN4_INPUT))}] images "
        f"(or flat {math.prod(CNN4_INPUT)} vectors); {which} data has shape {shape}"
    )


def prepare_partition(cfg: FederationConfig) -> tuple[Dataset, Dataset, list[ClientShard]]:
    """partition_data, with the images shaped for cfg.model."""
    train, test, shards = partition_data(cfg)
    if cfg.model == "cnn4":
        train, test = _as_images(train, "train"), _as_images(test, "test")
    return train, test, shards


def init_global_model(cfg: FederationConfig, train: Dataset) -> ModelParams:
    rng = np.random.default_rng([cfg.master_seed, _STREAM_INIT])
    if cfg.model == "cnn4":
        return build_cnn4(rng, num_classes=train.num_classes)
    in_dim = int(np.prod(train.images.shape[1:]))
    return build_mlp2(rng, in_dim, train.num_classes)


def run_experiment(
    cfg: FederationConfig, progress: Callable[[RoundRecord, float], None] | None = None
) -> list[RoundRecord]:
    """Full training loop: T rounds from a fresh model and empty prototypes.

    ``progress`` gets each round's record and its wall time in seconds;
    the time is not part of the record, so records stay reproducible.
    """
    cfg.validate()
    train, test, shards = prepare_partition(cfg)
    empty = [s.client_id for s in shards if not len(s)]
    if empty:
        log.info("clients with empty shards (skipped in averaging): %s", empty)

    params = init_global_model(cfg, train)
    protos = GlobalPrototypeSet.empty(0)
    clients = [ClientState(shard.client_id, shard) for shard in shards]
    records = []
    for t in range(1, cfg.rounds + 1):
        start = time.perf_counter()
        params, protos, record = run_round(params, protos, clients, cfg, t, train, test)
        records.append(record)
        if progress is not None:
            progress(record, time.perf_counter() - start)
    return records
