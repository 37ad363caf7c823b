"""Deterministic federated-learning simulator.

Implements the FedAvg baseline and FedPR (prototype-regularized
federated learning) end to end on a from-scratch float64 network:
Dirichlet non-IID partitioning, local SGD with an optional prototype
pull term, data-size-weighted model averaging, prototype aggregation,
and dual softmax / nearest-prototype inference.
"""

__version__ = "0.1.0"

from .data import ClientShard, Dataset, dirichlet_partition, subsample, synthetic_blobs
from .evaluation import EvalReport, evaluate_accuracy, last_k_mean
from .federation import (
    ClientState,
    FederationConfig,
    RoundRecord,
    client_local_update,
    run_experiment,
    run_round,
    server_weighted_average,
)
from .nn import (
    BatchLossReport,
    LayerParams,
    ModelParams,
    OptimizerState,
    build_cnn4,
    build_mlp2,
    finite_diff_gradient,
    loss_and_grad,
    model_forward,
    sgd_momentum_step,
)
from .prototypes import (
    GlobalPrototypeSet,
    LocalPrototypes,
    aggregate_global_prototypes,
    compute_local_prototypes,
)
from . import data, evaluation, federation, nn, prototypes

# nn._fork_map keeps all work in the calling process once a program
# rebinds one of these modules' public functions.
nn._record_bindings([data, evaluation, federation, nn, prototypes])

__all__ = [
    "BatchLossReport",
    "ClientShard",
    "ClientState",
    "Dataset",
    "EvalReport",
    "FederationConfig",
    "GlobalPrototypeSet",
    "LayerParams",
    "LocalPrototypes",
    "ModelParams",
    "OptimizerState",
    "RoundRecord",
    "aggregate_global_prototypes",
    "build_cnn4",
    "build_mlp2",
    "client_local_update",
    "compute_local_prototypes",
    "dirichlet_partition",
    "evaluate_accuracy",
    "finite_diff_gradient",
    "last_k_mean",
    "loss_and_grad",
    "model_forward",
    "run_experiment",
    "run_round",
    "server_weighted_average",
    "sgd_momentum_step",
    "subsample",
    "synthetic_blobs",
]
