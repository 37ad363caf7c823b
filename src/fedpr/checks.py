"""Correctness checks run by `fedpr selftest` (small) and by acceptance
criteria 1-4 (full size). Each takes its size and a seed, and returns the
worst error against an oracle or the first mismatch (None when none)."""

from __future__ import annotations

import numpy as np

from .data import class_counts, dirichlet_partition
from .federation import FEDAVG_VALUES, FederationConfig, run_experiment, server_weighted_average
from .nn import LayerParams, ModelParams, build_mlp2, finite_diff_gradient, loss_and_grad
from .prototypes import GlobalPrototypeSet, LocalPrototypes, aggregate_global_prototypes

GRADIENT_BOUND = 1e-4  # gradient_error passes below it
AGGREGATION_BOUND = 1e-12  # aggregation_error passes at or below it


def gradient_error(instances: int, seed: int) -> float:
    """Worst relative error of loss_and_grad's gradients against central
    differences, over random small mlp2 problems with lambda in {0, 0.5, 1}
    and the extractor boundary drawn from {0, 1, 2}: the embedding is the
    input, the hidden activation or the logits."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for trial in range(instances):
        in_dim = int(rng.integers(3, 11))
        hidden = int(rng.integers(4, 17))
        classes = int(rng.integers(2, 6))
        mlp2 = build_mlp2(rng, in_dim, classes, hidden=hidden)
        assert mlp2.num_params <= 2000
        boundary = int(rng.integers(0, 3))
        params = ModelParams(mlp2.layers, boundary, mlp2.vector)
        dim = (in_dim, hidden, classes)[boundary]
        batch = rng.standard_normal((int(rng.integers(2, 7)), in_dim))
        labels = rng.integers(0, classes, size=len(batch))
        protos = GlobalPrototypeSet.from_vectors(
            {c: rng.standard_normal(dim) for c in range(classes) if rng.random() < 0.75}
        )
        lam = (0.0, 0.5, 1.0)[trial % 3]
        analytic = loss_and_grad(params, batch, labels, protos, lam).grads
        numeric = finite_diff_gradient(
            lambda p: loss_and_grad(p, batch, labels, protos, lam).total_loss, params, eps=1e-5
        )
        denom = np.maximum.reduce([np.abs(analytic), np.abs(numeric), np.full_like(analytic, 1e-6)])
        worst = max(worst, float((np.abs(analytic - numeric) / denom).max()))
    return worst


def aggregation_error(instances: int, seed: int) -> float:
    """Worst absolute deviation of prototype aggregation and of the weighted
    model average from brute-force sums, over random client sets."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(instances):
        n_clients = int(rng.integers(1, 6))
        dim = int(rng.integers(1, 8))
        clients = []
        for _ in range(n_clients):
            c = np.sort(rng.choice(6, size=int(rng.integers(1, 5)), replace=False))
            clients.append(LocalPrototypes(c, rng.standard_normal((len(c), dim)), rng.integers(1, 12, len(c))))
        agg = aggregate_global_prototypes(clients)
        for cls, vector in agg.class_vectors().items():
            vectors = np.concatenate([p.vectors[p.classes == cls] for p in clients])
            brute = np.sum(vectors, axis=0) / len(vectors)
            worst = max(worst, float(np.abs(vector - brute).max()))

        layers = [
            LayerParams("fc", "dense", rng.standard_normal((3, 2)), rng.standard_normal(3))
            for _ in range(n_clients)
        ]
        models = [ModelParams([layer], 1) for layer in layers]
        weights = [float(rng.integers(1, 30)) for _ in range(n_clients)]
        avg = server_weighted_average(list(zip(models, weights)))
        brute = sum((w / sum(weights)) * m.vector for m, w in zip(models, weights))
        worst = max(worst, float(np.abs(avg.vector - brute).max()))
    return worst


def fedavg_mismatch(runs: int, seed: int) -> str | None:
    """First round in which fedpr with lambda=0 differs from fedavg in a loss
    or accuracy value, and so in rounds.csv. Run r draws a small synthetic
    mlp2 federation and runs both strategies at master seed r."""
    meta_rng = np.random.default_rng(seed)
    for run in range(runs):
        cfg = FederationConfig(
            num_clients=int(meta_rng.integers(2, 6)), rounds=3,
            local_epochs=int(meta_rng.integers(1, 3)), batch_size=int(meta_rng.choice([4, 8])),
            dirichlet_alpha=float(meta_rng.choice([0.1, 0.5, 2.0])), master_seed=run,
            dataset="synthetic", model="mlp2", subsample_n=100, synth_classes=4, synth_dim=10,
            synth_per_class=30, synth_test_per_class=10,
            strategy="fedavg", **FEDAVG_VALUES,
        )
        rec_avg = run_experiment(cfg)
        rec_pr0 = run_experiment(cfg.replace(strategy="fedpr"))
        for a, b in zip(rec_avg, rec_pr0, strict=True):
            if a != b:
                return f"run {run}, round {a.round_index}: fedpr(lambda=0) {b} != fedavg {a}"
    return None


def partition_mismatch(seeds: int, seed: int, num_samples: int, num_clients: int) -> str | None:
    """First Dirichlet partition, at seeds 0..seeds-1 and alpha 0.05 and 10,
    that is not an exact cover of the ten-class samples; or a mean largest-
    class share of a client that is not higher at alpha=0.05 than at 10."""
    labels = np.random.default_rng(seed).integers(0, 10, size=num_samples)
    mean_share = {}
    for alpha in (0.05, 10.0):
        shares = []
        for part_seed in range(seeds):
            shards = dirichlet_partition(labels, num_clients, alpha, seed=part_seed)
            merged = np.sort(np.concatenate([s.indices for s in shards]))
            if not np.array_equal(merged, np.arange(num_samples)):
                return f"alpha={alpha}, seed {part_seed}: not an exact cover of {num_samples} samples"
            counts = class_counts(shards, labels, 10)
            sizes = counts.sum(axis=1)
            shares.extend(counts.max(axis=1)[sizes > 0] / sizes[sizes > 0])
        mean_share[alpha] = float(np.mean(shares))
    if mean_share[0.05] <= mean_share[10.0]:
        return f"largest-class share {mean_share[0.05]:.3f} at alpha=0.05, {mean_share[10.0]:.3f} at 10"
    return None
