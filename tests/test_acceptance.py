"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. The image-dataset
criteria need the MNIST / Fashion-MNIST IDX files under $FEDPR_DATA_DIR
(default ./data) and skip, with an explanation, when the files are
absent.
"""

import math
import os
import time
import numpy as np
import pytest

from fedpr.cli import build_artifact, write_round_csv, write_summary
from fedpr.data import class_counts, dirichlet_partition, find_idx_file
from fedpr.evaluation import last_k_mean
from fedpr.federation import FederationConfig, run_experiment, server_weighted_average
from fedpr.nn import LayerParams, ModelParams, build_mlp2, finite_diff_gradient, loss_and_grad
from fedpr.prototypes import Prototype, aggregate_global_prototypes

DATA_DIR = os.environ.get("FEDPR_DATA_DIR", "data")

MNIST_SEEDS = (0, 1, 2)


def dataset_available(name: str) -> bool:
    return all(
        find_idx_file(DATA_DIR, name, kind) is not None
        for kind in ("train_images", "train_labels", "test_images", "test_labels")
    )


requires_mnist = pytest.mark.skipif(
    not dataset_available("mnist"),
    reason=f"MNIST IDX files not found under {DATA_DIR!r}; set FEDPR_DATA_DIR to run",
)
requires_fashion = pytest.mark.skipif(
    not dataset_available("fashion"),
    reason=f"Fashion-MNIST IDX files not found under {DATA_DIR!r}; set FEDPR_DATA_DIR to run",
)


def check(criterion: int, ok: bool, detail: str) -> None:
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def reference_protocol(dataset: str, seed: int, strategy: str) -> FederationConfig:
    """The scaled reproduction protocol: 10 clients, Dir(0.05), 2000
    samples, B=8, eta=0.01, mu=0.5, T=100, cnn4; E=1 (mnist) / E=5 (fashion)."""
    return FederationConfig(
        num_clients=10,
        rounds=100,
        local_epochs=5 if dataset == "fashion" else 1,
        batch_size=8,
        learning_rate=0.01,
        momentum=0.5,
        dirichlet_alpha=0.05,
        lam=1.0 if strategy == "fedpr" else 0.0,
        strategy=strategy,
        model="cnn4",
        master_seed=seed,
        dataset=dataset,
        data_dir=DATA_DIR,
        subsample_n=2000,
        eval_inference="both" if strategy == "fedpr" else "softmax",
    )


def natural_last10(records, strategy: str) -> float:
    field = "test_accuracy_prototype" if strategy == "fedpr" else "test_accuracy_softmax"
    return last_k_mean(records, 10, field)


def first_round_reaching(records, threshold: float) -> float:
    for record in records:
        if record.test_accuracy_softmax is not None and record.test_accuracy_softmax >= threshold:
            return record.round_index
    return math.inf


# --- criterion 1: gradient correctness --------------------------------------


def test_criterion_1_gradient_correctness():
    start = time.perf_counter()
    rng = np.random.default_rng(0xC1)
    worst = 0.0
    for trial in range(50):
        in_dim = int(rng.integers(3, 11))
        hidden = int(rng.integers(4, 17))
        classes = int(rng.integers(2, 6))
        params = build_mlp2(rng, in_dim, classes, hidden=hidden)
        assert params.num_params <= 2000
        batch = rng.standard_normal((int(rng.integers(2, 7)), in_dim))
        labels = rng.integers(0, classes, size=len(batch))
        protos = {c: rng.standard_normal(hidden) for c in range(classes) if rng.random() < 0.75}
        lam = [0.0, 0.5, 1.0][trial % 3]
        analytic = loss_and_grad(params, batch, labels, protos, lam).grads
        numeric = finite_diff_gradient(
            lambda p: loss_and_grad(p, batch, labels, protos, lam).total_loss, params, eps=1e-5
        )
        denom = np.maximum.reduce([np.abs(analytic), np.abs(numeric), np.full_like(analytic, 1e-6)])
        worst = max(worst, float((np.abs(analytic - numeric) / denom).max()))
    elapsed = time.perf_counter() - start
    check(
        1,
        worst < 1e-4 and elapsed < 30.0,
        f"50 instances, max relative gradient error {worst:.2e} (< 1e-4), {elapsed:.1f}s (< 30s)",
    )


# --- criterion 2: fedavg reduction ------------------------------------------


def test_criterion_2_fedavg_reduction_bitwise(tmp_path):
    start = time.perf_counter()
    meta_rng = np.random.default_rng(0xC2)
    for seed in range(10):
        base = dict(
            num_clients=int(meta_rng.integers(2, 6)),
            rounds=3,
            local_epochs=int(meta_rng.integers(1, 3)),
            batch_size=int(meta_rng.choice([4, 8])),
            dirichlet_alpha=float(meta_rng.choice([0.1, 0.5, 2.0])),
            dataset="synthetic",
            model="mlp2",
            master_seed=seed,
            subsample_n=100,
            synth_classes=4,
            synth_dim=10,
            synth_per_class=30,
            synth_test_per_class=10,
            eval_inference="softmax",
        )
        rec_avg = run_experiment(FederationConfig(strategy="fedavg", lam=0.0, **base))
        rec_pr0 = run_experiment(FederationConfig(strategy="fedpr", lam=0.0, **base))
        path_avg = tmp_path / f"avg_{seed}.csv"
        path_pr0 = tmp_path / f"pr0_{seed}.csv"
        write_round_csv(rec_avg, path_avg)
        write_round_csv(rec_pr0, path_pr0)
        if path_avg.read_bytes() != path_pr0.read_bytes():
            check(2, False, f"seed {seed}: fedpr(lambda=0) rounds.csv differs from fedavg")
    elapsed = time.perf_counter() - start
    check(2, elapsed < 60.0, f"10 seeds bit-identical rounds.csv, {elapsed:.1f}s (< 60s)")


# --- criterion 3: aggregation oracles ---------------------------------------


def test_criterion_3_aggregation_oracles():
    start = time.perf_counter()
    rng = np.random.default_rng(0xC3)
    worst = 0.0
    for _ in range(100):
        n_clients = int(rng.integers(1, 6))
        dim = int(rng.integers(1, 8))
        clients = [
            [
                Prototype(int(c), rng.standard_normal(dim), int(rng.integers(1, 12)))
                for c in rng.choice(6, size=int(rng.integers(1, 5)), replace=False)
            ]
            for _ in range(n_clients)
        ]
        agg = aggregate_global_prototypes(clients)
        for cls in agg.classes():
            vectors = [p.vector for protos in clients for p in protos if p.class_id == cls]
            brute = np.sum(vectors, axis=0) / len(vectors)
            worst = max(worst, float(np.abs(agg.entries[cls].vector - brute).max()))

        models = [
            ModelParams(
                [LayerParams("fc", "dense", rng.standard_normal((3, 2)), rng.standard_normal(3))], 1
            )
            for _ in range(n_clients)
        ]
        weights = [float(rng.integers(1, 30)) for _ in range(n_clients)]
        avg = server_weighted_average(list(zip(models, weights)))
        total = sum(weights)
        brute_w = sum((w / total) * m.layers[0].weight for m, w in zip(models, weights))
        brute_b = sum((w / total) * m.layers[0].bias for m, w in zip(models, weights))
        worst = max(worst, float(np.abs(avg.layers[0].weight - brute_w).max()))
        worst = max(worst, float(np.abs(avg.layers[0].bias - brute_b).max()))
    elapsed = time.perf_counter() - start
    check(
        3,
        worst <= 1e-12 and elapsed < 5.0,
        f"100 instances, max deviation from brute force {worst:.2e} (<= 1e-12), {elapsed:.1f}s (< 5s)",
    )


# --- criterion 4: partition properties --------------------------------------


def test_criterion_4_partition_properties():
    start = time.perf_counter()
    rng = np.random.default_rng(0xC4)
    labels = rng.integers(0, 10, size=2000)

    def mean_max_share(alpha):
        shares = []
        for seed in range(20):
            shards = dirichlet_partition(labels, 10, alpha, seed=seed)
            merged = np.concatenate([s.indices for s in shards])
            assert len(merged) == len(labels), "partition lost samples"
            assert len(np.unique(merged)) == len(labels), "partition duplicated samples"
            counts = class_counts(shards, labels, 10)
            sizes = counts.sum(axis=1)
            shares.extend(counts[i].max() / sizes[i] for i in range(10) if sizes[i])
        return float(np.mean(shares))

    skewed = mean_max_share(0.05)
    flat = mean_max_share(10.0)
    elapsed = time.perf_counter() - start
    check(
        4,
        skewed > flat and elapsed < 10.0,
        f"completeness exact over 40 partitions; max-class share {skewed:.3f} @ alpha=0.05 "
        f"> {flat:.3f} @ alpha=10, {elapsed:.1f}s (< 10s)",
    )


# --- criteria 5, 7, 9: MNIST protocol ---------------------------------------


@pytest.fixture(scope="module")
def mnist_runs():
    runs = {}
    for seed in MNIST_SEEDS:
        for strategy in ("fedpr", "fedavg"):
            cfg = reference_protocol("mnist", seed, strategy)
            runs[(strategy, seed)] = (cfg, run_experiment(cfg))
    return runs


@requires_mnist
def test_criterion_5_mnist_reproduction(mnist_runs):
    pr = np.mean([natural_last10(mnist_runs[("fedpr", s)][1], "fedpr") for s in MNIST_SEEDS])
    avg = np.mean([natural_last10(mnist_runs[("fedavg", s)][1], "fedavg") for s in MNIST_SEEDS])
    delta_pp = 100.0 * (pr - avg)
    check(
        5,
        delta_pp >= 1.0 and avg > 0.85,
        f"last-10 means over 3 seeds: fedpr {100 * pr:.2f}%, fedavg {100 * avg:.2f}% "
        f"(reference 94.62% / 91.57%), delta {delta_pp:+.2f} pp (>= 1.0), fedavg > 85%",
    )


@requires_fashion
def test_criterion_6_fashion_reproduction():
    last10 = {}
    for strategy in ("fedpr", "fedavg"):
        values = []
        for seed in MNIST_SEEDS:
            records = run_experiment(reference_protocol("fashion", seed, strategy))
            values.append(natural_last10(records, strategy))
        last10[strategy] = float(np.mean(values))
    delta_pp = 100.0 * (last10["fedpr"] - last10["fedavg"])
    check(
        6,
        delta_pp >= 2.0 and last10["fedavg"] > 0.70,
        f"last-10 means over 3 seeds: fedpr {100 * last10['fedpr']:.2f}%, "
        f"fedavg {100 * last10['fedavg']:.2f}% (reference 86.05% / 79.04%), "
        f"delta {delta_pp:+.2f} pp (>= 2.0), fedavg > 70%",
    )


@requires_mnist
def test_criterion_7_convergence_rate(mnist_runs):
    wins = 0
    details = []
    for seed in MNIST_SEEDS:
        round_pr = first_round_reaching(mnist_runs[("fedpr", seed)][1], 0.90)
        round_avg = first_round_reaching(mnist_runs[("fedavg", seed)][1], 0.90)
        details.append(f"seed {seed}: fedpr@{round_pr} fedavg@{round_avg}")
        if round_pr <= round_avg:
            wins += 1
    check(
        7,
        wins >= 2,
        f"rounds to 90% softmax accuracy, {'; '.join(details)}; fedpr first in {wins}/3 seeds (>= 2)",
    )


@requires_mnist
def test_criterion_9_protocol_determinism(mnist_runs, tmp_path):
    cfg, records = mnist_runs[("fedpr", MNIST_SEEDS[0])]
    replay = run_experiment(cfg)
    for suffix, recs in (("a", records), ("b", replay)):
        write_round_csv(recs, tmp_path / f"rounds_{suffix}.csv")
        write_summary(build_artifact(cfg, recs), tmp_path / f"summary_{suffix}.json")
    same_csv = (tmp_path / "rounds_a.csv").read_bytes() == (tmp_path / "rounds_b.csv").read_bytes()
    same_sum = (tmp_path / "summary_a.json").read_bytes() == (tmp_path / "summary_b.json").read_bytes()
    check(9, same_csv and same_sum, "repeated reference run emits byte-identical artifacts")


# --- criterion 8: nearest-prototype sanity -----------------------------------


def test_criterion_8_nearest_prototype_sanity():
    start = time.perf_counter()
    cfg = FederationConfig(
        strategy="fedpr",
        lam=1.0,
        model="mlp2",
        dataset="synthetic",
        num_clients=4,
        rounds=20,
        local_epochs=1,
        batch_size=8,
        learning_rate=0.01,
        momentum=0.5,
        dirichlet_alpha=0.05,
        subsample_n=400,
        synth_classes=4,
        synth_dim=16,
        synth_per_class=100,
        synth_test_per_class=50,
        synth_spread=0.05,
        master_seed=0,
    )
    records = run_experiment(cfg)
    accuracy = records[-1].test_accuracy_prototype
    elapsed = time.perf_counter() - start
    check(
        8,
        accuracy >= 0.99 and elapsed < 20.0,
        f"prototype accuracy {accuracy:.3f} after 20 rounds (>= 0.99), {elapsed:.1f}s (< 20s)",
    )
