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

from fedpr import checks
from fedpr.cli import build_artifact, natural_accuracy_field, write_round_csv, write_summary
from fedpr.data import find_idx_file
from fedpr.evaluation import last_k_mean
from fedpr.federation import FEDAVG_VALUES, FederationConfig, run_experiment

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
    samples, B=8, eta=0.01, mu=0.5, T=100, cnn4; E=1 (mnist) / E=5 (fashion);
    fedpr at lambda=1 scored on both paths, fedavg at the values it forces."""
    fedpr = {"lam": 1.0, "eval_inference": "both"}
    return FederationConfig(
        num_clients=10,
        rounds=100,
        local_epochs=5 if dataset == "fashion" else 1,
        batch_size=8,
        learning_rate=0.01,
        momentum=0.5,
        dirichlet_alpha=0.05,
        strategy=strategy,
        model="cnn4",
        master_seed=seed,
        dataset=dataset,
        data_dir=DATA_DIR,
        subsample_n=2000,
        **(fedpr if strategy == "fedpr" else FEDAVG_VALUES),
    )


def natural_last10(cfg: FederationConfig, records) -> float:
    return last_k_mean(records, 10, natural_accuracy_field(cfg))


def first_round_reaching(records, threshold: float) -> float:
    for record in records:
        if record.test_accuracy_softmax is not None and record.test_accuracy_softmax >= threshold:
            return record.round_index
    return math.inf


# --- criteria 1-4: the checks `fedpr selftest` runs, at full size -----------


def test_criterion_1_gradient_correctness():
    start = time.perf_counter()
    worst = checks.gradient_error(50, 0xC1)
    elapsed = time.perf_counter() - start
    check(
        1,
        worst < checks.GRADIENT_BOUND and elapsed < 30.0,
        f"50 instances, max relative gradient error {worst:.2e} (< {checks.GRADIENT_BOUND:.0e}), "
        f"{elapsed:.1f}s (< 30s)",
    )


def test_criterion_2_fedavg_reduction_bitwise():
    start = time.perf_counter()
    mismatch = checks.fedavg_mismatch(10, 0xC2)
    elapsed = time.perf_counter() - start
    check(
        2,
        mismatch is None and elapsed < 60.0,
        f"{mismatch or '10 seeds, fedpr(lambda=0) rounds equal to fedavg'}, {elapsed:.1f}s (< 60s)",
    )


def test_criterion_3_aggregation_oracles():
    start = time.perf_counter()
    worst = checks.aggregation_error(100, 0xC3)
    elapsed = time.perf_counter() - start
    check(
        3,
        worst <= checks.AGGREGATION_BOUND and elapsed < 5.0,
        f"100 instances, max deviation from brute force {worst:.2e} "
        f"(<= {checks.AGGREGATION_BOUND:.0e}), {elapsed:.1f}s (< 5s)",
    )


def test_criterion_4_partition_properties():
    start = time.perf_counter()
    mismatch = checks.partition_mismatch(20, 0xC4, num_samples=2000, num_clients=10)
    elapsed = time.perf_counter() - start
    check(
        4,
        mismatch is None and elapsed < 10.0,
        f"{mismatch or 'exact cover over 40 partitions, more skew at alpha=0.05 than at 10'}, "
        f"{elapsed:.1f}s (< 10s)",
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
    pr = np.mean([natural_last10(*mnist_runs[("fedpr", s)]) for s in MNIST_SEEDS])
    avg = np.mean([natural_last10(*mnist_runs[("fedavg", s)]) for s in MNIST_SEEDS])
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
            cfg = reference_protocol("fashion", seed, strategy)
            values.append(natural_last10(cfg, run_experiment(cfg)))
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
