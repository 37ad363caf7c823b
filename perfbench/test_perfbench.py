"""Tests of the benchmark itself: its counters, its spans, its seeds, its
pinned hashes and its refusal to run without the simulator's sources.

    python3 -m pytest perfbench -q
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import workloads as wl
from fedpr import federation
from tracer import (
    PROTOTYPE_SPANS,
    ROUND_SPAN,
    ROUND_WRAPS,
    SETUP_WRAPS,
    TraceError,
    Tracer,
    Wrap,
    check_coverage,
)

HERE = Path(__file__).resolve().parent


def small_config(workload, seed=0):
    """The workload's shape on far less data, one round."""
    return wl.workload_config(workload, seed).replace(
        synth_per_class=20, synth_test_per_class=7, subsample_n=150, rounds=1
    )


def traced_run(cfg):
    tracer = Tracer()
    with tracer.installed(SETUP_WRAPS + ROUND_WRAPS):
        setup, _ = wl.set_up(cfg)
        result = wl.run_rounds(setup, cfg, tracer)
    assert result.error is None
    return setup, tracer


@pytest.fixture(scope="module", params=sorted(wl.WORKLOADS))
def traced(request):
    cfg = small_config(request.param)
    setup, tracer = traced_run(cfg)
    return cfg, setup, tracer


def test_loss_and_grad_calls_follow_shard_sizes(traced):
    cfg, setup, tracer = traced
    sizes = [len(s) for s in setup.shards if len(s)]
    steps = sum(math.ceil(n / cfg.batch_size) for n in sizes) * cfg.local_epochs
    assert tracer.get("nn.loss_and_grad").calls == steps
    assert tracer.get("nn.sgd_momentum_step").calls == steps
    assert tracer.get("nn.loss_and_grad").samples == sum(sizes) * cfg.local_epochs


def test_local_prototypes_run_once_per_nonempty_client_on_fedpr_only(traced):
    cfg, setup, tracer = traced
    nonempty = sum(1 for s in setup.shards if len(s))
    assert tracer.get("federation.client_local_update").calls == nonempty
    if cfg.strategy == "fedpr":
        assert tracer.get("prototypes.compute_local_prototypes").calls == nonempty
        assert tracer.get("prototypes.compute_local_prototypes").samples == len(setup.train)
    else:
        for name in PROTOTYPE_SPANS:
            assert tracer.get(name).calls == 0
    check_coverage(tracer, SETUP_WRAPS + ROUND_WRAPS, cfg.strategy == "fedpr")


def test_evaluation_sees_the_whole_test_set(traced):
    cfg, setup, tracer = traced
    assert tracer.get("evaluation.evaluate_accuracy").calls == cfg.rounds
    assert tracer.get("evaluation.evaluate_accuracy").samples == len(setup.test) * cfg.rounds
    assert tracer.get("evaluation.model_forward").samples == len(setup.test) * cfg.rounds


def test_child_spans_fit_inside_their_parents(traced):
    _, _, tracer = traced
    for name, stats in tracer.stats.items():
        assert 0.0 <= stats.child_seconds <= stats.seconds, name
    local = tracer.get("federation.client_local_update")
    children = ("nn.loss_and_grad", "nn.sgd_momentum_step", "prototypes.compute_local_prototypes")
    assert sum(tracer.get(c).seconds for c in children) <= local.seconds
    round_children = (
        "federation.client_local_update",
        "federation.server_weighted_average",
        "prototypes.aggregate_global_prototypes",
        "evaluation.evaluate_accuracy",
    )
    assert sum(tracer.get(c).seconds for c in round_children) <= tracer.get(ROUND_SPAN).seconds


def test_seed_changes_inputs_and_final_state():
    digests = {}
    for seed in (0, 1, 0):
        cfg = small_config("cnn4-ref-fedpr", seed)
        setup, _ = wl.set_up(cfg)
        result = wl.run_rounds(setup, cfg)
        digests.setdefault(seed, set()).add((setup.inputs_sha256, result.state_sha256))
    assert len(digests[0]) == 1, "the same seed must give the same inputs and state"
    (inputs0, state0), (inputs1, state1) = digests[0].pop(), digests[1].pop()
    assert inputs0 != inputs1 and state0 != state1


def test_installed_restores_entry_points():
    original = federation.loss_and_grad
    with Tracer().installed(ROUND_WRAPS):
        assert federation.loss_and_grad is not original
    assert federation.loss_and_grad is original


def test_missing_entry_point_stops_the_trace():
    missing = Wrap("fedpr.federation", "no_such_entry_point", "federation.no_such_entry_point")
    original = federation.loss_and_grad
    with pytest.raises(TraceError, match="fedpr.federation.no_such_entry_point"):
        with Tracer().installed(ROUND_WRAPS + (missing,)):
            pass
    assert federation.loss_and_grad is original


def test_uncalled_or_unexpected_entry_point_stops_the_trace():
    _, fedavg = traced_run(small_config("cnn4-ref-fedavg"))
    with pytest.raises(TraceError, match="compute_local_prototypes.*never called"):
        check_coverage(fedavg, ROUND_WRAPS, prototype_path=True)
    _, fedpr = traced_run(small_config("cnn4-ref-fedpr"))
    with pytest.raises(TraceError, match="without prototypes"):
        check_coverage(fedpr, ROUND_WRAPS, prototype_path=False)


def test_malformed_round_record_is_a_failure():
    cfg = small_config("cnn4-ref-fedavg")
    record = federation.RoundRecord(1, float("nan"), 0.5, None)
    assert "non-finite" in wl.check_record(record, 1, cfg)
    record = federation.RoundRecord(1, 1.0, 1.5, None)
    assert "outside [0, 1]" in wl.check_record(record, 1, cfg)
    assert wl.check_record(federation.RoundRecord(1, 1.0, 0.5, None), 1, cfg) is None


def test_benchmark_declares_the_workloads_it_runs():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    assert set(wl.load_golden()["sha256"]) == set(wl.WORKLOADS)


def run_benchmark(cwd, workload):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0", "--seconds", "1"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", sorted(wl.WORKLOADS))
def test_pinned_final_state_hash(workload):
    proc = run_benchmark(HERE.parent, workload)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert f"final-state sha256 {wl.load_golden()['sha256'][workload]}" in proc.stdout


def test_refuses_to_run_without_the_simulator(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_benchmark(tmp_path, "mlp2-50clients-fedpr")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
