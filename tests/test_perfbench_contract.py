"""The benchmark harness under perfbench/ wraps fedpr entry points by name
and calls some of them directly. This checks, without timing anything,
that every wrapped one still exists and still has the parameter it counts
samples from, that the direct calls still fit together, and that the
workloads still set up and run, so that a src change which would make
the benchmark exit with an error fails here first."""

import importlib.util
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from fedpr import nn
from fedpr.data import ClientShard, Dataset
from fedpr.prototypes import aggregate_global_prototypes, compute_local_prototypes

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_perfbench(monkeypatch, name: str):
    """Import perfbench/<name>.py as the top-level module ``name``, the way
    the harness's own scripts import each other."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def test_every_traced_entry_point_exists_with_its_samples_parameter(monkeypatch):
    tracer = load_perfbench(monkeypatch, "tracer")
    # installed() raises TraceError for a missing entry point or parameter
    with tracer.Tracer().installed(tracer.SETUP_WRAPS + tracer.ROUND_WRAPS):
        pass


def test_microbenchmark_prototype_calls_fit_together():
    # perfbench/microbench.py feeds compute_local_prototypes' result to
    # aggregate_global_prototypes([local]) and that to loss_and_grad, at
    # the evaluation chunk; here at 12 samples.
    rng = np.random.default_rng(0)
    params = nn.build_cnn4(rng)
    x = rng.random((12, 1, 28, 28))
    labels = np.arange(12) % 10
    local = compute_local_prototypes(params, Dataset(x, labels, 10), ClientShard(0, np.arange(12)))
    protos = aggregate_global_prototypes([local])
    assert protos.classes.tolist() == list(range(10)) and protos.vectors.shape == (10, 50)
    report = nn.loss_and_grad(params, x[:8], labels[:8], protos, 1.0)
    assert np.isfinite(report.total_loss) and report.proto_loss > 0.0


def test_every_nn_name_the_microbenchmark_calls_exists(monkeypatch):
    microbench = load_perfbench(monkeypatch, "microbench")  # its fedpr imports resolve
    assert microbench.eval_chunk() > microbench._BATCH
    names = set(re.findall(r"\bnn\.(\w+)", (PERFBENCH / "microbench.py").read_text()))
    assert "model_forward" in names
    assert sorted(name for name in names if not hasattr(nn, name)) == []


# One round on a few samples: the workloads' code paths in a fraction of a second.
SHRUNK = dict(rounds=1, subsample_n=60, synth_per_class=8, synth_test_per_class=4)


@pytest.mark.parametrize("workload", ["cnn4-ref-fedpr", "mlp2-50clients-fedpr"])
def test_shrunken_workload_sets_up_and_runs(monkeypatch, workload):
    load_perfbench(monkeypatch, "tracer")  # workloads.py imports it by that name
    wl = load_perfbench(monkeypatch, "workloads")
    full = wl.workload_config(workload, 0)
    cfg = full.replace(**SHRUNK).validate()
    setup, seconds = wl.set_up(cfg)
    assert seconds > 0.0 and len(setup.shards) == full.num_clients
    result = wl.run_rounds(setup, cfg)
    assert result.error is None
    assert len(result.round_seconds) == 1 and len(result.state_sha256) == 64


@pytest.mark.parametrize("workload", ["cnn4-ref-fedpr", "cnn4-ref-fedavg", "mlp2-50clients-fedpr"])
def test_traced_pass_sees_every_call_of_a_shrunken_workload(monkeypatch, workload):
    """The checks of ``perfbench/run.py --trace 1`` on one shrunken run.

    The harness's tracer counts the wrapped calls on one span stack in the
    calling process, so a src change that moves them to another process
    or thread makes ``--trace 1`` exit with an error; this fails first.
    It mirrors how run.py traces today: when the harness changes how it
    traces (ROADMAP item 2), this guard must change with it.
    """
    tracer = load_perfbench(monkeypatch, "tracer")
    wl = load_perfbench(monkeypatch, "workloads")
    run = load_perfbench(monkeypatch, "run")
    cfg = wl.workload_config(workload, 0).replace(**SHRUNK).validate()
    wraps = tracer.SETUP_WRAPS + tracer.ROUND_WRAPS
    trace = tracer.Tracer()
    with trace.installed(wraps):
        setup, _ = wl.set_up(cfg)
        result = wl.run_rounds(setup, cfg, trace)
    assert result.error is None
    tracer.check_coverage(trace, wraps, cfg.strategy == "fedpr")
    steps = cfg.local_epochs * sum(-(-len(shard.indices) // cfg.batch_size) for shard in setup.shards)
    assert trace.get("nn.loss_and_grad").calls == steps > 0
    rounds = trace.get(tracer.ROUND_SPAN)
    assert rounds.child_seconds / rounds.seconds >= run.MIN_CHILD_SHARE
