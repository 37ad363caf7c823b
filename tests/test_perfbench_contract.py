"""The benchmark harness under perfbench/ wraps fedpr entry points by name
and calls some of them directly. This checks, without running the
benchmark, that every wrapped one still exists and still has the
parameter it counts samples from, and that the direct calls still fit
together."""

import importlib.util
import sys
from pathlib import Path

import numpy as np

from fedpr import nn
from fedpr.data import ClientShard, Dataset
from fedpr.prototypes import aggregate_global_prototypes, compute_local_prototypes

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_traced_entry_point_exists_with_its_samples_parameter(monkeypatch):
    tracer = load_tracer(monkeypatch)
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
