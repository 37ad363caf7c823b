"""The benchmark harness under perfbench/ wraps fedpr entry points by name.
This checks, without running the benchmark, that every one of them still
exists and still has the parameter it counts samples from."""

import importlib.util
import sys
from pathlib import Path

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
