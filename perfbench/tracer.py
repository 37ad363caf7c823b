"""Spans around the simulator's module boundaries, recorded from outside.

Each fedpr module binds the functions it imports by name, so a call is
intercepted by replacing that name in the *calling* module: wrapping
``fedpr.federation.loss_and_grad`` times the local-SGD calls, while
``fedpr.evaluation.model_forward`` and ``fedpr.prototypes.model_forward``
split forward passes by caller. Spans nest; each one records its total
time, call count, sample count and the time covered by its direct
children, so self time is ``seconds - child_seconds``.
"""

from __future__ import annotations

import importlib
import inspect
import time
from contextlib import contextmanager
from dataclasses import dataclass


class TraceError(RuntimeError):
    """The trace cannot be trusted: an entry point is gone or never ran."""


@dataclass
class SpanStats:
    seconds: float = 0.0
    calls: int = 0
    samples: int = 0
    child_seconds: float = 0.0

    @property
    def self_seconds(self) -> float:
        return self.seconds - self.child_seconds


@dataclass(frozen=True)
class Wrap:
    """One entry point: the name ``attr`` as bound in ``module``.

    ``samples_arg`` names the parameter whose ``len()`` counts the samples
    a call handles, or is None when the call has no sample count.
    """

    module: str
    attr: str
    metric: str
    samples_arg: str | None = None


# Calling module first, then the name it binds; the metric is named after
# the module that defines the function, except for model_forward, which is
# split by caller. Set-up entry points run once per set-up, round entry
# points on every round.
SETUP_WRAPS = (
    Wrap("fedpr.data", "synthetic_blobs", "data.synthetic_blobs"),
    Wrap("fedpr.data", "subsample", "data.subsample"),
    Wrap("fedpr.data", "dirichlet_partition", "data.dirichlet_partition"),
    Wrap("fedpr.federation", "init_global_model", "federation.init_global_model"),
)
ROUND_WRAPS = (
    Wrap("fedpr.federation", "client_local_update", "federation.client_local_update"),
    Wrap("fedpr.federation", "loss_and_grad", "nn.loss_and_grad", "batch"),
    Wrap("fedpr.federation", "sgd_momentum_step", "nn.sgd_momentum_step"),
    Wrap(
        "fedpr.federation",
        "compute_local_prototypes",
        "prototypes.compute_local_prototypes",
        "shard",
    ),
    Wrap("fedpr.federation", "server_weighted_average", "federation.server_weighted_average"),
    Wrap(
        "fedpr.federation",
        "aggregate_global_prototypes",
        "prototypes.aggregate_global_prototypes",
    ),
    Wrap("fedpr.federation", "evaluate_accuracy", "evaluation.evaluate_accuracy", "testset"),
    Wrap("fedpr.evaluation", "model_forward", "evaluation.model_forward", "batch"),
    Wrap("fedpr.prototypes", "model_forward", "prototypes.model_forward", "batch"),
)

# Span the benchmark itself opens around every run_round call.
ROUND_SPAN = "federation.run_round"

# Entry points that only the prototype path reaches.
PROTOTYPE_SPANS = (
    "prototypes.compute_local_prototypes",
    "prototypes.aggregate_global_prototypes",
    "prototypes.model_forward",
)


class Tracer:
    """Aggregated span statistics, keyed by metric name."""

    def __init__(self):
        self.stats: dict[str, SpanStats] = {}
        # Child time accumulated by each open span, innermost last.
        self._open: list[float] = []

    def _record(self, name: str, start: float, samples: int) -> None:
        elapsed = time.perf_counter() - start
        stats = self.stats.setdefault(name, SpanStats())
        stats.seconds += elapsed
        stats.calls += 1
        stats.samples += samples
        stats.child_seconds += self._open.pop()
        if self._open:
            self._open[-1] += elapsed

    @contextmanager
    def span(self, name: str, samples: int = 0):
        self._open.append(0.0)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._record(name, start, samples)

    def _wrapper(self, fn, wrap: Wrap):
        index = None
        if wrap.samples_arg is not None:
            params = list(inspect.signature(fn).parameters)
            if wrap.samples_arg not in params:
                raise TraceError(
                    f"{wrap.module}.{wrap.attr} has no parameter {wrap.samples_arg!r} "
                    f"to count samples from"
                )
            index = params.index(wrap.samples_arg)
        record = self._record
        open_spans = self._open

        def traced(*args, **kwargs):
            if index is None:
                samples = 0
            elif index < len(args):
                samples = len(args[index])
            else:
                samples = len(kwargs[wrap.samples_arg])
            open_spans.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                record(wrap.metric, start, samples)

        return traced

    @contextmanager
    def installed(self, wraps):
        """Replace every entry point with a timed wrapper; restore on exit.

        Raises TraceError naming the first entry point that no longer
        exists (or lost its sample-count parameter), before anything is
        replaced.
        """
        targets = []
        for wrap in wraps:
            module = importlib.import_module(wrap.module)
            original = getattr(module, wrap.attr, None)
            if not callable(original):
                raise TraceError(f"entry point {wrap.module}.{wrap.attr} no longer exists")
            targets.append((module, wrap.attr, original, self._wrapper(original, wrap)))
        try:
            for module, attr, _, traced in targets:
                setattr(module, attr, traced)
            yield self
        finally:
            for module, attr, original, _ in targets:
                setattr(module, attr, original)

    def get(self, name: str) -> SpanStats:
        return self.stats.get(name, SpanStats())


def check_coverage(tracer: Tracer, wraps, prototype_path: bool) -> None:
    """Fail unless every entry point ran, and the prototype path ran only
    where the strategy has one."""
    for wrap in wraps:
        calls = tracer.get(wrap.metric).calls
        if wrap.metric in PROTOTYPE_SPANS and not prototype_path:
            if calls:
                raise TraceError(f"{wrap.metric} ran {calls} times on a workload without prototypes")
        elif not calls:
            raise TraceError(f"entry point {wrap.module}.{wrap.attr} ({wrap.metric}) was never called")
