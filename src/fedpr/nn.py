"""Minimal float64 neural-network engine with hand-derived backprop.

Provides the two model families used by the simulator (a small conv net
and a two-layer MLP), cross-entropy with an optional prototype-pull
regularizer, classical heavy-ball SGD, and a central finite-difference
gradient used as the test oracle. There is no autodiff: every layer
implements its own backward pass.
"""

from __future__ import annotations

import ctypes
import logging
import math
import os
import pickle
import signal
import types
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .data import _int64, _labels
from .errors import DimensionError, NumericError

log = logging.getLogger(__name__)

_LAYER_KINDS = ("dense", "conv")


@dataclass
class LayerParams:
    """One parameterized layer plus the activations glued onto it."""

    name: str
    kind: str  # "dense" | "conv"
    weight: np.ndarray
    bias: np.ndarray
    relu: bool = False
    pool: bool = False  # 2x2 max-pool after the activation (conv only)

    def __post_init__(self):
        if self.kind not in _LAYER_KINDS:
            raise ValueError(f"unknown layer kind {self.kind!r}")
        self.weight = np.asarray(self.weight, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        if self.kind == "dense" and self.weight.ndim != 2:
            raise DimensionError(
                f"dense layer {self.name!r}: weight must be [out, in], got {self.weight.shape}"
            )
        if self.kind == "conv" and (
            self.weight.ndim != 4 or self.weight.shape[2] != self.weight.shape[3]
        ):
            raise DimensionError(
                f"conv layer {self.name!r}: kernel must be [outC, inC, k, k], got {self.weight.shape}"
            )
        if self.bias.ndim != 1 or self.bias.shape[0] != self.weight.shape[0]:
            raise DimensionError(
                f"layer {self.name!r}: bias shape {self.bias.shape} does not match "
                f"weight shape {self.weight.shape}"
            )
        if self.pool and self.kind != "conv":
            raise ValueError(f"layer {self.name!r}: pooling only follows conv layers")


def _layer_views(layers: Sequence[LayerParams], flat: np.ndarray):
    """Per-layer (weight, bias) views into a flat buffer in vector layout:
    layer order, each layer's weight (row-major) followed by its bias."""
    views = []
    end = 0
    for layer in layers:
        start, end = end, end + layer.weight.size
        weight = flat[start:end].reshape(layer.weight.shape)
        start, end = end, end + layer.bias.size
        views.append((weight, flat[start:end]))
    return views


@dataclass(eq=False)
class ModelParams:
    """Ordered parameter stack split into feature extractor and decision head.

    All parameters live in one contiguous float64 ``vector``; each layer's
    ``weight`` and ``bias`` are views into it, so a write through either
    shows up in the other. Given ``vector``, the layers supply only the
    layout (names, kinds, shapes, activations) and ``vector`` is used as
    is, not copied; without it, the layers' values are packed into a new
    vector.

    Layers with index < ``extractor_boundary`` form the extractor; the
    activation leaving the last extractor layer (after its ReLU/pool, if
    any), flattened per sample, is the embedding used for prototypes. The
    remaining layers form the decision head. The boundary runs from 0,
    where the embedding is the flattened input, to ``len(layers)``, where
    it is the logits.
    """

    layers: list[LayerParams]
    extractor_boundary: int
    vector: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if not self.layers:
            raise ValueError("model needs at least one layer")
        if not 0 <= self.extractor_boundary <= len(self.layers):
            raise ValueError(
                f"extractor_boundary {self.extractor_boundary} out of range "
                f"for {len(self.layers)} layers"
            )
        if self.vector is None:
            self.vector = np.concatenate(
                [a.ravel() for l in self.layers for a in (l.weight, l.bias)]
            )
        size = sum(l.weight.size + l.bias.size for l in self.layers)
        if self.vector.dtype != np.float64 or self.vector.shape != (size,):
            raise DimensionError(
                f"parameter vector must be float64 of shape ({size},), "
                f"got {self.vector.dtype} {self.vector.shape}"
            )
        self.layers = [
            replace(layer, weight=weight, bias=bias)
            for layer, (weight, bias) in zip(self.layers, _layer_views(self.layers, self.vector))
        ]

    def __reduce__(self):
        # Rebuilt through __init__ from the layout and the vector, so the
        # values are sent once and the copy's layers are views of its vector.
        return _params_from_spec, (*self._spec(), self.vector)

    def copy(self) -> "ModelParams":
        return ModelParams(self.layers, self.extractor_boundary, self.vector.copy())

    @property
    def num_params(self) -> int:
        return self.vector.size

    def _spec(self):
        return self.extractor_boundary, [
            (l.name, l.kind, l.weight.shape, l.bias.shape, l.relu, l.pool) for l in self.layers
        ]

    def same_structure(self, other: "ModelParams") -> bool:
        return self._spec() == other._spec()


def _params_from_spec(extractor_boundary: int, spec, vector: np.ndarray) -> ModelParams:
    """The model that ModelParams._spec describes, with ``vector`` as its values."""
    layers = [LayerParams(name, kind, np.empty(w), np.empty(b), relu, pool) for name, kind, w, b, relu, pool in spec]
    return ModelParams(layers, extractor_boundary, vector)


@dataclass
class OptimizerState:
    """Heavy-ball momentum buffer, laid out like ``ModelParams.vector``."""

    velocity: np.ndarray
    learning_rate: float
    momentum: float

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {self.momentum}")

    @classmethod
    def zeros(cls, params: ModelParams, learning_rate: float, momentum: float) -> "OptimizerState":
        return cls(np.zeros_like(params.vector), learning_rate, momentum)


@dataclass
class BatchLossReport:
    """Loss decomposition and exact gradients for one mini-batch.

    ``grads`` is laid out like ``ModelParams.vector``.
    """

    total_loss: float
    ce_loss: float
    proto_loss: float
    grads: np.ndarray


# ---------------------------------------------------------------------------
# Layer primitives
# ---------------------------------------------------------------------------


def dense_forward(weight: np.ndarray, bias: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Affine map: out[b, o] = sum_k weight[o, k] * x[b, k] + bias[o]."""
    weight = np.asarray(weight, dtype=np.float64)
    bias = np.asarray(bias, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise DimensionError(f"dense input must be [batch, in], got {x.shape}")
    if weight.ndim != 2 or weight.shape[1] != x.shape[1]:
        raise DimensionError(
            f"dense weight {weight.shape} does not match input {x.shape}"
        )
    if bias.shape != (weight.shape[0],):
        raise DimensionError(f"dense bias {bias.shape} does not match weight {weight.shape}")
    return x @ weight.T + bias


def _im2col(x: np.ndarray, k: int) -> np.ndarray:
    """Unfold valid stride-1 windows into [batch, C*k*k, H'*W'] (copies)."""
    b, c, h, w = x.shape
    ho, wo = h - k + 1, w - k + 1
    s0, s1, s2, s3 = x.strides
    windows = np.lib.stride_tricks.as_strided(
        x,
        shape=(b, c, k, k, ho, wo),
        strides=(s0, s1, s2, s3, s2, s3),
        writeable=False,
    )
    return windows.reshape(b, c * k * k, ho * wo)


def _conv2d_cached(kernel: np.ndarray, bias: np.ndarray | None, x: np.ndarray):
    """Conv output [batch, outC, H', W'] and its im2col buffer; bias=None
    leaves the bias out."""
    out_c, in_c, k, _ = kernel.shape
    b, c, h, w = x.shape
    if c != in_c:
        raise DimensionError(f"conv kernel expects {in_c} input channels, input has {c}")
    if k > h or k > w:
        raise DimensionError(f"conv kernel {k}x{k} larger than input {h}x{w}")
    ho, wo = h - k + 1, w - k + 1
    cols = _im2col(x, k)
    y = np.matmul(kernel.reshape(out_c, -1), cols)
    if bias is not None:
        y += bias[:, None]
    return y.reshape(b, out_c, ho, wo), cols


def conv2d_forward(kernel: np.ndarray, bias: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Valid (no padding) stride-1 cross-correlation plus per-channel bias."""
    kernel = np.asarray(kernel, dtype=np.float64)
    bias = np.asarray(bias, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    if kernel.ndim != 4 or kernel.shape[2] != kernel.shape[3]:
        raise DimensionError(f"conv kernel must be [outC, inC, k, k], got {kernel.shape}")
    if x.ndim != 4:
        raise DimensionError(f"conv input must be [batch, C, H, W], got {x.shape}")
    if bias.shape != (kernel.shape[0],):
        raise DimensionError(f"conv bias {bias.shape} does not match kernel {kernel.shape}")
    y, _ = _conv2d_cached(kernel, bias, x)
    return y


def _conv2d_backward(dy: np.ndarray, cols: np.ndarray, x_shape, kernel: np.ndarray, need_dx: bool):
    """Kernel, bias and input gradients of a conv layer.

    dy is the output gradient in channel-major [outC, batch, H', W'] layout,
    contiguous; cols is the forward's [batch, C*k*k, H'*W'] im2col buffer.
    """
    out_c, in_c, k, _ = kernel.shape
    _, b, ho, wo = dy.shape
    dy_rows = dy.reshape(out_c, b, ho * wo)
    # [outC, batch*H'W'] x [batch*H'W', C*k*k], summing over (sample, row,
    # column) in order: the product np.tensordot forms on the
    # [batch, outC, H', W'] layout. The reshape copies the transposed cols
    # into a contiguous operand, except for a single sample, where it is a
    # transposed view; OpenBLAS rounds small products of the two layouts
    # differently, so the reshape must decide as it does in tensordot.
    d_kernel = dy.reshape(out_c, -1) @ cols.transpose(0, 2, 1).reshape(b * ho * wo, -1)
    # Pairwise sums over H'W' per (channel, sample), then added up sample
    # by sample: the rows of a C-ordered [batch, outC] array, in order.
    d_bias = np.ascontiguousarray(dy_rows.sum(axis=2).T).sum(axis=0)
    d_kernel = d_kernel.reshape(kernel.shape)
    if not need_dx:
        return d_kernel, d_bias, None
    # Per-sample products, as in the forward: [C*k*k, outC] x [outC, H'W'].
    dy_per_sample = np.ascontiguousarray(dy_rows.transpose(1, 0, 2))
    d_cols = np.matmul(kernel.reshape(out_c, -1).T, dy_per_sample).reshape(b * in_c, k, k, ho, wo)
    # col2im in a spatial-major layout, [k, k, H', W', batch*C] and
    # [H, W, batch*C], so each shifted add writes whole destination rows
    # of W'*batch*C contiguous values (the d_cols source is a strided
    # view); every element still sums its (di, dj) terms in the same order.
    d_cols = np.moveaxis(d_cols, 0, -1)
    h, w = x_shape[2], x_shape[3]
    dx = np.zeros((h, w, b * in_c))
    for di in range(k):
        for dj in range(k):
            dx[di : di + ho, dj : dj + wo] += d_cols[di, dj]
    return d_kernel, d_bias, np.moveaxis(dx, -1, 0).reshape(x_shape)


def relu(x: np.ndarray) -> np.ndarray:
    """Element-wise max(0, x); the derivative at exactly 0 is taken as 0."""
    return np.maximum(np.asarray(x, dtype=np.float64), 0.0)


def _check_pool_dims(x: np.ndarray):
    h, w = x.shape[2], x.shape[3]
    if h % 2 or w % 2:
        raise DimensionError(f"maxpool2 needs even spatial dims, got {h}x{w}")


# Offsets of the four 2x2 window positions, in the row-major order that
# decides which of several equal maxima receives the gradient.
_POOL_OFFSETS = ((0, 0), (0, 1), (1, 0), (1, 1))


def _pool_views(x: np.ndarray):
    return [x[:, :, i::2, j::2] for i, j in _POOL_OFFSETS]


def _maxpool2_fast(x: np.ndarray) -> np.ndarray:
    """Pool without routing: the maximum of each pair of rows, whose
    elements are contiguous, then of each pair of columns. Which of
    several NaNs, or of -0.0 and 0.0, in a window survives depends on
    this order."""
    _check_pool_dims(x)
    rows = np.maximum(x[:, :, 0::2], x[:, :, 1::2])
    return np.maximum(rows[..., 0::2], rows[..., 1::2])


def _maxpool2_cached(x: np.ndarray, relu: bool):
    """Pool x, apply the ReLU (if any) to the pooled values, and record
    which window position receives each output's gradient.

    Returns (out, route), where route[q] is a bool array shaped like out
    that is set where position q, in window order, is routed. That is the
    first position whose value equals the maximum, the choice argmax makes
    on the ReLU output, ties included: a window whose ReLU output is 0
    routes to position 0, and one whose maximum is NaN to position 3.
    ReLU after pooling gives the same values as before it (max commutes
    with max(., 0)), on a quarter of the elements.
    """
    m = _maxpool2_fast(x)
    out = np.maximum(m, 0.0) if relu else m
    views = _pool_views(x)
    route = [views[0] == m]
    if relu:
        route[0] |= out == 0
    seen = route[0].copy()
    for view in views[1:3]:
        hit = view == m
        route.append(hit > seen)  # hit and not seen
        seen |= hit
    route.append(~seen)
    return out, route


def maxpool2(x: np.ndarray) -> np.ndarray:
    """Non-overlapping 2x2 max pooling."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 4:
        raise DimensionError(f"maxpool2 input must be [batch, C, H, W], got {x.shape}")
    return _maxpool2_fast(x)


def _maxpool2_backward(dy: np.ndarray, out: np.ndarray, route, relu: bool) -> np.ndarray:
    """Input gradient of pool (+ReLU) in channel-major [C, batch, H, W] layout.

    The routed position gets dy * (out > 0), every other position +0. At
    the routed position the pre-activation is above 0 exactly when the
    pooled output is, so this equals the routed dy times the full-size
    (preact > 0) mask bit for bit, signed zeros and infinities included.
    The values are placed by an integer multiply of their bit patterns by
    the 0/1 route, which keeps -0.0 and NaN payloads as they are.
    """
    g = dy * (out > 0) if relu else dy
    g = g.view(np.int64)
    b, c, h, w = out.shape
    dx = np.empty((c, b, 2 * h, 2 * w))
    bits = dx.view(np.int64).transpose(1, 0, 2, 3)
    for (i, j), routed in zip(_POOL_OFFSETS, route):
        np.multiply(g, routed, out=bits[:, :, i::2, j::2])
    return dx


def softmax_cross_entropy(logits: np.ndarray, labels: Sequence[int]):
    """Mean negative log softmax likelihood, stabilized by max subtraction.

    Returns (loss, dlogits) where dlogits = (softmax - onehot) / batch.
    """
    logits = np.asarray(logits, dtype=np.float64)
    if logits.ndim != 2:
        raise DimensionError(f"logits must be [batch, classes], got {logits.shape}")
    n, c = logits.shape
    labels = _labels(labels, c)
    if labels.shape != (n,):
        raise DimensionError(f"labels shape {labels.shape} does not match batch of {n}")
    if n < 1:
        raise DimensionError("softmax_cross_entropy needs a non-empty batch")
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    total = exp.sum(axis=1)
    rows = np.arange(n)
    loss = float(np.mean(np.log(total) - shifted[rows, labels]))
    dlogits = exp / total[:, None]
    dlogits[rows, labels] -= 1.0
    dlogits /= n
    return loss, dlogits


# ---------------------------------------------------------------------------
# Whole-model forward / backward
# ---------------------------------------------------------------------------


# Forward-only passes run the extractor's leading conv layers over this
# many samples at a time, so their im2col buffers stay cache-sized. The
# block does not change a conv result (np.matmul runs one GEMM per
# sample); dense results do depend on the row count, so the dense layers
# see the whole batch.
# At 8 each cnn4 cols buffer is about 1 MB. On a Xeon with 2 MB of L2 per
# core, blocks of 4 to 12 ran the cnn4 forward equally fast, 16 slightly
# slower, and 32 or the unblocked 512-sample chunk 1.6 to 2 times slower.
_CONV_BLOCK = 8


def _usable_cpus() -> int:
    return len(os.sched_getaffinity(0))  # called only where _CAN_FORK holds


# _fork_map forks only on Linux, where it was verified. Elsewhere it is
# the serial loop: on macOS, for one, system libraries may run threads
# that a fork without exec leaves in an undefined state.
_CAN_FORK = hasattr(os, "sched_getaffinity") and hasattr(os, "memfd_create")

# True in a helper process of _fork_map, which then runs everything serially.
_IN_HELPER = False

# (namespace, name, function) for each public fedpr function as a fedpr
# module bound it at import; fedpr/__init__.py records them.
_BINDINGS: list = []


def _record_bindings(modules) -> None:
    for module in modules:
        namespace = vars(module)
        for name, value in namespace.items():
            if (
                isinstance(value, types.FunctionType)
                and not name.startswith("_")
                and value.__module__.startswith(__package__ + ".")
            ):
                _BINDINGS.append((namespace, name, value))


def _bindings_replaced() -> bool:
    """Whether a program has rebound one of fedpr's public functions in a
    fedpr module, as a tracer or a test double does. The replacement's
    side effects (counts, timings, records) live in the process that
    calls it, so _fork_map then keeps every call in the caller."""
    return any(namespace.get(name) is not fn for namespace, name, fn in _BINDINGS)


def _fork_map(fn: Callable, items: Sequence, costs: Sequence[float]) -> list:
    """[fn(item) for item in items], shared by one forked helper process per
    usable CPU, at most one per item.

    Items are dealt longest first, by ``costs``, each to the helper with
    the least cost so far. Each helper runs its share in item order,
    stops at its first exception, and writes its results, or that
    exception, to a memory file of its own before it exits. The caller
    runs no share and waits for every helper before it reads any file,
    so it writes no memory that a live helper shares and takes no
    copy-on-write fault. Results come back in item order. The exception
    raised is that of the lowest failing item, the one a serial loop
    would raise. Helpers are reaped on every path, and killed first if
    the caller is interrupted. With one usable CPU, inside a helper, off
    Linux, or once a public function is rebound (_bindings_replaced),
    this is the serial loop.
    """
    serial = _IN_HELPER or not _CAN_FORK or _bindings_replaced()
    processes = 1 if serial else min(_usable_cpus(), len(items))
    if processes <= 1:
        return [fn(item) for item in items]
    shares, loads = [[] for _ in range(processes)], [0.0] * processes
    for i in sorted(range(len(items)), key=lambda i: -costs[i]):
        p = loads.index(min(loads))
        shares[p].append(i)
        loads[p] += costs[i]
    files, pids, statuses = [], [], []
    try:
        try:
            for share in shares:
                files.append(open(os.memfd_create("fedpr-fork-map"), "w+b"))
                # Ctrl-C waits until the fork is recorded on both sides: its
                # KeyboardInterrupt would be lost in an at-fork handler, or
                # run the caller's code in the helper.
                mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
                try:
                    pid = os.fork()
                    if pid == 0:
                        _helper(fn, items, sorted(share), files[-1], mask)
                    pids.append(pid)
                finally:
                    signal.pthread_sigmask(signal.SIG_SETMASK, mask)
            for pid in pids:
                statuses.append(os.waitpid(pid, 0)[1])
        except BaseException:
            for pid in pids[len(statuses) :]:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            raise
        results, failures = {}, []
        for pid, status, out in zip(pids, statuses, files):
            if os.waitstatus_to_exitcode(status) != 0:
                raise RuntimeError(f"helper process {pid} ended (wait status {status}) before writing its results")
            out.seek(0)
            share_results, failure = pickle.load(out)
            results.update(share_results)
            if failure is not None:
                failures.append(failure)
    finally:
        for out in files:
            out.close()
    if failures:
        raise min(failures, key=lambda f: f[0])[1]
    return [results[i] for i in range(len(items))]


def _run_share(fn: Callable, items: Sequence, share: list[int]):
    """({index: fn(items[index])} over ``share`` in order, (index, exception)
    of the first failure or None)."""
    results = {}
    for i in share:
        try:
            results[i] = fn(items[i])
        except Exception as exc:
            return results, (i, exc)
    return results, None


def _helper(fn: Callable, items: Sequence, share: list[int], out, mask) -> None:
    """A forked helper's whole life: restore the caller's signal mask, run
    its share, pickle the outcome into its memory file, and leave through
    os._exit, so nothing of the caller's process (atexit handlers,
    buffered output, the caller's own frames) runs twice."""
    global _IN_HELPER
    code = 1
    try:
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        _IN_HELPER = True
        # Protocol 5 writes each array's bytes once, and the caller
        # rebuilds the array on the buffer it reads them into.
        pickle.dump(_run_share(fn, items, share), out, protocol=5)
        out.flush()
        code = 0
    finally:
        os._exit(code)


def _pin_blas_threads() -> bool:
    """Run numpy's bundled OpenBLAS on one thread; returns whether it took.

    The low-order bits of a GEMM depend on how many threads split it, so
    pinning makes results independent of OPENBLAS_NUM_THREADS. The pin
    holds for the whole process, the host program's GEMMs included.
    """
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    found = sorted(libs.glob("libscipy_openblas*"))
    if not found:
        log.warning("BLAS threads not pinned: no libscipy_openblas* in %s", libs)
        return False
    try:
        set_threads = ctypes.CDLL(str(found[0])).scipy_openblas_set_num_threads64_
    except (OSError, AttributeError) as exc:
        log.warning("BLAS threads not pinned: %s", exc)
        return False
    set_threads.argtypes = [ctypes.c_int]
    set_threads.restype = None
    set_threads(1)
    return True


_BLAS_PINNED = _pin_blas_threads()


def _conv_pool_forward(layer: LayerParams, x: np.ndarray) -> np.ndarray:
    """Forward-only conv + 2x2 max-pool (+ ReLU) that pools the raw GEMM
    output, then adds the bias and applies the ReLU on the pooled values.

    Exact for a finite bias: rounding is monotonic, so
    max_i fl(m_i + b) == fl(max_i m_i + b), and max commutes with ReLU.
    It saves a full-size bias pass and a full-size ReLU pass. An infinite
    bias can turn -inf + inf into NaN in one window position, which
    pooling first would skip, so a non-finite bias is added before the pool.
    """
    finite = np.isfinite(layer.bias).all()
    a, _ = _conv2d_cached(layer.weight, None if finite else layer.bias, x)
    a = _maxpool2_fast(a)
    if finite:
        a += layer.bias[:, None, None]
    if layer.relu:
        np.maximum(a, 0.0, out=a)
    return a


def _model_input(x: np.ndarray) -> np.ndarray:
    a = np.asarray(x, dtype=np.float64)
    if a.ndim < 2:
        raise DimensionError(f"model input must have a batch axis, got shape {a.shape}")
    return a


def _per_sample(a: np.ndarray) -> np.ndarray:
    """a as [batch, features]: each sample's values flattened."""
    return a.reshape(len(a), math.prod(a.shape[1:]))


def _layers_forward(params: ModelParams, a: np.ndarray, lo: int, hi: int, caches) -> np.ndarray:
    """Run layers[lo:hi] and return their output. With a caches list,
    appends what each layer's backward pass needs."""
    train = caches is not None
    for layer in params.layers[lo:hi]:
        cache = {"input_shape": a.shape} if train else None
        if layer.kind == "dense":
            flat = _per_sample(a) if a.ndim > 2 else a
            if flat.shape[1] != layer.weight.shape[1]:
                raise DimensionError(
                    f"dense layer {layer.name!r}: weight {layer.weight.shape} does not "
                    f"match input {flat.shape}"
                )
            if train:
                cache["x"] = flat
            a = flat @ layer.weight.T + layer.bias
        elif a.ndim != 4:
            raise DimensionError(
                f"conv layer {layer.name!r}: input must be [batch, C, H, W], got {a.shape}"
            )
        elif layer.pool and not train:
            a = _conv_pool_forward(layer, a)
        else:
            a, cols = _conv2d_cached(layer.weight, layer.bias, a)
            if train:
                cache["cols"] = cols
        if layer.pool:
            if train:
                a, cache["route"] = _maxpool2_cached(a, layer.relu)
                cache["pool_out"] = a
        elif layer.relu:
            if train:
                cache["preact"] = a
            a = np.maximum(a, 0.0)
        if train:
            caches.append(cache)
    return a


def _forward_cached(params: ModelParams, x: np.ndarray):
    """The training forward: (embeddings[batch, d], logits, caches), the
    caches holding what each layer's backward pass needs."""
    caches, boundary = [], params.extractor_boundary
    a = _layers_forward(params, _model_input(x), 0, boundary, caches)
    logits = _layers_forward(params, a, boundary, len(params.layers), caches)
    return _per_sample(a), logits, caches


def model_forward(params: ModelParams, batch: np.ndarray):
    """Forward-only pass returning (embeddings, logits): the training
    forward's values without routing masks or retained intermediates.
    Conv+pool layers pool before their bias and ReLU, and the extractor's
    leading conv layers run in blocks of _CONV_BLOCK samples, an empty
    batch as one empty block."""
    a, boundary = _model_input(batch), params.extractor_boundary
    stop = next((i for i, layer in enumerate(params.layers[:boundary]) if layer.kind != "conv"), boundary)
    if stop:
        blocks = range(0, max(len(a), 1), _CONV_BLOCK)
        a = np.concatenate([_layers_forward(params, a[i : i + _CONV_BLOCK], 0, stop, None) for i in blocks])
    a = _layers_forward(params, a, stop, boundary, None)
    return _per_sample(a), _layers_forward(params, a, boundary, len(params.layers), None)


def _backward(params: ModelParams, caches, dlogits: np.ndarray, d_emb: np.ndarray | None):
    """Gradient of every parameter, laid out like params.vector."""
    grads = np.empty_like(params.vector)
    grad_views = _layer_views(params.layers, grads)
    d = dlogits
    for idx in range(len(params.layers) - 1, -1, -1):
        layer, cache = params.layers[idx], caches[idx]
        d_weight, d_bias = grad_views[idx]
        if idx == params.extractor_boundary - 1 and d_emb is not None:
            # d is the gradient w.r.t. this layer's output, the embedding: the
            # prototype term joins here and flows through the extractor only.
            d = d + d_emb.reshape(d.shape)
        # The gradient w.r.t. the raw input is never consumed, so the
        # first layer skips it.
        need_dx = idx > 0
        if layer.pool:
            d = _maxpool2_backward(d, cache["pool_out"], cache["route"], layer.relu)
        elif layer.relu:
            d = d * (cache["preact"] > 0)
        if layer.kind == "dense":
            # Written straight into the buffer: copying a large dense
            # gradient in on every step costs more than the step itself.
            np.matmul(d.T, cache["x"], out=d_weight)
            np.sum(d, axis=0, out=d_bias)
            d = (d @ layer.weight).reshape(cache["input_shape"]) if need_dx else None
        else:
            if not layer.pool:  # the pool backward returns it channel-major
                d = np.ascontiguousarray(d.transpose(1, 0, 2, 3))
            d_weight[...], d_bias[...], d = _conv2d_backward(
                d, cache["cols"], cache["input_shape"], layer.weight, need_dx
            )
    return grads


def _prototype_pull(
    emb: np.ndarray,
    labels: np.ndarray,
    classes: np.ndarray,
    vectors: np.ndarray,
    proto_form: str,
):
    """Batch-mean pull term and its gradient w.r.t. the embeddings.

    Each row's prototype is the row of ``vectors`` whose entry in the
    ascending ``classes`` equals its label; rows whose class has no
    prototype add nothing to the loss and get a zero gradient.
    """
    if vectors.shape[1] != emb.shape[1]:
        raise DimensionError(
            f"prototypes have dimension {vectors.shape[1]}, expected dimension {emb.shape[1]}"
        )
    n = emb.shape[0]
    at = np.minimum(np.searchsorted(classes, labels), len(classes) - 1)
    rows = np.flatnonzero(classes[at] == labels)
    diff = emb[rows] - vectors[at[rows]]
    # vecdot (numpy >= 2.0) reproduces `diff_i @ diff_i` bit for bit;
    # einsum does not.
    per_sample = np.vecdot(diff, diff)
    d_emb = np.zeros_like(emb)
    if proto_form == "squared":
        d_emb[rows] = 2.0 * diff / n
    else:
        per_sample = np.sqrt(per_sample)
        moved = per_sample > 0.0  # a zero distance has a zero subgradient
        d_emb[rows[moved]] = diff[moved] / (per_sample[moved, None] * n)
    # Sum in sample order: np.sum's pairwise blocks would move low bits.
    total = float(np.cumsum(per_sample)[-1]) if rows.size else 0.0
    return total / n, d_emb


def loss_and_grad(
    params: ModelParams,
    batch: np.ndarray,
    labels: Sequence[int],
    global_protos=None,
    lam: float = 1.0,
    proto_form: str = "squared",
) -> BatchLossReport:
    """Composite loss: cross-entropy plus lam * prototype pull term.

    The pull term averages, over the whole batch, the squared distance
    between each sample's embedding and the global prototype of its
    class in ``global_protos``, a GlobalPrototypeSet or None; samples
    whose class has no prototype contribute 0. With
    proto_form="unsquared" the plain Euclidean distance is used instead
    (zero-distance samples get a zero subgradient). The prototype is a
    constant: its gradient flows into the extractor layers only.
    """
    from .prototypes import GlobalPrototypeSet  # prototypes imports this module

    if global_protos is not None and not isinstance(global_protos, GlobalPrototypeSet):
        raise TypeError(
            f"global_protos must be a GlobalPrototypeSet or None, got {type(global_protos).__name__}"
        )
    if lam < 0:
        raise ValueError(f"lam must be non-negative, got {lam}")
    if proto_form not in ("squared", "unsquared"):
        raise ValueError(f"unknown proto_form {proto_form!r}")
    labels = _int64(labels, "labels")
    emb, logits, caches = _forward_cached(params, batch)
    ce_loss, dlogits = softmax_cross_entropy(logits, labels)

    proto_loss = 0.0
    d_emb = None
    if global_protos:
        proto_loss, d_emb = _prototype_pull(
            emb, labels, global_protos.classes, global_protos.vectors, proto_form
        )

    total = ce_loss + lam * proto_loss
    inject = d_emb * lam if (d_emb is not None and lam != 0.0) else None
    grads = _backward(params, caches, dlogits, inject)
    return BatchLossReport(total, ce_loss, proto_loss, grads)


def sgd_momentum_step(params: ModelParams, grads: np.ndarray, state: OptimizerState) -> None:
    """Heavy-ball update in place: v <- mu*v + g, then w <- w - eta*v.

    Mutates ``params`` (its vector, and so every layer view) and
    ``state.velocity``; ``grads`` is laid out like ``params.vector``.
    """
    if grads.shape != params.vector.shape or state.velocity.shape != params.vector.shape:
        raise DimensionError(
            f"gradient/velocity shapes {grads.shape}/{state.velocity.shape} do not match "
            f"{params.vector.size} model parameters"
        )
    velocity = state.velocity
    velocity *= state.momentum
    velocity += grads
    params.vector -= state.learning_rate * velocity


def finite_diff_gradient(
    loss_fn: Callable[[ModelParams], float], params: ModelParams, eps: float = 1e-5
) -> np.ndarray:
    """Central-difference gradient of loss_fn over every scalar parameter,
    laid out like params.vector."""
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    work = params.copy()
    flat = work.vector
    grad = np.zeros_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        plus = loss_fn(work)
        flat[i] = orig - eps
        minus = loss_fn(work)
        flat[i] = orig
        if not (math.isfinite(plus) and math.isfinite(minus)):
            raise NumericError(f"non-finite loss while probing parameter {i} of {flat.size}")
        grad[i] = (plus - minus) / (2.0 * eps)
    return grad


# ---------------------------------------------------------------------------
# Model constructors
# ---------------------------------------------------------------------------


def _uniform_init(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    bound = 1.0 / math.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


def build_mlp2(rng: np.random.Generator, in_dim: int, num_classes: int, hidden: int = 128) -> ModelParams:
    """Two dense layers; the hidden ReLU activation is the embedding."""
    layers = [
        LayerParams(
            "fc1",
            "dense",
            _uniform_init(rng, (hidden, in_dim), in_dim),
            _uniform_init(rng, (hidden,), in_dim),
            relu=True,
        ),
        LayerParams(
            "fc2",
            "dense",
            _uniform_init(rng, (num_classes, hidden), hidden),
            _uniform_init(rng, (num_classes,), hidden),
        ),
    ]
    return ModelParams(layers, extractor_boundary=1)


def build_cnn4(
    rng: np.random.Generator,
    num_classes: int = 10,
    in_channels: int = 1,
    image_hw: int = 28,
    conv_channels: tuple[int, int] = (10, 20),
    embed_dim: int = 50,
    kernel: int = 5,
) -> ModelParams:
    """Two conv+pool blocks and two dense layers; the 50-dim hidden
    activation after fc1's ReLU is the embedding."""
    size = image_hw
    for _ in range(2):
        size = size - kernel + 1
        if size < 2 or size % 2:
            raise DimensionError(
                f"image size {image_hw} incompatible with {kernel}x{kernel} conv + 2x2 pool"
            )
        size //= 2
    flat = conv_channels[1] * size * size
    c1, c2 = conv_channels
    layers = [
        LayerParams(
            "conv1",
            "conv",
            _uniform_init(rng, (c1, in_channels, kernel, kernel), in_channels * kernel * kernel),
            _uniform_init(rng, (c1,), in_channels * kernel * kernel),
            relu=True,
            pool=True,
        ),
        LayerParams(
            "conv2",
            "conv",
            _uniform_init(rng, (c2, c1, kernel, kernel), c1 * kernel * kernel),
            _uniform_init(rng, (c2,), c1 * kernel * kernel),
            relu=True,
            pool=True,
        ),
        LayerParams(
            "fc1",
            "dense",
            _uniform_init(rng, (embed_dim, flat), flat),
            _uniform_init(rng, (embed_dim,), flat),
            relu=True,
        ),
        LayerParams(
            "fc2",
            "dense",
            _uniform_init(rng, (num_classes, embed_dim), embed_dim),
            _uniform_init(rng, (num_classes,), embed_dim),
        ),
    ]
    return ModelParams(layers, extractor_boundary=3)
