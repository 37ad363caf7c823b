"""Op-level timings of fedpr.nn at the cnn4 reference shapes.

Every op runs at the local-SGD batch (B=8) and, where evaluation uses it,
at the evaluation chunk. Each timing is the median over blocks of the
mean time per call, with enough calls per block to sit well above the
timer's resolution. The same ops run on every workload, mlp2 included,
so the figures compare across workloads. They are reported, never gated.
"""

from __future__ import annotations

import inspect
import math
import statistics
import time

import numpy as np

from fedpr import nn
from fedpr.data import ClientShard, Dataset
from fedpr.evaluation import evaluate_accuracy
from fedpr.prototypes import aggregate_global_prototypes, compute_local_prototypes

_MIN_BLOCK_S = 0.02
_BLOCKS = 5
_BATCH = 8
_STREAM = 0xB3  # keeps the microbenchmark inputs apart from the workload streams


def eval_chunk() -> int:
    """The chunk size evaluate_accuracy uses when its caller gives none."""
    return inspect.signature(evaluate_accuracy).parameters["chunk"].default


def time_us(fn) -> float:
    fn()
    start = time.perf_counter()
    fn()
    once = time.perf_counter() - start
    reps = max(1, math.ceil(_MIN_BLOCK_S / max(once, 1e-9)))
    blocks = []
    for _ in range(_BLOCKS):
        start = time.perf_counter()
        for _ in range(reps):
            fn()
        blocks.append((time.perf_counter() - start) / reps)
    return statistics.median(blocks) * 1e6


def op_microbenchmarks(seed: int) -> dict[str, float]:
    rng = np.random.default_rng([seed, _STREAM])
    params = nn.build_cnn4(rng)
    conv1, conv2, fc1, fc2 = params.layers
    chunk = eval_chunk()
    x = rng.random((chunk, 1, 28, 28))
    labels = np.arange(chunk) % 10

    pool1_in = nn.relu(nn.conv2d_forward(conv1.weight, conv1.bias, x))
    pool1_out = nn.maxpool2(pool1_in)
    pool2_in = nn.relu(nn.conv2d_forward(conv2.weight, conv2.bias, pool1_out))
    flat = nn.maxpool2(pool2_in).reshape(chunk, -1)
    emb = nn.relu(nn.dense_forward(fc1.weight, fc1.bias, flat))
    logits = nn.dense_forward(fc2.weight, fc2.bias, emb)

    local = compute_local_prototypes(
        params, Dataset(x, labels, 10), ClientShard(0, np.arange(chunk))
    )
    protos = aggregate_global_prototypes([local])

    sizes = {"b8": _BATCH, "chunk": chunk}
    ops = {}
    for size, n in sizes.items():
        ops[f"nn.conv2d_forward.conv1.{size}.us"] = (
            lambda n=n: nn.conv2d_forward(conv1.weight, conv1.bias, x[:n])
        )
        ops[f"nn.conv2d_forward.conv2.{size}.us"] = (
            lambda n=n: nn.conv2d_forward(conv2.weight, conv2.bias, pool1_out[:n])
        )
        ops[f"nn.maxpool2.pool1.{size}.us"] = lambda n=n: nn.maxpool2(pool1_in[:n])
        ops[f"nn.maxpool2.pool2.{size}.us"] = lambda n=n: nn.maxpool2(pool2_in[:n])
        ops[f"nn.model_forward.{size}.us"] = lambda n=n: nn.model_forward(params, x[:n])
    b = _BATCH
    ops["nn.dense_forward.fc1.b8.us"] = lambda: nn.dense_forward(fc1.weight, fc1.bias, flat[:b])
    ops["nn.dense_forward.fc2.b8.us"] = lambda: nn.dense_forward(fc2.weight, fc2.bias, emb[:b])
    ops["nn.softmax_cross_entropy.b8.us"] = lambda: nn.softmax_cross_entropy(logits[:b], labels[:b])
    ops["nn.loss_and_grad.b8.lam0.us"] = lambda: nn.loss_and_grad(params, x[:b], labels[:b], None, 0.0)
    ops["nn.loss_and_grad.b8.lam1.us"] = lambda: nn.loss_and_grad(params, x[:b], labels[:b], protos, 1.0)
    return {name: time_us(fn) for name, fn in sorted(ops.items())}

