"""A frozen copy of the cnn4/mlp2 training step as it stood before the
conv layers of the cached path were given per-op operand layouts.

The tests compare the current step against it bit for bit: same loss,
same gradient bytes. It keeps the old forward (per-sample conv GEMMs,
a full-size ReLU, pooling the ReLU output with an int8 routing index)
and the old backward (routing scatter, a full-size ReLU mask,
`tensordot` kernel gradients, spatial-major col2im). The loss head and
the prototype pull are shared with `fedpr.nn`, which leaves them
unchanged.
"""

from __future__ import annotations

import numpy as np

from fedpr.nn import (
    BatchLossReport,
    _layer_views,
    _prototype_pull,
    softmax_cross_entropy,
)

_POOL_OFFSETS = ((0, 0), (0, 1), (1, 0), (1, 1))


def _pool_views(x):
    return [x[:, :, i::2, j::2] for i, j in _POOL_OFFSETS]


def maxpool2_fast(x):
    v00, v01, v10, v11 = _pool_views(x)
    return np.maximum(np.maximum(v00, v01), np.maximum(v10, v11))


def maxpool2_cached(x):
    out = maxpool2_fast(x)
    arg = np.full(out.shape, 3, dtype=np.int8)
    views = _pool_views(x)
    for q in (2, 1, 0):
        arg[views[q] == out] = q
    return out, arg


def maxpool2_backward(dy, arg, in_shape):
    dx = np.zeros(in_shape)
    for q, view in enumerate(_pool_views(dx)):
        view[...] = np.where(arg == q, dy, 0.0)
    return dx


def _im2col(x, k):
    b, c, h, w = x.shape
    ho, wo = h - k + 1, w - k + 1
    s0, s1, s2, s3 = x.strides
    windows = np.lib.stride_tricks.as_strided(
        x, shape=(b, c, k, k, ho, wo), strides=(s0, s1, s2, s3, s2, s3), writeable=False
    )
    return windows.reshape(b, c * k * k, ho * wo)


def conv2d_cached(kernel, bias, x):
    out_c, _, k, _ = kernel.shape
    b, _, h, w = x.shape
    cols = _im2col(x, k)
    y = np.matmul(kernel.reshape(out_c, -1), cols) + bias[:, None]
    return y.reshape(b, out_c, h - k + 1, w - k + 1), cols


def conv2d_backward(dy, cols, x_shape, kernel, need_dx):
    out_c, in_c, k, _ = kernel.shape
    b, _, ho, wo = dy.shape
    dy_flat = dy.reshape(b, out_c, ho * wo)
    d_kernel = np.tensordot(dy_flat, cols, axes=([0, 2], [0, 2])).reshape(out_c, in_c, k, k)
    d_bias = dy.sum(axis=(0, 2, 3))
    if not need_dx:
        return d_kernel, d_bias, None
    d_cols = np.matmul(kernel.reshape(out_c, -1).T, dy_flat).reshape(b * in_c, k, k, ho, wo)
    d_cols = np.moveaxis(d_cols, 0, -1)
    h, w = x_shape[2], x_shape[3]
    dx = np.zeros((h, w, b * in_c))
    for di in range(k):
        for dj in range(k):
            dx[di : di + ho, dj : dj + wo] += d_cols[di, dj]
    return d_kernel, d_bias, np.moveaxis(dx, -1, 0).reshape(x_shape)


def forward_cached(params, x):
    """Returns (embeddings, logits, caches)."""
    a = np.asarray(x, dtype=np.float64)
    emb = a.reshape(a.shape[0], -1) if params.extractor_boundary == 0 else None
    caches = []
    for idx, layer in enumerate(params.layers):
        cache = {"input_shape": a.shape}
        if layer.kind == "dense":
            flat = a.reshape(a.shape[0], -1) if a.ndim > 2 else a
            cache["x"] = flat
            a = flat @ layer.weight.T + layer.bias
        else:
            a, cache["cols"] = conv2d_cached(layer.weight, layer.bias, a)
        if layer.relu:
            cache["preact"] = a
            a = np.maximum(a, 0.0)
        if layer.pool:
            cache["pool_in_shape"] = a.shape
            a, cache["pool_arg"] = maxpool2_cached(a)
        caches.append(cache)
        if idx == params.extractor_boundary - 1:
            emb = a.reshape(a.shape[0], -1)
    return emb, a, caches


def backward(params, caches, dlogits, d_emb):
    grads = np.empty_like(params.vector)
    grad_views = _layer_views(params.layers, grads)
    d = dlogits
    for idx in range(len(params.layers) - 1, -1, -1):
        layer, cache = params.layers[idx], caches[idx]
        d_weight, d_bias = grad_views[idx]
        if idx == params.extractor_boundary - 1 and d_emb is not None:
            # d is the gradient w.r.t. the embedding, this layer's output;
            # at extractor_boundary == len(layers) that is the logits.
            d = d + d_emb.reshape(d.shape)
        need_dx = idx > 0
        if layer.pool:
            d = maxpool2_backward(d, cache["pool_arg"], cache["pool_in_shape"])
        if layer.relu:
            d = d * (cache["preact"] > 0)
        if layer.kind == "dense":
            np.matmul(d.T, cache["x"], out=d_weight)
            np.sum(d, axis=0, out=d_bias)
            d = (d @ layer.weight).reshape(cache["input_shape"]) if need_dx else None
        else:
            d_weight[...], d_bias[...], d = conv2d_backward(
                d, cache["cols"], cache["input_shape"], layer.weight, need_dx
            )
    return grads


def loss_and_grad(params, batch, labels, global_protos=None, lam=1.0, proto_form="squared"):
    labels = np.asarray(labels, dtype=np.int64)
    emb, logits, caches = forward_cached(params, batch)
    ce_loss, dlogits = softmax_cross_entropy(logits, labels)
    proto_loss = 0.0
    d_emb = None
    if global_protos:
        proto_loss, d_emb = _prototype_pull(
            emb, labels, global_protos.classes, global_protos.vectors, proto_form
        )
    total = ce_loss + lam * proto_loss
    inject = d_emb * lam if (d_emb is not None and lam != 0.0) else None
    return BatchLossReport(total, ce_loss, proto_loss, backward(params, caches, dlogits, inject))
