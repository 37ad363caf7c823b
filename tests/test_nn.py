import copy
import math
import pickle

import numpy as np
import pytest

from fedpr import evaluation, parallel, prototypes
from fedpr.data import ClientShard, Dataset
from fedpr.errors import DataFormatError, DimensionError, LabelError, NumericError
from fedpr.evaluation import evaluate_accuracy
from fedpr.nn import (
    _CONV_BLOCK,
    LayerParams,
    ModelParams,
    OptimizerState,
    build_cnn4,
    build_mlp2,
    conv2d_forward,
    dense_forward,
    finite_diff_gradient,
    loss_and_grad,
    maxpool2,
    model_forward,
    relu,
    sgd_momentum_step,
    softmax_cross_entropy,
)
from fedpr.nn import (
    _backward,
    _conv2d_backward,
    _conv2d_cached,
    _forward_cached,
    _init_layer,
    _maxpool2_backward,
    _maxpool2_cached,
    _prototype_pull,
)
from fedpr.prototypes import GlobalPrototypeSet, aggregate_global_prototypes, compute_local_prototypes


def small_cnn4(rng, num_classes):
    """cnn4's four layers at test size, for 1x14x14 images: 3x3 convs of 2
    and 3 channels (14 -> 12 -> 6, then 6 -> 4 -> 2) and a 5-dim embedding."""
    layers = [
        _init_layer(rng, "conv1", "conv", (2, 1, 3, 3), relu=True, pool=True),
        _init_layer(rng, "conv2", "conv", (3, 2, 3, 3), relu=True, pool=True),
        _init_layer(rng, "fc1", "dense", (5, 3 * 2 * 2), relu=True),
        _init_layer(rng, "fc2", "dense", (num_classes, 5)),
    ]
    return ModelParams(layers, extractor_boundary=3)


def max_rel_err(analytic, fd, floor=1e-6):
    denom = np.maximum.reduce([np.abs(analytic), np.abs(fd), np.full_like(analytic, floor)])
    return float((np.abs(analytic - fd) / denom).max())


# --- flat parameter vector --------------------------------------------------


@pytest.mark.parametrize(
    "build", [lambda rng: build_cnn4(rng), lambda rng: build_mlp2(rng, 784, 10)], ids=["cnn4", "mlp2"]
)
def test_vector_is_layers_weight_then_bias_in_order(build):
    params = build(np.random.default_rng(30))
    expect = b"".join(l.weight.tobytes() + l.bias.tobytes() for l in params.layers)
    assert params.vector.dtype == np.float64 and params.vector.flags.c_contiguous
    assert params.vector.tobytes() == expect
    assert params.num_params == params.vector.size
    for layer in params.layers:
        assert np.shares_memory(layer.weight, params.vector)
        assert np.shares_memory(layer.bias, params.vector)


def test_write_through_vector_shows_in_layer_views():
    weight = np.arange(6.0).reshape(2, 3)
    params = ModelParams(
        [
            LayerParams("fc1", "dense", weight, [10.0, 11.0], relu=True),
            LayerParams("fc2", "dense", np.ones((1, 2)), [20.0]),
        ],
        1,
    )
    params.vector[1] = -1.0
    params.vector[6] = -2.0
    params.vector[-1] = -3.0
    assert params.layers[0].weight[0, 1] == -1.0
    assert params.layers[0].bias[0] == -2.0
    assert params.layers[1].bias[0] == -3.0
    # the model owns its storage: the caller's arrays are untouched
    assert np.array_equal(weight, np.arange(6.0).reshape(2, 3))


def test_copy_shares_no_memory():
    params = build_cnn4(np.random.default_rng(31))
    dup = params.copy()
    assert np.array_equal(dup.vector, params.vector)
    assert not np.shares_memory(dup.vector, params.vector)
    for a, b in zip(dup.layers, params.layers):
        assert not np.shares_memory(a.weight, b.weight)
        assert not np.shares_memory(a.bias, b.bias)
        assert np.shares_memory(a.weight, dup.vector)
    dup.vector += 1.0
    assert not np.array_equal(dup.layers[0].weight, params.layers[0].weight)


@pytest.mark.parametrize(
    "clone", [lambda p: pickle.loads(pickle.dumps(p)), copy.deepcopy], ids=["pickle", "deepcopy"]
)
def test_pickled_and_deep_copied_params_keep_layers_as_vector_views(clone):
    rng = np.random.default_rng(32)
    params = build_cnn4(rng)
    dup = clone(params)
    assert dup.same_structure(params) and dup.vector.tobytes() == params.vector.tobytes()
    assert not np.shares_memory(dup.vector, params.vector)
    for layer in dup.layers:
        assert np.shares_memory(layer.weight, dup.vector)
        assert np.shares_memory(layer.bias, dup.vector)
    # One training step on each: the forward pass reads the layers and the
    # optimizer writes the vector, so the two must be one storage.
    x = rng.random((8, 1, 28, 28))
    y = np.arange(8) % 10
    for model in (params, dup):
        report = loss_and_grad(model, x, y)
        sgd_momentum_step(model, report.grads, OptimizerState.zeros(model, 0.1, 0.9))
    assert dup.vector.tobytes() == params.vector.tobytes()
    for a, b in zip(dup.layers, params.layers):
        assert a.weight.tobytes() == b.weight.tobytes() and a.bias.tobytes() == b.bias.tobytes()


@pytest.mark.parametrize(
    "build", [build_cnn4, lambda rng: build_mlp2(rng, 784, 10)], ids=["cnn4", "mlp2-784"]
)
def test_pickled_params_carry_their_values_once(build):
    params = build(np.random.default_rng(33))
    assert len(pickle.dumps(params)) <= len(pickle.dumps(params.vector)) + 2048


def test_bad_layer_shapes_and_vector_raise_dimension_error():
    with pytest.raises(DimensionError, match="bias"):
        ModelParams([LayerParams("fc", "dense", np.zeros((2, 3)), np.zeros(3))], 1)
    with pytest.raises(DimensionError, match="kernel"):
        LayerParams("conv", "conv", np.zeros((2, 1, 3, 2)), np.zeros(2))
    layers = [LayerParams("fc", "dense", np.zeros((2, 3)), np.zeros(2))]
    with pytest.raises(DimensionError, match="vector"):
        ModelParams(layers, 1, np.zeros(7))


def _dense(**flags):
    return LayerParams("fc", "dense", np.zeros((2, 3)), np.zeros(2), **flags)


def _mlp2():
    return build_mlp2(np.random.default_rng(0), 6, 3)


# Every named error of the layer, model and loss checks, with a call that
# raises it and the text it must carry.
NAMED_ERRORS = [
    pytest.param(lambda: LayerParams("p", "pool", np.zeros((2, 3)), np.zeros(2)), ValueError,
                 "unknown layer kind 'pool'", id="layer-unknown-kind"),
    pytest.param(lambda: LayerParams("fc", "dense", np.zeros(3), np.zeros(3)), DimensionError,
                 r"dense layer 'fc': weight must be \[out, in\], got \(3,\)", id="layer-1d-dense-weight"),
    pytest.param(lambda: _dense(pool=True), ValueError, "layer 'fc': pooling only follows conv layers",
                 id="layer-pool-on-dense"),
    pytest.param(lambda: ModelParams([], 0), ValueError, "model needs at least one layer", id="model-no-layers"),
    pytest.param(lambda: ModelParams([_dense()], 2), ValueError, "extractor_boundary 2 out of range for 1 layers",
                 id="model-boundary-above"),
    pytest.param(lambda: ModelParams([_dense()], -1), ValueError, "extractor_boundary -1 out of range for 1 layers",
                 id="model-boundary-below"),
    pytest.param(lambda: dense_forward(np.zeros((2, 3)), np.zeros(2), np.zeros(3)), DimensionError,
                 r"dense input must be \[batch, in\], got \(3,\)", id="dense-1d-input"),
    pytest.param(lambda: conv2d_forward(np.zeros((2, 3, 3, 3)), np.zeros(2), np.zeros((1, 1, 5, 5))), DimensionError,
                 "conv kernel expects 3 input channels, input has 1", id="conv-channel-mismatch"),
    pytest.param(lambda: conv2d_forward(np.zeros((2, 1, 3)), np.zeros(2), np.zeros((1, 1, 5, 5))), DimensionError,
                 r"conv kernel must be \[outC, inC, k, k\], got \(2, 1, 3\)", id="conv-kernel-shape"),
    pytest.param(lambda: conv2d_forward(np.zeros((2, 1, 3, 3)), np.zeros(2), np.zeros((1, 5, 5))), DimensionError,
                 r"conv input must be \[batch, C, H, W\], got \(1, 5, 5\)", id="conv-input-shape"),
    pytest.param(lambda: conv2d_forward(np.zeros((2, 1, 3, 3)), np.zeros(3), np.zeros((1, 1, 5, 5))), DimensionError,
                 r"conv bias \(3,\) does not match kernel \(2, 1, 3, 3\)", id="conv-bias-shape"),
    pytest.param(lambda: maxpool2(np.zeros((1, 4, 4))), DimensionError,
                 r"maxpool2 input must be \[batch, C, H, W\], got \(1, 4, 4\)", id="maxpool-3d-input"),
    pytest.param(lambda: softmax_cross_entropy(np.zeros(3), [0]), DimensionError,
                 r"logits must be \[batch, classes\], got \(3,\)", id="ce-1d-logits"),
    pytest.param(lambda: softmax_cross_entropy(np.zeros((2, 3)), [0]), DimensionError,
                 r"labels shape \(1,\) does not match batch of 2", id="ce-label-count"),
    pytest.param(lambda: softmax_cross_entropy(np.zeros((0, 3)), []), DimensionError,
                 "softmax_cross_entropy needs a non-empty batch", id="ce-empty-batch"),
    pytest.param(lambda: softmax_cross_entropy(np.zeros((2, 3)), [0.9, 2.9]), DataFormatError,
                 r"labels\[0\] = 0.9 is not an integer", id="ce-fractional-label"),
    pytest.param(lambda: model_forward(_mlp2(), np.zeros(6)), DimensionError,
                 r"model input must have a batch axis, got shape \(6,\)", id="model-input-without-batch-axis"),
    pytest.param(lambda: model_forward(build_cnn4(np.random.default_rng(0)), np.zeros((2, 784))), DimensionError,
                 r"conv layer 'conv1': input must be \[batch, C, H, W\], got \(2, 784\)", id="conv-layer-2d-input"),
    pytest.param(lambda: loss_and_grad(_mlp2(), np.zeros((1, 6)), [0], None, -0.5), ValueError,
                 "lam must be finite and >= 0, got -0.5", id="loss-negative-lam"),
    pytest.param(lambda: loss_and_grad(_mlp2(), np.zeros((1, 6)), [0], None, 1.0, "cubed"), ValueError,
                 r"proto_form must be one of \('squared', 'unsquared'\), got 'cubed'", id="loss-unknown-proto-form"),
    pytest.param(lambda: loss_and_grad(_mlp2(), np.zeros((2, 6)), [0, 1.5]), DataFormatError,
                 r"labels\[1\] = 1.5 is not an integer", id="loss-fractional-label"),
    pytest.param(lambda: build_mlp2(np.random.default_rng(0), 6, 0), ValueError,
                 "^num_classes must be >= 1, got 0$", id="mlp2-no-classes"),
    pytest.param(lambda: build_mlp2(np.random.default_rng(0), 6.5, 3), ValueError,
                 "^in_dim must be an integer, got 6.5$", id="mlp2-fractional-in-dim"),
    pytest.param(lambda: build_mlp2(np.random.default_rng(0), 6, 3, hidden=0), ValueError,
                 "^hidden must be >= 1, got 0$", id="mlp2-no-hidden-units"),
    pytest.param(lambda: build_cnn4(np.random.default_rng(0), num_classes=0), ValueError,
                 "^num_classes must be >= 1, got 0$", id="cnn4-no-classes"),
    pytest.param(lambda: build_cnn4(np.random.default_rng(0), num_classes=True), ValueError,
                 "^num_classes must be an integer, got True$", id="cnn4-bool-classes"),
]


@pytest.mark.parametrize("call,error,match", NAMED_ERRORS)
def test_each_named_error_is_raised_with_its_text(call, error, match):
    with pytest.raises(error, match=match):
        call()


# --- dense ------------------------------------------------------------------


def test_dense_identity_weights():
    out = dense_forward(np.eye(2), np.zeros(2), [[3.0, 4.0]])
    assert np.array_equal(out, [[3.0, 4.0]])


def test_dense_zero_weights_expose_bias():
    out = dense_forward(np.zeros((2, 3)), [1.0, 2.0], np.random.default_rng(0).normal(size=(4, 3)))
    assert np.array_equal(out, np.tile([1.0, 2.0], (4, 1)))


def test_dense_hand_matmul():
    out = dense_forward([[1.0, 2.0], [3.0, 4.0]], [0.0, 0.0], [[1.0, 1.0]])
    assert np.array_equal(out, [[3.0, 7.0]])


def test_dense_matches_loop_oracle():
    rng = np.random.default_rng(7)
    w, b, x = rng.normal(size=(3, 5)), rng.normal(size=3), rng.normal(size=(4, 5))
    expect = np.zeros((4, 3))
    for i in range(4):
        for o in range(3):
            expect[i, o] = sum(w[o, k] * x[i, k] for k in range(5)) + b[o]
    assert np.allclose(dense_forward(w, b, x), expect, atol=1e-12)


def test_dense_shape_mismatch_names_operand():
    with pytest.raises(DimensionError, match="weight"):
        dense_forward(np.zeros((2, 3)), np.zeros(2), np.zeros((1, 4)))
    with pytest.raises(DimensionError, match="bias"):
        dense_forward(np.zeros((2, 3)), np.zeros(5), np.zeros((1, 3)))


# --- conv -------------------------------------------------------------------


def naive_conv2d(kernel, bias, x):
    out_c, in_c, k, _ = kernel.shape
    n, _, h, w = x.shape
    out = np.zeros((n, out_c, h - k + 1, w - k + 1))
    for b in range(n):
        for o in range(out_c):
            for i in range(h - k + 1):
                for j in range(w - k + 1):
                    acc = 0.0
                    for c in range(in_c):
                        for di in range(k):
                            for dj in range(k):
                                acc += kernel[o, c, di, dj] * x[b, c, i + di, j + dj]
                    out[b, o, i, j] = acc + bias[o]
    return out


def test_conv_1x1_identity_kernel():
    x = np.random.default_rng(1).normal(size=(2, 1, 4, 4))
    out = conv2d_forward(np.ones((1, 1, 1, 1)), np.zeros(1), x)
    assert np.array_equal(out, x)


def test_conv_ones_kernel_constant_image():
    c = 2.5
    out = conv2d_forward(np.ones((1, 1, 3, 3)), np.zeros(1), np.full((1, 1, 6, 6), c))
    assert np.allclose(out, 9 * c, atol=1e-12)


def test_conv_matches_naive_oracle():
    rng = np.random.default_rng(2)
    kernel = rng.normal(size=(3, 2, 3, 3))
    bias = rng.normal(size=3)
    x = rng.normal(size=(2, 2, 5, 5))
    assert np.allclose(conv2d_forward(kernel, bias, x), naive_conv2d(kernel, bias, x), atol=1e-12)


def test_conv_kernel_larger_than_input_raises():
    with pytest.raises(DimensionError, match="larger than input"):
        conv2d_forward(np.ones((1, 1, 5, 5)), np.zeros(1), np.ones((1, 1, 4, 4)))


def test_conv_backward_input_grad_matches_shifted_add_loop():
    # The plain loop over kernel offsets on the [batch, C, H, W] layout is
    # the oracle: the input gradient must agree with it bit for bit, so
    # every element sums its (di, dj) terms in the same order.
    rng = np.random.default_rng(20)
    kernel = rng.normal(size=(3, 2, 3, 3))
    x = rng.normal(size=(4, 2, 7, 6))
    dy = rng.normal(size=(4, 3, 5, 4))
    _, cols = _conv2d_cached(kernel, np.zeros(3), x)
    dy_channel_major = np.ascontiguousarray(dy.transpose(1, 0, 2, 3))
    _, _, dx = _conv2d_backward(dy_channel_major, cols, x.shape, kernel, need_dx=True)
    d_cols = np.matmul(kernel.reshape(3, -1).T, dy.reshape(4, 3, -1)).reshape(4, 2, 3, 3, 5, 4)
    expect = np.zeros(x.shape)
    for di in range(3):
        for dj in range(3):
            expect[:, :, di : di + 5, dj : dj + 4] += d_cols[:, :, di, dj]
    assert np.array_equal(dx, expect)


# --- relu / maxpool ---------------------------------------------------------


def test_relu_mixed():
    assert np.array_equal(relu(np.array([-1.0, 0.0, 2.0])), [0.0, 0.0, 2.0])


def test_relu_all_negative_and_all_positive():
    assert np.array_equal(relu(np.array([-3.0, -0.5])), [0.0, 0.0])
    x = np.array([0.1, 5.0])
    assert np.array_equal(relu(x), x)


def test_maxpool_constant_image():
    out = maxpool2(np.full((1, 1, 4, 4), 3.0))
    assert out.shape == (1, 1, 2, 2)
    assert np.array_equal(out, np.full((1, 1, 2, 2), 3.0))


def test_maxpool_forced_window():
    x = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
    assert np.array_equal(maxpool2(x), [[[[4.0]]]])


def test_maxpool_matches_window_scan():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(2, 3, 4, 4))
    out = maxpool2(x)
    for b in range(2):
        for c in range(3):
            for i in range(2):
                for j in range(2):
                    window = x[b, c, 2 * i : 2 * i + 2, 2 * j : 2 * j + 2]
                    assert out[b, c, i, j] == window.max()


def test_maxpool_odd_dims_raise():
    with pytest.raises(DimensionError, match="even"):
        maxpool2(np.ones((1, 1, 3, 4)))


WINDOW_ORDER = ((0, 0), (0, 1), (1, 0), (1, 1))


def window_scan_pool(x, dy):
    """Brute-force 2x2 pool: scan each window in row-major order and keep
    the first maximum; return (out, routing index, input gradient)."""
    out = np.zeros((x.shape[0], x.shape[1], x.shape[2] // 2, x.shape[3] // 2))
    arg = np.zeros(out.shape, dtype=np.int64)
    dx = np.zeros(x.shape)
    for b, c, i, j in np.ndindex(out.shape):
        best = None
        for q, (di, dj) in enumerate(WINDOW_ORDER):
            value = x[b, c, 2 * i + di, 2 * j + dj]
            if best is None or value > best:
                best, arg[b, c, i, j] = value, q
        out[b, c, i, j] = best
        di, dj = WINDOW_ORDER[arg[b, c, i, j]]
        dx[b, c, 2 * i + di, 2 * j + dj] = dy[b, c, i, j]
    return out, arg, dx


def tied_pool_input(rng):
    # Half-integer values after a ReLU: most windows hold ties, many are
    # all zero. The pinned windows cover every pair of tied positions.
    x = np.maximum(np.round(rng.normal(size=(3, 2, 6, 8)) * 2) / 2, 0.0)
    x[0, 0, 0:2, 0:2] = 0.0
    x[0, 1, 2:4, 2:4] = 0.75
    x[1, 0, 0:2, 2:4] = [[0.25, 1.5], [1.5, 0.5]]
    x[1, 1, 4:6, 0:2] = [[1.0, 0.5], [0.5, 1.0]]
    x[2, 0, 2:4, 4:6] = [[0.0, 0.0], [2.0, 2.0]]
    x[2, 1, 0:2, 6:8] = [[0.0, 3.0], [0.0, 3.0]]
    return x


def test_maxpool_routes_ties_to_first_max_in_window_order():
    rng = np.random.default_rng(21)
    for _ in range(5):
        x = tied_pool_input(rng)
        dy = rng.normal(size=(3, 2, 3, 4))
        expect_out, expect_arg, expect_dx = window_scan_pool(x, dy)
        out, route = _maxpool2_cached(x, relu=False)
        assert np.array_equal(out, expect_out)
        assert np.array_equal(np.sum(route, axis=0), np.ones(out.shape))  # one position each
        assert np.array_equal(np.argmax(route, axis=0), expect_arg)
        assert np.array_equal(out, maxpool2(x))
        dx = _maxpool2_backward(dy, out, route, False).transpose(1, 0, 2, 3)
        assert np.array_equal(dx, expect_dx)


# --- softmax cross-entropy --------------------------------------------------


def test_ce_uniform_logits_is_log_c():
    loss, _ = softmax_cross_entropy(np.zeros((4, 10)), [0, 3, 5, 9])
    assert loss == pytest.approx(math.log(10.0), abs=1e-12)


def test_ce_saturated_correct_class_near_zero():
    logits = np.zeros((2, 4))
    logits[0, 1] = 1000.0
    logits[1, 3] = 1000.0
    loss, _ = softmax_cross_entropy(logits, [1, 3])
    assert 0.0 <= loss < 1e-12


def test_ce_matches_direct_formula():
    rng = np.random.default_rng(4)
    logits = rng.normal(size=(2, 3))
    labels = [2, 0]
    p = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
    expect = -np.mean([np.log(p[0, 2]), np.log(p[1, 0])])
    loss, dlogits = softmax_cross_entropy(logits, labels)
    assert loss == pytest.approx(expect, abs=1e-12)
    one_hot = np.zeros((2, 3))
    one_hot[0, 2] = one_hot[1, 0] = 1.0
    assert np.allclose(dlogits, (p - one_hot) / 2, atol=1e-12)


def test_ce_label_out_of_range_reports_index():
    with pytest.raises(LabelError, match="index 1"):
        softmax_cross_entropy(np.zeros((2, 3)), [0, 3])


def test_ce_loss_nonnegative_rows_sum_zero():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n, c = int(rng.integers(1, 6)), int(rng.integers(2, 8))
        logits = rng.normal(scale=5.0, size=(n, c))
        labels = rng.integers(0, c, size=n)
        loss, dlogits = softmax_cross_entropy(logits, labels)
        assert loss >= 0.0
        assert np.abs(dlogits.sum(axis=1)).max() < 1e-9


# --- model forward ----------------------------------------------------------


def test_model_forward_zero_params_all_zero():
    params = ModelParams(
        [
            LayerParams("fc1", "dense", np.zeros((4, 3)), np.zeros(4), relu=True),
            LayerParams("fc2", "dense", np.zeros((2, 4)), np.zeros(2)),
        ],
        1,
    )
    emb, logits = model_forward(params, np.random.default_rng(0).normal(size=(3, 3)))
    assert np.array_equal(emb, np.zeros((3, 4)))
    assert np.array_equal(logits, np.zeros((3, 2)))


def identity_extractor_model(dim, num_classes, rng):
    head_w = rng.normal(size=(num_classes, dim))
    head_b = rng.normal(size=num_classes)
    return ModelParams(
        [
            LayerParams("fe", "dense", np.eye(dim), np.zeros(dim)),
            LayerParams("fd", "dense", head_w, head_b),
        ],
        1,
    )


def test_model_forward_identity_extractor_embeds_input():
    rng = np.random.default_rng(6)
    params = identity_extractor_model(4, 3, rng)
    x = rng.normal(size=(5, 4))
    emb, _ = model_forward(params, x)
    assert np.array_equal(emb, x)


def test_model_forward_bitwise_deterministic():
    rng = np.random.default_rng(8)
    params = small_cnn4(rng, 3)
    x = np.random.default_rng(9).normal(size=(2, 1, 14, 14))
    emb1, logits1 = model_forward(params, x)
    emb2, logits2 = model_forward(params, x)
    assert np.array_equal(emb1, emb2) and np.array_equal(logits1, logits2)


# Processes sharing an evaluation's chunks: serial, two, an uneven split,
# and more processes than any call below has chunks. Set through
# _usable_cpus, so a one-CPU runner takes the forking path too.
PROCESS_COUNTS = (1, 2, 3, 200)


def same_bits(a, b) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def cached_forward(params, x):
    """The training path's forward: whole-batch convs, bias and ReLU before
    the pool."""
    emb, logits, _ = _forward_cached(params, x)
    return emb, logits


@pytest.mark.parametrize(
    "batch",
    sorted({1, max(1, _CONV_BLOCK - 1), _CONV_BLOCK, _CONV_BLOCK + 1, 17, 256, 257, 512, 1000}),
)
def test_model_forward_matches_cached_forward_bitwise_cnn4(batch):
    # model_forward pools before bias and ReLU and runs the convs before
    # the extractor boundary in blocks; training runs them whole. Every
    # boundary moves where the blocks stop and where the embedding is taken.
    rng = np.random.default_rng(23)
    cnn4 = build_cnn4(rng)
    x = rng.random((batch, 1, 28, 28))
    for boundary in range(len(cnn4.layers) + 1):
        params = ModelParams(cnn4.layers, boundary, cnn4.vector)
        cached_emb, cached_logits = cached_forward(params, x)
        emb, logits = model_forward(params, x)
        assert same_bits(emb, cached_emb), boundary
        assert same_bits(logits, cached_logits), boundary


@pytest.mark.parametrize("n", [9, 17, 257, 1000])
def test_prototypes_and_evaluation_match_cached_forward_bitwise(n, monkeypatch):
    rng = np.random.default_rng(31)
    params = build_cnn4(rng)
    dataset = Dataset(rng.random((n, 1, 28, 28)), rng.integers(0, 10, size=n), 10)
    shard = ClientShard(0, rng.permutation(n))
    chunks = (evaluation._EVAL_CHUNK, 7)  # one or two chunks, and many
    with monkeypatch.context() as patch:
        patch.setattr(prototypes, "model_forward", cached_forward)
        patch.setattr(evaluation, "model_forward", cached_forward)
        want_protos = compute_local_prototypes(params, dataset, shard)
        global_protos = aggregate_global_prototypes([want_protos])
        want_reports = [evaluate_accuracy(params, global_protos, dataset, "both", c) for c in chunks]
    for processes in PROCESS_COUNTS:
        monkeypatch.setattr(parallel, "_usable_cpus", lambda: processes)
        got = compute_local_prototypes(params, dataset, shard)
        assert same_bits(got.classes, want_protos.classes), processes
        assert same_bits(got.support, want_protos.support), processes
        assert same_bits(got.vectors, want_protos.vectors), processes
        reports = [evaluate_accuracy(params, global_protos, dataset, "both", c) for c in chunks]
        assert reports == want_reports, processes


def unit_conv_model(bias):
    """A 1x1 conv with every weight 1.0, so its GEMM output is the input bit
    for bit (NaN and inf included), then ReLU, 2x2 pool and a dense head."""
    out_c = len(bias)
    return ModelParams(
        [
            LayerParams(
                "conv", "conv", np.ones((out_c, 1, 1, 1)), np.asarray(bias), relu=True, pool=True
            ),
            LayerParams("fc", "dense", np.ones((2, out_c * 3 * 4)) / 7, np.zeros(2)),
        ],
        1,
    )


def special_pool_input(rng, batch):
    # Half-integer values: many windows hold tied maxima, many are all
    # negative. Pinned windows hold signed zeros, NaN and infinities.
    x = np.round(rng.normal(size=(batch, 1, 6, 8)) * 2) / 2
    x[0, 0, 0:2, 0:2] = [[-0.0, 0.0], [0.0, -0.0]]
    x[0, 0, 0:2, 2:4] = [[-1.5, -0.5], [-0.5, -2.0]]
    x[0, 0, 2:4, 0:2] = [[np.nan, 1.0], [2.0, -1.0]]
    x[0, 0, 2:4, 2:4] = [[np.inf, 1.0], [-np.inf, 0.0]]
    x[1, 0, 0:2, 0:2] = [[-np.inf, -1.0], [-np.inf, -np.inf]]
    x[1, 0, 0:2, 2:4] = [[-np.inf, -np.inf], [-np.inf, -np.inf]]
    x[1, 0, 2:4, 0:2] = [[np.inf, np.inf], [1.0, np.nan]]
    x[1, 0, 4:6, 6:8] = [[-np.nan, np.nan], [0.0, 0.0]]
    return x


@pytest.mark.parametrize(
    "bias",
    [
        [0.5, -1.25, 0.0],
        [-0.0, 3.0, -0.5],
        [1e308, -1e308, 2.0**-1074],
        [np.inf, -np.inf, np.nan],  # not finite: the pool runs after the bias
    ],
    ids=["plain", "signed-zero", "extreme", "non-finite"],
)
def test_pool_before_bias_matches_cached_path_bitwise(bias, monkeypatch):
    rng = np.random.default_rng(41)
    params = unit_conv_model(bias)
    for batch in (2, _CONV_BLOCK + 3):
        x = special_pool_input(rng, batch)
        data = Dataset(x, np.arange(batch) % 2, 2)
        protos = GlobalPrototypeSet.from_vectors({0: np.zeros(36), 1: np.ones(36)})
        with np.errstate(all="ignore"):
            cached_emb, cached_logits = cached_forward(params, x)
            emb, logits = model_forward(params, x)
            assert same_bits(emb, cached_emb), batch
            assert same_bits(logits, cached_logits), batch
            with monkeypatch.context() as patch:
                patch.setattr(evaluation, "model_forward", cached_forward)
                want = evaluate_accuracy(params, protos, data, "both", chunk=4)
            for processes in (1, 2):
                monkeypatch.setattr(parallel, "_usable_cpus", lambda: processes)
                got = evaluate_accuracy(params, protos, data, "both", chunk=4)
                assert got == want, (batch, processes)


def test_errstate_reaches_the_forked_evaluation_helper(monkeypatch):
    # Of two equal chunks on two processes, each runs in a helper of its
    # own, and only the second chunk's samples overflow in the bias add.
    monkeypatch.setattr(parallel, "_usable_cpus", lambda: 2)
    params = unit_conv_model([1e308, 0.0, 0.0])
    x = np.zeros((4 * _CONV_BLOCK, 1, 6, 8))
    x[2 * _CONV_BLOCK :] = 1.5e308
    data = Dataset(x, np.zeros(len(x), dtype=np.int64), 2)
    with np.errstate(over="raise"):
        with pytest.raises(FloatingPointError, match="overflow"):
            evaluate_accuracy(params, None, data, "softmax", chunk=2 * _CONV_BLOCK)
        # The first chunk alone is fine.
        head = slice(0, 2 * _CONV_BLOCK)
        evaluate_accuracy(params, None, Dataset(x[head], data.labels[head], 2), "softmax")
    with np.errstate(over="ignore"):
        report = evaluate_accuracy(params, None, data, "softmax", chunk=2 * _CONV_BLOCK)
    assert report.accuracy_prototype is None and 0.0 <= report.accuracy_softmax <= 1.0


def test_model_forward_matches_cached_forward_bitwise_mlp2():
    rng = np.random.default_rng(24)
    params = build_mlp2(rng, 784, 10)
    for batch in (1, 8, 257):
        x = rng.random((batch, 784))
        emb, logits = model_forward(params, x)
        cached_emb, cached_logits, _ = _forward_cached(params, x)
        assert np.array_equal(emb, cached_emb)
        assert np.array_equal(logits, cached_logits)


def test_model_forward_shape_mismatch():
    rng = np.random.default_rng(10)
    params = build_mlp2(rng, 6, 3)
    with pytest.raises(DimensionError):
        model_forward(params, np.zeros((2, 5)))


@pytest.mark.parametrize("boundary", [0, 1, 2, 3, 4])
def test_model_forward_empty_batch_returns_empty_arrays(boundary):
    cnn4 = build_cnn4(np.random.default_rng(12))
    params = ModelParams(cnn4.layers, boundary, cnn4.vector)
    emb, logits = model_forward(params, np.zeros((0, 1, 28, 28)))
    width = (784, 1440, 320, 50, 10)[boundary]
    assert emb.shape == (0, width) and logits.shape == (0, 10)
    emb, logits = model_forward(build_mlp2(np.random.default_rng(12), 6, 3), np.zeros((0, 6)))
    assert emb.shape == (0, 128) and logits.shape == (0, 3)


# --- composite loss ---------------------------------------------------------


def test_loss_lambda_zero_equals_pure_ce():
    rng = np.random.default_rng(11)
    params = build_mlp2(rng, 5, 3, hidden=7)
    x = rng.normal(size=(4, 5))
    y = rng.integers(0, 3, size=4)
    protos = GlobalPrototypeSet.from_vectors({c: rng.normal(size=7) for c in range(3)})
    plain = loss_and_grad(params, x, y, None, 0.0)
    with_protos = loss_and_grad(params, x, y, protos, 0.0)
    assert with_protos.total_loss == plain.ce_loss == plain.total_loss
    assert np.array_equal(plain.grads, with_protos.grads)


def test_loss_zero_distance_prototypes():
    rng = np.random.default_rng(12)
    params = identity_extractor_model(4, 2, rng)
    x = np.array([[1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0, 4.0], [0.5, 0.0, -1.0, 2.0]])
    y = [0, 0, 1]
    protos = GlobalPrototypeSet.from_vectors({0: x[0].copy(), 1: x[2].copy()})
    report = loss_and_grad(params, x, y, protos, lam=1.0)
    assert report.proto_loss == 0.0


def test_loss_missing_class_contributes_zero():
    rng = np.random.default_rng(13)
    params = identity_extractor_model(3, 2, rng)
    x = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    y = [0, 1]
    only_zero = GlobalPrototypeSet.from_vectors({0: np.zeros(3)})
    report = loss_and_grad(params, x, y, only_zero, lam=1.0)
    # sample 0: squared distance 1; sample 1: no prototype, contributes 0
    assert report.proto_loss == pytest.approx(0.5, abs=1e-15)


def test_loss_gradient_matches_finite_difference():
    rng = np.random.default_rng(14)
    params = build_mlp2(rng, 6, 3, hidden=9)
    x = rng.normal(size=(5, 6))
    y = rng.integers(0, 3, size=5)
    protos = GlobalPrototypeSet.from_vectors({0: rng.normal(size=9), 2: rng.normal(size=9)})
    report = loss_and_grad(params, x, y, protos, lam=1.0)
    fd = finite_diff_gradient(
        lambda p: loss_and_grad(p, x, y, protos, 1.0).total_loss, params, eps=1e-5
    )
    assert max_rel_err(report.grads, fd) < 1e-4


def test_loss_gradient_conv_path_matches_finite_difference():
    rng = np.random.default_rng(15)
    params = small_cnn4(rng, 3)
    x = rng.normal(size=(2, 1, 14, 14)) * 0.5
    y = np.array([0, 2])
    protos = GlobalPrototypeSet.from_vectors({c: rng.normal(size=5) for c in range(3)})
    report = loss_and_grad(params, x, y, protos, lam=0.5)
    fd = finite_diff_gradient(
        lambda p: loss_and_grad(p, x, y, protos, 0.5).total_loss, params, eps=1e-5
    )
    assert max_rel_err(report.grads, fd) < 1e-4


def test_loss_gradient_unsquared_form_matches_finite_difference():
    rng = np.random.default_rng(16)
    params = build_mlp2(rng, 4, 2, hidden=6)
    x = rng.normal(size=(3, 4))
    y = rng.integers(0, 2, size=3)
    protos = GlobalPrototypeSet.from_vectors({0: rng.normal(size=6), 1: rng.normal(size=6)})
    report = loss_and_grad(params, x, y, protos, lam=1.0, proto_form="unsquared")
    fd = finite_diff_gradient(
        lambda p: loss_and_grad(p, x, y, protos, 1.0, "unsquared").total_loss, params, eps=1e-5
    )
    assert max_rel_err(report.grads, fd) < 1e-4


def small_model(name, rng):
    if name == "mlp2":
        return build_mlp2(rng, 4, 3, hidden=6), rng.normal(size=(3, 4))
    cnn4 = small_cnn4(rng, 3)
    return cnn4, rng.normal(size=(3, 1, 14, 14)) * 0.5


@pytest.mark.parametrize("proto_form", ["squared", "unsquared"])
@pytest.mark.parametrize(
    "model, boundary", [("mlp2", b) for b in range(3)] + [("cnn4", b) for b in range(5)]
)
def test_loss_gradient_matches_finite_difference_at_every_boundary(model, boundary, proto_form):
    # From the flattened input (0) to the logits (len(layers)): the
    # prototype term reaches every extractor layer, whichever it is.
    rng = np.random.default_rng(100 + boundary)
    built, x = small_model(model, rng)
    params = ModelParams(built.layers, boundary, built.vector)
    y = np.array([0, 2, 1])
    emb, _, _ = _forward_cached(params, x)
    protos = GlobalPrototypeSet.from_vectors({c: rng.normal(size=emb.shape[1]) for c in range(3)})
    report = loss_and_grad(params, x, y, protos, 0.5, proto_form)
    fd = finite_diff_gradient(
        lambda p: loss_and_grad(p, x, y, protos, 0.5, proto_form).total_loss, params, eps=1e-5
    )
    assert report.proto_loss > 0
    assert max_rel_err(report.grads, fd) < 1e-4


def test_loss_decomposition_exact():
    rng = np.random.default_rng(17)
    for _ in range(10):
        params = build_mlp2(rng, 4, 3, hidden=5)
        x = rng.normal(size=(3, 4))
        y = rng.integers(0, 3, size=3)
        protos = GlobalPrototypeSet.from_vectors({c: rng.normal(size=5) for c in range(2)})
        lam = float(rng.uniform(0, 2))
        report = loss_and_grad(params, x, y, protos, lam)
        assert abs(report.total_loss - (report.ce_loss + lam * report.proto_loss)) <= 1e-12


def test_loss_prototype_dimension_mismatch():
    rng = np.random.default_rng(18)
    params = build_mlp2(rng, 4, 2, hidden=6)
    protos = GlobalPrototypeSet.from_vectors({0: np.zeros(5)})
    with pytest.raises(DimensionError, match="expected dimension 6"):
        loss_and_grad(params, rng.normal(size=(2, 4)), [0, 1], protos, 1.0)


def test_loss_rejects_a_dict_of_prototypes():
    rng = np.random.default_rng(20)
    params = build_mlp2(rng, 4, 2, hidden=6)
    with pytest.raises(TypeError, match="GlobalPrototypeSet or None, got dict"):
        loss_and_grad(params, rng.normal(size=(2, 4)), [0, 1], {0: np.zeros(6)}, 1.0)


def test_loss_ignores_prototypes_of_classes_outside_the_model():
    rng = np.random.default_rng(21)
    params = build_mlp2(rng, 4, 3, hidden=6)
    x = rng.normal(size=(5, 4))
    y = np.array([0, 1, 2, 1, 0])
    inside = {0: rng.normal(size=6), 2: rng.normal(size=6)}
    outside = {-1: rng.normal(size=6), 3: rng.normal(size=6), 12: rng.normal(size=6)}
    want = loss_and_grad(params, x, y, GlobalPrototypeSet.from_vectors(inside), 1.0)
    got = loss_and_grad(params, x, y, GlobalPrototypeSet.from_vectors({**inside, **outside}), 1.0)
    assert got.total_loss == want.total_loss and got.proto_loss == want.proto_loss
    assert got.grads.tobytes() == want.grads.tobytes()


def loop_prototype_pull(emb, labels, vectors, proto_form):
    """The per-sample loop the vectorized pull replaced, kept as its oracle."""
    n = emb.shape[0]
    proto_loss = 0.0
    d_emb = np.zeros_like(emb)
    for i in range(n):
        vec = vectors.get(int(labels[i]))
        if vec is None:
            continue
        diff = emb[i] - vec
        if proto_form == "squared":
            proto_loss += float(diff @ diff)
            d_emb[i] = 2.0 * diff / n
        else:
            dist = math.sqrt(float(diff @ diff))
            proto_loss += dist
            if dist > 0.0:
                d_emb[i] = diff / (dist * n)
    return proto_loss / n, d_emb


def random_pull_case(rng, n, dim, classes):
    emb = np.maximum(rng.normal(size=(n, dim)), 0.0)
    labels = rng.integers(0, classes, size=n)
    present = rng.permutation(classes)[: int(rng.integers(1, classes + 1))]
    vectors = {int(c): rng.normal(size=dim) for c in sorted(present)}
    # exact zero distances for some rows that have a prototype
    for i in np.flatnonzero(rng.random(n) < 0.2):
        if int(labels[i]) in vectors:
            vectors[int(labels[i])] = emb[i].copy()
    return emb, labels, vectors


@pytest.mark.parametrize("proto_form", ["squared", "unsquared"])
def test_prototype_pull_matches_loop_bitwise(proto_form):
    rng = np.random.default_rng(25)
    for _ in range(300):
        n = int(rng.integers(1, 20))
        dim = int(rng.choice([1, 5, 50, 128]))
        emb, labels, vectors = random_pull_case(rng, n, dim, 10)
        protos = GlobalPrototypeSet.from_vectors(vectors)
        loss, d_emb = _prototype_pull(emb, labels, protos.classes, protos.vectors, proto_form)
        expect_loss, expect_d_emb = loop_prototype_pull(emb, labels, vectors, proto_form)
        assert loss == expect_loss
        assert np.array_equal(d_emb, expect_d_emb)


@pytest.mark.parametrize("proto_form", ["squared", "unsquared"])
def test_prototype_pull_skips_classes_outside_the_labels(proto_form):
    # Classes -3 and 12 sit below and above every label, so no row matches
    # them; the rows of label 4 find their prototype between them.
    rng = np.random.default_rng(27)
    emb = rng.normal(size=(6, 3))
    labels = np.array([0, 4, 9, 4, 3, 0])
    vectors = {-3: rng.normal(size=3), 4: rng.normal(size=3), 12: rng.normal(size=3)}
    protos = GlobalPrototypeSet.from_vectors(vectors)
    loss, d_emb = _prototype_pull(emb, labels, protos.classes, protos.vectors, proto_form)
    expect_loss, expect_d_emb = loop_prototype_pull(emb, labels, vectors, proto_form)
    assert loss == expect_loss > 0.0
    assert d_emb.tobytes() == expect_d_emb.tobytes()
    assert np.flatnonzero(d_emb.any(axis=1)).tolist() == [1, 3]


@pytest.mark.parametrize("proto_form", ["squared", "unsquared"])
@pytest.mark.parametrize("model", ["cnn4", "mlp2"])
def test_loss_grads_match_loop_pull_bitwise(model, proto_form):
    rng = np.random.default_rng(26)
    if model == "cnn4":
        params = small_cnn4(rng, 4)
        x = rng.normal(size=(8, 1, 14, 14))
    else:
        params = build_mlp2(rng, 6, 4, hidden=9)
        x = rng.normal(size=(8, 6))
    y = np.array([0, 1, 2, 0, 1, 3, 0, 2])
    emb, logits, caches = _forward_cached(params, x)
    # class 0 sits exactly on sample 0; class 3 has no prototype
    vectors = {0: emb[0].copy(), 1: rng.normal(size=emb.shape[1]), 2: rng.normal(size=emb.shape[1])}
    ce, dlogits = softmax_cross_entropy(logits, y)
    expect_pull, d_emb = loop_prototype_pull(emb, y, vectors, proto_form)
    expect_grads = _backward(params, caches, dlogits, d_emb * 0.5)

    protos = GlobalPrototypeSet.from_vectors(vectors)
    report = loss_and_grad(params, x, y, protos, lam=0.5, proto_form=proto_form)
    assert report.ce_loss == ce
    assert report.proto_loss == expect_pull
    assert report.total_loss == ce + 0.5 * expect_pull
    assert np.array_equal(report.grads, expect_grads)


def test_loss_finiteness_on_random_inputs():
    rng = np.random.default_rng(19)
    params = build_mlp2(rng, 5, 4, hidden=6)
    x = rng.normal(size=(6, 5)) * 10
    y = rng.integers(0, 4, size=6)
    report = loss_and_grad(params, x, y, GlobalPrototypeSet.from_vectors({0: rng.normal(size=6)}), 1.0)
    assert math.isfinite(report.total_loss)
    assert np.isfinite(report.grads).all()


# --- optimizer --------------------------------------------------------------


def scalar_model(value):
    return ModelParams([LayerParams("w", "dense", [[value]], [0.0])], 1)


def test_sgd_first_step():
    params = scalar_model(1.0)
    state = OptimizerState.zeros(params, learning_rate=0.01, momentum=0.5)
    grads = np.array([1.0, 0.0])
    sgd_momentum_step(params, grads, state)
    assert state.velocity[0] == 1.0
    assert params.layers[0].weight[0, 0] == pytest.approx(0.99, abs=1e-15)


def test_sgd_zero_grad_zero_velocity_fixed_point():
    params = scalar_model(1.0)
    state = OptimizerState.zeros(params, 0.01, 0.5)
    sgd_momentum_step(params, np.zeros(2), state)
    assert params.layers[0].weight[0, 0] == 1.0


def test_sgd_two_step_recurrence():
    params = scalar_model(1.0)
    state = OptimizerState.zeros(params, 0.01, 0.5)
    grads = np.array([1.0, 0.0])
    sgd_momentum_step(params, grads, state)
    sgd_momentum_step(params, grads, state)
    assert state.velocity[0] == pytest.approx(1.5, abs=1e-15)
    assert params.layers[0].weight[0, 0] == pytest.approx(0.975, abs=1e-15)


def test_sgd_no_momentum_is_plain_gradient_descent():
    rng = np.random.default_rng(20)
    params = build_mlp2(rng, 3, 2, hidden=4)
    grads = rng.normal(size=params.num_params)
    state = OptimizerState.zeros(params, 0.1, 0.0)
    before = params.vector.copy()
    sgd_momentum_step(params, grads, state)
    assert np.array_equal(params.vector, before - 0.1 * grads)


def test_sgd_shape_mismatch_raises():
    params = scalar_model(1.0)
    state = OptimizerState.zeros(params, 0.01, 0.5)
    with pytest.raises(DimensionError):
        sgd_momentum_step(params, np.zeros(5), state)


def test_optimizer_state_validation():
    params = scalar_model(1.0)
    with pytest.raises(ValueError):
        OptimizerState.zeros(params, -0.1, 0.5)
    with pytest.raises(ValueError):
        OptimizerState.zeros(params, 0.1, 1.0)


def split_layers(params, flat):
    """Per-layer (weight, bias) pieces of a flat buffer: layer order,
    weight before bias."""
    pieces, start = [], 0
    for layer in params.layers:
        w_end = start + layer.weight.size
        b_end = w_end + layer.bias.size
        pieces.append((flat[start:w_end].reshape(layer.weight.shape), flat[w_end:b_end]))
        start = b_end
    return pieces


def test_sgd_in_place_step_matches_pure_formula_bitwise_cnn4():
    rng = np.random.default_rng(27)
    params = build_cnn4(rng)
    state = OptimizerState(rng.normal(size=params.num_params), 0.01, 0.5)
    for _ in range(2):
        grads = rng.normal(size=params.num_params)
        # The per-layer pure step the in-place one replaced, as its oracle.
        expect = []
        for layer, (g_w, g_b), (v_w, v_b) in zip(
            params.layers, split_layers(params, grads), split_layers(params, state.velocity)
        ):
            nv_w = state.momentum * v_w + g_w
            nv_b = state.momentum * v_b + g_b
            expect.append(
                (
                    layer.weight - state.learning_rate * nv_w,
                    layer.bias - state.learning_rate * nv_b,
                    nv_w,
                    nv_b,
                )
            )
        sgd_momentum_step(params, grads, state)
        velocity = split_layers(params, state.velocity)
        for layer, (v_w, v_b), (e_w, e_b, ev_w, ev_b) in zip(params.layers, velocity, expect):
            assert np.array_equal(layer.weight, e_w) and np.array_equal(layer.bias, e_b)
            assert np.array_equal(v_w, ev_w) and np.array_equal(v_b, ev_b)


# --- finite differences -----------------------------------------------------


def test_finite_diff_quadratic():
    params = scalar_model(3.0)
    grads = finite_diff_gradient(lambda p: float(p.layers[0].weight[0, 0] ** 2), params, eps=1e-5)
    assert grads[0] == pytest.approx(6.0, abs=1e-6)


def test_finite_diff_constant_fn_zero():
    rng = np.random.default_rng(21)
    params = build_mlp2(rng, 3, 2, hidden=4)
    grads = finite_diff_gradient(lambda p: 1.25, params)
    assert np.array_equal(grads, np.zeros(params.num_params))


def test_finite_diff_nonfinite_loss_raises():
    params = scalar_model(0.0)
    with pytest.raises(NumericError):
        finite_diff_gradient(lambda p: float("inf"), params)


def test_finite_diff_rejects_bad_eps():
    with pytest.raises(ValueError):
        finite_diff_gradient(lambda p: 0.0, scalar_model(1.0), eps=0.0)


def test_gradient_property_small_models():
    # sub-2000-parameter models, lambda in {0, 0.5, 1}
    rng = np.random.default_rng(22)
    for lam in (0.0, 0.5, 1.0):
        in_dim = int(rng.integers(3, 8))
        hidden = int(rng.integers(4, 12))
        classes = int(rng.integers(2, 5))
        params = build_mlp2(rng, in_dim, classes, hidden=hidden)
        assert params.num_params < 2000
        x = rng.normal(size=(4, in_dim))
        y = rng.integers(0, classes, size=4)
        protos = GlobalPrototypeSet.from_vectors(
            {c: rng.normal(size=hidden) for c in range(classes) if rng.random() < 0.7}
        )
        report = loss_and_grad(params, x, y, protos, lam)
        fd = finite_diff_gradient(
            lambda p: loss_and_grad(p, x, y, protos, lam).total_loss, params, eps=1e-5
        )
        assert max_rel_err(report.grads, fd) < 1e-4


# --- builders ---------------------------------------------------------------


def test_cnn4_default_shapes():
    params = build_cnn4(np.random.default_rng(23))
    shapes = [(l.name, l.weight.shape) for l in params.layers]
    assert shapes == [
        ("conv1", (10, 1, 5, 5)),
        ("conv2", (20, 10, 5, 5)),
        ("fc1", (50, 320)),
        ("fc2", (10, 50)),
    ]
    assert params.extractor_boundary == 3
    emb, logits = model_forward(params, np.zeros((2, 1, 28, 28)))
    assert emb.shape == (2, 50) and logits.shape == (2, 10)


def test_mlp2_default_shapes():
    params = build_mlp2(np.random.default_rng(24), 784, 10)
    assert [l.weight.shape for l in params.layers] == [(128, 784), (10, 128)]
    emb, logits = model_forward(params, np.zeros((3, 784)))
    assert emb.shape == (3, 128) and logits.shape == (3, 10)

