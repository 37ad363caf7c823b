"""The cached training step must give the same bits as the frozen copy in
frozen_step.py: same losses, same gradient bytes.

The conv layers of the step pool before their ReLU, route the pool
gradient with bool masks, keep their output gradients channel-major and
hand BLAS the kernel-gradient operands without tensordot's copies; none of
that may move a bit. The one allowed divergence is a window whose maximum
is NaN: its loss is NaN, and client_local_update stops before any step.
"""

from __future__ import annotations

import numpy as np
import pytest

import frozen_step
from fedpr import federation
from fedpr.data import ClientShard, Dataset
from fedpr.errors import DivergenceError
from fedpr.nn import (
    LayerParams,
    ModelParams,
    _conv2d_backward,
    _conv2d_cached,
    _maxpool2_backward,
    _maxpool2_cached,
    build_cnn4,
    build_mlp2,
    loss_and_grad,
)
from fedpr.prototypes import GlobalPrototypeSet

PULLS = {
    "lam0": (None, 0.0, "squared"),
    "lam1-squared": ("protos", 1.0, "squared"),
    "lam1-unsquared": ("protos", 1.0, "unsquared"),
}


def batch(kind: str, rng, n: int) -> np.ndarray:
    x = rng.normal(size=(n, 1, 28, 28))
    if kind == "sparse":  # many exact zeros, as in MNIST backgrounds
        return np.maximum(x, 0.0)
    if kind == "ties":  # few distinct values: tied maxima in most windows
        return np.round(x)
    return x


def assert_same_report(got, want):
    assert got.total_loss == want.total_loss
    assert got.ce_loss == want.ce_loss
    assert got.proto_loss == want.proto_loss
    assert got.grads.tobytes() == want.grads.tobytes()


@pytest.mark.parametrize("kind", ["normal", "sparse", "ties"])
@pytest.mark.parametrize("pull", list(PULLS))
@pytest.mark.parametrize("n", range(1, 10))
def test_cnn4_step_matches_frozen_step_bitwise(n, pull, kind):
    rng = np.random.default_rng([n, len(pull), len(kind)])
    params = build_cnn4(rng)
    x = batch(kind, rng, n)
    y = rng.integers(0, 10, size=n)
    protos, lam, form = PULLS[pull]
    if protos:
        # class 9 has no prototype
        protos = GlobalPrototypeSet.from_vectors({c: rng.normal(size=50) for c in range(9)})
    got = loss_and_grad(params, x, y, protos, lam, form)
    want = frozen_step.loss_and_grad(params, x, y, protos, lam, form)
    assert_same_report(got, want)


def test_cnn4_step_with_dead_channels_matches_frozen_step_bitwise():
    # Negative conv biases leave most pool windows at or below 0 after the
    # ReLU, and some channels dead for the whole batch: their gradients
    # are sums of signed zeros.
    rng = np.random.default_rng(41)
    params = build_cnn4(rng)
    for layer in params.layers[:2]:
        layer.bias[:] = -np.abs(layer.bias) - 0.3
        layer.bias[0] = -1e3
    x = batch("sparse", rng, 8)
    y = rng.integers(0, 10, size=8)
    protos = GlobalPrototypeSet.from_vectors({c: rng.normal(size=50) for c in range(10)})
    for args in ((None, 0.0), (protos, 1.0)):
        got = loss_and_grad(params, x, y, *args)
        want = frozen_step.loss_and_grad(params, x, y, *args)
        assert_same_report(got, want)


def conv_stack(rng):
    """conv+ReLU without a pool, then conv+pool without a ReLU, then 5 logits."""
    return [
        LayerParams("c1", "conv", rng.normal(size=(4, 2, 3, 3)), rng.normal(size=4), relu=True),
        LayerParams("c2", "conv", rng.normal(size=(3, 4, 3, 3)), rng.normal(size=3), pool=True),
        LayerParams("fc", "dense", rng.normal(size=(5, 27)), rng.normal(size=5)),
    ]


@pytest.mark.parametrize("n", [1, 3, 8])
def test_conv_layers_without_pool_or_relu_match_frozen_step_bitwise(n):
    rng = np.random.default_rng(43)
    params = ModelParams(conv_stack(rng), extractor_boundary=2)
    x = np.round(rng.normal(size=(n, 2, 10, 10)))
    y = rng.integers(0, 5, size=n)
    protos = GlobalPrototypeSet.from_vectors({c: rng.normal(size=27) for c in range(4)})
    assert_same_report(
        loss_and_grad(params, x, y, protos, 0.5),
        frozen_step.loss_and_grad(params, x, y, protos, 0.5),
    )


@pytest.mark.parametrize("form", ["squared", "unsquared"])
def test_mlp2_step_matches_frozen_step_bitwise(form):
    rng = np.random.default_rng(42)
    params = build_mlp2(rng, 20, 4, hidden=16)
    x = rng.normal(size=(9, 20))
    y = rng.integers(0, 4, size=9)
    protos = GlobalPrototypeSet.from_vectors({0: rng.normal(size=16), 2: rng.normal(size=16)})
    assert_same_report(
        loss_and_grad(params, x, y, protos, 1.0, form),
        frozen_step.loss_and_grad(params, x, y, protos, 1.0, form),
    )


@pytest.mark.parametrize("form", ["squared", "unsquared"])
@pytest.mark.parametrize("model", ["mlp2", "conv-stack"])
def test_step_with_the_logits_as_embedding_matches_frozen_step_bitwise(model, form):
    # At extractor_boundary == len(layers) the prototype gradient joins at
    # the top of the last layer, on the logits' gradient.
    rng = np.random.default_rng(44)
    if model == "mlp2":
        params = ModelParams(build_mlp2(rng, 20, 4, hidden=16).layers, extractor_boundary=2)
        x = rng.normal(size=(9, 20))
    else:
        params = ModelParams(conv_stack(rng), extractor_boundary=3)
        x = np.round(rng.normal(size=(6, 2, 10, 10)))
    classes = len(params.layers[-1].bias)
    y = rng.integers(0, classes, size=len(x))
    protos = GlobalPrototypeSet.from_vectors({c: rng.normal(size=classes) for c in range(classes - 1)})
    got = loss_and_grad(params, x, y, protos, 0.5, form)
    assert got.proto_loss > 0
    assert_same_report(got, frozen_step.loss_and_grad(params, x, y, protos, 0.5, form))


# --- the pool with its ReLU folded in ----------------------------------------

EDGE_VALUES = np.array([-2.0, -1.0, -0.0, 0.0, 0.5, 1.0, 1.0, 3.0, np.inf, -np.inf])
DY_VALUES = np.array([-1.5, -0.0, 0.0, 2.0, 0.25, np.inf, -np.inf])


def old_pool_relu(x, dy):
    """ReLU, then pool with its routing, then the full-size ReLU mask."""
    out, arg = frozen_step.maxpool2_cached(np.maximum(x, 0.0))
    return out, frozen_step.maxpool2_backward(dy, arg, x.shape) * (x > 0)


def new_pool_relu(x, dy):
    out, route = _maxpool2_cached(x, relu=True)
    dx = _maxpool2_backward(dy, out, route, True)
    return out, np.ascontiguousarray(dx.transpose(1, 0, 2, 3))


@pytest.mark.parametrize("seed", range(20))
def test_pool_relu_matches_relu_then_pool_bitwise(seed):
    # Ties, windows at or below 0 (all-negative ones included), +-0 and
    # +-inf in the input and in the output gradient.
    rng = np.random.default_rng(seed)
    x = rng.choice(EDGE_VALUES, size=(3, 4, 6, 8))
    x[0, 0, 0:2, 0:2] = [[-1.0, -2.0], [-0.0, -3.0]]
    x[0, 1, 0:2, 0:2] = -np.inf
    x[1, 0, 2:4, 2:4] = [[-0.0, 0.0], [0.0, -0.0]]
    x[1, 1, 0:2, 6:8] = [[1.0, 3.0], [3.0, 3.0]]
    dy = rng.choice(DY_VALUES, size=(3, 4, 3, 4))
    with np.errstate(invalid="ignore"):
        old_out, old_dx = old_pool_relu(x, dy)
        new_out, new_dx = new_pool_relu(x, dy)
    assert new_out.tobytes() == old_out.tobytes()
    assert new_dx.tobytes() == old_dx.tobytes()


def test_pool_relu_routes_windows_at_or_below_zero_to_position_0():
    x = np.array([[[[-3.0, -1.0], [-2.0, -0.5]]]])
    out, route = _maxpool2_cached(x, relu=True)
    assert out.tobytes() == np.zeros((1, 1, 1, 1)).tobytes()
    assert [r.item() for r in route] == [True, False, False, False]
    dx = _maxpool2_backward(np.full((1, 1, 1, 1), -2.0), out, route, True)
    assert dx.ravel().tobytes() == np.array([-0.0, 0.0, 0.0, 0.0]).tobytes()


def test_pool_relu_nan_window_is_the_only_divergence():
    # A NaN window pools to NaN either way and routes to position 3, but
    # the old step passed dy * (preact[3] > 0) there and this one passes
    # dy * (out > 0) = +-0: the only place the two may differ.
    rng = np.random.default_rng(7)
    x = rng.normal(size=(2, 2, 4, 4))
    x[0, 1, 0:2, 2:4] = [[np.nan, -1.0], [0.5, 2.0]]
    dy = rng.normal(size=(2, 2, 2, 2))
    old_out, old_dx = old_pool_relu(x, dy)
    new_out, new_dx = new_pool_relu(x, dy)
    assert np.isnan(old_out[0, 1, 0, 1]) and np.isnan(new_out[0, 1, 0, 1])
    _, route = _maxpool2_cached(x, relu=True)
    assert [r[0, 1, 0, 1] for r in route] == [False, False, False, True]
    assert old_dx[0, 1, 1, 3] == dy[0, 1, 0, 1] and new_dx[0, 1, 1, 3] == 0.0
    window = np.zeros(x.shape, dtype=bool)
    window[0, 1, 0:2, 2:4] = True
    assert np.array_equal(new_out, old_out, equal_nan=True)
    assert new_dx[~window].tobytes() == old_dx[~window].tobytes()


def test_nan_window_stops_the_client_before_any_step():
    rng = np.random.default_rng(8)
    params = build_cnn4(rng)
    x = rng.normal(size=(4, 1, 28, 28))
    x[2, 0, 10, 10] = np.nan
    assert np.isnan(loss_and_grad(params, x, [0, 1, 2, 3], None, 0.0).total_loss)

    data = Dataset(x, np.array([0, 1, 2, 3]), 10)
    cfg = federation.FederationConfig(
        model="cnn4", strategy="fedavg", lam=0.0, eval_inference="softmax", batch_size=4
    )
    state = federation.ClientState(0, ClientShard(0, np.arange(4)))
    before = params.vector.copy()
    with pytest.raises(DivergenceError, match="loss=nan"):
        federation.client_local_update(state, params, GlobalPrototypeSet.empty(0), cfg, data, 1)
    assert params.vector.tobytes() == before.tobytes()


# --- conv gradients from a channel-major output gradient --------------------


@pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 8, 9])
@pytest.mark.parametrize("shape", [(1, 28, 10), (10, 12, 20)], ids=["conv1", "conv2"])
def test_conv_backward_matches_frozen_bitwise(shape, n):
    in_c, hw, out_c = shape
    rng = np.random.default_rng([n, in_c])
    kernel = rng.normal(size=(out_c, in_c, 5, 5))
    x = rng.normal(size=(n, in_c, hw, hw)) * np.exp2(rng.integers(-20, 20, size=(n, in_c, hw, hw)))
    dy = rng.normal(size=(n, out_c, hw - 4, hw - 4))
    dy[rng.random(dy.shape) < 0.75] = 0.0  # pool routing leaves most of it 0
    dy[0, 0] = -0.0
    _, cols = _conv2d_cached(kernel, None, x)
    _, old_cols = frozen_step.conv2d_cached(kernel, np.zeros(out_c), x)
    got = _conv2d_backward(np.ascontiguousarray(dy.transpose(1, 0, 2, 3)), cols, x.shape, kernel, True)
    want = frozen_step.conv2d_backward(dy, old_cols, x.shape, kernel, True)
    for g, w in zip(got, want):
        assert np.ascontiguousarray(g).tobytes() == np.ascontiguousarray(w).tobytes()
