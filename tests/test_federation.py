import numpy as np
import pytest

from fedpr.data import ClientShard, Dataset, synthetic_blobs
from fedpr.errors import ConfigError, DimensionError, DivergenceError
from fedpr.federation import (
    ClientState,
    FederationConfig,
    client_local_update,
    client_rng,
    init_global_model,
    prepare_partition,
    run_experiment,
    run_round,
    server_weighted_average,
)
from fedpr.nn import (
    LayerParams,
    ModelParams,
    OptimizerState,
    build_cnn4,
    loss_and_grad,
    sgd_momentum_step,
)
from fedpr.prototypes import GlobalPrototypeSet
from idx_files import write_idx_images, write_idx_labels


def small_cfg(**overrides):
    base = dict(
        num_clients=4,
        rounds=3,
        local_epochs=1,
        batch_size=8,
        dataset="synthetic",
        model="mlp2",
        strategy="fedpr",
        lam=1.0,
        subsample_n=120,
        synth_classes=4,
        synth_dim=8,
        synth_per_class=40,
        synth_test_per_class=10,
        dirichlet_alpha=0.5,
        master_seed=0,
    )
    base.update(overrides)
    return FederationConfig(**base)


def params_equal(a: ModelParams, b: ModelParams) -> bool:
    return all(
        np.array_equal(x.weight, y.weight) and np.array_equal(x.bias, y.bias)
        for x, y in zip(a.layers, b.layers)
    )


def scalar_params(value):
    return ModelParams([LayerParams("w", "dense", [[float(value)]], [0.0])], 1)


# Named errors of the round functions that no other test raises, with a
# call that raises each and the text it must carry.
NAMED_ERRORS = [
    pytest.param(
        lambda: client_local_update(
            ClientState(3, ClientShard(3, [])), scalar_params(1.0), GlobalPrototypeSet.empty(0),
            small_cfg(), Dataset(np.zeros((2, 1)), [0, 1], 2),
        ),
        ValueError, "client 3: empty shard", id="client-empty-shard",
    ),
]


@pytest.mark.parametrize("call,error,match", NAMED_ERRORS)
def test_each_named_error_is_raised_with_its_text(call, error, match):
    with pytest.raises(error, match=match):
        call()


def test_cnn4_refuses_images_of_another_size_at_set_up(tmp_path):
    # Flat vectors of 784 are reshaped to 1x28x28; anything else, flat or
    # already an image, fails before round 1 with the shape it found.
    with pytest.raises(ConfigError) as info:
        prepare_partition(small_cfg(model="cnn4"))
    assert str(info.value) == (
        "model: cnn4 needs [n,1,28,28] images (or flat 784 vectors); train data has shape (120, 8)"
    )
    rng = np.random.default_rng(0)
    for split, n in (("train", 12), ("t10k", 6)):
        write_idx_images(tmp_path / f"{split}-images-idx3-ubyte", rng.integers(0, 256, size=(n, 32, 32)))
        write_idx_labels(tmp_path / f"{split}-labels-idx1-ubyte", rng.integers(0, 10, size=n))
    with pytest.raises(ConfigError) as info:
        prepare_partition(small_cfg(model="cnn4", dataset="mnist", data_dir=str(tmp_path), subsample_n=12))
    assert str(info.value) == (
        "model: cnn4 needs [n,1,28,28] images (or flat 784 vectors); train data has shape (12, 1, 32, 32)"
    )


# --- server averaging -------------------------------------------------------


def test_average_single_update_unchanged():
    params = scalar_params(2.5)
    out = server_weighted_average([(params, 17.0)])
    assert params_equal(out, params)


def test_average_equal_weights_is_plain_mean():
    out = server_weighted_average([(scalar_params(1.0), 5.0), (scalar_params(3.0), 5.0)])
    assert out.layers[0].weight[0, 0] == pytest.approx(2.0, abs=1e-15)


def test_average_hand_weighted_oracle():
    out = server_weighted_average([(scalar_params(0.0), 1.0), (scalar_params(4.0), 3.0)])
    assert out.layers[0].weight[0, 0] == pytest.approx(3.0, abs=1e-15)


def test_average_matches_bruteforce_on_random_models():
    rng = np.random.default_rng(0)
    models, weights = [], []
    for _ in range(5):
        models.append(
            ModelParams(
                [LayerParams("fc", "dense", rng.normal(size=(3, 2)), rng.normal(size=3))], 1
            )
        )
        weights.append(float(rng.integers(1, 20)))
    out = server_weighted_average(list(zip(models, weights)))
    total = sum(weights)
    expect_w = sum((w / total) * m.layers[0].weight for m, w in zip(models, weights))
    expect_b = sum((w / total) * m.layers[0].bias for m, w in zip(models, weights))
    assert np.abs(out.layers[0].weight - expect_w).max() <= 1e-12
    assert np.abs(out.layers[0].bias - expect_b).max() <= 1e-12


def test_average_of_identical_models_conserves_weight():
    # normalized weights must sum to 1: averaging N copies of one model
    # under arbitrary positive weights returns that model
    rng = np.random.default_rng(2)
    params = ModelParams(
        [LayerParams("fc", "dense", rng.normal(size=(5, 4)), rng.normal(size=5))], 1
    )
    weights = [3.0, 11.0, 0.25, 7.5]
    out = server_weighted_average([(params, w) for w in weights])
    assert np.abs(out.layers[0].weight - params.layers[0].weight).max() <= 1e-15
    assert np.abs(out.layers[0].bias - params.layers[0].bias).max() <= 1e-15


def test_average_matches_per_layer_loop_bitwise_cnn4():
    rng = np.random.default_rng(3)
    updates = [(build_cnn4(rng), weight) for weight in (120.0, 7.0, 33.0)]
    out = server_weighted_average(updates)
    # The per-layer reduction the vector sum replaced, as its oracle; both
    # fold the updates in the order given.
    total = float(sum(weight for _, weight in updates))
    expect = None
    for params, weight in updates:
        w = weight / total
        if expect is None:
            expect = [(layer.weight * w, layer.bias * w) for layer in params.layers]
        else:
            for (acc_w, acc_b), layer in zip(expect, params.layers):
                acc_w += w * layer.weight
                acc_b += w * layer.bias
    for layer, (e_w, e_b) in zip(out.layers, expect):
        assert np.array_equal(layer.weight, e_w) and np.array_equal(layer.bias, e_b)


def test_average_rejects_structure_mismatch():
    a = scalar_params(1.0)
    b = ModelParams([LayerParams("w", "dense", np.zeros((2, 2)), np.zeros(2))], 1)
    with pytest.raises(DimensionError):
        server_weighted_average([(a, 1.0), (b, 1.0)])


def test_average_rejects_empty_and_zero_weight():
    with pytest.raises(ValueError, match="at least one"):
        server_weighted_average([])
    with pytest.raises(ValueError, match="weight"):
        server_weighted_average([(scalar_params(1.0), 0.0)])
    # A NaN weight would average to an all-NaN model, and a negative one
    # would pass the positive total.
    for bad in (float("nan"), float("inf"), -1.0):
        with pytest.raises(ValueError, match=f"update 1 has weight {bad}; weights must be finite and non-negative"):
            server_weighted_average([(scalar_params(1.0), 3.0), (scalar_params(2.0), bad)])


# --- client local update ----------------------------------------------------


def make_world(cfg):
    train, test, shards = prepare_partition(cfg)
    params = init_global_model(cfg, train)
    clients = [ClientState(s.client_id, s) for s in shards]
    return train, test, shards, params, clients


def test_local_update_matches_manual_sgd_loop():
    cfg = small_cfg(strategy="fedavg", lam=0.0, eval_inference="softmax", local_epochs=2)
    train, _, shards, params, clients = make_world(cfg)
    state = clients[0]
    got_params, got_protos, got_loss = client_local_update(state, params, GlobalPrototypeSet.empty(), cfg, train, 1)
    assert got_protos is None

    # independent trainer: same stream, plain CE objective
    rng = client_rng(cfg.master_seed, state.client_id, 1)
    work = params.copy()
    opt = OptimizerState.zeros(work, cfg.learning_rate, cfg.momentum)
    indices = state.shard.indices
    for _ in range(cfg.local_epochs):
        order = rng.permutation(len(indices))
        total = 0.0
        for start in range(0, len(order), cfg.batch_size):
            batch = indices[order[start : start + cfg.batch_size]]
            report = loss_and_grad(work, train.images[batch], train.labels[batch], None, 0.0)
            sgd_momentum_step(work, report.grads, opt)
            total += report.total_loss * len(batch)
    assert params_equal(got_params, work)
    assert got_loss == total / len(indices)


def test_local_update_single_sample_shard_partial_batch():
    cfg = small_cfg()
    train, _, shards, params, _ = make_world(cfg)
    lonely = ClientState(0, ClientShard(0, shards[0].indices[:1]))
    new_params, protos, loss = client_local_update(
        lonely, params, GlobalPrototypeSet.empty(), cfg, train, 1
    )
    assert np.isfinite(loss)
    assert protos.classes.shape == (1,) and protos.support.tolist() == [1]
    assert protos.vectors.shape == (1, params.layers[0].weight.shape[0])
    assert not params_equal(new_params, params)


def test_local_update_bitwise_replay():
    cfg = small_cfg()
    train, _, shards, params, clients = make_world(cfg)
    results = []
    for _ in range(2):
        state = ClientState(1, shards[1])
        results.append(client_local_update(state, params, GlobalPrototypeSet.empty(), cfg, train, 1))
    assert params_equal(results[0][0], results[1][0])
    assert results[0][2] == results[1][2]


def test_local_update_divergence_reports_client_and_round():
    cfg = small_cfg(learning_rate=1e200, local_epochs=3)
    train, _, shards, params, _ = make_world(cfg)
    state = ClientState(2, shards[2])
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DivergenceError, match="client 2.*round 5"):
            client_local_update(state, params, GlobalPrototypeSet.empty(), cfg, train, 5)


# --- rounds -----------------------------------------------------------------


def test_round_single_client_returns_its_params():
    cfg = small_cfg(num_clients=1, dirichlet_alpha=1.0)
    train, test, shards, params, clients = make_world(cfg)
    new_params, protos, record = run_round(
        params, GlobalPrototypeSet.empty(), clients, cfg, 1, train, test
    )
    state = ClientState(0, shards[0])
    expect_params, expect_protos, expect_loss = client_local_update(
        state, params, GlobalPrototypeSet.empty(), cfg, train, 1
    )
    assert params_equal(new_params, expect_params)
    assert record.mean_train_loss == expect_loss
    assert protos.classes.tobytes() == expect_protos.classes.tobytes()
    assert protos.vectors.tobytes() == expect_protos.vectors.tobytes()


def test_round_one_cold_start_matches_fedavg_loss():
    cfg_pr = small_cfg()
    cfg_avg = small_cfg(strategy="fedavg", lam=0.0, eval_inference="softmax")
    train, test, _, params, clients_pr = make_world(cfg_pr)
    _, _, _, _, clients_avg = make_world(cfg_avg)
    _, _, rec_pr = run_round(params, GlobalPrototypeSet.empty(), clients_pr, cfg_pr, 1, train, test)
    _, _, rec_avg = run_round(params, GlobalPrototypeSet.empty(), clients_avg, cfg_avg, 1, train, test)
    # no prototypes exist yet, so the regularizer contributes nothing
    assert rec_pr.mean_train_loss == rec_avg.mean_train_loss
    assert rec_pr.test_accuracy_softmax == rec_avg.test_accuracy_softmax
    assert rec_avg.test_accuracy_prototype is None
    assert rec_pr.test_accuracy_prototype is not None


def test_round_aggregates_prototypes_covering_all_classes():
    cfg = small_cfg()
    train, test, _, params, clients = make_world(cfg)
    _, protos, _ = run_round(params, GlobalPrototypeSet.empty(), clients, cfg, 1, train, test)
    assert protos.round_index == 1
    assert protos.classes.tolist() == sorted(set(train.labels.tolist()))
    assert (protos.contributors >= 1).all()


def test_round_schedule_independence():
    # run_round runs and folds the clients in client-id order, so any order
    # of its clients list gives the same bytes. Round 2 starts from round 1's
    # prototypes, so under fedpr the pull is live.
    for overrides in ({}, dict(strategy="fedavg", lam=0.0, eval_inference="softmax")):
        cfg = small_cfg(**overrides)
        train, test, _, params, clients = make_world(cfg)
        assert sum(1 for state in clients if len(state.shard)) >= 3
        outcomes = []
        for order in (clients, [clients[i] for i in (2, 0, 3, 1)]):
            new_params, protos, records = params, GlobalPrototypeSet.empty(), []
            for t in (1, 2):
                if t == 2:
                    assert bool(len(protos)) == (cfg.strategy == "fedpr")
                new_params, protos, record = run_round(new_params, protos, order, cfg, t, train, test)
                records.append(record)
            arrays = (new_params.vector, protos.classes, protos.vectors, protos.contributors)
            outcomes.append(([a.tobytes() for a in arrays], records))
        assert outcomes[0] == outcomes[1], cfg.strategy


def test_round_train_loss_is_weighted_client_mean():
    cfg = small_cfg()
    train, test, shards, params, clients = make_world(cfg)
    _, _, record = run_round(params, GlobalPrototypeSet.empty(), clients, cfg, 1, train, test)
    losses, weights = [], []
    for shard in shards:
        if not len(shard):
            continue
        state = ClientState(shard.client_id, shard)
        _, _, loss = client_local_update(state, params, GlobalPrototypeSet.empty(), cfg, train, 1)
        losses.append(loss)
        weights.append(len(shard))
    expect = sum((w / sum(weights)) * l for w, l in zip(weights, losses))
    assert abs(record.mean_train_loss - expect) <= 1e-12


def test_round_skips_empty_clients():
    cfg = small_cfg()
    train, test, shards, params, _ = make_world(cfg)
    with_empty = [ClientState(s.client_id, s) for s in shards]
    with_empty.append(ClientState(99, ClientShard(99, [])))
    new_a, _, rec_a = run_round(params, GlobalPrototypeSet.empty(), with_empty, cfg, 1, train, test)
    without = [ClientState(s.client_id, s) for s in shards]
    new_b, _, rec_b = run_round(params, GlobalPrototypeSet.empty(), without, cfg, 1, train, test)
    assert params_equal(new_a, new_b)
    assert rec_a.mean_train_loss == rec_b.mean_train_loss


def test_round_with_no_data_anywhere_rejected():
    cfg = small_cfg()
    train, test, _, params, _ = make_world(cfg)
    only_empty = [ClientState(0, ClientShard(0, []))]
    with pytest.raises(ValueError, match="no client"):
        run_round(params, GlobalPrototypeSet.empty(), only_empty, cfg, 1, train, test)


def test_round_all_clients_divisor_counts_only_clients_that_trained():
    # agg_denominator = all_clients divides each class sum by the number of
    # clients that trained. On this split 3 of the 20 shards are empty, so
    # the divisor is 17, not 20.
    cfg = small_cfg(
        num_clients=20, dirichlet_alpha=0.05, subsample_n=200, synth_classes=10, synth_per_class=250,
        agg_denominator="all_clients",
    )
    train, test, shards, params, clients = make_world(cfg)
    active = [state for state in clients if len(state.shard)]
    assert len(active) == 17
    _, protos, _ = run_round(params, GlobalPrototypeSet.empty(), clients, cfg, 1, train, test)

    sums = {}
    for state in active:
        _, local, _ = client_local_update(state, params, GlobalPrototypeSet.empty(), cfg, train, 1)
        for c, v in zip(local.classes.tolist(), local.vectors):
            sums[c] = sums[c] + v if c in sums else v.copy()
    assert protos.classes.tolist() == sorted(sums)
    assert protos.vectors.tobytes() == np.stack([sums[c] / 17.0 for c in sorted(sums)]).tobytes()
    assert protos.vectors.tobytes() != np.stack([sums[c] / 20.0 for c in sorted(sums)]).tobytes()


# --- experiments ------------------------------------------------------------


def test_experiment_t1_yields_one_record():
    records = run_experiment(small_cfg(rounds=1))
    assert len(records) == 1
    assert records[0].round_index == 1


def test_experiment_repeat_identical():
    cfg = small_cfg(rounds=3)
    a = run_experiment(cfg)
    b = run_experiment(cfg)
    for x, y in zip(a, b):
        assert x.mean_train_loss == y.mean_train_loss
        assert x.test_accuracy_softmax == y.test_accuracy_softmax
        assert x.test_accuracy_prototype == y.test_accuracy_prototype


def test_fedavg_reduction_bit_identical_trajectories():
    for seed in (0, 1, 2):
        base = dict(eval_inference="softmax", master_seed=seed, rounds=3)
        rec_avg = run_experiment(small_cfg(strategy="fedavg", lam=0.0, **base))
        rec_pr0 = run_experiment(small_cfg(strategy="fedpr", lam=0.0, **base))
        for a, b in zip(rec_avg, rec_pr0):
            assert a.mean_train_loss == b.mean_train_loss
            assert a.test_accuracy_softmax == b.test_accuracy_softmax


def test_desk_scale_prototype_beats_fedavg_on_skewed_split():
    base = dict(
        rounds=20,
        num_clients=4,
        dirichlet_alpha=0.1,
        master_seed=3,
        subsample_n=160,
        synth_per_class=40,
        synth_test_per_class=25,
        synth_spread=0.15,
    )
    rec_pr = run_experiment(small_cfg(strategy="fedpr", lam=1.0, **base))
    rec_avg = run_experiment(small_cfg(strategy="fedavg", lam=0.0, eval_inference="softmax", **base))
    assert rec_pr[-1].test_accuracy_prototype >= rec_avg[-1].test_accuracy_softmax


def test_accuracies_within_unit_interval():
    for record in run_experiment(small_cfg(rounds=2)):
        assert 0.0 <= record.test_accuracy_softmax <= 1.0
        assert 0.0 <= record.test_accuracy_prototype <= 1.0


def test_run_experiment_twice_gives_equal_records():
    # records hold no timings, so two runs compare whole
    assert run_experiment(small_cfg(rounds=2)) == run_experiment(small_cfg(rounds=2))


def test_progress_gets_each_record_and_its_seconds():
    seen = []
    records = run_experiment(small_cfg(rounds=2), progress=lambda r, s: seen.append((r, s)))
    assert [r for r, _ in seen] == records
    assert all(s >= 0 for _, s in seen)


def test_cnn_on_synthetic_requires_image_geometry():
    cfg = small_cfg(model="cnn4", synth_dim=16)
    with pytest.raises(ConfigError, match="cnn4"):
        run_experiment(cfg)


def test_cnn_end_to_end_on_flat_784_blobs():
    cfg = small_cfg(
        model="cnn4",
        rounds=1,
        num_clients=2,
        synth_classes=3,
        synth_dim=784,
        synth_per_class=12,
        synth_test_per_class=4,
        subsample_n=24,
        dirichlet_alpha=1.0,
    )
    records = run_experiment(cfg)
    assert len(records) == 1
    assert 0.0 <= records[0].test_accuracy_softmax <= 1.0


# --- config validation ------------------------------------------------------


@pytest.mark.parametrize(
    "overrides,field",
    [
        (dict(num_clients=0), "num_clients"),
        (dict(rounds=0), "rounds"),
        (dict(local_epochs=0), "local_epochs"),
        (dict(batch_size=0), "batch_size"),
        (dict(learning_rate=0.0), "learning_rate"),
        (dict(momentum=1.0), "momentum"),
        (dict(dirichlet_alpha=0.0), "dirichlet_alpha"),
        (dict(lam=-0.5), "lambda"),
        (dict(strategy="fedprox"), "strategy"),
        (dict(model="resnet"), "model"),
        (dict(dataset="cifar"), "dataset"),
        (dict(eval_inference="top5"), "eval_inference"),
        (dict(agg_denominator="median"), "agg_denominator"),
        (dict(proto_loss_form="cubed"), "proto_loss_form"),
        (dict(master_seed=-1), "seed"),
        (dict(strategy="fedavg", lam=1.0, eval_inference="softmax"), "lambda"),
        (dict(strategy="fedavg", lam=0.0, eval_inference="both"), "eval_inference"),
    ],
)
def test_config_validation_names_offending_field(overrides, field):
    with pytest.raises(ConfigError, match=field):
        small_cfg(**overrides).validate()


def test_client_rng_streams_differ_across_clients_and_rounds():
    draws = {
        (c, t): client_rng(7, c, t).random(4).tolist() for c in range(3) for t in range(1, 4)
    }
    values = list(draws.values())
    assert all(values[i] != values[j] for i in range(len(values)) for j in range(i + 1, len(values)))
