import json

import numpy as np
import pytest

import frozen_prototypes
from fedpr import prototypes
from fedpr.data import ClientShard, Dataset
from fedpr.errors import DataFormatError, DimensionError
from fedpr.evaluation import _nearest_class
from fedpr.nn import LayerParams, ModelParams, build_mlp2, model_forward
from fedpr.prototypes import (
    GlobalPrototypeSet,
    LocalPrototypes,
    aggregate_global_prototypes,
    compute_local_prototypes,
)


def identity_extractor(dim, num_classes=2):
    rng = np.random.default_rng(100)
    return ModelParams(
        [
            LayerParams("fe", "dense", np.eye(dim), np.zeros(dim)),
            LayerParams("fd", "dense", rng.normal(size=(num_classes, dim)), np.zeros(num_classes)),
        ],
        1,
    )


def local(classes, vectors, support):
    return LocalPrototypes(
        np.array(classes, dtype=np.int64), np.array(vectors, dtype=np.float64), np.array(support, dtype=np.int64)
    )


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# --- local prototypes -------------------------------------------------------


def test_single_sample_prototype_is_its_embedding():
    params = identity_extractor(3)
    ds = Dataset(np.array([[0.5, -1.0, 2.0]]), np.array([2]), 3)
    protos = compute_local_prototypes(params, ds, ClientShard(0, [0]))
    assert protos.classes.tolist() == [2] and protos.support.tolist() == [1]
    assert same_bits(protos.vectors, ds.images[:1])


def test_opposite_embeddings_cancel():
    params = identity_extractor(4)
    x = np.array([1.0, -2.0, 3.0, 0.5])
    ds = Dataset(np.stack([x, -x]), np.array([0, 0]), 1)
    protos = compute_local_prototypes(params, ds, ClientShard(0, [0, 1]))
    assert np.array_equal(protos.vectors, np.zeros((1, 4)))
    assert protos.support.tolist() == [2]


def test_local_prototypes_are_int64_float64_int64_arrays():
    rng = np.random.default_rng(103)
    ds = Dataset(rng.normal(size=(7, 6)), np.array([4, 1, 4, 4, 1, 9, 1], dtype=np.int32), 10)
    protos = compute_local_prototypes(build_mlp2(rng, 6, 10, hidden=5), ds, ClientShard(0, np.arange(7)))
    assert protos.classes.dtype == np.int64 and protos.classes.tolist() == [1, 4, 9]
    assert protos.vectors.dtype == np.float64 and protos.vectors.shape == (3, 5)
    assert protos.support.dtype == np.int64 and protos.support.tolist() == [3, 3, 1]


def test_local_prototypes_match_bruteforce_mean():
    rng = np.random.default_rng(101)
    params = build_mlp2(rng, 6, 2, hidden=7)
    images = rng.normal(size=(5, 6))
    labels = np.array([0, 1, 0, 1, 0])
    ds = Dataset(images, labels, 2)
    protos = compute_local_prototypes(params, ds, ClientShard(0, np.arange(5)))
    emb, _ = model_forward(params, images)
    for cls, vector, support in zip(*protos):
        expect = emb[labels == cls].sum(axis=0) / support
        assert np.abs(vector - expect).max() <= 1e-12


def test_prototypes_recombine_across_disjoint_split():
    rng = np.random.default_rng(102)
    params = build_mlp2(rng, 5, 3, hidden=6)
    images = rng.normal(size=(12, 5))
    labels = rng.integers(0, 3, size=12)
    ds = Dataset(images, labels, 3)

    def by_class(indices):
        protos = compute_local_prototypes(params, ds, ClientShard(0, indices))
        return {int(c): (v, int(n)) for c, v, n in zip(*protos)}

    full, left, right = by_class(np.arange(12)), by_class(np.arange(6)), by_class(np.arange(6, 12))
    for cls, (vector, support) in full.items():
        num = np.zeros_like(vector)
        den = 0
        for part in (left, right):
            if cls in part:
                num += part[cls][1] * part[cls][0]
                den += part[cls][1]
        assert den == support
        assert np.abs(num / den - vector).max() <= 1e-10


def test_empty_shard_rejected():
    params = identity_extractor(2)
    ds = Dataset(np.zeros((3, 2)), np.zeros(3, dtype=np.int64), 1)
    with pytest.raises(ValueError, match="empty"):
        compute_local_prototypes(params, ds, ClientShard(4, []))


def test_prototype_support_validation():
    # A support below 1 is caught where hand-built sets come in.
    with pytest.raises(ValueError, match="support"):
        aggregate_global_prototypes([local([0], [np.zeros(3)], [0])])
    with pytest.raises(ValueError, match="support"):
        aggregate_global_prototypes([local([0, 1], [np.zeros(3), np.zeros(3)], [1, -2])])


# --- local prototypes against the frozen per-sample loop ------------------------


def assert_local_matches_frozen(params, dataset, shard):
    got = compute_local_prototypes(params, dataset, shard)
    want = frozen_prototypes.local_prototypes(params, dataset, shard)
    assert same_bits(got.classes, np.array([c for c, _, _ in want], dtype=np.int64))
    assert same_bits(got.support, np.array([n for _, _, n in want], dtype=np.int64))
    assert same_bits(got.vectors, np.stack([v for _, v, _ in want]))


@pytest.mark.parametrize("n", [1, 255, 257, 600])
def test_local_prototypes_match_frozen_loop_bitwise(n):
    # 257 and 600 samples cross the 256-sample forward chunk.
    rng = np.random.default_rng(110 + n)
    params = build_mlp2(rng, 9, 5, hidden=12)
    dataset = Dataset(rng.normal(size=(n + 40, 9)) * 10.0 ** rng.integers(-3, 4, size=(n + 40, 1)),
                      rng.integers(0, 5, size=n + 40), 5)
    assert_local_matches_frozen(params, dataset, ClientShard(0, rng.permutation(n + 40)[:n]))


def identity_forward(params, x):
    return x.copy(), None


@pytest.mark.parametrize("dim", [1, 3])
@pytest.mark.parametrize("n", [1, 17, 300])
def test_local_prototypes_match_frozen_loop_on_signed_zeros(n, dim, monkeypatch):
    # The identity extractor (no ReLU) feeds the sums -0.0 and +0.0: a
    # class whose column is all -0.0 keeps -0.0 only if summed in order
    # from its first embedding.
    monkeypatch.setattr(prototypes, "model_forward", identity_forward)
    rng = np.random.default_rng(120 + n + dim)
    images = rng.choice([-0.0, 0.0, -1.5, 2.25, 1e-300, -3e10], size=(n, dim))
    labels = rng.integers(0, 4, size=n)
    images[labels == 2] = -0.0
    images[labels == 3, 0] = -0.0
    assert_local_matches_frozen(None, Dataset(images, labels, 4), ClientShard(0, np.arange(n)))


@pytest.mark.parametrize("n", [2, 9, 33, 257])
def test_local_prototypes_match_frozen_loop_in_one_dimension(n, monkeypatch):
    # An [n, 1] column is where np.sum's pairwise blocks differ from a
    # running sum.
    monkeypatch.setattr(prototypes, "model_forward", identity_forward)
    rng = np.random.default_rng(130 + n)
    images = rng.normal(size=(n, 1)) * 10.0 ** rng.integers(-8, 9, size=(n, 1))
    labels = rng.integers(0, 2, size=n)
    assert_local_matches_frozen(None, Dataset(images, labels, 2), ClientShard(0, np.arange(n)))


def test_local_prototypes_match_frozen_loop_with_single_sample_classes():
    rng = np.random.default_rng(140)
    params = build_mlp2(rng, 4, 8, hidden=6)
    labels = np.array([7, 0, 3, 3, 5, 3, 1])  # 7, 0, 5 and 1 have one sample each
    dataset = Dataset(rng.normal(size=(7, 4)), labels, 8)
    assert_local_matches_frozen(params, dataset, ClientShard(0, np.arange(7)))
    got = compute_local_prototypes(params, dataset, ClientShard(0, np.arange(7)))
    emb, _ = model_forward(params, dataset.images)
    assert same_bits(got.vectors[got.classes.tolist().index(7)], emb[0])


# --- aggregation ------------------------------------------------------------


def test_single_client_aggregation_is_identity():
    protos = local([0, 2], [[1.0, 2.0], [0.0, -1.0]], [3, 1])
    agg = aggregate_global_prototypes([protos])
    assert agg.classes.tolist() == [0, 2]
    assert agg.vectors.tolist() == [[1.0, 2.0], [0.0, -1.0]]
    assert agg.contributors.tolist() == [1, 1]


def test_identical_vectors_average_to_themselves():
    v = np.array([0.3, -0.7, 1.1])
    clients = [local([1], [v], [2]) for _ in range(3)]
    agg = aggregate_global_prototypes(clients)
    assert np.allclose(agg.class_vectors()[1], v, atol=1e-15)
    assert agg.contributors.tolist() == [3]


def test_hand_mean_over_three_clients():
    clients = [
        local([4], [[1.0, 0.0]], [1]),
        local([4], [[0.0, 1.0]], [1]),
        local([4], [[1.0, 1.0]], [1]),
    ]
    agg = aggregate_global_prototypes(clients)
    assert np.allclose(agg.class_vectors()[4], [2 / 3, 2 / 3], atol=1e-15)
    assert agg.contributors.tolist() == [3]


def test_aggregate_mean_stays_in_coordinate_hull():
    rng = np.random.default_rng(104)
    vectors = [rng.normal(size=3) for _ in range(3)]
    clients = [local([0], [v], [1]) for v in vectors]
    agg = aggregate_global_prototypes(clients)
    stacked = np.stack(vectors)
    assert np.all(agg.class_vectors()[0] >= stacked.min(axis=0) - 1e-12)
    assert np.all(agg.class_vectors()[0] <= stacked.max(axis=0) + 1e-12)


def test_all_clients_denominator_literal_form():
    clients = [
        local([0], [[2.0, 2.0]], [1]),
        local([1], [[4.0, 0.0]], [1]),
    ]
    agg = aggregate_global_prototypes(clients, denominator="all_clients")
    # class 0 reported by 1 of 2 clients: sum / N shrinks it
    assert agg.vectors.tolist() == [[1.0, 1.0], [2.0, 0.0]]


def test_support_weighted_mean():
    clients = [
        local([0], [[0.0]], [1]),
        local([0], [[4.0]], [3]),
    ]
    agg = aggregate_global_prototypes(clients, support_weighted=True)
    assert agg.class_vectors()[0][0] == pytest.approx(3.0, abs=1e-15)


def test_aggregation_dimension_mismatch():
    clients = [local([0], [np.zeros(3)], [1]), local([0], [np.zeros(4)], [1])]
    with pytest.raises(DimensionError, match="class 0 has dimension 4, expected 3"):
        aggregate_global_prototypes(clients)


def test_aggregation_rejects_unknown_denominator():
    with pytest.raises(ValueError, match="denominator"):
        aggregate_global_prototypes([], denominator="median")


@pytest.mark.parametrize("classes", [[2, 1], [1, 1]], ids=["unsorted", "duplicate"])
def test_aggregation_rejects_unsorted_or_duplicate_local_classes(classes):
    # A duplicate class would be folded once by the indexed add.
    with pytest.raises(ValueError, match="ascending and distinct"):
        aggregate_global_prototypes([local(classes, [[0.0], [1.0]], [1, 1])])


def test_aggregation_rejects_mismatched_local_array_lengths():
    with pytest.raises(DimensionError, match="2 prototype vectors"):
        aggregate_global_prototypes([local([0, 1], [[0.0], [1.0]], [1])])
    with pytest.raises(DimensionError, match="class 1 has shape"):
        aggregate_global_prototypes([LocalPrototypes(np.array([0, 1]), [[0.0, 1.0], [1.0]], np.array([1, 1]))])


def test_aggregation_of_no_clients_is_empty():
    agg = aggregate_global_prototypes([], round_index=3)
    assert len(agg) == 0 and agg.round_index == 3


# --- aggregation against the frozen three-dict fold -----------------------------


def as_tuples(protos: LocalPrototypes):
    return [(int(c), v.copy(), int(n)) for c, v, n in zip(*protos)]


def random_clients(rng, n_clients, dim, overlap):
    clients = []
    for i in range(n_clients):
        pool = np.arange(8) if overlap else np.arange(3 * i, 3 * i + 3)
        classes = np.sort(rng.choice(pool, size=int(rng.integers(1, 4)), replace=False))
        vectors = rng.normal(size=(len(classes), dim)) * 10.0 ** rng.integers(-6, 7, size=(len(classes), 1))
        vectors[rng.random(vectors.shape) < 0.2] = -0.0
        vectors[rng.random(vectors.shape) < 0.1] = 0.0
        clients.append(local(classes, vectors, rng.integers(1, 40, size=len(classes))))
    return clients


@pytest.mark.parametrize("support_weighted", [False, True])
@pytest.mark.parametrize("denominator", ["contributors", "all_clients"])
@pytest.mark.parametrize("overlap", [True, False], ids=["overlapping", "disjoint"])
def test_aggregation_matches_frozen_fold_bitwise(overlap, denominator, support_weighted):
    rng = np.random.default_rng([150, overlap, denominator == "all_clients", support_weighted])
    for trial in range(20):
        clients = random_clients(rng, int(rng.integers(1, 7)), int(rng.integers(1, 6)), overlap)
        got = aggregate_global_prototypes(
            clients, round_index=trial, denominator=denominator, support_weighted=support_weighted
        )
        classes, vectors, contributors = frozen_prototypes.aggregate(
            [as_tuples(p) for p in clients], denominator, support_weighted
        )
        assert same_bits(got.classes, np.array(classes, dtype=np.int64))
        assert same_bits(got.vectors, np.stack(vectors))
        assert same_bits(got.contributors, np.array(contributors, dtype=np.int64))
        assert got.round_index == trial


@pytest.mark.parametrize("denominator", ["contributors", "all_clients"])
def test_aggregation_counts_an_empty_client_set_like_the_frozen_fold(denominator):
    clients = random_clients(np.random.default_rng(160), 3, 4, True)
    clients.insert(1, local(np.zeros(0), np.zeros((0, 4)), np.zeros(0)))
    got = aggregate_global_prototypes(clients, denominator=denominator)
    classes, vectors, contributors = frozen_prototypes.aggregate([as_tuples(p) for p in clients], denominator, False)
    assert same_bits(got.classes, np.array(classes, dtype=np.int64))
    assert same_bits(got.vectors, np.stack(vectors))
    assert same_bits(got.contributors, np.array(contributors, dtype=np.int64))


# --- the set's arrays -----------------------------------------------------


def test_squared_and_unsquared_share_argmin():
    # Inference ranks classes by squared distance; the plain Euclidean
    # distance, which the unsquared pull uses, ranks them the same way.
    rng = np.random.default_rng(106)
    for _ in range(20):
        emb = rng.normal(size=(1, 5))
        protos = GlobalPrototypeSet.from_vectors({c: rng.normal(size=5) for c in range(4)})
        unsquared = np.sqrt(((emb - protos.vectors) ** 2).sum(axis=1))
        nearest = _nearest_class(emb, protos.classes, protos.vectors)[0]
        assert nearest == protos.classes[np.argmin(unsquared)]


def test_set_holds_sorted_class_arrays():
    protos = GlobalPrototypeSet.from_vectors({3: [1.0, 2.0], -1: [3.0, 4.0], 0: [5.0, 6.0]})
    assert protos.classes.dtype == np.int64 and protos.classes.tolist() == [-1, 0, 3]
    assert protos.vectors.dtype == np.float64
    assert protos.vectors.tolist() == [[3.0, 4.0], [5.0, 6.0], [1.0, 2.0]]
    assert protos.contributors.dtype == np.int64 and protos.contributors.tolist() == [1, 1, 1]
    assert len(protos) == 3
    assert list(protos.class_vectors()) == [-1, 0, 3]
    assert protos.class_vectors()[0].tolist() == [5.0, 6.0]


def test_set_rejects_a_vector_of_the_wrong_length():
    with pytest.raises(DimensionError, match="class 2 has shape"):
        GlobalPrototypeSet.from_vectors({1: [1.0], 2: [1.0, 2.0]})
    with pytest.raises(DimensionError, match="class 5 has shape"):
        GlobalPrototypeSet([4, 5], [[1.0, 2.0], [[1.0, 2.0]]], [1, 1])


@pytest.mark.parametrize("classes", [[2, 1], [1, 1]], ids=["unsorted", "duplicate"])
def test_set_rejects_unsorted_or_duplicate_classes(classes):
    with pytest.raises(ValueError, match="ascending and distinct"):
        GlobalPrototypeSet(classes, [[0.0], [1.0]], [1, 1])


def test_set_rejects_a_contributor_count_below_one():
    with pytest.raises(ValueError, match="contributor counts must be >= 1"):
        GlobalPrototypeSet([0, 1], [[0.0], [1.0]], [1, 0])


def test_set_rejects_mismatched_array_lengths():
    with pytest.raises(DimensionError, match="2 prototype vectors"):
        GlobalPrototypeSet([0, 1], [[0.0], [1.0]], [1])
    with pytest.raises(DimensionError, match="1 prototype vectors"):
        GlobalPrototypeSet([0, 1], [[0.0]], [1, 1])


def matrices():
    rng = np.random.default_rng(170)
    base = rng.normal(size=(6, 10))
    base[rng.random(base.shape) < 0.2] = -0.0
    yield base
    yield np.asfortranarray(base)
    yield base[::2, ::3]
    yield np.zeros((3, 0))
    yield np.zeros((0, 4))


@pytest.mark.parametrize("matrix", list(matrices()), ids=["c", "fortran", "strided", "no-columns", "no-rows"])
def test_a_float64_matrix_and_its_rows_give_the_same_bytes(matrix):
    classes, counts = np.arange(len(matrix)) * 2, np.arange(len(matrix)) + 1
    whole = prototypes._prototype_arrays(classes, matrix, counts, "support")
    by_row = prototypes._prototype_arrays(classes, list(matrix), counts, "support")
    for a, b in zip(whole, by_row):
        assert same_bits(a, b) and a.flags.c_contiguous and b.flags.c_contiguous
    assert not np.shares_memory(whole[1], matrix)


@pytest.mark.parametrize(
    "classes,counts",
    [([0, 1], [1]), ([0, 1, 2], [1, 1, 1]), ([1, 0], [1, 1]), ([0, 1], [1, 0])],
    ids=["counts", "classes", "order", "count-below-one"],
)
def test_a_float64_matrix_and_its_rows_fail_alike(classes, counts):
    matrix = np.ones((2, 3))
    messages = []
    for vectors in (matrix, list(matrix)):
        with pytest.raises((DimensionError, ValueError)) as info:
            prototypes._prototype_arrays(classes, vectors, counts, "support")
        messages.append((type(info.value), str(info.value)))
    assert messages[0] == messages[1]


# --- serialization ----------------------------------------------------------


def test_global_set_json_roundtrip():
    entries = aggregate_global_prototypes(
        [local([0, 3], [[0.25, -1.5], [1.0, 0.0]], [2, 1])],
        round_index=7,
    )
    payload = entries.to_json_dict()
    assert payload["round"] == 7
    assert set(payload["classes"]) == {"0", "3"}
    assert payload["classes"]["0"] == {"vector": [0.25, -1.5], "contributors": 1}
    restored = GlobalPrototypeSet.from_json(entries.to_json())
    assert restored.round_index == 7
    assert restored.classes.tobytes() == entries.classes.tobytes()
    assert restored.vectors.tobytes() == entries.vectors.tobytes()
    assert restored.contributors.tobytes() == entries.contributors.tobytes()


def test_json_string_is_pinned():
    protos = aggregate_global_prototypes(
        [local([2, 10], [[0.1, -2.0], [1.0, 0.5]], [3, 1]), local([2], [[0.3, 0.0]], [1])],
        round_index=4,
    )
    assert protos.to_json() == (
        '{"classes": {"10": {"contributors": 1, "vector": [1.0, 0.5]}, '
        '"2": {"contributors": 2, "vector": [0.2, -1.0]}}, "round": 4}'
    )
    assert GlobalPrototypeSet.from_json(protos.to_json()).to_json() == protos.to_json()


def test_json_with_a_vector_of_the_wrong_length_fails_at_load():
    text = (
        '{"classes": {"0": {"contributors": 1, "vector": [1.0]}, '
        '"1": {"contributors": 1, "vector": [1.0, 2.0]}}, "round": 1}'
    )
    with pytest.raises(DimensionError, match="class 1 has shape"):
        GlobalPrototypeSet.from_json(text)


@pytest.mark.parametrize(
    "payload, message",
    [
        ({}, "the top level: 'classes' must be dict, got None"),
        ([1], "the top level must be an object, got list"),
        ({"classes": {}}, "the top level: 'round' must be int, got None"),
        ({"classes": [], "round": 1}, "'classes' must be dict, got \\[\\]"),
        ({"classes": {}, "round": "1"}, "'round' must be int, got '1'"),
        ({"classes": {"a": {"vector": [1.0], "contributors": 1}}, "round": 1}, "class key 'a' is not an integer"),
        ({"classes": {"-": {"vector": [1.0], "contributors": 1}}, "round": 1}, "class key '-' is not an integer"),
        ({"classes": {"3": {"vector": [1.0]}}, "round": 1}, "class 3: 'contributors' must be int, got None"),
        ({"classes": {"3": {"vector": [1.0], "contributors": 0}}, "round": 1}, "class 3: contributors must be >= 1"),
        ({"classes": {"3": {"vector": [1.0], "contributors": True}}, "round": 1}, "class 3: 'contributors'"),
        ({"classes": {"3": {"vector": [1.0], "contributors": 1.0}}, "round": 1}, "class 3: 'contributors'"),
        ({"classes": {"3": {"contributors": 1}}, "round": 1}, "class 3: 'vector' must be list, got None"),
        ({"classes": {"3": [1.0]}, "round": 1}, "class 3 must be an object, got list"),
        ({"classes": {"3": {"vector": [None, 1.0], "contributors": 1}}, "round": 1}, "'vector' must hold numbers"),
        ({"classes": {"3": {"vector": ["a"], "contributors": 1}}, "round": 1}, "'vector' must hold numbers"),
        ({"classes": {"3": {"vector": [True], "contributors": 1}}, "round": 1}, "'vector' must hold numbers"),
        ({"classes": {"3": {"vector": [[1.0]], "contributors": 1}}, "round": 1}, "'vector' must hold numbers"),
    ],
)
def test_json_with_a_missing_or_malformed_field_fails_by_name(payload, message):
    with pytest.raises(DataFormatError, match=message):
        GlobalPrototypeSet.from_json(json.dumps(payload))


def test_json_reads_negative_class_keys():
    protos = GlobalPrototypeSet.from_json(
        '{"classes": {"-2": {"contributors": 1, "vector": [1.0]}, "1": {"contributors": 2, "vector": [0.5]}}, '
        '"round": 0}'
    )
    assert protos.classes.tolist() == [-2, 1] and protos.contributors.tolist() == [1, 2]


def test_empty_set_basics():
    empty = GlobalPrototypeSet.empty(0)
    assert len(empty) == 0
    assert empty.classes.shape == (0,) and empty.contributors.shape == (0,)
    assert empty.class_vectors() == {}
