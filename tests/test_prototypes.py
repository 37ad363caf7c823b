import numpy as np
import pytest

from fedpr.data import ClientShard, Dataset
from fedpr.errors import DimensionError
from fedpr.evaluation import _nearest_class
from fedpr.nn import LayerParams, ModelParams, build_mlp2, model_forward
from fedpr.prototypes import (
    GlobalPrototypeSet,
    Prototype,
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


# --- local prototypes -------------------------------------------------------


def test_single_sample_prototype_is_its_embedding():
    params = identity_extractor(3)
    ds = Dataset(np.array([[0.5, -1.0, 2.0]]), np.array([2]), 3)
    protos = compute_local_prototypes(params, ds, ClientShard(0, [0]))
    assert len(protos) == 1
    assert protos[0].class_id == 2 and protos[0].support == 1
    assert np.array_equal(protos[0].vector, ds.images[0])


def test_opposite_embeddings_cancel():
    params = identity_extractor(4)
    x = np.array([1.0, -2.0, 3.0, 0.5])
    ds = Dataset(np.stack([x, -x]), np.array([0, 0]), 1)
    protos = compute_local_prototypes(params, ds, ClientShard(0, [0, 1]))
    assert np.array_equal(protos[0].vector, np.zeros(4))
    assert protos[0].support == 2


def test_local_prototypes_match_bruteforce_mean():
    rng = np.random.default_rng(101)
    params = build_mlp2(rng, 6, 2, hidden=7)
    images = rng.normal(size=(5, 6))
    labels = np.array([0, 1, 0, 1, 0])
    ds = Dataset(images, labels, 2)
    protos = compute_local_prototypes(params, ds, ClientShard(0, np.arange(5)))
    emb, _ = model_forward(params, images)
    for proto in protos:
        expect = emb[labels == proto.class_id].sum(axis=0) / proto.support
        assert np.abs(proto.vector - expect).max() <= 1e-12


def test_prototypes_recombine_across_disjoint_split():
    rng = np.random.default_rng(102)
    params = build_mlp2(rng, 5, 3, hidden=6)
    images = rng.normal(size=(12, 5))
    labels = rng.integers(0, 3, size=12)
    ds = Dataset(images, labels, 3)
    full = {p.class_id: p for p in compute_local_prototypes(params, ds, ClientShard(0, np.arange(12)))}
    left = {p.class_id: p for p in compute_local_prototypes(params, ds, ClientShard(0, np.arange(6)))}
    right = {p.class_id: p for p in compute_local_prototypes(params, ds, ClientShard(0, np.arange(6, 12)))}
    for cls, proto in full.items():
        num = np.zeros_like(proto.vector)
        den = 0
        for part in (left, right):
            if cls in part:
                num += part[cls].support * part[cls].vector
                den += part[cls].support
        assert den == proto.support
        assert np.abs(num / den - proto.vector).max() <= 1e-10


def test_empty_shard_rejected():
    params = identity_extractor(2)
    ds = Dataset(np.zeros((3, 2)), np.zeros(3, dtype=np.int64), 1)
    with pytest.raises(ValueError, match="empty"):
        compute_local_prototypes(params, ds, ClientShard(4, []))


def test_prototype_support_validation():
    with pytest.raises(ValueError, match="support"):
        Prototype(0, np.zeros(3), 0)


# --- aggregation ------------------------------------------------------------


def test_single_client_aggregation_is_identity():
    protos = [Prototype(0, np.array([1.0, 2.0]), 3), Prototype(2, np.array([0.0, -1.0]), 1)]
    agg = aggregate_global_prototypes([protos])
    assert agg.classes.tolist() == [0, 2]
    assert agg.vectors.tolist() == [[1.0, 2.0], [0.0, -1.0]]
    assert agg.contributors.tolist() == [1, 1]


def test_identical_vectors_average_to_themselves():
    v = np.array([0.3, -0.7, 1.1])
    clients = [[Prototype(1, v.copy(), 2)] for _ in range(3)]
    agg = aggregate_global_prototypes(clients)
    assert np.allclose(agg.class_vectors()[1], v, atol=1e-15)
    assert agg.contributors.tolist() == [3]


def test_hand_mean_over_three_clients():
    clients = [
        [Prototype(4, np.array([1.0, 0.0]), 1)],
        [Prototype(4, np.array([0.0, 1.0]), 1)],
        [Prototype(4, np.array([1.0, 1.0]), 1)],
    ]
    agg = aggregate_global_prototypes(clients)
    assert np.allclose(agg.class_vectors()[4], [2 / 3, 2 / 3], atol=1e-15)
    assert agg.contributors.tolist() == [3]


def test_aggregate_mean_stays_in_coordinate_hull():
    rng = np.random.default_rng(104)
    vectors = [rng.normal(size=3) for _ in range(3)]
    clients = [[Prototype(0, v, 1)] for v in vectors]
    agg = aggregate_global_prototypes(clients)
    stacked = np.stack(vectors)
    assert np.all(agg.class_vectors()[0] >= stacked.min(axis=0) - 1e-12)
    assert np.all(agg.class_vectors()[0] <= stacked.max(axis=0) + 1e-12)


def test_all_clients_denominator_literal_form():
    clients = [
        [Prototype(0, np.array([2.0, 2.0]), 1)],
        [Prototype(1, np.array([4.0, 0.0]), 1)],
    ]
    agg = aggregate_global_prototypes(clients, denominator="all_clients")
    # class 0 reported by 1 of 2 clients: sum / N shrinks it
    assert agg.vectors.tolist() == [[1.0, 1.0], [2.0, 0.0]]


def test_support_weighted_mean():
    clients = [
        [Prototype(0, np.array([0.0]), 1)],
        [Prototype(0, np.array([4.0]), 3)],
    ]
    agg = aggregate_global_prototypes(clients, support_weighted=True)
    assert agg.class_vectors()[0][0] == pytest.approx(3.0, abs=1e-15)


def test_aggregation_dimension_mismatch():
    clients = [[Prototype(0, np.zeros(3), 1)], [Prototype(0, np.zeros(4), 1)]]
    with pytest.raises(DimensionError):
        aggregate_global_prototypes(clients)


def test_aggregation_rejects_unknown_denominator():
    with pytest.raises(ValueError, match="denominator"):
        aggregate_global_prototypes([], denominator="median")


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


def test_set_rejects_mismatched_array_lengths():
    with pytest.raises(DimensionError, match="2 prototype vectors"):
        GlobalPrototypeSet([0, 1], [[0.0], [1.0]], [1])
    with pytest.raises(DimensionError, match="1 prototype vectors"):
        GlobalPrototypeSet([0, 1], [[0.0]], [1, 1])


# --- serialization ----------------------------------------------------------


def test_global_set_json_roundtrip():
    entries = aggregate_global_prototypes(
        [[Prototype(0, np.array([0.25, -1.5]), 2), Prototype(3, np.array([1.0, 0.0]), 1)]],
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
        [[Prototype(2, np.array([0.1, -2.0]), 3), Prototype(10, np.array([1.0, 0.5]), 1)],
         [Prototype(2, np.array([0.3, 0.0]), 1)]],
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


def test_empty_set_basics():
    empty = GlobalPrototypeSet.empty(0)
    assert len(empty) == 0
    assert empty.classes.shape == (0,) and empty.contributors.shape == (0,)
    assert empty.class_vectors() == {}
