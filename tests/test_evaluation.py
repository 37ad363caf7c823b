import numpy as np
import pytest

from fedpr.data import Dataset, blob_anchors, synthetic_blobs
from fedpr.errors import DimensionError, EmptyPrototypesError
from fedpr.evaluation import _nearest_class, evaluate_accuracy, last_k_mean, tally_predictions
from fedpr.federation import RoundRecord
from fedpr.nn import LayerParams, ModelParams
from fedpr.prototypes import GlobalPrototypeSet


def passthrough_model(dim):
    """Logits (and embedding) equal the raw input."""
    return ModelParams([LayerParams("id", "dense", np.eye(dim), np.zeros(dim))], 1)


def accuracy(model, images, labels, num_classes, protos=None):
    """Softmax accuracy, or prototype accuracy when protos are given; 1.0
    exactly when every prediction equals its label."""
    ds = Dataset(np.asarray(images, dtype=np.float64), labels, num_classes)
    if protos is None:
        return evaluate_accuracy(model, None, ds, mode="softmax").accuracy_softmax
    return evaluate_accuracy(model, protos, ds, mode="prototype").accuracy_prototype


# --- softmax path -----------------------------------------------------------


def test_softmax_argmax_basic():
    x = [[0.1, 0.9, 0.3]]
    assert accuracy(passthrough_model(3), x, [1], 3) == 1.0
    assert accuracy(passthrough_model(3), x, [2], 3) == 0.0


def test_softmax_tie_breaks_to_lowest_class():
    assert accuracy(passthrough_model(4), np.zeros((2, 4)), [0, 0], 4) == 1.0


def test_softmax_matches_linear_scan():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(20, 6))
    scan = []
    for row in x:
        best = 0
        for j in range(1, 6):
            if row[j] > row[best]:
                best = j
        scan.append(best)
    assert accuracy(passthrough_model(6), x, scan, 6) == 1.0


# --- prototype path ---------------------------------------------------------


def test_exact_prototype_match_wins():
    protos = GlobalPrototypeSet.from_vectors({1: [5.0, 5.0], 3: [1.0, -1.0], 4: [9.0, 9.0]})
    assert accuracy(passthrough_model(2), [[1.0, -1.0]], [3], 5, protos) == 1.0


def test_single_prototype_forces_prediction():
    # classes 0-6 and 8 have no prototype and are never predicted
    protos = GlobalPrototypeSet.from_vectors({7: [0.0, 0.0]})
    x = np.random.default_rng(1).normal(size=(5, 2))
    assert accuracy(passthrough_model(2), x, [7] * 5, 9, protos) == 1.0


def test_prototype_tie_breaks_to_lowest_class():
    protos = GlobalPrototypeSet.from_vectors({2: [1.0, 0.0], 5: [1.0, 0.0]})
    assert accuracy(passthrough_model(2), [[0.0, 0.0]], [2], 6, protos) == 1.0


def test_blob_anchors_classify_blobs_perfectly():
    ds = synthetic_blobs(4, 8, per_class=25, spread=0.01, seed=2)
    anchors = blob_anchors(4, 8)
    protos = GlobalPrototypeSet.from_vectors({c: anchors[c] for c in range(4)})
    assert accuracy(passthrough_model(8), ds.images, ds.labels, 4, protos) == 1.0


def test_empty_prototypes_rejected():
    with pytest.raises(EmptyPrototypesError):
        accuracy(passthrough_model(2), np.zeros((1, 2)), [0], 2, GlobalPrototypeSet.empty())


def test_prototype_dimension_mismatch():
    protos = GlobalPrototypeSet.from_vectors({0: [1.0, 2.0, 3.0]})
    with pytest.raises(DimensionError, match="dimension"):
        accuracy(passthrough_model(2), np.zeros((1, 2)), [0], 2, protos)


def test_prototype_of_a_class_outside_the_dataset_is_predicted_then_rejected():
    # Unlike the loss, inference keeps every prototype; scoring then
    # rejects a predicted class outside [0, num_classes).
    ds = Dataset(np.array([[0.0, 0.0], [5.0, 5.0], [-5.0, 0.0]]), np.array([0, 1, 1]), 2)
    protos = GlobalPrototypeSet.from_vectors({-1: [-5.0, 0.0], 0: [0.0, 0.0], 7: [5.0, 5.0]})
    assert _nearest_class(ds.images, protos.classes, protos.vectors).tolist() == [0, 7, -1]
    with pytest.raises(DimensionError, match="prediction values outside"):
        evaluate_accuracy(passthrough_model(2), protos, ds, mode="prototype")


def test_scaling_distances_keeps_predictions():
    rng = np.random.default_rng(3)
    vectors = {c: rng.normal(size=4) for c in range(3)}
    x = rng.normal(size=(10, 4))
    protos = GlobalPrototypeSet.from_vectors(vectors)
    base = _nearest_class(x, protos.classes, protos.vectors)
    # scaling every embedding/prototype by the same positive constant
    # scales all distances by its square and keeps every argmin
    scaled_model = ModelParams([LayerParams("id", "dense", 3.0 * np.eye(4), np.zeros(4))], 1)
    scaled_protos = GlobalPrototypeSet.from_vectors({c: 3.0 * v for c, v in vectors.items()})
    assert accuracy(scaled_model, x, base, 3, scaled_protos) == 1.0


# --- accuracy bookkeeping ---------------------------------------------------


def test_tally_scripted_predictor_93_of_100():
    labels = np.random.default_rng(4).integers(0, 5, size=100)
    preds = labels.copy()
    wrong = [2, 11, 19, 40, 41, 77, 93]
    for i in wrong:
        preds[i] = (labels[i] + 1) % 5
    assert tally_predictions(preds, labels, 5) == 93


def test_tally_always_correct_predictor():
    labels = np.arange(10) % 3
    assert tally_predictions(labels, labels, 3) == 10


def test_flipping_one_prediction_costs_one_over_n():
    labels = np.zeros(25, dtype=np.int64)
    preds = labels.copy()
    base = tally_predictions(preds, labels, 2)
    preds[13] = 1
    flipped = tally_predictions(preds, labels, 2)
    assert base / 25 - flipped / 25 == pytest.approx(1 / 25)


def test_evaluate_perfect_on_separable_blobs():
    ds = synthetic_blobs(3, 6, per_class=20, spread=0.005, seed=5)
    anchors = blob_anchors(3, 6)
    protos = GlobalPrototypeSet.from_vectors({c: anchors[c] for c in range(3)})
    report = evaluate_accuracy(passthrough_model(6), protos, ds, mode="prototype")
    assert report.accuracy_prototype == 1.0
    assert report.accuracy_softmax is None


def test_evaluate_single_class_testset_with_forced_predictor():
    ds = Dataset(np.random.default_rng(6).normal(size=(8, 3)), np.full(8, 2), 4)
    protos = GlobalPrototypeSet.from_vectors({2: [0.0, 0.0, 0.0]})
    report = evaluate_accuracy(passthrough_model(3), protos, ds, mode="prototype")
    assert report.accuracy_prototype == 1.0


def anchor_head_model(num_classes, dim):
    """Embedding = input; logits = dot products against the class anchors."""
    return ModelParams(
        [
            LayerParams("fe", "dense", np.eye(dim), np.zeros(dim)),
            LayerParams("fd", "dense", blob_anchors(num_classes, dim), np.zeros(num_classes)),
        ],
        1,
    )


def test_evaluate_both_modes_equals_each_mode_alone():
    ds = synthetic_blobs(3, 5, per_class=10, spread=0.2, seed=7)
    anchors = blob_anchors(3, 5)
    protos = GlobalPrototypeSet.from_vectors({c: anchors[c] for c in range(3)})
    model = anchor_head_model(3, 5)
    report = evaluate_accuracy(model, protos, ds, mode="both", chunk=7)
    assert report.accuracy_softmax == evaluate_accuracy(model, None, ds, mode="softmax").accuracy_softmax
    assert report.accuracy_prototype == evaluate_accuracy(model, protos, ds, mode="prototype").accuracy_prototype
    assert 0.0 <= report.accuracy_softmax <= 1.0
    assert 0.0 <= report.accuracy_prototype <= 1.0


def test_evaluate_invalid_mode_and_empty_testset():
    ds = Dataset(np.zeros((2, 3)), np.zeros(2, dtype=np.int64), 1)
    with pytest.raises(ValueError, match="mode"):
        evaluate_accuracy(passthrough_model(3), None, ds, mode="top5")
    empty = Dataset(np.zeros((0, 3)), np.zeros(0, dtype=np.int64), 1)
    with pytest.raises(ValueError, match="empty"):
        evaluate_accuracy(passthrough_model(3), None, empty, mode="softmax")


@pytest.mark.parametrize("chunk", [0, -1])
def test_evaluate_rejects_chunk_below_one(chunk):
    ds = Dataset(np.zeros((2, 3)), np.zeros(2, dtype=np.int64), 1)
    with pytest.raises(ValueError, match=f"chunk must be >= 1, got {chunk}"):
        evaluate_accuracy(passthrough_model(3), None, ds, mode="softmax", chunk=chunk)


def test_evaluate_model_class_mismatch_is_structured_error():
    # 5 logits against a 3-class dataset must not crash with a raw index error
    ds = synthetic_blobs(3, 5, per_class=4, spread=0.2, seed=9)
    with pytest.raises(DimensionError, match="output"):
        evaluate_accuracy(passthrough_model(5), None, ds, mode="softmax")


def test_evaluate_chunking_does_not_change_counts():
    ds = synthetic_blobs(3, 5, per_class=11, spread=0.3, seed=8)
    a = evaluate_accuracy(anchor_head_model(3, 5), None, ds, mode="softmax", chunk=4)
    b = evaluate_accuracy(anchor_head_model(3, 5), None, ds, mode="softmax", chunk=512)
    assert a == b


# --- last-k summary ---------------------------------------------------------


def record(t, acc):
    return RoundRecord(t, 0.1, acc, None)


def test_last_k_mean_k1_is_final_value():
    records = [record(t, 0.5 + 0.01 * t) for t in range(1, 6)]
    assert last_k_mean(records, 1, "test_accuracy_softmax") == pytest.approx(0.55)


def test_last_k_mean_constant_sequence():
    records = [record(t, 0.75) for t in range(1, 21)]
    assert last_k_mean(records, 10, "test_accuracy_softmax") == pytest.approx(0.75)


def test_last_k_mean_hand_value():
    accs = [0.90, 0.91, 0.92, 0.93, 0.94, 0.95, 0.96, 0.97, 0.98, 0.99]
    records = [record(t + 1, a) for t, a in enumerate(accs)]
    assert last_k_mean(records, 10, "test_accuracy_softmax") == pytest.approx(0.945)


def test_last_k_mean_k_too_large():
    with pytest.raises(ValueError, match="out of range"):
        last_k_mean([record(1, 0.5)], 2, "test_accuracy_softmax")


def test_last_k_mean_k_must_be_an_integer():
    with pytest.raises(ValueError, match=r"^k must be an integer, got 1\.5$"):
        last_k_mean([record(1, 0.5), record(2, 0.6)], 1.5, "test_accuracy_softmax")


def test_last_k_mean_absent_field_rejected():
    records = [record(1, 0.5), record(2, 0.6)]
    with pytest.raises(ValueError, match="absent"):
        last_k_mean(records, 2, "test_accuracy_prototype")
