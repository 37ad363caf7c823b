"""Dual-path inference (decision head vs nearest prototype) and accuracy
bookkeeping, including the last-k-round summary statistic."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import DimensionError, EmptyPrototypesError
from .nn import ModelParams, model_forward
from .prototypes import GlobalPrototypeSet

_EVAL_CHUNK = 512

EVAL_MODES = ("softmax", "prototype", "both")


@dataclass
class EvalReport:
    correct_softmax: int | None
    correct_prototype: int | None
    accuracy_softmax: float | None
    accuracy_prototype: float | None
    confusion_softmax: np.ndarray | None
    confusion_prototype: np.ndarray | None


def predict_softmax(params: ModelParams, inputs: np.ndarray) -> np.ndarray:
    """Argmax over decision-head logits; ties go to the lowest class index."""
    _, logits = model_forward(params, inputs)
    return np.argmax(logits, axis=1)


def _nearest_class(emb: np.ndarray, classes: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    if emb.shape[1] != matrix.shape[1]:
        raise DimensionError(
            f"embedding dimension {emb.shape[1]} does not match prototype "
            f"dimension {matrix.shape[1]}"
        )
    # Squared distances; argmin scans classes in ascending order.
    dists = ((emb[:, None, :] - matrix[None, :, :]) ** 2).sum(axis=2)
    return classes[np.argmin(dists, axis=1)]


def predict_nearest_prototype(
    params: ModelParams, protos: GlobalPrototypeSet, inputs: np.ndarray
) -> np.ndarray:
    """Class of the nearest global prototype to each sample's embedding.

    Ties go to the lowest class index; classes without a prototype are
    never predicted.
    """
    classes, matrix = protos.matrix()
    emb, _ = model_forward(params, inputs)
    return _nearest_class(emb, classes, matrix)


def tally_predictions(predictions: np.ndarray, labels: np.ndarray, num_classes: int):
    """Correct count plus a [true, predicted] confusion matrix."""
    predictions = np.asarray(predictions, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.int64)
    for name, values in (("prediction", predictions), ("label", labels)):
        if len(values) and (values.min() < 0 or values.max() >= num_classes):
            raise DimensionError(
                f"{name} values outside [0, {num_classes}); the model's output "
                f"classes do not match the dataset"
            )
    correct = int(np.sum(predictions == labels))
    confusion = np.zeros((num_classes, num_classes), dtype=np.int64)
    np.add.at(confusion, (labels, predictions), 1)
    return correct, confusion


def evaluate_accuracy(
    params: ModelParams,
    protos: GlobalPrototypeSet | None,
    testset: Dataset,
    mode: str = "both",
    chunk: int = _EVAL_CHUNK,
) -> EvalReport:
    """Fraction of correct predictions per requested inference path."""
    if mode not in EVAL_MODES:
        raise ValueError(f"mode must be one of {EVAL_MODES}, got {mode!r}")
    if not len(testset):
        raise ValueError("cannot evaluate on an empty test set")
    want_softmax = mode in ("softmax", "both")
    want_proto = mode in ("prototype", "both")
    if want_proto and (protos is None or not len(protos)):
        raise EmptyPrototypesError("prototype inference requested but no prototypes given")

    classes = matrix = None
    if want_proto:
        classes, matrix = protos.matrix()
    preds_softmax = [] if want_softmax else None
    preds_proto = [] if want_proto else None
    for start in range(0, len(testset), chunk):
        # one shared forward pass feeds both inference paths
        emb, logits = model_forward(params, testset.images[start : start + chunk])
        if want_softmax:
            preds_softmax.append(np.argmax(logits, axis=1))
        if want_proto:
            preds_proto.append(_nearest_class(emb, classes, matrix))

    def score(preds):
        if preds is None:
            return None, None, None
        correct, confusion = tally_predictions(np.concatenate(preds), testset.labels, testset.num_classes)
        return correct, correct / len(testset), confusion

    correct_s, acc_s, conf_s = score(preds_softmax)
    correct_p, acc_p, conf_p = score(preds_proto)
    return EvalReport(correct_s, correct_p, acc_s, acc_p, conf_s, conf_p)


def last_k_mean(records, k: int, field: str) -> float:
    """Arithmetic mean of one accuracy/loss field over the final k records."""
    if k < 1 or k > len(records):
        raise ValueError(f"k={k} out of range for {len(records)} records")
    values = []
    for record in records[-k:]:
        value = getattr(record, field)
        if value is None:
            raise ValueError(f"field {field!r} absent in round {record.round_index} record")
        values.append(value)
    return float(np.mean(values))
