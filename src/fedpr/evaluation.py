"""Dual-path inference (decision head vs nearest prototype) scored in one
chunked pass, and the last-k-round summary statistic."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset, _int64, _labels
from .errors import DimensionError, EmptyPrototypesError
from .nn import ModelParams, _fork_map, model_forward
from .prototypes import GlobalPrototypeSet

_EVAL_CHUNK = 512

EVAL_MODES = ("softmax", "prototype", "both")


@dataclass
class EvalReport:
    accuracy_softmax: float | None
    accuracy_prototype: float | None


def _nearest_class(emb: np.ndarray, classes: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    if emb.shape[1] != vectors.shape[1]:
        raise DimensionError(
            f"embedding dimension {emb.shape[1]} does not match prototype "
            f"dimension {vectors.shape[1]}"
        )
    # Squared distances; argmin scans classes in ascending order.
    dists = ((emb[:, None, :] - vectors[None, :, :]) ** 2).sum(axis=2)
    return classes[np.argmin(dists, axis=1)]


def tally_predictions(predictions: np.ndarray, labels: np.ndarray, num_classes: int) -> int:
    """Number of predictions equal to their label."""
    predictions = _int64(predictions, "predictions")
    labels = _labels(labels, num_classes)
    if len(predictions) and (predictions.min() < 0 or predictions.max() >= num_classes):
        raise DimensionError(f"prediction values outside [0, {num_classes}); "
                             "the model's output classes do not match the dataset")
    return int(np.sum(predictions == labels))


def evaluate_accuracy(
    params: ModelParams,
    protos: GlobalPrototypeSet | None,
    testset: Dataset,
    mode: str = "both",
    chunk: int = _EVAL_CHUNK,
) -> EvalReport:
    """Fraction of correct predictions per requested inference path.

    Softmax inference takes the argmax of the decision-head logits;
    prototype inference the class of the nearest global prototype to the
    embedding. Both break ties to the lowest class index, and a class
    without a prototype is never predicted.
    """
    if mode not in EVAL_MODES:
        raise ValueError(f"mode must be one of {EVAL_MODES}, got {mode!r}")
    if not len(testset):
        raise ValueError("cannot evaluate on an empty test set")
    if chunk < 1:
        raise ValueError(f"chunk must be >= 1, got {chunk}")
    want_softmax = mode in ("softmax", "both")
    want_proto = mode in ("prototype", "both")
    if want_proto and (protos is None or not len(protos)):
        raise EmptyPrototypesError("prototype inference requested but no prototypes given")

    def predict(start):
        # one shared forward pass feeds both inference paths
        emb, logits = model_forward(params, testset.images[start : start + chunk])
        return (
            np.argmax(logits, axis=1) if want_softmax else None,
            _nearest_class(emb, protos.classes, protos.vectors) if want_proto else None,
        )

    # Each chunk is a task of its own: its predictions do not depend on
    # which process runs it.
    starts = range(0, len(testset), chunk)
    preds = _fork_map(predict, starts, [min(chunk, len(testset) - start) for start in starts])

    def score(column: int, wanted: bool):
        if not wanted:
            return None
        predictions = np.concatenate([p[column] for p in preds])
        return tally_predictions(predictions, testset.labels, testset.num_classes) / len(testset)

    return EvalReport(score(0, want_softmax), score(1, want_proto))


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
