"""Per-class embedding prototypes: local computation, global aggregation,
and the prototype set that the loss and inference read."""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .data import _BOOL, ClientShard, Dataset, _at_least, _int64, _one_of, _require, _shard_indices
from .errors import DataFormatError, DimensionError
from .nn import ModelParams, model_forward

_EVAL_CHUNK = 256
_DENOMINATOR = _one_of(("contributors", "all_clients"))
_SUPPORT_WEIGHTED = (_BOOL,)
_ROUND_INDEX = _at_least(0)


class LocalPrototypes(NamedTuple):
    """One client's per-class mean embeddings in the global set's form, with
    each class's sample count as its support."""

    classes: np.ndarray
    vectors: np.ndarray
    support: np.ndarray


@dataclass
class GlobalPrototypeSet:
    """Aggregated prototypes for one round, in the form the loss and
    inference read: ascending distinct class ids, their vectors as the
    rows of a [k, d] matrix, and each class's contributor count. The
    arrays are checked once, here, by _prototype_arrays; round_index is
    the round that made the set, 0 before the first."""

    classes: np.ndarray
    vectors: np.ndarray
    contributors: np.ndarray
    round_index: int = 0

    def __post_init__(self):
        _require("round_index", self.round_index, _ROUND_INDEX)
        self.classes, self.vectors, self.contributors = _prototype_arrays(
            self.classes, self.vectors, self.contributors, "contributor"
        )

    @classmethod
    def empty(cls, round_index: int = 0) -> "GlobalPrototypeSet":
        return cls([], [], [], round_index)

    @classmethod
    def from_vectors(cls, vectors) -> "GlobalPrototypeSet":
        """One single-contributor prototype per {class: vector} item."""
        keys = list(vectors)
        order = np.argsort(_int64(keys, "classes"), kind="stable")
        return cls([keys[i] for i in order], [vectors[keys[i]] for i in order], [1] * len(keys))

    def __len__(self) -> int:
        return len(self.classes)

    def class_vectors(self) -> dict[int, np.ndarray]:
        return dict(zip(self.classes.tolist(), self.vectors))

    def to_json_dict(self) -> dict:
        return {
            "round": self.round_index,
            "classes": {
                str(j): {"vector": vector.tolist(), "contributors": count}
                for j, vector, count in zip(self.classes.tolist(), self.vectors, self.contributors.tolist())
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    @classmethod
    def from_json_dict(cls, payload) -> "GlobalPrototypeSet":
        """Read the to_json_dict form; a missing or malformed field raises
        DataFormatError naming it, a ragged vector DimensionError."""
        rows = []
        for key, spec in _json_field(payload, "classes", dict, "the top level").items():
            if not key.removeprefix("-").isdecimal():
                raise DataFormatError(f"prototype JSON: class key {key!r} is not an integer")
            count = _json_field(spec, "contributors", int, f"class {key}")
            if count < 1:
                raise DataFormatError(f"prototype JSON: class {key}: contributors must be >= 1, got {count}")
            vector = _json_field(spec, "vector", list, f"class {key}")
            if not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in vector):
                raise DataFormatError(f"prototype JSON: class {key}: 'vector' must hold numbers, got {vector!r}")
            rows.append((int(key), vector, count))
        rows.sort(key=lambda row: row[0])
        round_index = _json_field(payload, "round", int, "the top level")
        return cls([r[0] for r in rows], [r[1] for r in rows], [r[2] for r in rows], round_index)

    @classmethod
    def from_json(cls, text: str) -> "GlobalPrototypeSet":
        return cls.from_json_dict(json.loads(text))


def _prototype_arrays(classes, vectors, counts, counted: str):
    """A prototype set's arrays: int64 classes, ascending and distinct, a
    float64 [k, d] matrix and int64 counts >= 1. A vector of the wrong
    length raises DimensionError naming its class. A non-empty float64
    matrix, as compute_local_prototypes returns, is checked whole."""
    classes = _int64(classes, "classes")
    counts = _int64(counts, counted)
    whole = isinstance(vectors, np.ndarray) and vectors.ndim == 2 and vectors.dtype == np.float64 and len(vectors)
    rows = vectors if whole else [np.asarray(v, dtype=np.float64) for v in vectors]
    if classes.shape != (len(rows),) or counts.shape != (len(rows),):
        raise DimensionError(f"{len(rows)} prototype vectors need as many classes and {counted} counts, "
                             f"got shapes {classes.shape} and {counts.shape}")
    if np.any(np.diff(classes) <= 0):
        raise ValueError(f"prototype classes must be ascending and distinct, got {classes.tolist()}")
    if np.any(counts < 1):
        raise ValueError(f"prototype {counted} counts must be >= 1, got {counts.tolist()}")
    if whole:  # every row of a matrix has its width
        return classes, np.array(vectors, order="C"), counts
    dim = rows[0].shape[0] if rows and rows[0].ndim else 0
    for j, row in zip(classes, rows):
        if row.shape != (dim,):
            raise DimensionError(f"prototype for class {j} has shape {row.shape}, expected dimension {dim}")
    return classes, np.array(rows).reshape(len(rows), dim), counts


def _json_field(obj, key: str, kind: type, where: str):
    if not isinstance(obj, dict):
        raise DataFormatError(f"prototype JSON: {where} must be an object, got {type(obj).__name__}")
    value = obj.get(key)
    if not isinstance(value, kind) or isinstance(value, bool):
        raise DataFormatError(f"prototype JSON: {where}: {key!r} must be {kind.__name__}, got {value!r}")
    return value


def compute_local_prototypes(
    params: ModelParams, dataset: Dataset, shard: ClientShard
) -> LocalPrototypes:
    """Per-class mean embedding over the shard, in one deterministic pass.

    Uses evaluation mode (no batching stochasticity): samples are pushed
    through the extractor in index order, in fixed-size chunks.
    """
    indices = _shard_indices(shard, len(dataset))
    if not len(indices):
        raise ValueError(f"client {shard.client_id}: cannot compute prototypes on an empty shard")
    labels = dataset.labels[indices]
    chunks = [indices[start : start + _EVAL_CHUNK] for start in range(0, len(indices), _EVAL_CHUNK)]
    emb = np.concatenate([model_forward(params, dataset.images[chunk])[0] for chunk in chunks])
    counts = np.bincount(labels)  # Dataset labels are in [0, num_classes)
    classes = np.flatnonzero(counts)
    support = counts[classes]
    # Sum each class in sample order: np.sum's pairwise blocks would move
    # low bits and turn an all -0.0 column into +0.0.
    sums = np.array([np.cumsum(emb[labels == c], axis=0)[-1] for c in classes])
    return LocalPrototypes(classes, sums / support[:, None], support)


def aggregate_global_prototypes(
    all_client_prototypes,
    *,
    round_index: int = 0,
    denominator: str = "contributors",
    support_weighted: bool = False,
) -> GlobalPrototypeSet:
    """Average per-client prototypes into one global vector per class.

    The default divides each class's sum by the number of clients that
    reported it; denominator="all_clients" divides by the number of sets
    given, and run_round gives one per client that trained (none for an
    empty shard). support_weighted weights each vector by its support.
    Each set is checked by _prototype_arrays and all share one dimension.
    The sets are folded in the order given (run_round: client-id order),
    which sets the low bits.
    """
    _require("denominator", denominator, _DENOMINATOR)
    _require("support_weighted", support_weighted, _SUPPORT_WEIGHTED)
    client_list = [LocalPrototypes(*_prototype_arrays(*p, "support")) for p in all_client_prototypes]
    dim = next((p.vectors.shape[1] for p in client_list if len(p.classes)), 0)
    for p in client_list:
        if len(p.classes) and p.vectors.shape[1] != dim:
            raise DimensionError(f"prototype for class {p.classes[0]} has dimension "
                                 f"{p.vectors.shape[1]}, expected {dim}")
    classes = np.array(sorted(set().union(*(p.classes.tolist() for p in client_list))), dtype=np.int64)
    # -0.0 + x == x for every x, so a class's first add copies its vector.
    sums = np.full((len(classes), dim), -0.0)
    weight_totals = np.zeros(len(classes))
    contributors = np.zeros(len(classes), dtype=np.int64)
    for p in client_list:
        rows = np.searchsorted(classes, p.classes)
        w = p.support.astype(np.float64) if support_weighted else np.ones(len(rows))
        sums[rows] += w[:, None] * p.vectors.reshape(len(rows), dim)  # an empty set's is [0, 0]
        weight_totals[rows] += w
        contributors[rows] += 1
    denoms = np.full(len(classes), float(len(client_list))) if denominator == "all_clients" else weight_totals
    return GlobalPrototypeSet(classes, sums / denoms[:, None], contributors, round_index)
