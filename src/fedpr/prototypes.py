"""Per-class embedding prototypes: local computation, global aggregation,
and the prototype set that the loss and inference read."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .data import ClientShard, Dataset
from .errors import DimensionError, EmptyPrototypesError
from .nn import ModelParams, model_forward

_EVAL_CHUNK = 256


@dataclass
class Prototype:
    """Mean embedding of one client's samples for one class."""

    class_id: int
    vector: np.ndarray
    support: int

    def __post_init__(self):
        self.vector = np.asarray(self.vector, dtype=np.float64)
        if self.support < 1:
            raise ValueError(f"prototype support must be >= 1, got {self.support}")


@dataclass
class GlobalPrototype:
    vector: np.ndarray
    contributors: int


@dataclass
class GlobalPrototypeSet:
    """Class-indexed aggregated prototypes for one round."""

    entries: dict[int, GlobalPrototype] = field(default_factory=dict)
    round_index: int = 0

    @classmethod
    def empty(cls, round_index: int = 0) -> "GlobalPrototypeSet":
        return cls({}, round_index)

    @classmethod
    def from_vectors(cls, vectors) -> "GlobalPrototypeSet":
        """One single-contributor prototype per {class: vector} item."""
        return cls({int(j): GlobalPrototype(np.asarray(v, dtype=np.float64), 1) for j, v in vectors.items()})

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, class_id: int) -> bool:
        return class_id in self.entries

    def classes(self) -> list[int]:
        return sorted(self.entries)

    def class_vectors(self) -> dict[int, np.ndarray]:
        return {j: self.entries[j].vector for j in sorted(self.entries)}

    def matrix(self, dim: int | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Sorted class ids and their vectors as matrix rows, each of shape
        (dim,), by default the first one's; raises EmptyPrototypesError if empty."""
        if not self.entries:
            raise EmptyPrototypesError("no global prototypes available")
        classes = self.classes()
        vectors = [self.entries[j].vector for j in classes]
        dim = len(vectors[0]) if dim is None else dim
        for j, vec in zip(classes, vectors):
            if vec.shape != (dim,):
                raise DimensionError(
                    f"prototype for class {j} has shape {vec.shape}, expected dimension {dim}"
                )
        return np.asarray(classes, dtype=np.int64), np.array(vectors)

    def pull_table(self, num_classes: int, dim: int) -> tuple[np.ndarray, np.ndarray]:
        """A [num_classes, dim] table of prototypes, zero where a class has
        none, and its has-prototype mask; classes outside the table are left out."""
        classes, matrix = self.matrix(dim)
        lo, hi = np.searchsorted(classes, (0, num_classes))  # the classes are sorted
        table = np.zeros((num_classes, dim))
        table[classes[lo:hi]] = matrix[lo:hi]
        has_proto = np.zeros(num_classes, dtype=bool)
        has_proto[classes[lo:hi]] = True
        return table, has_proto

    def to_json_dict(self) -> dict:
        return {
            "round": self.round_index,
            "classes": {
                str(j): {
                    "vector": [float(v) for v in self.entries[j].vector],
                    "contributors": self.entries[j].contributors,
                }
                for j in sorted(self.entries)
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    @classmethod
    def from_json_dict(cls, payload: dict) -> "GlobalPrototypeSet":
        entries = {
            int(j): GlobalPrototype(
                np.asarray(spec["vector"], dtype=np.float64), int(spec["contributors"])
            )
            for j, spec in payload["classes"].items()
        }
        return cls(entries, int(payload["round"]))

    @classmethod
    def from_json(cls, text: str) -> "GlobalPrototypeSet":
        return cls.from_json_dict(json.loads(text))


def compute_local_prototypes(
    params: ModelParams, dataset: Dataset, shard: ClientShard
) -> list[Prototype]:
    """Per-class mean embedding over the shard, in one deterministic pass.

    Uses evaluation mode (no batching stochasticity): samples are pushed
    through the extractor in index order, in fixed-size chunks.
    """
    indices = shard.indices
    if not len(indices):
        raise ValueError(f"client {shard.client_id}: cannot compute prototypes on an empty shard")
    labels = dataset.labels[indices]
    sums: dict[int, np.ndarray] = {}
    counts: dict[int, int] = {}
    for start in range(0, len(indices), _EVAL_CHUNK):
        chunk = indices[start : start + _EVAL_CHUNK]
        emb, _ = model_forward(params, dataset.images[chunk])
        for row, cls in enumerate(labels[start : start + _EVAL_CHUNK]):
            cls = int(cls)
            if cls in sums:
                sums[cls] += emb[row]
                counts[cls] += 1
            else:
                sums[cls] = emb[row].copy()
                counts[cls] = 1
    return [Prototype(cls, sums[cls] / counts[cls], counts[cls]) for cls in sorted(sums)]


def aggregate_global_prototypes(
    all_client_prototypes,
    *,
    round_index: int = 0,
    denominator: str = "contributors",
    support_weighted: bool = False,
    client_ids=None,
) -> GlobalPrototypeSet:
    """Average per-client prototypes into one global vector per class.

    The default divides each class's sum by the number of clients that
    reported the class; denominator="all_clients" divides by the total
    client count instead. support_weighted switches to a sample-count
    weighted mean. Inputs are folded in client-id order, so the result
    does not depend on the order the sequences arrive in.
    """
    if denominator not in ("contributors", "all_clients"):
        raise ValueError(f"unknown denominator {denominator!r}")
    client_list = list(all_client_prototypes)
    if client_ids is None:
        client_ids = list(range(len(client_list)))
    order = sorted(range(len(client_list)), key=lambda i: client_ids[i])

    dim = None
    sums: dict[int, np.ndarray] = {}
    weight_totals: dict[int, float] = {}
    contributors: dict[int, int] = {}
    for i in order:
        for proto in client_list[i]:
            if dim is None:
                dim = proto.vector.shape[0]
            elif proto.vector.shape[0] != dim:
                raise DimensionError(
                    f"prototype for class {proto.class_id} has dimension "
                    f"{proto.vector.shape[0]}, expected {dim}"
                )
            w = float(proto.support) if support_weighted else 1.0
            if proto.class_id in sums:
                sums[proto.class_id] += w * proto.vector
                weight_totals[proto.class_id] += w
                contributors[proto.class_id] += 1
            else:
                sums[proto.class_id] = w * proto.vector
                weight_totals[proto.class_id] = w
                contributors[proto.class_id] = 1

    entries = {}
    for cls in sorted(sums):
        denom = float(len(client_list)) if denominator == "all_clients" else weight_totals[cls]
        entries[cls] = GlobalPrototype(sums[cls] / denom, contributors[cls])
    return GlobalPrototypeSet(entries, round_index)
