"""Per-class embedding prototypes: local computation, global aggregation,
and the prototype set that the loss and inference read."""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .data import ClientShard, Dataset
from .errors import DimensionError
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
class GlobalPrototypeSet:
    """Aggregated prototypes for one round, in the form the loss and
    inference read: ascending distinct class ids, their vectors as the
    rows of a [k, d] matrix, and each class's contributor count.

    The arrays are validated once, here; a vector of the wrong length
    raises DimensionError naming its class.
    """

    classes: np.ndarray
    vectors: np.ndarray
    contributors: np.ndarray
    round_index: int = 0

    def __post_init__(self):
        self.classes = np.asarray(self.classes, dtype=np.int64)
        self.contributors = np.asarray(self.contributors, dtype=np.int64)
        rows = [np.asarray(v, dtype=np.float64) for v in self.vectors]
        if self.classes.shape != (len(rows),) or self.contributors.shape != (len(rows),):
            raise DimensionError(
                f"{len(rows)} prototype vectors need as many classes and contributor counts, "
                f"got shapes {self.classes.shape} and {self.contributors.shape}"
            )
        if np.any(np.diff(self.classes) <= 0):
            raise ValueError(
                f"prototype classes must be ascending and distinct, got {self.classes.tolist()}"
            )
        dim = rows[0].shape[0] if rows and rows[0].ndim else 0
        for j, row in zip(self.classes, rows):
            if row.shape != (dim,):
                raise DimensionError(
                    f"prototype for class {j} has shape {row.shape}, expected dimension {dim}"
                )
        self.vectors = np.array(rows).reshape(len(rows), dim)

    @classmethod
    def empty(cls, round_index: int = 0) -> "GlobalPrototypeSet":
        return cls([], [], [], round_index)

    @classmethod
    def from_vectors(cls, vectors) -> "GlobalPrototypeSet":
        """One single-contributor prototype per {class: vector} item."""
        items = sorted(((int(j), v) for j, v in vectors.items()), key=lambda item: item[0])
        return cls([j for j, _ in items], [v for _, v in items], [1] * len(items))

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
    def from_json_dict(cls, payload: dict) -> "GlobalPrototypeSet":
        items = sorted(((int(j), spec) for j, spec in payload["classes"].items()), key=lambda item: item[0])
        return cls(
            [j for j, _ in items],
            [spec["vector"] for _, spec in items],
            [int(spec["contributors"]) for _, spec in items],
            int(payload["round"]),
        )

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
) -> GlobalPrototypeSet:
    """Average per-client prototypes into one global vector per class.

    The default divides each class's sum by the number of clients that
    reported the class; denominator="all_clients" divides by the total
    client count instead. support_weighted switches to a sample-count
    weighted mean. The clients are folded in the order given, which sets
    the low bits; run_round gives them in client-id order.
    """
    if denominator not in ("contributors", "all_clients"):
        raise ValueError(f"unknown denominator {denominator!r}")
    client_list = list(all_client_prototypes)

    dim = None
    sums: dict[int, np.ndarray] = {}
    weight_totals: dict[int, float] = {}
    contributors: dict[int, int] = {}
    for client_protos in client_list:
        for proto in client_protos:
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

    classes = sorted(sums)
    denoms = [float(len(client_list)) if denominator == "all_clients" else weight_totals[c] for c in classes]
    return GlobalPrototypeSet(
        classes,
        [sums[c] / denom for c, denom in zip(classes, denoms)],
        [contributors[c] for c in classes],
        round_index,
    )
