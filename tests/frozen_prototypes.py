"""A frozen copy of local-prototype computation and prototype aggregation
as they stood when a client's prototypes were a list of per-class objects.

The tests compare the array forms in `fedpr.prototypes` against them bit
for bit. The local sums are a per-sample dict loop (each class starts from
a copy of its first embedding, then adds the rest in sample order); the
aggregation folds every (client, class) pair into three dicts, in client
order. Prototypes are (class id, vector, support) tuples here.
"""

from __future__ import annotations

import numpy as np

from fedpr import prototypes


def local_prototypes(params, dataset, shard) -> list[tuple[int, np.ndarray, int]]:
    indices = shard.indices
    labels = dataset.labels[indices]
    chunk_size = prototypes._EVAL_CHUNK
    sums: dict[int, np.ndarray] = {}
    counts: dict[int, int] = {}
    for start in range(0, len(indices), chunk_size):
        chunk = indices[start : start + chunk_size]
        # Read through the module, so that a test's patch of the extractor
        # reaches the oracle and the code under test alike.
        emb, _ = prototypes.model_forward(params, dataset.images[chunk])
        for row, cls in enumerate(labels[start : start + chunk_size]):
            cls = int(cls)
            if cls in sums:
                sums[cls] += emb[row]
                counts[cls] += 1
            else:
                sums[cls] = emb[row].copy()
                counts[cls] = 1
    return [(cls, sums[cls] / counts[cls], counts[cls]) for cls in sorted(sums)]


def aggregate(all_client_prototypes, denominator: str, support_weighted: bool):
    """(classes, vectors, contributors) as lists, classes ascending."""
    client_list = list(all_client_prototypes)
    sums: dict[int, np.ndarray] = {}
    weight_totals: dict[int, float] = {}
    contributors: dict[int, int] = {}
    for client_protos in client_list:
        for cls, vector, support in client_protos:
            w = float(support) if support_weighted else 1.0
            if cls in sums:
                sums[cls] += w * vector
                weight_totals[cls] += w
                contributors[cls] += 1
            else:
                sums[cls] = w * vector
                weight_totals[cls] = w
                contributors[cls] = 1
    classes = sorted(sums)
    denoms = [float(len(client_list)) if denominator == "all_clients" else weight_totals[c] for c in classes]
    return classes, [sums[c] / d for c, d in zip(classes, denoms)], [contributors[c] for c in classes]
