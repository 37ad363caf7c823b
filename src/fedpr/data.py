"""Dataset loading and client partitioning.

Reads MNIST-style IDX files (optionally gzip-compressed), subsamples a
training pool, splits it across clients with a Dirichlet draw per class,
and generates separable synthetic blob datasets for fast tests.
"""

from __future__ import annotations

import gzip
import math
import numbers
import os
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataFormatError, DimensionError, LabelError, TruncatedFileError

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801

# Sub-stream tag mixed into anchor seeding so blob anchors depend only on
# the (classes, dim) geometry, never on the experiment seed.
_ANCHOR_TAG = 0x5EED


def _int64(values, name: str) -> np.ndarray:
    """values as int64. Integer arrays pass unchecked; a float that is not a
    whole number raises DataFormatError naming its index, not truncated."""
    values = np.asarray(values)
    if values.dtype.kind == "f":
        bad = np.flatnonzero((values != np.trunc(values)) | np.isinf(values))
        if bad.size:
            raise DataFormatError(f"{name}[{bad[0]}] = {values.flat[bad[0]]} is not an integer")
    return values.astype(np.int64, copy=False)


def _labels(values, num_classes: int) -> np.ndarray:
    """values as int64 class labels; the first label outside [0, num_classes)
    raises LabelError naming it and its index."""
    labels = _int64(values, "labels")
    bad = np.flatnonzero((labels < 0) | (labels >= num_classes))
    if bad.size:
        raise LabelError(f"label {labels.flat[bad[0]]} at index {bad[0]} outside [0, {num_classes})")
    return labels


# A parameter rule is a tuple of (test(value), message) steps, each message
# formatted with the value; the first step checks the type, and _require
# names the first step that fails. The function that uses a parameter owns
# its rule, and FederationConfig.validate reads the same object. As in
# config files, an integer is a number and a bool is neither.
_INTEGER = (lambda v: isinstance(v, numbers.Integral) and not isinstance(v, bool)), "must be an integer, got {!r}"
_NUMBER = (lambda v: isinstance(v, numbers.Real) and not isinstance(v, bool)), "must be a number, got {!r}"
_BOOL = (lambda v: isinstance(v, bool)), "must be true or false, got {!r}"
_TEXT = (lambda v: isinstance(v, str)), "must be a string, got {!r}"
_PATH = (lambda v: isinstance(v, (str, os.PathLike))), "must be a path, got {!r}"


def _at_least(low: int):
    return _INTEGER, ((lambda v: v >= low), f"must be >= {low}, got {{}}")


def _one_of(choices: tuple):
    return _TEXT, ((lambda v: v in choices), f"must be one of {choices}, got {{!r}}")


_COUNT = _at_least(1)
_POSITIVE = _NUMBER, ((lambda v: 0 < v < math.inf), "must be finite and > 0, got {}")
_NON_NEGATIVE = _NUMBER, ((lambda v: 0 <= v < math.inf), "must be finite and >= 0, got {}")
_CLASS_COUNT = _at_least(2)
_DIRECTORY = (_PATH,)


def _require(name: str, value, rule) -> None:
    """Raise ValueError naming the parameter at the first step of its rule that value fails."""
    for test, message in rule:
        if not test(value):
            raise ValueError(f"{name} {message.format(value)}")


@dataclass
class Dataset:
    """Images (float64, [n,1,H,W] or [n,dim]) with integer class labels."""

    images: np.ndarray
    labels: np.ndarray
    num_classes: int

    def __post_init__(self):
        _require("num_classes", self.num_classes, _COUNT)
        self.images = np.asarray(self.images, dtype=np.float64)
        self.labels = _labels(self.labels, self.num_classes)
        if self.labels.ndim != 1 or len(self.images) != len(self.labels):
            raise DimensionError(f"{len(self.images)} images but {len(self.labels)} labels")

    def __len__(self) -> int:
        return len(self.labels)


@dataclass
class ClientShard:
    """One client's view: non-negative indices into a parent Dataset."""

    client_id: int
    indices: np.ndarray

    def __post_init__(self):
        self.indices = _int64(self.indices, "indices")
        negative = np.flatnonzero(self.indices < 0)
        if negative.size:
            raise DataFormatError(f"indices[{negative[0]}] = {self.indices.flat[negative[0]]} is negative")

    def __len__(self) -> int:
        return len(self.indices)


def _shard_indices(shard: ClientShard, n: int) -> np.ndarray:
    """shard.indices; the first one past a dataset of ``n`` samples raises DataFormatError."""
    indices = shard.indices
    if len(indices) and indices.max() >= n:
        i = int(np.argmax(indices >= n))
        raise DataFormatError(f"client {shard.client_id}: indices[{i}] = {indices[i]} is past the end of {n} samples")
    return indices


def _read_idx(path, magic: int, num_dims: int) -> np.ndarray:
    """The uint8 payload of an IDX file, optionally gzip-compressed, shaped by
    its header: a big-endian u32 magic, num_dims u32 sizes, then the bytes."""
    with open(path, "rb") as probe:
        gzipped = probe.read(2) == b"\x1f\x8b"
    try:
        with (gzip.open if gzipped else open)(path, "rb") as f:
            head = f.read(4)
            found = int.from_bytes(head, "big")
            if len(head) == 4 and found != magic:
                raise DataFormatError(f"{path}: bad magic 0x{found:08x}, expected 0x{magic:08x}")
            head += f.read(4 * num_dims)
            payload = f.read()
    except EOFError as exc:  # the gzip stream ends before its end marker
        raise TruncatedFileError(f"{path}: compressed data ended early ({exc})") from exc
    except (gzip.BadGzipFile, zlib.error) as exc:
        raise DataFormatError(f"{path}: corrupt gzip data ({exc})") from exc
    if len(head) != 4 * (1 + num_dims):
        raise TruncatedFileError(f"{path}: file ended inside header")
    dims = struct.unpack(f">{num_dims}I", head[4:])
    size = math.prod(dims)
    if len(payload) < size:
        raise TruncatedFileError(f"{path}: expected {size} payload bytes, found {len(payload)}")
    if math.prod(dims[1:]) * 8 > np.iinfo(np.intp).max:  # only reachable with 0 items
        raise DataFormatError(f"{path}: items of shape {dims[1:]} exceed numpy's array size limit")
    return np.frombuffer(payload[:size], dtype=np.uint8).reshape(dims)


def load_idx_images(path) -> np.ndarray:
    """[count, 1, rows, cols] pixels in [0, 1] from an IDX image file (magic 0x00000803)."""
    return _read_idx(path, IDX_IMAGE_MAGIC, 3)[:, None].astype(np.float64) / 255.0


def load_idx_labels(path) -> np.ndarray:
    """int64 labels from an IDX label file (magic 0x00000801)."""
    return _read_idx(path, IDX_LABEL_MAGIC, 1).astype(np.int64)


_IDX_NAMES = {
    "train_images": "train-images-idx3-ubyte",
    "train_labels": "train-labels-idx1-ubyte",
    "test_images": "t10k-images-idx3-ubyte",
    "test_labels": "t10k-labels-idx1-ubyte",
}


def find_idx_file(data_dir, dataset: str, kind: str):
    """Locate an IDX file under data_dir/<dataset>/ or data_dir/, .gz allowed."""
    base = _IDX_NAMES[kind]
    root = Path(data_dir)
    for candidate in (
        root / dataset / base,
        root / dataset / (base + ".gz"),
        root / base,
        root / (base + ".gz"),
    ):
        if candidate.is_file():
            return candidate
    return None


def load_idx_dataset(data_dir, dataset: str, split: str, num_classes: int = 10) -> Dataset:
    """Load one split ("train" or "test") of mnist/fashion from IDX files."""
    _require("data_dir", data_dir, _DIRECTORY)
    _require("split", split, _one_of(("train", "test")))
    img_key, lab_key = f"{split}_images", f"{split}_labels"
    img_path = find_idx_file(data_dir, dataset, img_key)
    lab_path = find_idx_file(data_dir, dataset, lab_key)
    if img_path is None or lab_path is None:
        raise FileNotFoundError(
            f"{dataset} {split} split not found under {data_dir!s} "
            f"(looked for {_IDX_NAMES[img_key]}[.gz] and {_IDX_NAMES[lab_key]}[.gz])"
        )
    return Dataset(load_idx_images(img_path), load_idx_labels(lab_path), num_classes)


def subsample(dataset: Dataset, n: int, seed) -> Dataset:
    """Uniform sample of n items without replacement, deterministic by seed."""
    _require("n", n, (_INTEGER,))
    if not 0 <= n <= len(dataset):
        raise ValueError(f"cannot subsample {n} items from dataset of {len(dataset)}")
    picked = np.random.default_rng(seed).permutation(len(dataset))[:n]
    return Dataset(dataset.images[picked], dataset.labels[picked], dataset.num_classes)


def dirichlet_partition(labels: np.ndarray, num_clients: int, alpha: float, seed) -> list[ClientShard]:
    """Assign each class's samples to clients by Dir(alpha) proportions.

    One proportion vector is drawn per class; counts are rounded with the
    largest-remainder rule so every sample lands exactly once. Empty
    shards are allowed, not an error.
    """
    _require("num_clients", num_clients, _COUNT)
    _require("alpha", alpha, _POSITIVE)
    labels = _int64(labels, "labels")
    num_classes = int(labels.max(initial=-1)) + 1
    _labels(labels, num_classes)  # only a negative label is outside
    rng = np.random.default_rng(seed)
    per_client: list[list[np.ndarray]] = [[] for _ in range(num_clients)]
    for cls in range(num_classes):
        # Draw even for empty classes so the stream position is a pure
        # function of (num_classes, num_clients), not of the data.
        proportions = rng.dirichlet(np.full(num_clients, alpha))
        cls_idx = rng.permutation(np.flatnonzero(labels == cls))
        if not len(cls_idx):
            continue
        counts = _largest_remainder(proportions, len(cls_idx))
        offset = 0
        for client, count in enumerate(counts):
            if count:
                per_client[client].append(cls_idx[offset : offset + count])
            offset += count
    shards = []
    for client in range(num_clients):
        idx = np.sort(np.concatenate(per_client[client])) if per_client[client] else np.empty(0, np.int64)
        shards.append(ClientShard(client, idx))
    return shards


def _largest_remainder(proportions: np.ndarray, total: int) -> np.ndarray:
    scaled = proportions * total
    base = np.floor(scaled).astype(np.int64)
    short = total - int(base.sum())
    if short:
        order = np.argsort(-(scaled - base), kind="stable")
        base[order[:short]] += 1
    return base


def class_counts(shards, labels: np.ndarray, num_classes: int) -> np.ndarray:
    """[N, C] matrix of per-client per-class sample counts."""
    _require("num_classes", num_classes, _COUNT)
    labels = _labels(labels, num_classes)
    counts = np.zeros((len(shards), num_classes), dtype=np.int64)
    for row, shard in enumerate(shards):
        np.add.at(counts[row], labels[_shard_indices(shard, len(labels))], 1)
    return counts


def blob_anchors(num_classes: int, dim: int) -> np.ndarray:
    """Fixed non-negative unit anchor per class, independent of any seed."""
    _require("num_classes", num_classes, _CLASS_COUNT)
    _require("dim", dim, _COUNT)
    rng = np.random.default_rng([_ANCHOR_TAG, num_classes, dim])
    anchors = np.abs(rng.standard_normal((num_classes, dim)))
    return anchors / np.linalg.norm(anchors, axis=1, keepdims=True)


def synthetic_blobs(num_classes: int, dim: int, per_class: int, spread: float, seed) -> Dataset:
    """Gaussian blobs around per-class anchors; fully seed-deterministic."""
    anchors = blob_anchors(num_classes, dim)
    _require("per_class", per_class, _COUNT)
    _require("spread", spread, _NON_NEGATIVE)
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal((num_classes * per_class, dim)) * spread
    images = np.repeat(anchors, per_class, axis=0) + noise
    labels = np.repeat(np.arange(num_classes, dtype=np.int64), per_class)
    return Dataset(images, labels, num_classes)
