"""Dataset loading and client partitioning.

Reads MNIST-style IDX files (optionally gzip-compressed), subsamples a
training pool, splits it across clients with a Dirichlet draw per class,
and generates separable synthetic blob datasets for fast tests.
"""

from __future__ import annotations

import gzip
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


@dataclass
class Dataset:
    """Images (float64, [n,1,H,W] or [n,dim]) with integer class labels."""

    images: np.ndarray
    labels: np.ndarray
    num_classes: int

    def __post_init__(self):
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


def _open_maybe_gzip(path):
    with open(path, "rb") as probe:
        head = probe.read(2)
    if head == b"\x1f\x8b":
        return gzip.open(path, "rb")
    return open(path, "rb")


def _read_be32(f, path) -> int:
    data = f.read(4)
    if len(data) != 4:
        raise TruncatedFileError(f"{path}: file ended inside header")
    return struct.unpack(">I", data)[0]


def _read_idx(path, magic: int, num_dims: int):
    """Check an IDX file's magic; return its header sizes and the payload."""
    try:
        with _open_maybe_gzip(path) as f:
            found = _read_be32(f, path)
            if found != magic:
                raise DataFormatError(
                    f"{path}: bad magic 0x{found:08x}, expected 0x{magic:08x}"
                )
            dims = [_read_be32(f, path) for _ in range(num_dims)]
            payload = f.read()
    except EOFError as exc:  # the gzip stream ends before its end marker
        raise TruncatedFileError(f"{path}: compressed data ended early ({exc})") from exc
    except (gzip.BadGzipFile, zlib.error) as exc:
        raise DataFormatError(f"{path}: corrupt gzip data ({exc})") from exc
    return dims, payload


def load_idx_images(path) -> np.ndarray:
    # IDX image format (big endian):
    # u32   magic = 0x00000803
    # u32   image count
    # u32   rows
    # u32   cols
    # u8[]  pixels, row-major
    (count, rows, cols), payload = _read_idx(path, IDX_IMAGE_MAGIC, 3)
    expected = count * rows * cols
    if len(payload) < expected:
        raise TruncatedFileError(
            f"{path}: expected {expected} pixel bytes, found {len(payload)}"
        )
    if rows * cols * 8 > np.iinfo(np.intp).max:  # only reachable with 0 images
        raise DataFormatError(f"{path}: {rows}x{cols} images exceed numpy's array size limit")
    pixels = np.frombuffer(payload[:expected], dtype=np.uint8)
    return pixels.reshape(count, 1, rows, cols).astype(np.float64) / 255.0


def load_idx_labels(path) -> np.ndarray:
    # IDX label format (big endian):
    # u32   magic = 0x00000801
    # u32   label count
    # u8[]  labels
    (count,), payload = _read_idx(path, IDX_LABEL_MAGIC, 1)
    if len(payload) < count:
        raise TruncatedFileError(f"{path}: expected {count} label bytes, found {len(payload)}")
    return np.frombuffer(payload[:count], dtype=np.uint8).astype(np.int64)


def write_idx_images(path, images_u8: np.ndarray) -> None:
    """Inverse of load_idx_images for fixtures; expects uint8 [n, rows, cols]."""
    images_u8 = np.asarray(images_u8, dtype=np.uint8)
    n, rows, cols = images_u8.shape
    with open(path, "wb") as f:
        f.write(struct.pack(">IIII", IDX_IMAGE_MAGIC, n, rows, cols))
        f.write(images_u8.tobytes())


def write_idx_labels(path, labels: np.ndarray) -> None:
    labels = np.asarray(labels, dtype=np.uint8)
    with open(path, "wb") as f:
        f.write(struct.pack(">II", IDX_LABEL_MAGIC, len(labels)))
        f.write(labels.tobytes())


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
    img_key, lab_key = (
        ("train_images", "train_labels") if split == "train" else ("test_images", "test_labels")
    )
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
    if num_clients < 1:
        raise ValueError(f"num_clients must be >= 1, got {num_clients}")
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
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
    labels = _labels(labels, num_classes)
    counts = np.zeros((len(shards), num_classes), dtype=np.int64)
    for row, shard in enumerate(shards):
        np.add.at(counts[row], labels[shard.indices], 1)
    return counts


def blob_anchors(num_classes: int, dim: int) -> np.ndarray:
    """Fixed non-negative unit anchor per class, independent of any seed."""
    rng = np.random.default_rng([_ANCHOR_TAG, num_classes, dim])
    anchors = np.abs(rng.standard_normal((num_classes, dim)))
    return anchors / np.linalg.norm(anchors, axis=1, keepdims=True)


def synthetic_blobs(num_classes: int, dim: int, per_class: int, spread: float, seed) -> Dataset:
    """Gaussian blobs around per-class anchors; fully seed-deterministic."""
    if num_classes < 2:
        raise ValueError(f"need at least 2 classes, got {num_classes}")
    if spread < 0:
        raise ValueError(f"spread must be non-negative, got {spread}")
    anchors = blob_anchors(num_classes, dim)
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal((num_classes * per_class, dim)) * spread
    images = np.repeat(anchors, per_class, axis=0) + noise
    labels = np.repeat(np.arange(num_classes, dtype=np.int64), per_class)
    return Dataset(images, labels, num_classes)
