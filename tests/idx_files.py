"""IDX file writers for test fixtures: the inverses of fedpr.data's
load_idx_images and load_idx_labels."""

import struct

import numpy as np

from fedpr.data import IDX_IMAGE_MAGIC, IDX_LABEL_MAGIC


def write_idx_images(path, images_u8: np.ndarray) -> None:
    """Expects uint8 [n, rows, cols]."""
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
