import gzip
import os
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fedpr.data import (
    IDX_IMAGE_MAGIC,
    IDX_LABEL_MAGIC,
    ClientShard,
    Dataset,
    blob_anchors,
    class_counts,
    dirichlet_partition,
    find_idx_file,
    load_idx_dataset,
    load_idx_images,
    load_idx_labels,
    subsample,
    synthetic_blobs,
)
from fedpr.errors import DataFormatError, DimensionError, LabelError, TruncatedFileError
from fedpr.evaluation import last_k_mean, tally_predictions
from fedpr.federation import ClientState, FederationConfig, RoundRecord, client_local_update
from fedpr.nn import build_mlp2, softmax_cross_entropy
from fedpr.prototypes import GlobalPrototypeSet, aggregate_global_prototypes, compute_local_prototypes
from idx_files import write_idx_images, write_idx_labels

DATA_DIR = os.environ.get("FEDPR_DATA_DIR", "data")

# Labels, indices and classes that are not whole numbers fail by name instead of
# being truncated; each call names the first bad position.
NOT_INTEGER = [
    pytest.param(lambda: Dataset(np.zeros((3, 2)), [0.5, 1.7, 2.2], 3), r"labels\[0\] = 0.5", id="dataset-labels"),
    pytest.param(lambda: ClientShard(0, [0.0, 1.5]), r"indices\[1\] = 1.5", id="shard-indices"),
    pytest.param(lambda: ClientShard(0, [0, np.inf]), r"indices\[1\] = inf", id="shard-infinite-index"),
    pytest.param(lambda: ClientShard(0, [np.nan]), r"indices\[0\] = nan", id="shard-nan-index"),
    pytest.param(lambda: dirichlet_partition([0, 1, 2.5], 2, 1.0, seed=0), r"labels\[2\] = 2.5",
                 id="partition-labels"),
    pytest.param(lambda: class_counts([ClientShard(0, [0, 1])], [0.5, 1.0], 2), r"labels\[0\] = 0.5",
                 id="class-count-labels"),
    pytest.param(lambda: tally_predictions([0, 1.5], [0, 1], 2), r"predictions\[1\] = 1.5",
                 id="tally-predictions"),
    pytest.param(lambda: GlobalPrototypeSet([0.5], [[1.0]], [1]), r"classes\[0\] = 0.5",
                 id="prototype-classes"),
    pytest.param(lambda: aggregate_global_prototypes([([0], [[1.0]], [2.5])]), r"support\[0\] = 2.5",
                 id="prototype-support"),
    pytest.param(lambda: GlobalPrototypeSet.from_vectors({1.5: [1.0]}), r"classes\[0\] = 1.5",
                 id="from-vectors-key"),
    pytest.param(lambda: GlobalPrototypeSet.from_vectors({0: [1.0], np.float64(2.7): [1.0]}), r"classes\[1\] = 2.7",
                 id="from-vectors-numpy-key"),
]


@pytest.mark.parametrize("call,match", NOT_INTEGER)
def test_values_that_are_not_integers_raise_by_name(call, match):
    with pytest.raises(DataFormatError, match=match + " is not an integer"):
        call()


# The label rule, one row per caller: the first label outside [0, C) raises
# LabelError naming it, its index and the range.
LABEL_OUTSIDE = [
    pytest.param(lambda: Dataset(np.zeros((2, 4)), [0, 5], 3), "label 5 at index 1 outside [0, 3)", id="dataset"),
    pytest.param(lambda: softmax_cross_entropy(np.zeros((2, 3)), [0, 5]), "label 5 at index 1 outside [0, 3)",
                 id="cross-entropy"),
    pytest.param(lambda: tally_predictions([0, 1, 2], [0, 5, 2], 3), "label 5 at index 1 outside [0, 3)",
                 id="tally-labels"),
    pytest.param(lambda: class_counts([ClientShard(0, [0, 1])], [0, -1], 3), "label -1 at index 1 outside [0, 3)",
                 id="class-counts-negative"),
    pytest.param(lambda: class_counts([ClientShard(0, [0, 1])], [0, 3], 3), "label 3 at index 1 outside [0, 3)",
                 id="class-counts-too-large"),
    pytest.param(lambda: dirichlet_partition([-1, 0, 1], 2, 0.5, seed=0), "label -1 at index 0 outside [0, 2)",
                 id="partition-negative"),
]


@pytest.mark.parametrize("call,message", LABEL_OUTSIDE)
def test_a_label_outside_the_classes_raises_label_error_naming_it(call, message):
    with pytest.raises(LabelError) as info:
        call()
    assert str(info.value) == message


def test_a_negative_shard_index_raises_by_position():
    # Python indexing would read it as a sample counted from the end.
    with pytest.raises(DataFormatError) as info:
        ClientShard(0, [0, -1])
    assert str(info.value) == "indices[1] = -1 is negative"


THREE = Dataset(np.zeros((3, 4)), [0, 1, 2], 3)


def mlp2():
    return build_mlp2(np.random.default_rng(0), 4, 3, hidden=5)


# The shard rule, one row per caller that lays a shard over a dataset: the
# first index at or past the dataset's end fails by name, where numpy would
# raise a bare IndexError, mid-epoch in a local update. Predictions and
# labels of different lengths fail too, where numpy would broadcast them.
# So do a class count, anchor size or record field that is not one, before
# any label or record is read.
SIZE_MISMATCH = [
    pytest.param(lambda: class_counts([ClientShard(0, [0, 7])], THREE.labels, 3), DataFormatError,
                 "client 0: indices[1] = 7 is past the end of 3 samples", id="class-counts"),
    pytest.param(lambda: compute_local_prototypes(mlp2(), THREE, ClientShard(1, [3, 0])), DataFormatError,
                 "client 1: indices[0] = 3 is past the end of 3 samples", id="local-prototypes"),
    pytest.param(lambda: client_local_update(ClientState(2, ClientShard(2, [0, 1, 2, 1, 0, 2, 1, 0, 2, 9])), mlp2(),
                                             GlobalPrototypeSet.empty(0), FederationConfig(), THREE),
                 DataFormatError, "client 2: indices[9] = 9 is past the end of 3 samples", id="local-update"),
    pytest.param(lambda: tally_predictions([1], [1, 1, 1], 2), DimensionError,
                 "predictions of shape (1,) but labels of shape (3,)", id="tally-lengths"),
    pytest.param(lambda: Dataset(np.zeros((2, 3)), [0, 1], 2.5), ValueError,
                 "num_classes must be an integer, got 2.5", id="dataset-fractional-classes"),
    pytest.param(lambda: Dataset(np.zeros((2, 3)), [0, 1], True), ValueError,
                 "num_classes must be an integer, got True", id="dataset-bool-classes"),
    pytest.param(lambda: Dataset(np.zeros((0, 3)), [], 0), ValueError,
                 "num_classes must be >= 1, got 0", id="dataset-no-classes"),
    pytest.param(lambda: class_counts([ClientShard(0, [0, 1])], [0, 1], 2.5), ValueError,
                 "num_classes must be an integer, got 2.5", id="class-counts-fractional-classes"),
    pytest.param(lambda: tally_predictions([0, 1], [0, 1], 2.5), ValueError,
                 "num_classes must be an integer, got 2.5", id="tally-fractional-classes"),
    pytest.param(lambda: blob_anchors(2.5, 3), ValueError,
                 "num_classes must be an integer, got 2.5", id="anchors-fractional-classes"),
    pytest.param(lambda: blob_anchors(0, 3), ValueError, "num_classes must be >= 2, got 0", id="anchors-no-classes"),
    pytest.param(lambda: blob_anchors(2, 0), ValueError, "dim must be >= 1, got 0", id="anchors-no-dim"),
    pytest.param(lambda: last_k_mean([RoundRecord(1, 0.1, 0.5, None)], 1, "nope"), ValueError,
                 "field 'nope' absent in round 1 record", id="last-k-unknown-field"),
    pytest.param(lambda: last_k_mean([RoundRecord(1, 0.1, 0.5, None)], 1, 3), ValueError,
                 "field must be a string, got 3", id="last-k-field-not-a-name"),
]


@pytest.mark.parametrize("call,error,message", SIZE_MISMATCH)
def test_a_shard_or_prediction_that_does_not_fit_raises_by_name(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message


def test_whole_floats_are_accepted_and_integer_arrays_pass_as_they_are():
    assert Dataset(np.zeros((2, 1)), [0.0, 1.0], 2).labels.tolist() == [0, 1]
    assert ClientShard(0, []).indices.dtype == np.int64
    indices = np.arange(4)
    assert ClientShard(0, indices).indices is indices


# --- IDX files --------------------------------------------------------------


def test_images_wrong_magic_rejected(tmp_path):
    path = tmp_path / "bad"
    write_idx_labels(path, [1, 2, 3])  # label magic where image magic is expected
    with pytest.raises(DataFormatError, match="magic"):
        load_idx_images(path)


def test_labels_wrong_magic_rejected(tmp_path):
    path = tmp_path / "bad"
    write_idx_images(path, np.zeros((1, 2, 2), dtype=np.uint8))
    with pytest.raises(DataFormatError, match="magic"):
        load_idx_labels(path)


def test_two_constant_images_load_as_ones(tmp_path):
    path = tmp_path / "imgs"
    write_idx_images(path, np.full((2, 4, 3), 255, dtype=np.uint8))
    images = load_idx_images(path)
    assert images.shape == (2, 1, 4, 3)
    assert np.array_equal(images, np.ones((2, 1, 4, 3)))


def test_label_bytes_roundtrip(tmp_path):
    path = tmp_path / "labels"
    write_idx_labels(path, [3, 1, 4])
    assert load_idx_labels(path).tolist() == [3, 1, 4]


def test_empty_label_file(tmp_path):
    path = tmp_path / "labels"
    write_idx_labels(path, [])
    assert len(load_idx_labels(path)) == 0


def test_truncated_image_payload(tmp_path):
    path = tmp_path / "imgs"
    with open(path, "wb") as f:
        f.write(struct.pack(">IIII", 0x00000803, 2, 4, 4))
        f.write(b"\x00" * 10)  # needs 32 bytes
    with pytest.raises(TruncatedFileError, match="expected 32"):
        load_idx_images(path)


def test_an_unknown_split_fails_by_name_with_the_test_files_present(tmp_path):
    write_idx_images(tmp_path / "t10k-images-idx3-ubyte", np.zeros((2, 2, 2), dtype=np.uint8))
    write_idx_labels(tmp_path / "t10k-labels-idx1-ubyte", [0, 1])
    assert len(load_idx_dataset(tmp_path, "mnist", "test")) == 2
    with pytest.raises(ValueError) as info:
        load_idx_dataset(tmp_path, "mnist", "validation")
    assert str(info.value) == "split must be one of ('train', 'test'), got 'validation'"


def test_truncated_header(tmp_path):
    path = tmp_path / "imgs"
    path.write_bytes(b"\x00\x00")
    with pytest.raises(TruncatedFileError):
        load_idx_images(path)


def test_gzip_transparent_decompression(tmp_path):
    raw = tmp_path / "imgs"
    rng = np.random.default_rng(0)
    pixels = rng.integers(0, 256, size=(3, 5, 5), dtype=np.uint8)
    write_idx_images(raw, pixels)
    gz = tmp_path / "imgs.gz"
    gz.write_bytes(gzip.compress(raw.read_bytes()))
    assert np.array_equal(load_idx_images(gz), load_idx_images(raw))


def test_idx_roundtrip_preserves_bytes(tmp_path):
    rng = np.random.default_rng(1)
    pixels = rng.integers(0, 256, size=(7, 6, 6), dtype=np.uint8)
    path = tmp_path / "imgs"
    write_idx_images(path, pixels)
    restored = np.round(load_idx_images(path) * 255.0).astype(np.uint8)[:, 0]
    assert np.array_equal(restored, pixels)


def _gzip_idx(tmp_path, loader):
    """A gzip-compressed IDX file that ``loader`` reads, about 10 KB."""
    raw = tmp_path / "raw"
    rng = np.random.default_rng(4)
    if loader is load_idx_images:
        write_idx_images(raw, rng.integers(0, 256, size=(20, 28, 28), dtype=np.uint8))
    else:
        write_idx_labels(raw, rng.integers(0, 10, size=20000))
    return gzip.compress(raw.read_bytes(), mtime=0)


@pytest.mark.parametrize("loader", [load_idx_images, load_idx_labels])
def test_truncated_gzip_is_truncated_file_error(tmp_path, loader):
    data = _gzip_idx(tmp_path, loader)
    path = tmp_path / "half.gz"
    path.write_bytes(data[: len(data) // 2])
    with pytest.raises(TruncatedFileError, match="half.gz"):
        loader(path)


@pytest.mark.parametrize("loader", [load_idx_images, load_idx_labels])
@pytest.mark.parametrize(
    "offset, value",
    # unknown compression method; broken deflate block (zlib.error); wrong CRC
    [(2, 7), (11, None), (-8, None)],
    ids=["method", "deflate", "crc"],
)
def test_corrupt_gzip_is_data_format_error(tmp_path, loader, offset, value):
    data = bytearray(_gzip_idx(tmp_path, loader))
    data[offset] = data[offset] ^ 0xFF if value is None else value
    path = tmp_path / "corrupt.gz"
    path.write_bytes(bytes(data))
    with pytest.raises(DataFormatError, match="corrupt.gz"):
        loader(path)


def test_empty_image_file_with_huge_dims_is_data_format_error(tmp_path):
    path = tmp_path / "imgs"
    path.write_bytes(struct.pack(">IIII", IDX_IMAGE_MAGIC, 0, 2**32 - 1, 2**32 - 1))
    with pytest.raises(DataFormatError, match="size limit"):
        load_idx_images(path)


# Arbitrary bytes, and bytes that start with a valid magic so that the
# header and payload checks are reached too.
_IDX_BYTES = st.one_of(
    st.binary(max_size=64),
    st.builds(
        lambda magic, rest: struct.pack(">I", magic) + rest,
        st.sampled_from([IDX_IMAGE_MAGIC, IDX_LABEL_MAGIC]),
        st.binary(max_size=64),
    ),
    st.builds(
        lambda magic, dims, payload: struct.pack(">IIII", magic, *dims) + payload,
        st.sampled_from([IDX_IMAGE_MAGIC, IDX_LABEL_MAGIC]),
        st.tuples(*[st.sampled_from([0, 1, 2, 3, 7, 2**16, 2**32 - 1])] * 3),
        st.binary(max_size=64),
    ),
)


@st.composite
def _idx_file_bytes(draw):
    """Raw IDX-ish bytes, or their gzip stream, maybe cut short or with a byte flipped."""
    data = draw(_IDX_BYTES)
    if draw(st.booleans()):
        data = bytearray(gzip.compress(data, mtime=0))
        if draw(st.booleans()):
            pos = draw(st.integers(0, len(data) - 1))
            data[pos] ^= draw(st.integers(1, 255))
        data = bytes(data[: draw(st.integers(0, len(data)))])
    return data


@settings(
    max_examples=300,
    deadline=None,
    derandomize=True,  # the same examples on every run
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=_idx_file_bytes())
def test_idx_loaders_raise_only_format_errors(tmp_path, data):
    path = tmp_path / "fuzz"
    path.write_bytes(data)
    for loader in (load_idx_images, load_idx_labels):
        try:
            out = loader(path)
        except DataFormatError:  # TruncatedFileError included
            continue
        assert out.dtype in (np.float64, np.int64)


def test_dataset_count_mismatch():
    with pytest.raises(DimensionError, match="3 images but 2 labels"):
        Dataset(np.zeros((3, 4)), np.zeros(2, dtype=np.int64), 2)


def test_dataset_label_out_of_range():
    with pytest.raises(LabelError, match=r"label 5 at index 1 outside \[0, 3\)"):
        Dataset(np.zeros((2, 4)), np.array([0, 5]), 3)


# --- subsample --------------------------------------------------------------


def _row_multiset(images):
    flat = np.ascontiguousarray(images.reshape(len(images), -1))
    return np.sort(flat.view([("", flat.dtype)] * flat.shape[1]), axis=0)


def test_subsample_full_size_is_permutation():
    rng = np.random.default_rng(2)
    ds = Dataset(rng.normal(size=(30, 4)), rng.integers(0, 3, size=30), 3)
    out = subsample(ds, 30, seed=5)
    assert sorted(out.labels.tolist()) == sorted(ds.labels.tolist())
    assert np.array_equal(_row_multiset(out.images), _row_multiset(ds.images))


def test_subsample_deterministic():
    rng = np.random.default_rng(3)
    ds = Dataset(rng.normal(size=(50, 4)), rng.integers(0, 5, size=50), 5)
    a = subsample(ds, 20, seed=9)
    b = subsample(ds, 20, seed=9)
    assert np.array_equal(a.images, b.images) and np.array_equal(a.labels, b.labels)


def test_subsample_too_large_rejected():
    ds = Dataset(np.zeros((5, 2)), np.zeros(5, dtype=np.int64), 1)
    with pytest.raises(ValueError, match="subsample"):
        subsample(ds, 6, seed=0)
    with pytest.raises(ValueError, match="cannot subsample -1 items"):
        subsample(ds, -1, seed=0)


def test_subsample_size_must_be_an_integer():
    ds = Dataset(np.zeros((5, 2)), np.zeros(5, dtype=np.int64), 1)
    with pytest.raises(ValueError, match=r"^n must be an integer, got 1\.5$"):
        subsample(ds, 1.5, seed=0)


def test_subsample_class_proportions_track_parent():
    # Uniform sampling without replacement: each class's sampled share
    # should stay near its parent share (hypergeometric concentration).
    rng = np.random.default_rng(4)
    parent_labels = rng.choice(10, size=10000, p=np.linspace(1, 3, 10) / np.linspace(1, 3, 10).sum())
    ds = Dataset(np.zeros((10000, 2)), parent_labels, 10)
    parent_share = np.bincount(parent_labels, minlength=10) / 10000
    for seed in range(20):
        sub = subsample(ds, 2000, seed=seed)
        share = np.bincount(sub.labels, minlength=10) / 2000
        assert np.abs(share - parent_share).max() < 0.03


# --- dirichlet partition ----------------------------------------------------


def _max_class_share(shards, labels, num_classes):
    counts = class_counts(shards, labels, num_classes)
    sizes = counts.sum(axis=1)
    shares = [counts[i].max() / sizes[i] for i in range(len(shards)) if sizes[i]]
    return float(np.mean(shares))


def test_single_client_gets_everything():
    labels = np.random.default_rng(5).integers(0, 4, size=40)
    shards = dirichlet_partition(labels, 1, 0.5, seed=0)
    assert len(shards) == 1
    assert np.array_equal(shards[0].indices, np.arange(40))


def test_partition_complete_and_disjoint():
    rng = np.random.default_rng(6)
    labels = rng.integers(0, 10, size=777)
    for alpha in (0.05, 1.0, 100.0):
        shards = dirichlet_partition(labels, 7, alpha, seed=11)
        merged = np.concatenate([s.indices for s in shards])
        assert len(merged) == 777
        assert len(np.unique(merged)) == 777


def test_huge_alpha_concentrates_at_uniform():
    rng = np.random.default_rng(7)
    labels = np.repeat(np.arange(10), 100)  # balanced, 1000 samples
    rng.shuffle(labels)
    target = 1000 / 10
    for seed in range(20):
        shards = dirichlet_partition(labels, 10, 1e6, seed=seed)
        sizes = np.array([len(s) for s in shards])
        assert np.abs(sizes - target).max() <= 0.1 * target


def test_small_alpha_is_highly_skewed():
    rng = np.random.default_rng(8)
    labels = rng.integers(0, 10, size=2000)
    shares = [
        _max_class_share(dirichlet_partition(labels, 10, 0.05, seed=s), labels, 10)
        for s in range(20)
    ]
    assert np.mean(shares) > 0.6


def test_skew_monotone_in_alpha():
    rng = np.random.default_rng(9)
    labels = rng.integers(0, 10, size=2000)
    skewed = np.mean(
        [_max_class_share(dirichlet_partition(labels, 10, 0.05, seed=s), labels, 10) for s in range(20)]
    )
    flat = np.mean(
        [_max_class_share(dirichlet_partition(labels, 10, 10.0, seed=s), labels, 10) for s in range(20)]
    )
    assert skewed > flat


def test_partition_deterministic():
    labels = np.random.default_rng(10).integers(0, 5, size=200)
    a = dirichlet_partition(labels, 6, 0.2, seed=3)
    b = dirichlet_partition(labels, 6, 0.2, seed=3)
    for x, y in zip(a, b):
        assert np.array_equal(x.indices, y.indices)


def test_partition_counts_match_class_totals():
    labels = np.random.default_rng(11).integers(0, 6, size=300)
    shards = dirichlet_partition(labels, 5, 0.3, seed=1)
    counts = class_counts(shards, labels, 6)
    assert np.array_equal(counts.sum(axis=0), np.bincount(labels, minlength=6))


def test_partition_invalid_args():
    labels = np.zeros(10, dtype=np.int64)
    with pytest.raises(ValueError, match="num_clients"):
        dirichlet_partition(labels, 0, 0.5, seed=0)
    with pytest.raises(ValueError, match="alpha"):
        dirichlet_partition(labels, 2, 0.0, seed=0)
    # A negative label belongs to no class, so its sample would be left out.
    with pytest.raises(LabelError, match=r"label -1 at index 0 outside \[0, 2\)"):
        dirichlet_partition(np.array([-1, 0, 1]), 2, 0.5, seed=0)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    labels=st.lists(st.integers(0, 9), max_size=60),
    num_clients=st.integers(1, 80),
    alpha=st.floats(1e-6, 1e4),
    seed=st.integers(0, 2**32),
)
def test_partition_is_a_sorted_disjoint_cover(labels, num_clients, alpha, seed):
    # More clients than samples, and alphas from one-client-takes-all to
    # near-uniform, included.
    shards = dirichlet_partition(np.array(labels, dtype=np.int64), num_clients, alpha, seed)
    assert [shard.client_id for shard in shards] == list(range(num_clients))
    for shard in shards:
        assert shard.indices.dtype == np.int64 and np.all(np.diff(shard.indices) > 0)
    cover = np.sort(np.concatenate([shard.indices for shard in shards]))
    assert np.array_equal(cover, np.arange(len(labels)))


@pytest.mark.skipif(
    find_idx_file(DATA_DIR, "mnist", "train_images") is None,
    reason=f"MNIST IDX files not found under {DATA_DIR!r}",
)
def test_official_mnist_train_file_shape():
    images = load_idx_images(find_idx_file(DATA_DIR, "mnist", "train_images"))
    assert images.shape == (60000, 1, 28, 28)
    assert 0.0 <= images.min() and images.max() <= 1.0


# --- synthetic blobs --------------------------------------------------------


def test_blobs_zero_spread_sits_on_anchors():
    ds = synthetic_blobs(3, 8, per_class=4, spread=0.0, seed=0)
    anchors = blob_anchors(3, 8)
    for c in range(3):
        rows = ds.images[ds.labels == c]
        assert np.array_equal(rows, np.tile(anchors[c], (4, 1)))


def test_blobs_separable_by_nearest_anchor():
    ds = synthetic_blobs(2, 8, per_class=50, spread=0.01, seed=1)
    anchors = blob_anchors(2, 8)
    dists = ((ds.images[:, None, :] - anchors[None]) ** 2).sum(axis=2)
    assert np.array_equal(np.argmin(dists, axis=1), ds.labels)


def test_blobs_bitwise_deterministic():
    a = synthetic_blobs(4, 6, per_class=10, spread=0.3, seed=7)
    b = synthetic_blobs(4, 6, per_class=10, spread=0.3, seed=7)
    assert np.array_equal(a.images, b.images) and np.array_equal(a.labels, b.labels)


def test_blobs_validation():
    with pytest.raises(ValueError, match="classes"):
        synthetic_blobs(1, 4, 10, 0.1, seed=0)
    with pytest.raises(ValueError, match="spread"):
        synthetic_blobs(3, 4, 10, -0.5, seed=0)


def test_client_shard_length():
    shard = ClientShard(0, [3, 5, 9])
    assert len(shard) == 3
