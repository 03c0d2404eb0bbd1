import math
import struct

import numpy as np
import pytest

from expanderprune.data import (
    NoiseSpec,
    SequenceDataset,
    add_noise,
    load_csv_sequences,
    load_idx_images,
    synth_task,
    train_test_split,
)
from expanderprune.errors import DomainError, FormatError
from oracles import mean_threshold_label, running_parity_label, save_csv_sequences


def write_idx_fixture(tmp_path, images, labels):
    images = np.asarray(images, dtype=np.uint8)
    labels = np.asarray(labels, dtype=np.uint8)
    n, rows, cols = images.shape
    images_path = tmp_path / "imgs.idx3-ubyte"
    labels_path = tmp_path / "labels.idx1-ubyte"
    with open(images_path, "wb") as f:
        f.write(struct.pack(">IIII", 0x00000803, n, rows, cols))
        f.write(images.tobytes())
    with open(labels_path, "wb") as f:
        f.write(struct.pack(">II", 0x00000801, n))
        f.write(labels.tobytes())
    return images_path, labels_path


def test_idx_round_trip_exact(tmp_path):
    rng = np.random.default_rng(0)
    images = rng.integers(0, 256, size=(2, 5, 4), dtype=np.uint8)
    labels = np.array([3, 1], dtype=np.uint8)
    images_path, labels_path = write_idx_fixture(tmp_path, images, labels)
    ds = load_idx_images(images_path, labels_path)
    assert ds.n == 2 and ds.k == 5 and ds.input_size == 4
    assert np.array_equal(ds.sequences, images.astype(np.float64) / 255.0)
    assert np.array_equal(ds.labels, labels)
    assert ds.class_count == 4


def test_idx_all_zero_image(tmp_path):
    images_path, labels_path = write_idx_fixture(tmp_path, np.zeros((1, 3, 3)), [0])
    ds = load_idx_images(images_path, labels_path)
    assert np.all(ds.sequences == 0.0)


def test_idx_bad_magic_reports_offset(tmp_path):
    images_path, labels_path = write_idx_fixture(tmp_path, np.zeros((1, 2, 2)), [0])
    data = bytearray(images_path.read_bytes())
    data[0] = 0xFF
    images_path.write_bytes(bytes(data))
    with pytest.raises(FormatError, match="byte offset 0"):
        load_idx_images(images_path, labels_path)


def test_idx_truncation_reports_offset(tmp_path):
    images_path, labels_path = write_idx_fixture(tmp_path, np.zeros((2, 3, 3)), [0, 1])
    images_path.write_bytes(images_path.read_bytes()[:-4])
    with pytest.raises(FormatError, match="truncated"):
        load_idx_images(images_path, labels_path)


def test_idx_declared_size_beyond_the_file_is_format_error(tmp_path):
    # 2^32-1 images of 2^32-1 x 2^32-1 pixels: the size is refused before
    # any buffer is sized from it.
    images_path, labels_path = write_idx_fixture(tmp_path, np.zeros((1, 2, 2)), [0])
    images_path.write_bytes(struct.pack(">IIII", 0x00000803, *[2**32 - 1] * 3))
    with pytest.raises(FormatError, match=r"truncated data at byte offset 16$"):
        load_idx_images(images_path, labels_path)


def make_dataset(n=3, k=4, width=5, seed=0):
    rng = np.random.default_rng(seed)
    return SequenceDataset(rng.random((n, k, width)), rng.integers(0, 2, n), 2)


def test_noise_perturbs_exact_count():
    ds = make_dataset(n=4, k=28, width=28)
    noisy = add_noise(ds, NoiseSpec(p=0.2, sigma=0.3, seed=1))
    changed = (noisy.sequences != ds.sequences).reshape(4, -1).sum(axis=1)
    assert np.all(changed == math.ceil(0.2 * 28 * 28))  # 157 positions
    # untouched positions are bit-identical
    same = noisy.sequences == ds.sequences
    assert np.array_equal(noisy.sequences[same], ds.sequences[same])


def test_noise_p_zero_and_sigma_zero_identity():
    ds = make_dataset()
    for spec in (NoiseSpec(p=0.0, sigma=0.5, seed=2), NoiseSpec(p=0.4, sigma=0.0, seed=2)):
        noisy = add_noise(ds, spec)
        assert np.array_equal(noisy.sequences, ds.sequences)


def test_noise_does_not_mutate_input():
    ds = make_dataset()
    before = ds.sequences.copy()
    add_noise(ds, NoiseSpec(p=0.5, sigma=1.0, seed=3))
    assert np.array_equal(ds.sequences, before)


def test_noise_deterministic():
    ds = make_dataset()
    a = add_noise(ds, NoiseSpec(p=0.3, sigma=0.2, seed=4))
    b = add_noise(ds, NoiseSpec(p=0.3, sigma=0.2, seed=4))
    assert np.array_equal(a.sequences, b.sequences)


def test_synth_labels_match_rules():
    ds = synth_task("running-parity", 50, 6, 3, seed=5)
    for i in range(ds.n):
        assert running_parity_label(ds.sequences[i]) == ds.labels[i]
    ds = synth_task("mean-threshold", 50, 6, 3, seed=5)
    for i in range(ds.n):
        assert mean_threshold_label(ds.sequences[i]) == ds.labels[i]


def test_mean_threshold_all_ones_is_one():
    assert mean_threshold_label(np.ones((4, 3))) == 1


def test_synth_balance_exact():
    for kind in ("running-parity", "mean-threshold"):
        ds = synth_task(kind, 10_000, 5, 2, seed=6)
        assert abs(ds.labels.mean() - 0.5) <= 0.02


def test_synth_deterministic():
    a = synth_task("running-parity", 30, 4, 2, seed=7)
    b = synth_task("running-parity", 30, 4, 2, seed=7)
    assert np.array_equal(a.sequences, b.sequences)
    assert np.array_equal(a.labels, b.labels)


def test_synth_rejects_unknown_kind():
    with pytest.raises(DomainError):
        synth_task("sorting", 10, 4, 2, seed=0)


def test_split_sizes_and_partition():
    ds = make_dataset(n=100)
    train, test = train_test_split(ds, 0.2, seed=8)
    assert (train.n, test.n) == (80, 20)
    joined = np.concatenate([train.sequences, test.sequences])
    assert joined.shape[0] == 100
    # exhaustive and disjoint: every original row appears exactly once
    original = {row.tobytes() for row in ds.sequences}
    recovered = [row.tobytes() for row in joined]
    assert len(recovered) == len(set(recovered))
    assert set(recovered) == original


def test_split_deterministic():
    ds = make_dataset(n=40)
    a_train, a_test = train_test_split(ds, 0.25, seed=9)
    b_train, b_test = train_test_split(ds, 0.25, seed=9)
    assert np.array_equal(a_train.sequences, b_train.sequences)
    assert np.array_equal(a_test.labels, b_test.labels)


def test_split_rejects_degenerate_fraction():
    with pytest.raises(DomainError):
        train_test_split(make_dataset(), 0.0, seed=0)


def test_csv_round_trip(tmp_path):
    ds = make_dataset(n=5, k=3, width=2)
    path = tmp_path / "seq.csv"
    save_csv_sequences(ds, path)
    loaded = load_csv_sequences(path)
    assert np.array_equal(loaded.sequences, ds.sequences)
    assert np.array_equal(loaded.labels, ds.labels)
    assert loaded.class_count == ds.class_count


def test_csv_ragged_row_reports_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("2,2,2\n0,1.0,2.0,3.0,4.0\n1,1.0,2.0\n")
    with pytest.raises(FormatError, match="line 3"):
        load_csv_sequences(path)


def test_csv_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("k,w\n")
    with pytest.raises(FormatError, match="line 1"):
        load_csv_sequences(path)
