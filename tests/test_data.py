import hashlib
import math
import struct
import tracemalloc

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


def traced_peak(fn, *args):
    """fn(*args) and the tracemalloc peak of the call, in bytes.  A first,
    untraced call leaves out what only a first call costs (lazy imports)."""
    fn(*args)
    tracemalloc.start()
    try:
        result = fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def test_idx_load_makes_one_float_copy(tmp_path):
    # the raw pixel bytes plus the float64 sequences, and nothing near
    # either size beside them
    images = np.random.default_rng(2).integers(0, 256, size=(400, 28, 28), dtype=np.uint8)
    paths = write_idx_fixture(tmp_path, images, np.arange(400) % 10)
    ds, peak = traced_peak(load_idx_images, *paths)
    assert np.array_equal(ds.sequences, images.astype(np.float64) / 255.0)
    assert peak < images.nbytes + 1.1 * ds.sequences.nbytes


def test_dataset_checks_its_values_without_an_array_their_size():
    sequences = np.random.default_rng(3).random((200, 50, 10))
    labels = np.arange(200) % 2
    ds, peak = traced_peak(SequenceDataset, sequences, labels, 2)
    assert ds.sequences is sequences
    assert peak < sequences.size  # one bool per value would be this many bytes


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_dataset_refuses_a_value_that_is_not_finite(value):
    sequences = np.zeros((3, 4, 2))
    sequences[1, 2, 1] = value
    with pytest.raises(DomainError, match="^sequence values must be finite$"):
        SequenceDataset(sequences, [0, 1, 0], 2)


def test_dataset_of_no_sequences_builds():
    ds = SequenceDataset(np.zeros((0, 4, 2)), np.zeros(0, dtype=np.int64), 2)
    assert (ds.n, ds.k, ds.input_size) == (0, 4, 2)


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


# sha256 of sequences then labels, computed before synth_task built its
# array in place: the desk and wide benchmark shapes and input_size 1
SYNTH_DIGESTS = {
    ("running-parity", 7, (4000, 16, 4)):
        "e553b602568cb81d2506bc585d75c1daf34a1935566974a2243c35c6b7549786",
    ("running-parity", 7, (1000, 16, 4)):
        "1221b047945099151a9c0c226360525b89aa072448400b3babeb2923e14d3bed",
    ("running-parity", 7, (300, 9, 1)):
        "fe41bf94560aa673b8d58cf8802019d237cd52c1db3c2aa8ba6fb54032dea5ac",
    ("running-parity", 11, (4000, 16, 4)):
        "2f5591f4f19f3971f476472edd52076aa848f81059e170ea6a4fa201d4381d89",
    ("running-parity", 11, (1000, 16, 4)):
        "593aa836230ade835a8d36614051c295fbc8a423e26bfdd53ef7966581143119",
    ("running-parity", 11, (300, 9, 1)):
        "211b1800457e1c8aa12acdf6b3c1237084d9abcab35371d1e320e8f278ff247e",
    ("mean-threshold", 7, (4000, 16, 4)):
        "8f24199ebadf482e01d2d7a2e86f01b2cf8b6d5d798f4821b8e05230a0989ff9",
    ("mean-threshold", 7, (1000, 16, 4)):
        "7cb47d77d2fedb087ebddc14fda733c85c9cab37820598b456abe0a096f8ca35",
    ("mean-threshold", 7, (300, 9, 1)):
        "a69d8f91db1ea85be1d4eb55bf8871b42c784287fb9bf2d90a02ba77303eaf42",
    ("mean-threshold", 11, (4000, 16, 4)):
        "5b503e2c837ad813a3b77a1c0b65e195d46d1f77cdd75c956b379e323f243478",
    ("mean-threshold", 11, (1000, 16, 4)):
        "96ded27346857017e5544f66e17b8edc9414a9682f2029a480c7d48ee6a442b6",
    ("mean-threshold", 11, (300, 9, 1)):
        "2fb6545878f51f7d5d5ef24b45f72a8f384b818d06d12a123bf1e9eea2f05f94",
}


@pytest.mark.parametrize("kind, seed, shape", SYNTH_DIGESTS, ids=[
    f"{kind}-seed{seed}-{'x'.join(map(str, shape))}" for kind, seed, shape in SYNTH_DIGESTS])
def test_synth_bytes_are_pinned(kind, seed, shape):
    ds = synth_task(kind, *shape, seed=seed)
    digest = hashlib.sha256()
    digest.update(ds.sequences)
    digest.update(ds.labels)
    assert digest.hexdigest() == SYNTH_DIGESTS[kind, seed, shape]


@pytest.mark.parametrize("kind", ["running-parity", "mean-threshold"])
def test_synth_peak_is_under_twice_what_it_returns(kind):
    ds, peak = traced_peak(synth_task, kind, 4000, 16, 4, 7)
    assert peak < 2 * (ds.sequences.nbytes + ds.labels.nbytes)


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


@pytest.mark.parametrize("bad_line", [b"1,0.75", b"1,\xff,0.75"], ids=["ragged", "not-utf8"])
def test_csv_error_names_the_physical_line_its_row_ends_on(tmp_path, bad_line):
    # the quoted field of the first sequence spans lines 2 and 3
    path = tmp_path / "bad.csv"
    path.write_bytes(b'1,2,2\n0,"0.5\n",0.25\n' + bad_line + b"\n")
    with pytest.raises(FormatError, match=r"bad\.csv: line 4: "):
        load_csv_sequences(path)


@pytest.mark.parametrize("newline", [b"\r", b"\n", b"\r\n"], ids=["cr", "lf", "crlf"])
@pytest.mark.parametrize("bad_line", [b"1,0.75", b"1,\xff,0.75"], ids=["ragged", "not-utf8"])
def test_csv_error_counts_every_line_break_the_reader_does(tmp_path, newline, bad_line):
    path = tmp_path / "bad.csv"
    path.write_bytes(newline.join([b"2,1,2", b"1,2,2", b"0,0.5,0.25", bad_line, b""]))
    with pytest.raises(FormatError, match=r"bad\.csv: line 4: "):
        load_csv_sequences(path)


def test_csv_load_peaks_below_six_times_its_array(tmp_path):
    # no Python float per value and no 4-byte-a-character copy of the text
    path = tmp_path / "seq.csv"
    save_csv_sequences(synth_task("mean-threshold", 2000, 16, 4, seed=0), path)
    ds, peak = traced_peak(load_csv_sequences, path)
    assert peak < 6 * ds.sequences.nbytes


def test_csv_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("k,w\n")
    with pytest.raises(FormatError, match="line 1"):
        load_csv_sequences(path)
