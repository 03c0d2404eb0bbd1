"""Sequence classification datasets.

Sources: IDX image/label pairs turned into scanline sequences (one image
row per time step), synthetic desk-scale tasks, and a generic CSV
layout.  Datasets are immutable after construction; every generator is
deterministic for a fixed seed.  IDX files are read through
formats.read_exact, so a truncated file fails with FormatError at the
byte offset where it ends.
"""

from __future__ import annotations

import csv
import io
import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, FormatError, ShapeError, check_fields
from .formats import read_exact
from .nets import check_labels

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801

SYNTH_KINDS = ("running-parity", "mean-threshold")
NOISE_TARGETS = ("both", "train", "test")


@dataclass(frozen=True)
class SequenceDataset:
    """n sequences of shape (k, input_size) with integer class labels."""

    sequences: np.ndarray  # (n, k, input_size) float64
    labels: np.ndarray     # (n,) int64
    class_count: int

    def __post_init__(self):
        seqs = np.asarray(self.sequences, dtype=np.float64)
        if seqs.ndim != 3:
            raise ShapeError(f"sequences must be (n, k, input_size), got {seqs.shape}")
        if np.shape(self.labels) != (seqs.shape[0],):
            raise ShapeError("labels length does not match sequence count")
        if not np.all(np.isfinite(seqs)):
            raise DomainError("sequence values must be finite")
        object.__setattr__(self, "sequences", seqs)
        object.__setattr__(self, "labels", check_labels(self.labels, self.class_count))

    @property
    def n(self) -> int:
        return self.sequences.shape[0]

    @property
    def k(self) -> int:
        return self.sequences.shape[1]

    @property
    def input_size(self) -> int:
        return self.sequences.shape[2]

    def subset(self, indices) -> "SequenceDataset":
        idx = np.asarray(indices)
        return SequenceDataset(self.sequences[idx], self.labels[idx], self.class_count)


@dataclass(frozen=True)
class NoiseSpec:
    """Perturb a fraction p of each sequence's scalar positions with
    zero-mean Gaussian draws of standard deviation sigma, in the train
    split, the test split, or both (apply_to)."""

    p: float = 0.20
    sigma: float = 0.30
    seed: int = 0
    apply_to: str = "both"

    def __post_init__(self):
        check_fields([
            ("p", 0.0 <= self.p <= 1.0, "must lie in [0, 1]"),
            ("sigma", 0.0 <= self.sigma < math.inf, "must be >= 0 and finite"),
            ("seed", self.seed >= 0, "must be >= 0"),
            ("apply_to", self.apply_to in NOISE_TARGETS,
             f"{self.apply_to!r} not in {NOISE_TARGETS}"),
        ])


def _read_idx(path, magic, ndim) -> np.ndarray:
    """The uint8 array of one big-endian IDX file with ``ndim`` dimensions."""
    with open(path, "rb") as f:
        (found,) = struct.unpack(">I", read_exact(f, 4, path, "magic"))
        if found != magic:
            raise FormatError(f"{path}: bad magic 0x{found:08x} at byte offset 0, expected 0x{magic:08x}")
        shape = struct.unpack(f">{ndim}I", read_exact(f, 4 * ndim, path, "dimensions"))
        data = read_exact(f, math.prod(shape), path, "data")
    return np.frombuffer(data, dtype=np.uint8).reshape(shape)


def load_idx_images(images_path, labels_path) -> SequenceDataset:
    """Parse big-endian IDX image/label files into scanline sequences.

    Image row i becomes time step i; pixel values are scaled to [0, 1].
    Magic numbers and lengths are validated; errors carry the byte
    offset of the problem.
    """
    pixels = _read_idx(images_path, IDX_IMAGES_MAGIC, 3)
    labels = _read_idx(labels_path, IDX_LABELS_MAGIC, 1)
    if len(labels) != len(pixels):
        raise FormatError(f"{labels_path}: {len(labels)} labels for {len(pixels)} images")
    sequences = pixels.astype(np.float64) / 255.0
    class_count = int(labels.max()) + 1 if labels.size else 1
    return SequenceDataset(sequences, labels.astype(np.int64), class_count)


def add_noise(ds: SequenceDataset, spec: NoiseSpec) -> SequenceDataset:
    """Perturb exactly ceil(p * k * input_size) positions per sequence.

    Positions are chosen without replacement, independently per sequence;
    untouched positions keep their exact bit pattern.  The input dataset
    is left unmodified.
    """
    flat_size = ds.k * ds.input_size
    n_hit = math.ceil(spec.p * flat_size)
    out = ds.sequences.copy()
    flat = out.reshape(ds.n, flat_size)
    for i in range(ds.n):
        rng = np.random.default_rng((spec.seed, i))
        positions = rng.choice(flat_size, size=n_hit, replace=False)
        flat[i, positions] += rng.normal(0.0, spec.sigma, size=n_hit)
    return SequenceDataset(out, ds.labels.copy(), ds.class_count)


def synth_task(kind: str, n_samples: int, k: int, input_size: int, seed: int = 0) -> SequenceDataset:
    """Balanced two-class synthetic sequence tasks.

    running-parity: feature 0 is a 0/1 event indicator and the label is
    the parity of the event count.  The remaining features are noisy
    echoes of the event (event times U(0.8, 1.2), zero on non-event
    steps) so every input column carries signal and stays populated
    under magnitude pruning.  Samples whose parity misses the exactly
    balanced target get the event at one random step flipped.

    mean-threshold: all features are U(0,1); the label says whether the
    global mean exceeds 0.5.  Mismatched samples are reflected
    (x -> 1 - x), which flips the label and preserves the distribution.
    """
    if kind not in SYNTH_KINDS:
        raise DomainError(f"unknown synthetic task {kind!r}")
    if n_samples < 1 or k < 1 or input_size < 1:
        raise DomainError("n_samples, k and input_size must be >= 1")
    rng = np.random.default_rng((seed, 0xDA7A))
    targets = rng.permutation(np.arange(n_samples) % 2).astype(np.int64)
    X = rng.uniform(0.0, 1.0, size=(n_samples, k, input_size))
    if kind == "running-parity":
        X[:, :, 0] = (X[:, :, 0] > 0.5).astype(np.float64)

        def echo(events, shape):
            return events * rng.uniform(0.8, 1.2, size=shape)

        X[:, :, 1:] = echo(X[:, :, [0]], (n_samples, k, input_size - 1))
        labels = np.count_nonzero(X[:, :, 0] > 0.5, axis=1) % 2
        for i in np.flatnonzero(labels != targets):
            j = int(rng.integers(k))
            X[i, j, 0] = 1.0 - X[i, j, 0]
            X[i, j, 1:] = echo(X[i, j, 0], input_size - 1)
    else:
        flip = (X.reshape(n_samples, -1).mean(axis=1) > 0.5) != targets
        X[flip] = 1.0 - X[flip]
    return SequenceDataset(X, targets, 2)


def train_test_split(ds: SequenceDataset, test_fraction: float = 0.20, seed: int = 0):
    """Deterministic shuffled partition into (train, test)."""
    if not 0.0 < test_fraction < 1.0:
        raise DomainError("test_fraction must lie strictly between 0 and 1")
    order = np.random.default_rng((seed, 0x5417)).permutation(ds.n)
    n_test = int(round(ds.n * test_fraction))
    return ds.subset(order[n_test:]), ds.subset(order[:n_test])


def load_csv_sequences(path) -> SequenceDataset:
    """Read the documented CSV sequence layout.

    Line 1 is the header ``k,input_size,class_count``; every following
    line is one sequence: the integer label, then k*input_size values in
    step-major order.  Ragged or malformed rows, bytes that are not
    UTF-8 and fields past the csv module's size limit raise FormatError
    with their line number.
    """
    with open(path, "rb") as f:
        raw = f.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise FormatError(f"{path}: line {line}: not UTF-8 text ({exc.reason})") from None
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = next(reader, None)
        if header is None:
            raise FormatError(f"{path}: empty file, expected header line")
        try:
            k, input_size, class_count = (int(v) for v in header)
        except ValueError:
            raise FormatError(
                f"{path}: line 1: header must be 'k,input_size,class_count'"
            ) from None
        if k < 1 or input_size < 1 or class_count < 1:
            raise FormatError(f"{path}: line 1: header values must be >= 1")
        width = k * input_size
        sequences, labels = [], []
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != width + 1:
                raise FormatError(
                    f"{path}: line {line_no}: expected {width + 1} fields, got {len(row)}"
                )
            try:
                labels.append(int(row[0]))
                sequences.append([float(v) for v in row[1:]])
            except ValueError as exc:
                raise FormatError(f"{path}: line {line_no}: {exc}") from None
    except csv.Error as exc:
        raise FormatError(f"{path}: line {reader.line_num}: {exc}") from None
    if not sequences:
        raise FormatError(f"{path}: no sequences after the header")
    X = np.array(sequences).reshape(len(sequences), k, input_size)
    try:
        return SequenceDataset(X, np.array(labels), class_count)
    except (DomainError, ShapeError, OverflowError) as exc:
        raise FormatError(f"{path}: {exc}") from None

