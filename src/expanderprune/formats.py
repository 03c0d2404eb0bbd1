"""On-disk formats: matx matrices, RPRM checkpoints, JSONL trajectories.

matx text format
    Header line ``matx <rows> <cols>`` followed by rows*cols
    whitespace-separated decimal values in row-major order, read as
    bytes: ASCII whitespace separates, and non-ASCII text is FormatError.

RPRM checkpoint (binary, little-endian)
    magic ``RPRM`` | version u32 | cell kind u8 (0 rnn, 1 lstm) |
    input_size u32 | hidden_size u32 | class_count u32 |
    five matrices (W_xh, W_hh, W_hy, b_h as 1 x rows, b_y as 1 x c),
    each ``rows u32 | cols u32 | rows*cols f64 row-major`` |
    two masks (W_xh, W_hh), each ``rows u32 | cols u32`` followed by the
    row-major boolean grid packed 8 bits per byte, LSB first.
    Save and load both walk ``_LAYOUT``, and every stored shape is checked
    against the header (a bias as 1 x n) before any grid is used.

Every binary field of known size is read by ``read_exact``: it checks
the size against the bytes left before it allocates anything, so a file
that ends early fails with FormatError naming the field and its byte
offset, and it reads into one fresh uint8 buffer.  Readers take views of
that buffer: a checkpoint's f64 grids as little-endian floats, its masks
as bool views of the unpacked bits, and IDX pixels by reshaping.

Trajectory files are JSON lines, one record per line; non-finite floats
are serialized as the strings "inf", "-inf", "nan".
"""

from __future__ import annotations

import json
import math
import os
import struct

import numpy as np

from .errors import DomainError, FormatError
from .nets import LSTM, PruneMask, RecurrentParams, RNN, gate_rows

CHECKPOINT_MAGIC = b"RPRM"
CHECKPOINT_VERSION = 1
_CELL_CODES = {RNN: 0, LSTM: 1}
_CELL_NAMES = {code: name for name, code in _CELL_CODES.items()}


def save_matrix_text(M: np.ndarray, path) -> None:
    M = np.asarray(M, dtype=np.float64)
    with open(path, "w") as f:
        f.write(f"matx {M.shape[0]} {M.shape[1]}\n")
        for row in M.tolist():
            f.write(" ".join(map(repr, row)) + "\n")


def load_matrix_text(path) -> np.ndarray:
    with open(path, "rb") as f:
        header = f.readline().split()
        if len(header) != 3 or header[0] != b"matx":
            raise FormatError(f"{path}: expected header 'matx <rows> <cols>'")
        try:
            rows, cols = int(header[1]), int(header[2])
        except ValueError:
            raise FormatError(f"{path}: non-integer dimensions in header") from None
        if rows < 1 or cols < 1:
            raise FormatError(f"{path}: dimensions must be >= 1")
        tokens = f.read().split()
    if len(tokens) != rows * cols:
        raise FormatError(f"{path}: expected {rows * cols} values, found {len(tokens)}")
    try:
        values = np.array(tokens, dtype=np.float64)  # float() on each token
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from None
    return values.reshape(rows, cols)


def _write_matrix(f, M: np.ndarray) -> None:
    M = np.ascontiguousarray(np.atleast_2d(M), dtype="<f8")
    f.write(struct.pack("<II", M.shape[0], M.shape[1]))
    f.write(M.reshape(-1).view(np.uint8))  # the array's own bytes, not a copy


def read_exact(f, count, path, what) -> np.ndarray:
    """The next ``count`` bytes of the file ``f`` as a fresh, writable uint8
    array; FormatError naming ``what`` and the byte offset where it starts
    when the file ends first.

    ``count`` is checked against the bytes left before anything is read,
    so a declared size larger than the file allocates nothing.
    """
    start = f.tell()
    if count <= os.fstat(f.fileno()).st_size - start:
        data = np.empty(count, dtype=np.uint8)  # not bytearray, whose zero fill costs a pass
        if f.readinto(data) == count:
            return data
    raise FormatError(f"{path}: truncated {what} at byte offset {start}")


def _read_matrix(f, path) -> np.ndarray:
    rows, cols = struct.unpack("<II", read_exact(f, 8, path, "matrix header"))
    return read_exact(f, rows * cols * 8, path, "matrix data").view("<f8").reshape(rows, cols)


def _write_mask(f, mask: np.ndarray) -> None:
    mask = np.asarray(mask, dtype=bool)
    f.write(struct.pack("<II", mask.shape[0], mask.shape[1]))
    f.write(np.packbits(mask.ravel(), bitorder="little").tobytes())


def _read_mask(f, path) -> np.ndarray:
    rows, cols = struct.unpack("<II", read_exact(f, 8, path, "mask header"))
    data = read_exact(f, (rows * cols + 7) // 8, path, "mask data")
    bits = np.unpackbits(data, count=rows * cols, bitorder="little")
    return bits.view(bool).reshape(rows, cols)  # the 0/1 bytes as bools, not a copy


# Every grid of a checkpoint in file order: (group, field).  "params" grids
# are RecurrentParams tensors stored as f64; "mask" grids are PruneMask bits.
_LAYOUT = (
    ("params", "w_xh"), ("params", "w_hh"), ("params", "w_hy"),
    ("params", "b_h"), ("params", "b_y"),
    ("mask", "w_xh"), ("mask", "w_hh"),
)
_WRITERS = {"params": _write_matrix, "mask": _write_mask}
_READERS = {"params": _read_matrix, "mask": _read_mask}


def save_checkpoint(path, params: RecurrentParams, mask: PruneMask) -> None:
    groups = {"params": params, "mask": mask}
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<IB", CHECKPOINT_VERSION, _CELL_CODES[params.cell_kind]))
        f.write(struct.pack("<III", params.input_size, params.hidden_size, params.class_count))
        for group, name in _LAYOUT:
            _WRITERS[group](f, getattr(groups[group], name))


def load_checkpoint(path) -> tuple[RecurrentParams, PruneMask]:
    with open(path, "rb") as f:
        magic = bytes(read_exact(f, len(CHECKPOINT_MAGIC), path, "magic"))
        if magic != CHECKPOINT_MAGIC:
            raise FormatError(f"{path}: bad magic {magic!r} at byte offset 0")
        version, cell_code = struct.unpack("<IB", read_exact(f, 5, path, "header"))
        if version != CHECKPOINT_VERSION:
            raise FormatError(f"{path}: unsupported version {version}")
        if cell_code not in _CELL_NAMES:
            raise FormatError(f"{path}: unknown cell kind code {cell_code}")
        sizes = struct.unpack("<III", read_exact(f, 12, path, "sizes"))
        grids = {"params": {}, "mask": {}}
        for group, name in _LAYOUT:
            grids[group][name] = _READERS[group](f, path)
    cell_kind = _CELL_NAMES[cell_code]
    input_size, hidden_size, class_count = sizes
    rows = gate_rows(cell_kind, hidden_size)
    shapes = {"w_xh": (rows, input_size), "w_hh": (rows, hidden_size),
              "w_hy": (class_count, hidden_size), "b_h": (1, rows), "b_y": (1, class_count)}
    for group, name in _LAYOUT:
        got = grids[group][name].shape
        if got != shapes[name]:
            label = name if group == "params" else f"{name} mask"
            raise FormatError(f"{path}: {label} has shape {got}, expected {shapes[name]}")
    tensors = grids["params"]
    tensors["b_h"], tensors["b_y"] = tensors["b_h"].ravel(), tensors["b_y"].ravel()
    return RecurrentParams(cell_kind, *sizes, **tensors), PruneMask(**grids["mask"])


def sanitize_json(value):
    """Replace non-finite floats with the strings 'inf'/'-inf'/'nan'."""
    if isinstance(value, dict):
        return {k: sanitize_json(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [sanitize_json(v) for v in value]
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
    return value


def restore_json(value):
    """Inverse of sanitize_json for the non-finite markers."""
    if isinstance(value, dict):
        return {k: restore_json(v) for k, v in value.items()}
    if isinstance(value, list):
        return [restore_json(v) for v in value]
    if value == "inf":
        return math.inf
    if value == "-inf":
        return -math.inf
    if value == "nan":
        return math.nan
    return value


def dump_json_line(record: dict) -> str:
    """Canonical single-line JSON (sorted keys, compact separators)."""
    return json.dumps(sanitize_json(record), sort_keys=True, separators=(",", ":"))


def parse_json_line(line: str, path="<string>", line_no: int = 0):
    try:
        return restore_json(json.loads(line))
    except (json.JSONDecodeError, RecursionError) as exc:
        raise FormatError(f"{path}: line {line_no}: {exc}") from None
