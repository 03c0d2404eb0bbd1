import hashlib
import math
import types

import numpy as np
import pytest

from expanderprune import formats
from expanderprune.errors import FormatError
from expanderprune.formats import (
    dump_json_line,
    load_checkpoint,
    load_matrix_text,
    parse_json_line,
    restore_json,
    sanitize_json,
    save_checkpoint,
    save_matrix_text,
)
from expanderprune.nets import LSTM, PruneMask, RecurrentParams, RNN, init_params
from test_data import traced_peak


def test_matrix_text_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    M = rng.standard_normal((5, 3))
    path = tmp_path / "m.matx"
    save_matrix_text(M, path)
    assert path.read_text().startswith("matx 5 3\n")
    assert np.array_equal(load_matrix_text(path), M)


def test_matrix_text_bad_header(tmp_path):
    path = tmp_path / "m.matx"
    path.write_text("matrix 2 2\n1 2 3 4\n")
    with pytest.raises(FormatError, match="header"):
        load_matrix_text(path)


def test_matrix_text_wrong_count(tmp_path):
    path = tmp_path / "m.matx"
    path.write_text("matx 2 2\n1 2 3\n")
    with pytest.raises(FormatError, match="expected 4 values"):
        load_matrix_text(path)


def test_matrix_text_load_peaks_below_eleven_times_its_array(tmp_path):
    # the values go through one float64 array, not a list of Python floats
    path = tmp_path / "m.matx"
    save_matrix_text(np.random.default_rng(0).standard_normal((512, 512)), path)
    M, peak = traced_peak(load_matrix_text, path)
    assert peak < 11 * M.nbytes


def test_matrix_text_bytes_are_pinned(tmp_path):
    # Each value is written as Python's shortest round-trip repr, so the
    # text keeps the sign of -0.0, exponent notation for tiny values and
    # the rounding of 2**53 + 1 to a float.
    M = np.array([[0.1, -0.0, 1e-300], [1 / 3, 2**53 + 1, -math.inf]])
    path = tmp_path / "m.matx"
    save_matrix_text(M, path)
    assert path.read_bytes() == (
        b"matx 2 3\n"
        b"0.1 -0.0 1e-300\n"
        b"0.3333333333333333 9007199254740992.0 -inf\n"
    )


@pytest.mark.parametrize("cell", [RNN, LSTM])
def test_checkpoint_round_trip_bit_exact(tmp_path, cell):
    params = init_params(7, 5, 3, cell, seed=2)
    mask = PruneMask.full(params)
    rng = np.random.default_rng(3)
    mask.w_xh[rng.random(mask.w_xh.shape) < 0.3] = False
    mask.w_hh[rng.random(mask.w_hh.shape) < 0.3] = False
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params, mask)
    loaded, loaded_mask = load_checkpoint(path)
    assert loaded.cell_kind == cell
    assert (loaded.input_size, loaded.hidden_size, loaded.class_count) == (7, 5, 3)
    for key in params.tensors():
        assert np.array_equal(loaded.tensors()[key], params.tensors()[key])
    assert np.array_equal(loaded_mask.w_xh, mask.w_xh)
    assert np.array_equal(loaded_mask.w_hh, mask.w_hh)


def test_checkpoint_write_is_deterministic(tmp_path):
    params = init_params(4, 4, 2, RNN, seed=5)
    mask = PruneMask.full(params)
    save_checkpoint(tmp_path / "a.ckpt", params, mask)
    save_checkpoint(tmp_path / "b.ckpt", params, mask)
    assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()


def test_checkpoint_bytes_are_pinned(tmp_path):
    params = RecurrentParams(
        cell_kind=RNN, input_size=2, hidden_size=3, class_count=2,
        w_xh=np.arange(6.0).reshape(3, 2), w_hh=np.arange(9.0).reshape(3, 3) - 4.5,
        w_hy=np.arange(6.0).reshape(2, 3) / 8, b_h=np.arange(3.0), b_y=-np.arange(2.0),
    )
    mask = PruneMask(np.arange(6).reshape(3, 2) % 2 == 0, np.arange(9).reshape(3, 3) % 3 != 0)
    path = tmp_path / "pinned.ckpt"
    save_checkpoint(path, params, mask)
    data = path.read_bytes()
    assert len(data) == 288
    assert hashlib.sha256(data).hexdigest() == (
        "4f5093d31a341ceedaff20529d3f75adc5d0523c7b31a1a2e87d003cc51fb241")
    loaded, loaded_mask = load_checkpoint(path)
    for key, value in params.tensors().items():
        assert np.array_equal(loaded.tensors()[key], value)
    assert np.array_equal(loaded_mask.w_xh, mask.w_xh)
    assert np.array_equal(loaded_mask.w_hh, mask.w_hh)


def test_checkpoint_load_reads_each_grid_into_its_array(tmp_path):
    # the weights and bool masks it returns, and no second copy of a grid
    params = init_params(4, 128, 10, LSTM, seed=6)
    mask = PruneMask.full(params)
    mask.w_hh[::3] = False
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params, mask)
    (loaded, loaded_mask), peak = traced_peak(load_checkpoint, path)
    assert peak < 1.4 * path.stat().st_size
    assert loaded_mask.w_hh.dtype == bool and np.array_equal(loaded_mask.w_hh, mask.w_hh)
    assert np.array_equal(loaded.w_hh, params.w_hh)


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"NOPE" + bytes(40))
    with pytest.raises(FormatError, match="magic"):
        load_checkpoint(path)


def test_checkpoint_truncation(tmp_path):
    params = init_params(4, 4, 2, RNN, seed=5)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params, PruneMask.full(params))
    path.write_bytes(path.read_bytes()[:-3])
    with pytest.raises(FormatError, match="truncated"):
        load_checkpoint(path)


@pytest.mark.parametrize("file_size", ["true", "overstated"])
def test_checkpoint_cut_inside_a_grid_names_the_grid_and_its_offset(tmp_path, monkeypatch,
                                                                   file_size):
    # An overstated size passes the check made before the buffer is sized,
    # so the read itself comes up short and is refused with the same text.
    params = init_params(4, 4, 2, RNN, seed=5)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params, PruneMask.full(params))
    path.write_bytes(path.read_bytes()[:29 + 10])  # 21 header bytes, 8 for the W_xh shape
    if file_size == "overstated":
        monkeypatch.setattr(formats.os, "fstat", lambda fd: types.SimpleNamespace(st_size=2**40))
    with pytest.raises(FormatError, match=r"model\.ckpt: truncated matrix data at byte offset 29$"):
        load_checkpoint(path)


def test_json_line_round_trips_nonfinite():
    record = {"a": math.inf, "b": -math.inf, "c": 1.5, "nested": [math.inf, {"d": 2}]}
    line = dump_json_line(record)
    assert "Infinity" not in line
    restored = parse_json_line(line)
    assert restored["a"] == math.inf
    assert restored["b"] == -math.inf
    assert restored["nested"][0] == math.inf
    assert restored["c"] == 1.5


def test_json_line_is_canonical():
    a = dump_json_line({"b": 1, "a": 2})
    b = dump_json_line({"a": 2, "b": 1})
    assert a == b


def test_sanitize_restore_inverse():
    value = {"x": [1.0, math.inf], "y": {"z": -math.inf}}
    assert restore_json(sanitize_json(value)) == value


def test_parse_json_line_reports_location():
    with pytest.raises(FormatError, match="traj.jsonl: line 7"):
        parse_json_line("{bad", "traj.jsonl", 7)
