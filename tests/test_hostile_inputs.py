"""Property tests: a damaged checkpoint or arbitrary matx bytes either
analyze and unroll cleanly or fail with one coded error line, never a
traceback; a damaged trajectory is read by report and resume through one
rule; and a damaged config, CSV or IDX input loads or raises one coded
error."""

import contextlib
import functools
import io
import struct
import tempfile
from pathlib import Path
from unittest import mock

from hypothesis import HealthCheck, example, given, settings, strategies as st

from expanderprune.cli import main
from expanderprune.config import load_config
from expanderprune.data import load_csv_sequences, load_idx_images, synth_task
from expanderprune.formats import save_checkpoint
from expanderprune.nets import LSTM, PruneMask, init_params
from expanderprune.pruning import RunDirectory
from oracles import save_csv_sequences

_PARAMS = init_params(3, 4, 2, LSTM, seed=0)


def _layout():
    """Byte offsets of the header's u32 fields and of every grid's rows and
    cols in the checkpoint of _PARAMS, and that file's length."""
    offsets, at = [4, 9, 13, 17], 21
    grids = [getattr(_PARAMS, name) for name in ("w_xh", "w_hh", "w_hy", "b_h", "b_y")]
    for grid in grids:
        offsets += [at, at + 4]
        at += 8 + grid.nbytes
    for grid in grids[:2]:
        offsets += [at, at + 4]
        at += 8 + (grid.size + 7) // 8
    return offsets, at


FIELD_OFFSETS, BASE_LENGTH = _layout()
FIELD_VALUES = [0, 1, 2, 7, 255, 65535, 2**31, 2**32 - 1]
B_H_ROWS, B_Y_ROWS = FIELD_OFFSETS[10], FIELD_OFFSETS[12]


@functools.cache
def _base_checkpoint() -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "base.ckpt"
        save_checkpoint(path, _PARAMS, PruneMask.full(_PARAMS))
        data = path.read_bytes()
    assert len(data) == BASE_LENGTH
    return data


_mutations = st.one_of(
    st.tuples(st.just("flip"), st.integers(0, BASE_LENGTH - 1), st.integers(1, 255)),
    st.tuples(st.just("truncate"), st.integers(0, BASE_LENGTH - 1), st.just(0)),
    st.tuples(st.just("set"),
              st.one_of(st.sampled_from(FIELD_OFFSETS), st.integers(0, BASE_LENGTH - 4)),
              st.sampled_from(FIELD_VALUES)),
)


def _mutate(data: bytes, mutation) -> bytes:
    kind, offset, value = mutation
    if kind == "flip":
        return data[:offset] + bytes([data[offset] ^ value]) + data[offset + 1:]
    if kind == "truncate":
        return data[:offset]
    return data[:offset] + struct.pack("<I", value) + data[offset + 4:]


def _quiet_main(argv):
    """(exit code, stdout, stderr) of cli.main(argv)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _assert_exit_contract(code: int, out: str, err: str) -> None:
    """Exit 0, or 2 with exactly one ``error: CODE: ...`` line whose CODE
    is not the catch-all EINVAL."""
    if code == 0:
        assert err == ""
        return
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: E"), lines
    code_name = lines[0].split(":")[1].strip()
    assert code_name != "EINVAL", lines[0]


def _assert_analyze_contract(data: bytes) -> None:
    """analyze --per-gate and unroll --k 2 on ``data`` keep _assert_exit_contract."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input"
        path.write_bytes(data)
        _assert_exit_contract(*_quiet_main(["analyze", str(path), "--per-gate"]))
        _assert_exit_contract(*_quiet_main(["unroll", str(path), "--k", "2"]))


_SETTINGS = settings(derandomize=True, database=None, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])


@settings(_SETTINGS, max_examples=300)
@given(st.lists(_mutations, min_size=1, max_size=3))
@example([("set", B_H_ROWS, 0)])
@example([("set", B_Y_ROWS, 0)])
@example([("flip", 0, 0x80)])
def test_mutated_checkpoint_analyzes_or_fails_with_one_coded_line(mutations):
    data = _base_checkpoint()
    for mutation in mutations:
        if data:
            kind, offset, value = mutation
            data = _mutate(data, (kind, min(offset, len(data) - 1), value))
    _assert_analyze_contract(data)


_matx_text = st.builds(
    lambda rows, cols, tokens, sep: f"matx {rows} {cols}\n".encode() + sep.join(tokens),
    st.integers(-1, 3), st.integers(-1, 3),
    st.lists(st.sampled_from([b"0", b"1.5", b"-2e3", b"nan", b"inf", b"x", b"\xff", b"\xc2\xa0"]),
             max_size=10),
    st.sampled_from([b" ", b"\n", b"\t", b"\xc2\xa0"]),
)


@settings(_SETTINGS, max_examples=200)
@given(st.one_of(st.binary(max_size=64), _matx_text))
@example(b"matx 1 1\n\xff\n")
def test_arbitrary_matx_bytes_analyze_or_fail_with_one_coded_line(data):
    _assert_analyze_contract(data)


_RUN_CONFIG = """
[experiment]
cell_kind = rnn
hidden_size = 3
seed = 1

[data]
source = synth
synth_kind = mean-threshold
n_samples = 20
k = 2
input_size = 2

[train]
train_epochs = 1
batch_size = 16

[prune]
rounds = 2
finetune_epochs = 1
"""


def _read_dir(path: Path) -> dict:
    return {p.name: p.read_bytes() for p in path.iterdir()}


@functools.cache
def _base_run() -> tuple:
    """The files of a 3-round run (rounds 0..2) as (name, bytes) pairs."""
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "run.ini"
        config.write_text(_RUN_CONFIG)
        code, _, err = _quiet_main(["prune", "--config", str(config), "--out", f"{tmp}/run"])
        assert (code, err) == (0, "")
        return tuple(sorted(_read_dir(Path(tmp) / "run").items()))


_line_index = st.integers(0, 2)
_line_mutations = st.one_of(
    st.tuples(st.just("flip"), st.integers(0, 2**16), st.integers(1, 255)),
    st.tuples(st.just("truncate"), st.integers(0, 2**16), st.just(0)),
    st.tuples(st.sampled_from(["drop", "duplicate", "blank"]), _line_index, st.just(0)),
    st.tuples(st.just("swap"), _line_index, _line_index),
    st.tuples(st.just("nest"), _line_index, st.integers(1, 100_000)),
)


def _mutate_lines(data: bytes, mutation) -> bytes:
    """``data`` with one byte flipped, cut short, or one line dropped,
    duplicated, swapped with another, preceded by a blank line or replaced
    by ``b`` nested JSON arrays."""
    kind, a, b = mutation
    if kind in ("flip", "truncate"):
        if not data:
            return data
        a %= len(data)
        return data[:a] + bytes([data[a] ^ b]) + data[a + 1:] if kind == "flip" else data[:a]
    lines = data.splitlines(keepends=True)
    if not lines:
        return data
    if kind == "nest":
        lines[a % len(lines)] = b"[" * b + b"]" * b + b"\n"
        return b"".join(lines)
    a, b = a % len(lines), b % len(lines)
    if kind == "drop":
        del lines[a]
    elif kind == "duplicate":
        lines.insert(a, lines[a])
    elif kind == "blank":
        lines.insert(a, b"\n")
    else:
        lines[a], lines[b] = lines[b], lines[a]
    return b"".join(lines)


@settings(_SETTINGS, max_examples=150)
@given(st.lists(_line_mutations, min_size=1, max_size=3))
@example([("swap", 1, 2)])
@example([("duplicate", 1, 0)])
@example([("blank", 1, 0)])
@example([("truncate", -1, 0)])  # the last line loses its newline
@example([("nest", 1, 100_000)])  # deeper than the parser's recursion limit
def test_mutated_trajectory_lines_report_and_resume_by_one_rule(mutations):
    # report and a resuming prune read the lines by one rule: report
    # accepts a file exactly when resume keeps every one of its lines.
    data = dict(_base_run())["trajectory.jsonl"]
    for mutation in mutations:
        data = _mutate_lines(data, mutation)
    with tempfile.TemporaryDirectory() as tmp:
        run = Path(tmp) / "run"
        run.mkdir()
        for name, content in _base_run():
            (run / name).write_bytes(content)
        trajectory = run / "trajectory.jsonl"
        trajectory.write_bytes(data)

        code, out, err = _quiet_main(["report", str(trajectory), "--out", f"{tmp}/fig.svg"])
        _assert_exit_contract(code, out, err)
        report_accepted = code == 0

        config = Path(tmp) / "run.ini"
        config.write_text(_RUN_CONFIG)
        before = _read_dir(run)
        resumed_from = []

        def resume(self):
            result = real_resume(self)
            resumed_from.append(trajectory.read_bytes())
            return result

        real_resume = RunDirectory.resume
        with mock.patch.object(RunDirectory, "resume", resume):
            code, _, err = _quiet_main(["prune", "--config", str(config), "--out", str(run)])
        assert code in (0, 2), err
        if code == 2:
            assert _read_dir(run) == before
        assert report_accepted == (resumed_from == [data] and data != b"")


# Tokens worth inserting into text inputs: INI and CSV syntax, '%' (which
# INI interpolation would read), bytes that are not UTF-8, a NUL, and a
# field past the csv module's 131,072-byte limit.
_INSERTS = [b"%", b"%(seed)s", b"[", b"]", b"[DEFAULT]\n", b"=", b":", b";", b",", b'"', b"\n",
            b"\r", b"\x00", b"\xff", b"\xc2\xa0", b"nan", b"-1", b"9" * 30, b"7" * 140_000]

_byte_mutations = st.one_of(
    st.tuples(st.just("flip"), st.integers(0, 2**16), st.integers(1, 255)),
    st.tuples(st.just("truncate"), st.integers(0, 2**16), st.just(0)),
    st.tuples(st.just("insert"), st.integers(0, 2**16), st.sampled_from(_INSERTS)),
    st.tuples(st.just("set"), st.integers(0, 2**16), st.sampled_from(FIELD_VALUES)),
)


def _mutate_bytes(data: bytes, mutation) -> bytes:
    """``data`` with one byte flipped, cut short, a token inserted or a
    big-endian u32 written at an offset (taken modulo its length + 1)."""
    kind, offset, value = mutation
    offset %= len(data) + 1
    if kind == "insert":
        return data[:offset] + value + data[offset:]
    if kind == "truncate":
        return data[:offset]
    if kind == "set":
        return data[:offset] + struct.pack(">I", value) + data[offset + 4:]
    if offset == len(data):
        return data
    return data[:offset] + bytes([data[offset] ^ value]) + data[offset + 1:]


def _assert_damaged_file_contract(load, base: bytes, damage) -> None:
    """``load`` of ``base`` damaged by ``damage`` (a mutation list, or bytes
    that replace it) returns, or raises a ValueError with a code other than
    the catch-all EINVAL; anything else escapes and fails the test."""
    data = damage if isinstance(damage, bytes) else functools.reduce(_mutate_bytes, damage, base)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input"
        path.write_bytes(data)
        try:
            load(path)
        except ValueError as exc:
            assert getattr(type(exc), "code", "EINVAL") != "EINVAL", repr(exc)


_damage = st.one_of(st.lists(_byte_mutations, min_size=1, max_size=3), st.binary(max_size=64))


@settings(_SETTINGS, max_examples=200)
@given(_damage)
@example([("insert", 30, b"%")])
@example([("insert", 30, b"\xff")])
def test_damaged_config_loads_or_fails_with_one_coded_error(damage):
    _assert_damaged_file_contract(load_config, _RUN_CONFIG.encode(), damage)


@functools.cache
def _base_csv() -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "base.csv"
        save_csv_sequences(synth_task("mean-threshold", 3, 2, 2, seed=0), path)
        return path.read_bytes()


@settings(_SETTINGS, max_examples=200)
@given(_damage)
@example([("insert", 10, b"\xff")])
@example([("insert", 10, b"7" * 140_000)])
@example([("insert", 8, b"9" * 30)])  # a label past int64
def test_damaged_csv_loads_or_fails_with_one_coded_error(damage):
    _assert_damaged_file_contract(load_csv_sequences, _base_csv(), damage)


# Three 2x3 IDX images and their labels.
IDX_IMAGES = struct.pack(">IIII", 0x803, 3, 2, 3) + bytes(range(0, 180, 10))
IDX_LABELS = struct.pack(">II", 0x801, 3) + bytes([0, 1, 2])


@settings(_SETTINGS, max_examples=200)
@given(st.booleans(), _damage)
@example(True, [("set", 4, 2**32 - 1)])
@example(False, [("set", 4, 2)])
def test_damaged_idx_pair_loads_or_fails_with_one_coded_error(damage_labels, damage):
    # One file of a valid pair is damaged; the other is left whole.
    with tempfile.TemporaryDirectory() as tmp:
        whole = Path(tmp) / "whole"
        whole.write_bytes(IDX_IMAGES if damage_labels else IDX_LABELS)

        def load(path):
            return load_idx_images(whole, path) if damage_labels else load_idx_images(path, whole)

        _assert_damaged_file_contract(load, IDX_LABELS if damage_labels else IDX_IMAGES, damage)
