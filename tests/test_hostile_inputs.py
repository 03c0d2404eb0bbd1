"""Property tests: a damaged checkpoint or arbitrary matx bytes either
analyze cleanly or fail with one coded error line, never a traceback."""

import contextlib
import functools
import io
import struct
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings, strategies as st

from expanderprune.cli import main
from expanderprune.formats import save_checkpoint
from expanderprune.nets import LSTM, PruneMask, init_params

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


def _assert_analyze_contract(data: bytes) -> None:
    """analyze --per-gate on ``data`` exits 0, or 2 with exactly one
    ``error: CODE: ...`` line whose CODE is not the catch-all EINVAL."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input"
        path.write_bytes(data)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["analyze", str(path), "--per-gate"])
    if code == 0:
        assert err.getvalue() == ""
        return
    assert code == 2
    assert out.getvalue() == ""
    lines = err.getvalue().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: E"), lines
    code_name = lines[0].split(":")[1].strip()
    assert code_name != "EINVAL", lines[0]


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
