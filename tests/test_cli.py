import gc
import json
import math
import os
import shutil
import struct
import subprocess
import sys
import weakref
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from expanderprune import cli, pruning
from expanderprune.cli import main
from expanderprune.errors import DegenerateGraphError
from expanderprune.formats import (dump_json_line, load_checkpoint, load_matrix_text,
                                   sanitize_json, save_checkpoint, save_matrix_text)
from expanderprune.graphs import build_bipartite, spectral_gaps
from expanderprune.nets import LSTM, RNN, PruneMask, init_params
from expanderprune.pruning import RunDirectory
from expanderprune.svgplot import render_trajectory
from test_data import traced_peak, write_idx_fixture
from test_pruning import fake_record, tiny_run, trajectory_from_gaps

SRC = Path(__file__).resolve().parent.parent / "src"

CONFIG = """
[experiment]
cell_kind = rnn
hidden_size = 6
seed = 3
output_dir = {out}

[data]
source = synth
synth_kind = mean-threshold
n_samples = 80
k = 4
input_size = 3

[train]
learning_rate = 0.003
train_epochs = 2
batch_size = 20

[prune]
rounds = 3
final_fraction = 0.05
finetune_epochs = 1
"""

NOISE = """
[noise]
p = 0.2
sigma = 0.3
apply_to = train
"""


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_identity_matrix(tmp_path, capsys):
    path = tmp_path / "eye.matx"
    save_matrix_text(np.eye(4), path)
    code, out, _ = run_cli(capsys, "analyze", str(path), "--mode", "weighted")
    assert code == 0
    payload = json.loads(out)
    (report,) = payload["reports"]
    assert report["layer"] == "matrix"
    assert report["lambda1"] == 1.0
    assert report["lambda2"] == 1.0
    assert report["delta_s"] == -1.0


def test_analyze_missing_file_exits_2(tmp_path, capsys):
    code, _, err = run_cli(capsys, "analyze", str(tmp_path / "nope.matx"))
    assert code == 2
    assert err.startswith("error: ENOENT:")
    assert "\n" not in err.strip()


def test_analyze_fresh_checkpoint_reports_positive_gaps(tmp_path, capsys):
    params = init_params(28, 128, 10, "rnn", seed=0)
    ckpt = tmp_path / "dense.ckpt"
    save_checkpoint(ckpt, params, PruneMask.full(params))
    code, out, _ = run_cli(capsys, "analyze", str(ckpt))
    assert code == 0
    payload = json.loads(out)
    assert {r["layer"] for r in payload["reports"]} == {"w_xh", "w_hh"}
    for report in payload["reports"]:
        value = report["delta_s"]
        if report["mode"] == "unweighted":
            assert value == "inf"  # dense support: lambda2 = 0
        else:
            assert value == "inf" or value > 0


@pytest.mark.parametrize("rows, cols", [(2**32 - 1, 2**32 - 1), (2**31, 8)],
                         ids=["overflowing", "oversized"])
def test_analyze_refuses_a_declared_size_beyond_the_file(tmp_path, capsys, rows, cols):
    # The RPRM header of an LSTM (input 4, hidden 4, 2 classes), then one
    # matrix header whose data would not fit in memory, let alone the file.
    path = tmp_path / "big.ckpt"
    path.write_bytes(b"RPRM" + struct.pack("<IB", 1, 1) + struct.pack("<III", 4, 4, 2)
                     + struct.pack("<II", rows, cols))
    code, out, err = run_cli(capsys, "analyze", str(path), "--per-gate")
    assert code == 2
    assert out == ""
    assert err == f"error: EFORMAT: {path}: truncated matrix data at byte offset 29\n"


def test_analyze_per_gate_lstm(tmp_path, capsys):
    params = init_params(5, 4, 2, LSTM, seed=1)
    ckpt = tmp_path / "lstm.ckpt"
    save_checkpoint(ckpt, params, PruneMask.full(params))
    code, out, _ = run_cli(capsys, "analyze", str(ckpt), "--layer", "wxh",
                           "--mode", "weighted", "--per-gate")
    assert code == 0
    layers = [r["layer"] for r in json.loads(out)["reports"]]
    assert layers == ["w_xh", "w_xh[i]", "w_xh[f]", "w_xh[g]", "w_xh[o]"]


def test_analyze_per_gate_marks_an_edgeless_gate_block(tmp_path, capsys):
    params = init_params(5, 4, 2, LSTM, seed=1)
    mask = PruneMask.full(params)
    mask.w_hh[4:8] = False  # W_hh's f gate keeps no edge
    ckpt = tmp_path / "lstm.ckpt"
    save_checkpoint(ckpt, params, mask)
    code, out, err = run_cli(capsys, "analyze", str(ckpt), "--per-gate")
    assert (code, err) == (0, "")
    reports = json.loads(out)["reports"]
    blocks = [f"{layer}{gate}" for layer in ("w_xh", "w_hh")
              for gate in ("", "[i]", "[f]", "[g]", "[o]")]
    assert [r["layer"] for r in reports] == [block for block in blocks for _ in range(2)]
    assert reports[14:16] == [{"layer": "w_hh[f]", "mode": mode, "error": "EDEGENERATE"}
                              for mode in ("weighted", "unweighted")]
    # Every other report is the one analyze prints where no block is edgeless.
    _, whole, _ = run_cli(capsys, "analyze", str(ckpt))
    assert [r for r in reports if r["layer"] in ("w_xh", "w_hh")] == json.loads(whole)["reports"]
    _, gates, _ = run_cli(capsys, "analyze", str(ckpt), "--layer", "wxh", "--per-gate")
    assert reports[:10] == json.loads(gates)["reports"]
    assert all("lambda1" in r for r in reports[10:14] + reports[16:])


def test_analyze_reports_every_block_beside_an_edgeless_layer(tmp_path, capsys):
    params = init_params(3, 4, 2, LSTM, seed=1)
    mask = PruneMask.full(params)
    mask.w_xh[:] = False  # W_xh and each of its gate blocks keep no edge
    ckpt = tmp_path / "lstm.ckpt"
    save_checkpoint(ckpt, params, mask)
    code, out, err = run_cli(capsys, "analyze", str(ckpt), "--per-gate")
    assert (code, err) == (0, "")
    reports = json.loads(out)["reports"]
    assert reports[:10] == [{"layer": f"w_xh{gate}", "mode": mode, "error": "EDEGENERATE"}
                            for gate in ("", "[i]", "[f]", "[g]", "[o]")
                            for mode in ("weighted", "unweighted")]
    _, whh, _ = run_cli(capsys, "analyze", str(ckpt), "--layer", "whh", "--per-gate")
    assert reports[10:] == json.loads(whh)["reports"] and len(reports) == 20
    # With no block left that has an edge, there is nothing to report.
    code, out, err = run_cli(capsys, "analyze", str(ckpt), "--layer", "wxh", "--per-gate")
    assert (code, out, err) == (2, "", f"error: EDEGENERATE: {ckpt}: graph has no edges\n")


def _layer_file(tmp_path, kind):
    """A 6x6 matx matrix, or an RNN or LSTM checkpoint with a pruned mask.  Each
    holds kept exact zeros and negative zeros; the LSTM's W_hh f gate keeps no edge."""
    rng = np.random.default_rng(61)
    if kind == "matx":
        W = rng.standard_normal((6, 6))
        W[0, :2] = 0.0, -0.0
        path = tmp_path / "w.matx"
        save_matrix_text(W, path)
        return path
    params = init_params(3, 4, 2, kind, seed=62)
    mask = PruneMask(rng.random(params.w_xh.shape) < 0.7, rng.random(params.w_hh.shape) < 0.7)
    params.w_hh[0, :2] = 0.0, -0.0
    mask.w_hh[0, :2] = True
    if kind == LSTM:
        mask.w_hh[4:8] = False
    path = tmp_path / f"{kind}.ckpt"
    save_checkpoint(path, params, mask)
    return path


def _reports_of_fresh_copies(path, layers, modes):
    """analyze's reports for ``layers`` (with each LSTM gate) in ``modes``, each
    from build_bipartite on a fresh load of ``path``, which copies the block."""
    if path.suffix == ".matx":
        blocks = [("matrix", load_matrix_text(path), None)]
    else:
        params, mask = load_checkpoint(path)
        H = params.hidden_size
        parts = [("", slice(None))]
        if params.cell_kind == LSTM:
            parts += [(f"[{gate}]", slice(g * H, (g + 1) * H)) for g, gate in enumerate("ifgo")]
        blocks = [(layer + suffix, getattr(params, layer)[rows], getattr(mask, layer)[rows])
                  for layer in layers for suffix, rows in parts]
    reports = []
    for label, W, keep in blocks:
        for mode in modes:
            try:
                report = asdict(spectral_gaps(build_bipartite(W, keep, mode)))
            except DegenerateGraphError as exc:
                report = {"error": exc.code}
            reports.append({"layer": label, "mode": mode, **report})
    return json.loads(json.dumps(sanitize_json(reports)))


@pytest.mark.parametrize("layer, layers", [("wxh", ("w_xh",)), ("whh", ("w_hh",)),
                                           ("all", ("w_xh", "w_hh"))])
@pytest.mark.parametrize("mode, modes", [("weighted", ("weighted",)),
                                         ("unweighted", ("unweighted",)),
                                         ("both", ("weighted", "unweighted"))])
@pytest.mark.parametrize("kind", ["matx", RNN, LSTM])
def test_analyze_reports_what_build_bipartite_gives_on_a_fresh_copy(
        tmp_path, capsys, kind, mode, modes, layer, layers):
    path = _layer_file(tmp_path, kind)
    code, out, err = run_cli(capsys, "analyze", str(path), "--mode", mode, "--layer", layer,
                             "--per-gate")
    assert (code, err) == (0, "")
    assert json.loads(out)["reports"] == _reports_of_fresh_copies(path, layers, modes)


@pytest.mark.parametrize("kind", ["matx", RNN, LSTM])
def test_analyze_and_unroll_leave_the_file_they_read_as_it_was(tmp_path, capsys, kind):
    # both commands write into the arrays they read, which must never be the file
    path = _layer_file(tmp_path, kind)
    os.utime(path, ns=(10**18, 10**18))
    before = path.read_bytes(), path.stat().st_mtime_ns
    for argv in (["analyze", str(path), "--per-gate"], ["unroll", str(path), "--k", "2"]):
        code, _, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        assert (path.read_bytes(), path.stat().st_mtime_ns) == before


def test_analyze_holds_no_copy_of_a_layer_beside_its_weights(tmp_path, capsys):
    # each graph is built in the weights read from the file, so beside them
    # the peak holds alpha2's normalized block and little else
    params = init_params(4, 256, 2, LSTM, seed=64)
    ckpt = tmp_path / "h256.ckpt"
    save_checkpoint(ckpt, params, PruneMask.full(params))
    code, peak = traced_peak(main, ["analyze", str(ckpt), "--layer", "whh"])
    capsys.readouterr()
    assert code == 0 and peak <= 2.6 * params.w_hh.nbytes


def _checkpoint_with_empty_bias(path, bias):
    """An LSTM checkpoint (input 3, hidden 4, 2 classes) whose ``bias`` is
    stored with 0 rows and its width left as it was."""
    params = init_params(3, 4, 2, LSTM, seed=0)
    save_checkpoint(path, params, PruneMask.full(params))
    data = path.read_bytes()
    stored = ("w_xh", "w_hh", "w_hy", "b_h", "b_y")
    offset = 21 + sum(8 + getattr(params, name).nbytes for name in stored[:stored.index(bias)])
    width = getattr(params, bias).size
    path.write_bytes(data[:offset] + struct.pack("<II", 0, width) + data[offset + 8 + 8 * width:])
    return width


@pytest.mark.parametrize("bias", ["b_h", "b_y"])
def test_analyze_refuses_a_bias_with_no_rows(tmp_path, capsys, bias):
    path = tmp_path / "empty_bias.ckpt"
    width = _checkpoint_with_empty_bias(path, bias)
    code, out, err = run_cli(capsys, "analyze", str(path), "--per-gate")
    assert (code, out) == (2, "")
    assert err == f"error: EFORMAT: {path}: {bias} has shape (0, {width}), expected (1, {width})\n"


def _checkpoint_with_flipped_magic(path):
    params = init_params(3, 4, 2, LSTM, seed=0)
    save_checkpoint(path, params, PruneMask.full(params))
    path.write_bytes(b"\xd2" + path.read_bytes()[1:])


@pytest.mark.parametrize("content, message", [
    (None, "expected header 'matx <rows> <cols>'"),
    (b"matx 1 2\n1.0 \xff\n", "could not convert string to float: b'\\xff'"),
    (b"matx 1 2\n1.0\xc2\xa02.0\n", "expected 2 values, found 1"),
], ids=["flipped-magic", "not-utf8-value", "nbsp-separator"])
def test_analyze_reads_a_file_that_is_not_text_as_eformat(tmp_path, capsys, content, message):
    path = tmp_path / "input"
    if content is None:
        _checkpoint_with_flipped_magic(path)
    else:
        path.write_bytes(content)
    code, out, err = run_cli(capsys, "analyze", str(path), "--per-gate")
    assert (code, out) == (2, "")
    assert err == f"error: EFORMAT: {path}: {message}\n"


@pytest.mark.parametrize("size", [0, 1, 3])
@pytest.mark.parametrize("command", [["analyze"], ["unroll", "--k", "2"]],
                         ids=["analyze", "unroll"])
def test_checkpoint_torn_inside_its_magic_is_read_as_a_checkpoint(tmp_path, capsys,
                                                                  command, size):
    # Its bytes are a prefix of RPRM, so the refusal names the checkpoint
    # field it lacks, not the matx header (which a flipped magic still gets).
    path = tmp_path / "round_000.ckpt"
    params = init_params(3, 4, 2, LSTM, seed=0)
    save_checkpoint(path, params, PruneMask.full(params))
    path.write_bytes(path.read_bytes()[:size])
    code, out, err = run_cli(capsys, command[0], str(path), *command[1:])
    assert (code, out) == (2, "")
    assert err == f"error: EFORMAT: {path}: truncated magic at byte offset 0\n"


def test_unroll_closed_form_agrees(tmp_path, capsys):
    rng = np.random.default_rng(2)
    B = rng.standard_normal((3, 3))
    B = (B + B.T) / 2
    path = tmp_path / "block.matx"
    save_matrix_text(B, path)
    code, out, _ = run_cli(capsys, "unroll", str(path), "--k", "4", "--closed-form")
    assert code == 0
    payload = json.loads(out)
    assert payload["dimension"] == 15
    assert len(payload["spectrum"]) == 15
    assert payload["max_deviation"] < 1e-9


def test_unroll_refuses_closed_form_for_asymmetric(tmp_path, capsys):
    path = tmp_path / "block.matx"
    save_matrix_text(np.array([[0.0, 1.0], [0.5, 0.0]]), path)
    code, _, err = run_cli(capsys, "unroll", str(path), "--k", "2", "--closed-form")
    assert code == 2
    assert err.startswith("error: EDOMAIN:")


def test_analyze_and_unroll_refuse_an_edgeless_block_with_one_code(tmp_path, capsys):
    path = tmp_path / "zero.matx"
    save_matrix_text(np.zeros((2, 2)), path)
    for argv in (["analyze", str(path)], ["unroll", str(path), "--k", "2"]):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (2, "", f"error: EDEGENERATE: {path}: graph has no edges\n")


def test_unroll_gives_each_gate_block_of_a_checkpoint_the_entry_of_its_matx_export(
        tmp_path, capsys):
    params = init_params(3, 4, 2, LSTM, seed=1)
    mask = PruneMask.full(params)
    mask.w_hh[0, :2] = False
    mask.w_hh[4:8] = False  # W_hh's f gate keeps no edge
    ckpt = tmp_path / "lstm.ckpt"
    save_checkpoint(ckpt, params, mask)
    code, out, err = run_cli(capsys, "unroll", str(ckpt), "--k", "3")
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert (payload["source"], payload["k"]) == (str(ckpt), 3)
    masked = params.w_hh * mask.w_hh
    for g, (gate, entry) in enumerate(zip("ifgo", payload["blocks"], strict=True)):
        block = tmp_path / f"w_hh_{gate}.matx"
        save_matrix_text(masked[4 * g:4 * (g + 1)], block)
        code, out, err = run_cli(capsys, "unroll", str(block), "--k", "3")
        if gate == "f":
            assert entry == {"layer": "w_hh[f]", "error": "EDEGENERATE"}
            assert (code, out, err) == (2, "", f"error: EDEGENERATE: {block}: graph has no edges\n")
        else:
            expected = json.loads(out)
            del expected["source"], expected["k"]
            assert entry == {"layer": f"w_hh[{gate}]", **expected}


def test_unroll_refuses_a_checkpoint_where_it_refuses_its_exported_block(tmp_path, capsys):
    params = init_params(3, 64, 2, "rnn", seed=0)
    mask = PruneMask.full(params)
    ckpt, block = tmp_path / "rnn.ckpt", tmp_path / "w_hh.matx"
    save_checkpoint(ckpt, params, mask)
    save_matrix_text(params.w_hh, block)
    code, out, err = run_cli(capsys, "unroll", str(ckpt), "--k", "1", "--mode", "weighted")
    assert (code, err) == (0, "")
    assert [entry["layer"] for entry in json.loads(out)["blocks"]] == ["w_hh"]
    for argv in (["--k", "0"], ["--k", "64"], ["--k", "2", "--closed-form"]):
        (code, out, err), exported = (run_cli(capsys, "unroll", str(path), *argv)
                                      for path in (ckpt, block))
        assert (code, out) == (2, "") and err.split(": ")[1] in ("EDOMAIN", "ESIZE"), err
        assert exported == (code, out, err.replace(str(ckpt), str(block)))
    # With no block left that has an edge, there is nothing to report.
    mask.w_hh[:] = False
    save_checkpoint(ckpt, params, mask)
    code, out, err = run_cli(capsys, "unroll", str(ckpt), "--k", "2")
    assert (code, out, err) == (2, "", f"error: EDEGENERATE: {ckpt}: graph has no edges\n")


def test_a_refused_block_gets_no_svd(tmp_path, capsys, monkeypatch):
    svd, has_edge = np.linalg.svd, []  # one entry per SVD: whether its matrix has a nonzero

    def counted(a, *args, **kwargs):
        has_edge.append(bool(np.any(a)))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    params = init_params(3, 4, 2, LSTM, seed=1)
    mask = PruneMask.full(params)
    ckpt = tmp_path / "lstm.ckpt"
    save_checkpoint(ckpt, params, mask)
    code, out, err = run_cli(capsys, "unroll", str(ckpt), "--k", "2", "--closed-form")
    assert (code, out, err, has_edge) == (
        2, "", f"error: EDOMAIN: {ckpt}: closed-form spectrum requires a symmetric block\n", [])
    mask.w_hh[4:8] = False  # W_hh's f gate keeps no edge
    save_checkpoint(ckpt, params, mask)
    code, out, err = run_cli(capsys, "unroll", str(ckpt), "--k", "2")
    assert (code, err) == (0, "") and json.loads(out)["blocks"][1] == {
        "layer": "w_hh[f]", "error": "EDEGENERATE"}
    # The i, g and o gates each take one spectrum and two SVDs for each mode's report.
    assert has_edge == [True] * 15
    params.w_hh[-1, 0] = np.nan  # in W_hh's o gate, the last block either command reads
    save_checkpoint(ckpt, params, PruneMask.full(params))
    for argv in (["analyze", str(ckpt), "--per-gate"], ["unroll", str(ckpt), "--k", "2"]):
        has_edge.clear()
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err, has_edge) == (
            2, "", f"error: EDOMAIN: {ckpt}: matrix contains non-finite entries\n", [])


def test_prune_train_report_end_to_end(tmp_path, capsys):
    config_path = tmp_path / "exp.ini"
    out_dir = tmp_path / "run"
    config_path.write_text(CONFIG.format(out=out_dir))

    code, out, _ = run_cli(capsys, "prune", "--config", str(config_path))
    assert code == 0
    summary = json.loads(out)
    assert summary["rounds_recorded"] == 4
    assert (out_dir / "trajectory.jsonl").exists()
    assert (out_dir / "round_003.ckpt").exists()
    first_bytes = (out_dir / "trajectory.jsonl").read_bytes()

    # resume over a complete run changes nothing
    code, out, _ = run_cli(capsys, "prune", "--config", str(config_path))
    assert code == 0
    assert (out_dir / "trajectory.jsonl").read_bytes() == first_bytes

    code, out, _ = run_cli(capsys, "report", str(out_dir / "trajectory.jsonl"),
                           "--out", str(tmp_path / "fig.svg"))
    assert code == 0
    report_payload = json.loads(out)
    assert report_payload["records"] == 4
    svg = (tmp_path / "fig.svg").read_text()
    assert svg.startswith("<svg")
    csv_lines = (tmp_path / "fig.csv").read_text().strip().splitlines()
    assert len(csv_lines) == 1 + 4  # header + one row per record
    assert csv_lines[0] == (
        "round,q_w_xh_pct,q_w_hh_pct,test_accuracy,"
        "w_xh_unweighted_delta_r,w_xh_unweighted_delta_s,w_xh_weighted_delta_s,"
        "w_hh_unweighted_delta_r,w_hh_unweighted_delta_s,w_hh_weighted_delta_s")

    code, out, _ = run_cli(capsys, "train", "--config", str(config_path),
                           "--out", str(tmp_path / "dense"))
    assert code == 0
    train_payload = json.loads(out)
    assert (tmp_path / "dense" / "dense.ckpt").exists()
    assert 0.0 <= train_payload["test_accuracy"] <= 1.0


def test_prune_trains_with_no_reference_to_the_full_dataset(tmp_path, capsys, monkeypatch):
    # once split, the full dataset is held by neither run_imp nor cmd_prune;
    # from CPython 3.11 the callee owns its arguments, so it is freed
    config_path = tmp_path / "exp.ini"
    config_path.write_text(CONFIG.format(out=tmp_path / "run"))
    built, first_train = [], []
    real_build, real_train = cli._build_dataset, pruning.train

    def build(cfg):
        dataset = real_build(cfg)
        built.append(weakref.ref(dataset))
        return dataset

    def train(*args, **kwargs):
        if not first_train:
            full = built[0]()
            holders = []
            if full is not None:
                frames, frame = [], sys._getframe(1)
                while frame is not None:
                    if frame.f_code.co_name in ("run_imp", "cmd_prune"):
                        frames.append((frame, frame.f_locals))  # locals as a dict gc can see
                    frame = frame.f_back
                referrers = gc.get_referrers(full)
                holders = [caller.f_code.co_name for caller, names in frames
                           if any(names is r for r in referrers)]
            first_train.append((full is None, holders))
        return real_train(*args, **kwargs)

    monkeypatch.setattr(cli, "_build_dataset", build)
    monkeypatch.setattr(pruning, "train", train)
    assert run_cli(capsys, "prune", "--config", str(config_path))[0] == 0
    [(freed, holders)] = first_train
    assert holders == []
    assert freed or sys.version_info < (3, 11)


def test_prune_seed_override_refuses_mismatched_resume(tmp_path, capsys):
    config_path = tmp_path / "exp.ini"
    out_dir = tmp_path / "run"
    config_path.write_text(CONFIG.format(out=out_dir))
    code, _, _ = run_cli(capsys, "prune", "--config", str(config_path))
    assert code == 0
    code, _, err = run_cli(capsys, "prune", "--config", str(config_path), "--seed", "99")
    assert code == 2
    assert err.startswith("error: ECONFIG:")


def test_seed_override_equals_seed_in_file(tmp_path, capsys):
    overridden = tmp_path / "overridden.ini"
    overridden.write_text(CONFIG.format(out=tmp_path / "a") + NOISE)
    code, _, _ = run_cli(capsys, "prune", "--config", str(overridden), "--seed", "5")
    assert code == 0
    in_file = tmp_path / "in_file.ini"
    in_file.write_text(CONFIG.replace("seed = 3", "seed = 5").format(out=tmp_path / "b") + NOISE)
    code, _, _ = run_cli(capsys, "prune", "--config", str(in_file))
    assert code == 0
    for name in ("run_config.json", "trajectory.jsonl"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


# run_config.json as earlier versions wrote it for CONFIG and CONFIG + NOISE;
# directories holding these bytes must keep resuming.
SNAPSHOT = (
    '{"cell_kind":"rnn","dataset":{"class_count":2,'
    '"sha256":"3fb04c5eb06edca3ed819aa2c14f02d6c1131ffc3b2edd096fc041657b8602f2",'
    '"shape":[80,4,3]},"hidden_size":6,"noise":NOISE,"noise_apply_to":TARGET,"policy":[],'
    '"schedule":{"final_fraction":0.05,"finetune_epochs":1,"rewind_to_init":false,'
    '"rounds":3,"start_fraction":1.0},"test_fraction":0.2,'
    '"train":{"adam_eps":1e-08,"batch_size":20,"beta1":0.9,"beta2":0.999,"clip_norm":5.0,'
    '"learning_rate":0.003,"seed":3,"train_epochs":2}}\n'
)


@pytest.mark.parametrize("noise, snapshot", [
    ("", SNAPSHOT.replace("NOISE", "null").replace("TARGET", '"both"')),
    (NOISE, SNAPSHOT.replace("NOISE", '{"p":0.2,"seed":3,"sigma":0.3}')
                    .replace("TARGET", '"train"')),
])
def test_run_config_snapshot_bytes_are_pinned(tmp_path, capsys, noise, snapshot):
    config_path = tmp_path / "exp.ini"
    config_path.write_text(CONFIG.format(out=tmp_path / "run") + noise)
    code, _, _ = run_cli(capsys, "prune", "--config", str(config_path))
    assert code == 0
    assert (tmp_path / "run" / "run_config.json").read_text() == snapshot


def test_train_checkpoint_equals_prune_round_zero(tmp_path, capsys):
    config_path = tmp_path / "exp.ini"
    config_path.write_text(CONFIG.format(out=tmp_path / "run") + NOISE)
    code, _, _ = run_cli(capsys, "prune", "--config", str(config_path))
    assert code == 0
    code, _, _ = run_cli(capsys, "train", "--config", str(config_path),
                         "--out", str(tmp_path / "dense"))
    assert code == 0
    dense = (tmp_path / "dense" / "dense.ckpt").read_bytes()
    assert dense == (tmp_path / "run" / "round_000.ckpt").read_bytes()


def test_prune_resumes_one_run_through_equivalent_paths(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("EXP_HOME", raising=False)
    monkeypatch.chdir(tmp_path)
    config_path = tmp_path / "exp.ini"
    config_path.write_text(CONFIG.format(out="run"))
    code, _, _ = run_cli(capsys, "prune", "--config", str(config_path))
    assert code == 0
    files = {p.name: p.read_bytes() for p in (tmp_path / "run").iterdir()}
    for out in ("./run", str(tmp_path / "run")):
        code, _, err = run_cli(capsys, "prune", "--config", str(config_path), "--out", out)
        assert (code, err) == (0, "")
        assert {p.name: p.read_bytes() for p in (tmp_path / "run").iterdir()} == files

    config_path.write_text(CONFIG.format(out="run").replace("n_samples = 80", "n_samples = 100"))
    code, _, err = run_cli(capsys, "prune", "--config", str(config_path))
    assert code == 2
    assert err == (f"error: ECONFIG: {os.path.join('run', 'run_config.json')}: "
                   "existing run was produced by a different configuration\n")
    assert {p.name: p.read_bytes() for p in (tmp_path / "run").iterdir()} == files


def test_error_lines_are_exact(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("EXP_HOME", raising=False)
    config_path = tmp_path / "exp.ini"
    config_path.write_text(CONFIG.format(out=""))
    missing = tmp_path / "nope.ini"
    block = tmp_path / "block.matx"
    save_matrix_text(np.array([[0.0, 1.0], [0.5, 0.0]]), block)
    huge = tmp_path / "huge.matx"
    huge.write_text("matx 2 2\n1e308 1e308\n1e308 -1e308\n")
    too_large = "matrix entries are too large: their absolute sum exceeds 4.494e+307"
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    rows = [
        (["prune", "--config", str(config_path)],
         "ECONFIG: experiment.output_dir: missing (set it or pass --out)"),
        (["train", "--config", str(missing)], f"ENOENT: {missing}: no such file"),
        (["unroll", str(block), "--k", "2", "--closed-form"],
         f"EDOMAIN: {block}: closed-form spectrum requires a symmetric block"),
        (["report", str(empty)], f"EDOMAIN: {empty}: trajectory is empty"),
        (["analyze", str(huge)], f"EDOMAIN: {huge}: {too_large}"),
        (["unroll", str(huge), "--k", "2", "--closed-form"], f"EDOMAIN: {huge}: {too_large}"),
        (["unroll", str(block)],
         "EUSAGE: expanderprune unroll: the following arguments are required: --k"),
        (["unroll", str(block), "--k", "two"],
         "EUSAGE: expanderprune unroll: argument --k: invalid int value: 'two'"),
        ([], "EUSAGE: expanderprune: the following arguments are required: command"),
    ]
    for argv, line in rows:
        assert run_cli(capsys, *argv) == (2, "", f"error: {line}\n")


def _raising(exc):
    def fail(*args, **kwargs):
        raise exc
    return fail


@pytest.mark.parametrize("target, fake, argv, code, line", [
    ("linalg.np.linalg.eigvalsh", lambda M: np.array([-3.0, 3.0]),
     ["unroll", "{block}", "--k", "2", "--closed-form"],
     2, "ENUMERIC: {block}: eigensolver violated the Gershgorin row-sum bound"),
    ("linalg.np.linalg.svd", _raising(np.linalg.LinAlgError("SVD did not converge")),
     ["analyze", "{block}"], 2, "ENUMERIC: {block}: SVD did not converge"),
    ("pruning.train", _raising(KeyboardInterrupt()), ["prune", "--config", "{config}"],
     130, "EINTR: interrupted"),
], ids=["gershgorin", "linalg-error", "interrupt"])
def test_a_numerical_failure_or_an_interrupt_is_one_coded_line(
        tmp_path, capsys, monkeypatch, target, fake, argv, code, line):
    block = tmp_path / "block.matx"
    save_matrix_text(np.eye(2), block)
    config = tmp_path / "exp.ini"
    config.write_text(CONFIG.format(out=tmp_path / "run"))
    monkeypatch.setattr(f"expanderprune.{target}", fake)
    argv = [arg.format(block=block, config=config) for arg in argv]
    line = line.format(block=block)
    assert run_cli(capsys, *argv) == (code, "", f"error: {line}\n")


@pytest.mark.parametrize("target, exc, line", [
    ("pruning.init_params", MemoryError("Unable to allocate 298. GiB for an array"),
     "error: ENOMEM: Unable to allocate 298. GiB for an array\n"),
    ("cli.synth_task", MemoryError(), "error: ENOMEM: out of memory\n"),
], ids=["init-params", "synth-task"])
def test_running_out_of_memory_is_one_enomem_line_and_writes_nothing(
        tmp_path, capsys, monkeypatch, target, exc, line):
    # The allocation fails by monkeypatch; nothing is ever allocated for real.
    monkeypatch.setattr(f"expanderprune.{target}", _raising(exc))
    config_path = tmp_path / "exp.ini"
    config_path.write_text(CONFIG.format(out=tmp_path / "run"))
    for command in ("prune", "train"):
        code, out, err = run_cli(capsys, command, "--config", str(config_path))
        assert (code, out, err) == (2, "", line)
        assert list(tmp_path.iterdir()) == [config_path]


def test_a_run_out_of_memory_mid_round_resumes_to_the_uninterrupted_bytes(
        tmp_path, capsys, monkeypatch):
    config_path = tmp_path / "exp.ini"
    config_path.write_text(CONFIG.format(out=tmp_path / "whole"))
    assert run_cli(capsys, "prune", "--config", str(config_path))[0] == 0
    real_train = pruning.train

    def train(*args, stream, **kwargs):
        if stream == (pruning._STREAM_FINETUNE, 2):
            raise MemoryError("Unable to allocate 8.00 GiB for an array")
        return real_train(*args, stream=stream, **kwargs)

    resume = ["prune", "--config", str(config_path), "--out", str(tmp_path / "cut")]
    monkeypatch.setattr(pruning, "train", train)
    code, out, err = run_cli(capsys, *resume)
    assert (code, out, err) == (2, "", "error: ENOMEM: Unable to allocate 8.00 GiB for an array\n")
    assert sorted(p.name for p in (tmp_path / "cut").iterdir()) == [
        "round_000.ckpt", "round_001.ckpt", "run.lock", "run_config.json", "trajectory.jsonl"]
    monkeypatch.setattr(pruning, "train", real_train)
    assert run_cli(capsys, *resume)[0] == 0
    whole, cut = (sorted((p.name, p.read_bytes()) for p in (tmp_path / name).iterdir())
                  for name in ("whole", "cut"))
    assert cut == whole


@pytest.mark.parametrize("argv, source", [
    ("analyze {folder}", ""),
    ("unroll {folder} --k 2", ""),
    ("report {folder}", ""),
    ("prune --config {folder}", ""),
    ("prune --config {config}", "source = csv\ncsv_path = {folder}"),
    ("prune --config {config}", "source = idx\nimages_path = {folder}\nlabels_path = {labels}"),
    ("prune --config {config}", "source = idx\nimages_path = {images}\nlabels_path = {folder}"),
], ids=["analyze", "unroll", "report", "config", "csv", "idx-images", "idx-labels"])
def test_a_directory_given_as_an_input_file_is_eisdir(tmp_path, capsys, argv, source):
    folder = tmp_path / "folder"
    folder.mkdir()
    images, labels = write_idx_fixture(tmp_path, np.zeros((20, 4, 3)), np.arange(20) % 2)
    names = {"folder": folder, "config": tmp_path / "exp.ini", "images": images, "labels": labels}
    (tmp_path / "exp.ini").write_text(CONFIG.format(out=tmp_path / "run")
                                      .replace("source = synth", source.format(**names)))
    code, out, err = run_cli(capsys, *argv.format(**names).split())
    assert (code, out, err) == (2, "", f"error: EISDIR: {folder}: Is a directory\n")
    assert not (tmp_path / "run").exists()


def test_prune_lists_a_non_finite_sigma_and_a_negative_seed_as_econfig(tmp_path, capsys):
    config_path = tmp_path / "exp.ini"
    config_path.write_text(CONFIG.format(out=tmp_path / "run")
                           + NOISE.replace("sigma = 0.3", "sigma = nan"))
    code, out, err = run_cli(capsys, "prune", "--config", str(config_path), "--seed", "-1")
    assert (code, out) == (2, "")
    assert err == ("error: ECONFIG: noise.sigma: must be >= 0 and finite; "
                   "experiment.seed: must be >= 0\n")
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command", ["prune", "train"])
def test_an_output_directory_that_is_a_file_fails_with_one_coded_line(tmp_path, capsys, command):
    taken = tmp_path / "taken"
    taken.write_text("x")
    config_path = tmp_path / "exp.ini"
    config_path.write_text(CONFIG.format(out=tmp_path / "run"))
    code, out, err = run_cli(capsys, command, "--config", str(config_path), "--out", str(taken))
    assert (code, out, err) == (2, "", f"error: EEXIST: {taken}: File exists\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.ini", "taken"]


@pytest.mark.parametrize("name, fault", [
    ("fig", "EISDIR: {figure}: Is a directory"),
    ("fig.csv", "EDOMAIN: {figure}: the figure would overwrite its own CSV table"),
], ids=["directory", "csv-extension"])
def test_report_refuses_an_svg_path_it_cannot_use_and_writes_nothing(tmp_path, capsys,
                                                                     name, fault):
    tiny_run(tmp_path / "run")
    figure = tmp_path / name
    if name == "fig":
        figure.mkdir()  # the refused path is a directory
    before = sorted(p.name for p in tmp_path.iterdir())
    code, out, err = run_cli(capsys, "report", str(tmp_path / "run" / "trajectory.jsonl"),
                             "--out", str(figure))
    assert (code, out, err) == (2, "", f"error: {fault.format(figure=figure)}\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == before


def test_a_second_writer_is_refused_while_the_first_holds_the_directory(tmp_path, capsys):
    config_path = tmp_path / "exp.ini"
    run = tmp_path / "run"
    config_path.write_text(CONFIG.format(out=run))
    assert run_cli(capsys, "prune", "--config", str(config_path))[0] == 0
    full = {p.name: p.read_bytes() for p in run.iterdir()}
    assert full["run.lock"] == b""
    # Cut the run back to round 0, so a writer that got in would train and write.
    (run / "trajectory.jsonl").write_bytes(full["trajectory.jsonl"].splitlines(keepends=True)[0])
    for round_index in (1, 2, 3):
        (run / f"round_{round_index:03d}.ckpt").unlink()
    held = {p.name: p.read_bytes() for p in run.iterdir()}
    refusal = (2, "", f"error: EBUSY: {run}: run directory is held by another writer\n")
    with RunDirectory(str(run), json.loads(full["run_config.json"])):
        assert run_cli(capsys, "prune", "--config", str(config_path)) == refusal
        other = subprocess.run([sys.executable, "-m", "expanderprune.cli", "prune",
                                "--config", str(config_path)], capture_output=True, text=True,
                               env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=120)
        assert (other.returncode, other.stdout, other.stderr) == refusal
        assert {p.name: p.read_bytes() for p in run.iterdir()} == held
    assert run_cli(capsys, "prune", "--config", str(config_path))[0] == 0
    assert {p.name: p.read_bytes() for p in run.iterdir()} == full


@pytest.mark.parametrize("old, new, fault", [
    ("learning_rate = 0.003", "learning_rate = nan", "learning_rate: must be finite and > 0"),
    ("learning_rate = 0.003", "learning_rate = inf", "learning_rate: must be finite and > 0"),
    ("batch_size = 20", "batch_size = 20\nbeta1 = 1.5", "beta1: must be in [0, 1)"),
    ("batch_size = 20", "batch_size = 20\nbeta2 = -1", "beta2: must be in [0, 1)"),
    ("batch_size = 20", "batch_size = 20\nadam_eps = 0", "adam_eps: must be finite and > 0"),
    ("batch_size = 20", "batch_size = 20\nclip_norm = nan",
     "clip_norm: must not be NaN (<= 0 turns clipping off)"),
    ("batch_size = 20", "batch_size = 0\nbeta1 = 1\nadam_eps = nan",
     "adam_eps: must be finite and > 0; train.beta1: must be in [0, 1); "
     "train.batch_size: must be >= 1"),
], ids=["learning-rate-nan", "learning-rate-inf", "beta1", "beta2", "adam-eps", "clip-norm-nan",
        "several"])
def test_prune_refuses_training_values_that_can_only_train_to_nan(tmp_path, capsys,
                                                                   old, new, fault):
    config_path = tmp_path / "exp.ini"
    config_path.write_text(CONFIG.format(out=tmp_path / "run").replace(old, new))
    code, out, err = run_cli(capsys, "prune", "--config", str(config_path))
    assert (code, out, err) == (2, "", f"error: ECONFIG: train.{fault}\n")
    assert not (tmp_path / "run").exists()


def test_train_reads_an_idx_pair(tmp_path, capsys):
    images = np.arange(20 * 4 * 3).reshape(20, 4, 3) % 256
    images_path, labels_path = write_idx_fixture(tmp_path, images, np.arange(20) % 2)
    config_path = tmp_path / "exp.ini"
    source = f"source = idx\nimages_path = {images_path}\nlabels_path = {labels_path}"
    config_path.write_text(CONFIG.format(out=tmp_path / "run").replace("source = synth", source))
    code, out, err = run_cli(capsys, "train", "--config", str(config_path))
    assert (code, err) == (0, "")
    params, _ = load_checkpoint(json.loads(out)["checkpoint"])
    assert (params.input_size, params.class_count) == (3, 2)


def test_prune_invalid_config_lists_fields(tmp_path, capsys):
    config_path = tmp_path / "exp.ini"
    config_path.write_text("[experiment]\ncell_kind = gru\n\n[data]\nsource = nowhere\n")
    code, _, err = run_cli(capsys, "prune", "--config", str(config_path))
    assert code == 2
    assert err.startswith("error: ECONFIG:")
    assert "cell_kind" in err and "data.source" in err


@pytest.mark.parametrize("old, new, fault", [
    ("train_epochs = 2", "epochs = 2", "train.epochs: unknown key"),
    ("batch_size = 20", "batch_size = 20\nseed = 5", "train.seed: unknown key"),
    ("learning_rate", "learning_rat", "train.learning_rat: unknown key"),
    ("[prune]", "[prnue]", "prnue: unknown section"),
])
def test_prune_refuses_an_unknown_key_or_section(tmp_path, capsys, old, new, fault):
    # A misspelt key or section would otherwise leave its setting at the
    # default without a word.
    config_path = tmp_path / "exp.ini"
    config_path.write_text(CONFIG.format(out=tmp_path / "run").replace(old, new))
    code, out, err = run_cli(capsys, "prune", "--config", str(config_path))
    assert (code, out, err) == (2, "", f"error: ECONFIG: {fault}\n")
    assert not (tmp_path / "run").exists()


def test_a_percent_sign_in_a_config_value_is_literal(tmp_path, capsys):
    config_path = tmp_path / "exp.ini"
    config_path.write_text(CONFIG.format(out=tmp_path / "runs" / "50%"))
    code, _, err = run_cli(capsys, "train", "--config", str(config_path))
    assert (code, err) == (0, "")
    assert (tmp_path / "runs" / "50%" / "dense.ckpt").is_file()


def test_a_config_that_is_not_utf8_is_econfig(tmp_path, capsys):
    config_path = tmp_path / "exp.ini"
    config_path.write_bytes(CONFIG.format(out=tmp_path / "run").encode() + b"; caf\xe9\n")
    code, out, err = run_cli(capsys, "prune", "--config", str(config_path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: ECONFIG: {config_path}: not UTF-8 text: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("content, fault", [
    (b"4,3,2\n" + b"0" + b",0.5" * 12 + b"\n1,0.5,\xff" + b",0.5" * 11 + b"\n",
     "line 3: not UTF-8 text (invalid start byte)"),
    (b"4,3,2\n0," + b"1" * 200_000 + b",0.5" * 11 + b"\n",
     "line 2: field larger than field limit (131072)"),
], ids=["not-utf8", "oversized-field"])
def test_train_refuses_a_csv_it_cannot_read_with_one_eformat_line(tmp_path, capsys,
                                                                  content, fault):
    csv_path = tmp_path / "seq.csv"
    csv_path.write_bytes(content)
    config_path = tmp_path / "exp.ini"
    config_path.write_text(CONFIG.format(out=tmp_path / "run")
                           .replace("source = synth", f"source = csv\ncsv_path = {csv_path}"))
    code, out, err = run_cli(capsys, "train", "--config", str(config_path))
    assert (code, out, err) == (2, "", f"error: EFORMAT: {csv_path}: {fault}\n")
    assert not (tmp_path / "run").exists()


def test_prune_caps_the_dataset_at_its_limit(tmp_path, capsys):
    config_path = tmp_path / "exp.ini"
    config_path.write_text(CONFIG.format(out=tmp_path / "run")
                           .replace("n_samples = 80", "n_samples = 80\nlimit = 50"))
    code, _, err = run_cli(capsys, "prune", "--config", str(config_path))
    assert (code, err) == (0, "")
    snapshot = json.loads((tmp_path / "run" / "run_config.json").read_text())
    assert snapshot["dataset"]["shape"] == [50, 4, 3]


def test_exp_home_resolves_relative_output(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("EXP_HOME", str(tmp_path))
    config_path = tmp_path / "exp.ini"
    config_path.write_text(CONFIG.format(out="nested/run"))
    code, out, _ = run_cli(capsys, "prune", "--config", str(config_path))
    assert code == 0
    assert (tmp_path / "nested" / "run" / "trajectory.jsonl").exists()


# The rounds two prune processes started on one directory wrote into its
# trajectory.jsonl, one line each.
INTERLEAVED_ROUNDS = (0, 1, 2, 1, 3, 2, 4, 3, 5, 4, 5, 6, 6)


@pytest.fixture
def interleaved_run(tmp_path):
    """A 6-round run directory whose trajectory holds INTERLEAVED_ROUNDS'
    lines, and the files of the uninterrupted run."""
    tiny_run(tmp_path / "full", rounds=6)
    full = {p.name: p.read_bytes() for p in (tmp_path / "full").iterdir()}
    lines = full["trajectory.jsonl"].splitlines(keepends=True)
    run = tmp_path / "run"
    shutil.copytree(tmp_path / "full", run)
    (run / "trajectory.jsonl").write_bytes(b"".join(lines[r] for r in INTERLEAVED_ROUNDS))
    return run, full


def test_report_refuses_rounds_out_of_order(interleaved_run, capsys):
    run, _ = interleaved_run
    path = run / "trajectory.jsonl"
    code, out, err = run_cli(capsys, "report", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: EFORMAT: {path}: line 4: round 1 where round 3 belongs\n"


def test_resume_keeps_the_rounds_in_order_and_reproduces_the_run(interleaved_run):
    run, full = interleaved_run
    with RunDirectory(str(run), json.loads(full["run_config.json"])) as run_dir:
        records, _, _ = run_dir.resume()
    assert [r.round for r in records] == [0, 1, 2]
    lines = full["trajectory.jsonl"].splitlines(keepends=True)
    assert (run / "trajectory.jsonl").read_bytes() == b"".join(lines[:3])
    tiny_run(run, rounds=6)
    assert {p.name: p.read_bytes() for p in run.iterdir()} == full


def test_report_refuses_a_line_without_its_newline(tmp_path, capsys):
    path = tmp_path / "t.jsonl"
    path.write_bytes(dump_json_line(asdict(fake_record(0, {}))).encode())
    code, out, err = run_cli(capsys, "report", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: EFORMAT: {path}: line 1: line does not end in a newline\n"


def test_report_empty_trajectory_fails(tmp_path, capsys):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    code, _, err = run_cli(capsys, "report", str(path))
    assert code == 2
    assert err.startswith("error: EDOMAIN:")


def _record_with_extra_report_key():
    record = asdict(fake_record(0, {}))
    record["reports"]["w_xh"]["weighted"]["extra"] = 1.0
    return dump_json_line(record).encode()


@pytest.mark.parametrize("line", [b"{}", b"[]", b"1", b"\xff", _record_with_extra_report_key()],
                         ids=["object", "list", "number", "not-utf8", "extra-report-key"])
def test_report_refuses_a_line_that_is_not_a_record(tmp_path, capsys, line):
    path = tmp_path / "t.jsonl"
    path.write_bytes(line + b"\n")
    code, out, err = run_cli(capsys, "report", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: EFORMAT: {path}: line 1: ")
    assert err.count("\n") == 1


def _record_without(section, layer):
    record = asdict(fake_record(0, {}))
    del record[section][layer]
    return dump_json_line(record).encode()


@pytest.mark.parametrize("line, lacks", [
    (b'{"round":0,"q":{},"test_accuracy":0.5,"reports":{},"zero_crossed":{}}',
     "reports.w_xh.weighted, reports.w_xh.unweighted, reports.w_hh.weighted, "
     "reports.w_hh.unweighted, q.w_xh, q.w_hh, zero_crossed.w_xh, zero_crossed.w_hh"),
    (_record_without("reports", "w_hh"), "reports.w_hh.weighted, reports.w_hh.unweighted"),
    (_record_without("q", "w_xh"), "q.w_xh"),
    (_record_without("zero_crossed", "w_hh"), "zero_crossed.w_hh"),
], ids=["empty", "no-w_hh-reports", "no-w_xh-q", "no-w_hh-crossings"])
def test_report_refuses_a_record_that_lacks_a_layer(tmp_path, capsys, line, lacks):
    path = tmp_path / "t.jsonl"
    path.write_bytes(line + b"\n")
    code, out, err = run_cli(capsys, "report", str(path))
    assert code == 2
    assert out == ""
    assert err == f"error: EFORMAT: {path}: line 1: record lacks {lacks}\n"


def _record_where(value, *keys):
    record = asdict(fake_record(0, {}))
    *parents, last = keys
    target = record
    for key in parents:
        target = target[key]
    target[last] = value
    return dump_json_line(record).encode()


@pytest.mark.parametrize("line, wrong", [
    (_record_where("x", "q", "w_xh"), "q.w_xh is not a number"),
    (_record_where("0", "round"), "round is not an int"),
    (_record_where(0.0, "round"), "round is not an int"),
    (_record_where(True, "test_accuracy"), "test_accuracy is not a number"),
    (_record_where("x", "reports", "w_hh", "weighted", "delta_s"),
     "w_hh.weighted_delta_s is not a number"),
    (_record_where(None, "reports", "w_xh", "unweighted", "delta_r"),
     "w_xh.unweighted_delta_r is not a number"),
], ids=["string-q", "string-round", "float-round", "bool-accuracy", "string-delta-s",
        "null-delta-r"])
def test_report_refuses_a_record_without_numbers(tmp_path, capsys, line, wrong):
    path = tmp_path / "t.jsonl"
    path.write_bytes(line + b"\n")
    code, out, err = run_cli(capsys, "report", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: EFORMAT: {path}: line 1: {wrong}\n"


def test_report_reads_nonfinite_markers_as_numbers(tmp_path, capsys):
    record = asdict(fake_record(0, {"weighted_delta_s": math.inf}))
    record["test_accuracy"] = math.nan
    path = tmp_path / "t.jsonl"
    path.write_bytes(dump_json_line(record).encode() + b"\n")
    assert b'"inf"' in path.read_bytes() and b'"nan"' in path.read_bytes()
    code, _, err = run_cli(capsys, "report", str(path))
    assert (code, err) == (0, "")


def test_csv_lands_beside_an_svg_path_without_extension(tmp_path):
    traj = trajectory_from_gaps("weighted_delta_s", [0.4, -0.2])
    (tmp_path / "v1.2").mkdir()
    csv_path = render_trajectory(traj, str(tmp_path / "v1.2" / "fig"))
    assert csv_path == str(tmp_path / "v1.2" / "fig.csv")
    assert os.path.exists(csv_path)
    assert sorted(os.listdir(tmp_path)) == ["v1.2"]


def test_svg_marks_one_rule_per_crossed_gap(tmp_path):
    # weighted delta_s crosses at index 2; the unweighted gaps never do
    traj = trajectory_from_gaps("weighted_delta_s", [0.4, 0.1, -0.2, -0.5])
    svg_path = tmp_path / "fig.svg"
    render_trajectory(traj, svg_path)
    svg = svg_path.read_text()
    # both panels carry exactly one crossing rule, for the weighted gap
    assert svg.count('class="zero-crossing zero-crossing-weighted_delta_s"') == 2
    assert 'zero-crossing-unweighted_delta_s"' not in svg
    assert 'zero-crossing-unweighted_delta_r"' not in svg
    assert (tmp_path / "fig.csv").exists()


def test_svg_axes_cover_data(tmp_path):
    gaps = [1.2, 0.3, -0.7]
    traj = trajectory_from_gaps("unweighted_delta_s", gaps)
    for i, record in enumerate(traj):
        record.q = {"w_xh": 1.0 - 0.3 * i, "w_hh": 1.0 - 0.3 * i}
        record.test_accuracy = 0.9 - 0.2 * i
    svg_path = tmp_path / "fig.svg"
    render_trajectory(traj, svg_path)
    svg = svg_path.read_text()
    assert "100.0" in svg and "40.0" in svg  # x range endpoints (percent)
    assert "1.20" in svg and "-0.70" in svg  # gap axis endpoints
