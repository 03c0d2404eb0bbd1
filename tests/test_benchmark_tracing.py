"""The benchmark's span tracer patches package names where callers look
them up, so every name it lists must exist in its module; otherwise a
traced benchmark run (``benchmarks/run.py --trace 1``) fails."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from expanderprune import cli, graphs
from expanderprune.data import synth_task
from expanderprune.formats import save_checkpoint, save_matrix_text
from expanderprune.nets import LSTM, PruneMask, TrainConfig, init_params
from expanderprune.pruning import PruneSchedule, run_imp

ROOT = Path(__file__).resolve().parents[1]
BENCHMARKS = ROOT / "benchmarks"


def _tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    return importlib.import_module("tracing")


def test_every_traced_name_exists(monkeypatch):
    tracing = _tracing(monkeypatch)
    missing = [f"{module.__name__}.{attr}" for module, attr, _, _ in tracing.TARGETS
               if not hasattr(module, attr)]
    assert not missing


def test_every_traced_name_is_called_on_its_path(monkeypatch, tmp_path, capsys):
    # A refactor that stopped calling a traced name (say cli.synth_task)
    # would zero that name's per-layer metric without an error.
    tracing = _tracing(monkeypatch)
    config = tmp_path / "exp.ini"
    config.write_text("[experiment]\ncell_kind = lstm\nhidden_size = 4\n"
                      f"output_dir = {tmp_path / 'run'}\n"
                      "[data]\nsynth_kind = mean-threshold\nn_samples = 40\nk = 3\n"
                      "input_size = 2\n[train]\ntrain_epochs = 1\nbatch_size = 10\n"
                      "[prune]\nrounds = 1\nfinetune_epochs = 1\n")
    matx = tmp_path / "block.matx"
    save_matrix_text(np.array([[0.0, 1.0], [1.0, 0.5]]), matx)
    tracer = tracing.Tracer()
    with tracer.installed():
        assert cli.main(["prune", "--config", str(config)]) == 0
        for path in (tmp_path / "run" / "round_001.ckpt", matx):
            assert cli.main(["analyze", str(path), "--per-gate"]) == 0
        assert cli.main(["unroll", str(matx), "--k", "3", "--closed-form"]) == 0
        graphs.edge_cheeger_bruteforce(np.ones((3, 3)) - np.eye(3))
    capsys.readouterr()
    # unrolled.build_unrolled is only imported for the tracer; nothing calls it.
    expected = {name for _, _, name, _ in tracing.TARGETS} - {"unrolled.build_unrolled"}
    assert expected - {span[0] for span in tracer.spans} == set()


def test_traced_run_counts_every_round_and_checkpoint_byte(monkeypatch, tmp_path):
    # The traced metrics count checkpoints and their bytes at the name
    # pruning.save_checkpoint, stat-ing its path argument once the call
    # returns, and reports at pruning.layer_reports.  A checkpoint written
    # around that name, or written twice, would skew them without an error.
    tracing = _tracing(monkeypatch)
    ds = synth_task("mean-threshold", 80, 4, 3, seed=3)
    cfg = TrainConfig(seed=3, train_epochs=1, batch_size=20)
    sched = PruneSchedule(rounds=2, final_fraction=0.05, finetune_epochs=1)
    tracer = tracing.Tracer()
    with tracer.installed():
        trajectory = run_imp(cfg, sched, ds, cell_kind="rnn", hidden_size=6, out_dir=str(tmp_path))
    table = tracing.summarize(tracer)
    rounds = len(trajectory)
    assert table["formats.save_checkpoint"]["calls"] == rounds
    assert table["formats.save_checkpoint"]["count"] == sum(
        p.stat().st_size for p in tmp_path.glob("round_*.ckpt"))
    assert table["pruning.layer_reports"]["calls"] == rounds


def test_traced_analyze_counts_one_span_per_report_and_every_checkpoint_byte(
        monkeypatch, tmp_path, capsys):
    # A traced layer-audit reads its spectral counts at graphs.spectral_gaps,
    # linalg.top_two and graphs.alpha2, and its checkpoint bytes at
    # formats.load_checkpoint.  A report that skipped one of those names, or
    # called it twice, would skew them without an error.
    tracing = _tracing(monkeypatch)
    params = init_params(3, 4, 2, LSTM, seed=4)
    ckpt = tmp_path / "lstm.ckpt"
    save_checkpoint(ckpt, params, PruneMask.full(params))
    tracer = tracing.Tracer()
    with tracer.installed():
        assert cli.main(["analyze", str(ckpt), "--per-gate"]) == 0
    reports = len(json.loads(capsys.readouterr().out)["reports"])
    table = tracing.summarize(tracer)
    assert reports == 2 * (1 + 4) * 2  # layers x (whole + gates) x modes
    for name in ("graphs.spectral_gaps", "linalg.top_two", "graphs.alpha2"):
        assert table[name]["calls"] == reports, name
    assert table["formats.load_checkpoint"]["calls"] == 1
    assert table["formats.load_checkpoint"]["count"] == ckpt.stat().st_size


def test_traced_unroll_counts_its_dimension_outside_the_layer_report_names(
        monkeypatch, tmp_path, capsys):
    # layer-audit expects linalg.top_two and graphs.alpha2 spans from its
    # analyze reports only, and unrolled.dim_sum from unroll's.  An unroll
    # report routed through either layer name would skew those counts.
    tracing = _tracing(monkeypatch)
    path = tmp_path / "block.matx"
    save_matrix_text(np.random.default_rng(6).standard_normal((3, 3)), path)
    tracer = tracing.Tracer()
    with tracer.installed():
        assert cli.main(["unroll", str(path), "--k", "4"]) == 0
    assert len(json.loads(capsys.readouterr().out)["reports"]) == 2
    table = tracing.summarize(tracer)
    assert table["unrolled.gap_report"]["calls"] == 2
    assert table["unrolled.gap_report"]["count"] == 2 * (4 + 1) * 3
    assert "linalg.top_two" not in table
    assert "graphs.alpha2" not in table


def test_bruteforce_spans_are_flat_and_count_every_subset(monkeypatch):
    # graphs.bruteforce.subsets is 3 * sum(2^n) over the audit's graphs only
    # while each of the three functions records one span and calls no other.
    tracing = _tracing(monkeypatch)
    n = 9
    upper = np.triu(np.random.default_rng(5).random((n, n)) < 0.4, 1)
    adj = (upper | upper.T).astype(np.float64)
    tracer = tracing.Tracer()
    with tracer.installed():
        graphs.edge_conductance_bruteforce(adj)
        graphs.vertex_cheeger_bruteforce(adj)
        graphs.edge_cheeger_bruteforce(adj)
    spans = [span for span in tracer.spans if span[0] == "graphs.bruteforce"]
    assert len(spans) == 3
    assert [span[3] for span in spans] == [-1, -1, -1]  # none nested
    assert [span[4] for span in spans] == [2 ** n] * 3
    assert tracing.summarize(tracer)["graphs.bruteforce"]["count"] == 3 * 2 ** n


def test_importing_the_package_loads_the_modules_setup_s_times():
    # benchmarks/run.py times `import expanderprune` in a fresh interpreter
    # as setup_s.  A package that imported less (lazily) or more (cli)
    # would move that sample without any change to the work it measures.
    child = subprocess.run([sys.executable, "-c", "import sys, expanderprune; print(*sys.modules)"],
                           cwd=ROOT, capture_output=True, text=True, check=True,
                           env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    loaded = child.stdout.split()
    assert "numpy" in loaded
    modules = ("data", "errors", "formats", "graphs", "linalg", "nets", "pruning", "unrolled")
    expected = ["expanderprune"] + [f"expanderprune.{name}" for name in modules]
    assert sorted(m for m in loaded if m.partition(".")[0] == "expanderprune") == expected
