"""Refusals that no other test reaches: one table row per check, with the
error class it raises and a fragment of its message."""

import numpy as np
import pytest

from expanderprune import linalg
from expanderprune.config import DataConfig, ExperimentConfig, parse_config
from expanderprune.data import NoiseSpec, SequenceDataset, load_csv_sequences, synth_task
from expanderprune.errors import ConfigError, DomainError, FormatError, ShapeError, SizeError
from expanderprune.formats import load_matrix_text
from expanderprune.graphs import build_bipartite, edge_cheeger_bruteforce
from expanderprune.nets import (
    AdamState,
    PruneMask,
    TrainConfig,
    adam_step,
    forward,
    gate_rows,
    init_params,
    loss_and_grads,
    train,
)
from expanderprune.pruning import (
    PruneSchedule,
    detect_zero_crossing,
    magnitude_prune,
)
from expanderprune.svgplot import render_trajectory
from expanderprune.unrolled import UnrolledSpec

PARAMS = init_params(3, 4, 2, seed=0)
MASK = PruneMask.full(PARAMS)
NO_SEQUENCES = np.zeros((0, 2, 3))


def _write(tmp, name, text):
    path = tmp / name
    path.write_text(text)
    return path


def _wrong_gradient_shape():
    grads = PARAMS.copy()
    grads.w_xh = np.zeros((4, 2))
    return adam_step(PARAMS, grads, AdamState.zeros(PARAMS), TrainConfig())


CASES = [
    # config
    ("policy-without-colon", lambda tmp: parse_config("[monitor]\npolicy = w_hh\n"),
     ConfigError, "monitor.policy: policy entry 'w_hh' is not layer:gap_kind"),
    ("policy-unknown-gap-kind", lambda tmp: parse_config("[monitor]\npolicy = w_hh:delta_t\n"),
     ConfigError, "monitor.policy: unknown gap kind 'delta_t'"),
    ("synth-n-samples", lambda tmp: parse_config("[data]\nn_samples = 0\n"),
     ConfigError, "data.n_samples: must be >= 1"),
    ("synth-k", lambda tmp: parse_config("[data]\nk = 0\n"), ConfigError, "data.k: must be >= 1"),
    ("synth-input-size", lambda tmp: parse_config("[data]\ninput_size = -2\n"),
     ConfigError, "data.input_size: must be >= 1"),
    ("idx-empty-path", lambda tmp: parse_config("[data]\nsource = idx\n"),
     ConfigError, "data.images_path: required for source=idx; data.labels_path: required"),
    ("csv-empty-path", lambda tmp: parse_config("[data]\nsource = csv\n"),
     ConfigError, "data.csv_path: required for source=csv"),
    ("csv-missing-path",
     lambda tmp: parse_config(f"[data]\nsource = csv\ncsv_path = {tmp}/no.csv\n"),
     ConfigError, "data.csv_path: no such file: "),
    ("limit-negative", lambda tmp: parse_config("[data]\nlimit = -1\n"),
     ConfigError, "data.limit: must be >= 0"),
    ("config-noise-seed", lambda tmp: parse_config("[noise]\nseed = -1\n"),
     ConfigError, "noise.seed: must be >= 0"),
    ("config-seed", lambda tmp: parse_config("[experiment]\nseed = -1\n"),
     ConfigError, "experiment.seed: must be >= 0"),
    ("data-source", lambda tmp: DataConfig(source="nowhere"),
     DomainError, "source: 'nowhere' not in ('synth', 'idx', 'csv')"),
    ("data-several", lambda tmp: DataConfig(synth_kind="spiral", k=0, limit=-1),
     DomainError, "synth_kind: 'spiral' not in ('running-parity', 'mean-threshold'); "
                  "k: must be >= 1; limit: must be >= 0"),
    ("data-idx-paths", lambda tmp: DataConfig(source="idx", images_path=f"{tmp}/no.idx"),
     DomainError, "no.idx; labels_path: required for source=idx"),
    ("experiment-several", lambda tmp: ExperimentConfig(cell_kind="gru", hidden_size=0),
     DomainError, "cell_kind: 'gru' not in ('rnn', 'lstm'); hidden_size: must be >= 1"),
    # data
    ("dataset-not-3d", lambda tmp: SequenceDataset(np.zeros((2, 3)), np.zeros(2), 2),
     ShapeError, "sequences must be (n, k, input_size), got (2, 3)"),
    ("dataset-label-count", lambda tmp: SequenceDataset(np.zeros((2, 3, 1)), np.zeros(3), 2),
     ShapeError, "labels length does not match sequence count"),
    ("dataset-non-finite", lambda tmp: SequenceDataset(np.full((1, 1, 1), np.nan), [0], 2),
     DomainError, "sequence values must be finite"),
    ("dataset-label-range", lambda tmp: SequenceDataset(np.zeros((1, 1, 1)), [2], 2),
     DomainError, "labels must lie in [0, class_count)"),
    ("noise-p", lambda tmp: NoiseSpec(p=1.5), DomainError, "p: must lie in [0, 1]"),
    ("noise-sigma", lambda tmp: NoiseSpec(sigma=-0.1), DomainError, "sigma: must be >= 0"),
    ("noise-sigma-nan", lambda tmp: NoiseSpec(sigma=float("nan")),
     DomainError, "sigma: must be >= 0 and finite"),
    ("noise-sigma-inf", lambda tmp: NoiseSpec(sigma=float("inf")),
     DomainError, "sigma: must be >= 0 and finite"),
    ("noise-seed", lambda tmp: NoiseSpec(seed=-1), DomainError, "seed: must be >= 0"),
    ("noise-several", lambda tmp: NoiseSpec(p=2, sigma=float("nan"), seed=-1),
     DomainError, "p: must lie in [0, 1]; sigma: must be >= 0 and finite; seed: must be >= 0"),
    ("synth-sizes", lambda tmp: synth_task("running-parity", 4, 0, 3),
     DomainError, "n_samples, k and input_size must be >= 1"),
    ("csv-header-below-one", lambda tmp: load_csv_sequences(_write(tmp, "s.csv", "2,0,2\n")),
     FormatError, "line 1: header values must be >= 1"),
    # formats
    ("matx-non-integer-header", lambda tmp: load_matrix_text(_write(tmp, "m.matx", "matx 2 x\n")),
     FormatError, "non-integer dimensions in header"),
    # graphs
    ("bipartite-unknown-mode", lambda tmp: build_bipartite(np.eye(2), mode="spectral"),
     DomainError, "unknown mode 'spectral'"),
    ("bruteforce-not-square", lambda tmp: edge_cheeger_bruteforce(np.ones((2, 3))),
     ShapeError, "adjacency is not square: shape (2, 3)"),
    # linalg
    ("matrix-1d", lambda tmp: linalg.as_dense_matrix(np.ones(3)),
     ShapeError, "expected a non-empty 2-D matrix, got shape (3,)"),
    ("matrix-empty", lambda tmp: linalg.as_dense_matrix(np.ones((0, 2))),
     ShapeError, "expected a non-empty 2-D matrix, got shape (0, 2)"),
    # nets
    ("train-epochs", lambda tmp: TrainConfig(train_epochs=0),
     DomainError, "train_epochs: must be >= 1"),
    ("train-batch", lambda tmp: TrainConfig(batch_size=0),
     DomainError, "batch_size: must be >= 1"),
    ("train-seed", lambda tmp: TrainConfig(seed=-1), DomainError, "seed: must be >= 0"),
    ("gate-rows-cell-kind", lambda tmp: gate_rows("gru", 4),
     DomainError, "unknown cell kind 'gru'"),
    ("init-sizes", lambda tmp: init_params(3, 0, 2), DomainError, "sizes must be >= 1"),
    ("sequences-k-zero", lambda tmp: forward(PARAMS, MASK, np.zeros((1, 0, 3))),
     ShapeError, "sequences must be (n, k, input) with k >= 1, got (1, 0, 3)"),
    ("empty-batch", lambda tmp: loss_and_grads(PARAMS, MASK, NO_SEQUENCES, np.zeros(0)),
     DomainError, "batch is empty"),
    ("adam-shape", lambda tmp: _wrong_gradient_shape(),
     ShapeError, "gradient shape mismatch for w_xh"),
    ("empty-training-set",
     lambda tmp: train(PARAMS, MASK, NO_SEQUENCES, np.zeros(0), TrainConfig(), 1, stream=(0,)),
     DomainError, "training set is empty"),
    # pruning
    ("finetune-epochs", lambda tmp: PruneSchedule(finetune_epochs=-1),
     DomainError, "finetune_epochs: must be >= 0"),
    ("schedule-several", lambda tmp: PruneSchedule(rounds=0, finetune_epochs=-1),
     DomainError, "rounds: must be >= 1; finetune_epochs: must be >= 0"),
    ("prune-mask-shape", lambda tmp: magnitude_prune(np.ones((2, 2)), np.ones((2, 3), bool), 0.5),
     ShapeError, "mask shape (2, 3) != weight shape (2, 2)"),
    ("zero-crossing-empty",
     lambda tmp: detect_zero_crossing([], "w_xh", "weighted_delta_s"),
     DomainError, "trajectory is empty"),
    # svgplot
    ("render-empty", lambda tmp: render_trajectory([], str(tmp / "f.svg")),
     DomainError, "trajectory is empty"),
    # unrolled
    ("unrolled-not-square", lambda tmp: UnrolledSpec(np.ones((2, 3)), 2),
     ShapeError, "block must be square, got shape (2, 3)"),
    ("unrolled-k", lambda tmp: UnrolledSpec(np.eye(2), 0), DomainError, "k must be >= 1, got 0"),
    ("unrolled-size-cap", lambda tmp: UnrolledSpec(np.ones((64, 64)), 100),
     SizeError, "unrolled dimension 6464 exceeds cap 4096"),
]


@pytest.mark.parametrize("call, error, fragment",
                         [pytest.param(*case[1:], id=case[0]) for case in CASES])
def test_refusal(tmp_path, call, error, fragment):
    with pytest.raises(error) as info:
        call(tmp_path)
    assert type(info.value) is error
    assert fragment in str(info.value)


@pytest.mark.parametrize("text, seed", [
    ("[experiment]\nseed = -1\n", None),
    ("[experiment]\nseed = -1\n[noise]\np = 0.1\n", None),
    ("[experiment]\nseed = 3\n[noise]\np = 0.1\n", -1),
], ids=["file", "file-with-noise", "override-with-noise"])
def test_a_negative_experiment_seed_is_listed_once(text, seed):
    # [noise] and [train] both derive their seed from it; neither is blamed.
    with pytest.raises(ConfigError) as info:
        parse_config(text, seed)
    assert str(info.value) == "experiment.seed: must be >= 0"


def test_an_eigensolver_past_the_gershgorin_bound_is_refused(monkeypatch):
    monkeypatch.setattr(linalg.np.linalg, "eigvalsh", lambda M: np.array([-3.0, 3.0]))
    with pytest.raises(ArithmeticError, match="eigensolver violated the Gershgorin row-sum bound"):
        linalg.sym_eigenvalues(np.eye(2))


def test_rewind_to_init_reads_as_true():
    assert parse_config("[prune]\nrewind_to_init = true\n").schedule.rewind_to_init is True


def test_a_blank_csv_row_is_skipped(tmp_path):
    path = _write(tmp_path, "s.csv", "1,2,2\n0,0.5,0.25\n\n1,0.75,1.0\n")
    ds = load_csv_sequences(path)
    assert ds.labels.tolist() == [0, 1]
    assert ds.sequences.reshape(2, 2).tolist() == [[0.5, 0.25], [0.75, 1.0]]
