"""Iterative magnitude pruning with per-round spectral monitoring.

One IMP run trains the dense model, then repeatedly (1) prunes W_xh and
W_hh to a geometrically shrinking keep-fraction q, (2) fine-tunes the
survivors, (3) evaluates test accuracy, and (4) computes weighted and
unweighted spectral reports for both layers.  The resulting trajectory
is the object of study: accuracy versus the remaining-edge fraction,
annotated with the first zero crossing of each spectral gap.

Runs are deterministic for the same seed and the same numeric
environment, and resumable: RunDirectory alone decides what a run
directory holds and how much of it a restarted run keeps.  This module
is the only place that checks a run's arguments, splits the data, seeds
and trains the dense model (start_run, train_dense), for library and CLI
callers alike.
"""

from __future__ import annotations

import errno
import fcntl
import math
import os
from contextlib import ExitStack
from dataclasses import asdict, dataclass

import numpy as np

from .data import NoiseSpec, SequenceDataset, add_noise, train_test_split
from .errors import ConfigError, DomainError, FormatError, check_fields
from .formats import (
    dump_json_line,
    load_checkpoint,
    parse_json_line,
    save_checkpoint,
)
from .graphs import MODES, SpectralReport, build_bipartite, spectral_gaps
from .linalg import as_mask
from .nets import (
    PruneMask,
    RecurrentParams,
    TrainConfig,
    apply_mask,
    evaluate,
    init_params,
    train,
)

LAYERS = ("w_xh", "w_hh")
GAP_KINDS = ("unweighted_delta_r", "unweighted_delta_s", "weighted_delta_s")
TEST_FRACTION = 0.20

_STREAM_DENSE = 0
_STREAM_FINETUNE = 1


@dataclass(frozen=True)
class PruneSchedule:
    """Geometric keep-fraction schedule q_t = q0 * r^t, r = (qT/q0)^(1/rounds)."""

    rounds: int = 20
    start_fraction: float = 1.0
    final_fraction: float = 0.01
    finetune_epochs: int = 2
    rewind_to_init: bool = False

    def __post_init__(self):
        check_fields([
            ("rounds", self.rounds >= 1, "must be >= 1"),
            ("start_fraction", 0.0 < self.start_fraction <= 1.0, "must lie in (0, 1]"),
            ("final_fraction", 0.0 < self.final_fraction <= self.start_fraction,
             "must lie in (0, start_fraction]"),
            ("finetune_epochs", self.finetune_epochs >= 0, "must be >= 0"),
        ])

    def keep_fraction(self, round_index: int) -> float:
        ratio = (self.final_fraction / self.start_fraction) ** (1.0 / self.rounds)
        return self.start_fraction * ratio ** round_index


@dataclass
class PruneRecord:
    round: int
    q: dict[str, float]
    test_accuracy: float
    reports: dict[str, dict[str, SpectralReport]]
    zero_crossed: dict[str, dict[str, bool]]

    def gap(self, layer: str, kind: str) -> float:
        check_policy([(layer, kind)])
        mode, attr = kind.split("_", 1)
        return getattr(self.reports[layer][mode], attr)


def check_policy(policy=()):
    """``policy`` if each (layer, gap kind) pair names a layer of LAYERS and
    a kind of GAP_KINDS; else one DomainError naming every bad name as
    ``policy: reason``.  The one rule for (layer, gap kind) pairs: a
    [monitor] policy, a run_imp policy and every gap lookup."""
    check_fields([check for layer, kind in policy for check in (
        ("policy", layer in LAYERS, f"unknown layer {layer!r}"),
        ("policy", kind in GAP_KINDS, f"unknown gap kind {kind!r}"))])
    return policy


def magnitude_prune(W: np.ndarray, mask: np.ndarray, q: float) -> np.ndarray:
    """Keep the ceil(q * total) largest-|w| currently-unmasked entries.

    The winners are the kept entries ranked by |w| descending, a NaN
    magnitude ranking below every number, with ties broken toward the
    lexicographically smaller (row, col).  One partition finds the cut
    magnitude: every entry above it wins, and so do the first entries
    equal to it in (row, col) order, so the cost is O(size), not a sort.
    The result is a new C-ordered mask whose support is a subset of the
    input support; asking for at least as many entries as are currently
    kept returns the mask unchanged.
    """
    if q <= 0.0:
        raise DomainError("keep fraction q must be > 0")
    W = np.asarray(W, dtype=np.float64)
    mask = as_mask(mask, W.shape)
    target = math.ceil(q * W.size)
    if target >= np.count_nonzero(mask):
        return mask.copy()
    index = np.flatnonzero(mask)  # row-major, so in (row, col) order
    magnitudes = np.abs(W.take(index))
    magnitudes[np.isnan(magnitudes)] = -1.0
    cut = np.partition(magnitudes, index.size - target)[index.size - target]
    above = magnitudes > cut
    ties = np.flatnonzero(magnitudes == cut)[: target - int(np.count_nonzero(above))]
    above[ties] = True
    out = np.zeros(mask.shape, dtype=bool)
    np.put(out, index[above], True)
    return out


def layer_reports(params: RecurrentParams, mask: PruneMask) -> dict[str, dict[str, SpectralReport]]:
    """Weighted and unweighted spectral reports for both prunable layers."""
    out: dict[str, dict[str, SpectralReport]] = {}
    for layer in LAYERS:
        out[layer] = {}
        for mode in MODES:
            graph = build_bipartite(getattr(params, layer), getattr(mask, layer), mode)
            out[layer][mode] = spectral_gaps(graph)
    return out


def _crosses(value, previous=None) -> bool:
    """The zero-crossing rule: a gap < 0 that starts its series (``previous``
    None) or follows a gap >= 0.  NaN neither crosses nor precedes one."""
    return value < 0 and (previous is None or previous >= 0)


def _make_record(round_index, params, mask, test_ds, previous) -> PruneRecord:
    reports = layer_reports(params, mask)
    record = PruneRecord(
        round=round_index,
        q={layer: mask.kept_fraction(layer) for layer in LAYERS},
        test_accuracy=evaluate(params, mask, test_ds.sequences, test_ds.labels),
        reports=reports,
        zero_crossed={},
    )
    record.zero_crossed = {layer: {kind: _crosses(record.gap(layer, kind),
                                                  previous and previous.gap(layer, kind))
                                   for kind in GAP_KINDS}
                           for layer in LAYERS}
    return record


def first_zero_crossing(values) -> int | None:
    """Index of the first zero crossing (_crosses) of a gap series, or None."""
    return next((i for i, v in enumerate(values)
                 if _crosses(v, values[i - 1] if i else None)), None)


def detect_zero_crossing(records: list[PruneRecord], layer: str, kind: str) -> int | None:
    """Round of the first zero crossing of one layer's gap, or None."""
    if not records:
        raise DomainError("trajectory is empty")
    idx = first_zero_crossing([r.gap(layer, kind) for r in records])
    return None if idx is None else records[idx].round


def stop_criterion(records: list[PruneRecord], policy) -> bool:
    """True (stop) when any monitored (layer, gap kind) has crossed zero;
    an empty policy never stops."""
    return bool(records) and any(
        detect_zero_crossing(records, layer, kind) is not None for layer, kind in policy)


def _record_line(record: PruneRecord) -> str:
    """A record as one canonical JSON line (byte-deterministic)."""
    return dump_json_line(asdict(record)) + "\n"


def _parse_record(line: bytes, path, line_no: int) -> PruneRecord:
    """Inverse of _record_line; FormatError for a line that is not a record."""
    try:
        fields = parse_json_line(line.decode(), path, line_no)
        reports = {layer: {mode: SpectralReport(**rep) for mode, rep in by_mode.items()}
                   for layer, by_mode in fields["reports"].items()}
        return PruneRecord(**{**fields, "reports": reports})
    except (AttributeError, KeyError, TypeError, UnicodeDecodeError) as exc:
        raise FormatError(f"{path}: line {line_no}: not a trajectory record: {exc}") from None


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _check_run_record(record: PruneRecord, path, line_no: int) -> PruneRecord:
    """``record`` if it holds what a run's records hold: a report for every
    layer and mode, a q and zero_crossed entry for every layer, an int
    round, and a number wherever ``report`` does arithmetic."""
    missing = [f"reports.{layer}.{mode}" for layer in LAYERS for mode in MODES
               if mode not in record.reports.get(layer, {})]
    for name in ("q", "zero_crossed"):
        entries = getattr(record, name)
        missing += [f"{name}.{layer}" for layer in LAYERS
                    if not isinstance(entries, dict) or layer not in entries]
    if missing:
        raise FormatError(f"{path}: line {line_no}: record lacks {', '.join(missing)}")
    numbers = {"test_accuracy": record.test_accuracy}
    for layer in LAYERS:
        numbers[f"q.{layer}"] = record.q[layer]
        numbers.update({f"{layer}.{kind}": record.gap(layer, kind) for kind in GAP_KINDS})
    wrong = [f"{name} is not a number" for name, value in numbers.items() if not _is_number(value)]
    if isinstance(record.round, bool) or not isinstance(record.round, int):
        wrong.insert(0, "round is not an int")
    if wrong:
        raise FormatError(f"{path}: line {line_no}: {'; '.join(wrong)}")
    return record


def _run_lines(path):
    """The rule for a run's trajectory: line N ends in a newline and holds
    round N-1's run record (FormatError if it holds no run record).
    Returns [(record, end offset)] for the lines that keep it, and the
    number and fault of the first line that does not, or None, None."""
    kept = []
    with open(path, "rb") as f:
        for line_no, line in enumerate(f, start=1):
            if not line.endswith(b"\n"):
                return kept, line_no, "line does not end in a newline"
            record = _check_run_record(_parse_record(line, path, line_no), path, line_no)
            if record.round != len(kept):
                return kept, line_no, f"round {record.round} where round {len(kept)} belongs"
            kept.append((record, f.tell()))
    return kept, None, None


def load_run_trajectory(path) -> list[PruneRecord]:
    """run_imp's records, or FormatError at the first line _run_lines refuses."""
    kept, line_no, fault = _run_lines(path)
    if fault:
        raise FormatError(f"{path}: line {line_no}: {fault}")
    return [record for record, _ in kept]


class RunDirectory:
    """The files of one resumable IMP run, held by one writer at a time.

    ``run_config.json`` is the run's snapshot (one canonical JSON line),
    ``round_NNN.ckpt`` the model after round NNN, and ``trajectory.jsonl``
    one line per round.  A run killed at any byte leaves a directory that
    resumes to the bytes of an uninterrupted run: the snapshot is written
    to a temp file and moved into place, each checkpoint is written before
    its line, and a line counts only once it ends in a newline.  The
    writer holds an exclusive flock on the empty ``run.lock`` until close
    (or the end of a ``with`` block); the kernel drops it if the process
    dies.
    """

    def __init__(self, path, snapshot: dict):
        """Make ``path``, check its snapshot against ``snapshot``, which a
        directory without one gets, and take the lock.  A differing
        snapshot raises ConfigError before any file is made, and a
        directory another writer holds raises OSError(EBUSY) before
        anything is written."""
        os.makedirs(path, exist_ok=True)
        self._path = path
        self._trajectory_path = os.path.join(path, "trajectory.jsonl")
        self._config_path = os.path.join(path, "run_config.json")
        self._snapshot = dump_json_line(snapshot)
        self._has_snapshot()  # a different run is refused before run.lock is made
        self._lock = os.open(os.path.join(path, "run.lock"), os.O_RDWR | os.O_CREAT, 0o644)
        try:
            fcntl.flock(self._lock, fcntl.LOCK_EX | fcntl.LOCK_NB)
            if not self._has_snapshot():  # checked again: the last holder may have written one
                temp_path = self._config_path + ".tmp"
                with open(temp_path, "w", newline="") as f:
                    f.write(self._snapshot + "\n")
                os.replace(temp_path, self._config_path)
        except BlockingIOError:
            self.close()
            raise OSError(errno.EBUSY, "run directory is held by another writer", path) from None
        except BaseException:
            self.close()
            raise

    def _has_snapshot(self) -> bool:
        """Whether run_config.json exists; ConfigError if it differs from ours."""
        if not os.path.exists(self._config_path):
            return False
        with open(self._config_path) as f:
            if f.read().strip() != self._snapshot:
                raise ConfigError(f"{self._config_path}: existing run was produced by "
                                  "a different configuration")
        return True

    def close(self) -> None:
        """Release the directory (closing the descriptor drops the flock)."""
        os.close(self._lock)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()

    def _checkpoint(self, round_index) -> str:
        return os.path.join(self._path, f"round_{round_index:03d}.ckpt")

    def resume(self):
        """The usable prefix of an earlier run and the model it ended with:
        the lines _run_lines keeps, up to the first whose checkpoint is
        missing; a last checkpoint that does not load (FormatError) counts
        as missing.  trajectory.jsonl is cut back to its end.  Returns
        (records, params, mask); params and mask are None for no round."""
        kept, model = [], (None, None)
        if os.path.exists(self._trajectory_path):
            for record, line_end in _run_lines(self._trajectory_path)[0]:
                if not os.path.exists(self._checkpoint(record.round)):
                    break
                kept.append((record, line_end))
            while kept and model[0] is None:
                try:
                    model = load_checkpoint(self._checkpoint(kept[-1][0].round))
                except FormatError:  # a torn last checkpoint: cut back to the round before
                    kept.pop()
            os.truncate(self._trajectory_path, kept[-1][1] if kept else 0)
        return [record for record, _ in kept], *model

    def append(self, record: PruneRecord, params: RecurrentParams, mask: PruneMask) -> None:
        """Persist one round: its checkpoint, then the line that commits it."""
        save_checkpoint(self._checkpoint(record.round), params, mask)
        with open(self._trajectory_path, "a", newline="") as f:
            f.write(_record_line(record))


def start_run(config: TrainConfig, dataset: SequenceDataset, cell_kind: str, hidden_size: int,
              noise: NoiseSpec | None = None, policy=()):
    """What a run starts from, every argument checked before any file exists:
    the policy (check_policy), the seeded train/test split (TEST_FRACTION
    held out) with ``noise`` applied to the split or splits its
    ``apply_to`` names, and the initial model seeded from config.seed.
    Returns (train, test, initial)."""
    check_policy(policy)
    train_ds, test_ds = train_test_split(dataset, TEST_FRACTION, seed=config.seed)
    if train_ds.n == 0 or test_ds.n == 0:
        raise DomainError(f"dataset of {dataset.n} samples leaves an empty train or test split")
    if noise is not None:
        if noise.apply_to in ("both", "train"):
            train_ds = add_noise(train_ds, noise)
        if noise.apply_to in ("both", "test"):
            test_ds = add_noise(test_ds, noise)
    initial = init_params(dataset.input_size, hidden_size, dataset.class_count,
                          cell_kind, seed=config.seed)
    return train_ds, test_ds, initial


def train_dense(config: TrainConfig, initial: RecurrentParams,
                train_ds: SequenceDataset) -> tuple[RecurrentParams, PruneMask]:
    """Round 0's model: ``initial`` trained unmasked for config.train_epochs."""
    mask = PruneMask.full(initial)
    params = train(initial, mask, train_ds.sequences, train_ds.labels,
                   config, config.train_epochs, stream=(_STREAM_DENSE, 0))
    return params, mask


def _dataset_digest(dataset: SequenceDataset) -> dict:
    import hashlib  # here: analyze, unroll and report load no OpenSSL (numpy.random would)

    digest = hashlib.sha256()
    for array in (dataset.sequences, dataset.labels):
        digest.update(np.ascontiguousarray(array))
    return {
        "shape": list(dataset.sequences.shape),
        "class_count": dataset.class_count,
        "sha256": digest.hexdigest(),
    }


def run_imp(config: TrainConfig, schedule: PruneSchedule, dataset: SequenceDataset,
            *, cell_kind: str = "rnn", hidden_size: int = 128,
            out_dir=None, policy=(), noise: NoiseSpec | None = None) -> list[PruneRecord]:
    """Full IMP trajectory on the train/test split of ``dataset``.

    Round 0 is the dense baseline after config.train_epochs of training
    (train_dense); each later round prunes both layers to the scheduled
    keep fraction, fine-tunes for schedule.finetune_epochs (skipped when
    the masks did not change), and records accuracy plus all spectral
    reports.  W_hy is never pruned.  A non-empty ``policy`` (pairs of
    layer and gap kind) stops the run after the first monitored zero
    crossing.

    start_run checks the policy, the split and the model spec and applies
    ``noise``; a refused argument raises before any file or directory exists.

    With ``out_dir`` set, every round is appended to that RunDirectory,
    and a rerun resumes after its usable prefix, reproducing an
    uninterrupted run byte for byte.  The snapshot records the model,
    training config, schedule, policy, noise and a sha256 of the dataset
    (not the output path); a rerun whose snapshot differs raises
    ConfigError before anything is trained or written.  The run holds the
    directory until it returns or raises, and a second writer meanwhile
    gets OSError(EBUSY).

    Once split and digested, ``dataset`` is no longer referenced here, so
    the run holds only its train and test copies.  A caller that passes
    the dataset without keeping it (as ``expanderprune prune`` does) lets
    it be freed before training on CPython >= 3.11, where the callee's
    frame owns a call's arguments; on 3.10 the caller's stack keeps it
    until the call returns.
    """
    train_ds, test_ds, initial = start_run(config, dataset, cell_kind, hidden_size, noise, policy)
    digest = _dataset_digest(dataset) if out_dir else None
    del dataset

    run_dir = None
    records: list[PruneRecord] = []
    with ExitStack() as held:
        if out_dir:
            noise_fields = asdict(noise or NoiseSpec())
            # the target keeps its own top-level key, as in earlier snapshots
            noise_apply_to = noise_fields.pop("apply_to")
            run_dir = held.enter_context(RunDirectory(out_dir, {
                "cell_kind": cell_kind,
                "hidden_size": hidden_size,
                "test_fraction": TEST_FRACTION,
                "train": asdict(config),
                "schedule": asdict(schedule),
                "policy": [list(pair) for pair in policy],
                "noise": noise_fields if noise is not None else None,
                "noise_apply_to": noise_apply_to,
                "dataset": digest,
            }))
            records, params, mask = run_dir.resume()

        for round_index in range(len(records), schedule.rounds + 1):
            if stop_criterion(records, policy):
                break
            if round_index == 0:
                params, mask = train_dense(config, initial, train_ds)
            else:
                q_t = schedule.keep_fraction(round_index)
                new_mask = PruneMask(
                    magnitude_prune(params.w_xh, mask.w_xh, q_t),
                    magnitude_prune(params.w_hh, mask.w_hh, q_t),
                )
                changed = (new_mask.w_xh != mask.w_xh).any() or (new_mask.w_hh != mask.w_hh).any()
                mask = new_mask
                if schedule.rewind_to_init:
                    params = initial.copy()
                params = apply_mask(params, mask)
                if changed and schedule.finetune_epochs > 0:
                    params = train(params, mask, train_ds.sequences, train_ds.labels,
                                   config, schedule.finetune_epochs,
                                   stream=(_STREAM_FINETUNE, round_index))
            previous = records[-1] if records else None
            record = _make_record(round_index, params, mask, test_ds, previous)
            if run_dir is not None:
                run_dir.append(record, params, mask)
            records.append(record)
    return records
