import math
from dataclasses import asdict, replace

import numpy as np
import pytest

from expanderprune import pruning
from expanderprune.config import parse_config
from expanderprune.data import NoiseSpec, SequenceDataset, synth_task
from expanderprune.errors import ConfigError, DomainError, FormatError
from expanderprune.formats import dump_json_line, load_checkpoint
from expanderprune.graphs import SpectralReport
from expanderprune.nets import LSTM, TrainConfig, apply_mask, init_params
from expanderprune.pruning import (
    GAP_KINDS,
    LAYERS,
    PruneRecord,
    PruneSchedule,
    detect_zero_crossing,
    first_zero_crossing,
    load_run_trajectory,
    magnitude_prune,
    run_imp,
    stop_criterion,
)
from oracles import magnitude_prune_reference


def test_magnitude_prune_keeps_largest():
    W = np.array([[3.0, -1.0], [0.5, 2.0]])
    mask = magnitude_prune(W, np.ones((2, 2), dtype=bool), 0.5)
    assert np.array_equal(mask, [[True, False], [False, True]])


def test_magnitude_prune_idempotent_at_current_fraction():
    W = np.array([[3.0, -1.0], [0.5, 2.0]])
    current = np.array([[True, False], [False, True]])
    assert np.array_equal(magnitude_prune(W, current, 0.5), current)


def test_magnitude_prune_tie_breaks_lexicographically():
    W = np.array([[0.0, 1.0], [-1.0, 0.0]])
    mask = magnitude_prune(W, np.ones((2, 2), dtype=bool), 0.25)
    assert np.array_equal(mask, [[False, True], [False, False]])


def test_magnitude_prune_support_shrinks():
    rng = np.random.default_rng(0)
    W = rng.standard_normal((10, 10))
    mask = np.ones((10, 10), dtype=bool)
    previous = mask
    for q in (0.7, 0.5, 0.3, 0.1):
        mask = magnitude_prune(W, mask, q)
        assert int(mask.sum()) == int(np.ceil(q * 100))
        assert np.all(previous | ~mask)  # support(mask) subset of support(previous)
        previous = mask


def test_magnitude_prune_rejects_nonpositive_q():
    with pytest.raises(DomainError):
        magnitude_prune(np.ones((2, 2)), np.ones((2, 2), dtype=bool), 0.0)


_SPECIAL_WEIGHTS = np.array([0.0, -0.0, 1.0, -1.0, 0.5, np.inf, -np.inf, np.nan])


def _prune_case(rng):
    """One random (W, mask, q) for the exactness check against the oracle."""
    m, n = (int(v) for v in rng.integers(1, 13, size=2))
    kind = rng.integers(4)
    if kind == 0:
        W = rng.choice(_SPECIAL_WEIGHTS, size=(m, n))
    elif kind == 1:
        W = rng.standard_normal((m, n))
    elif kind == 2:
        W = np.where(rng.random((m, n)) < 0.5, rng.choice(_SPECIAL_WEIGHTS, size=(m, n)),
                     rng.standard_normal((m, n)))
    else:
        W = rng.integers(-3, 4, size=(m, n))
    density = rng.choice([0.0, 1.0, rng.random()])
    mask = rng.random((m, n)) < density
    if rng.random() < 0.25:
        W, mask = np.ascontiguousarray(W.T).T, np.ascontiguousarray(mask.T).T
    q = float(10.0 ** rng.uniform(-3.0, 0.0))
    return W, mask, q


def test_magnitude_prune_matches_lexsort_reference():
    rng = np.random.default_rng(20240611)
    for case in range(2500):
        W, mask, q = _prune_case(rng)
        got = magnitude_prune(W, mask, q)
        assert got.dtype == bool and got.shape == mask.shape, case
        assert got.flags.c_contiguous, case
        assert np.array_equal(got, magnitude_prune_reference(W, mask, q)), case


def test_schedule_is_geometric():
    sched = PruneSchedule(rounds=10, start_fraction=1.0, final_fraction=0.04)
    ratio = 0.04 ** 0.1
    for t in range(11):
        assert abs(sched.keep_fraction(t) - ratio ** t) < 1e-12
    assert abs(sched.keep_fraction(10) - 0.04) < 1e-12


def test_schedule_validation():
    with pytest.raises(DomainError):
        PruneSchedule(rounds=0)
    with pytest.raises(DomainError):
        PruneSchedule(final_fraction=0.0)
    with pytest.raises(DomainError):
        PruneSchedule(start_fraction=0.5, final_fraction=0.9)


def test_first_zero_crossing_enumerated_traces():
    assert first_zero_crossing([0.4, 0.1, -0.2, -0.5]) == 2
    assert first_zero_crossing([0.3, 0.2, 0.1]) is None
    assert first_zero_crossing([0.1, -0.1, 0.2, -0.3]) == 1
    assert first_zero_crossing([-0.1, 0.2, -0.3]) == 0  # crosses twice; the first counts
    # NaN is not < 0, and a negative gap after NaN does not follow one >= 0
    assert first_zero_crossing([math.nan]) is None
    assert first_zero_crossing([0.1, math.nan, -0.2]) is None
    assert first_zero_crossing([math.nan, -0.2, 0.1, -0.3]) == 3
    assert first_zero_crossing([math.inf, -math.inf]) == 1
    assert first_zero_crossing([-math.inf, math.inf]) == 0
    assert first_zero_crossing([math.inf, math.inf]) is None
    # -0.0 is not < 0 but is >= 0
    assert first_zero_crossing([0.1, -0.0]) is None
    assert first_zero_crossing([-0.0, -0.1]) == 1


def fake_record(round_index, gap_by_kind, accuracy=0.9):
    reports = {}
    for layer in ("w_xh", "w_hh"):
        unweighted = SpectralReport(
            mode="unweighted", lambda1=2.0, lambda2=1.0, d_avg=2.0, alpha2=0.5,
            delta_r=gap_by_kind.get("unweighted_delta_r", 1.0),
            delta_s=gap_by_kind.get("unweighted_delta_s", 1.0),
            cheeger_lower=0.25, cheeger_upper=1.0,
            ramanujan=gap_by_kind.get("unweighted_delta_r", 1.0) >= 0,
        )
        weighted = SpectralReport(
            mode="weighted", lambda1=2.0, lambda2=1.0, d_avg=2.0, alpha2=0.5,
            delta_r=None,
            delta_s=gap_by_kind.get("weighted_delta_s", 1.0),
            cheeger_lower=0.25, cheeger_upper=1.0,
            ramanujan=gap_by_kind.get("weighted_delta_s", 1.0) >= 0,
        )
        reports[layer] = {"unweighted": unweighted, "weighted": weighted}
    return PruneRecord(
        round=round_index,
        q={"w_xh": 1.0, "w_hh": 1.0},
        test_accuracy=accuracy,
        reports=reports,
        zero_crossed={layer: {kind: False for kind in GAP_KINDS} for layer in ("w_xh", "w_hh")},
    )


def trajectory_from_gaps(kind, gaps):
    return [fake_record(i, {kind: g}) for i, g in enumerate(gaps)]


def test_detect_zero_crossing_on_traces():
    traj = trajectory_from_gaps("weighted_delta_s", [0.4, 0.1, -0.2, -0.5])
    assert detect_zero_crossing(traj, "w_hh", "weighted_delta_s") == 2
    traj = trajectory_from_gaps("weighted_delta_s", [0.4, 0.1, 0.2])
    assert detect_zero_crossing(traj, "w_hh", "weighted_delta_s") is None
    traj = trajectory_from_gaps("unweighted_delta_r", [0.1, -0.1, 0.2, -0.3])
    assert detect_zero_crossing(traj, "w_xh", "unweighted_delta_r") == 1


def test_detect_zero_crossing_validates_names():
    traj = trajectory_from_gaps("weighted_delta_s", [0.1])
    with pytest.raises(DomainError):
        detect_zero_crossing(traj, "w_hy", "weighted_delta_s")
    with pytest.raises(DomainError):
        detect_zero_crossing(traj, "w_xh", "delta_t")


def test_stop_criterion_policies():
    crossed = trajectory_from_gaps("unweighted_delta_s", [0.4, -0.1])
    assert stop_criterion(crossed, [("w_xh", "unweighted_delta_s")])
    all_positive = trajectory_from_gaps("unweighted_delta_s", [0.4, 0.1])
    assert not stop_criterion(all_positive, [("w_xh", "unweighted_delta_s")])
    assert not stop_criterion(crossed, [])  # empty policy never stops


def tiny_run(tmp_path=None, rounds=3, seed=3):
    ds = synth_task("mean-threshold", 80, 4, 3, seed=seed)
    cfg = TrainConfig(seed=seed, train_epochs=2, batch_size=20)
    sched = PruneSchedule(rounds=rounds, final_fraction=0.05, finetune_epochs=1)
    out = str(tmp_path) if tmp_path is not None else None
    return run_imp(cfg, sched, ds, cell_kind="rnn", hidden_size=6, out_dir=out)


def test_run_imp_records_and_masks(tmp_path):
    traj = tiny_run(tmp_path)
    assert [r.round for r in traj] == [0, 1, 2, 3]
    assert traj[0].q == {"w_xh": 1.0, "w_hh": 1.0}
    qs = [r.q["w_xh"] for r in traj]
    assert all(b <= a for a, b in zip(qs, qs[1:]))
    sched = PruneSchedule(rounds=3, final_fraction=0.05, finetune_epochs=1)
    for r in traj[1:]:
        # recorded q is exact popcount / size for an 18-entry layer
        expected = np.ceil(sched.keep_fraction(r.round) * 18) / 18
        assert r.q["w_xh"] == expected
    for record in traj:
        for layer in ("w_xh", "w_hh"):
            assert set(record.reports[layer]) == {"weighted", "unweighted"}


def test_run_imp_single_identity_round_keeps_dense_accuracy():
    ds = synth_task("mean-threshold", 60, 4, 2, seed=4)
    cfg = TrainConfig(seed=4, train_epochs=1, batch_size=20)
    sched = PruneSchedule(rounds=1, start_fraction=1.0, final_fraction=1.0)
    traj = run_imp(cfg, sched, ds, cell_kind="rnn", hidden_size=4)
    assert len(traj) == 2
    assert traj[1].q == {"w_xh": 1.0, "w_hh": 1.0}
    assert traj[1].test_accuracy == traj[0].test_accuracy


def test_rewind_to_init_starts_every_round_from_the_masked_initial_weights(tmp_path):
    # Without fine-tuning, round r holds exactly the initial weights under
    # round r's mask; the mask itself is cut from the previous round's weights.
    ds = synth_task("running-parity", 80, 4, 3, seed=6)
    cfg = TrainConfig(seed=6, train_epochs=2, batch_size=20)
    sched = PruneSchedule(rounds=3, final_fraction=0.1, finetune_epochs=0, rewind_to_init=True)
    for cell_kind, hidden in (("rnn", 6), (LSTM, 4)):
        out = tmp_path / cell_kind
        run_imp(cfg, sched, ds, cell_kind=cell_kind, hidden_size=hidden, out_dir=str(out))
        initial = init_params(3, hidden, 2, cell_kind, seed=6)
        for round_index in (1, 2, 3):
            params, mask = load_checkpoint(out / f"round_{round_index:03d}.ckpt")
            size = mask.w_hh.size
            kept = math.ceil(sched.keep_fraction(round_index) * size) / size
            assert mask.kept_fraction("w_hh") == kept
            expected = apply_mask(initial, mask).tensors()
            for name, tensor in params.tensors().items():
                assert np.array_equal(tensor, expected[name]), (cell_kind, round_index, name)


def test_run_imp_stop_policy_halts_early():
    ds = synth_task("mean-threshold", 80, 4, 3, seed=5)
    cfg = TrainConfig(seed=5, train_epochs=1, batch_size=20)
    sched = PruneSchedule(rounds=8, final_fraction=0.02, finetune_epochs=0)
    full = run_imp(cfg, sched, ds, cell_kind="rnn", hidden_size=6)
    crossing = None
    for kind in GAP_KINDS:
        c = detect_zero_crossing(full, "w_hh", kind)
        if c is not None and (crossing is None or c < crossing):
            crossing, first_kind = c, kind
    if crossing is None:
        pytest.skip("no crossing on this tiny run")
    stopped = run_imp(cfg, sched, ds, cell_kind="rnn", hidden_size=6,
                      policy=[("w_hh", first_kind)])
    assert stopped[-1].round == crossing


def test_stored_crossing_flags_are_the_rounds_detect_zero_crossing_finds():
    ds = synth_task("mean-threshold", 80, 4, 3, seed=5)
    cfg = TrainConfig(seed=5, train_epochs=1, batch_size=20)
    sched = PruneSchedule(rounds=8, final_fraction=0.02, finetune_epochs=0)
    records = run_imp(cfg, sched, ds, cell_kind="rnn", hidden_size=6)
    flagged = {}
    for layer in LAYERS:
        for kind in GAP_KINDS:
            flagged[layer, kind] = [r.round for r in records if r.zero_crossed[layer][kind]]
            # each round is flagged iff it crosses after the round before it
            assert flagged[layer, kind] == [
                r.round for i, r in enumerate(records)
                if detect_zero_crossing(records[max(i - 1, 0):i + 1], layer, kind) == r.round]
            first = flagged[layer, kind][0] if flagged[layer, kind] else None
            assert first == detect_zero_crossing(records, layer, kind)
    assert any(flagged.values()), "no crossing on this tiny run"


def test_trajectory_round_trip(tmp_path):
    traj = tiny_run(tmp_path)
    loaded = load_run_trajectory(tmp_path / "trajectory.jsonl")
    assert len(loaded) == len(traj)
    for a, b in zip(loaded, traj):
        assert asdict(a) == asdict(b)


PINNED_LINE = (
    '{"q":{"w_hh":0.25,"w_xh":0.5},"reports":{"w_xh":{"unweighted":{"alpha2":0.25,'
    '"cheeger_lower":0.125,"cheeger_upper":0.75,"d_avg":1.5,"delta_r":-1.0,"delta_s":"inf",'
    '"lambda1":2.5,"lambda2":0.0,"mode":"unweighted","ramanujan":false},"weighted":'
    '{"alpha2":0.25,"cheeger_lower":0.125,"cheeger_upper":0.75,"d_avg":1.5,"delta_r":null,'
    '"delta_s":"inf","lambda1":2.5,"lambda2":0.0,"mode":"weighted","ramanujan":true}}},'
    '"round":1,"test_accuracy":0.875,"zero_crossed":{"w_xh":{"unweighted_delta_r":true,'
    '"weighted_delta_s":false}}}\n'
)


def test_trajectory_line_bytes_are_pinned():
    def report(mode, delta_r, ramanujan):
        return SpectralReport(mode=mode, lambda1=2.5, lambda2=0.0, d_avg=1.5, alpha2=0.25,
                              delta_r=delta_r, delta_s=math.inf, cheeger_lower=0.125,
                              cheeger_upper=0.75, ramanujan=ramanujan)

    record = PruneRecord(
        round=1,
        q={"w_xh": 0.5, "w_hh": 0.25},
        test_accuracy=0.875,
        reports={"w_xh": {"unweighted": report("unweighted", -1.0, False),
                          "weighted": report("weighted", None, True)}},
        zero_crossed={"w_xh": {"unweighted_delta_r": True, "weighted_delta_s": False}},
    )
    assert pruning._record_line(record) == PINNED_LINE
    assert pruning._parse_record(PINNED_LINE.encode(), "traj.jsonl", 1) == record


def test_run_imp_refuses_a_line_that_is_not_a_record(tmp_path):
    tiny_run(tmp_path)
    path = tmp_path / "trajectory.jsonl"
    lines = path.read_bytes().splitlines(keepends=True)
    path.write_bytes(b"[]\n" + b"".join(lines[1:]))
    files = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    with pytest.raises(FormatError, match=r"trajectory\.jsonl: line 1: "):
        tiny_run(tmp_path)
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == files


def test_run_imp_refuses_a_record_that_lacks_a_layer(tmp_path):
    tiny_run(tmp_path)
    path = tmp_path / "trajectory.jsonl"
    lines = path.read_bytes().splitlines(keepends=True)
    record = asdict(load_run_trajectory(path)[1])
    del record["reports"]["w_hh"]
    lines[1] = (dump_json_line(record) + "\n").encode()
    path.write_bytes(b"".join(lines))
    files = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    with pytest.raises(FormatError, match=r"trajectory\.jsonl: line 2: record lacks reports\.w_hh\."):
        tiny_run(tmp_path)
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == files


def test_run_imp_refuses_a_record_whose_round_is_not_an_int(tmp_path):
    tiny_run(tmp_path)
    path = tmp_path / "trajectory.jsonl"
    lines = path.read_bytes().splitlines(keepends=True)
    record = asdict(load_run_trajectory(path)[1])
    record["round"] = 1.0
    lines[1] = (dump_json_line(record) + "\n").encode()
    path.write_bytes(b"".join(lines))
    files = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    with pytest.raises(FormatError, match=r"trajectory\.jsonl: line 2: round is not an int$"):
        tiny_run(tmp_path)
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == files


def test_only_run_readers_check_value_types(tmp_path):
    record = asdict(fake_record(0, {}))
    record["q"]["w_xh"] = "x"
    path = tmp_path / "t.jsonl"
    path.write_text(dump_json_line(record) + "\n")
    with pytest.raises(FormatError, match=r"t\.jsonl: line 1: q\.w_xh is not a number$"):
        load_run_trajectory(path)


def test_run_imp_refuses_a_dataset_with_an_empty_split(tmp_path, monkeypatch):
    def no_training(*args, **kwargs):
        raise AssertionError("train called")

    monkeypatch.setattr(pruning, "train", no_training)
    ds = SequenceDataset(np.zeros((2, 4, 3)), np.array([0, 1]), 2)
    out = tmp_path / "run"
    with pytest.raises(DomainError, match="empty train or test split"):
        run_imp(TrainConfig(seed=3), PruneSchedule(rounds=1), ds, hidden_size=4, out_dir=str(out))
    assert not out.exists()


BAD_POLICY = [("w_hy", "delta_t"), ("w_hh", "weighted_delta_s"), ("nope", "unweighted_delta_r")]
BAD_POLICY_NAMES = ("unknown layer 'w_hy'", "unknown gap kind 'delta_t'", "unknown layer 'nope'")


@pytest.mark.parametrize("bad", [
    {"cell_kind": "gru"},
    {"hidden_size": 0},
    {"policy": BAD_POLICY},
    {"dataset": SequenceDataset(np.zeros((2, 4, 3)), np.array([0, 1]), 2)},
], ids=["cell-kind", "hidden-size", "policy", "two-samples"])
def test_a_refused_run_imp_writes_nothing_and_the_corrected_rerun_succeeds(tmp_path, bad):
    good = {"dataset": synth_task("mean-threshold", 40, 4, 3, seed=3),
            "cell_kind": "rnn", "hidden_size": 4, "policy": ()}
    cfg = TrainConfig(seed=3, train_epochs=1, batch_size=20)
    sched = PruneSchedule(rounds=1, final_fraction=0.5, finetune_epochs=0)
    out = tmp_path / "run"

    def run(dataset, **kwargs):
        return run_imp(cfg, sched, dataset, out_dir=str(out), **kwargs)

    with pytest.raises(DomainError):
        run(**{**good, **bad})
    assert not out.exists()
    assert [record.round for record in run(**good)] == [0, 1]
    assert len(load_run_trajectory(out / "trajectory.jsonl")) == 2


def test_config_run_imp_and_detect_zero_crossing_name_the_same_bad_policy_names():
    text = "[monitor]\npolicy = " + ", ".join(f"{l}:{k}" for l, k in BAD_POLICY) + "\n"
    with pytest.raises(ConfigError) as config_error:
        parse_config(text)
    assert str(config_error.value) == "; ".join(f"monitor.policy: {n}" for n in BAD_POLICY_NAMES)
    ds = synth_task("mean-threshold", 40, 4, 3, seed=3)
    with pytest.raises(DomainError) as run_error:
        run_imp(TrainConfig(seed=3), PruneSchedule(rounds=1), ds, policy=BAD_POLICY)
    assert run_error.value.fields == tuple(("policy", n) for n in BAD_POLICY_NAMES)
    with pytest.raises(DomainError) as detect_error:
        detect_zero_crossing(trajectory_from_gaps("weighted_delta_s", [0.1]), "w_hy", "delta_t")
    assert detect_error.value.fields == (("policy", "unknown layer 'w_hy'"),
                                         ("policy", "unknown gap kind 'delta_t'"))


def test_run_imp_deterministic_bytes(tmp_path):
    tiny_run(tmp_path / "a")
    tiny_run(tmp_path / "b")
    a = (tmp_path / "a" / "trajectory.jsonl").read_bytes()
    b = (tmp_path / "b" / "trajectory.jsonl").read_bytes()
    assert a == b


def test_run_imp_resume_is_bit_identical(tmp_path):
    tiny_run(tmp_path / "full", rounds=4)
    full_path = tmp_path / "full" / "trajectory.jsonl"
    # fabricate an interrupted run: first two rounds' records + checkpoints
    partial = tmp_path / "partial"
    partial.mkdir()
    lines = full_path.read_bytes().splitlines(keepends=True)
    (partial / "trajectory.jsonl").write_bytes(b"".join(lines[:2]))
    for name in ("round_000.ckpt", "round_001.ckpt"):
        (partial / name).write_bytes((tmp_path / "full" / name).read_bytes())
    resumed = tiny_run(partial, rounds=4)
    assert [r.round for r in resumed] == [0, 1, 2, 3, 4]
    assert (partial / "trajectory.jsonl").read_bytes() == full_path.read_bytes()


def test_run_imp_ignores_dangling_records_without_checkpoints(tmp_path):
    tiny_run(tmp_path / "full", rounds=4)
    full_path = tmp_path / "full" / "trajectory.jsonl"
    partial = tmp_path / "partial"
    partial.mkdir()
    # records for rounds 0..2 but checkpoint only up to round 1
    lines = full_path.read_bytes().splitlines(keepends=True)
    (partial / "trajectory.jsonl").write_bytes(b"".join(lines[:3]))
    for name in ("round_000.ckpt", "round_001.ckpt"):
        (partial / name).write_bytes((tmp_path / "full" / name).read_bytes())
    resumed = tiny_run(partial, rounds=4)
    assert (partial / "trajectory.jsonl").read_bytes() == full_path.read_bytes()


@pytest.mark.parametrize("torn_round", [0, 3])
def test_run_imp_resumes_after_torn_trajectory_append(tmp_path, torn_round):
    # A run killed while appending round R's line leaves rounds 0..R's
    # checkpoints and a prefix of that line with no newline.
    tiny_run(tmp_path / "full")
    full = {p.name: p.read_bytes() for p in (tmp_path / "full").iterdir()}
    lines = full["trajectory.jsonl"].splitlines(keepends=True)
    torn = lines[torn_round]
    for cut in (1, 2, len(torn) // 2, len(torn) - 2, len(torn) - 1):
        partial = tmp_path / f"cut{cut}"
        partial.mkdir()
        (partial / "run_config.json").write_bytes(full["run_config.json"])
        for r in range(torn_round + 1):
            name = f"round_{r:03d}.ckpt"
            (partial / name).write_bytes(full[name])
        (partial / "trajectory.jsonl").write_bytes(b"".join(lines[:torn_round]) + torn[:cut])
        tiny_run(partial)
        assert {p.name: p.read_bytes() for p in partial.iterdir()} == full


@pytest.mark.parametrize("cut", ["0", "3", "half", "len-1"])
@pytest.mark.parametrize("torn_round", [0, 2, 4])
def test_run_imp_resumes_after_torn_last_checkpoint(tmp_path, torn_round, cut):
    # A crash of the machine can keep round R's line but not all of its
    # checkpoint; that checkpoint does not load, so it counts as missing.
    tiny_run(tmp_path / "full", rounds=4)
    full = {p.name: p.read_bytes() for p in (tmp_path / "full").iterdir()}
    lines = full["trajectory.jsonl"].splitlines(keepends=True)
    torn = f"round_{torn_round:03d}.ckpt"
    size = {"0": 0, "3": 3, "half": len(full[torn]) // 2, "len-1": len(full[torn]) - 1}[cut]
    partial = tmp_path / "partial"
    partial.mkdir()
    (partial / "run_config.json").write_bytes(full["run_config.json"])
    for r in range(torn_round):
        name = f"round_{r:03d}.ckpt"
        (partial / name).write_bytes(full[name])
    (partial / torn).write_bytes(full[torn][:size])
    (partial / "trajectory.jsonl").write_bytes(b"".join(lines[:torn_round + 1]))
    tiny_run(partial, rounds=4)
    assert {p.name: p.read_bytes() for p in partial.iterdir()} == full


@pytest.mark.parametrize("change", ["seed", "schedule", "noise", "dataset"])
def test_run_imp_refuses_resume_under_changed_config(tmp_path, change):
    ds = synth_task("mean-threshold", 80, 4, 3, seed=3)
    cfg = TrainConfig(seed=3, train_epochs=2, batch_size=20)
    sched = PruneSchedule(rounds=2, final_fraction=0.05, finetune_epochs=1)
    kwargs = dict(cell_kind="rnn", hidden_size=6, out_dir=str(tmp_path))
    run_imp(cfg, sched, ds, **kwargs)
    files = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert "run_config.json" in files
    if change == "seed":
        cfg = replace(cfg, seed=4)
    elif change == "schedule":
        sched = replace(sched, rounds=3)
    elif change == "noise":
        kwargs["noise"] = NoiseSpec(p=0.2, sigma=0.3, seed=3)
    else:
        ds = synth_task("mean-threshold", 80, 4, 3, seed=4)
    with pytest.raises(ConfigError):
        run_imp(cfg, sched, ds, **kwargs)
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == files


class Killed(BaseException):
    """Stands for the process dying in the middle of a write."""


class _CutWriter:
    """A file opened for writing whose writes stop when a shared byte
    budget runs out: the prefix that fits reaches the file, then Killed."""

    def __init__(self, f, budget):
        self._f = f
        self._budget = budget

    def write(self, data):
        left = self._budget[0]
        self._budget[0] = max(left - len(data), 0)
        if len(data) > left:
            self._f.write(data[:left])
            raise Killed
        return self._f.write(data)

    def __getattr__(self, name):
        return getattr(self._f, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._f.close()


def killed_run(monkeypatch, out, budget):
    """tiny_run into ``out``, killed once ``budget`` bytes have been written."""
    real_open = open
    left = [budget]

    def cut_open(file, mode="r", *args, **kwargs):
        f = real_open(file, mode, *args, **kwargs)
        return _CutWriter(f, left) if set(mode) & set("wax") else f

    with monkeypatch.context() as patch:
        patch.setattr("builtins.open", cut_open)
        with pytest.raises(Killed):
            tiny_run(out)


def _write_budgets(full):
    """Byte budgets in the order a fresh run writes: 0, 1, half and len-1 of
    the snapshot, then inside round 0's checkpoint, inside round 0's line
    and inside the last round's line."""
    snapshot = len(full["run_config.json"])
    checkpoint = len(full["round_000.ckpt"])
    lines = full["trajectory.jsonl"].splitlines(keepends=True)
    total = sum(len(data) for data in full.values())
    return {
        "snapshot-0": 0,
        "snapshot-1": 1,
        "snapshot-half": snapshot // 2,
        "snapshot-last": snapshot - 1,
        "checkpoint-0": snapshot + checkpoint // 2,
        "line-0": snapshot + checkpoint + len(lines[0]) // 2,
        "line-last": total - len(lines[-1]) // 2,
    }


@pytest.mark.parametrize("kills", [1, 2])
@pytest.mark.parametrize("where", ["snapshot-0", "snapshot-1", "snapshot-half", "snapshot-last",
                                   "checkpoint-0", "line-0", "line-last"])
def test_run_imp_killed_at_any_byte_resumes_to_the_same_bytes(tmp_path, monkeypatch, where, kills):
    tiny_run(tmp_path / "full")
    full = {p.name: p.read_bytes() for p in (tmp_path / "full").iterdir()}
    budget = _write_budgets(full)[where]
    out = tmp_path / "killed"
    killed_run(monkeypatch, out, budget)
    if kills == 2:
        # Every rerun first writes the snapshot or a whole checkpoint, so
        # this smaller budget kills it inside that first file.
        killed_run(monkeypatch, out, min(budget, len(full["round_000.ckpt"])) // 2)
    tiny_run(out)
    assert {p.name: p.read_bytes() for p in out.iterdir()} == full
