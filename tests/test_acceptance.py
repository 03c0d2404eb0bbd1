"""Acceptance suite: one test per criterion, printed as PASS/FAIL lines.

Run with ``pytest tests/test_acceptance.py -v -s``.  Criterion 8 trains
the desk-scale model once per session (shared fixture); criterion 9
repeats the full run to compare trajectory bytes.
"""

import math
import os
import time

import numpy as np
import pytest

from expanderprune.data import load_idx_images, synth_task
from expanderprune.graphs import (
    UNWEIGHTED,
    BipartiteGraph,
    build_bipartite,
    edge_cheeger_bruteforce,
    edge_conductance_bruteforce,
    normalized_laplacian_eigenvalues,
    spectral_gaps,
    vertex_cheeger_bruteforce,
)
from expanderprune.linalg import sym_eigenvalues, top_two_singular_values
from expanderprune.nets import LSTM, PruneMask, RNN, TrainConfig, apply_mask, init_params, loss_and_grads
from expanderprune.pruning import (
    PruneSchedule,
    detect_zero_crossing,
    first_zero_crossing,
    run_imp,
)
from expanderprune.unrolled import UnrolledSpec, build_unrolled, closed_form_spectrum
from graphgen import random_connected_graph, random_regular_bipartite
from oracles import bipartite_adjacency, central_difference_grads

# Desk-scale IMP configuration for criteria 8 and 9.  LSTM because the
# plain RNN does not learn 16-step running parity at this size under
# any probed seed or learning rate; lr/batch tuned so parity trains
# within the runtime budget at the fixed seed.
IMP_SEED = 7
IMP_TRAIN = dict(seed=IMP_SEED, learning_rate=0.003, batch_size=25, train_epochs=60)
IMP_SCHEDULE = dict(rounds=20, final_fraction=0.01, finetune_epochs=2)
IMP_MODEL = dict(cell_kind=LSTM, hidden_size=32)


def report_line(number, ok, description):
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {description}")


def connected_corpus(seed, count, max_vertices):
    rng = np.random.default_rng(seed)
    return [random_connected_graph(rng, max_vertices=max_vertices) for _ in range(count)]


def test_criterion_1_cheeger_buser_sandwich():
    start = time.monotonic()
    failures = 0
    for adj in connected_corpus(101, 200, 14):
        h = edge_conductance_bruteforce(adj)
        alpha2 = normalized_laplacian_eigenvalues(adj)[1]
        if not (h * h / 2 <= alpha2 + 1e-9 and alpha2 <= 2 * h + 1e-9):
            failures += 1
    elapsed = time.monotonic() - start
    ok = failures == 0 and elapsed < 60
    report_line(1, ok, f"Cheeger-Buser sandwich on 200 graphs ({elapsed:.1f}s)")
    assert failures == 0
    assert elapsed < 60


def test_criterion_2_vertex_edge_equivalence():
    # classical two-sided equivalence h_vertex <= h_edge <= D * h_vertex
    failures = 0
    for adj in connected_corpus(101, 200, 14):
        h_edge = edge_cheeger_bruteforce(adj)
        h_vertex = vertex_cheeger_bruteforce(adj)
        d_max = adj.sum(axis=1).max()
        if not (h_vertex <= h_edge + 1e-12 and h_edge <= d_max * h_vertex + 1e-12):
            failures += 1
    ok = failures == 0
    report_line(2, ok, "vertex/edge Cheeger equivalence on the same corpus")
    assert failures == 0


def test_criterion_3_adjacency_laplacian_relation():
    # 1 - alpha_i within the interval spanned by lambda_i/D and lambda_i/d
    failures = 0
    for adj in connected_corpus(103, 100, 12):
        degrees = adj.sum(axis=1)
        d_min, d_max = degrees.min(), degrees.max()
        lambdas = np.sort(np.linalg.eigvalsh(adj))[::-1]
        alphas = normalized_laplacian_eigenvalues(adj)
        for lam, alpha in zip(lambdas, alphas):
            lo = min(lam / d_max, lam / d_min)
            hi = max(lam / d_max, lam / d_min)
            if not (lo - 1e-9 <= 1 - alpha <= hi + 1e-9):
                failures += 1
    ok = failures == 0
    report_line(3, ok, "adjacency/normalized-Laplacian eigenvalue relation, 100 graphs")
    assert failures == 0


def test_criterion_4_toeplitz_closed_form():
    start = time.monotonic()
    rng = np.random.default_rng(104)
    worst = 0.0
    for _ in range(50):
        m = int(rng.integers(1, 7))
        k = int(rng.integers(1, 9))
        B = rng.standard_normal((m, m))
        B = (B + B.T) / 2
        spec = UnrolledSpec(B, k)
        closed = closed_form_spectrum(spec)
        numeric = sym_eigenvalues(build_unrolled(spec))
        worst = max(worst, float(np.max(np.abs(closed - numeric))))
    elapsed = time.monotonic() - start
    ok = worst <= 1e-9 and elapsed < 30
    report_line(4, ok, f"block Toeplitz closed form, 50 trials, worst dev {worst:.2e} ({elapsed:.1f}s)")
    assert worst <= 1e-9
    assert elapsed < 30


def test_criterion_5_bipartite_spectral_symmetry():
    rng = np.random.default_rng(105)
    worst = 0.0
    for _ in range(50):
        m = int(rng.integers(1, 65))
        n = int(rng.integers(1, 65))
        B = rng.random((m, n)) * (rng.random((m, n)) < 0.5)
        eigs = sym_eigenvalues(bipartite_adjacency(B))
        svals = np.linalg.svd(B, compute_uv=False)
        expected = np.concatenate([svals, np.zeros(m + n - 2 * svals.size), -svals[::-1]])
        worst = max(worst, float(np.max(np.abs(np.sort(eigs) - np.sort(expected)))))
        if B.any():
            s1, s2 = top_two_singular_values(B)
            worst = max(worst, abs(s1 - svals[0]))
            if svals.size > 1:
                worst = max(worst, abs(s2 - svals[1]))
    ok = worst <= 1e-8
    report_line(5, ok, f"bipartite spectrum = +/- singular values, worst dev {worst:.2e}")
    assert worst <= 1e-8


def test_criterion_6_gradient_checks():
    start = time.monotonic()
    worst = 0.0
    for cell in (RNN, LSTM):
        for k in (1, 3, 7):
            rng = np.random.default_rng(1000 + k)
            params = init_params(6, 8, 3, cell, seed=1000 + k)
            mask = PruneMask.full(params)
            mask.w_xh[rng.random(mask.w_xh.shape) < 0.2] = False
            mask.w_hh[rng.random(mask.w_hh.shape) < 0.2] = False
            params = apply_mask(params, mask)
            xs = rng.standard_normal((6, k, 6))
            ys = rng.integers(0, 3, 6)
            _, grads = loss_and_grads(params, mask, xs, ys)
            arrays = [params.w_xh, params.w_hh, params.w_hy, params.b_h, params.b_y]
            fd = central_difference_grads(lambda: loss_and_grads(params, mask, xs, ys)[0], arrays)
            got = [grads.w_xh, grads.w_hh, grads.w_hy, grads.b_h, grads.b_y]
            for g, f in zip(got, fd):
                scale = np.maximum(np.maximum(np.abs(g), np.abs(f)), 1e-4)
                worst = max(worst, float(np.max(np.abs(g - f) / scale)))
    elapsed = time.monotonic() - start
    ok = worst < 1e-4 and elapsed < 60
    report_line(6, ok, f"BPTT gradient checks, worst rel err {worst:.2e} ({elapsed:.1f}s)")
    assert worst < 1e-4
    assert elapsed < 60


def test_criterion_7_ramanujan_prevalence():
    rng = np.random.default_rng(107)
    positive = 0
    for _ in range(100):
        biadj = random_regular_bipartite(rng, 64, 3)
        report = spectral_gaps(BipartiteGraph(biadj, UNWEIGHTED, degenerate=False))
        assert report.d_avg == 3.0
        if report.delta_r > 0:
            positive += 1
    ok = positive >= 95
    report_line(7, ok, f"random 3-regular bipartite graphs: delta_R > 0 in {positive}/100")
    assert positive >= 95


@pytest.fixture(scope="session")
def imp_trajectory(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("imp_run_a")
    dataset = synth_task("running-parity", 4000, 16, 4, seed=IMP_SEED)
    start = time.monotonic()
    trajectory = run_imp(
        TrainConfig(**IMP_TRAIN), PruneSchedule(**IMP_SCHEDULE), dataset,
        out_dir=str(out_dir), **IMP_MODEL,
    )
    elapsed = time.monotonic() - start
    return trajectory, out_dir, elapsed


def test_criterion_8a_accuracy_preserved_while_unweighted_gap_positive(imp_trajectory):
    trajectory, _, elapsed = imp_trajectory
    dense = trajectory.records[0].test_accuracy
    assert dense >= 0.9, "desk-scale task failed to train"
    violations = []
    for record in trajectory.records:
        both_positive = all(
            record.reports[layer]["unweighted"].delta_s > 0 for layer in ("w_xh", "w_hh")
        )
        if both_positive and abs(record.test_accuracy - dense) > 0.05:
            violations.append((record.round, record.test_accuracy))
    ok = not violations and elapsed < 900
    report_line(
        8, ok,
        f"(a) accuracy within 0.05 of dense ({dense:.3f}) at rounds with positive "
        f"unweighted delta_S on both layers; violations: {violations or 'none'} "
        f"({elapsed:.0f}s)",
    )
    assert elapsed < 900
    assert not violations, (
        "accuracy left the 0.05 band while the unweighted delta_S of both layers "
        f"stayed positive at rounds {violations}; at this desk scale the unweighted "
        "gap of magnitude-pruned trained layers never crosses zero (see ledger)"
    )


def test_criterion_8b_accuracy_drops_after_weighted_crossing(imp_trajectory):
    trajectory, _, elapsed = imp_trajectory
    dense = trajectory.records[0].test_accuracy
    crossing = detect_zero_crossing(trajectory, "w_hh", "weighted_delta_s")
    if crossing is None:
        report_line(8, False, "(b) weighted delta_S of W_hh never crossed zero")
        raise AssertionError("no weighted delta_S crossing for W_hh")
    after = [r.test_accuracy for r in trajectory.records if r.round >= crossing]
    drop = dense - float(np.mean(after))
    ok = drop >= 0.10 and elapsed < 900
    report_line(
        8, ok,
        f"(b) mean accuracy after weighted delta_S crossing of W_hh (round {crossing}) "
        f"drops {drop:.3f} from dense ({elapsed:.0f}s)",
    )
    assert elapsed < 900
    assert drop >= 0.10


def test_criterion_8_mnist_variant_if_available(tmp_path_factory):
    images = os.environ.get("MNIST_IMAGES", "data/mnist/train-images-idx3-ubyte")
    labels = os.environ.get("MNIST_LABELS", "data/mnist/train-labels-idx1-ubyte")
    if not (os.path.isfile(images) and os.path.isfile(labels)):
        pytest.skip("MNIST IDX files not supplied")
    dataset = load_idx_images(images, labels).subset(np.arange(5000))
    out_dir = tmp_path_factory.mktemp("imp_mnist")
    trajectory = run_imp(
        TrainConfig(**IMP_TRAIN), PruneSchedule(**IMP_SCHEDULE), dataset,
        out_dir=str(out_dir), **IMP_MODEL,
    )
    dense = trajectory.records[0].test_accuracy
    violations = [
        (r.round, r.test_accuracy)
        for r in trajectory.records
        if all(r.reports[layer]["unweighted"].delta_s > 0 for layer in ("w_xh", "w_hh"))
        and abs(r.test_accuracy - dense) > 0.08
    ]
    crossing = detect_zero_crossing(trajectory, "w_hh", "weighted_delta_s")
    after = [r.test_accuracy for r in trajectory.records if crossing is not None and r.round >= crossing]
    drop = dense - float(np.mean(after)) if after else 0.0
    ok = not violations and drop >= 0.10
    report_line(8, ok, f"MNIST variant: violations {violations or 'none'}, drop {drop:.3f}")
    assert not violations
    assert drop >= 0.10


def test_qualitative_mean_accuracy_separation(imp_trajectory):
    # mean accuracy over rounds with positive unweighted delta_S on both
    # layers exceeds mean accuracy after the weighted delta_S crossing of
    # W_hh by at least 0.10
    trajectory, _, _ = imp_trajectory
    positive_rounds = [
        r.test_accuracy
        for r in trajectory.records
        if all(r.reports[layer]["unweighted"].delta_s > 0 for layer in ("w_xh", "w_hh"))
    ]
    crossing = detect_zero_crossing(trajectory, "w_hh", "weighted_delta_s")
    assert crossing is not None
    after = [r.test_accuracy for r in trajectory.records if r.round >= crossing]
    separation = float(np.mean(positive_rounds)) - float(np.mean(after))
    print(f"qualitative invariant: mean-accuracy separation {separation:.3f}")
    assert separation >= 0.10


def test_criterion_9_trajectory_determinism(imp_trajectory, tmp_path_factory):
    _, out_dir_a, _ = imp_trajectory
    out_dir_b = tmp_path_factory.mktemp("imp_run_b")
    dataset = synth_task("running-parity", 4000, 16, 4, seed=IMP_SEED)
    run_imp(
        TrainConfig(**IMP_TRAIN), PruneSchedule(**IMP_SCHEDULE), dataset,
        out_dir=str(out_dir_b), **IMP_MODEL,
    )
    bytes_a = (out_dir_a / "trajectory.jsonl").read_bytes()
    bytes_b = (out_dir_b / "trajectory.jsonl").read_bytes()
    ok = bytes_a == bytes_b
    report_line(9, ok, f"two identical-seed runs: trajectory files byte-identical ({len(bytes_a)} bytes)")
    assert ok


def test_criterion_10_zero_crossing_detector():
    cases = [
        ([0.4, 0.1, -0.2, -0.5], 2),
        ([0.3, 0.2, 0.1], None),
        ([0.1, -0.1, 0.2, -0.3], 1),
    ]
    results = [first_zero_crossing(values) for values, _ in cases]
    expected = [want for _, want in cases]
    ok = results == expected
    report_line(10, ok, f"zero-crossing detector on enumerated traces: {results}")
    assert results == expected
