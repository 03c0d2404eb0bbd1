import math
import tracemalloc

import numpy as np
import pytest

from expanderprune.errors import DegenerateGraphError, DomainError, ShapeError, SizeError
from expanderprune.graphs import (
    UNWEIGHTED,
    WEIGHTED,
    BipartiteGraph,
    bipartite_alpha2,
    build_bipartite,
    build_bipartite_in_place,
    cheeger_bounds,
    edge_cheeger_bruteforce,
    edge_conductance_bruteforce,
    normalized_laplacian_alpha2,
    normalized_laplacian_eigenvalues,
    spectral_gaps,
    vertex_cheeger_bruteforce,
)
from expanderprune.linalg import bipartite_spectrum
from graphgen import random_connected_graph
from oracles import bipartite_adjacency, reference_cheeger_constants


def cycle_adjacency(n):
    adj = np.zeros((n, n))
    for i in range(n):
        adj[i, (i + 1) % n] = adj[(i + 1) % n, i] = 1.0
    return adj


def cycle8_bipartite():
    # C8 with even vertices on the left: each left vertex meets two right ones
    adj = cycle_adjacency(8)
    return build_bipartite(adj[np.ix_([0, 2, 4, 6], [1, 3, 5, 7])], None, UNWEIGHTED)


def test_build_bipartite_weighted_takes_magnitudes():
    g = build_bipartite([[0.5, -0.2], [0.0, 0.3]], None, WEIGHTED)
    assert np.array_equal(g.biadjacency, [[0.5, 0.2], [0.0, 0.3]])


def test_build_bipartite_unweighted_is_support_indicator():
    g = build_bipartite([[0.5, -0.2], [0.0, 0.3]], None, UNWEIGHTED)
    assert np.array_equal(g.biadjacency, [[1.0, 1.0], [0.0, 1.0]])


def test_build_bipartite_mask_is_applied():
    mask = np.array([[True, False], [False, True]])
    g = build_bipartite([[0.5, -0.2], [0.1, 0.3]], mask, WEIGHTED)
    assert np.array_equal(g.biadjacency, [[0.5, 0.0], [0.0, 0.3]])


def test_build_bipartite_zero_weights_degenerate():
    with pytest.raises(DegenerateGraphError, match="^graph has no edges$"):
        build_bipartite(np.zeros((3, 3)), None, WEIGHTED)
    # The graph type holds the rule, so a graph built directly obeys it too.
    with pytest.raises(DegenerateGraphError, match="^graph has no edges$"):
        BipartiteGraph(np.zeros((3, 3)), UNWEIGHTED)


def test_build_bipartite_shape_mismatch():
    with pytest.raises(ShapeError):
        build_bipartite(np.ones((2, 2)), np.ones((2, 3), dtype=bool), WEIGHTED)


def _signed_weights(seed, shape=(6, 5)):
    """Weights with exact zeros and negative zeros, and a mask that drops some of each."""
    rng = np.random.default_rng(seed)
    W = rng.standard_normal(shape)
    W[0, :2], W[1, :2] = 0.0, -0.0
    mask = rng.random(shape) < 0.6
    mask[0, 0] = mask[1, 0] = True
    return W, mask


@pytest.mark.parametrize("form", ["float", "int", "transposed"])
@pytest.mark.parametrize("mode", [WEIGHTED, UNWEIGHTED])
def test_build_bipartite_leaves_its_inputs_as_they_are(form, mode):
    W, mask = _signed_weights(21)
    if form == "int":
        W = np.rint(3 * W).astype(np.int64)
    elif form == "transposed":
        W, mask = W.T, mask.T  # column-major views
    before = W.tobytes(), mask.tobytes()
    g = build_bipartite(W, mask, mode)
    assert (W.tobytes(), mask.tobytes()) == before
    # the rule before it was built in place: a fresh array in W's memory order
    F = np.asarray(W, dtype=np.float64)
    want = np.abs(F) * mask if mode == WEIGHTED else ((F != 0) & mask).astype(np.float64)
    assert g.biadjacency.tobytes() == want.tobytes()
    assert g.biadjacency.flags.f_contiguous == (form == "transposed")


@pytest.mark.parametrize("mode, mask", [
    ("spectral", None),
    ("spectral", np.ones((6, 5), dtype=bool)),
    (WEIGHTED, np.ones((5, 6), dtype=bool)),
    (UNWEIGHTED, np.ones((6, 4), dtype=bool)),
], ids=["unknown-mode", "unknown-mode-masked", "transposed-mask", "narrow-mask"])
def test_the_in_place_rule_writes_nothing_it_refuses(mode, mask):
    W, _ = _signed_weights(22)
    before = W.tobytes()
    with pytest.raises(DomainError if mode == "spectral" else ShapeError):
        build_bipartite_in_place(W, mask, mode)
    assert W.tobytes() == before


def test_the_in_place_rule_is_its_own_fixed_point_and_unweighted_needs_only_support():
    W, mask = _signed_weights(23)
    for mode in (WEIGHTED, UNWEIGHTED):
        once = build_bipartite(W, mask, mode).biadjacency
        block = once.copy()
        g = build_bipartite_in_place(block, mask, mode)
        assert g.biadjacency is block and block.tobytes() == once.tobytes()
    # weighted, then unweighted on the result, is the unweighted graph of W
    block = W.copy()
    build_bipartite_in_place(block, mask, WEIGHTED)
    build_bipartite_in_place(block, mask, UNWEIGHTED)
    assert block.tobytes() == build_bipartite(W, mask, UNWEIGHTED).biadjacency.tobytes()


@pytest.mark.parametrize("W, mode, d_avg", [
    (np.ones((4, 4)), UNWEIGHTED, 4.0),
    (np.eye(4), UNWEIGHTED, 1.0),
    ([[1.0, 1.0], [0.0, 1.0]], UNWEIGHTED, 1.5),
    ([[0.5, -0.2], [0.0, 0.3]], WEIGHTED, 0.5),  # row sums (0.7, 0.3), column sums (0.5, 0.5)
    ([[1.0, 0.0], [0.0, 0.0]], UNWEIGHTED, 0.5),  # the two isolated vertices count in the mean
], ids=["complete-bipartite", "perfect-matching", "direct-count", "weighted-sums", "isolated-vertices"])
def test_spectral_gaps_d_avg_is_the_mean_degree_of_all_vertices(W, mode, d_avg):
    assert spectral_gaps(build_bipartite(W, None, mode)).d_avg == d_avg


def test_spectral_gaps_perfect_matching_is_minus_one():
    report = spectral_gaps(build_bipartite(np.eye(4), None, UNWEIGHTED))
    assert report.delta_r == -1.0
    assert report.delta_s == -1.0
    assert not report.ramanujan


def test_spectral_gaps_complete_bipartite_is_infinite():
    report = spectral_gaps(build_bipartite(np.ones((4, 4)), None, UNWEIGHTED))
    assert report.delta_r == math.inf
    assert report.delta_s == math.inf
    assert report.ramanujan


def test_spectral_gaps_eight_cycle():
    report = spectral_gaps(cycle8_bipartite())
    expected = (2 - np.sqrt(2)) / np.sqrt(2)
    assert abs(report.lambda1 - 2.0) < 1e-10
    assert abs(report.lambda2 - np.sqrt(2)) < 1e-10
    assert abs(report.delta_r - expected) < 1e-9
    assert abs(report.delta_s - expected) < 1e-9


@pytest.mark.parametrize("m, n", [(64, 64), (65, 65), (512, 128), (2048, 512)])
def test_spectral_gaps_complete_bipartite_infinite_at_every_size(m, n):
    # sigma2 of the all-ones block is rounding noise that grows with the
    # block (about 1e-11 at 2048x512); it must still count as zero
    report = spectral_gaps(build_bipartite(np.ones((m, n)), None, UNWEIGHTED))
    assert report.delta_r == report.delta_s == math.inf
    assert report.ramanujan is True


def test_spectral_gaps_weighted_hand_example():
    # two disjoint weighted edges: singular values (2, 1)
    report = spectral_gaps(build_bipartite([[2.0, 0.0], [0.0, 1.0]], None, WEIGHTED))
    assert abs(report.lambda1 - 2.0) < 1e-12
    assert abs(report.lambda2 - 1.0) < 1e-12
    assert abs(report.delta_s - 1.0) < 1e-10  # (2*sqrt(1) - 1) / 1
    assert report.d_avg == 1.5
    assert report.alpha2 < 1e-12  # disconnected
    assert report.ramanujan


def test_spectral_gaps_weighted_mode_has_no_delta_r():
    report = spectral_gaps(build_bipartite([[0.5, 0.2], [0.1, 0.4]], None, WEIGHTED))
    assert report.delta_r is None
    assert report.ramanujan == (report.delta_s >= 0)


def test_spectral_gaps_edgeless_raises():
    with pytest.raises(DegenerateGraphError):
        spectral_gaps(build_bipartite(np.zeros((2, 2)), None, WEIGHTED))


def test_alpha2_disconnected_is_zero():
    # two disjoint edges
    assert normalized_laplacian_alpha2(build_bipartite(np.eye(2), None, UNWEIGHTED)) < 1e-12


def test_alpha2_complete_bipartite():
    alpha2 = normalized_laplacian_alpha2(build_bipartite(np.ones((4, 4)), None, UNWEIGHTED))
    assert abs(alpha2 - 1.0) < 1e-12


def laplacian_alpha2(B):
    return normalized_laplacian_eigenvalues(bipartite_adjacency(B))[1]


def test_alpha2_from_block_matches_full_laplacian():
    rng = np.random.default_rng(41)
    for trial in range(45):
        m, n = int(rng.integers(1, 30)), int(rng.integers(1, 30))
        B = rng.random((m, n)) * (rng.random((m, n)) < rng.uniform(0.05, 0.9))
        if trial < 30:
            B[rng.random(m) < 0.2] = 0.0  # isolated rows
            B[:, rng.random(n) < 0.2] = 0.0  # isolated columns
        else:  # an edge at every row and column: alpha2 divides the block in place
            B[np.arange(m), rng.integers(0, n, m)] = rng.random(m) + 0.01
            B[rng.integers(0, m, n), np.arange(n)] = rng.random(n) + 0.01
            assert B.sum(axis=1).all() and B.sum(axis=0).all()
        if not B.any():
            continue
        for mode in (WEIGHTED, UNWEIGHTED):
            g = build_bipartite(B, None, mode)
            want = laplacian_alpha2(g.biadjacency)  # before alpha2 uses g up
            assert abs(normalized_laplacian_alpha2(g) - want) <= 1e-12


def test_alpha2_star_single_edge_and_disconnected():
    for n in (1, 2, 7):
        star = np.ones((1, n))
        assert abs(bipartite_alpha2(star) - laplacian_alpha2(star)) <= 1e-12
        assert abs(bipartite_alpha2(star.T) - laplacian_alpha2(star.T)) <= 1e-12
    assert bipartite_alpha2(np.array([[1.0]])) == 2.0
    single_edge = np.zeros((3, 4))
    single_edge[1, 2] = 0.5
    assert bipartite_alpha2(single_edge) == 2.0
    two_components = np.zeros((4, 5))
    two_components[:2, :2] = 1.0
    two_components[2:, 2:] = 1.0
    assert bipartite_alpha2(two_components) == 0.0
    assert abs(laplacian_alpha2(two_components)) <= 1e-12


def test_alpha2_from_block_needs_an_edge():
    with pytest.raises(DegenerateGraphError):
        bipartite_alpha2(np.zeros((3, 2)))


def test_alpha2_eight_cycle():
    eigs = normalized_laplacian_eigenvalues(cycle_adjacency(8))
    assert abs(eigs[1] - (1 - np.cos(np.pi / 4))) < 1e-12


def test_alpha2_needs_two_vertices():
    with pytest.raises(DegenerateGraphError):
        normalized_laplacian_eigenvalues(np.zeros((3, 3)))


def test_cheeger_bounds_formula():
    assert cheeger_bounds(0.0) == (0.0, 0.0)
    assert cheeger_bounds(0.5) == (0.25, 1.0)
    assert cheeger_bounds(2.0) == (1.0, 2.0)
    with pytest.raises(DomainError):
        cheeger_bounds(2.5)
    with pytest.raises(DomainError):
        cheeger_bounds(-0.1)


def test_edge_cheeger_trivials():
    k2 = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert edge_cheeger_bruteforce(k2) == 1.0
    two_edges = np.zeros((4, 4))
    two_edges[0, 1] = two_edges[1, 0] = 1.0
    two_edges[2, 3] = two_edges[3, 2] = 1.0
    assert edge_cheeger_bruteforce(two_edges) == 0.0
    assert edge_cheeger_bruteforce(cycle_adjacency(8)) == 0.5


def test_vertex_cheeger_trivials():
    k2 = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert vertex_cheeger_bruteforce(k2) == 1.0
    two_edges = np.zeros((4, 4))
    two_edges[0, 1] = two_edges[1, 0] = 1.0
    two_edges[2, 3] = two_edges[3, 2] = 1.0
    assert vertex_cheeger_bruteforce(two_edges) == 0.0
    assert vertex_cheeger_bruteforce(cycle_adjacency(8)) == 0.5


def test_bruteforce_size_cap():
    with pytest.raises(SizeError):
        edge_cheeger_bruteforce(np.zeros((21, 21)))


def test_conductance_trivials():
    k2 = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert edge_conductance_bruteforce(k2) == 1.0
    # C8: cutting an arc of 4 leaves 2 boundary edges over volume 8
    assert edge_conductance_bruteforce(cycle_adjacency(8)) == 0.25


def path_adjacency(n):
    adj = np.zeros((n, n))
    for i in range(n - 1):
        adj[i, i + 1] = adj[i + 1, i] = 1.0
    return adj


def disjoint_union(*parts):
    n = sum(part.shape[0] for part in parts)
    adj = np.zeros((n, n))
    at = 0
    for part in parts:
        k = part.shape[0]
        adj[at:at + k, at:at + k] = part
        at += k
    return adj


def bruteforce_corpus():
    """62 symmetric graphs of 1..12 vertices, edgeless and disconnected ones included."""
    complete = [np.ones((n, n)) - np.eye(n) for n in range(1, 13)]  # K_1 is edgeless
    graphs = list(complete)
    graphs += [cycle_adjacency(n) for n in range(3, 13)]
    graphs += [path_adjacency(n) for n in range(2, 13)]
    graphs += [np.zeros((n, n)) for n in range(1, 13)]
    graphs += [
        disjoint_union(complete[2], complete[2]),
        disjoint_union(complete[3], cycle_adjacency(5)),
        disjoint_union(cycle_adjacency(4), cycle_adjacency(4), path_adjacency(3)),
        disjoint_union(*[complete[1]] * 5),
        disjoint_union(complete[5], path_adjacency(6)),
    ]
    graphs += [  # isolated vertices beside the edges
        disjoint_union(complete[4], np.zeros((3, 3))),
        disjoint_union(cycle_adjacency(6), np.zeros((1, 1))),
        disjoint_union(np.zeros((2, 2)), path_adjacency(4), np.zeros((2, 2))),
        disjoint_union(complete[1], np.zeros((10, 10))),
    ]
    rng = np.random.default_rng(23)
    for n in (4, 6, 8, 9, 10, 11, 12):
        upper = np.triu(rng.random((n, n)) < 0.35, 1)
        graphs.append((upper | upper.T).astype(np.float64))
    weights = rng.random((9, 9))
    graphs.append(weights + weights.T)  # K_9 with weights and self-loops
    return graphs


def test_bruteforce_constants_equal_per_subset_reference():
    for adj in bruteforce_corpus():
        h_edge, h_vertex, conductance = reference_cheeger_constants(adj)
        assert edge_cheeger_bruteforce(adj) == h_edge
        assert vertex_cheeger_bruteforce(adj) == h_vertex
        if conductance is None:
            with pytest.raises(DegenerateGraphError):
                edge_conductance_bruteforce(adj)
        else:
            assert edge_conductance_bruteforce(adj) == conductance


def test_asymmetric_adjacency_is_rejected():
    directed = np.zeros((3, 3))
    directed[0, 1] = directed[1, 2] = 1.0  # arcs 0 -> 1 -> 2
    for fn in (edge_cheeger_bruteforce, vertex_cheeger_bruteforce,
               edge_conductance_bruteforce, normalized_laplacian_eigenvalues):
        with pytest.raises(ShapeError):
            fn(directed)
    # the brute force reads the 0/1 support, the Laplacian the weights
    reweighted = cycle_adjacency(5)
    reweighted[0, 1] = 3.0
    assert edge_cheeger_bruteforce(reweighted) == edge_cheeger_bruteforce(cycle_adjacency(5))
    with pytest.raises(ShapeError):
        normalized_laplacian_eigenvalues(reweighted)


def two_temporary_alpha2(B):
    """bipartite_alpha2 with a fresh array per division, as it was first written."""
    row_deg, col_deg = B.sum(axis=1), B.sum(axis=0)
    rows, cols = row_deg > 0, col_deg > 0
    N = (B[np.ix_(rows, cols)] / np.sqrt(row_deg[rows])[:, None]
         / np.sqrt(col_deg[cols])[None, :])
    return float(np.clip(1.0 - bipartite_spectrum(N)[1], 0.0, 2.0))


def test_alpha2_in_place_divisions_keep_the_bits():
    rng = np.random.default_rng(43)
    for trial in range(40):
        m, n = int(rng.integers(1, 40)), int(rng.integers(1, 40))
        B = rng.random((m, n)) + 0.01
        if trial % 2:
            B *= rng.random((m, n)) < 0.5
            B[rng.random(m) < 0.2] = 0.0  # isolated rows
            B[:, rng.random(n) < 0.2] = 0.0  # isolated columns
            if int((B.sum(axis=1) > 0).sum() + (B.sum(axis=0) > 0).sum()) < 2:
                continue
        before = B.copy()
        assert bipartite_alpha2(B) == two_temporary_alpha2(B)
        assert np.array_equal(B, before)  # the caller's block is left alone
        # a layer graph's alpha2 may divide its own block, in either memory order
        # (which orders the degree sums)
        for order in "CF":
            owned = BipartiteGraph(B.copy(order=order), WEIGHTED)
            assert normalized_laplacian_alpha2(owned) == two_temporary_alpha2(
                before.copy(order=order))


def test_a_report_leaves_a_block_it_cannot_write_as_it_was():
    B = np.random.default_rng(46).random((5, 4)) + 0.01
    before = B.copy()
    B.setflags(write=False)
    assert spectral_gaps(BipartiteGraph(B, WEIGHTED)) == spectral_gaps(build_bipartite(B))
    assert np.array_equal(B, before)


def test_alpha2_reads_any_real_dtype_as_float64():
    rng = np.random.default_rng(45)
    B = (rng.random((12, 9)) < 0.5).astype(np.int64) * rng.integers(1, 4, (12, 9))
    B[3] = 0  # an isolated row
    assert bipartite_alpha2(B) == bipartite_alpha2(B.astype(np.float64))
    assert bipartite_alpha2(B) == two_temporary_alpha2(B)
    W = rng.random((12, 9)).astype(np.float32)
    assert bipartite_alpha2(W) == bipartite_alpha2(W.astype(np.float64))


def test_alpha2_holds_one_copy_of_the_block():
    B = np.random.default_rng(44).random((2048, 512))
    tracemalloc.start()
    try:
        bipartite_alpha2(B)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * B.nbytes


def test_cheeger_buser_sandwich_small_corpus():
    rng = np.random.default_rng(17)
    for trial in range(25):
        adj = random_connected_graph(rng, max_vertices=10)
        h = edge_conductance_bruteforce(adj)
        alpha2 = normalized_laplacian_eigenvalues(adj)[1]
        assert h * h / 2 <= alpha2 + 1e-9
        assert alpha2 <= 2 * h + 1e-9


def test_vertex_edge_equivalence_small_corpus():
    # classical two-sided equivalence: h_vertex <= h_edge <= D * h_vertex
    rng = np.random.default_rng(18)
    for trial in range(25):
        adj = random_connected_graph(rng, max_vertices=10)
        h_edge = edge_cheeger_bruteforce(adj)
        h_vertex = vertex_cheeger_bruteforce(adj)
        d_max = adj.sum(axis=1).max()
        assert h_vertex <= h_edge + 1e-12
        assert h_edge <= d_max * h_vertex + 1e-12


def test_adjacency_laplacian_relation_small_corpus():
    # 1 - alpha_i lies between lambda_i/D and lambda_i/d (endpoints swap
    # for negative eigenvalues; equality when the graph is regular)
    rng = np.random.default_rng(19)
    for trial in range(25):
        adj = random_connected_graph(rng, max_vertices=10)
        degrees = adj.sum(axis=1)
        d_min, d_max = degrees.min(), degrees.max()
        lambdas = np.sort(np.linalg.eigvalsh(adj))[::-1]
        alphas = normalized_laplacian_eigenvalues(adj)
        for lam, alpha in zip(lambdas, alphas):
            lo = min(lam / d_max, lam / d_min)
            hi = max(lam / d_max, lam / d_min)
            assert lo - 1e-9 <= 1 - alpha <= hi + 1e-9


def test_unweighted_report_scale_invariant():
    rng = np.random.default_rng(20)
    W = rng.standard_normal((6, 6)) * (rng.random((6, 6)) < 0.5)
    mask = np.ones_like(W, dtype=bool)
    base = spectral_gaps(build_bipartite(W, mask, UNWEIGHTED))
    for scale in (0.01, 3.7, 1000.0):
        scaled = spectral_gaps(build_bipartite(W * scale, mask, UNWEIGHTED))
        assert scaled == base


def test_ramanujan_flag_matches_threshold():
    rng = np.random.default_rng(23)
    for trial in range(30):
        W = rng.standard_normal((8, 8)) * (rng.random((8, 8)) < 0.6)
        if not W.any():
            continue
        report = spectral_gaps(build_bipartite(W, None, UNWEIGHTED))
        threshold_holds = report.lambda2 <= 2 * math.sqrt(max(report.d_avg - 1, 0.0)) + 1e-10
        assert report.ramanujan == threshold_holds
