import math

import numpy as np
import pytest

from expanderprune.errors import DegenerateGraphError, DomainError, ShapeError, SizeError
from expanderprune.graphs import (
    UNWEIGHTED,
    WEIGHTED,
    bipartite_alpha2,
    build_bipartite,
    cheeger_bounds,
    degree_stats,
    edge_cheeger_bruteforce,
    edge_conductance_bruteforce,
    normalized_laplacian_alpha2,
    normalized_laplacian_eigenvalues,
    spectral_gaps,
    vertex_cheeger_bruteforce,
)
from expanderprune.linalg import bipartite_adjacency
from graphgen import random_connected_graph


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
    assert not g.degenerate


def test_build_bipartite_unweighted_is_support_indicator():
    g = build_bipartite([[0.5, -0.2], [0.0, 0.3]], None, UNWEIGHTED)
    assert np.array_equal(g.biadjacency, [[1.0, 1.0], [0.0, 1.0]])


def test_build_bipartite_mask_is_applied():
    mask = np.array([[True, False], [False, True]])
    g = build_bipartite([[0.5, -0.2], [0.1, 0.3]], mask, WEIGHTED)
    assert np.array_equal(g.biadjacency, [[0.5, 0.0], [0.0, 0.3]])


def test_build_bipartite_zero_weights_degenerate():
    g = build_bipartite(np.zeros((3, 3)), None, WEIGHTED)
    assert g.degenerate


def test_build_bipartite_shape_mismatch():
    with pytest.raises(ShapeError):
        build_bipartite(np.ones((2, 2)), np.ones((2, 3), dtype=bool), WEIGHTED)


def test_degree_stats_complete_bipartite():
    stats = degree_stats(build_bipartite(np.ones((4, 4)), None, UNWEIGHTED))
    assert (stats.d_avg, stats.d_max, stats.d_min, stats.isolated_count) == (4.0, 4.0, 4.0, 0)


def test_degree_stats_perfect_matching():
    stats = degree_stats(build_bipartite(np.eye(4), None, UNWEIGHTED))
    assert (stats.d_avg, stats.d_max, stats.d_min) == (1.0, 1.0, 1.0)


def test_degree_stats_direct_count():
    stats = degree_stats(build_bipartite([[1.0, 1.0], [0.0, 1.0]], None, UNWEIGHTED))
    assert (stats.d_avg, stats.d_max, stats.d_min) == (1.5, 2.0, 1.0)


def test_degree_stats_weighted_uses_weighted_sums():
    stats = degree_stats(build_bipartite([[0.5, -0.2], [0.0, 0.3]], None, WEIGHTED))
    # row sums (0.7, 0.3), column sums (0.5, 0.5)
    assert abs(stats.d_avg - 0.5) < 1e-12
    assert abs(stats.d_max - 0.7) < 1e-12
    assert abs(stats.d_min - 0.3) < 1e-12
    assert stats.isolated_count == 0


def test_degree_stats_counts_isolated_vertices():
    stats = degree_stats(build_bipartite([[1.0, 0.0], [0.0, 0.0]], None, UNWEIGHTED))
    assert stats.isolated_count == 2
    assert stats.d_min == 1.0  # isolated vertices excluded from the minimum
    assert stats.d_avg == 0.5  # but counted in the average


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
    for trial in range(30):
        m, n = int(rng.integers(1, 30)), int(rng.integers(1, 30))
        B = rng.random((m, n)) * (rng.random((m, n)) < rng.uniform(0.05, 0.9))
        B[rng.random(m) < 0.2] = 0.0  # isolated rows
        B[:, rng.random(n) < 0.2] = 0.0  # isolated columns
        if not B.any():
            continue
        for mode in (WEIGHTED, UNWEIGHTED):
            g = build_bipartite(B, None, mode)
            assert abs(normalized_laplacian_alpha2(g) - laplacian_alpha2(g.biadjacency)) <= 1e-12


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
