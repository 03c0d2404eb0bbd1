import numpy as np
import pytest

from expanderprune.errors import DomainError
from expanderprune.graphs import (
    UNWEIGHTED,
    WEIGHTED,
    build_bipartite,
    normalized_laplacian_eigenvalues,
    spectral_gaps,
)
from expanderprune.linalg import sym_eigenvalues
from expanderprune.unrolled import (
    UnrolledSpec,
    build_unrolled,
    closed_form_spectrum,
    parity_block,
    unrolled_gap_report,
    unrolled_spectrum,
)


def test_k1_is_single_bipartite_layer():
    B = np.arange(1.0, 5.0).reshape(2, 2)
    A = build_unrolled(UnrolledSpec(B, 1))
    assert np.array_equal(A[:2, 2:], B)
    assert np.array_equal(A[2:, :2], B.T)
    assert not A[:2, :2].any() and not A[2:, 2:].any()


def test_scalar_block_k2_is_path_graph():
    A = build_unrolled(UnrolledSpec(np.array([[1.0]]), 2))
    assert np.array_equal(A, [[0, 1, 0], [1, 0, 1], [0, 1, 0]])


def test_block_pattern():
    rng = np.random.default_rng(3)
    B = rng.standard_normal((3, 3))
    k = 4
    A = build_unrolled(UnrolledSpec(B, k))
    m = 3
    for i in range(k + 1):
        for j in range(k + 1):
            block = A[i * m:(i + 1) * m, j * m:(j + 1) * m]
            if j == i + 1:
                assert np.array_equal(block, B)
            elif j == i - 1:
                assert np.array_equal(block, B.T)
            else:
                assert not block.any()


def test_parity_block_permutes_unrolled_adjacency():
    rng = np.random.default_rng(15)
    m = 3
    B = rng.standard_normal((m, m))
    for k in (1, 2, 5, 6):
        spec = UnrolledSpec(B, k)
        evens = [i * m + r for i in range(0, k + 1, 2) for r in range(m)]
        odds = [i * m + r for i in range(1, k + 1, 2) for r in range(m)]
        assert np.array_equal(parity_block(spec), build_unrolled(spec)[np.ix_(evens, odds)])


def test_unrolled_spectrum_matches_dense_eigensolver():
    rng = np.random.default_rng(16)
    for m in (1, 3, 6):
        for k in (1, 2, 3, 4, 7, 8):
            B = rng.standard_normal((m, m)) * (rng.random((m, m)) < 0.7)  # not symmetric
            spec = UnrolledSpec(B, k)
            dense = sym_eigenvalues(build_unrolled(spec))
            assert np.allclose(unrolled_spectrum(spec), dense, atol=1e-10 * max(dense[0], 1.0))


def test_closed_form_trivials():
    assert np.allclose(closed_form_spectrum(UnrolledSpec(np.array([[1.0]]), 1)), [1.0, -1.0])
    assert np.allclose(
        closed_form_spectrum(UnrolledSpec(np.array([[1.0]]), 2)),
        [np.sqrt(2), 0.0, -np.sqrt(2)],
        atol=1e-12,
    )


def test_closed_form_rejects_asymmetric_block():
    with pytest.raises(DomainError):
        closed_form_spectrum(UnrolledSpec(np.array([[0.0, 1.0], [0.0, 0.0]]), 2))


def test_closed_form_matches_numerical_spectrum():
    rng = np.random.default_rng(9)
    for trial in range(10):
        m = int(rng.integers(1, 7))
        k = int(rng.integers(1, 9))
        B = rng.standard_normal((m, m))
        B = (B + B.T) / 2
        spec = UnrolledSpec(B, k)
        assert np.allclose(
            closed_form_spectrum(spec), sym_eigenvalues(build_unrolled(spec)), atol=1e-9
        )


def test_unrolled_spectrum_symmetric_about_zero():
    rng = np.random.default_rng(10)
    for trial in range(8):
        m = int(rng.integers(1, 5))
        k = int(rng.integers(1, 7))
        B = rng.standard_normal((m, m))  # arbitrary, not symmetric
        eigs = sym_eigenvalues(build_unrolled(UnrolledSpec(B, k)))
        assert np.allclose(eigs, -eigs[::-1], atol=1e-9)


def test_unrolled_top_eigenvalue_below_twice_sigma1():
    rng = np.random.default_rng(13)
    for trial in range(8):
        m = int(rng.integers(1, 5))
        k = int(rng.integers(1, 7))
        B = rng.standard_normal((m, m))
        eigs = sym_eigenvalues(build_unrolled(UnrolledSpec(B, k)))
        sigma1 = np.linalg.svd(B, compute_uv=False)[0]
        assert eigs[0] <= 2 * sigma1 + 1e-9


def test_gap_report_is_the_layer_report_of_the_parity_block():
    # k = 1: the parity block is W itself, so this is W's layerwise report.
    rng = np.random.default_rng(14)
    W = rng.standard_normal((4, 4))
    for k in (1, 2, 5):
        spec = UnrolledSpec(W, k)
        for mode in (WEIGHTED, UNWEIGHTED):
            layer = spectral_gaps(build_bipartite(parity_block(spec), None, mode))
            assert unrolled_gap_report(spec, mode) == layer


def test_gap_report_matches_dense_unrolled_adjacency():
    rng = np.random.default_rng(17)
    for m, k in [(2, 2), (3, 3), (4, 6), (5, 7)]:
        W = rng.standard_normal((m, m)) * (rng.random((m, m)) < 0.6)
        if not W.any():
            continue
        for mode in (WEIGHTED, UNWEIGHTED):
            block = np.abs(W) if mode == WEIGHTED else (W != 0).astype(np.float64)
            A = build_unrolled(UnrolledSpec(block, k))
            eigs = sym_eigenvalues(A)
            report = unrolled_gap_report(UnrolledSpec(W, k), mode)
            assert abs(report.lambda1 - eigs[0]) < 1e-9
            assert abs(report.lambda2 - max(eigs[1], 0.0)) < 1e-9
            assert abs(report.d_avg - A.sum(axis=1).mean()) < 1e-12
            assert abs(report.alpha2 - normalized_laplacian_eigenvalues(A)[1]) < 1e-12


def test_gap_report_identity_block_multiplicities():
    # B = I2, k = 3: eigenvalues 2cos(pi j / 5) each twice
    spec = UnrolledSpec(np.eye(2), 3)
    expected = np.sort(np.repeat(2 * np.cos(np.pi * np.arange(1, 5) / 5), 2))[::-1]
    assert np.allclose(closed_form_spectrum(spec), expected, atol=1e-12)
    report = unrolled_gap_report(spec, UNWEIGHTED)
    assert abs(report.lambda1 - expected[0]) < 1e-9
    assert abs(report.lambda2 - expected[1]) < 1e-9
