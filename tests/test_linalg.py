import math

import numpy as np
import pytest

from expanderprune.errors import DomainError, ShapeError
from expanderprune.graphs import build_bipartite, spectral_gaps
from expanderprune.linalg import (
    ABS_SUM_CAP,
    as_dense_matrix,
    bipartite_spectrum,
    sym_eigenvalues,
    top_two_singular_values,
)
from expanderprune.unrolled import UnrolledSpec, closed_form_spectrum, unrolled_spectrum
from oracles import bipartite_adjacency, qr_eigenvalues

# qr_eigenvalues output for the seed-88 symmetric 8x8 below, frozen.
FROZEN_8X8_SPECTRUM = [
    2.5733420519454016,
    2.353060564605534,
    1.540323555186778,
    0.8169544698702332,
    -0.3599420547072052,
    -1.0213338040195599,
    -1.3958445432862183,
    -3.347945759729373,
]


def seed88_symmetric_8x8():
    rng = np.random.default_rng(88)
    M = rng.standard_normal((8, 8))
    return (M + M.T) / 2


def test_two_cycle_spectrum():
    assert np.allclose(sym_eigenvalues([[0, 1], [1, 0]]), [1.0, -1.0], atol=1e-12)


def test_path3_spectrum():
    eigs = sym_eigenvalues([[0, 1, 0], [1, 0, 1], [0, 1, 0]])
    assert np.allclose(eigs, [np.sqrt(2), 0.0, -np.sqrt(2)], atol=1e-12)


def test_random_8x8_matches_frozen_qr_oracle():
    M = seed88_symmetric_8x8()
    eigs = sym_eigenvalues(M)
    assert np.allclose(eigs, FROZEN_8X8_SPECTRUM, atol=1e-8)
    # and the oracle itself reproduces its frozen output
    assert np.allclose(qr_eigenvalues(M), FROZEN_8X8_SPECTRUM, atol=1e-12)


def test_qr_oracle_hand_cases():
    # closed forms: P3 and P3 + 2I
    P3 = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=float)
    assert np.allclose(qr_eigenvalues(P3), [np.sqrt(2), 0, -np.sqrt(2)], atol=1e-12)
    assert np.allclose(
        qr_eigenvalues(P3 + 2 * np.eye(3)), [2 + np.sqrt(2), 2, 2 - np.sqrt(2)], atol=1e-12
    )
    assert np.allclose(
        qr_eigenvalues([[3.0, 1.0], [1.0, 2.0]]),
        [(5 + np.sqrt(5)) / 2, (5 - np.sqrt(5)) / 2],
        atol=1e-12,
    )


def test_sym_eigenvalues_rejects_bad_input():
    with pytest.raises(ShapeError):
        sym_eigenvalues(np.ones((2, 3)))
    with pytest.raises(ShapeError):
        sym_eigenvalues([[0, 1], [2, 0]])
    with pytest.raises(DomainError):
        sym_eigenvalues([[np.nan, 0], [0, 1]])


def test_sym_eigenvalues_deterministic():
    M = seed88_symmetric_8x8()
    a = sym_eigenvalues(M)
    b = sym_eigenvalues(M.copy())
    assert np.array_equal(a, b)


def test_identity_singular_values():
    assert top_two_singular_values(np.eye(2)) == (1.0, 1.0)


def test_rank_one_all_ones():
    s1, s2 = top_two_singular_values([[1, 1], [1, 1]])
    assert abs(s1 - 2.0) < 1e-12
    assert abs(s2) < 1e-12


def test_all_zero_is_degenerate():
    assert top_two_singular_values(np.zeros((3, 5))) == (0.0, 0.0)


def test_negative_entries_rejected():
    with pytest.raises(DomainError):
        top_two_singular_values([[1.0, -0.5], [0.0, 1.0]])


def test_random_sparse_50x50_matches_dense_eigensolver():
    rng = np.random.default_rng(5)
    B = rng.random((50, 50)) * (rng.random((50, 50)) < 0.1)
    s1, s2 = top_two_singular_values(B)
    eigs = sym_eigenvalues(bipartite_adjacency(B))
    assert abs(s1 - eigs[0]) < 1e-7
    assert abs(s2 - eigs[1]) < 1e-7


def test_iterative_path_matches_dense_svd():
    # sparse blocks wider than 64 on both sides, checked against numpy's SVD
    rng = np.random.default_rng(11)
    for trial in range(5):
        B = rng.random((80, 120)) * (rng.random((80, 120)) < 0.05)
        if not B.any():
            continue
        s1, s2 = top_two_singular_values(B)
        ref = np.linalg.svd(B, compute_uv=False)
        assert abs(s1 - ref[0]) <= 1e-8 * max(ref[0], 1.0)
        assert abs(s2 - ref[1]) <= 1e-8 * max(ref[0], 1.0)


def test_iterative_path_handles_tied_top_pair():
    # two identical diagonal blocks duplicate every singular value
    rng = np.random.default_rng(12)
    C = rng.random((40, 40))
    B = np.zeros((80, 80))
    B[:40, :40] = C
    B[40:, 40:] = C
    s1, s2 = top_two_singular_values(B)
    ref = np.linalg.svd(C, compute_uv=False)[0]
    assert abs(s1 - ref) <= 1e-8 * ref
    assert abs(s2 - ref) <= 1e-8 * ref


def test_iterative_path_deterministic():
    rng = np.random.default_rng(31)
    B = rng.random((70, 90)) * (rng.random((70, 90)) < 0.2)
    assert top_two_singular_values(B) == top_two_singular_values(B.copy())


def test_bipartite_spectrum_is_plus_minus_singular_values():
    rng = np.random.default_rng(21)
    for trial in range(10):
        m = int(rng.integers(2, 9))
        n = int(rng.integers(2, 9))
        B = rng.random((m, n)) * (rng.random((m, n)) < 0.6)
        eigs = sym_eigenvalues(bipartite_adjacency(B))
        svals = np.linalg.svd(B, compute_uv=False)
        expected = np.concatenate([svals, np.zeros(m + n - 2 * svals.size), -svals[::-1]])
        assert np.allclose(np.sort(eigs), np.sort(expected), atol=1e-8)


def test_bipartite_spectrum_matches_dense_eigensolver():
    rng = np.random.default_rng(22)
    for m, n in [(1, 1), (1, 5), (5, 1), (4, 4), (3, 9), (12, 7)]:
        B = rng.standard_normal((m, n)) * (rng.random((m, n)) < 0.7)
        spectrum = bipartite_spectrum(B)
        assert spectrum.shape == (m + n,)
        assert np.all(np.diff(spectrum) <= 0)
        assert np.allclose(spectrum, sym_eigenvalues(bipartite_adjacency(B)), atol=1e-12)


def test_gershgorin_bound_holds():
    rng = np.random.default_rng(4)
    for trial in range(20):
        M = rng.standard_normal((6, 6))
        M = (M + M.T) / 2
        eigs = sym_eigenvalues(M)
        assert np.max(np.abs(eigs)) <= np.max(np.abs(M).sum(axis=1)) + 1e-9


@pytest.mark.parametrize("M", [np.full((1, 1), ABS_SUM_CAP), np.eye(2) * (ABS_SUM_CAP / 2),
                               np.diag([ABS_SUM_CAP, -1e-300])],
                         ids=["one-entry", "two-entries", "tiny-beside-large"])
def test_a_matrix_up_to_the_absolute_sum_cap_is_accepted_and_none_past_it(M):
    # pytest fails on a RuntimeWarning, so no report below overflows.
    assert as_dense_matrix(M) is M
    report = spectral_gaps(build_bipartite(M))
    assert math.isfinite(report.lambda1) and math.isfinite(report.d_avg)
    spec = UnrolledSpec(M, 1)
    assert math.isfinite(np.max(np.abs(closed_form_spectrum(spec) - unrolled_spectrum(spec))))
    past = M.copy()
    past.flat[0] = np.nextafter(past.flat[0], np.inf)
    with pytest.raises(DomainError) as info:
        as_dense_matrix(past)
    assert str(info.value) == "matrix entries are too large: their absolute sum exceeds 4.494e+307"
