"""Dense linear-algebra kernels.

Every layer-graph and unrolled spectrum comes from the entry points here:
dense SVDs for bipartite graphs, whose adjacency spectrum is +/- the
singular values of the biadjacency block, and a symmetric eigensolver.
Only graphs.normalized_laplacian_eigenvalues, the general-graph
reference, calls eigvalsh itself.  All are deterministic: identical
input bits give identical output bits.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, ShapeError

SYMMETRY_ATOL = 1e-12

# A bipartite graph's degrees sum to twice its |entries|, and two spectra bounded
# by twice that differ by at most four times it, so below this no report overflows.
ABS_SUM_CAP = float(np.finfo(np.float64).max) / 4


def as_dense_matrix(data) -> np.ndarray:
    """Coerce ``data`` to a 2-D float64 array, rejecting NaN/Inf entries and an
    absolute sum past ABS_SUM_CAP (summed only when size * max|entry| is past it)."""
    M = np.asarray(data, dtype=np.float64)
    if M.ndim != 2 or M.shape[0] < 1 or M.shape[1] < 1:
        raise ShapeError(f"expected a non-empty 2-D matrix, got shape {M.shape}")
    with np.errstate(over="ignore", invalid="ignore"):  # a signalling NaN sets "invalid"
        if np.maximum(M.max(), -M.min()) <= ABS_SUM_CAP / M.size:  # False for NaN
            return M
        if not np.all(np.isfinite(M)):
            raise DomainError("matrix contains non-finite entries")
        if not np.abs(M).sum() <= ABS_SUM_CAP:
            raise DomainError("matrix entries are too large: their absolute sum exceeds "
                              f"{ABS_SUM_CAP:.4g}")
    return M


def as_mask(mask, shape) -> np.ndarray:
    """``mask`` as a bool array, refused unless it has the weights' ``shape``."""
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != shape:
        raise ShapeError(f"mask shape {mask.shape} != weight shape {shape}")
    return mask


def check_symmetric(M: np.ndarray) -> None:
    if M.shape[0] != M.shape[1]:
        raise ShapeError(f"matrix is not square: shape {M.shape}")
    if M.shape[0] and np.max(np.abs(M - M.T)) > SYMMETRY_ATOL:
        raise ShapeError(f"matrix is not symmetric within {SYMMETRY_ATOL}")


def bipartite_spectrum(B) -> np.ndarray:
    """Spectrum of [[0, B], [B^T, 0]] from an SVD of B, sorted descending.

    The adjacency of a bipartite graph with biadjacency B has eigenvalues
    +/-sigma_i(B) plus |m - n| zeros, so the (m+n)^2 matrix is never built.
    """
    B = as_dense_matrix(B)
    svals = np.linalg.svd(B, compute_uv=False)
    zeros = np.zeros(abs(B.shape[0] - B.shape[1]))
    return np.concatenate([svals, zeros, -svals[::-1]])


def sym_eigenvalues(M) -> np.ndarray:
    """Full real spectrum of a symmetric matrix, sorted descending.

    Raises ShapeError for non-square or asymmetric input and DomainError
    for non-finite entries.  The Gershgorin bound max|lambda| <= max
    absolute row sum is checked on every call.
    """
    M = as_dense_matrix(M)
    check_symmetric(M)
    eigs = np.linalg.eigvalsh(M)[::-1].copy()
    bound = float(np.max(np.abs(M).sum(axis=1)))
    spectral_radius = max(abs(float(eigs[0])), abs(float(eigs[-1])))
    if spectral_radius > bound * (1 + 1e-10) + 1e-12:
        raise ArithmeticError("eigensolver violated the Gershgorin row-sum bound")
    return eigs


def top_two_singular_values(B) -> tuple[float, float]:
    """Two largest singular values of a non-negative matrix, from a dense SVD.

    A matrix with a single row or column has sigma2 = 0, and an all-zero
    matrix yields (0, 0).
    """
    B = as_dense_matrix(B)
    if np.min(B) < 0:
        raise DomainError("biadjacency entries must be non-negative")
    svals = np.linalg.svd(B, compute_uv=False)
    s1 = float(svals[0])
    s2 = float(svals[1]) if svals.size > 1 else 0.0
    return s1, s2
