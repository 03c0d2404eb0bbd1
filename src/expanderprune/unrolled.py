"""Time-unrolled layer chains as block tridiagonal Toeplitz graphs.

Unfolding a recurrent layer over k sequence steps stacks k+1 copies of
the layer's vertex set; consecutive copies are joined by the same m x m
block B.  The resulting adjacency

    A = [[0, B, 0, ...],
         [B^T, 0, B, ...],
         ...,
         [..., B^T, 0]]

is block tridiagonal Toeplitz and bipartite (layers are 2-colorable by
parity).  Grouping even copies against odd copies turns A into the
bipartite adjacency of a parity block C, so every spectral quantity
comes from one SVD of C instead of an eigensolve of A.  For symmetric B
the spectrum has the closed form {2 * eig_i(B) * cos(pi * j / (k + 2))}
over i = 1..m, j = 1..k+1, which the numerical spectrum cross-checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ShapeError, SizeError
from .graphs import (SpectralReport, WEIGHTED, _assemble_report, build_bipartite_in_place,
                     normalized_laplacian_alpha2)
from .linalg import (
    SYMMETRY_ATOL,
    as_dense_matrix,
    bipartite_spectrum,
    sym_eigenvalues,
    top_two_singular_values,
)

_UNROLLED_DIM_CAP = 4096


@dataclass(frozen=True)
class UnrolledSpec:
    """Block B of one layer and the number of unrolling steps k."""

    B: np.ndarray
    k: int

    def __post_init__(self):
        B = as_dense_matrix(self.B)
        if B.shape[0] != B.shape[1]:
            raise ShapeError(f"block must be square, got shape {B.shape}")
        object.__setattr__(self, "B", B)
        if self.k < 1:
            raise DomainError(f"k must be >= 1, got {self.k}")
        if self.dim > _UNROLLED_DIM_CAP:
            raise SizeError(f"unrolled dimension {self.dim} exceeds cap {_UNROLLED_DIM_CAP}")

    @property
    def m(self) -> int:
        return self.B.shape[0]

    @property
    def dim(self) -> int:
        return (self.k + 1) * self.m


def build_unrolled(spec: UnrolledSpec) -> np.ndarray:
    """Dense (k+1)m x (k+1)m unrolled adjacency; symmetric by construction."""
    m, k = spec.m, spec.k
    A = np.zeros((spec.dim, spec.dim))
    for i in range(k):
        A[i * m:(i + 1) * m, (i + 1) * m:(i + 2) * m] = spec.B
        A[(i + 1) * m:(i + 2) * m, i * m:(i + 1) * m] = spec.B.T
    return A


def parity_block(spec: UnrolledSpec) -> np.ndarray:
    """Even-copy x odd-copy block C of the unrolled adjacency.

    Copy 2a is row block a and copy 2b+1 is column block b, so the edge
    from copy i to copy i+1 puts B (i even) or B^T (i odd) at row block
    (i+1)//2, column block i//2.  A is a permutation of [[0, C], [C^T, 0]].
    """
    m, k = spec.m, spec.k
    C = np.zeros(((k // 2 + 1) * m, (k + 1) // 2 * m))
    for i in range(k):
        r, c = (i + 1) // 2, i // 2
        C[r * m:(r + 1) * m, c * m:(c + 1) * m] = spec.B if i % 2 == 0 else spec.B.T
    return C


def unrolled_spectrum(spec: UnrolledSpec) -> np.ndarray:
    """Full spectrum of the unrolled adjacency, sorted descending."""
    return bipartite_spectrum(parity_block(spec))


def closed_form_spectrum(spec: UnrolledSpec) -> np.ndarray:
    """Exact unrolled spectrum for symmetric B, sorted descending.

    Raises DomainError when B is not symmetric (the closed form only
    holds in the symmetric case).
    """
    if np.max(np.abs(spec.B - spec.B.T)) > SYMMETRY_ATOL:
        raise DomainError("closed-form spectrum requires a symmetric block")
    block_eigs = sym_eigenvalues(spec.B)
    j = np.arange(1, spec.k + 2)
    cosines = np.cos(math.pi * j / (spec.k + 2))
    values = (2.0 * block_eigs[:, None] * cosines[None, :]).ravel()
    return np.sort(values)[::-1].copy()


def unrolled_gap_report(spec: UnrolledSpec, mode: str = WEIGHTED) -> SpectralReport:
    """Spectral report of the unrolled graph.

    The parity block C, built for this report alone, becomes a layer graph
    in its own memory exactly as a weight matrix does (|C| or its support,
    by mode, refused with no edge), and its report is assembled as
    spectral_gaps assembles a layer's, from the same terms of the same
    graph in the same order, which uses C up.  Both helpers are bound in
    this module, so benchmarks/tracing.py, which patches them in graphs,
    does not count a report here as a layer's.
    With k = 1, C is the block itself and this is the layerwise report of B.
    """
    g = build_bipartite_in_place(parity_block(spec), None, mode)
    return _assemble_report(g, top_two_singular_values(g.biadjacency),
                            normalized_laplacian_alpha2)
