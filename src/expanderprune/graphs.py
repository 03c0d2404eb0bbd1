"""Bipartite layer graphs and their expansion diagnostics.

A network layer with weight matrix W and prune mask M becomes a
bipartite graph, refused when it has no edge, whose biadjacency holds
|w| (weighted mode) or 0/1 support (unweighted mode).  We compute:

* the top two singular values sigma1 >= sigma2, which are the two
  largest adjacency eigenvalues of the bipartite graph,
* the average degree d_avg over all m + n vertices, isolated ones included,
* alpha2, the second-smallest normalized-Laplacian eigenvalue, from the
  singular values of the degree-normalized block,
* two-sided Cheeger bounds h^2/2 <= alpha2 <= 2h on the edge Cheeger
  constant h,
* the normalized spectral gaps

      delta_R = (2*sqrt(d_avg - 1) - lambda2) / lambda2      (unweighted)
      delta_S = (2*sqrt(lambda1 - 1) - lambda2) / lambda2

  whose positivity is the Ramanujan-style expansion criterion; lambda2
  at or below numpy's rank tolerance lambda1 * max(m, n) * eps counts
  as zero and gives +inf.

build_bipartite_in_place writes the graph into the weights its caller
gives up; build_bipartite runs the same rule on a copy.  A report uses
its graph up in turn: it reads the top two singular values, then the
degrees, and last alpha2, which divides the block by its degrees in
place when no row or column is isolated.  bipartite_alpha2 leaves its
block alone.  Every layer-graph spectrum is a dense SVD of its m x n
block; the (m+n)^2 adjacency and Laplacian are never formed.
normalized_laplacian_eigenvalues remains for general graphs.

Exact brute-force Cheeger constants of undirected graphs up to 20
vertices, read off O(2^n) integer tables over all vertex subsets,
validate every spectral bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGraphError, DomainError, ShapeError, SizeError
from .linalg import (as_dense_matrix, as_mask, bipartite_spectrum, check_symmetric,
                     top_two_singular_values)

WEIGHTED = "weighted"
UNWEIGHTED = "unweighted"
MODES = (WEIGHTED, UNWEIGHTED)

_EPS = float(np.finfo(np.float64).eps)

_BRUTE_FORCE_CAP = 20


@dataclass(frozen=True)
class BipartiteGraph:
    """Non-negative biadjacency with at least one edge, plus the mode it was built in."""

    biadjacency: np.ndarray
    mode: str

    def __post_init__(self):
        if not self.biadjacency.any():
            raise DegenerateGraphError("graph has no edges")


@dataclass(frozen=True)
class SpectralReport:
    """Expansion summary of one layer graph.

    delta_r is None in weighted mode (its average-degree form is only
    meaningful for 0/1 graphs).  Gaps are +inf when lambda2 vanishes and
    -1 when the graph is too sparse for the radical term (d_avg < 1,
    resp. lambda1 < 1).
    """

    mode: str
    lambda1: float
    lambda2: float
    d_avg: float
    alpha2: float
    delta_r: float | None
    delta_s: float
    cheeger_lower: float
    cheeger_upper: float
    ramanujan: bool


def build_bipartite_in_place(W: np.ndarray, mask, mode: str) -> BipartiteGraph:
    """Layer graph of float64 weights W under a prune mask (None keeps every
    entry), built in W's own memory: the caller gives W up.

    Weighted mode stores |w| for every kept entry; unweighted mode stores 1
    wherever a kept entry is nonzero.  W's values, the mask's shape and the
    mode are checked before anything is written.  A rule run on its own result
    leaves it as it is, and the unweighted rule run on a weighted graph gives
    the unweighted graph of its weights.
    """
    W = as_dense_matrix(W)
    if mask is not None:
        mask = as_mask(mask, W.shape)
    if mode not in MODES:
        raise DomainError(f"unknown mode {mode!r}")
    if mode == WEIGHTED:
        np.abs(W, out=W)
    else:
        np.not_equal(W, 0.0, out=W)
    if mask is not None:
        W *= mask
    return BipartiteGraph(W, mode)


def build_bipartite(W, mask=None, mode: str = WEIGHTED) -> BipartiteGraph:
    """Layer graph of a weight matrix under a prune mask, built in a float64
    copy of W (in W's memory order) that leaves W and the mask as they are."""
    return build_bipartite_in_place(np.array(W, dtype=np.float64), mask, mode)


def _gap(base: float, lambda2: float, lambda2_floor: float) -> float:
    """(2*sqrt(base - 1) - lambda2) / lambda2 with the degenerate branches.

    lambda2 <= lambda2_floor means lambda2 is numerically zero and the
    graph is as spread out as possible: +inf.  base < 1 means the graph
    is too sparse for the radical: the radical term is taken as 0 and
    the gap collapses to -1.
    """
    if lambda2 <= lambda2_floor:
        return math.inf
    radicand = base - 1.0
    radical = 2.0 * math.sqrt(radicand) if radicand > 0.0 else 0.0
    return (radical - lambda2) / lambda2


def _assemble_report(g: BipartiteGraph, top_two: tuple[float, float],
                     alpha2_of) -> SpectralReport:
    """Report of layer graph g from its block's top two singular values, its
    degrees and alpha2_of(g), called last because it may use g up."""
    lambda1, lambda2 = top_two
    B = g.biadjacency
    d_avg = float(np.concatenate([B.sum(axis=1), B.sum(axis=0)]).mean())
    # numpy's matrix_rank tolerance: sigma2 at or below it is rounding noise
    floor = lambda1 * max(B.shape) * _EPS
    alpha2 = alpha2_of(g)
    lower, upper = cheeger_bounds(alpha2)
    delta_s = _gap(lambda1, lambda2, floor)
    if g.mode == UNWEIGHTED:
        delta_r = _gap(d_avg, lambda2, floor)
        ramanujan = delta_r >= 0.0
    else:
        delta_r = None
        ramanujan = delta_s >= 0.0
    return SpectralReport(
        mode=g.mode,
        lambda1=lambda1,
        lambda2=lambda2,
        d_avg=d_avg,
        alpha2=alpha2,
        delta_r=delta_r,
        delta_s=delta_s,
        cheeger_lower=lower,
        cheeger_upper=upper,
        ramanujan=ramanujan,
    )


def spectral_gaps(g: BipartiteGraph) -> SpectralReport:
    """Full spectral report of a layer graph (lambda1 = sigma1(B) etc.).  It
    uses g up: alpha2, read last, may leave g's block divided by its degrees."""
    return _assemble_report(g, top_two_singular_values(g.biadjacency),
                            normalized_laplacian_alpha2)


def normalized_laplacian_eigenvalues(adjacency: np.ndarray) -> np.ndarray:
    """Ascending spectrum of I - D^{-1/2} A D^{-1/2}.

    Isolated vertices are removed first (their degree has no inverse
    square root).  Requires at least 2 surviving vertices.
    """
    A = as_dense_matrix(adjacency)
    check_symmetric(A)
    deg = A.sum(axis=1)
    keep = deg > 0
    if int(keep.sum()) < 2:
        raise DegenerateGraphError("fewer than 2 non-isolated vertices")
    A = A[np.ix_(keep, keep)]
    inv_sqrt = 1.0 / np.sqrt(deg[keep])
    L = np.eye(A.shape[0]) - inv_sqrt[:, None] * A * inv_sqrt[None, :]
    eigs = np.linalg.eigvalsh(L)
    return np.clip(eigs, 0.0, 2.0)


def _block_alpha2(B: np.ndarray, owned: bool) -> float:
    """alpha2 of the float64 biadjacency B (see bipartite_alpha2).  An ``owned``
    B with no isolated row or column is itself the normalized block; any other
    B is left alone, and its gathered non-isolated part is the one copy."""
    row_deg, col_deg = B.sum(axis=1), B.sum(axis=0)
    rows, cols = row_deg > 0, col_deg > 0
    if int(rows.sum() + cols.sum()) < 2:
        raise DegenerateGraphError("fewer than 2 non-isolated vertices")
    N = B if owned and rows.all() and cols.all() else B[np.ix_(rows, cols)]
    N /= np.sqrt(row_deg[rows])[:, None]
    N /= np.sqrt(col_deg[cols])[None, :]
    return float(np.clip(1.0 - bipartite_spectrum(N)[1], 0.0, 2.0))


def bipartite_alpha2(B: np.ndarray) -> float:
    """Second-smallest normalized-Laplacian eigenvalue of a bipartite graph.

    With isolated rows and columns dropped from the biadjacency B, the
    normalized adjacency D^{-1/2} A D^{-1/2} is the bipartite adjacency
    of N = D_L^{-1/2} B D_R^{-1/2}, so alpha2 is 1 minus the second entry
    of bipartite_spectrum(N): one SVD of the block, no (m+n)^2 matrix.
    Any real dtype is read as float64.  B is left as it was: the gathered
    block N is the one copy of B, and both divisions run in place on it.
    """
    return _block_alpha2(np.asarray(B, dtype=np.float64), owned=False)


def normalized_laplacian_alpha2(g: BipartiteGraph) -> float:
    """Second-smallest normalized-Laplacian eigenvalue of the layer graph, as
    bipartite_alpha2 computes it.  It uses g up: when no row or column is
    isolated and the block is writeable float64, the block itself is divided
    by its degrees, so no copy of it is made."""
    B = np.asarray(g.biadjacency, dtype=np.float64)
    return _block_alpha2(B, owned=B.flags.writeable)


def cheeger_bounds(alpha2: float) -> tuple[float, float]:
    """Two-sided bounds (alpha2/2, sqrt(2*alpha2)) on the edge Cheeger constant."""
    if not -1e-12 <= alpha2 <= 2.0 + 1e-12:
        raise DomainError(f"alpha2 = {alpha2} outside [0, 2]")
    alpha2 = min(max(alpha2, 0.0), 2.0)
    return alpha2 / 2.0, math.sqrt(2.0 * alpha2)


def _unit_adjacency(adjacency) -> np.ndarray:
    """0/1 loop-free adjacency of a square, symmetric input within the brute-force cap."""
    A = as_dense_matrix(adjacency)
    if A.shape[0] != A.shape[1]:
        raise ShapeError(f"adjacency is not square: shape {A.shape}")
    n = A.shape[0]
    if n > _BRUTE_FORCE_CAP:
        raise SizeError(f"brute force capped at {_BRUTE_FORCE_CAP} vertices, got {n}")
    adj = (A != 0).astype(np.float64)
    np.fill_diagonal(adj, 0.0)
    if not np.array_equal(adj, adj.T):
        raise ShapeError("adjacency support is not symmetric")
    return adj


def _subset_tables(adj: np.ndarray):
    """(ids, size, vol, inner, reach) over the vertex subsets X, each an n-bit index.

    ids lists the X with 1 <= |X| <= n/2.  size = |X| (also the popcount
    of any n-bit value), vol = the degree sum, inner = the edges inside X
    and reach = the mask of X's neighbours.  The entry for X | {v}, X in
    {0..v-1}, comes from the entry for X; inner counts each edge at its
    later endpoint, which needs a symmetric adjacency.
    """
    n = adj.shape[0]
    nbr = (adj.astype(np.int64) << np.arange(n)).sum(axis=1)
    deg = adj.sum(axis=1)
    size = np.zeros(1 << n, dtype=np.uint8)
    vol = np.zeros(1 << n, dtype=np.uint16)
    inner = np.zeros(1 << n, dtype=np.uint16)
    reach = np.zeros(1 << n, dtype=np.uint32)
    for v in range(n):
        lo, hi = slice(0, 1 << v), slice(1 << v, 2 << v)
        bits = int(nbr[v])
        size[hi] = size[lo] + 1
        vol[hi] = vol[lo] + int(deg[v])
        inner[hi] = inner[lo] + size[np.arange(1 << v, dtype=np.uint32) & bits]
        reach[hi] = reach[lo] | bits
    ids = np.flatnonzero((size > 0) & (size <= n // 2))
    return ids, size, vol, inner, reach


def _min_ratio(numerator: np.ndarray, denominator: np.ndarray) -> float:
    """Smallest numerator/denominator as float64, or +inf when there is none."""
    return float((numerator / denominator).min()) if numerator.size else math.inf


def edge_cheeger_bruteforce(adjacency) -> float:
    """Exact edge Cheeger constant min |boundary edges| / |X| over |X| <= |V|/2.

    The boundary of X is vol(X) - 2 inner(X); inputs are capped at 20
    vertices.  Edges are counted unweighted (any nonzero entry is one edge).
    """
    ids, size, vol, inner, _ = _subset_tables(_unit_adjacency(adjacency))
    return _min_ratio(vol[ids] - 2 * inner[ids], size[ids])


def vertex_cheeger_bruteforce(adjacency) -> float:
    """Exact vertex Cheeger constant min |outer vertex boundary| / |X|."""
    ids, size, _, _, reach = _subset_tables(_unit_adjacency(adjacency))
    return _min_ratio(size[reach[ids] & ~ids], size[ids])


def edge_conductance_bruteforce(adjacency) -> float:
    """Exact conductance min |boundary edges| / min(vol X, vol X-complement).

    This volume-normalized edge Cheeger constant is the quantity the
    discrete Cheeger-Buser inequality bounds through alpha2:
    h^2/2 <= alpha2 <= 2h.  (The vertex-count-normalized constant of
    edge_cheeger_bruteforce does not satisfy that sandwich on irregular
    graphs; K5 is a counterexample.)
    """
    adj = _unit_adjacency(adjacency)
    total_volume = int(adj.sum())
    if total_volume == 0:
        raise DegenerateGraphError("graph has no edges")
    ids, _, vol, inner, _ = _subset_tables(adj)
    # X and its complement share a boundary and the denominator takes the
    # smaller volume, so scanning |X| <= |V|/2 covers every partition.
    volume = vol[ids]
    denom = np.minimum(volume, total_volume - volume)
    usable = denom > 0
    return _min_ratio((volume - 2 * inner[ids])[usable], denom[usable])
