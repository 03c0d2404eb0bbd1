"""Independent dense reference for every output the benchmark checks.

Spectral reports are recomputed from the README's definitions with
``np.linalg.svd`` and ``np.linalg.eigvalsh`` on the full normalized
Laplacian; nothing here calls the package's spectral code.  Each check
is one attempted operation; a mismatch is a failed one.
"""

from __future__ import annotations

import math

import numpy as np

EPS = np.finfo(np.float64).eps
REL_TOL = 1e-7  # lambda1/lambda2 (relative to lambda1) and gaps (relative)
ABS_TOL = 1e-8  # alpha2 and the Cheeger bounds, which live in [0, 2]


class Checks:
    """Attempted and failed operations, with the failures by label."""

    def __init__(self, expected_failures=()):
        self.attempted = 0
        self.failures: list[str] = []
        self.expected = set(expected_failures)

    def check(self, ok: bool, label: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(label)
        return ok

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def unexpected(self) -> list[str]:
        return [label for label in self.failures if label not in self.expected]


def biadjacency(W, mask, mode) -> np.ndarray:
    """|w| on the kept support (weighted) or the 0/1 kept support (unweighted)."""
    support = np.asarray(mask, dtype=bool) & (W != 0)
    if mode == "weighted":
        return np.where(support, np.abs(W), 0.0)
    return support.astype(np.float64)


def normalized_laplacian_spectrum(A: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of I - D^-1/2 A D^-1/2 with isolated vertices dropped."""
    deg = A.sum(axis=1)
    keep = deg > 0
    inv_sqrt = 1.0 / np.sqrt(deg[keep])
    L = np.eye(int(keep.sum())) - A[np.ix_(keep, keep)] * np.outer(inv_sqrt, inv_sqrt)
    return np.clip(np.linalg.eigvalsh(L), 0.0, 2.0)


def _gap(base: float, lambda2: float, lambda2_is_zero: bool) -> float:
    if lambda2_is_zero:
        return math.inf
    radicand = base - 1.0
    radical = 2.0 * math.sqrt(radicand) if radicand > 0.0 else 0.0
    return (radical - lambda2) / lambda2


def reference_report(W, mask, mode) -> dict:
    B = biadjacency(W, mask, mode)
    m, n = B.shape
    sigma = np.linalg.svd(B, compute_uv=False)
    lambda1 = float(sigma[0])
    lambda2 = float(sigma[1]) if sigma.size > 1 else 0.0
    # numpy's matrix_rank tolerance: below it sigma2 is numerically zero
    lambda2_is_zero = lambda2 <= lambda1 * max(m, n) * EPS
    degrees = np.concatenate([B.sum(axis=1), B.sum(axis=0)])
    A = np.block([[np.zeros((m, m)), B], [B.T, np.zeros((n, n))]])
    alpha2 = float(normalized_laplacian_spectrum(A)[1])
    d_avg = float(degrees.mean())
    delta_s = _gap(lambda1, lambda2, lambda2_is_zero)
    delta_r = _gap(d_avg, lambda2, lambda2_is_zero) if mode == "unweighted" else None
    return {
        "mode": mode,
        "lambda1": lambda1,
        "lambda2": lambda2,
        "d_avg": d_avg,
        "alpha2": alpha2,
        "delta_r": delta_r,
        "delta_s": delta_s,
        "cheeger_lower": alpha2 / 2.0,
        "cheeger_upper": math.sqrt(2.0 * alpha2),
        "ramanujan": (delta_r if mode == "unweighted" else delta_s) >= 0.0,
    }


_NON_FINITE = {"inf": math.inf, "-inf": -math.inf, "nan": math.nan}


def decode(value):
    """Undo the package's JSON markers for non-finite floats."""
    return _NON_FINITE.get(value, value) if isinstance(value, str) else value


def _gap_matches(got, want) -> bool:
    if want is None or got is None:
        return got is None and want is None
    if math.isinf(want) or math.isinf(got):
        return got == want
    return abs(got - want) <= REL_TOL * (1.0 + abs(want))


def report_matches(got: dict, want: dict) -> bool:
    got = {k: decode(v) for k, v in got.items()}
    scale = max(want["lambda1"], 1.0)
    ramanujan_gap = want["delta_r"] if want["mode"] == "unweighted" else want["delta_s"]
    return (
        got["mode"] == want["mode"]
        and abs(got["lambda1"] - want["lambda1"]) <= REL_TOL * scale
        and abs(got["lambda2"] - want["lambda2"]) <= REL_TOL * scale
        and abs(got["d_avg"] - want["d_avg"]) <= 1e-12 * max(want["d_avg"], 1.0)
        and abs(got["alpha2"] - want["alpha2"]) <= ABS_TOL
        and _gap_matches(got["delta_s"], want["delta_s"])
        and _gap_matches(got["delta_r"], want["delta_r"])
        and abs(got["cheeger_lower"] - want["cheeger_lower"]) <= ABS_TOL
        and abs(got["cheeger_upper"] ** 2 - want["cheeger_upper"] ** 2) <= 2 * ABS_TOL
        and (got["ramanujan"] == want["ramanujan"] or abs(ramanujan_gap) <= REL_TOL)
    )


def unrolled_spectrum(B: np.ndarray, k: int) -> np.ndarray:
    """Descending spectrum of the (k+1)-copy block tridiagonal chain of B."""
    shift = np.eye(k + 1, k=1)
    A = np.kron(shift, B) + np.kron(shift.T, B.T)
    return np.linalg.eigvalsh(A)[::-1]


def spectra_match(got, want) -> bool:
    got = np.asarray(got, dtype=np.float64)
    return got.shape == want.shape and bool(
        np.max(np.abs(got - want)) <= 1e-9 * max(float(np.max(np.abs(want))), 1.0))


def cheeger_sandwich_holds(adj: np.ndarray, conductance: float) -> bool:
    """Discrete Cheeger-Buser: h^2/2 <= alpha2 <= 2h on the conductance h."""
    alpha2 = float(normalized_laplacian_spectrum(adj)[1])
    return conductance ** 2 / 2.0 - 1e-12 <= alpha2 <= 2.0 * conductance + 1e-12


def vertex_edge_order_holds(adj: np.ndarray, h_vertex: float, h_edge: float) -> bool:
    """h_vertex <= h_edge <= d_max * h_vertex."""
    d_max = float((adj != 0).sum(axis=1).max())
    return h_vertex <= h_edge + 1e-12 and h_edge <= d_max * h_vertex + 1e-12
