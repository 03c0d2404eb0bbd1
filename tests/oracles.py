"""Independent numerical oracles used only by the test suite.

Nothing here calls numpy.linalg: the QR eigensolver is built from raw
Householder reflections so it shares no code path with the library it
checks.
"""

import itertools
import math
from dataclasses import replace

import numpy as np

from expanderprune.nets import apply_mask, clip_gradients, softmax_cross_entropy


def householder_qr(A):
    """Plain Householder QR factorization A = Q @ R."""
    A = np.array(A, dtype=np.float64)
    n_rows, n_cols = A.shape
    Q = np.eye(n_rows)
    R = A.copy()
    for col in range(min(n_rows - 1, n_cols)):
        x = R[col:, col]
        norm_x = np.sqrt(np.sum(x * x))
        if norm_x == 0.0:
            continue
        v = x.copy()
        v[0] += np.copysign(norm_x, x[0] if x[0] != 0 else 1.0)
        v_norm2 = np.sum(v * v)
        if v_norm2 == 0.0:
            continue
        # Apply the reflector I - 2 v v^T / (v^T v) from the left
        R[col:, :] -= (2.0 / v_norm2) * np.outer(v, v @ R[col:, :])
        Q[:, col:] -= (2.0 / v_norm2) * np.outer(Q[:, col:] @ v, v)
    return Q, R


def qr_eigenvalues(M, tol=1e-13, max_sweeps=10_000):
    """Eigenvalues of a symmetric matrix by shifted QR iteration.

    Uses the Wilkinson shift with bottom-row deflation, so equal-modulus
    pairs (such as the +/- pairs of bipartite adjacencies) converge too.
    Returns eigenvalues sorted descending.
    """
    A = np.array(M, dtype=np.float64)
    assert A.shape[0] == A.shape[1]
    eigs = []
    scale = max(np.max(np.abs(A)), 1.0)
    for _ in range(max_sweeps):
        n = A.shape[0]
        if n == 0:
            break
        if n == 1:
            eigs.append(A[0, 0])
            break
        if np.sqrt(np.sum(A[n - 1, : n - 1] ** 2)) <= tol * scale:
            eigs.append(A[n - 1, n - 1])
            A = A[: n - 1, : n - 1]
            continue
        a, b, c = A[n - 2, n - 2], A[n - 2, n - 1], A[n - 1, n - 1]
        delta = (a - c) / 2.0
        denom = abs(delta) + np.sqrt(delta * delta + b * b)
        if denom == 0.0:
            mu = c
        else:
            mu = c - np.copysign(1.0, delta if delta != 0 else 1.0) * b * b / denom
        Q, R = householder_qr(A - mu * np.eye(n))
        A = R @ Q + mu * np.eye(n)
    else:
        raise RuntimeError("QR iteration did not converge")
    return np.sort(np.array(eigs))[::-1]


def central_difference_grads(loss_fn, arrays, eps=1e-5):
    """Central finite-difference gradient of loss_fn w.r.t. each array.

    loss_fn takes no arguments and reads the (mutated) arrays; the
    arrays are restored entry by entry after probing.
    """
    grads = []
    for arr in arrays:
        g = np.zeros_like(arr)
        flat = arr.ravel()
        gflat = g.ravel()
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + eps
            f_plus = loss_fn()
            flat[idx] = orig - eps
            f_minus = loss_fn()
            flat[idx] = orig
            gflat[idx] = (f_plus - f_minus) / (2.0 * eps)
        grads.append(g)
    return grads


def reference_cheeger_constants(adj):
    """(edge Cheeger, vertex Cheeger, conductance) by scoring one subset at a time.

    Pure Python over itertools.combinations, sharing no code with the
    library's subset tables: every X with 1 <= |X| <= n/2 gets its
    boundary edges, outer boundary vertices and volume counted from
    neighbour sets, and each ratio is one int / int division.  Nonzero
    off-diagonal entries are edges.  The conductance is None for an
    edgeless graph, which has no volume to normalize by.
    """
    n = len(adj)
    nbrs = [{u for u in range(n) if u != v and adj[v][u] != 0} for v in range(n)]
    degrees = [len(s) for s in nbrs]
    total = sum(degrees)
    h_edge = h_vertex = conductance = math.inf
    for k in range(1, n // 2 + 1):
        for subset in itertools.combinations(range(n), k):
            inside = set(subset)
            cut = sum(1 for v in subset for u in nbrs[v] if u not in inside)
            outer = len(set().union(*(nbrs[v] for v in subset)) - inside)
            volume = sum(degrees[v] for v in subset)
            h_edge = min(h_edge, cut / k)
            h_vertex = min(h_vertex, outer / k)
            if min(volume, total - volume) > 0:
                conductance = min(conductance, cut / min(volume, total - volume))
    return h_edge, h_vertex, conductance if total else None


# The recurrent passes and the Adam step as they were written before the
# lean passes of nets: one sigmoid per gate, a batch-major (n, k, H) state
# stack, the BPTT cache built on every forward pass.  The library must
# reproduce them bit for bit, so they stay here verbatim as the reference.
# They reuse the library's loss, masking and clipping, which they do not
# check.

def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def reference_forward(params, mask, xs):
    """Logits, hidden states (n, k, H) and the per-step LSTM caches."""
    n, k, _ = xs.shape
    H = params.hidden_size
    w_xh = params.w_xh * mask.w_xh
    w_hh = params.w_hh * mask.w_hh
    h = np.zeros((n, H))
    hs = np.zeros((n, k, H))
    cache = []
    if params.cell_kind == "rnn":
        for t in range(k):
            h = np.tanh(xs[:, t] @ w_xh.T + h @ w_hh.T + params.b_h)
            hs[:, t] = h
        cache = None
    else:
        c = np.zeros((n, H))
        for t in range(k):
            z = xs[:, t] @ w_xh.T + h @ w_hh.T + params.b_h
            i = _sigmoid(z[:, :H])
            f = _sigmoid(z[:, H:2 * H])
            g = np.tanh(z[:, 2 * H:3 * H])
            o = _sigmoid(z[:, 3 * H:])
            c_prev = c
            c = f * c_prev + i * g
            tanh_c = np.tanh(c)
            h = o * tanh_c
            hs[:, t] = h
            cache.append((i, f, g, o, c_prev, tanh_c))
    logits = hs[:, -1] @ params.w_hy.T + params.b_y
    return logits, hs, cache


def reference_loss_and_grads(params, mask, xs, labels):
    """Mean cross-entropy and BPTT gradients as a dict of the five tensors."""
    logits, hs, cache = reference_forward(params, mask, xs)
    w_hh = params.w_hh * mask.w_hh
    loss, dlogits = softmax_cross_entropy(logits, labels)

    n, k, _ = xs.shape
    H = params.hidden_size
    g_w_hy = dlogits.T @ hs[:, -1]
    g_b_y = dlogits.sum(axis=0)
    g_w_xh = np.zeros_like(params.w_xh)
    g_w_hh = np.zeros_like(params.w_hh)
    g_b_h = np.zeros_like(params.b_h)
    dh = dlogits @ params.w_hy

    if params.cell_kind == "rnn":
        for t in range(k - 1, -1, -1):
            h_prev = hs[:, t - 1] if t > 0 else np.zeros((n, H))
            dpre = dh * (1.0 - hs[:, t] ** 2)
            g_w_xh += dpre.T @ xs[:, t]
            g_w_hh += dpre.T @ h_prev
            g_b_h += dpre.sum(axis=0)
            dh = dpre @ w_hh
    else:
        dc = np.zeros((n, H))
        for t in range(k - 1, -1, -1):
            h_prev = hs[:, t - 1] if t > 0 else np.zeros((n, H))
            i, f, g, o, c_prev, tanh_c = cache[t]
            do = dh * tanh_c
            dc = dc + dh * o * (1.0 - tanh_c ** 2)
            dz = np.concatenate(
                [
                    dc * g * i * (1.0 - i),
                    dc * c_prev * f * (1.0 - f),
                    dc * i * (1.0 - g ** 2),
                    do * o * (1.0 - o),
                ],
                axis=1,
            )
            g_w_xh += dz.T @ xs[:, t]
            g_w_hh += dz.T @ h_prev
            g_b_h += dz.sum(axis=0)
            dh = dz @ w_hh
            dc = dc * f

    g_w_xh *= mask.w_xh
    g_w_hh *= mask.w_hh
    return loss, {"w_xh": g_w_xh, "w_hh": g_w_hh, "w_hy": g_w_hy, "b_h": g_b_h, "b_y": g_b_y}


def reference_train(params, mask, xs, labels, config, epochs, stream):
    """nets.train's epoch loop over the reference gradients and Adam step."""
    n = xs.shape[0]
    params = apply_mask(params.copy(), mask)
    m = {name: np.zeros_like(a) for name, a in params.tensors().items()}
    v = {name: np.zeros_like(a) for name, a in params.tensors().items()}
    b1, b2 = config.beta1, config.beta2
    step = 0
    for epoch in range(epochs):
        order = np.random.default_rng((config.seed, *stream, epoch)).permutation(n)
        for start in range(0, n, config.batch_size):
            batch = order[start:start + config.batch_size]
            _, grads = reference_loss_and_grads(params, mask, xs[batch], labels[batch])
            grads = clip_gradients(replace(params, **grads), config.clip_norm).tensors()
            step += 1
            corr1 = 1.0 - b1 ** step
            corr2 = 1.0 - b2 ** step
            new = {}
            for name, value in params.tensors().items():
                g = grads[name]
                m[name] = b1 * m[name] + (1.0 - b1) * g
                v[name] = b2 * v[name] + (1.0 - b2) * g * g
                m_hat = m[name] / corr1
                v_hat = v[name] / corr2
                new[name] = value - config.learning_rate * m_hat / (np.sqrt(v_hat) + config.adam_eps)
            params = replace(params, **new)
    return apply_mask(params, mask)


def magnitude_prune_reference(W, mask, q):
    """Keep ceil(q * W.size) entries of the support by a three-key sort:
    |w| descending (NaN last), then row, then column ascending."""
    W = np.asarray(W, dtype=np.float64)
    mask = np.asarray(mask, dtype=bool)
    target = math.ceil(q * W.size)
    if target >= int(mask.sum()):
        return mask.copy()
    rows, cols = np.nonzero(mask)
    order = np.lexsort((cols, rows, -np.abs(W[rows, cols])))
    winners = order[:target]
    out = np.zeros_like(mask)
    out[rows[winners], cols[winners]] = True
    return out
