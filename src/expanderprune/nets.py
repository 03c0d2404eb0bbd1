"""Minimal deterministic RNN and LSTM cells with masked weights.

Everything is plain numpy on float64 arrays.  Sequences are batch-major
(n, k, input_size).  The RNN cell is

    h_t = tanh(W_xh x_t + W_hh h_{t-1} + b_h),   y = W_hy h_k + b_y

and the LSTM stacks its four gate blocks (order i, f, g, o) into W_xh
and W_hh, with

    i, f, o = sigmoid(.),  g = tanh(.),
    c_t = f * c_{t-1} + i * g,   h_t = o * tanh(c_t).

Prune masks cover W_xh and W_hh only; the readout W_hy always stays
dense.  Masked entries are held at exactly 0: forward multiplies the
mask in, gradients are zeroed, and Adam consequently never moves them.
Training is deterministic for a fixed seed (single-threaded batch loop,
counter-derived shuffles).

The inference pass behind ``forward`` and ``evaluate`` keeps only the
running h and c (``forward`` also collects the h_t it returns), and
``evaluate`` feeds it 128-row chunks, so its peak is a few (128, 4H)
step arrays whatever the dataset size.  Only ``loss_and_grads``
builds the BPTT cache: a (k+1, n, H) state stack and each LSTM step's
gates.  Every floating-point operation of both passes keeps the
operands, order and association of the per-step reference in
``tests/oracles.py``, so losses, gradients and trained weights equal it
bit for bit.  Logits keep their bits at any chunk size because a chunk
changes only the row count of each BLAS product, not the sum behind any
one entry; the desk and wide trajectory digests of the benchmark are the
same at 128 and at 512 rows.  The one exception is hidden size 1, where
BLAS takes a vector kernel whose summation depends on the stride of the
(n, 1) state column.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError, ShapeError, check_fields

RNN = "rnn"
LSTM = "lstm"
CELL_KINDS = (RNN, LSTM)

# LSTM gate block order within the stacked weight matrices.
GATES = ("i", "f", "g", "o")

# Rows per inference pass of ``evaluate``, which bound its peak memory.
EVAL_CHUNK_ROWS = 128


@dataclass(frozen=True)
class TrainConfig:
    """Training hyperparameters (Adam, cross-entropy, tanh activations)."""

    learning_rate: float = 0.001
    train_epochs: int = 20
    batch_size: int = 100
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    clip_norm: float = 5.0
    seed: int = 0

    def __post_init__(self):
        """DomainError listing every value that could only train to NaN or
        not at all (the comparisons are False for NaN, so NaN is refused)."""
        checks = [(name, 0 < getattr(self, name) < math.inf, "must be finite and > 0")
                  for name in ("learning_rate", "adam_eps")]
        checks += [(name, 0 <= getattr(self, name) < 1, "must be in [0, 1)")
                   for name in ("beta1", "beta2")]
        checks.append(("clip_norm", not math.isnan(self.clip_norm),
                       "must not be NaN (<= 0 turns clipping off)"))
        checks += [(name, getattr(self, name) >= 1, "must be >= 1")
                   for name in ("train_epochs", "batch_size")]
        checks.append(("seed", self.seed >= 0, "must be >= 0"))
        check_fields(checks)


@dataclass
class RecurrentParams:
    cell_kind: str
    input_size: int
    hidden_size: int
    class_count: int
    w_xh: np.ndarray  # (gate_rows, input_size)
    w_hh: np.ndarray  # (gate_rows, hidden_size)
    w_hy: np.ndarray  # (class_count, hidden_size)
    b_h: np.ndarray   # (gate_rows,)
    b_y: np.ndarray   # (class_count,)

    def tensors(self) -> dict[str, np.ndarray]:
        return {"w_xh": self.w_xh, "w_hh": self.w_hh, "w_hy": self.w_hy,
                "b_h": self.b_h, "b_y": self.b_y}

    def copy(self) -> "RecurrentParams":
        return replace(self, **{k: v.copy() for k, v in self.tensors().items()})


@dataclass
class PruneMask:
    """Boolean keep-masks for the two prunable layers."""

    w_xh: np.ndarray
    w_hh: np.ndarray

    @classmethod
    def full(cls, params: RecurrentParams) -> "PruneMask":
        return cls(np.ones_like(params.w_xh, dtype=bool),
                   np.ones_like(params.w_hh, dtype=bool))

    def kept_fraction(self, layer: str) -> float:
        mask = getattr(self, layer)
        return int(mask.sum()) / mask.size


def gate_rows(cell_kind: str, hidden_size: int) -> int:
    if cell_kind not in CELL_KINDS:
        raise DomainError(f"unknown cell kind {cell_kind!r}")
    return hidden_size * (4 if cell_kind == LSTM else 1)


def init_params(input_size: int, hidden_size: int, class_count: int,
                cell_kind: str = RNN, seed: int = 0) -> RecurrentParams:
    """Kaiming-uniform init: |w| <= sqrt(6 / fan_in), biases 0.

    The LSTM forget-gate bias block starts at 1.0 so early training does
    not forget everything.  Deterministic for a fixed seed.
    """
    if min(input_size, hidden_size, class_count) < 1:
        raise DomainError("sizes must be >= 1")
    rows = gate_rows(cell_kind, hidden_size)
    rng = np.random.default_rng(seed)

    def kaiming(shape, fan_in):
        bound = math.sqrt(6.0 / fan_in)
        return rng.uniform(-bound, bound, size=shape)

    b_h = np.zeros(rows)
    if cell_kind == LSTM:
        b_h[hidden_size:2 * hidden_size] = 1.0
    return RecurrentParams(
        cell_kind=cell_kind,
        input_size=input_size,
        hidden_size=hidden_size,
        class_count=class_count,
        w_xh=kaiming((rows, input_size), input_size),
        w_hh=kaiming((rows, hidden_size), hidden_size),
        w_hy=kaiming((class_count, hidden_size), hidden_size),
        b_h=b_h,
        b_y=np.zeros(class_count),
    )


def _check_sequences(params: RecurrentParams, sequences) -> tuple[np.ndarray, bool]:
    xs = np.asarray(sequences, dtype=np.float64)
    single = xs.ndim == 2
    if single:
        xs = xs[None]
    if xs.ndim != 3 or xs.shape[1] < 1:
        raise ShapeError(f"sequences must be (n, k, input) with k >= 1, got {xs.shape}")
    if xs.shape[2] != params.input_size:
        raise ShapeError(f"input width {xs.shape[2]} != input_size {params.input_size}")
    return xs, single


def check_labels(labels, class_count: int) -> np.ndarray:
    """``labels`` as int64, refused unless each is a whole number in [0, class_count).
    The range test comes first, so a NaN or inf label is refused before the cast."""
    labels = np.asarray(labels)
    if labels.size and not (labels.min() >= 0 and labels.max() < class_count):
        raise DomainError("labels must lie in [0, class_count)")
    whole = labels.astype(np.int64, copy=False)
    if not np.array_equal(whole, labels):
        raise DomainError("labels must be whole numbers")
    return whole


def _check_batch(params: RecurrentParams, sequences, labels,
                 what: str) -> tuple[np.ndarray, np.ndarray]:
    """The (n, k, input) sequences and their n labels; ``what`` names an empty batch."""
    xs, _ = _check_sequences(params, sequences)
    if np.shape(labels) != (xs.shape[0],):
        raise ShapeError(f"labels shape {np.shape(labels)} does not match batch {xs.shape[0]}")
    if xs.shape[0] == 0:
        raise DomainError(f"{what} is empty")
    return xs, check_labels(labels, params.class_count)


def _lstm_cell(z: np.ndarray, c: np.ndarray, H: int):
    """Gates (i, f, g, o), the new cell state and its tanh from pre-activations z.

    Every sigmoid is 1 / (1 + exp(-z)) elementwise, with the exp taken once
    over the whole (n, 4H) row.  An exp that overflows to inf gives exactly
    the saturated gate value 0, so its overflow is no fault.
    """
    with np.errstate(over="ignore"):
        e = 1.0 + np.exp(-z)
    i = 1.0 / e[:, :H]
    f = 1.0 / e[:, H:2 * H]
    g = np.tanh(z[:, 2 * H:3 * H])
    o = 1.0 / e[:, 3 * H:]
    c = f * c + i * g
    return i, f, g, o, c, np.tanh(c)


def _hidden_states(params: RecurrentParams, mask: PruneMask, xs: np.ndarray):
    """Yield h_1, ..., h_k of the inference pass, keeping only the running h and c."""
    n, k, _ = xs.shape
    w_xh = params.w_xh * mask.w_xh
    w_hh = params.w_hh * mask.w_hh
    h = c = np.zeros((n, params.hidden_size))
    for t in range(k):
        z = xs[:, t] @ w_xh.T + h @ w_hh.T + params.b_h
        if params.cell_kind == RNN:
            h = np.tanh(z)
        else:
            _, _, _, o, c, tanh_c = _lstm_cell(z, c, params.hidden_size)
            h = o * tanh_c
        yield h


def forward(params: RecurrentParams, mask: PruneMask, sequences):
    """Logits and per-step hidden states; h_0 = c_0 = 0.

    A single (k, input_size) sequence returns a (class_count,) logit
    vector; a batch (n, k, input_size) returns (n, class_count).
    """
    xs, single = _check_sequences(params, sequences)
    hs = np.stack(list(_hidden_states(params, mask, xs)), axis=1)
    logits = hs[:, -1] @ params.w_hy.T + params.b_y
    if single:
        return logits[0], hs[0]
    return logits, hs


def softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray):
    """Mean cross-entropy and its logit gradient (softmax - onehot) / n."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    probs = exp / exp.sum(axis=1, keepdims=True)
    n = logits.shape[0]
    idx = np.arange(n)
    loss = float(-np.mean(shifted[idx, labels] - np.log(exp.sum(axis=1))))
    dlogits = probs.copy()
    dlogits[idx, labels] -= 1.0
    return loss, dlogits / n


def loss_and_grads(params: RecurrentParams, mask: PruneMask, sequences, labels):
    """Mean cross-entropy over the batch and full BPTT gradients.

    Gradients for masked entries are forced to exactly 0.  Returns
    (loss, grads) with grads shaped like the parameters.
    """
    xs, labels = _check_batch(params, sequences, labels, "batch")
    n, k, _ = xs.shape
    H = params.hidden_size
    w_xh = params.w_xh * mask.w_xh
    w_hh = params.w_hh * mask.w_hh
    hs = np.zeros((k + 1, n, H))  # hs[t] = h_t, so hs[0] = h_0 = 0
    cache = []
    c = hs[0]
    for t in range(k):
        z = xs[:, t] @ w_xh.T + hs[t] @ w_hh.T + params.b_h
        if params.cell_kind == RNN:
            np.tanh(z, out=hs[t + 1])
        else:
            i, f, g, o, c_next, tanh_c = _lstm_cell(z, c, H)
            np.multiply(o, tanh_c, out=hs[t + 1])
            cache.append((i, f, g, o, c, tanh_c))
            c = c_next
    logits = hs[k] @ params.w_hy.T + params.b_y
    loss, dlogits = softmax_cross_entropy(logits, labels)

    g_w_hy = dlogits.T @ hs[k]
    g_b_y = dlogits.sum(axis=0)
    g_w_xh = np.zeros_like(params.w_xh)
    g_w_hh = np.zeros_like(params.w_hh)
    g_b_h = np.zeros_like(params.b_h)
    dh = dlogits @ params.w_hy
    dc = np.zeros((n, H))
    dz = np.empty((n, 4 * H))
    for t in range(k - 1, -1, -1):
        # dz is the gradient of the pre-activation z_t.
        if params.cell_kind == RNN:
            dz = dh * (1.0 - hs[t + 1] ** 2)
        else:
            i, f, g, o, c_prev, tanh_c = cache[t]
            do = dh * tanh_c
            dc = dc + dh * o * (1.0 - tanh_c ** 2)
            np.concatenate(
                [
                    dc * g * i * (1.0 - i),
                    dc * c_prev * f * (1.0 - f),
                    dc * i * (1.0 - g ** 2),
                    do * o * (1.0 - o),
                ],
                axis=1,
                out=dz,
            )
            dc = dc * f
        g_w_xh += dz.T @ xs[:, t]
        g_w_hh += dz.T @ hs[t]
        g_b_h += dz.sum(axis=0)
        dh = dz @ w_hh

    g_w_xh *= mask.w_xh
    g_w_hh *= mask.w_hh
    grads = replace(params, w_xh=g_w_xh, w_hh=g_w_hh, w_hy=g_w_hy, b_h=g_b_h, b_y=g_b_y)
    return loss, grads


@dataclass
class AdamState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    t: int = 0

    @classmethod
    def zeros(cls, params: RecurrentParams) -> "AdamState":
        return cls(
            m={k: np.zeros_like(a) for k, a in params.tensors().items()},
            v={k: np.zeros_like(a) for k, a in params.tensors().items()},
        )


def adam_step(params: RecurrentParams, grads: RecurrentParams,
              state: AdamState, config: TrainConfig) -> RecurrentParams:
    """One bias-corrected Adam update; mutates state, returns new params.

    Masked entries have zero gradients and zero moments, so their update
    is exactly 0 and they stay at 0.
    """
    state.t += 1
    b1, b2 = config.beta1, config.beta2
    corr1 = 1.0 - b1 ** state.t
    corr2 = 1.0 - b2 ** state.t
    new = {}
    grad_tensors = grads.tensors()
    for name, value in params.tensors().items():
        g = grad_tensors[name]
        if g.shape != value.shape:
            raise ShapeError(f"gradient shape mismatch for {name}")
        state.m[name] = b1 * state.m[name] + (1.0 - b1) * g
        state.v[name] = b2 * state.v[name] + (1.0 - b2) * g * g
        m_hat = state.m[name] / corr1
        v_hat = state.v[name] / corr2
        new[name] = value - config.learning_rate * m_hat / (np.sqrt(v_hat) + config.adam_eps)
    return replace(params, **new)


def apply_mask(params: RecurrentParams, mask: PruneMask) -> RecurrentParams:
    """Zero out every masked entry of the prunable layers."""
    return replace(params, w_xh=params.w_xh * mask.w_xh, w_hh=params.w_hh * mask.w_hh)


def clip_gradients(grads: RecurrentParams, max_norm: float) -> RecurrentParams:
    """Scale all gradients so their global L2 norm is at most max_norm."""
    total = math.sqrt(sum(float((g * g).sum()) for g in grads.tensors().values()))
    if max_norm <= 0 or total <= max_norm:
        return grads
    scale = max_norm / total
    return replace(grads, **{k: g * scale for k, g in grads.tensors().items()})


def evaluate(params: RecurrentParams, mask: PruneMask, sequences, labels) -> float:
    """Fraction of sequences whose argmax logit matches the label."""
    xs, labels = _check_batch(params, sequences, labels, "dataset")
    hits = 0
    for start in range(0, xs.shape[0], EVAL_CHUNK_ROWS):
        stop = start + EVAL_CHUNK_ROWS
        for h in _hidden_states(params, mask, xs[start:stop]):
            pass
        logits = h @ params.w_hy.T + params.b_y
        hits += int(np.count_nonzero(np.argmax(logits, axis=1) == labels[start:stop]))
    return hits / xs.shape[0]


def train(params: RecurrentParams, mask: PruneMask, sequences, labels,
          config: TrainConfig, epochs: int, stream: tuple[int, ...]) -> RecurrentParams:
    """Epoch loop of shuffled minibatch Adam steps.

    ``stream`` is a tuple of counters (phase, round, ...) mixed with the
    config seed and epoch index to derive each epoch's shuffle, so any
    (seed, stream) pair replays identically.
    """
    xs, labels = _check_batch(params, sequences, labels, "training set")
    n = xs.shape[0]
    params = apply_mask(params.copy(), mask)
    state = AdamState.zeros(params)
    for epoch in range(epochs):
        order = np.random.default_rng((config.seed, *stream, epoch)).permutation(n)
        for start in range(0, n, config.batch_size):
            batch = order[start:start + config.batch_size]
            _, grads = loss_and_grads(params, mask, xs[batch], labels[batch])
            grads = clip_gradients(grads, config.clip_norm)
            params = adam_step(params, grads, state, config)
    return apply_mask(params, mask)
