import math
import tracemalloc

import numpy as np
import pytest

from expanderprune.errors import DomainError, ShapeError
from expanderprune.nets import (
    AdamState,
    LSTM,
    PruneMask,
    RNN,
    TrainConfig,
    adam_step,
    apply_mask,
    clip_gradients,
    evaluate,
    forward,
    init_params,
    loss_and_grads,
    softmax_cross_entropy,
    train,
)
from oracles import (
    central_difference_grads,
    reference_forward,
    reference_loss_and_grads,
    reference_train,
)


def test_init_respects_kaiming_bounds():
    p = init_params(10, 16, 3, RNN, seed=1)
    assert np.all(np.abs(p.w_xh) <= math.sqrt(6 / 10))
    assert np.all(np.abs(p.w_hh) <= math.sqrt(6 / 16))
    assert np.all(np.abs(p.w_hy) <= math.sqrt(6 / 16))
    assert np.all(p.b_h == 0) and np.all(p.b_y == 0)


def test_init_lstm_forget_bias_one():
    p = init_params(3, 5, 2, LSTM, seed=0)
    assert p.w_xh.shape == (20, 3) and p.w_hh.shape == (20, 5)
    assert np.all(p.b_h[5:10] == 1.0)
    assert np.all(p.b_h[:5] == 0.0) and np.all(p.b_h[10:] == 0.0)


def test_init_deterministic():
    a = init_params(4, 8, 2, LSTM, seed=9)
    b = init_params(4, 8, 2, LSTM, seed=9)
    for k in a.tensors():
        assert np.array_equal(a.tensors()[k], b.tensors()[k])


def test_init_mean_within_three_sigma():
    # uniform(-b, b): sample mean of N draws has std b / sqrt(3N)
    p = init_params(100, 1000, 2, RNN, seed=3)
    entries = p.w_xh.ravel()  # 1e5 draws with b = sqrt(6/100)
    bound = math.sqrt(6 / 100)
    assert abs(entries.mean()) <= 3 * bound / math.sqrt(3 * entries.size)


def test_forward_zero_input_is_zero():
    p = init_params(3, 4, 2, RNN, seed=0)
    logits, states = forward(p, PruneMask.full(p), np.zeros((5, 3)))
    assert np.allclose(states, 0.0)
    assert np.allclose(logits, p.b_y)


def test_forward_single_tanh():
    p = init_params(1, 1, 1, RNN, seed=0)
    p.w_xh[:] = 1.0
    p.w_hh[:] = 1.0
    p.w_hy[:] = 1.0
    logits, states = forward(p, PruneMask.full(p), np.array([[0.5]]))
    assert abs(states[0, 0] - math.tanh(0.5)) < 1e-12


def test_forward_fully_masked_input_layer_ignores_sequence():
    p = init_params(3, 4, 2, RNN, seed=1)
    mask = PruneMask.full(p)
    mask.w_xh[:] = False
    rng = np.random.default_rng(0)
    a, _ = forward(p, mask, rng.standard_normal((6, 3)))
    b, _ = forward(p, mask, rng.standard_normal((6, 3)))
    assert np.array_equal(a, b)


def test_forward_shape_errors():
    p = init_params(3, 4, 2, RNN, seed=0)
    with pytest.raises(ShapeError):
        forward(p, PruneMask.full(p), np.zeros((5, 4)))


@pytest.mark.parametrize("cell", [RNN, LSTM])
@pytest.mark.parametrize("k", [1, 3, 7])
def test_bptt_matches_finite_differences(cell, k):
    rng = np.random.default_rng(17 + k)
    p = init_params(3, 4, 2, cell, seed=17 + k)
    mask = PruneMask.full(p)
    mask.w_xh[0, 1] = False
    mask.w_hh[1, 2] = False
    p = apply_mask(p, mask)
    xs = rng.standard_normal((5, k, 3))
    ys = rng.integers(0, 2, 5)
    _, grads = loss_and_grads(p, mask, xs, ys)
    arrays = [p.w_xh, p.w_hh, p.w_hy, p.b_h, p.b_y]
    fd = central_difference_grads(lambda: loss_and_grads(p, mask, xs, ys)[0], arrays)
    for got, want in zip([grads.w_xh, grads.w_hh, grads.w_hy, grads.b_h, grads.b_y], fd):
        assert np.all(np.abs(got - want) <= 1e-4 * np.maximum(np.abs(got), np.abs(want)) + 1e-8)
    assert grads.w_xh[0, 1] == 0.0
    assert grads.w_hh[1, 2] == 0.0


def test_uniform_logits_loss_is_log_classes():
    logits = np.zeros((7, 5))
    labels = np.arange(7) % 5
    loss, _ = softmax_cross_entropy(logits, labels)
    assert abs(loss - math.log(5)) < 1e-12


def test_duplicated_sample_keeps_gradients():
    p = init_params(2, 3, 2, RNN, seed=4)
    mask = PruneMask.full(p)
    xs = np.random.default_rng(1).standard_normal((1, 3, 2))
    ys = np.array([1])
    _, single = loss_and_grads(p, mask, xs, ys)
    _, doubled = loss_and_grads(p, mask, np.repeat(xs, 2, axis=0), np.array([1, 1]))
    for key in single.tensors():
        assert np.allclose(single.tensors()[key], doubled.tensors()[key], atol=1e-14)


def test_adam_zero_gradient_keeps_params():
    p = init_params(2, 3, 2, RNN, seed=5)
    grads = init_params(2, 3, 2, RNN, seed=6)
    for arr in grads.tensors().values():
        arr[:] = 0.0
    updated = adam_step(p, grads, AdamState.zeros(p), TrainConfig())
    for key in p.tensors():
        assert np.array_equal(updated.tensors()[key], p.tensors()[key])


def test_adam_first_step_is_signed_learning_rate():
    p = init_params(2, 3, 2, RNN, seed=5)
    grads = p.copy()
    rng = np.random.default_rng(8)
    for arr in grads.tensors().values():
        arr[:] = rng.standard_normal(arr.shape)
    cfg = TrainConfig(learning_rate=0.01)
    updated = adam_step(p, grads, AdamState.zeros(p), cfg)
    for key in p.tensors():
        step = updated.tensors()[key] - p.tensors()[key]
        expected = -cfg.learning_rate * np.sign(grads.tensors()[key])
        assert np.allclose(step, expected, atol=1e-6)


def test_masked_entries_stay_zero_across_steps():
    p = init_params(3, 4, 2, RNN, seed=7)
    mask = PruneMask.full(p)
    mask.w_xh[0, 0] = False
    mask.w_hh[2, 2] = False
    p = apply_mask(p, mask)
    state = AdamState.zeros(p)
    cfg = TrainConfig()
    rng = np.random.default_rng(2)
    xs = rng.standard_normal((4, 3, 3))
    ys = rng.integers(0, 2, 4)
    for _ in range(100):
        _, grads = loss_and_grads(p, mask, xs, ys)
        p = adam_step(p, grads, state, cfg)
    assert p.w_xh[0, 0] == 0.0
    assert p.w_hh[2, 2] == 0.0


def test_evaluate_single_correct_sample():
    p = init_params(2, 3, 2, RNN, seed=1)
    mask = PruneMask.full(p)
    xs = np.random.default_rng(3).standard_normal((1, 4, 2))
    logits, _ = forward(p, mask, xs)
    label = int(np.argmax(logits[0]))
    assert evaluate(p, mask, xs, np.array([label])) == 1.0
    assert evaluate(p, mask, xs, np.array([1 - label])) == 0.0


def test_evaluate_empty_dataset_rejected():
    p = init_params(2, 3, 2, RNN, seed=1)
    with pytest.raises(DomainError):
        evaluate(p, PruneMask.full(p), np.zeros((0, 4, 2)), np.zeros(0, dtype=int))


def test_random_net_on_label_free_data_is_chance():
    # labels are independent of the inputs, so accuracy concentrates at
    # 1/10 with binomial std sqrt(.1 * .9 / 1000) ~ 0.0095
    p = init_params(4, 8, 10, RNN, seed=11)
    mask = PruneMask.full(p)
    rng = np.random.default_rng(12)
    xs = rng.standard_normal((1000, 5, 4))
    labels = rng.permutation(np.arange(1000) % 10)
    acc = evaluate(p, mask, xs, labels)
    assert abs(acc - 0.10) <= 0.03


def test_lstm_with_open_gates_accumulates_like_linear_rnn():
    # saturated i/f/o gates and tiny inputs: c_t ~ sum of W x_s, matching
    # an RNN with identity recurrence in its linear regime
    H, IN = 3, 2
    rng = np.random.default_rng(5)
    W = rng.standard_normal((H, IN)) * 0.01

    lstm = init_params(IN, H, 2, LSTM, seed=0)
    lstm.w_xh[:] = 0.0
    lstm.w_hh[:] = 0.0
    lstm.w_xh[2 * H:3 * H] = W  # g-gate block
    lstm.b_h[:] = 0.0
    lstm.b_h[:2 * H] = 20.0   # i and f wide open
    lstm.b_h[3 * H:] = 20.0   # o wide open

    rnn = init_params(IN, H, 2, RNN, seed=0)
    rnn.w_xh[:] = W
    rnn.w_hh[:] = np.eye(H)
    rnn.b_h[:] = 0.0

    xs = rng.standard_normal((4, 2, IN)) * 0.01
    _, h_lstm = forward(lstm, PruneMask.full(lstm), xs)
    _, h_rnn = forward(rnn, PruneMask.full(rnn), xs)
    assert np.max(np.abs(h_lstm[:, -1] - h_rnn[:, -1])) < 1e-2


def test_training_is_deterministic():
    cfg = TrainConfig(seed=13, batch_size=8)
    rng = np.random.default_rng(13)
    xs = rng.standard_normal((24, 4, 3))
    ys = rng.integers(0, 2, 24)

    def run():
        p = init_params(3, 6, 2, LSTM, seed=13)
        mask = PruneMask.full(p)
        mask.w_hh[::2, ::3] = False
        return train(p, mask, xs, ys, cfg, epochs=3, stream=(0, 0))

    a, b = run(), run()
    for key in a.tensors():
        assert np.array_equal(a.tensors()[key], b.tensors()[key])


def test_training_respects_mask_support():
    cfg = TrainConfig(seed=14, batch_size=8)
    rng = np.random.default_rng(14)
    xs = rng.standard_normal((16, 4, 3))
    ys = rng.integers(0, 2, 16)
    p = init_params(3, 6, 2, RNN, seed=14)
    mask = PruneMask.full(p)
    mask.w_xh[rng.random(mask.w_xh.shape) < 0.4] = False
    mask.w_hh[rng.random(mask.w_hh.shape) < 0.4] = False
    trained = train(p, mask, xs, ys, cfg, epochs=2, stream=(0, 0))
    assert np.all(trained.w_xh[~mask.w_xh] == 0.0)
    assert np.all(trained.w_hh[~mask.w_hh] == 0.0)
    assert np.any(trained.w_xh[mask.w_xh] != 0.0)


def test_clip_gradients_scales_to_max_norm():
    p = init_params(2, 3, 2, RNN, seed=15)
    grads = p.copy()
    total = math.sqrt(sum(float((g * g).sum()) for g in grads.tensors().values()))
    clipped = clip_gradients(grads, total / 2)
    new_total = math.sqrt(sum(float((g * g).sum()) for g in clipped.tensors().values()))
    assert abs(new_total - total / 2) < 1e-9
    for max_norm in (total * 2, 0.0, -1.0):  # <= 0 turns clipping off
        untouched = clip_gradients(grads, max_norm)
        for key in grads.tensors():
            assert np.array_equal(untouched.tensors()[key], grads.tensors()[key]), max_norm


def _random_case(cell, k, batch, width, seed, hidden=8, classes=3):
    rng = np.random.default_rng(seed)
    p = init_params(width, hidden, classes, cell, seed=seed)
    mask = PruneMask(rng.random(p.w_xh.shape) < 0.6, rng.random(p.w_hh.shape) < 0.6)
    xs = rng.standard_normal((batch, k, width))
    ys = rng.integers(0, classes, batch)
    return apply_mask(p, mask), mask, xs, ys


@pytest.mark.parametrize("cell", [RNN, LSTM])
@pytest.mark.parametrize("k", [1, 3, 16])
@pytest.mark.parametrize("batch", [1, 25, 100])
@pytest.mark.parametrize("width", [1, 4])
def test_lean_passes_equal_reference_bits(cell, k, batch, width):
    p, mask, xs, ys = _random_case(cell, k, batch, width, seed=100 * k + batch + width)
    loss, grads = loss_and_grads(p, mask, xs, ys)
    want_loss, want_grads = reference_loss_and_grads(p, mask, xs, ys)
    assert loss == want_loss
    for name, want in want_grads.items():
        assert np.array_equal(grads.tensors()[name], want), name
    logits, hs = forward(p, mask, xs)
    want_logits, want_hs, _ = reference_forward(p, mask, xs)
    assert np.array_equal(logits, want_logits)
    assert np.array_equal(hs, want_hs)


@pytest.mark.parametrize("cell", [RNN, LSTM])
def test_train_equals_reference_bits(cell):
    # 60 rows in batches of 25 leave a last batch of 10
    p, mask, xs, ys = _random_case(cell, 5, 60, 4, seed=21)
    cfg = TrainConfig(seed=21, batch_size=25, learning_rate=0.01)
    got = train(p, mask, xs, ys, cfg, epochs=2, stream=(1, 2))
    want = reference_train(p, mask, xs, ys, cfg, epochs=2, stream=(1, 2))
    for name in got.tensors():
        assert np.array_equal(got.tensors()[name], want.tensors()[name]), name


def test_lstm_train_with_saturated_gates_warns_of_nothing():
    # At this rate a gate's exp(-z) overflows to inf: 1 / (1 + inf) is the
    # saturated gate value 0, and pytest turns any RuntimeWarning into a failure.
    p, mask, xs, ys = _random_case(LSTM, 4, 60, 4, seed=21, hidden=4)
    got = train(p, mask, xs, ys, TrainConfig(seed=21, learning_rate=1000.0), epochs=2, stream=(1,))
    assert all(np.isfinite(t).all() for t in got.tensors().values())


@pytest.mark.parametrize("cell", [RNN, LSTM])
def test_evaluate_over_chunks_equals_reference_accuracy(cell):
    # 1,100 rows are nine chunks of the inference pass: 8 x 128 and 76
    p, mask, xs, ys = _random_case(cell, 6, 1100, 4, seed=31)
    logits, _, _ = reference_forward(p, mask, xs)
    want = int(np.count_nonzero(np.argmax(logits, axis=1) == ys)) / len(ys)
    assert evaluate(p, mask, xs, ys) == want


def test_evaluate_keeps_only_the_running_state():
    # the (n, k, H) state stack alone is 8 MiB here; the inference pass
    # holds a few (n, 4H) step arrays whatever k is
    n, k, hidden = 512, 64, 32
    p, mask, xs, ys = _random_case(LSTM, k, n, 1, seed=41, hidden=hidden)
    tracemalloc.start()
    try:
        evaluate(p, mask, xs, ys)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n * k * hidden * 8 / 2


def test_evaluate_peak_is_a_few_chunk_blocks():
    # 1,024 rows pass in 128-row chunks, so the peak is a few (128, 4H)
    # step arrays however many rows there are
    n, k, hidden = 1024, 16, 32
    p, mask, xs, ys = _random_case(LSTM, k, n, 4, seed=43, hidden=hidden)
    tracemalloc.start()
    try:
        evaluate(p, mask, xs, ys)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 128 * 4 * hidden * 8


@pytest.mark.parametrize("labels", [np.zeros((10, 1), dtype=int), np.zeros(1, dtype=int),
                                    np.zeros(7, dtype=int)],
                         ids=["column", "length-1", "length-7"])
def test_evaluate_rejects_labels_not_shaped_like_the_rows(labels):
    p = init_params(2, 3, 2, RNN, seed=1)
    xs = np.random.default_rng(5).standard_normal((10, 4, 2))
    with pytest.raises(ShapeError):
        evaluate(p, PruneMask.full(p), xs, labels)


def test_train_rejects_extra_labels():
    p = init_params(2, 3, 2, RNN, seed=1)
    xs = np.random.default_rng(5).standard_normal((10, 4, 2))
    with pytest.raises(ShapeError):
        train(p, PruneMask.full(p), xs, np.zeros(12, dtype=int), TrainConfig(), epochs=1,
              stream=(0,))
