import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from gradcheck import finite_difference_worst_error, mlp_finite_difference_worst_error
from mfpod.errors import AlignmentError, ShapeError, TrainingError, ValidationError
from mfpod.mflstm import (
    FeatureLayout,
    LstmLayerWeights,
    LstmModel,
    Normalizer,
    TrainConfig,
    _mlp_forward,
    _params,
    lstm_from_bytes,
    lstm_to_bytes,
    predict,
    train,
    train_static_baseline,
)
from mfpod.pod import CoefficientSeries


def identity_normalizer(dim):
    return Normalizer(np.zeros(dim), np.ones(dim))


def make_model(hidden, d_in, n_out, seed=0, n_layers=1, layout=None):
    rng = np.random.default_rng(seed)
    layers = []
    for li in range(n_layers):
        d_layer = d_in if li == 0 else hidden
        shape = (hidden, hidden + d_layer)
        w = np.vstack([rng.uniform(-0.7, 0.7, size=shape) for _ in range(4)])
        b = np.concatenate([rng.uniform(-0.5, 0.5, size=hidden) for _ in range(4)])
        layers.append(LstmLayerWeights(w, b))
    if layout is None:
        layout = FeatureLayout(with_time=True, n_params=1, n_coef=d_in - 2)
    return LstmModel(
        layers=layers,
        w_out=rng.uniform(-0.7, 0.7, size=(n_out, hidden)),
        b_out=rng.uniform(-0.5, 0.5, size=n_out),
        input_norm=identity_normalizer(d_in),
        output_norm=identity_normalizer(n_out),
        layout=layout,
    )


def plain_layout(d_in):
    """Features that are LSTM inputs only: no time, no parameter."""
    return FeatureLayout(with_time=False, n_params=0, n_coef=d_in)


def forward(model, seq):
    """``predict`` over one (n_steps, d_in) sequence for a ``plain_layout`` model."""
    series = CoefficientSeries(seq.T, np.arange(len(seq), dtype=float), np.empty((1, 0)))
    return predict(model, series).coeffs.T


def series_pair(n_mu=2, n_t=64, n_coef=3, seed=0, target="identity"):
    rng = np.random.default_rng(seed)
    times = np.linspace(0.0, 4.0, n_t)
    params = np.linspace(0.5, 1.5, n_mu)[:, None]
    blocks = []
    for i in range(n_mu):
        phase = rng.uniform(0, 2 * np.pi, size=(n_coef, 1))
        freq = rng.uniform(0.5, 2.0, size=(n_coef, 1))
        blocks.append(np.sin(freq * times[None, :] + phase) * params[i, 0])
    coeffs = np.concatenate(blocks, axis=1)
    lf = CoefficientSeries(coeffs, times, params)
    if target == "identity":
        hf = CoefficientSeries(coeffs.copy(), times, params)
    elif target == "constant":
        lf = CoefficientSeries(np.zeros_like(coeffs), times, params)
        hf = CoefficientSeries(np.full_like(coeffs, 2.5), times, params)
    else:
        raise ValueError(target)
    return lf, hf


# ---------------------------------------------------------------------------
# forward pass
# ---------------------------------------------------------------------------

def test_zero_weights_give_readout_bias():
    model = make_model(4, 3, 2, seed=1, layout=plain_layout(3))
    for layer in model.layers:
        layer.w[:] = 0.0
        layer.b[:] = 0.0
    model.w_out[:] = 0.0
    model.b_out[:] = [1.5, -0.5]
    out_norm = Normalizer(np.array([10.0, 20.0]), np.array([2.0, 4.0]))
    model.output_norm = out_norm
    out = forward(model, np.random.default_rng(2).standard_normal((5, 3)))
    # gates are 1/2, candidate is 0, so states stay zero; the output is the
    # denormalized readout bias at every step
    expected = out_norm.decode(np.array([1.5, -0.5]))
    assert_allclose(out, np.tile(expected, (5, 1)), atol=1e-14)


def test_single_step_scalar_hand_computation():
    # H = 1, one input feature, one step: evaluate the gate equations by hand
    wf, wu, wo, wc = 0.3, -0.4, 0.2, 0.7  # input-part weights
    bf, bu, bo, bc = 0.1, -0.2, 0.05, 0.3
    x = 0.9
    # one row per gate in the order f, u, o, c: [recurrent weight, input weight]
    layer = LstmLayerWeights(
        w=np.array([[0.5, wf], [-0.1, wu], [0.4, wo], [-0.3, wc]]),
        b=np.array([bf, bu, bo, bc]),
    )
    model = LstmModel(
        layers=[layer],
        w_out=np.array([[2.0]]),
        b_out=np.array([0.25]),
        input_norm=identity_normalizer(1),
        output_norm=identity_normalizer(1),
        layout=FeatureLayout(with_time=False, n_params=0, n_coef=1),
    )
    # h_0 = c_0 = 0, so the recurrent contribution drops out at step 1
    sig = lambda z: 1.0 / (1.0 + math.exp(-z))
    g_f = sig(wf * x + bf)
    g_u = sig(wu * x + bu)
    g_o = sig(wo * x + bo)
    c_til = math.tanh(wc * x + bc)
    c1 = g_f * 0.0 + g_u * c_til
    h1 = g_o * math.tanh(c1)
    expected = 2.0 * h1 + 0.25
    out = forward(model, np.array([[x]]))
    assert out[0, 0] == pytest.approx(expected, rel=1e-14)
    assert g_f != 0.5 and g_u != 0.5  # the hand values actually exercise the gates


def test_recurrence_is_order_sensitive_but_static_is_not():
    rng = np.random.default_rng(3)
    seq = rng.standard_normal((8, 4))
    permuted = seq[::-1].copy()
    model = make_model(5, 4, 2, seed=4, layout=plain_layout(4))
    out = forward(model, seq)
    out_perm = forward(model, permuted)
    assert np.abs(out[-1] - out_perm[-1]).max() > 1e-6
    weights = [(rng.standard_normal((2, 4)), rng.standard_normal(2))]
    s_out, _ = _mlp_forward(weights, seq)
    s_perm, _ = _mlp_forward(weights, permuted)
    assert_allclose(s_perm, s_out[::-1], atol=0)


def test_forward_rejects_wrong_feature_count():
    model = make_model(4, 3, 2)  # features [t, mu, 1 coefficient]
    times = np.arange(5.0)
    with pytest.raises(ShapeError):
        predict(model, CoefficientSeries(np.zeros((5, 5)), times, np.zeros((1, 1))))
    with pytest.raises(ShapeError):
        predict(model, CoefficientSeries(np.zeros((1, 5)), times, np.zeros((1, 2))))


def test_forward_rejects_nan_weights():
    model = make_model(4, 3, 2, layout=plain_layout(3))
    model.layers[0].w[0, 0] = np.nan
    with pytest.raises(ValidationError):
        forward(model, np.zeros((5, 3)))


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------

def test_gradient_check_tiny_model():
    model = make_model(3, 4, 2, seed=5)
    rng = np.random.default_rng(6)
    x = rng.standard_normal((4, 2, 4))
    y = rng.standard_normal((4, 2, 2))
    assert finite_difference_worst_error(model, x, y) < 1e-5


def test_gradient_check_two_layer_model():
    model = make_model(3, 4, 2, seed=7, n_layers=2)
    rng = np.random.default_rng(8)
    x = rng.standard_normal((5, 3, 4))
    y = rng.standard_normal((5, 3, 2))
    assert finite_difference_worst_error(model, x, y) < 1e-5


@pytest.mark.parametrize("n_hidden", [0, 1, 2])
def test_gradient_check_static_baseline(n_hidden):
    rng = np.random.default_rng(40 + n_hidden)
    dims = [4] + [5] * n_hidden + [3]
    weights = [(rng.uniform(-0.7, 0.7, size=(d_out, d_in)), rng.uniform(-0.5, 0.5, size=d_out))
               for d_in, d_out in zip(dims[:-1], dims[1:])]
    x = rng.standard_normal((6, 4))
    y = rng.standard_normal((6, 3))
    scale_sq = rng.uniform(0.5, 2.0, size=3) ** 2
    assert mlp_finite_difference_worst_error(weights, scale_sq, x, y) < 1e-5


def test_readout_is_affine_in_readout_parameters():
    model = make_model(4, 3, 2, seed=9, layout=plain_layout(3))
    seq = np.random.default_rng(10).standard_normal((6, 3))
    w1 = np.random.default_rng(11).standard_normal(model.w_out.shape)
    w2 = np.random.default_rng(12).standard_normal(model.w_out.shape)
    b1 = np.random.default_rng(13).standard_normal(2)
    b2 = np.random.default_rng(14).standard_normal(2)

    def run(w, b):
        model.w_out[:] = w
        model.b_out[:] = b
        return forward(model, seq)

    alpha = 0.3
    blended = run(alpha * w1 + (1 - alpha) * w2, alpha * b1 + (1 - alpha) * b2)
    expected = alpha * run(w1, b1) + (1 - alpha) * run(w2, b2)
    assert_allclose(blended, expected, atol=1e-12)


# ---------------------------------------------------------------------------
# normalizers
# ---------------------------------------------------------------------------

def test_normalizer_rejects_nonpositive_scale():
    with pytest.raises(ValidationError):
        Normalizer(np.zeros(2), np.array([1.0, 0.0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_normalizer_rejects_non_finite_statistics(bad):
    with pytest.raises(ValidationError):
        Normalizer(np.array([0.0, bad]), np.ones(2))
    with pytest.raises(ValidationError):
        Normalizer(np.zeros(2), np.array([1.0, bad]))


def test_normalizer_fit_handles_constant_feature():
    samples = np.column_stack([np.full(10, 3.0), np.arange(10.0)])
    norm = Normalizer.fit(samples)
    assert norm.std[0] == 1.0
    assert norm.mean[0] == 3.0


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**31),
    dim=st.integers(1, 6),
)
def test_normalizer_round_trip(seed, dim):
    rng = np.random.default_rng(seed)
    norm = Normalizer(rng.standard_normal(dim), rng.uniform(0.1, 5.0, dim))
    y = rng.standard_normal((7, dim)) * 10
    assert np.abs(norm.encode(norm.decode(y)) - y).max() < 1e-12
    assert np.abs(norm.decode(norm.encode(y)) - y).max() < 1e-12


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

def test_identity_task_converges():
    lf, hf = series_pair(n_mu=2, n_t=64, n_coef=3, seed=20)
    cfg = TrainConfig(hidden=48, k_window=8, n_batch=8, epochs=200,
                      learning_rate=2e-2, seed=0)
    model = train(lf, hf, cfg)
    initial = model.history[0][1]
    final = model.history[-1][1]
    assert final < 1e-3 * initial


def test_constant_target_learns_bias():
    lf, hf = series_pair(n_mu=2, n_t=40, n_coef=2, seed=21, target="constant")
    cfg = TrainConfig(hidden=8, k_window=10, n_batch=8, epochs=600,
                      learning_rate=1e-2, seed=1)
    model = train(lf, hf, cfg)
    pred = predict(model, lf)
    mse = float(((pred.coeffs - hf.coeffs) ** 2).mean())
    assert mse < 1e-6


def test_training_is_deterministic_per_seed():
    lf, hf = series_pair(n_mu=2, n_t=32, n_coef=2, seed=22)
    cfg = TrainConfig(hidden=8, k_window=8, n_batch=4, epochs=20, seed=42)
    first = train(lf, hf, cfg)
    second = train(lf, hf, cfg)
    assert lstm_to_bytes(first) == lstm_to_bytes(second)
    third = train(lf, hf, TrainConfig(hidden=8, k_window=8, n_batch=4, epochs=20, seed=43))
    assert lstm_to_bytes(first) != lstm_to_bytes(third)


def test_misaligned_series_rejected():
    lf, hf = series_pair()
    shifted = CoefficientSeries(hf.coeffs, hf.times + 0.5, hf.params)
    with pytest.raises(AlignmentError):
        train(lf, shifted, TrainConfig(hidden=4, k_window=8, epochs=1))
    other_params = CoefficientSeries(hf.coeffs, hf.times, hf.params + 1.0)
    with pytest.raises(AlignmentError):
        train(lf, other_params, TrainConfig(hidden=4, k_window=8, epochs=1))


def test_window_longer_than_training_span_rejected():
    lf, hf = series_pair(n_t=20)
    with pytest.raises(TrainingError):
        train(lf, hf, TrainConfig(hidden=4, k_window=19, epochs=1))


def test_divergent_learning_rate_raises_with_epoch():
    lf, hf = series_pair(n_t=32)
    cfg = TrainConfig(hidden=4, k_window=8, epochs=50, learning_rate=1e200, seed=0)
    with pytest.raises(TrainingError, match="epoch"):
        train(lf, hf, cfg)


@pytest.mark.parametrize("fit", [train, train_static_baseline])
def test_training_returns_last_epoch_and_only_observes_the_holdout(fit):
    # at this config the held-out loss is lowest before the last epoch, so a
    # model that kept its best held-out epoch would fail both checks
    lf, hf = series_pair(n_mu=2, n_t=64, n_coef=2, seed=23)
    cfg = TrainConfig(hidden=12, k_window=16, n_batch=8, epochs=60,
                      learning_rate=2e-2, seed=3)
    model = fit(lf, hf, cfg, val_every=1)
    val_losses = [v for _, _, v in model.history]
    assert np.all(np.isfinite(val_losses))
    assert model.history[-1][1] < model.history[0][1]
    assert int(np.argmin(val_losses)) < cfg.epochs - 1
    # the held-out tail is the last 10% of each 64-step trajectory: 6 steps
    n_tail = 6
    resid = (predict(model, lf).coeffs - hf.coeffs).reshape(hf.n_pod, hf.n_mu, hf.n_t)
    held_out = float((resid[:, :, -n_tail:] ** 2).sum()) / (n_tail * hf.n_mu)
    assert held_out == pytest.approx(val_losses[-1], rel=1e-12, abs=0)
    # how often the held-out loss is observed changes no weight
    for other in (fit(lf, hf, cfg), fit(lf, hf, cfg, val_every=7)):
        for every, sparse in zip(_params(model), _params(other), strict=True):
            assert every.tobytes() == sparse.tobytes()


@pytest.mark.parametrize(("fit", "val_every", "expected"), [
    pytest.param(train, 7, [0, 7, 14, 19], id="train"),
    pytest.param(train_static_baseline, 7, [0, 7, 14, 19], id="train_static_baseline"),
    pytest.param(train, None, [0, 10, 19], id="train-default"),
    pytest.param(train_static_baseline, None, [0, 10, 19], id="train_static_baseline-default"),
])
def test_holdout_loss_observed_every_val_every_epochs_and_after_the_last(fit, val_every, expected):
    lf, hf = series_pair(n_mu=2, n_t=32, n_coef=2, seed=24)
    cfg = TrainConfig(hidden=4, k_window=8, n_batch=4, epochs=20, seed=1)
    model = fit(lf, hf, cfg) if val_every is None else fit(lf, hf, cfg, val_every=val_every)
    assert [epoch for epoch, _, _ in model.history] == list(range(20))
    observed = [epoch for epoch, _, val in model.history if not math.isnan(val)]
    assert observed == expected
    # every training loss and every recorded held-out loss equal those of the
    # run that observes every epoch (the losses are positive, so == is bitwise)
    every = fit(lf, hf, cfg, val_every=1).history
    assert [loss for _, loss, _ in model.history] == [loss for _, loss, _ in every]
    assert [model.history[epoch][2] for epoch in expected] == [every[epoch][2] for epoch in expected]


@pytest.mark.parametrize("fit", [train, train_static_baseline])
@pytest.mark.parametrize("val_every", [0, -1])
def test_val_every_below_one_rejected(fit, val_every):
    lf, hf = series_pair(n_t=32)
    with pytest.raises(ValidationError, match="val_every"):
        fit(lf, hf, TrainConfig(hidden=4, k_window=8, epochs=2), val_every=val_every)


# ---------------------------------------------------------------------------
# static baseline
# ---------------------------------------------------------------------------

def test_static_identity_task_converges():
    lf, hf = series_pair(n_mu=2, n_t=64, n_coef=3, seed=24)
    cfg = TrainConfig(hidden=16, n_layers=1, k_window=16, n_batch=8,
                      epochs=300, learning_rate=5e-3, seed=0)
    model = train_static_baseline(lf, hf, cfg)
    assert model.history[-1][1] < 1e-3 * model.history[0][1]
    assert model.layout.with_time is False


def test_static_zero_hidden_layers_matches_least_squares():
    rng = np.random.default_rng(25)
    n_t, n_coef = 120, 2
    times = np.linspace(0, 1, n_t)
    params = np.array([[1.0]])
    x = rng.standard_normal((n_coef, n_t))
    true_w = rng.standard_normal((n_coef, n_coef + 1))
    true_b = rng.standard_normal(n_coef)
    y = true_w[:, 1:] @ x + true_w[:, :1] * params[0, 0] + true_b[:, None]
    lf = CoefficientSeries(x, times, params)
    hf = CoefficientSeries(y, times, params)
    # constant-step Adam keeps moving around an exact fit by about its step,
    # so the last epoch lands within the bound at this rate, not at 2e-2
    cfg = TrainConfig(hidden=4, n_layers=0, k_window=30, n_batch=4,
                      epochs=4000, learning_rate=5e-3, seed=0)
    model = train_static_baseline(lf, hf, cfg)
    pred = predict(model, lf)
    # closed-form least squares on [mu, coefs, 1]
    design = np.column_stack([np.full(n_t, params[0, 0]), x.T, np.ones(n_t)])
    theta, *_ = np.linalg.lstsq(design, y.T, rcond=None)
    exact = (design @ theta).T
    assert np.abs(pred.coeffs - exact).max() < 1e-4


# ---------------------------------------------------------------------------
# prediction
# ---------------------------------------------------------------------------

def test_predict_identity_model_reproduces_input():
    lf, hf = series_pair(n_mu=2, n_t=64, n_coef=3, seed=26)
    cfg = TrainConfig(hidden=48, k_window=8, n_batch=8, epochs=250,
                      learning_rate=2e-2, seed=0)
    model = train(lf, hf, cfg)
    pred = predict(model, lf)
    rel = np.linalg.norm(pred.coeffs - hf.coeffs) / np.linalg.norm(hf.coeffs)
    assert rel < 0.25


def assert_whole_series_matches_single_parameter_calls(model, lf):
    whole = predict(model, lf).coeffs
    for i in range(lf.n_mu):
        block = slice(i * lf.n_t, (i + 1) * lf.n_t)
        one = CoefficientSeries(lf.coeffs[:, block], lf.times, lf.params[i : i + 1])
        alone = predict(model, one).coeffs
        assert_allclose(whole[:, block], alone, rtol=1e-12, atol=1e-12 * np.abs(alone).max())


@pytest.mark.parametrize(("kind", "size"), [
    ("lstm", "small"), ("static", "small"), ("lstm", "benchmark"), ("static", "benchmark"),
], ids=["lstm", "static", "lstm-benchmark", "static-benchmark"])
def test_predict_whole_series_matches_single_parameter_calls(kind, size):
    # a 3-parameter series, predicted at once, must match each parameter
    # predicted alone block by block; not bitwise, because the GEMMs round
    # differently for a 1-row and a 3-row batch. The benchmark size is
    # hidden 64 over 9 modes and 3 x 401 steps, as mfbench trains.
    if size == "small":
        lf, hf = series_pair(n_mu=3, n_t=24, n_coef=3, seed=31)
        cfg = TrainConfig(hidden=8, n_layers=2, k_window=8, n_batch=4, epochs=3, seed=0)
    else:
        lf, hf = series_pair(n_mu=3, n_t=401, n_coef=9, seed=31)
        cfg = TrainConfig(hidden=64, k_window=40, n_batch=30, epochs=2, seed=0)
    model = train(lf, hf, cfg) if kind == "lstm" else train_static_baseline(lf, hf, cfg)
    assert_whole_series_matches_single_parameter_calls(model, lf)


@settings(max_examples=20, deadline=None)
@given(
    static=st.booleans(),
    n_layers=st.integers(1, 2),
    hidden=st.integers(1, 16),
    n_coef=st.integers(1, 5),
    n_mu=st.integers(2, 4),
    n_t=st.integers(12, 40),
    seed=st.integers(0, 2**16),
)
def test_predict_batch_invariance_over_shapes(static, n_layers, hidden, n_coef, n_mu, n_t, seed):
    # the whole-series prediction matches each parameter predicted alone, to
    # the bound of the fixed-shape test above, for LSTM and static models
    lf, hf = series_pair(n_mu=n_mu, n_t=n_t, n_coef=n_coef, seed=seed)
    cfg = TrainConfig(hidden=hidden, n_layers=n_layers, k_window=8, n_batch=4, epochs=2, seed=seed)
    model = (train_static_baseline if static else train)(lf, hf, cfg)
    assert_whole_series_matches_single_parameter_calls(model, lf)


def test_predict_double_horizon_accepted():
    lf, hf = series_pair(n_mu=1, n_t=32, n_coef=2, seed=27)
    cfg = TrainConfig(hidden=8, k_window=8, epochs=20, seed=0)
    model = train(lf, hf, cfg)
    long_times = np.linspace(0.0, 8.0, 64)  # twice the training horizon
    long_series = CoefficientSeries(
        np.random.default_rng(28).standard_normal((2, 64)), long_times, lf.params
    )
    out = predict(model, long_series)
    assert out.coeffs.shape == (2, 64)
    assert np.all(np.isfinite(out.coeffs))


def test_predict_single_step_sequence():
    lf, hf = series_pair(n_mu=1, n_t=32, n_coef=2, seed=29)
    model = train(lf, hf, TrainConfig(hidden=8, k_window=8, epochs=5, seed=0))
    single = CoefficientSeries(np.ones((2, 1)), np.array([0.0]), lf.params)
    out = predict(model, single)
    assert out.coeffs.shape == (2, 1)


def test_predict_rejects_wrong_coefficient_count():
    lf, hf = series_pair(n_mu=1, n_t=32, n_coef=2)
    model = train(lf, hf, TrainConfig(hidden=8, k_window=8, epochs=5, seed=0))
    bad = CoefficientSeries(np.ones((3, 4)), np.linspace(0, 1, 4), lf.params)
    with pytest.raises(ShapeError):
        predict(model, bad)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_lstm_serialization_round_trip_bit_exact():
    lf, hf = series_pair(n_mu=2, n_t=32, n_coef=2, seed=30)
    model = train(lf, hf, TrainConfig(hidden=8, k_window=8, epochs=10, seed=0))
    blob = lstm_to_bytes(model)
    back = lstm_from_bytes(blob)
    assert lstm_to_bytes(back) == blob
    assert np.array_equal(predict(model, lf).coeffs, predict(back, lf).coeffs)


def test_lstm_serialization_refuses_a_model_without_lstm_layers():
    lf, hf = series_pair(n_mu=1, n_t=32, n_coef=2, seed=34)
    cfg = TrainConfig(hidden=4, k_window=8, epochs=1, seed=0)
    with pytest.raises(ValidationError, match="at least one layer"):
        lstm_to_bytes(train_static_baseline(lf, hf, cfg))
    with pytest.raises(ValidationError, match="at least one layer"):
        train(lf, hf, TrainConfig(hidden=4, n_layers=0, k_window=8, epochs=1))


def test_lstm_deserialization_rejects_corruption():
    lf, hf = series_pair(n_mu=1, n_t=32, n_coef=2, seed=33)
    model = train(lf, hf, TrainConfig(hidden=8, k_window=8, epochs=2, seed=0))
    blob = lstm_to_bytes(model)
    from mfpod.errors import FormatError

    with pytest.raises(FormatError):
        lstm_from_bytes(b"XXXXXXXX" + blob[8:])
    with pytest.raises(FormatError):
        lstm_from_bytes(blob[:-4])
