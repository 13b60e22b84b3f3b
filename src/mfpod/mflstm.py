"""Multi-fidelity coefficient regression: one network type, ``LstmModel``.

The network maps the inputs x_n = [t_n, mu, low-fidelity coefficients at
t_n] to the high-fidelity coefficients at t_n through LSTM layers, then tanh
dense layers, then an affine readout; either stack may be empty. One LSTM
layer updates its cell and hidden states as

    G_i   = sigmoid(W_i [h_{n-1}, x_n] + b_i)   for i in {f, u, o}
    ctil  = tanh(W_c [h_{n-1}, x_n] + b_c)
    c_n   = G_f * c_{n-1} + G_u * ctil
    h_n   = G_o * tanh(c_n)

with elementwise products throughout and zero initial states. Layers stack
by feeding h_n upward; the dense layers and the readout, the ``head``, map
each step's top hidden state on its own. Inputs and outputs are z-scored per
feature; the stats live on the model so that serialized models are
self-contained. ``train`` builds LSTM layers and no dense layers; the static
baseline of ``train_static_baseline`` has no LSTM layers and no time input,
so it maps [mu, low-fidelity coefficients] column by column, and with zero
dense layers it degenerates to linear regression.

Training minimizes the mean squared 2-norm of the residual over all
(time, parameter) samples with Adam, over backpropagation-through-time
gradients on zero-initial-state subsequences of length ``k_window`` (LSTM)
or over shuffled columns (static baseline). The model keeps the weights of
its last epoch. The last 10% of every trajectory is held out of training,
and its loss is recorded in the history every ``_VAL_EVERY`` (10) epochs and
after the last; it observes training and selects nothing. Everything is
seeded: identical data, config, seed and BLAS thread count give
bit-identical weights. Across thread counts the LSTM's gate weight gradient
may round differently at benchmark size.

Both models train through one loop, ``_fit``: seeded shuffles, mini-batch
Adam, the divergence check and the held-out loss record. ``_fit`` updates
the arrays ``_params`` lists in place; a model supplies only its features
and a batch loss-and-gradient closure over ``_sse_grads`` (LSTM) or
``_mlp_sse_grads`` (static baseline). The head's forward pass, loss and
gradients live only in ``_mlp_forward`` and ``_mlp_sse_grads``, which
``_sse_grads`` calls between the stack's forward and backward passes. The
finite-difference checks in the test suite call both directly, so they test
the code training runs.

Each LSTM layer is one stacked (4H, H + D) gate matrix and one (4H,) bias in
gate order f, u, o, c: the layout of the kernels, the initialiser, Adam and
the MFLSTM01 block, which persists through ``codec`` and holds recurrent
models only. ``predict`` is the one forward pass of either model.

The kernels follow the cuDNN-style restructuring of Appleyard, Kocisky and
Blunsom (arXiv:1604.01946): the input projection of every step is hoisted
out of the recurrence, and the weight gradients are formed after it. Each
gate's elementwise work is one contiguous (B, H) block. The forward pass
writes each step's activated gates gate-major, (4, B, H), over the
projection's own step block, so the cache holds them as (T, 4, B, H) in the
memory of the projection, with no second array. The backward pass forms
each step's gate gradients in one gate-major block and copies it into the
batch-major (T, B, 4H) gradients, so every GEMM reads the operands it would
with batch-major gates: the layout changes no bit of any result. The factors
that do not depend on the recurrence, (1 - tanh(c)^2) G_o, 1 - G and
1 + ctil, stay in the loop: formed for every step before it, their arrays
(T, 4, B, H for 1 - G) made the backward pass slower at training batches
of 30 windows, as the memory they fill costs more than the calls they save.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .codec import Reader, dump_f64, stored
from .errors import (
    AlignmentError,
    FormatError,
    ShapeError,
    TrainingError,
    ValidationError,
)
from .pod import CoefficientSeries

LSTM_MAGIC = b"MFLSTM01"
_VAL_FRACTION = 0.1
# epochs between held-out passes; the pass also runs after the last epoch
_VAL_EVERY = 10
# Adam's moment decay rates and denominator guard, the defaults of Kingma and
# Ba (arXiv:1412.6980)
_BETA1, _BETA2, _ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass(frozen=True)
class Normalizer:
    """Per-feature z-score transform with strictly positive scales."""

    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mean", np.asarray(self.mean, dtype=np.float64))
        object.__setattr__(self, "std", np.asarray(self.std, dtype=np.float64))
        if not (np.all(np.isfinite(self.mean)) and np.all(np.isfinite(self.std))):
            raise ValidationError("normalizer statistics must be finite")
        if np.any(self.std <= 0):
            raise ValidationError("normalizer scales must be strictly positive")

    @classmethod
    def fit(cls, samples: np.ndarray) -> "Normalizer":
        """Fit over axis 0; degenerate (constant) features get unit scale."""
        mean = samples.mean(axis=0)
        std = samples.std(axis=0)
        std = np.where(std < 1e-12, 1.0, std)
        return cls(mean, std)

    def encode(self, x: np.ndarray) -> np.ndarray:
        return (x - self.mean) / self.std

    def decode(self, y: np.ndarray) -> np.ndarray:
        return y * self.std + self.mean


@dataclass(frozen=True)
class FeatureLayout:
    """Input feature order: [t (optional), mu..., coefficients...]."""

    with_time: bool
    n_params: int
    n_coef: int

    @property
    def n_features(self) -> int:
        return int(self.with_time) + self.n_params + self.n_coef


@dataclass
class LstmLayerWeights:
    """Gate weights (4H, H + D) over [h_{n-1}, x_n] and biases (4H,).

    Row blocks of H follow the gate order f, u, o, c.
    """

    w: np.ndarray
    b: np.ndarray


@dataclass
class LstmModel:
    """LSTM layers, tanh dense layers, the affine readout; ``head`` is the last two."""

    layers: list[LstmLayerWeights]
    w_out: np.ndarray
    b_out: np.ndarray
    input_norm: Normalizer
    output_norm: Normalizer
    layout: FeatureLayout
    history: list = field(default_factory=list, compare=False, repr=False)
    dense: list[tuple[np.ndarray, np.ndarray]] = field(default_factory=list)

    @property
    def head(self) -> list[tuple[np.ndarray, np.ndarray]]:
        return [*self.dense, (self.w_out, self.b_out)]

    @property
    def n_out(self) -> int:
        return self.w_out.shape[0]


@dataclass(frozen=True)
class TrainConfig:
    hidden: int = 64
    n_layers: int = 1
    k_window: int = 40
    n_batch: int = 32
    epochs: int = 400
    learning_rate: float = 1e-3
    seed: int = 0

    def __post_init__(self):
        if self.hidden < 1 or self.k_window < 1 or self.n_batch < 1 or self.epochs < 1:
            raise ValidationError("hidden, k_window, n_batch, and epochs must be >= 1")
        if self.n_layers < 0:
            raise ValidationError("n_layers must be nonnegative")
        if not (self.learning_rate > 0):
            raise ValidationError(f"learning rate must be positive, got {self.learning_rate}")


def _rows_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(..., K) @ (K, N) as one GEMM over the flattened leading axes."""
    return (a.reshape(-1, a.shape[-1]) @ b).reshape(*a.shape[:-1], b.shape[1])


# ---------------------------------------------------------------------------
# forward / backward on stacked parameters
# ---------------------------------------------------------------------------

def _forward_stacked(layers, x_seq, need_cache=False):
    """Run the LSTM stack over x_seq (T, B, D); returns the top hidden states,
    x_seq itself with no layers, and the caches.

    Per layer, the input projection of every step is one GEMM before the
    recurrence. Each step adds it to the (B, 4H) GEMM h_{n-1} @ W_h.T, and
    one tanh pass reads the sum through a gate-major view and writes the
    gates, (4, B, H), over the projection's own step block, which it has
    just read, so that every gate is one contiguous block. The sigmoid is
    0.5 * (1 + tanh(x / 2)), within 2.3e-16 of the logistic and free of
    overflow; the halving is folded into the f, u, o rows of the weights,
    which is exact. The cache keeps, per layer, the activated gates
    (T, 4, B, H), the cell, tanh(cell) and the hidden states (T, B, H).
    """
    n_steps, n_batch, _ = x_seq.shape
    inputs = x_seq
    caches = []
    for layer in layers:
        h = layer.w.shape[0] // 4
        scale = np.repeat([0.5, 0.5, 0.5, 1.0], h)
        w = layer.w * scale[:, None]
        w_h = w[:, :h].T
        proj = _rows_matmul(inputs, w[:, h:].T)
        proj += layer.b * scale
        gates = proj.reshape(n_steps, 4, n_batch, h)
        rec = np.empty((n_batch, 4 * h))
        rec_gm = rec.reshape(n_batch, 4, h).transpose(1, 0, 2)
        cell = np.empty((n_steps, n_batch, h))
        tcell = np.empty_like(cell)
        hidden = np.empty_like(cell)
        for t in range(n_steps):
            if t > 0:
                np.matmul(hidden[t - 1], w_h, out=rec)
                rec += proj[t]
            else:
                rec[...] = proj[t]
            a = gates[t]
            np.tanh(rec_gm, out=a)
            sig = a[:3]
            sig *= 0.5
            sig += 0.5
            np.multiply(a[1], a[3], out=cell[t])
            if t > 0:
                cell[t] += a[0] * cell[t - 1]
            np.tanh(cell[t], out=tcell[t])
            np.multiply(a[2], tcell[t], out=hidden[t])
        if need_cache:
            caches.append((gates, cell, tcell, hidden))
        inputs = hidden
    return inputs, ((x_seq, caches) if need_cache else None)


def _backward_stacked(layers, cache, d_hidden):
    """BPTT gradients for the layer parameters given dLoss/d(top hidden states).

    The loop carries only the elementwise gate algebra, on one gate-major
    (4, B, H) block per step, and da_t @ W_h. Each step's block is copied
    into the batch-major (T, B, 4H) gate gradients da, which the recurrent
    product, the weight gradient, the bias gradient and the gradient passed
    to the layer below read as one GEMM or sum each.
    """
    x_seq, caches = cache
    n_steps, n_batch, _ = d_hidden.shape
    rows = n_steps * n_batch
    layer_grads = [None] * len(layers)
    for li in range(len(layers) - 1, -1, -1):
        w = layers[li].w
        h = w.shape[0] // 4
        gates, cell, tcell, hidden = caches[li]
        inputs = x_seq if li == 0 else caches[li - 1][3]
        w_h = w[:, :h]
        da = np.empty((n_steps, n_batch, 4 * h))
        da_gm = da.reshape(n_steps, n_batch, 4, h).transpose(0, 2, 1, 3)
        a = np.empty((4, n_batch, h))
        buf = np.empty_like(a)
        tmp = np.empty((n_batch, h))
        dh = d_hidden[n_steps - 1]
        dc = np.zeros((n_batch, h))
        for t in range(n_steps - 1, -1, -1):
            g = gates[t]
            # dc carries dc_{t+1} * G_f(t+1); add dh * G_o * (1 - tanh(c)^2)
            np.multiply(tcell[t], tcell[t], out=tmp)
            np.subtract(1.0, tmp, out=tmp)
            tmp *= g[2]
            tmp *= dh
            dc += tmp
            # gate-output gradients, then times the gate derivatives:
            # G (1 - G) for f, u, o and (1 - ctil)(1 + ctil) for c
            if t > 0:
                np.multiply(dc, cell[t - 1], out=a[0])
            else:
                a[0] = 0.0
            np.multiply(dc, g[3], out=a[1])
            np.multiply(dh, tcell[t], out=a[2])
            np.multiply(dc, g[1], out=a[3])
            np.subtract(1.0, g, out=buf)
            a *= buf
            a[:3] *= g[:3]
            np.add(1.0, g[3], out=tmp)
            a[3] *= tmp
            np.copyto(da_gm[t], a)
            if t > 0:
                dc *= g[0]
                dh = da[t] @ w_h
                dh += d_hidden[t - 1]
        da_rows = da.reshape(rows, 4 * h)
        # z_t = [h_{t-1}, x_t], the operand of step t's gate product
        z = np.empty((n_steps, n_batch, w.shape[1]))
        z[0, :, :h] = 0.0
        z[1:, :, :h] = hidden[:-1]
        z[..., h:] = inputs
        layer_grads[li] = (da_rows.T @ z.reshape(rows, -1), da_rows.sum(axis=0))
        if li > 0:
            d_hidden = _rows_matmul(da, w[:, h:])
    return layer_grads


def _mlp_forward(weights, x: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """tanh hidden layers and a linear readout; returns the normalized output
    and the input of every layer, which training's backward pass reuses."""
    acts = [x]
    for w, b in weights[:-1]:
        acts.append(np.tanh(acts[-1] @ w.T + b))
    w, b = weights[-1]
    return acts[-1] @ w.T + b, acts


def _mlp_sse_grads(weights, scale_sq, x, y) -> tuple[float, list[np.ndarray], np.ndarray]:
    """Summed squared error in physical units over normalized (N, .) x and y.

    The gradients are of the mean over N, in the order W, b of every layer;
    last comes the gradient at the first layer's affine output, (N, .).
    """
    pred, acts = _mlp_forward(weights, x)
    resid = pred - y
    sse = float((resid**2 * scale_sq).sum())
    delta = (2.0 / x.shape[0]) * resid * scale_sq
    grads = []
    for wi in range(len(weights) - 1, -1, -1):
        grads[:0] = [delta.T @ acts[wi], delta.sum(axis=0)]
        if wi > 0:
            delta = (delta @ weights[wi][0]) * (1.0 - acts[wi] ** 2)
    return sse, grads, delta


def _params(model: LstmModel) -> list[np.ndarray]:
    """The trainable arrays, in the order the loss closures return gradients."""
    pairs = [(layer.w, layer.b) for layer in model.layers] + model.head
    return [arr for pair in pairs for arr in pair]


def _outputs(model: LstmModel, x_seq: np.ndarray) -> np.ndarray:
    """Normalized outputs (T, B, n_out) of the model over normalized x_seq (T, B, D)."""
    hidden, _ = _forward_stacked(model.layers, x_seq)
    y, _ = _mlp_forward(model.head, hidden.reshape(-1, hidden.shape[2]))
    return y.reshape(*x_seq.shape[:2], -1)


# ---------------------------------------------------------------------------
# feature assembly
# ---------------------------------------------------------------------------

def _target_tensor(series: CoefficientSeries) -> np.ndarray:
    """(n_mu, n_t, n_pod) view of the parameter-major coefficient columns."""
    return series.coeffs.reshape(series.n_pod, series.n_mu, series.n_t).transpose(1, 2, 0)


def _feature_tensor(series: CoefficientSeries, with_time: bool) -> np.ndarray:
    """(n_mu, n_t, n_features) feature array in layout order."""
    n_mu, n_t = series.n_mu, series.n_t
    cols = []
    if with_time:
        cols.append(np.broadcast_to(series.times[None, :, None], (n_mu, n_t, 1)))
    cols.append(np.broadcast_to(series.params[:, None, :], (n_mu, n_t, series.params.shape[1])))
    cols.append(_target_tensor(series))
    return np.concatenate(cols, axis=2)


def _samples(lf: CoefficientSeries, hf: CoefficientSeries, with_time: bool):
    """Layout, normalizers, normalized (n_mu, n_t, .) features and targets, and
    the number of leading training steps of every trajectory.

    The last ``_VAL_FRACTION`` of every trajectory is held out; the
    normalizers are fitted on the remaining training span.
    """
    if lf.coeffs.shape != hf.coeffs.shape:
        raise AlignmentError(
            f"coefficient shapes differ: {lf.coeffs.shape} vs {hf.coeffs.shape}"
        )
    if not np.array_equal(lf.times, hf.times):
        raise AlignmentError("low- and high-fidelity series have different time grids")
    if not np.array_equal(lf.params, hf.params):
        raise AlignmentError("low- and high-fidelity series have different parameters")
    layout = FeatureLayout(with_time=with_time, n_params=lf.params.shape[1], n_coef=lf.n_pod)
    features = _feature_tensor(lf, with_time=with_time)
    targets = _target_tensor(hf)
    n_t = features.shape[1]
    n_train_t = n_t - (max(1, int(round(_VAL_FRACTION * n_t))) if n_t > 1 else 0)
    in_norm = Normalizer.fit(features[:, :n_train_t].reshape(-1, layout.n_features))
    out_norm = Normalizer.fit(targets[:, :n_train_t].reshape(-1, targets.shape[2]))
    return (layout, in_norm, out_norm, in_norm.encode(features), out_norm.encode(targets),
            n_train_t)


def _window_starts(n_train_t: int, k: int) -> list[int]:
    starts = list(range(0, n_train_t - k + 1, k))
    tail = n_train_t - k
    if tail not in starts:
        starts.append(tail)
    return starts


def _dense_layer(rng, d_in: int, d_out: int) -> tuple[np.ndarray, np.ndarray]:
    """(d_out, d_in) weights uniform within 1/sqrt(d_in) and zero biases."""
    limit = 1.0 / np.sqrt(d_in)
    return rng.uniform(-limit, limit, size=(d_out, d_in)), np.zeros(d_out)


def _init_lstm(cfg: TrainConfig, layout: FeatureLayout, in_norm: Normalizer,
               out_norm: Normalizer, rng) -> LstmModel:
    layers = []
    for li in range(cfg.n_layers):
        d_layer = layout.n_features if li == 0 else cfg.hidden
        limit = 1.0 / np.sqrt(cfg.hidden + d_layer)
        w_all = rng.uniform(-limit, limit, size=(4 * cfg.hidden, cfg.hidden + d_layer))
        b_all = np.zeros(4 * cfg.hidden)
        b_all[: cfg.hidden] = 1.0  # forget-gate bias; aids gradient flow early on
        layers.append(LstmLayerWeights(w_all, b_all))
    w_out, b_out = _dense_layer(rng, cfg.hidden, out_norm.mean.size)
    return LstmModel(layers, w_out, b_out, in_norm, out_norm, layout)


def _fit(cfg: TrainConfig, rng, model: LstmModel, n_items: int,
         batch_size: int, batch_sse_grads, n_terms: int, val_loss, val_every: int):
    """Adam on the model's own arrays, in place, over shuffled batches of
    ``n_items`` items.

    ``batch_sse_grads(idx)`` returns a batch's summed squared error and its
    gradients; an epoch's training loss is the summed error over ``n_terms``.
    ``val_loss`` (None when nothing is held out) runs every ``val_every``
    epochs and after the last; it is recorded and selects nothing, so the
    model leaves with its last epoch's values. Returns the (epoch, train,
    val) history.
    """
    if val_every < 1:
        raise ValidationError(f"val_every must be >= 1, got {val_every}")
    params = _params(model)
    moments = [(np.zeros_like(p), np.zeros_like(p)) for p in params]
    n_steps = 0
    history: list[tuple[int, float, float]] = []
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(cfg.epochs):
            order = rng.permutation(n_items)
            sse = 0.0
            for lo in range(0, n_items, batch_size):
                batch_sse, grads = batch_sse_grads(order[lo : lo + batch_size])
                sse += batch_sse
                n_steps += 1
                bias1 = 1.0 - _BETA1**n_steps
                bias2 = 1.0 - _BETA2**n_steps
                for p, g, (m, v) in zip(params, grads, moments):
                    m *= _BETA1
                    m += (1.0 - _BETA1) * g
                    v *= _BETA2
                    v += (1.0 - _BETA2) * g * g
                    p -= cfg.learning_rate * (m / bias1) / (np.sqrt(v / bias2) + _ADAM_EPS)
            train_loss = sse / n_terms
            if not np.isfinite(train_loss):
                raise TrainingError(f"training diverged (non-finite loss) at epoch {epoch}")
            val = float("nan")
            if val_loss is not None and (epoch % val_every == 0 or epoch == cfg.epochs - 1):
                val = val_loss()
            history.append((epoch, train_loss, val))
    return history


def _sse_grads(layers, readout, scale_sq, x, y) -> tuple[float, list[np.ndarray]]:
    """Summed squared error in physical units over normalized (T, B, .) x and y.

    The gradients are of the mean over T * B, in the order w, b of every
    layer, then the readout's w_out, b_out. The readout's loss and gradients
    are ``_mlp_sse_grads``' over the (T * B, H) rows of the top hidden states.
    """
    hidden, cache = _forward_stacked(layers, x, need_cache=True)
    n_steps, n_batch, n_hidden = hidden.shape
    sse, readout_grads, delta = _mlp_sse_grads(
        [readout], scale_sq, hidden.reshape(-1, n_hidden), y.reshape(n_steps * n_batch, -1))
    layer_grads = _backward_stacked(layers, cache, (delta @ readout[0]).reshape(hidden.shape))
    return sse, [arr for pair in layer_grads for arr in pair] + readout_grads


def train(
    lf: CoefficientSeries,
    hf: CoefficientSeries,
    cfg: TrainConfig,
    val_every: int = _VAL_EVERY,
) -> LstmModel:
    """Fit the LSTM map from low- to high-fidelity coefficient sequences.

    The two series must be aligned column by column (same times, same
    parameters). Returns the model with the weights of its last epoch. The
    last 10% of every trajectory is held out: it trains nothing and fits no
    normalizer. Its loss, in the units of the training loss, is only
    observed, and ``model.history`` holds the per-epoch (epoch, train,
    held-out) losses, NaN in epochs that skip the held-out pass.

    The held-out pass is a full-sequence forward pass over every parameter,
    run every ``val_every`` epochs and after the last, and it is not cheap: on
    a 3-parameter, 401-step set (40 epochs, hidden 64, one BLAS thread on
    a 2-vCPU Xeon VM, median of 7) training took 0.62 s with ``val_every=1``,
    0.38 s at the default of 10 and 0.36 s with ``val_every=40``, which
    validates after the first and the last epoch only.
    """
    if cfg.n_layers < 1:
        raise ValidationError("the recurrent model needs at least one layer")
    layout, in_norm, out_norm, x_all, y_all, n_train_t = _samples(lf, hf, with_time=True)
    n_mu, n_t, _ = y_all.shape
    rng = np.random.default_rng(cfg.seed)
    model = _init_lstm(cfg, layout, in_norm, out_norm, rng)
    if cfg.k_window > n_train_t:
        raise TrainingError(
            f"subsequence length {cfg.k_window} exceeds the {n_train_t} training "
            f"steps left after holding out validation"
        )

    starts = _window_starts(n_train_t, cfg.k_window)
    windows = [(i, s) for i in range(n_mu) for s in starts]
    x_win = np.stack([x_all[i, s : s + cfg.k_window] for i, s in windows])
    y_win = np.stack([y_all[i, s : s + cfg.k_window] for i, s in windows])

    x_full = x_all.transpose(1, 0, 2)
    y_full = y_all.transpose(1, 0, 2)
    layers, readout = model.layers, (model.w_out, model.b_out)
    # the objective lives in raw coefficient units: undoing the output
    # z-score inside the loss weights every mode by its physical scale
    scale_sq = out_norm.std**2

    def batch_sse_grads(idx):
        return _sse_grads(layers, readout, scale_sq,
                          x_win[idx].transpose(1, 0, 2), y_win[idx].transpose(1, 0, 2))

    def validation_loss() -> float:
        y_pred = _outputs(model, x_full)
        resid = y_pred[n_train_t:] - y_full[n_train_t:]
        return float((resid**2 * scale_sq).sum() / ((n_t - n_train_t) * n_mu))

    model.history = _fit(cfg, rng, model, len(windows), cfg.n_batch, batch_sse_grads,
                         cfg.k_window * len(windows),
                         validation_loss if n_train_t < n_t else None, val_every)
    return model


def train_static_baseline(
    lf: CoefficientSeries,
    hf: CoefficientSeries,
    cfg: TrainConfig,
    val_every: int = _VAL_EVERY,
) -> LstmModel:
    """Fit the time-agnostic feed-forward baseline on independent columns.

    The model has no LSTM layers and ``cfg.n_layers`` tanh dense layers of
    ``cfg.hidden`` units. It trains by the rule of ``train``: the last
    epoch's weights, with the same held-out tail observed every
    ``val_every`` epochs and after the last.
    """
    layout, in_norm, out_norm, x_all, y_all, n_train_t = _samples(lf, hf, with_time=False)
    # every (parameter, time) column is one sample, on either side of the split
    xn, yn = (a[:, :n_train_t].reshape(-1, a.shape[2]) for a in (x_all, y_all))
    x_val, y_val = (a[:, n_train_t:].reshape(-1, a.shape[2]) for a in (x_all, y_all))

    rng = np.random.default_rng(cfg.seed)
    dims = [layout.n_features] + [cfg.hidden] * cfg.n_layers + [y_all.shape[2]]
    *dense, (w_out, b_out) = [_dense_layer(rng, d_in, d_out)
                              for d_in, d_out in zip(dims[:-1], dims[1:])]
    model = LstmModel([], w_out, b_out, in_norm, out_norm, layout, dense=dense)
    head = model.head
    scale_sq = out_norm.std**2

    def batch_sse_grads(idx):
        return _mlp_sse_grads(head, scale_sq, xn[idx], yn[idx])[:2]

    def validation_loss() -> float:
        pred, _ = _mlp_forward(head, x_val)
        return float(((pred - y_val) ** 2 * scale_sq).sum() / x_val.shape[0])

    model.history = _fit(cfg, rng, model, xn.shape[0], cfg.n_batch * cfg.k_window,
                         batch_sse_grads, xn.shape[0],
                         validation_loss if n_train_t < y_all.shape[1] else None, val_every)
    return model


def _stored_arrays(model: LstmModel) -> list[np.ndarray]:
    """The trainable arrays, then the input and output normalizer statistics."""
    norms = (model.input_norm, model.output_norm)
    return _params(model) + [arr for norm in norms for arr in (norm.mean, norm.std)]


def _require_finite(model: LstmModel) -> None:
    if not all(np.all(np.isfinite(arr)) for arr in _stored_arrays(model)):
        raise ValidationError("model weights contain non-finite values")


def predict(model: LstmModel, series: CoefficientSeries) -> CoefficientSeries:
    """Map a low-fidelity coefficient series to the high-fidelity estimate.

    Each parameter trajectory is processed as one full sequence from zero
    initial states; a model without LSTM layers maps column by column.
    Times may extend past the training horizon. A model with a non-finite
    weight, bias or normalizer statistic is rejected.

    Parameters predicted in one call match each predicted alone to rounding,
    not bitwise: at benchmark size (hidden 64, 9 modes, 3 parameters x 401
    steps) within 1.8e-15 on outputs of order 1, and the tests bound 1e-12.
    """
    if np.any(np.diff(series.times) <= 0):
        raise ValidationError("prediction times must be strictly increasing")
    if series.n_pod != model.layout.n_coef:
        raise ShapeError(
            f"series carries {series.n_pod} coefficients, model expects "
            f"{model.layout.n_coef}"
        )
    if series.params.shape[1] != model.layout.n_params:
        raise ShapeError(
            f"series has {series.params.shape[1]} parameters, model expects "
            f"{model.layout.n_params}"
        )
    _require_finite(model)
    features = _feature_tensor(series, with_time=model.layout.with_time)
    y = _outputs(model, model.input_norm.encode(features).transpose(1, 0, 2))
    # (n_t, n_mu, n_out) back to parameter-major columns
    coeffs = model.output_norm.decode(y).transpose(2, 1, 0).reshape(-1, series.n_mu * series.n_t)
    return CoefficientSeries(coeffs=coeffs, times=series.times, params=series.params)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def lstm_to_bytes(model: LstmModel) -> bytes:
    """Encode an MFLSTM01 block: a model of LSTM layers and the readout, no dense layers."""
    if not model.layers or model.dense:
        raise ValidationError("an LSTM block holds at least one layer and no dense layers")
    layout = model.layout
    header = struct.pack("<7I", len(model.layers), model.w_out.shape[1], model.n_out,
                         layout.n_features, layout.n_params, layout.n_coef, int(layout.with_time))
    return b"".join([LSTM_MAGIC, header] + [dump_f64(arr) for arr in _stored_arrays(model)])


def lstm_from_bytes(buf) -> LstmModel:
    """Decode an MFLSTM01 block; a value its type rejects is a forged block, a ``FormatError``."""
    reader = Reader(buf, "LSTM model", LSTM_MAGIC)
    n_layers, hidden, n_out, d_in, n_params, n_coef, with_time = reader.u32(7)
    layout = FeatureLayout(with_time=bool(with_time), n_params=n_params, n_coef=n_coef)
    if layout.n_features != d_in:
        raise FormatError("inconsistent feature layout in LSTM block")
    if hidden < 1:
        raise FormatError("LSTM block declares no hidden units")
    if n_layers < 1:
        raise FormatError("LSTM block declares no layers; the model needs at least one layer")
    layers = []
    for li in range(n_layers):
        d_layer = d_in if li == 0 else hidden
        w = reader.f64_array((4 * hidden, hidden + d_layer))
        layers.append(LstmLayerWeights(w, reader.f64_array(4 * hidden)))
    w_out = reader.f64_array((n_out, hidden))
    b_out = reader.f64_array((n_out,))
    stats = [reader.f64_array((size,)) for size in (d_in, d_in, n_out, n_out)]
    reader.done()
    with stored("LSTM block"):
        model = LstmModel(layers, w_out, b_out, Normalizer(*stats[:2]), Normalizer(*stats[2:]),
                          layout)
        _require_finite(model)
    return model
