"""Multi-fidelity coefficient regression: LSTM stack and static baseline.

The recurrent model maps the sequence of inputs x_n = [t_n, mu, low-fidelity
coefficients at t_n] to the high-fidelity coefficients at t_n. One LSTM
layer updates its cell and hidden states as

    G_i   = sigmoid(W_i [h_{n-1}, x_n] + b_i)   for i in {f, u, o}
    ctil  = tanh(W_c [h_{n-1}, x_n] + b_c)
    c_n   = G_f * c_{n-1} + G_u * ctil
    h_n   = G_o * tanh(c_n)

with elementwise products throughout and zero initial states. Layers stack
by feeding h_n upward; an affine readout maps the top hidden state to the
output dimension. Inputs and outputs are z-scored per feature; the stats
live on the model so that serialized models are self-contained.

Training minimizes the mean squared 2-norm of the residual over all
(time, parameter) samples with Adam over backpropagation-through-time
gradients, computed on zero-initial-state subsequences of length
``k_window``. The last 10% of every trajectory is held out; the returned
weights are those with the best held-out loss. Everything is seeded and
single-threaded: identical data, config, and seed give bit-identical
weights.

The static baseline is a plain feed-forward network over [mu, low-fidelity
coefficients] (no time input, no recurrence) mapping columns independently;
with zero hidden layers it degenerates to linear regression.

Both models train through one loop, ``_fit``: seeded shuffles, mini-batch
Adam, the divergence check and best-held-out-weights tracking. Each model
supplies only its features, initial weights and a batch loss-and-gradient
closure. The LSTM's closure is ``_sse_grads``, which ``sequence_loss_grads``
runs too, so the finite-difference checks test the code training runs. The
LSTM persists as an MFLSTM01 block through ``codec``.
"""

from __future__ import annotations

import itertools
import struct
from dataclasses import dataclass, field, replace

import numpy as np

from .codec import Reader, dump_f64
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


@dataclass(frozen=True)
class Normalizer:
    """Per-feature z-score transform with strictly positive scales."""

    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mean", np.asarray(self.mean, dtype=np.float64))
        object.__setattr__(self, "std", np.asarray(self.std, dtype=np.float64))
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
    """Gate weights (hidden x (hidden + layer input)) and biases."""

    w_f: np.ndarray
    w_u: np.ndarray
    w_o: np.ndarray
    w_c: np.ndarray
    b_f: np.ndarray
    b_u: np.ndarray
    b_o: np.ndarray
    b_c: np.ndarray

    def stacked(self) -> tuple[np.ndarray, np.ndarray]:
        """(4H, H+D) weight and (4H,) bias stacks in gate order f, u, o, c."""
        return (
            np.vstack([self.w_f, self.w_u, self.w_o, self.w_c]),
            np.concatenate([self.b_f, self.b_u, self.b_o, self.b_c]),
        )

    @classmethod
    def from_stacked(cls, w_all: np.ndarray, b_all: np.ndarray) -> "LstmLayerWeights":
        h = w_all.shape[0] // 4
        return cls(
            w_f=w_all[:h].copy(), w_u=w_all[h : 2 * h].copy(),
            w_o=w_all[2 * h : 3 * h].copy(), w_c=w_all[3 * h :].copy(),
            b_f=b_all[:h].copy(), b_u=b_all[h : 2 * h].copy(),
            b_o=b_all[2 * h : 3 * h].copy(), b_c=b_all[3 * h :].copy(),
        )


@dataclass
class LstmModel:
    layers: list[LstmLayerWeights]
    w_out: np.ndarray
    b_out: np.ndarray
    input_norm: Normalizer
    output_norm: Normalizer
    layout: FeatureLayout
    history: list = field(default_factory=list, compare=False, repr=False)

    @property
    def hidden(self) -> int:
        return self.w_out.shape[1]

    @property
    def n_out(self) -> int:
        return self.w_out.shape[0]


@dataclass
class StaticModel:
    """Feed-forward per-column regressor; weights list alternates (W, b)."""

    weights: list[tuple[np.ndarray, np.ndarray]]
    input_norm: Normalizer
    output_norm: Normalizer
    layout: FeatureLayout
    history: list = field(default_factory=list, compare=False, repr=False)

    @property
    def n_out(self) -> int:
        return self.weights[-1][0].shape[0]


@dataclass(frozen=True)
class TrainConfig:
    hidden: int = 64
    n_layers: int = 1
    k_window: int = 40
    n_batch: int = 32
    epochs: int = 400
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        if self.hidden < 1 or self.k_window < 1 or self.n_batch < 1 or self.epochs < 1:
            raise ValidationError("hidden, k_window, n_batch, and epochs must be >= 1")
        if self.n_layers < 0:
            raise ValidationError("n_layers must be nonnegative")
        if not (self.learning_rate > 0):
            raise ValidationError(f"learning rate must be positive, got {self.learning_rate}")


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


# ---------------------------------------------------------------------------
# forward / backward on stacked parameters
# ---------------------------------------------------------------------------

def _forward_stacked(stacked, readout, x_seq, need_cache=False):
    """Run the LSTM stack over x_seq (T, B, D); returns outputs and caches."""
    w_out, b_out = readout
    n_steps, n_batch, _ = x_seq.shape
    inputs = x_seq
    caches = []
    for w_all, b_all in stacked:
        h4 = w_all.shape[0]
        h = h4 // 4
        z_cache = np.empty((n_steps, n_batch, w_all.shape[1]))
        gf = np.empty((n_steps, n_batch, h))
        gu = np.empty_like(gf)
        go = np.empty_like(gf)
        ctil = np.empty_like(gf)
        cell = np.empty_like(gf)
        tcell = np.empty_like(gf)
        hidden = np.empty_like(gf)
        h_prev = np.zeros((n_batch, h))
        c_prev = np.zeros((n_batch, h))
        for t in range(n_steps):
            z = np.concatenate([h_prev, inputs[t]], axis=1)
            a = z @ w_all.T + b_all
            gf[t] = _sigmoid(a[:, :h])
            gu[t] = _sigmoid(a[:, h : 2 * h])
            go[t] = _sigmoid(a[:, 2 * h : 3 * h])
            ctil[t] = np.tanh(a[:, 3 * h :])
            c_prev = gf[t] * c_prev + gu[t] * ctil[t]
            cell[t] = c_prev
            tcell[t] = np.tanh(c_prev)
            h_prev = go[t] * tcell[t]
            hidden[t] = h_prev
            z_cache[t] = z
        if need_cache:
            caches.append((z_cache, gf, gu, go, ctil, cell, tcell))
        inputs = hidden
    y = inputs @ w_out.T + b_out
    return (y, (caches, inputs)) if need_cache else (y, None)


def _backward_stacked(stacked, readout, cache, d_y):
    """BPTT gradients for the stacked parameters given dLoss/dOutputs."""
    w_out, _ = readout
    caches, h_top = cache
    d_w_out = np.einsum("tbo,tbh->oh", d_y, h_top)
    d_b_out = d_y.sum(axis=(0, 1))
    d_hidden = d_y @ w_out

    n_steps, n_batch, _ = d_y.shape
    layer_grads = [None] * len(stacked)
    for li in range(len(stacked) - 1, -1, -1):
        w_all, _ = stacked[li]
        h = w_all.shape[0] // 4
        d_in = w_all.shape[1] - h
        z_cache, gf, gu, go, ctil, cell, tcell = caches[li]
        d_w = np.zeros_like(w_all)
        d_b = np.zeros(4 * h)
        d_below = np.empty((n_steps, n_batch, d_in))
        dh_carry = np.zeros((n_batch, h))
        dc_carry = np.zeros((n_batch, h))
        for t in range(n_steps - 1, -1, -1):
            dh = d_hidden[t] + dh_carry
            d_go = dh * tcell[t]
            dc = dc_carry + dh * go[t] * (1.0 - tcell[t] ** 2)
            c_prev = cell[t - 1] if t > 0 else 0.0
            d_gf = dc * c_prev
            d_gu = dc * ctil[t]
            d_ctil = dc * gu[t]
            dc_carry = dc * gf[t]
            da = np.concatenate(
                [
                    d_gf * gf[t] * (1.0 - gf[t]),
                    d_gu * gu[t] * (1.0 - gu[t]),
                    d_go * go[t] * (1.0 - go[t]),
                    d_ctil * (1.0 - ctil[t] ** 2),
                ],
                axis=1,
            )
            d_w += da.T @ z_cache[t]
            d_b += da.sum(axis=0)
            dz = da @ w_all
            dh_carry = dz[:, :h]
            d_below[t] = dz[:, h:]
        layer_grads[li] = (d_w, d_b)
        d_hidden = d_below
    return layer_grads, d_w_out, d_b_out


def _model_stacked(model: LstmModel):
    return [layer.stacked() for layer in model.layers]


def lstm_forward(model: LstmModel, sequence: np.ndarray) -> np.ndarray:
    """Full forward pass over one already-normalized input sequence.

    ``sequence`` is (n_steps, n_features); initial states are zero. Returns
    the denormalized readout of the top hidden state at every step.
    """
    sequence = np.asarray(sequence, dtype=np.float64)
    if sequence.ndim != 2 or sequence.shape[1] != model.layout.n_features:
        raise ShapeError(
            f"sequence must be (n_steps, {model.layout.n_features}), got {sequence.shape}"
        )
    for layer in model.layers:
        w_all, _ = layer.stacked()
        if not np.all(np.isfinite(w_all)):
            raise ValidationError("model weights contain non-finite values")
    y, _ = _forward_stacked(
        _model_stacked(model), (model.w_out, model.b_out), sequence[:, None, :]
    )
    return model.output_norm.decode(y[:, 0, :])


def static_forward(model: StaticModel, x: np.ndarray) -> np.ndarray:
    """Feed-forward pass over already-normalized rows, denormalized output."""
    h = np.asarray(x, dtype=np.float64)
    if h.ndim != 2 or h.shape[1] != model.layout.n_features:
        raise ShapeError(
            f"input must be (n, {model.layout.n_features}), got {h.shape}"
        )
    for w, b in model.weights[:-1]:
        h = np.tanh(h @ w.T + b)
    w, b = model.weights[-1]
    return model.output_norm.decode(h @ w.T + b)


# ---------------------------------------------------------------------------
# feature assembly
# ---------------------------------------------------------------------------

def _feature_tensor(series: CoefficientSeries, with_time: bool) -> np.ndarray:
    """(n_mu, n_t, n_features) feature array in layout order."""
    n_mu, n_t = series.n_mu, series.n_t
    cols = []
    if with_time:
        cols.append(np.broadcast_to(series.times[None, :, None], (n_mu, n_t, 1)))
    cols.append(np.broadcast_to(series.params[:, None, :], (n_mu, n_t, series.params.shape[1])))
    coef = np.stack([series.trajectory(i).T for i in range(n_mu)], axis=0)
    cols.append(coef)
    return np.concatenate(cols, axis=2)


def _target_tensor(series: CoefficientSeries) -> np.ndarray:
    return np.stack([series.trajectory(i).T for i in range(series.n_mu)], axis=0)


def _samples(lf: CoefficientSeries, hf: CoefficientSeries, with_time: bool):
    """Layout, feature and target tensors, held-out step count, normalizers.

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
    n_val = max(1, int(round(_VAL_FRACTION * n_t))) if n_t > 1 else 0
    in_norm = Normalizer.fit(features[:, : n_t - n_val].reshape(-1, layout.n_features))
    out_norm = Normalizer.fit(targets[:, : n_t - n_val].reshape(-1, targets.shape[2]))
    return layout, features, targets, n_val, in_norm, out_norm


def _window_starts(n_train_t: int, k: int) -> list[int]:
    starts = list(range(0, n_train_t - k + 1, k))
    tail = n_train_t - k
    if tail not in starts:
        starts.append(tail)
    return starts


def _init_lstm_params(cfg: TrainConfig, d_in: int, n_out: int, rng) -> tuple[list, tuple]:
    stacked = []
    for li in range(cfg.n_layers):
        d_layer = d_in if li == 0 else cfg.hidden
        limit = 1.0 / np.sqrt(cfg.hidden + d_layer)
        w_all = rng.uniform(-limit, limit, size=(4 * cfg.hidden, cfg.hidden + d_layer))
        b_all = np.zeros(4 * cfg.hidden)
        b_all[: cfg.hidden] = 1.0  # forget-gate bias; aids gradient flow early on
        stacked.append((w_all, b_all))
    limit = 1.0 / np.sqrt(cfg.hidden)
    w_out = rng.uniform(-limit, limit, size=(n_out, cfg.hidden))
    b_out = np.zeros(n_out)
    return stacked, (w_out, b_out)


def _fit(cfg: TrainConfig, rng, params: list[np.ndarray], n_items: int, batch_size: int,
         batch_sse_grads, n_terms: int, val_loss, val_every: int):
    """Adam on ``params`` (in place) over shuffled batches of ``n_items`` items.

    ``batch_sse_grads(idx)`` returns a batch's summed squared error and its
    gradients; an epoch's training loss is the summed error over ``n_terms``.
    ``val_loss`` (None when nothing is held out) runs every ``val_every``
    epochs and after the last. Returns the parameters with the best held-out
    loss, or the final ones if none was finite, and the (epoch, train, val)
    history.
    """
    moments = [(np.zeros_like(p), np.zeros_like(p)) for p in params]
    n_steps = 0
    best_val = np.inf
    best = [p.copy() for p in params]
    history: list[tuple[int, float, float]] = []
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(cfg.epochs):
            order = rng.permutation(n_items)
            sse = 0.0
            for lo in range(0, n_items, batch_size):
                batch_sse, grads = batch_sse_grads(order[lo : lo + batch_size])
                sse += batch_sse
                n_steps += 1
                bias1 = 1.0 - cfg.beta1**n_steps
                bias2 = 1.0 - cfg.beta2**n_steps
                for p, g, (m, v) in zip(params, grads, moments):
                    m *= cfg.beta1
                    m += (1.0 - cfg.beta1) * g
                    v *= cfg.beta2
                    v += (1.0 - cfg.beta2) * g * g
                    p -= cfg.learning_rate * (m / bias1) / (np.sqrt(v / bias2) + cfg.adam_eps)
            train_loss = sse / n_terms
            if not np.isfinite(train_loss):
                raise TrainingError(f"training diverged (non-finite loss) at epoch {epoch}")
            val = float("nan")
            if val_loss is not None and (epoch % val_every == 0 or epoch == cfg.epochs - 1):
                val = val_loss()
                if val < best_val:
                    best_val = val
                    best = [p.copy() for p in params]
            history.append((epoch, train_loss, val))
    if not np.isfinite(best_val):
        best = [p.copy() for p in params]
    return best, history


def _sse_grads(stacked, readout, scale_sq, x, y) -> tuple[float, list[np.ndarray]]:
    """Summed squared error in physical units over normalized (T, B, .) x and y.

    The gradients are of the mean over T * B, in the order of ``stacked``
    then the readout.
    """
    y_pred, cache = _forward_stacked(stacked, readout, x, need_cache=True)
    n_steps, n_batch, _ = x.shape
    resid = y_pred - y
    sse = float((resid**2 * scale_sq).sum())
    d_y = (2.0 / (n_steps * n_batch)) * resid * scale_sq
    layer_grads, d_w_out, d_b_out = _backward_stacked(stacked, readout, cache, d_y)
    return sse, [arr for pair in layer_grads for arr in pair] + [d_w_out, d_b_out]


def train(
    lf: CoefficientSeries,
    hf: CoefficientSeries,
    cfg: TrainConfig,
    val_every: int = 1,
) -> LstmModel:
    """Fit the LSTM map from low- to high-fidelity coefficient sequences.

    The two series must be aligned column by column (same times, same
    parameters). Returns the weights with the best held-out loss; the
    per-epoch (train, validation) normalized losses are on
    ``model.history``.
    """
    if cfg.n_layers < 1:
        raise ValidationError("the recurrent model needs at least one layer")
    layout, features, targets, n_val, in_norm, out_norm = _samples(lf, hf, with_time=True)
    n_mu, n_t, _ = features.shape
    n_train_t = n_t - n_val
    if cfg.k_window > n_train_t:
        raise TrainingError(
            f"subsequence length {cfg.k_window} exceeds the {n_train_t} training "
            f"steps left after holding out validation"
        )

    x_all = in_norm.encode(features)
    y_all = out_norm.encode(targets)

    starts = _window_starts(n_train_t, cfg.k_window)
    windows = [(i, s) for i in range(n_mu) for s in starts]
    x_win = np.stack([x_all[i, s : s + cfg.k_window] for i, s in windows])
    y_win = np.stack([y_all[i, s : s + cfg.k_window] for i, s in windows])

    rng = np.random.default_rng(cfg.seed)
    stacked, readout = _init_lstm_params(cfg, layout.n_features, targets.shape[2], rng)
    flat = [arr for pair in stacked for arr in pair] + list(readout)

    x_full = x_all.transpose(1, 0, 2)
    y_full = y_all.transpose(1, 0, 2)
    # the objective lives in raw coefficient units: undoing the output
    # z-score inside the loss weights every mode by its physical scale
    scale_sq = out_norm.std**2

    def batch_sse_grads(idx):
        return _sse_grads(stacked, readout, scale_sq,
                          x_win[idx].transpose(1, 0, 2), y_win[idx].transpose(1, 0, 2))

    def validation_loss() -> float:
        y_pred, _ = _forward_stacked(stacked, readout, x_full)
        resid = y_pred[n_train_t:] - y_full[n_train_t:]
        return float((resid**2 * scale_sq).sum() / (n_val * n_mu))

    best, history = _fit(cfg, rng, flat, len(windows), cfg.n_batch, batch_sse_grads,
                         cfg.k_window * len(windows), validation_loss if n_val else None,
                         val_every)
    layers = [LstmLayerWeights.from_stacked(best[2 * li], best[2 * li + 1])
              for li in range(cfg.n_layers)]
    return LstmModel(
        layers=layers,
        w_out=best[-2],
        b_out=best[-1],
        input_norm=in_norm,
        output_norm=out_norm,
        layout=layout,
        history=history,
    )


def train_static_baseline(
    lf: CoefficientSeries,
    hf: CoefficientSeries,
    cfg: TrainConfig,
    val_every: int = 1,
) -> StaticModel:
    """Fit the time-agnostic feed-forward baseline on independent columns."""
    layout, features, targets, n_val, in_norm, out_norm = _samples(lf, hf, with_time=False)
    n_train_t = features.shape[1] - n_val
    xn = in_norm.encode(features[:, :n_train_t].reshape(-1, layout.n_features))
    yn = out_norm.encode(targets[:, :n_train_t].reshape(-1, targets.shape[2]))
    x_val = in_norm.encode(features[:, n_train_t:].reshape(-1, layout.n_features))
    y_val = out_norm.encode(targets[:, n_train_t:].reshape(-1, targets.shape[2]))

    rng = np.random.default_rng(cfg.seed)
    dims = [layout.n_features] + [cfg.hidden] * cfg.n_layers + [targets.shape[2]]
    weights = []
    for d_in, d_out in zip(dims[:-1], dims[1:]):
        limit = 1.0 / np.sqrt(d_in)
        weights.append((rng.uniform(-limit, limit, size=(d_out, d_in)), np.zeros(d_out)))
    flat = [arr for pair in weights for arr in pair]
    scale_sq = out_norm.std**2

    def forward_cached(x):
        acts = [x]
        h = x
        for w, b in weights[:-1]:
            h = np.tanh(h @ w.T + b)
            acts.append(h)
        w, b = weights[-1]
        return h @ w.T + b, acts

    def batch_sse_grads(idx):
        pred, acts = forward_cached(xn[idx])
        resid = pred - yn[idx]
        sse = float((resid**2 * scale_sq).sum())
        delta = (2.0 / idx.size) * resid * scale_sq
        grads_rev = []
        for wi in range(len(weights) - 1, -1, -1):
            w, _ = weights[wi]
            grads_rev.append((delta.T @ acts[wi], delta.sum(axis=0)))
            if wi > 0:
                delta = (delta @ w) * (1.0 - acts[wi] ** 2)
        return sse, [arr for pair in reversed(grads_rev) for arr in pair]

    def validation_loss() -> float:
        pred, _ = forward_cached(x_val)
        return float(((pred - y_val) ** 2 * scale_sq).sum() / x_val.shape[0])

    best, history = _fit(cfg, rng, flat, xn.shape[0], cfg.n_batch * cfg.k_window,
                         batch_sse_grads, xn.shape[0], validation_loss if n_val else None,
                         val_every)
    return StaticModel(
        weights=[(best[2 * i], best[2 * i + 1]) for i in range(len(weights))],
        input_norm=in_norm,
        output_norm=out_norm,
        layout=layout,
        history=history,
    )


def predict(
    model: LstmModel | StaticModel, series: CoefficientSeries
) -> CoefficientSeries:
    """Map a low-fidelity coefficient series to the high-fidelity estimate.

    Each parameter trajectory is processed as one full sequence from zero
    initial states (recurrent model) or column by column (static baseline).
    Times may extend past the training horizon.
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
    features = _feature_tensor(series, with_time=model.layout.with_time)
    xn = model.input_norm.encode(features)
    if isinstance(model, LstmModel):
        y, _ = _forward_stacked(
            _model_stacked(model),
            (model.w_out, model.b_out),
            xn.transpose(1, 0, 2),
        )
        out = model.output_norm.decode(y)  # (n_t, n_mu, n_out)
        coeffs = np.concatenate([out[:, i, :].T for i in range(series.n_mu)], axis=1)
    else:
        flat_rows = xn.reshape(-1, model.layout.n_features)
        pred = static_forward(model, flat_rows).reshape(series.n_mu, series.n_t, -1)
        coeffs = np.concatenate([pred[i].T for i in range(series.n_mu)], axis=1)
    return CoefficientSeries(coeffs=coeffs, times=series.times, params=series.params)


# ---------------------------------------------------------------------------
# loss/gradient entry points used by the finite-difference checks
# ---------------------------------------------------------------------------

def trainable_parameters(model: LstmModel) -> list[tuple[str, np.ndarray]]:
    """Named references to every trainable array (mutating them is allowed)."""
    out = []
    for li, layer in enumerate(model.layers):
        for gate in ("f", "u", "o", "c"):
            out.append((f"layer{li}.w_{gate}", getattr(layer, f"w_{gate}")))
            out.append((f"layer{li}.b_{gate}", getattr(layer, f"b_{gate}")))
    out.append(("w_out", model.w_out))
    out.append(("b_out", model.b_out))
    return out


def sequence_loss(model: LstmModel, x: np.ndarray, y: np.ndarray) -> float:
    """Mean squared 2-norm of the residual in physical coefficient units.

    ``x`` and ``y`` are normalized; the residual is scaled back by the
    output stddev so the objective matches the raw-coefficient error the
    surrogate is judged by.
    """
    y_pred, _ = _forward_stacked(_model_stacked(model), (model.w_out, model.b_out), x)
    n_steps, n_batch, _ = x.shape
    resid = (y_pred - y) * model.output_norm.std
    return float((resid**2).sum() / (n_steps * n_batch))


def sequence_loss_grads(
    model: LstmModel, x: np.ndarray, y: np.ndarray
) -> tuple[float, dict[str, np.ndarray]]:
    """Loss plus analytic gradients keyed like ``trainable_parameters``.

    Runs the same loss-and-gradient code as every training step of ``train``.
    """
    n_steps, n_batch, _ = x.shape
    sse, flat = _sse_grads(_model_stacked(model), (model.w_out, model.b_out),
                           model.output_norm.std**2, x, y)
    h = model.hidden
    grads: dict[str, np.ndarray] = {}
    for li in range(len(model.layers)):
        d_w, d_b = flat[2 * li], flat[2 * li + 1]
        for gi, gate in enumerate(("f", "u", "o", "c")):
            grads[f"layer{li}.w_{gate}"] = d_w[gi * h : (gi + 1) * h]
            grads[f"layer{li}.b_{gate}"] = d_b[gi * h : (gi + 1) * h]
    grads["w_out"] = flat[-2]
    grads["b_out"] = flat[-1]
    return sse / (n_steps * n_batch), grads


# ---------------------------------------------------------------------------
# hyperparameter search
# ---------------------------------------------------------------------------

def hyperparameter_search(
    space: dict[str, list],
    budget: int,
    lf: CoefficientSeries,
    hf: CoefficientSeries,
    base_cfg: TrainConfig | None = None,
    mode: str = "random",
    seed: int = 0,
    val_every: int = 1,
) -> tuple[TrainConfig, list[dict]]:
    """Train ``budget`` sampled configs, return the best by held-out loss.

    ``space`` maps TrainConfig field names to candidate value lists;
    ``mode="grid"`` enumerates the product (capped at budget),
    ``mode="random"`` draws seeded uniform samples. Diverging trials are
    recorded with infinite loss rather than aborting the search.
    """
    if not space:
        raise ValidationError("hyperparameter space must not be empty")
    if budget < 1:
        raise ValidationError(f"budget must be >= 1, got {budget}")
    base = base_cfg if base_cfg is not None else TrainConfig()
    keys = sorted(space)
    for key in keys:
        if not hasattr(base, key):
            raise ValidationError(f"unknown hyperparameter {key!r}")
        if not space[key]:
            raise ValidationError(f"empty candidate list for {key!r}")

    if mode == "grid":
        combos = list(itertools.product(*(space[k] for k in keys)))[:budget]
    elif mode == "random":
        rng = np.random.default_rng(seed)
        combos = [
            tuple(space[k][rng.integers(len(space[k]))] for k in keys)
            for _ in range(budget)
        ]
    else:
        raise ValidationError(f"mode must be 'grid' or 'random', got {mode!r}")

    trials = []
    best_idx = -1
    best_loss = np.inf
    for ti, combo in enumerate(combos):
        overrides = dict(zip(keys, combo))
        cfg = replace(base, **overrides)
        record = {"trial": ti, **overrides}
        try:
            model = train(lf, hf, cfg, val_every=val_every)
            vals = [v for _, _, v in model.history if np.isfinite(v)]
            loss = min(vals) if vals else float("inf")
            record["val_loss"] = loss
            record["status"] = "ok"
        except TrainingError as exc:
            loss = float("inf")
            record["val_loss"] = loss
            record["status"] = f"diverged: {exc}"
        trials.append(record)
        if loss < best_loss:
            best_loss = loss
            best_idx = ti
    if best_idx < 0:
        best_idx = 0
    best_cfg = replace(base, **dict(zip(keys, combos[best_idx])))
    return best_cfg, trials


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def lstm_to_bytes(model: LstmModel) -> bytes:
    parts = [LSTM_MAGIC]
    d_in = model.layout.n_features
    parts.append(
        struct.pack(
            "<6I",
            len(model.layers),
            model.hidden,
            model.n_out,
            d_in,
            model.layout.n_params,
            model.layout.n_coef,
        )
    )
    parts.append(struct.pack("<I", int(model.layout.with_time)))
    for layer in model.layers:
        for name in ("w_f", "w_u", "w_o", "w_c", "b_f", "b_u", "b_o", "b_c"):
            parts.append(dump_f64(getattr(layer, name)))
    parts.append(dump_f64(model.w_out))
    parts.append(dump_f64(model.b_out))
    parts.append(dump_f64(model.input_norm.mean))
    parts.append(dump_f64(model.input_norm.std))
    parts.append(dump_f64(model.output_norm.mean))
    parts.append(dump_f64(model.output_norm.std))
    return b"".join(parts)


def lstm_from_bytes(buf) -> LstmModel:
    reader = Reader(buf, "LSTM model")
    if reader.take(8) != LSTM_MAGIC:
        raise FormatError("bad LSTM block magic")
    n_layers, hidden, n_out, d_in, n_params, n_coef = reader.u32(6)
    with_time = bool(reader.u32())
    layout = FeatureLayout(with_time=with_time, n_params=n_params, n_coef=n_coef)
    if layout.n_features != d_in:
        raise FormatError("inconsistent feature layout in LSTM block")
    if hidden < 1:
        raise FormatError("LSTM block declares no hidden units")
    layers = []
    for li in range(n_layers):
        d_layer = d_in if li == 0 else hidden
        ws = [reader.f64_array((hidden, hidden + d_layer)) for _ in range(4)]
        bs = [reader.f64_array((hidden,)) for _ in range(4)]
        layers.append(LstmLayerWeights(*ws, *bs))
    w_out = reader.f64_array((n_out, hidden))
    b_out = reader.f64_array((n_out,))
    in_norm = Normalizer(reader.f64_array((d_in,)), reader.f64_array((d_in,)))
    out_norm = Normalizer(reader.f64_array((n_out,)), reader.f64_array((n_out,)))
    reader.done()
    return LstmModel(
        layers=layers,
        w_out=w_out,
        b_out=b_out,
        input_norm=in_norm,
        output_norm=out_norm,
        layout=layout,
    )
