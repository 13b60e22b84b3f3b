"""The LSTM kernels against a step-by-step reference.

The reference is the textbook form of the recurrence: per step, concatenate
[h_{n-1}, x_n], one full gate GEMM, the logistic through ``exp`` on each sign
(masked), and the weight gradient accumulated step by step. The kernels in
``mflstm`` hoist the input projection out of the loop, fuse the gate
activations into one tanh pass and form the weight gradients after the loop;
they must agree with the reference to rounding.
"""

import warnings

import numpy as np
import pytest

from mfpod.mflstm import LstmLayerWeights, _forward_stacked, _sse_grads


def logistic(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def reference_forward(layers, readout, x_seq):
    w_out, b_out = readout
    n_steps, n_batch, _ = x_seq.shape
    inputs = x_seq
    caches = []
    for layer in layers:
        h = layer.w.shape[0] // 4
        z_cache = np.empty((n_steps, n_batch, layer.w.shape[1]))
        gf, gu, go, ctil, cell, tcell, hidden = np.empty((7, n_steps, n_batch, h))
        h_prev = np.zeros((n_batch, h))
        c_prev = np.zeros((n_batch, h))
        for t in range(n_steps):
            z = np.concatenate([h_prev, inputs[t]], axis=1)
            a = z @ layer.w.T + layer.b
            gf[t] = logistic(a[:, :h])
            gu[t] = logistic(a[:, h : 2 * h])
            go[t] = logistic(a[:, 2 * h : 3 * h])
            ctil[t] = np.tanh(a[:, 3 * h :])
            c_prev = gf[t] * c_prev + gu[t] * ctil[t]
            cell[t] = c_prev
            tcell[t] = np.tanh(c_prev)
            h_prev = go[t] * tcell[t]
            hidden[t] = h_prev
            z_cache[t] = z
        caches.append((z_cache, gf, gu, go, ctil, cell, tcell))
        inputs = hidden
    return inputs @ w_out.T + b_out, (caches, inputs)


def reference_sse_grads(layers, readout, scale_sq, x, y):
    w_out, _ = readout
    y_pred, (caches, h_top) = reference_forward(layers, readout, x)
    n_steps, n_batch, _ = x.shape
    resid = y_pred - y
    sse = float((resid**2 * scale_sq).sum())
    d_y = (2.0 / (n_steps * n_batch)) * resid * scale_sq
    d_w_out = np.einsum("tbo,tbh->oh", d_y, h_top)
    d_b_out = d_y.sum(axis=(0, 1))
    d_hidden = d_y @ w_out
    layer_grads = [None] * len(layers)
    for li in range(len(layers) - 1, -1, -1):
        w = layers[li].w
        h = w.shape[0] // 4
        z_cache, gf, gu, go, ctil, cell, tcell = caches[li]
        d_w = np.zeros_like(w)
        d_b = np.zeros(4 * h)
        d_below = np.empty((n_steps, n_batch, w.shape[1] - h))
        dh_carry = np.zeros((n_batch, h))
        dc_carry = np.zeros((n_batch, h))
        for t in range(n_steps - 1, -1, -1):
            dh = d_hidden[t] + dh_carry
            d_go = dh * tcell[t]
            dc = dc_carry + dh * go[t] * (1.0 - tcell[t] ** 2)
            c_prev = cell[t - 1] if t > 0 else 0.0
            dc_carry = dc * gf[t]
            da = np.concatenate(
                [
                    dc * c_prev * gf[t] * (1.0 - gf[t]),
                    dc * ctil[t] * gu[t] * (1.0 - gu[t]),
                    d_go * go[t] * (1.0 - go[t]),
                    dc * gu[t] * (1.0 - ctil[t] ** 2),
                ],
                axis=1,
            )
            d_w += da.T @ z_cache[t]
            d_b += da.sum(axis=0)
            dz = da @ w
            dh_carry = dz[:, :h]
            d_below[t] = dz[:, h:]
        layer_grads[li] = (d_w, d_b)
        d_hidden = d_below
    return sse, [arr for pair in layer_grads for arr in pair] + [d_w_out, d_b_out]


def random_stack(n_layers, hidden, d_in, n_out, seed):
    rng = np.random.default_rng(seed)
    layers = []
    for li in range(n_layers):
        d_layer = d_in if li == 0 else hidden
        layers.append(LstmLayerWeights(rng.uniform(-0.8, 0.8, (4 * hidden, hidden + d_layer)),
                                       rng.uniform(-0.5, 0.5, 4 * hidden)))
    readout = (rng.uniform(-0.8, 0.8, (n_out, hidden)), rng.uniform(-0.5, 0.5, n_out))
    return layers, readout, rng


def assert_rel_close(actual, expected, rel=1e-12):
    assert actual.shape == expected.shape
    assert np.abs(actual - expected).max() <= rel * np.abs(expected).max()


@pytest.mark.parametrize("n_layers", [1, 2])
def test_forward_matches_reference(n_layers):
    layers, readout, rng = random_stack(n_layers, hidden=5, d_in=4, n_out=3, seed=n_layers)
    x = rng.standard_normal((9, 3, 4))
    y, cache = _forward_stacked(layers, readout, x)
    assert cache is None
    y_ref, _ = reference_forward(layers, readout, x)
    assert_rel_close(y, y_ref)
    y_cached, _ = _forward_stacked(layers, readout, x, need_cache=True)
    assert np.array_equal(y_cached, y)


@pytest.mark.parametrize("n_layers", [1, 2])
def test_sse_grads_match_reference(n_layers):
    layers, readout, rng = random_stack(n_layers, hidden=5, d_in=4, n_out=3, seed=10 + n_layers)
    # a transposed window batch, as training passes it
    x = rng.standard_normal((3, 9, 4)).transpose(1, 0, 2)
    y = rng.standard_normal((9, 3, 3))
    scale_sq = rng.uniform(0.5, 2.0, 3)
    sse, grads = _sse_grads(layers, readout, scale_sq, x, y)
    sse_ref, grads_ref = reference_sse_grads(layers, readout, scale_sq, x, y)
    assert sse == pytest.approx(sse_ref, rel=1e-12)
    assert len(grads) == len(grads_ref) == 2 * n_layers + 2
    for grad, ref in zip(grads, grads_ref):
        assert_rel_close(grad, ref)


def test_gate_sigmoid_matches_logistic_without_overflow():
    x = np.concatenate([np.linspace(-800.0, 800.0, 16001),
                        np.random.default_rng(0).uniform(-40.0, 40.0, 20000)])
    # one unit whose four gates all see x_n: w = [0 | 1] per gate row
    layer = LstmLayerWeights(np.tile([0.0, 1.0], (4, 1)), np.zeros(4))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, (_, caches) = _forward_stacked([layer], (np.ones((1, 1)), np.zeros(1)),
                                          x.reshape(1, -1, 1), need_cache=True)
    gates = caches[0][0][0]
    xl = x.astype(np.longdouble)
    exact = np.where(xl >= 0, 1 / (1 + np.exp(-np.abs(xl))),
                     np.exp(-np.abs(xl)) / (1 + np.exp(-np.abs(xl))))
    for k in range(3):
        assert float(np.abs(gates[:, k] - exact).max()) <= 2.3e-16
    assert np.array_equal(gates[:, 3], np.tanh(x))
