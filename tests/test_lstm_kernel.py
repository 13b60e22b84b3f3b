"""The LSTM kernels against a step-by-step reference.

The reference is the textbook form of the recurrence: per step, concatenate
[h_{n-1}, x_n], one full gate GEMM, the logistic through ``exp`` on each sign
(masked), and the weight gradient accumulated step by step. The kernels in
``mflstm`` hoist the input projection out of the loop, fuse the gate
activations into one tanh pass and form the weight gradients after the loop;
they must agree with the reference to rounding. They keep the gates
gate-major, (T, 4, B, H), and must equal bit for bit the same kernels with
the gates batch-major, (T, B, 4H), copied below as a second reference. The
kernels run the LSTM stack only; the readout is the head's
``_mlp_forward``, applied here to the stack's top hidden states.
"""

import warnings

import numpy as np
import pytest

from mfpod.mflstm import LstmLayerWeights, _forward_stacked, _mlp_forward, _sse_grads


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


def stack_then_readout(layers, readout, x, need_cache=False):
    """The stack's top hidden states through the readout, (T, B, n_out), and the cache."""
    hidden, cache = _forward_stacked(layers, x, need_cache=need_cache)
    y, _ = _mlp_forward([readout], hidden.reshape(-1, hidden.shape[2]))
    return y.reshape(*hidden.shape[:2], -1), cache


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
    y, cache = stack_then_readout(layers, readout, x)
    assert cache is None
    y_ref, _ = reference_forward(layers, readout, x)
    assert_rel_close(y, y_ref)
    y_cached, _ = stack_then_readout(layers, readout, x, need_cache=True)
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
        _, (_, caches) = _forward_stacked([layer], x.reshape(1, -1, 1), need_cache=True)
    # the cache is gate-major, (T, 4, B, H): gate k of the one step is gates[k, :, 0]
    gates = caches[0][0][0]
    xl = x.astype(np.longdouble)
    exact = np.where(xl >= 0, 1 / (1 + np.exp(-np.abs(xl))),
                     np.exp(-np.abs(xl)) / (1 + np.exp(-np.abs(xl))))
    for k in range(3):
        assert float(np.abs(gates[k, :, 0] - exact).max()) <= 2.3e-16
    assert np.array_equal(gates[3, :, 0], np.tanh(x))


def batch_major_forward(layers, readout, x_seq):
    """The kernels' forward pass with the gates batch-major, (T, B, 4H).

    Same operations in the same order as ``_forward_stacked``, every gate a
    strided (B, H) slice of a (B, 4H) row; it returns the outputs and the
    per-layer (gates, cell, tanh(cell), hidden) it would cache.
    """
    w_out, b_out = readout
    n_steps, n_batch, _ = x_seq.shape
    inputs = x_seq
    caches = []
    for layer in layers:
        h = layer.w.shape[0] // 4
        scale = np.repeat([0.5, 0.5, 0.5, 1.0], h)
        w = layer.w * scale[:, None]
        w_h = w[:, :h].T
        gates = (inputs.reshape(-1, inputs.shape[-1]) @ w[:, h:].T).reshape(n_steps, n_batch, -1)
        gates += layer.b * scale
        cell, tcell, hidden = np.empty((3, n_steps, n_batch, h))
        for t in range(n_steps):
            a = gates[t]
            if t > 0:
                a += hidden[t - 1] @ w_h
            np.tanh(a, out=a)
            sig = a[:, : 3 * h]
            sig *= 0.5
            sig += 0.5
            np.multiply(a[:, h : 2 * h], a[:, 3 * h :], out=cell[t])
            if t > 0:
                cell[t] += a[:, :h] * cell[t - 1]
            np.tanh(cell[t], out=tcell[t])
            np.multiply(a[:, 2 * h : 3 * h], tcell[t], out=hidden[t])
        caches.append((gates, cell, tcell, hidden))
        inputs = hidden
    y = (inputs.reshape(-1, inputs.shape[-1]) @ w_out.T).reshape(n_steps, n_batch, -1)
    y += b_out
    return y, caches


def batch_major_sse_grads(layers, readout, scale_sq, x, y):
    """``_sse_grads`` over the batch-major forward and a batch-major backward
    pass that writes every step's gate gradients into its (B, 4H) row."""
    w_out, _ = readout
    y_pred, caches = batch_major_forward(layers, readout, x)
    n_steps, n_batch, n_out = x.shape[0], x.shape[1], y.shape[2]
    rows = n_steps * n_batch
    resid = y_pred - y
    sse = float((resid**2 * scale_sq).sum())
    d_y = (2.0 / rows) * resid * scale_sq
    d_w_out = d_y.reshape(rows, n_out).T @ caches[-1][3].reshape(rows, -1)
    d_b_out = d_y.sum(axis=(0, 1))
    d_hidden = (d_y.reshape(rows, n_out) @ w_out).reshape(n_steps, n_batch, -1)
    layer_grads = [None] * len(layers)
    for li in range(len(layers) - 1, -1, -1):
        w = layers[li].w
        h = w.shape[0] // 4
        gates, cell, tcell, hidden = caches[li]
        inputs = x if li == 0 else caches[li - 1][3]
        w_h = w[:, :h]
        da = np.empty_like(gates)
        buf = np.empty((n_batch, 4 * h))
        tmp = np.empty((n_batch, h))
        dh = d_hidden[n_steps - 1]
        dc = np.zeros((n_batch, h))
        for t in range(n_steps - 1, -1, -1):
            g, a = gates[t], da[t]
            np.multiply(tcell[t], tcell[t], out=tmp)
            np.subtract(1.0, tmp, out=tmp)
            tmp *= g[:, 2 * h : 3 * h]
            tmp *= dh
            dc += tmp
            if t > 0:
                np.multiply(dc, cell[t - 1], out=a[:, :h])
            else:
                a[:, :h] = 0.0
            np.multiply(dc, g[:, 3 * h :], out=a[:, h : 2 * h])
            np.multiply(dh, tcell[t], out=a[:, 2 * h : 3 * h])
            np.multiply(dc, g[:, h : 2 * h], out=a[:, 3 * h :])
            np.subtract(1.0, g, out=buf)
            a *= buf
            a[:, : 3 * h] *= g[:, : 3 * h]
            np.add(1.0, g[:, 3 * h :], out=tmp)
            a[:, 3 * h :] *= tmp
            if t > 0:
                dc *= g[:, :h]
                dh = a @ w_h
                dh += d_hidden[t - 1]
        da_rows = da.reshape(rows, 4 * h)
        z = np.empty((n_steps, n_batch, w.shape[1]))
        z[0, :, :h] = 0.0
        z[1:, :, :h] = hidden[:-1]
        z[..., h:] = inputs
        layer_grads[li] = (da_rows.T @ z.reshape(rows, -1), da_rows.sum(axis=0))
        if li > 0:
            d_hidden = (da_rows @ w[:, h:]).reshape(n_steps, n_batch, -1)
    return sse, [arr for pair in layer_grads for arr in pair] + [d_w_out, d_b_out]


def assert_same_bits(actual, expected):
    assert actual.shape == expected.shape
    assert np.ascontiguousarray(actual).tobytes() == np.ascontiguousarray(expected).tobytes()


@pytest.mark.parametrize("n_batch", [1, 3, 15, 30])
@pytest.mark.parametrize("n_layers", [1, 2])
def test_gate_major_kernels_equal_batch_major_bitwise(n_layers, n_batch):
    # hidden 64 over t, mu and 9 modes, as the benchmark trains; each element
    # goes through the same operations in the same order in either layout
    layers, readout, rng = random_stack(n_layers, hidden=64, d_in=11, n_out=9,
                                        seed=100 * n_layers + n_batch)
    x = rng.standard_normal((40, n_batch, 11))
    y_ref, caches_ref = batch_major_forward(layers, readout, x)
    y, cache = stack_then_readout(layers, readout, x)
    assert cache is None
    assert_same_bits(y, y_ref)
    y_cached, (_, caches) = stack_then_readout(layers, readout, x, need_cache=True)
    assert_same_bits(y_cached, y_ref)
    for (gates, *states), (gates_ref, *states_ref) in zip(caches, caches_ref):
        assert_same_bits(gates.transpose(0, 2, 1, 3), gates_ref.reshape(40, n_batch, 4, 64))
        for state, ref in zip(states, states_ref):
            assert_same_bits(state, ref)

    y_target = rng.standard_normal((40, n_batch, 9))
    scale_sq = rng.uniform(0.5, 2.0, 9)
    sse, grads = _sse_grads(layers, readout, scale_sq, x, y_target)
    sse_ref, grads_ref = batch_major_sse_grads(layers, readout, scale_sq, x, y_target)
    assert sse == sse_ref
    assert len(grads) == len(grads_ref) == 2 * n_layers + 2
    for grad, ref in zip(grads, grads_ref):
        assert_same_bits(grad, ref)
