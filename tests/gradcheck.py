"""Central finite-difference gradient verification shared by test modules.

The analytic gradients come from ``mflstm._sse_grads`` and
``mflstm._mlp_sse_grads``, the loss-and-gradient code every training step
runs; the difference quotients come from the forward pass alone. Arrays and
gradients pair by position: ``w`` and ``b`` of every layer, then (LSTM only)
``w_out`` and ``b_out``.
"""

import numpy as np

from mfpod.mflstm import _forward_stacked, _mlp_forward, _mlp_sse_grads, _sse_grads


def sequence_loss(model, x, y):
    """Mean squared 2-norm of the residual in physical coefficient units.

    ``x`` and ``y`` are normalized (T, B, .) arrays; the LSTM stack runs over
    them, then the head over its top hidden states, and the residual is
    scaled back by the output stddev, as in training.
    """
    hidden, _ = _forward_stacked(model.layers, x)
    y_pred, _ = _mlp_forward(model.head, hidden.reshape(-1, hidden.shape[2]))
    resid = (y_pred - y.reshape(y_pred.shape)) * model.output_norm.std
    return float((resid**2).sum() / (x.shape[0] * x.shape[1]))


def worst_block_error(params, grads, loss, step):
    """Largest relative deviation of ``grads`` from difference quotients of ``loss``.

    ``params`` pairs every trainable array with its number of row blocks.
    Every scalar is perturbed in place (and restored afterwards), and each
    block is scored as ``max|analytic - fd| / max(scale)`` with the scale
    taken over that block's gradient, so a wrong derivative anywhere shows up
    at O(1) while float64 quotient noise (about eps * loss / step on
    components whose true gradient is tiny) stays orders of magnitude below
    the tolerance.
    """
    worst = 0.0
    for (arr, n_blocks), grad in zip(params, grads, strict=True):
        analytic = grad.reshape(-1)
        flat = arr.reshape(-1)
        fd = np.empty_like(analytic)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            plus = loss()
            flat[i] = orig - step
            minus = loss()
            flat[i] = orig
            fd[i] = (plus - minus) / (2.0 * step)
        for a, f in zip(analytic.reshape(n_blocks, -1), fd.reshape(n_blocks, -1)):
            scale = max(np.abs(a).max(), np.abs(f).max(), 1e-10)
            worst = max(worst, float(np.abs(a - f).max() / scale))
    return worst


def finite_difference_worst_error(model, x, y, step=1e-6):
    """Largest relative gradient deviation over the LSTM's trainable arrays.

    Each gate block of a layer's ``w`` and ``b`` (rows f, u, o, c) and each
    readout array is scored on its own.
    """
    readout = (model.w_out, model.b_out)
    _, grads = _sse_grads(model.layers, readout, model.output_norm.std**2, x, y)
    params = [(arr, 4) for layer in model.layers for arr in (layer.w, layer.b)]
    params += [(arr, 1) for arr in readout]
    return worst_block_error(params, grads, lambda: sequence_loss(model, x, y), step)


def mlp_finite_difference_worst_error(weights, scale_sq, x, y, step=1e-6):
    """Largest relative gradient deviation over the static baseline's (W, b) pairs.

    ``x`` and ``y`` are normalized (N, .) arrays; the loss is the mean over N
    of the squared residual weighted by ``scale_sq``, as in training.
    """
    _, grads, _ = _mlp_sse_grads(weights, scale_sq, x, y)

    def loss():
        pred, _ = _mlp_forward(weights, x)
        return float(((pred - y) ** 2 * scale_sq).sum() / x.shape[0])

    return worst_block_error([(arr, 1) for pair in weights for arr in pair], grads, loss, step)
