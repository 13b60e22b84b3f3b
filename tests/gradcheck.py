"""Central finite-difference gradient verification shared by test modules.

The analytic gradients come from ``mflstm._sse_grads``, the loss-and-gradient
code every training step runs; the difference quotients come from the
forward pass alone. Arrays and gradients pair by position: ``w`` and ``b``
of every layer, then ``w_out`` and ``b_out``.
"""

import numpy as np

from mfpod.mflstm import _forward_stacked, _sse_grads


def sequence_loss(model, x, y):
    """Mean squared 2-norm of the residual in physical coefficient units.

    ``x`` and ``y`` are normalized (T, B, .) arrays; the residual is scaled
    back by the output stddev, as in training.
    """
    y_pred, _ = _forward_stacked(model.layers, (model.w_out, model.b_out), x)
    resid = (y_pred - y) * model.output_norm.std
    return float((resid**2).sum() / (x.shape[0] * x.shape[1]))


def finite_difference_worst_error(model, x, y, step=1e-6):
    """Largest relative gradient deviation over all trainable arrays.

    Perturbs every trainable scalar in place (restoring it afterwards) and
    compares the analytic backpropagation gradient against the symmetric
    difference quotient of the loss. Each gate block of a layer's ``w`` and
    ``b`` (rows f, u, o, c) and each readout array is scored as
    ``max|analytic - fd| / max(scale)`` with the scale taken over that
    block's gradient, so a wrong derivative anywhere shows up at O(1) while
    float64 quotient noise (about eps * loss / step on components whose
    true gradient is tiny) stays orders of magnitude below the tolerance.
    """
    readout = (model.w_out, model.b_out)
    _, grads = _sse_grads(model.layers, readout, model.output_norm.std**2, x, y)
    params = [(arr, 4) for layer in model.layers for arr in (layer.w, layer.b)]
    params += [(arr, 1) for arr in readout]
    worst = 0.0
    for (arr, n_blocks), grad in zip(params, grads, strict=True):
        analytic = grad.reshape(-1)
        flat = arr.reshape(-1)
        fd = np.empty_like(analytic)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            plus = sequence_loss(model, x, y)
            flat[i] = orig - step
            minus = sequence_loss(model, x, y)
            flat[i] = orig
            fd[i] = (plus - minus) / (2.0 * step)
        for a, f in zip(analytic.reshape(n_blocks, -1), fd.reshape(n_blocks, -1)):
            scale = max(np.abs(a).max(), np.abs(f).max(), 1e-10)
            worst = max(worst, float(np.abs(a - f).max() / scale))
    return worst
