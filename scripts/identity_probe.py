#!/usr/bin/env python3
"""Print the SHA-256 of every artifact a small end-to-end run produces.

Covers both problems (rd and sw, 16^2 high fidelity against 8^2 low
fidelity), both lift modes and both basis kinds (raw and centred). For each
combination it hashes the trained MFSURR file, the training history, the
evaluate CSV and summary, an online prediction, the live and the reloaded
stencil, the re-saved model, the static baseline's predictions and a seeded
hyperparameter search; each problem adds its three MFSNAP files. Last come
two ``reconstruct`` products on seeded coefficients at benchmark sizes
(8192 rows x 9 modes x 801 columns and 4096 x 17 x 401), then the basis
build's blocked Gram product and its panel product X @ V with 9 columns, on
seeded 8192 x 603 and 8192 x 1203 snapshot matrices, and two low-fidelity
trajectories on the 32^2 grid the online path solves on (sw at mu 2.3,
dt 0.1, T 20; rd at three mu, dt 0.05, d 0.1, T 20). Then the LSTM kernels
of a seeded hidden-64 layer at the benchmark's shapes: the loss and
gradients of ``_sse_grads`` on training batches of 30 and 15 windows of 40
steps, and the forward pass without cache on 3 and 1 sequences of 401
steps, the held-out and ``predict`` shapes; and the blocked Gram product at
1024 x 250 and 2048 x 500. The 16^2 runs never reach these kernels at such
sizes. The gradient lines leave out the gate weight gradient: its one GEMM,
(4H x TB) @ (TB x (H + D)), gives different bits under one and two OpenBLAS
threads at these shapes, while the gate bias gradient sums every gate
gradient of the backward pass without BLAS. One line per artifact,
``sha256  name``, in a fixed order.

A refactor meant to leave every output unchanged is checked by running the
probe against two source trees and diffing the lines, e.g. from the root of
the repository with the other tree checked out in ../parent:

    export OPENBLAS_NUM_THREADS=1
    diff <(PYTHONPATH=../parent/src python scripts/identity_probe.py) \\
         <(PYTHONPATH=src python scripts/identity_probe.py)

Only API that has been stable across those refactors is used, so the probe
runs against older trees too; a tree without the blocked Gram kernels
(``pod._gram``) prints no Gram or panel lines, and one without the stacked
LSTM kernels (``mflstm._sse_grads``) no LSTM lines. The trajectory lines use
only ``generate_dataset``, so every tree prints them.
"""

import hashlib
import tempfile
from pathlib import Path

import numpy as np

from mfpod import mflstm, pipeline, pod
from mfpod.mflstm import TrainConfig, hyperparameter_search, predict, train_static_baseline
from mfpod.numerics import Grid2D
from mfpod.pod import CoefficientSeries, PodBasis, PodRule, reconstruct
from mfpod.snapshots import ParameterGrid, write_snapshots
from mfpod.solvers import FidelityProfile, generate_dataset

# problem -> (HF profile, LF profile, training parameter range)
PROBLEMS = {
    "rd": (FidelityProfile("HF", 16, 0.05, 0.05), FidelityProfile("LF", 8, 0.1, 0.1), (0.5, 1.5)),
    "sw": (FidelityProfile("HF", 16, 0.1), FidelityProfile("LF", 8, 0.2), (1.0, 5.0)),
}
T_TRAIN, T_FINAL = 2.0, 3.0
CFG = TrainConfig(hidden=8, k_window=8, n_batch=8, epochs=15, learning_rate=3e-3, seed=2)
SPACE = {"hidden": [4, 8], "learning_rate": [1e-3, 3e-3]}
# (fields, grid n, modes, columns) of the benchmark-size reconstructions
PRODUCTS = [(2, 64, 9, 801), (1, 64, 17, 401)]
# (rows, columns) of the benchmark-size snapshot matrices, and their retained modes
SNAPSHOT_SHAPES = [(8192, 603), (8192, 1203)]
GRAM_MODES = 9
# (problem, LF profile, parameter values) of the benchmark-size trajectories
TRAJECTORIES = [
    ("sw", FidelityProfile("LF", 32, 0.1), [2.3]),
    ("rd", FidelityProfile("LF", 32, 0.05, 0.1), [0.5, 1.0, 1.5]),
]
T_TRAJECTORY = 20.0
# (hidden, features, outputs) of the benchmark-size LSTM layer: t, mu and 9 modes
LSTM_DIMS = (64, 11, 9)
# (steps, batch) of the training batches and of the forward passes without cache
GRAD_SHAPES = [(40, 30), (40, 15)]
FORWARD_SHAPES = [(401, 3), (401, 1)]
# (rows, columns) of the Gram products whose widths end in panels of 128 and 192
GRAM_SHAPES = [(1024, 250), (2048, 500)]


def digest(value) -> str:
    if isinstance(value, np.ndarray):
        head = f"{value.shape} {value.dtype}".encode()
        value = head + np.ascontiguousarray(value).tobytes()
    elif isinstance(value, str):
        value = value.encode("utf-8")
    return hashlib.sha256(value).hexdigest()


def artifacts(work: Path):
    """Yield (name, bytes, text or array) for every artifact, in a fixed order."""
    for problem, (hf_prof, lf_prof, (lo, hi)) in PROBLEMS.items():
        grid = ParameterGrid(lo, hi, 3)
        mus = grid.midpoints(2)
        hf = generate_dataset(problem, hf_prof, grid, T_TRAIN)
        lf = generate_dataset(problem, lf_prof, grid, T_TRAIN)
        ref = generate_dataset(problem, hf_prof, mus, T_FINAL)
        for name, snaps in (("hf", hf), ("lf", lf), ("ref", ref)):
            write_snapshots(snaps, work / name)
            yield f"{problem}/{name}.mfsnap", (work / name).read_bytes()

        for lift in ("nearest", "bilinear"):
            for center in (False, True):
                tag = f"{problem}/{lift}/{'centred' if center else 'raw'}"
                rule = PodRule(n_modes=4, center=center)
                model = pipeline.offline_train(
                    hf, lf, rule, CFG, spatial_mode=lift, problem=problem,
                    hf_profile=hf_prof, lf_profile=lf_prof)
                pipeline.save_model(model, work / "model")
                yield f"{tag}/model.mfsurr", (work / "model").read_bytes()
                yield f"{tag}/history", repr(model.lstm.history)
                report = pipeline.evaluate(model, mus, T_FINAL, ref, timing_reps=0)
                report.to_csv(work / "report")
                yield f"{tag}/evaluate.csv", (work / "report").read_bytes()
                yield f"{tag}/evaluate.summary", report.summary()
                write_snapshots(pipeline.online_predict(model, float(mus[0]), T_FINAL),
                                work / "pred")
                yield f"{tag}/online_predict.mfsnap", (work / "pred").read_bytes()
                yield f"{tag}/stencil.live", model.stencil
                loaded = pipeline.load_model(work / "model")
                yield f"{tag}/stencil.loaded", loaded.stencil
                pipeline.save_model(loaded, work / "again")
                yield f"{tag}/model.resaved", (work / "again").read_bytes()

                data = pipeline.offline_prepare(hf, lf, rule, spatial_mode=lift)
                static = train_static_baseline(data.coef_lf, data.coef_hf, CFG)
                yield f"{tag}/static.predict", predict(static, data.coef_lf).coeffs
                best = hyperparameter_search(SPACE, 3, data.coef_lf, data.coef_hf, CFG, seed=1)
                yield f"{tag}/search", repr(best)

    rng = np.random.default_rng(0)
    for n_fields, n, n_pod, n_cols in PRODUCTS:
        basis = PodBasis(modes=np.asfortranarray(rng.standard_normal((n_fields * n * n, n_pod))),
                         sigma=np.ones(n_pod), eps_pod=None, snapshot_mean=None,
                         grid=Grid2D(n, 20.0), field_names=tuple("uv"[:n_fields]))
        series = CoefficientSeries(rng.standard_normal((n_pod, n_cols)),
                                   np.arange(n_cols, dtype=float), np.array([[1.0]]))
        yield f"reconstruct/{basis.n_dof}x{n_pod}x{n_cols}", reconstruct(basis, series).data

    if hasattr(pod, "_gram"):
        for m, n in SNAPSHOT_SHAPES:
            x = np.asfortranarray(rng.standard_normal((m, n)))
            yield f"gram/{m}x{n}", pod._gram(x)
            right = rng.standard_normal((n, GRAM_MODES))
            yield f"panel/{m}x{n}x{GRAM_MODES}", pod._panel_product(x, right)

    for problem, profile, values in TRAJECTORIES:
        snaps = generate_dataset(problem, profile, np.array(values), T_TRAJECTORY)
        yield f"trajectory/{problem}/{profile.n}x{len(values)}", snaps.data

    rng = np.random.default_rng(1)
    if hasattr(mflstm, "_sse_grads"):
        hidden, n_in, n_out = LSTM_DIMS
        limit = 1.0 / np.sqrt(hidden + n_in)
        layer = mflstm.LstmLayerWeights(rng.uniform(-limit, limit, (4 * hidden, hidden + n_in)),
                                        rng.uniform(-0.5, 0.5, 4 * hidden))
        readout = (rng.uniform(-0.125, 0.125, (n_out, hidden)), rng.uniform(-0.5, 0.5, n_out))
        scale_sq = rng.uniform(0.5, 2.0, n_out)
        for n_steps, n_batch in GRAD_SHAPES:
            x = rng.standard_normal((n_steps, n_batch, n_in))
            y = rng.standard_normal((n_steps, n_batch, n_out))
            sse, (_, d_b, d_w_out, d_b_out) = mflstm._sse_grads([layer], readout, scale_sq, x, y)
            yield (f"lstm/sse_grads/{n_steps}x{n_batch}",
                   np.concatenate([[sse], d_b, d_w_out.ravel(), d_b_out]))
        for n_steps, n_batch in FORWARD_SHAPES:
            x = rng.standard_normal((n_steps, n_batch, n_in))
            yield f"lstm/forward/{n_steps}x{n_batch}", mflstm._forward_stacked([layer], readout, x)[0]
    if hasattr(pod, "_gram"):
        for m, n in GRAM_SHAPES:
            yield f"gram/{m}x{n}", pod._gram(np.asfortranarray(rng.standard_normal((m, n))))


def main() -> None:
    with tempfile.TemporaryDirectory() as td:
        for name, value in artifacts(Path(td)):
            print(f"{digest(value)}  {name}")


if __name__ == "__main__":
    main()
