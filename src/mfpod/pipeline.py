"""Offline training orchestration, online inference, metrics, persistence.

Offline, the four stages run in order: the reduced basis is extracted from
the high-fidelity snapshots alone; the low-fidelity set is lifted to
high-fidelity resolution; both sets are projected onto the basis; and the
recurrent map is trained on the aligned coefficient pairs. Online, a new
parameter value costs one low-fidelity solve: its trajectory is lifted,
projected, mapped through the network, and expanded back to full fields.
The high-fidelity solver is never invoked online.

Models persist as MFSURR files through ``codec``: they are written
atomically, and a truncated, forged or corrupt file raises ``FormatError``.

Relative errors follow the column-wise definition

    err% = 100/N_test * sum_i ||x_ref(t_i, mu_i) - x(t_i, mu_i)|| / ||x_ref(t_i, mu_i)||

averaged over every (time, parameter) pair in the test set, evaluated for
both the surrogate prediction and the lifted low-fidelity input. ``evaluate``
streams these errors through fixed blocks of columns: each parameter's
prediction goes into one column-major buffer per call, and the reference
norms, both differences and the lifted input are formed one block at a time,
so no other full-size field is held. Wall-clock times are medians over
repeated runs of the per-trajectory mean, with the online path timed end to
end (low-fidelity solve through reconstruction).
"""

from __future__ import annotations

import struct
import time
import warnings
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import solvers
from .codec import (Reader, decode_name, dump_f64, read_file, read_text, stored, utf8_bytes,
                    write_atomic)
from .errors import AlignmentError, CoverageError, FormatError, ValidationError
from .lifting import SPATIAL_MODES, LiftSpec, _lift_blocks, lift_project, reduced_stencil
from .mflstm import _VAL_EVERY, LstmModel, lstm_from_bytes, lstm_to_bytes, predict, train
from .numerics import Grid2D
from .pod import (CoefficientSeries, PodBasis, PodRule, _full_fields, build_basis, project,
                  reconstruct)
from .snapshots import FIDELITIES, SnapshotSet
from .solvers import FidelityProfile

SURROGATE_MAGIC = b"MFSURR01"
_BASIS_MAGIC = b"MFBASIS1"
_LIFT_MAGIC = b"MFLIFT01"
_PROV_MAGIC = b"MFPROV01"
_CSV_HEADER = ["mu", "t", "err_mf_percent", "err_lf_percent"]
# columns per error block of evaluate: at 8192 rows a block is 512 KiB, so the
# reference, prediction, lifted and scratch blocks stay in a 2 MiB L2 cache;
# 8 was fastest of 4-256 for both lifts
_ERROR_BLOCK = 8


@dataclass(frozen=True, kw_only=True)
class Provenance:
    """What produced the training data; needed to drive the online stage."""

    problem: str
    hf_profile: FidelityProfile
    lf_profile: FidelityProfile
    t_train: float
    param_lo: float
    param_hi: float

    def __post_init__(self):
        solvers._problem(self.problem)  # the model re-runs this problem's LF solver online
        if not np.all(np.isfinite([self.t_train, self.param_lo, self.param_hi])):
            raise ValidationError("provenance lacks a finite training span")


@dataclass
class SurrogateModel:
    """Deployable bundle: reduced basis, lift recipe, trained network.

    ``stencil`` is the ``reduced_stencil`` of the basis and the lift. It is
    built here and never serialized, because it follows from both.
    """

    basis: PodBasis
    lift_spec: LiftSpec
    lstm: LstmModel
    provenance: Provenance
    stencil: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.lstm.layout.n_coef == self.lstm.n_out == self.basis.n_pod:
            raise ValidationError(
                f"network maps {self.lstm.layout.n_coef} to {self.lstm.n_out} coefficients "
                f"but the basis retains {self.basis.n_pod} modes"
            )
        if self.lift_spec.dst_grid != self.basis.grid:
            raise ValidationError("lift destination grid does not match the basis grid")
        self.stencil = reduced_stencil(self.basis, self.lift_spec)


@dataclass
class OnlinePrediction:
    """Full online-stage output for one parameter value."""

    prediction: SnapshotSet
    lf_snapshots: SnapshotSet
    lf_coefficients: CoefficientSeries
    mf_coefficients: CoefficientSeries


@dataclass
class EvalReport:
    """Eq.-style relative errors plus wall-clock comparison."""

    time_lf: float
    time_mf: float
    time_hf: float
    mus: np.ndarray
    ts: np.ndarray
    col_err_mf_percent: np.ndarray
    col_err_lf_percent: np.ndarray

    @property
    def err_mf_percent(self) -> float:
        return float(self.col_err_mf_percent.mean())

    @property
    def err_lf_percent(self) -> float:
        return float(self.col_err_lf_percent.mean())

    def per_parameter(self) -> list[tuple[float, float, float]]:
        """(mu, mean err_mf%, mean err_lf%) per tested parameter."""
        out = []
        for mu in np.unique(self.mus):
            mask = self.mus == mu
            out.append(
                (
                    float(mu),
                    float(self.col_err_mf_percent[mask].mean()),
                    float(self.col_err_lf_percent[mask].mean()),
                )
            )
        return out

    def to_csv(self, path: str | Path) -> None:
        lines = [",".join(_CSV_HEADER)]
        for mu, t, emf, elf in zip(
            self.mus, self.ts, self.col_err_mf_percent, self.col_err_lf_percent
        ):
            lines.append(f"{float(mu)!r},{float(t)!r},{float(emf)!r},{float(elf)!r}")
        write_atomic(path, ["\n".join(lines).encode("utf-8") + b"\n"], "report")

    @classmethod
    def from_csv(cls, paths) -> "EvalReport":
        """Pool the columns of one or more ``to_csv`` files; timings are NaN."""
        rows = []
        for path in paths:
            lines = read_text(path, "report").strip().splitlines()
            if not lines or lines[0].split(",")[:4] != _CSV_HEADER:
                raise ValidationError(f"{path} is not an evaluation report CSV")
            for line in lines[1:]:
                try:
                    row = [float(x) for x in line.split(",")[:4]]
                except ValueError:
                    row = []
                if len(row) != 4 or not np.all(np.isfinite(row)):
                    raise ValidationError(f"{path}: malformed row {line!r}")
                rows.append(row)
        if not rows:
            raise ValidationError("no report rows found")
        arr = np.asarray(rows)
        nan = float("nan")
        return cls(nan, nan, nan, arr[:, 0], arr[:, 1], arr[:, 2], arr[:, 3])

    def summary(self) -> str:
        lines = [
            "surrogate evaluation summary",
            f"  test columns: {self.mus.size}",
            f"  relative error  lifted LF input: {self.err_lf_percent:.2f}%"
            f"   surrogate: {self.err_mf_percent:.2f}%",
        ]
        if np.isfinite(self.time_hf) and self.time_hf > 0:
            lines.append(
                f"  wall time per trajectory  LF {self.time_lf:.3f}s"
                f" ({100 * self.time_lf / self.time_hf:.2f}% of HF)"
                f"   surrogate {self.time_mf:.3f}s"
                f" ({100 * self.time_mf / self.time_hf:.2f}% of HF)"
                f"   HF {self.time_hf:.3f}s (100%)"
            )
        lines.append("  per-parameter mean errors:")
        for mu, emf, elf in self.per_parameter():
            lines.append(f"    mu = {mu:g}: surrogate {emf:.2f}%   lifted LF {elf:.2f}%")
        return "\n".join(lines)


def offline_train(
    hf: SnapshotSet,
    lf: SnapshotSet,
    pod_rule: PodRule,
    train_cfg,
    spatial_mode: str = "bilinear",
    *,
    problem: str,
    hf_profile: FidelityProfile,
    lf_profile: FidelityProfile,
    val_every: int = _VAL_EVERY,
) -> SurrogateModel:
    """Run the four offline stages and assemble the deployable surrogate.

    ``val_every`` is the cadence of ``train``'s held-out pass: the loss on the
    held-out tail is recorded in ``lstm.history`` every ``val_every`` epochs
    and after the last, and is NaN in the other epochs. It changes no weight.
    """
    provenance = Provenance(
        problem=problem,
        hf_profile=hf_profile,
        lf_profile=lf_profile,
        t_train=float(hf.times[-1]),
        param_lo=float(hf.params[:, 0].min()),
        param_hi=float(hf.params[:, 0].max()),
    )
    if not np.array_equal(hf.params, lf.params):
        raise AlignmentError(
            "high- and low-fidelity sets must be sampled at the same parameters"
        )
    basis = build_basis(hf, pod_rule)
    spec = LiftSpec(spatial_mode=spatial_mode, src_grid=lf.grid, dst_grid=hf.grid,
                    dst_times=hf.times)
    lstm = train(lift_project(lf, spec, basis), project(basis, hf), train_cfg,
                 val_every=val_every)
    return SurrogateModel(basis=basis, lift_spec=spec, lstm=lstm, provenance=provenance)


def prediction_times(model: SurrogateModel, T: float) -> np.ndarray:
    """High-fidelity-cadence time grid over [0, T] used for predictions."""
    return solvers.time_grid(T, model.provenance.hf_profile.dt)


def _run_lf(model: SurrogateModel, mus: np.ndarray, t_end: float) -> SnapshotSet:
    """The LF solves of ``mus``, side by side, to the first LF step at or past ``t_end``."""
    profile = model.provenance.lf_profile
    steps = int(np.ceil(t_end / profile.dt - 1e-12)) if t_end > 0 else 0
    return solvers.generate_dataset(
        model.provenance.problem, profile, mus, steps * profile.dt
    )


def _warn_outside_training_range(model: SurrogateModel, mu: float) -> None:
    prov = model.provenance
    if not (prov.param_lo <= mu <= prov.param_hi):
        warnings.warn(
            f"mu = {mu:g} lies outside the training range "
            f"[{prov.param_lo:g}, {prov.param_hi:g}]; extrapolating",
            stacklevel=3,
        )


def online_predict_detailed(
    model: SurrogateModel, mu: float, T: float
) -> OnlinePrediction:
    """Full online stage for one parameter: solve LF, lift, map, reconstruct."""
    _warn_outside_training_range(model, mu)
    spec = replace(model.lift_spec, dst_times=prediction_times(model, T))
    lf_set = _run_lf(model, np.array([mu]), float(spec.dst_times[-1]))
    coef_lf = lift_project(lf_set, spec, model.basis, stencil=model.stencil)
    coef_mf = predict(model.lstm, coef_lf)
    return OnlinePrediction(
        prediction=reconstruct(model.basis, coef_mf),
        lf_snapshots=lf_set,
        lf_coefficients=coef_lf,
        mf_coefficients=coef_mf,
    )


def online_predict(model: SurrogateModel, mu: float, T: float) -> SnapshotSet:
    """Predicted high-fidelity fields for one parameter over [0, T]."""
    return online_predict_detailed(model, mu, T).prediction


def _column_norms(squares: np.ndarray) -> np.ndarray:
    """Column 2-norms from the entrywise squares: np.linalg.norm(x, axis=0) bit for bit."""
    return np.sqrt(np.add.reduce(squares, axis=0))


def _column_errors(diff: np.ndarray, ref_norm: np.ndarray) -> np.ndarray:
    """Relative error of each column of ``diff = reference - candidate``, given
    the reference's column norms; ``diff`` is squared in place."""
    diff_norm = _column_norms(np.multiply(diff, diff, out=diff))
    safe = np.where(ref_norm > 0, ref_norm, 1.0)
    return np.where((ref_norm > 0) | (diff_norm > 0), diff_norm / safe, 0.0)


def reference_indices(
    model: SurrogateModel, reference: SnapshotSet, mus: np.ndarray, times: np.ndarray
) -> list[int]:
    """Index in ``reference`` of each of ``mus``; ``CoverageError`` unless it
    has the model's rows, the prediction ``times`` and every requested mu."""
    if reference.n_dof != model.basis.n_dof:
        raise CoverageError(
            f"reference has {reference.n_dof} rows, model expects {model.basis.n_dof}"
        )
    if reference.times.size != times.size or not np.allclose(
        reference.times, times, rtol=0, atol=1e-9
    ):
        raise CoverageError(
            "reference time grid does not cover the prediction grid "
            f"({reference.times.size} vs {times.size} instants)"
        )
    indices = []
    for mu in mus:
        matches = np.nonzero(np.isclose(reference.params[:, 0], mu, rtol=1e-12, atol=1e-12))[0]
        if matches.size == 0:
            raise CoverageError(f"reference set does not contain mu = {mu:g}")
        indices.append(int(matches[0]))
    return indices


def evaluate(
    model: SurrogateModel,
    test_params: np.ndarray,
    T: float,
    hf_reference: SnapshotSet,
    timing_reps: int = 3,
) -> EvalReport:
    """Column-wise relative errors and wall-clock comparison on a test set.

    ``hf_reference`` must hold trajectories for every requested parameter on
    the prediction time grid. ``timing_reps = 0`` skips the timing loops
    (times reported as NaN); otherwise each path's per-trajectory mean time
    is measured ``timing_reps`` times and the median is reported.

    One LF solve serves every parameter. Each parameter's prediction is
    written into one column-major buffer, reused across parameters, and the
    errors are then streamed through blocks of ``_ERROR_BLOCK`` columns, with
    the lifted LF input formed block by block. Each column error equals, bit
    for bit, one computed on whole arrays from ``online_predict``, ``lift``
    and ``np.linalg.norm``.
    """
    if timing_reps < 0:
        raise ValidationError(f"timing_reps must be >= 0, got {timing_reps}")
    test_params = np.atleast_1d(np.asarray(test_params, dtype=np.float64))
    times = prediction_times(model, T)
    ref_idx = reference_indices(model, hf_reference, test_params, times)
    for mu in test_params:
        _warn_outside_training_range(model, float(mu))

    lf_all = _run_lf(model, test_params, float(times[-1]))
    spec = replace(model.lift_spec, dst_times=times)
    n_t = times.size
    prediction = np.empty((model.basis.n_dof, n_t), order="F")
    scratch = np.empty((model.basis.n_dof, min(_ERROR_BLOCK, n_t)), order="F")
    col_mf = np.empty(test_params.size * n_t)
    col_lf = np.empty_like(col_mf)
    for i, idx in enumerate(ref_idx):
        lf_set = replace(lf_all, data=lf_all.trajectory(i), params=lf_all.params[i : i + 1])
        # the same stages, per parameter, as online_predict
        coef_lf = lift_project(lf_set, spec, model.basis, stencil=model.stencil)
        _full_fields(model.basis, predict(model.lstm, coef_lf), prediction)
        reference = hf_reference.trajectory(idx)
        for start, lifted in _lift_blocks(lf_set, spec, _ERROR_BLOCK):
            cols = slice(start, start + lifted.shape[1])
            ref = reference[:, cols]
            block = scratch[:, : lifted.shape[1]]
            ref_norm = _column_norms(np.multiply(ref, ref, out=block))
            dst = slice(i * n_t + start, i * n_t + cols.stop)
            col_mf[dst] = _column_errors(np.subtract(ref, prediction[:, cols], out=block),
                                         ref_norm)
            col_lf[dst] = _column_errors(np.subtract(ref, lifted, out=block), ref_norm)
    col_mf *= 100.0
    col_lf *= 100.0

    time_lf = time_mf = time_hf = float("nan")
    if timing_reps > 0:
        prov, t_end = model.provenance, float(times[-1])
        paths = (
            lambda mu: _run_lf(model, np.array([mu]), t_end),
            lambda mu: online_predict(model, mu, T),
            lambda mu: solvers.generate_dataset(prov.problem, prov.hf_profile, [mu], t_end),
        )

        def seconds_per_mu(path) -> float:
            t0 = time.perf_counter()
            for mu in test_params:
                path(float(mu))
            return (time.perf_counter() - t0) / test_params.size

        reps = [[seconds_per_mu(path) for path in paths] for _ in range(timing_reps)]
        time_lf, time_mf, time_hf = np.median(reps, axis=0).tolist()

    return EvalReport(
        time_lf=time_lf,
        time_mf=time_mf,
        time_hf=time_hf,
        mus=np.repeat(test_params, times.size),
        ts=np.tile(times, test_params.size),
        col_err_mf_percent=col_mf,
        col_err_lf_percent=col_lf,
    )


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

def _basis_to_bytes(basis: PodBasis) -> bytes:
    parts = [_BASIS_MAGIC]
    parts.append(
        struct.pack(
            "<7I",
            basis.n_dof,
            basis.n_pod,
            basis.sigma.size,
            basis.grid.n,
            len(basis.field_names),
            int(basis.snapshot_mean is not None),
            int(basis.eps_pod is not None),
        )
    )
    parts.append(struct.pack("<d", basis.grid.L))
    if basis.eps_pod is not None:
        parts.append(struct.pack("<d", basis.eps_pod))
    parts.append(dump_f64(basis.sigma))
    parts.append(dump_f64(basis.modes, order="F"))
    if basis.snapshot_mean is not None:
        parts.append(dump_f64(basis.snapshot_mean))
    parts.extend(utf8_bytes(name) for name in basis.field_names)
    return b"".join(parts)


def _basis_from_bytes(buf) -> PodBasis:
    reader = Reader(buf, "basis", _BASIS_MAGIC)
    n_dof, n_pod, n_sigma, n_grid, n_fields, has_mean, has_eps = reader.u32(7)
    if n_pod < 1 or n_dof != n_fields * n_grid**2:
        raise FormatError(
            f"basis block declares {n_pod} modes of {n_dof} rows, which is not "
            f"field_count * n^2 = {n_fields} * {n_grid}^2 rows and at least one mode"
        )
    length = reader.f64()
    eps = reader.f64() if has_eps else None
    sigma = reader.f64_array(n_sigma)
    modes = reader.f64_array((n_dof, n_pod), order="F")
    mean = reader.f64_array(n_dof) if has_mean else None
    names = tuple(reader.utf8() for _ in range(n_fields))
    reader.done()
    return PodBasis(
        modes=modes,
        sigma=sigma,
        eps_pod=eps,
        snapshot_mean=mean,
        grid=Grid2D(n_grid, length),
        field_names=names,
    )


def _lift_to_bytes(spec: LiftSpec) -> bytes:
    return b"".join(
        [
            _LIFT_MAGIC,
            struct.pack(
                "<4I",
                SPATIAL_MODES.index(spec.spatial_mode),
                spec.src_grid.n,
                spec.dst_grid.n,
                spec.dst_times.size,
            ),
            struct.pack("<2d", spec.src_grid.L, spec.dst_grid.L),
            dump_f64(spec.dst_times),
        ]
    )


def _lift_from_bytes(buf) -> LiftSpec:
    reader = Reader(buf, "lift spec", _LIFT_MAGIC)
    mode, src_n, dst_n, n_times = reader.u32(4)
    src_l, dst_l = reader.f64(2)
    times = reader.f64_array(n_times)
    reader.done()
    return LiftSpec(
        spatial_mode=decode_name(mode, SPATIAL_MODES, "lift mode"),
        src_grid=Grid2D(src_n, src_l),
        dst_grid=Grid2D(dst_n, dst_l),
        dst_times=times,
    )


def _profile_to_bytes(profile: FidelityProfile) -> bytes:
    return struct.pack(
        "<3I2d",
        1,
        FIDELITIES.index(profile.fidelity),
        profile.n,
        profile.dt,
        profile.d if profile.d is not None else float("nan"),
    )


def _profile_from_reader(reader: Reader) -> FidelityProfile:
    if reader.u32() != 1:
        raise FormatError("provenance block lacks a fidelity profile")
    fid_code, n = reader.u32(2)
    dt, d = reader.f64(2)
    return FidelityProfile(
        fidelity=decode_name(fid_code, FIDELITIES, "fidelity"),
        n=n,
        dt=dt,
        d=None if np.isnan(d) else d,
    )


def _provenance_to_bytes(prov: Provenance) -> bytes:
    return b"".join([
        _PROV_MAGIC,
        utf8_bytes(prov.problem),
        _profile_to_bytes(prov.hf_profile),
        _profile_to_bytes(prov.lf_profile),
        struct.pack("<3d", prov.t_train, prov.param_lo, prov.param_hi),
    ])


def _provenance_from_bytes(buf) -> Provenance:
    reader = Reader(buf, "provenance", _PROV_MAGIC)
    problem = reader.utf8()
    hf_profile = _profile_from_reader(reader)
    lf_profile = _profile_from_reader(reader)
    t_train, lo, hi = reader.f64(3)
    reader.done()
    return Provenance(problem=problem, hf_profile=hf_profile, lf_profile=lf_profile,
                      t_train=t_train, param_lo=lo, param_hi=hi)


def save_model(model: SurrogateModel, path: str | Path) -> None:
    """Persist the composite surrogate atomically; round trips are bit-exact."""
    blocks = [
        _basis_to_bytes(model.basis),
        _lift_to_bytes(model.lift_spec),
        lstm_to_bytes(model.lstm),
        _provenance_to_bytes(model.provenance),
    ]
    parts = [SURROGATE_MAGIC]
    for block in blocks:
        parts += [struct.pack("<Q", len(block)), block]
    write_atomic(path, parts, "model")


def load_model(path: str | Path) -> SurrogateModel:
    """Load a surrogate written by ``save_model``; never returns a partial model."""
    reader = Reader(read_file(path, "model"), "surrogate container", SURROGATE_MAGIC)
    blocks = [reader.take(reader.u64()) for _ in range(4)]
    reader.done()
    with stored(f"model {path}"):
        return SurrogateModel(
            basis=_basis_from_bytes(blocks[0]),
            lift_spec=_lift_from_bytes(blocks[1]),
            lstm=lstm_from_bytes(blocks[2]),
            provenance=_provenance_from_bytes(blocks[3]),
        )
