"""Lifting of low-fidelity snapshot sets to high-fidelity resolution.

The spatial lift is one stencil for both modes: every destination node is a
weighted sum of k source nodes of the same field component, k = 1 with
weight 1 for nearest-neighbor and k = 4 (the periodic bilinear cell) for
bilinear. Time is then interpolated linearly onto the target time grid. The
snapshot matrix is parameter-major, so every parameter is lifted at once:
the spatial stencil acts on all columns together and the time interpolation
on the (rows, n_mu, n_t) view of them. Both stages are linear maps, so the
composite acts like P @ X @ Q^T; the order (space first, then time)
therefore does not affect the result and is chosen to keep peak memory low.

``lift_project`` fuses lifting with projection onto a reduced basis by
pre-contracting the basis with the spatial stencil, so the lifted fields are
never materialized. It is exactly the linear-algebra rearrangement
basis^T (P X Q^T) = ((P^T basis)^T X) Q^T and is used on the hot online
path; plain ``lift`` is the reference implementation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError, ValidationError
from .numerics import Grid2D, bilinear_weight_map, interp_time, nearest_index_map
from .pod import CoefficientSeries, PodBasis
from .snapshots import SnapshotSet

_MODES = ("nearest", "bilinear")


@dataclass(frozen=True)
class LiftSpec:
    """How to carry a snapshot set to target spatial and temporal resolution."""

    spatial_mode: str
    src_grid: Grid2D
    dst_grid: Grid2D
    dst_times: np.ndarray

    def __post_init__(self):
        if self.spatial_mode not in _MODES:
            raise ValidationError(
                f"spatial_mode must be one of {_MODES}, got {self.spatial_mode!r}"
            )
        object.__setattr__(
            self, "dst_times", np.asarray(self.dst_times, dtype=np.float64)
        )
        if self.dst_times.ndim != 1 or self.dst_times.size < 1:
            raise ValidationError("dst_times must be a nonempty 1-D vector")


def _flat_gather(spec: LiftSpec) -> tuple[np.ndarray, np.ndarray]:
    """Source indices and weights, each (k, n_dst^2), of one field component.

    Destination flat index r = ix + n_dst*iy is the sum over j of
    w[j, r] * source[idx[j, r]], with source flat indices following the same
    column-major convention. ``nearest`` is k = 1 with weight 1; ``bilinear``
    is the four corners of the periodic source cell in the order 00, 10, 01,
    11 (x offset, then y offset).
    """
    ns = spec.src_grid.n
    if spec.spatial_mode == "nearest":
        i = nearest_index_map(spec.src_grid, spec.dst_grid)
        axis = [(i, np.ones(i.size))]
    else:
        i0, i1, f = bilinear_weight_map(spec.src_grid, spec.dst_grid)
        axis = [(i0, 1 - f), (i1, f)]
    corners = [(x, y) for y in axis for x in axis]
    idx = np.stack([np.add.outer(ix, ns * iy).ravel(order="F") for (ix, _), (iy, _) in corners])
    w = np.stack([np.multiply.outer(wx, wy).ravel(order="F") for (_, wx), (_, wy) in corners])
    return idx, w


def _interp_blocks(cols: np.ndarray, snaps: SnapshotSet, dst_times: np.ndarray) -> np.ndarray:
    """Carry the parameter-major columns ``cols`` from ``snaps.times`` to ``dst_times``."""
    if np.array_equal(snaps.times, dst_times):
        return cols
    blocks = cols.reshape(cols.shape[0], snaps.n_mu, snaps.n_t)
    return interp_time(blocks, snaps.times, dst_times).reshape(cols.shape[0], -1)


def _validate_input(snaps: SnapshotSet, spec: LiftSpec) -> int:
    if snaps.grid != spec.src_grid:
        raise ValidationError(
            f"snapshot grid (n={snaps.grid.n}, L={snaps.grid.L}) does not match "
            f"lift source grid (n={spec.src_grid.n}, L={spec.src_grid.L})"
        )
    n_fields = len(snaps.field_names)
    if snaps.n_dof != n_fields * snaps.grid.n**2:
        raise ShapeError(
            f"snapshot rows ({snaps.n_dof}) are not field_count * n^2 "
            f"({n_fields} * {snaps.grid.n}^2); cannot lift spatially"
        )
    return n_fields


def lift(snaps: SnapshotSet, spec: LiftSpec) -> SnapshotSet:
    """Lift a snapshot set onto the target grid and times."""
    n_fields = _validate_input(snaps, spec)
    ns2 = spec.src_grid.n**2
    nd2 = spec.dst_grid.n**2
    idx, w = _flat_gather(spec)
    # work on the (column, dof) transposes, whose rows are contiguous for
    # column-major snapshots; np.take keeps its output row-major, which
    # fancy indexing along the last axis does not
    spatial = np.empty((snaps.data.shape[1], n_fields * nd2))
    for f in range(n_fields):
        src = snaps.data.T[:, f * ns2 : (f + 1) * ns2]
        dst = spatial[:, f * nd2 : (f + 1) * nd2]
        np.multiply(np.take(src, idx[0], axis=1), w[0], out=dst)
        for ik, wk in zip(idx[1:], w[1:]):
            dst += np.take(src, ik, axis=1) * wk
    return SnapshotSet(
        fidelity=snaps.fidelity,
        data=_interp_blocks(spatial.T, snaps, spec.dst_times),
        grid=spec.dst_grid,
        times=spec.dst_times.copy(),
        params=snaps.params,
        field_names=snaps.field_names,
    )


def reduced_stencil(basis: PodBasis, spec: LiftSpec) -> np.ndarray:
    """Pre-contracted matrix R = P^T basis with P the spatial lift stencil.

    R has shape (n_dof_src, n_pod); projecting a lifted snapshot equals
    R.T @ snapshot for every linear spatial mode.
    """
    n_fields = len(basis.field_names)
    ns2 = spec.src_grid.n**2
    nd2 = spec.dst_grid.n**2
    if basis.n_dof != n_fields * nd2:
        raise ShapeError(
            f"basis rows ({basis.n_dof}) are not field_count * n_dst^2 "
            f"({n_fields} * {spec.dst_grid.n}^2)"
        )
    idx, w = _flat_gather(spec)
    reduced = np.zeros((n_fields * ns2, basis.n_pod), dtype=np.float64)
    for f in range(n_fields):
        modes_f = basis.modes[f * nd2 : (f + 1) * nd2, :]
        target = reduced[f * ns2 : (f + 1) * ns2, :]
        for ik, wk in zip(idx, w):
            np.add.at(target, ik, wk[:, None] * modes_f)
    return reduced


def lift_project(
    snaps: SnapshotSet,
    spec: LiftSpec,
    basis: PodBasis,
    stencil: np.ndarray | None = None,
) -> CoefficientSeries:
    """Project the lifted set onto ``basis`` without materializing the lift.

    Equivalent to ``pod.project(basis, lift(snaps, spec))`` up to floating
    point summation order. ``stencil`` may carry a precomputed
    ``reduced_stencil`` to amortize repeated calls.
    """
    _validate_input(snaps, spec)
    if stencil is None:
        stencil = reduced_stencil(basis, spec)
    coef_src = stencil.T @ snaps.data
    if basis.snapshot_mean is not None:
        # basis^T (x - mean) = basis^T x - basis^T mean, with x already lifted:
        # the mean lives on the destination grid, so contract it directly.
        coef_src = coef_src - (basis.modes.T @ basis.snapshot_mean)[:, None]
    return CoefficientSeries(
        coeffs=_interp_blocks(coef_src, snaps, spec.dst_times),
        times=spec.dst_times.copy(),
        params=snaps.params,
    )
