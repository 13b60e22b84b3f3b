"""Lifting of low-fidelity snapshot sets to high-fidelity resolution.

The spatial lift is one stencil over a whole snapshot row, for both modes: each
destination entry is a weighted sum of k source entries of its own field, k = 1
with weight 1 for nearest-neighbor and k = 4 (the periodic bilinear cell) for
bilinear. Time is then interpolated linearly onto the target time grid. The
snapshot matrix is parameter-major, so every parameter is lifted at once: the
spatial stencil acts on all columns together, one row per column, and the
time interpolation on axis 1 of the (n_mu, n_t, rows) view of those rows.
Both stages are linear maps, so the composite acts like P @ X @ Q^T; the
order (space first, then time) therefore does not affect the result and is
chosen to keep peak memory low.

``lift_project`` fuses lifting with projection onto a reduced basis by
pre-contracting the basis with the spatial stencil, so the lifted fields are
never materialized. It is exactly the linear-algebra rearrangement
basis^T (P X Q^T) = ((P^T basis)^T X) Q^T and is used on the hot online
path; plain ``lift`` is the reference implementation. ``_lift_blocks`` yields
the columns of ``lift`` block by block, bit for bit, each lifted from only
the source columns it reads; ``evaluate`` scores the lifted input with it.
All three share the stencil (``_flat_gather``) and the time rule
(``numerics.interp_weights`` and ``numerics.interp_segments``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError, ValidationError
from .numerics import (
    Grid2D,
    bilinear_weight_map,
    interp_segments,
    interp_weights,
    nearest_index_map,
)
from .pod import CoefficientSeries, PodBasis
from .snapshots import SnapshotSet

# spatial lift modes; a mode's file code is its index
SPATIAL_MODES = ("nearest", "bilinear")


@dataclass(frozen=True)
class LiftSpec:
    """How to carry a snapshot set to target spatial and temporal resolution."""

    spatial_mode: str
    src_grid: Grid2D
    dst_grid: Grid2D
    dst_times: np.ndarray

    def __post_init__(self):
        if self.spatial_mode not in SPATIAL_MODES:
            raise ValidationError(
                f"spatial_mode must be one of {SPATIAL_MODES}, got {self.spatial_mode!r}"
            )
        t = np.asarray(self.dst_times, dtype=np.float64)
        object.__setattr__(self, "dst_times", t)
        if t.ndim != 1 or t.size < 1 or not np.all(np.isfinite(t)) or np.any(np.diff(t) <= 0):
            raise ValidationError("dst_times must be 1-D, nonempty, finite, strictly increasing")


def _flat_gather(spec: LiftSpec, n_fields: int) -> tuple[np.ndarray, np.ndarray]:
    """Source indices and weights, each (k, n_fields * n_dst^2), of a whole snapshot row.

    Lifted entry f*n_dst^2 + r, with r = ix + n_dst*iy, is the sum over j of
    w[j, .] * row[idx[j, .]]: field f reads its own source entries, at the
    same column-major flat indices offset by f*n_src^2, and the weights
    repeat per field. The k = 4 bilinear corners of the periodic source cell
    come in the order 00, 10, 01, 11 (x offset, then y offset).
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
    offsets = ns * ns * np.arange(n_fields)
    return (idx[:, None, :] + offsets[:, None]).reshape(len(idx), -1), np.tile(w, n_fields)


def _interp_columns(rows: np.ndarray, snaps: SnapshotSet, dst_times: np.ndarray) -> np.ndarray:
    """Carry ``rows``, one per parameter-major column of ``snaps``, to ``dst_times``.

    The result is C-ordered, so its transpose is column-major.
    """
    if np.array_equal(snaps.times, dst_times):
        return rows
    blocks = rows.reshape(snaps.n_mu, snaps.n_t, rows.shape[1])
    lifted = interp_segments(blocks, *interp_weights(snaps.times, dst_times), axis=1)
    return lifted.reshape(-1, rows.shape[1])


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


def _spatial(rows: np.ndarray, gather) -> np.ndarray:
    """Spatial lift of ``rows``, one source column per row, one lifted column per row.

    ``rows`` is a slice of the (column, dof) transpose, whose rows are
    contiguous for column-major snapshots; np.take keeps its output
    row-major, which fancy indexing along the last axis does not.
    """
    idx, w = gather
    out = np.take(rows, idx[0], axis=1)
    # a one-corner (nearest) stencil has weight 1.0, and x * 1.0 == x
    if len(idx) > 1:
        out *= w[0]
        term = np.empty_like(out)
        for ik, wk in zip(idx[1:], w[1:]):
            # every index is in range; "clip" lets np.take fill ``term`` unbuffered
            np.take(rows, ik, axis=1, out=term, mode="clip")
            term *= wk
            out += term
    return out


def lift(snaps: SnapshotSet, spec: LiftSpec) -> SnapshotSet:
    """Lift a snapshot set onto the target grid and times."""
    spatial = _spatial(snaps.data.T, _flat_gather(spec, _validate_input(snaps, spec)))
    return SnapshotSet(
        fidelity=snaps.fidelity,
        data=_interp_columns(spatial, snaps, spec.dst_times).T,
        grid=spec.dst_grid,
        times=spec.dst_times.copy(),
        params=snaps.params,
        field_names=snaps.field_names,
    )


def _lift_blocks(snaps: SnapshotSet, spec: LiftSpec, width: int):
    """Yield ``(start, block)`` with ``block`` equal, bit for bit, to columns
    ``start:start + width`` of ``lift(snaps, spec).data``, stopping at the end
    of each parameter's trajectory.

    Each column-major block is lifted from only the source columns it reads,
    so no full-size lifted set is formed.
    """
    gather = _flat_gather(spec, _validate_input(snaps, spec))
    n_src, n_dst = snaps.n_t, spec.dst_times.size
    same_times = np.array_equal(snaps.times, spec.dst_times)
    if not same_times:
        seg, w = interp_weights(snaps.times, spec.dst_times)
    for i in range(snaps.n_mu):
        rows = snaps.data.T[i * n_src : (i + 1) * n_src]
        for start in range(0, n_dst, width):
            stop = min(start + width, n_dst)
            if same_times:
                block = _spatial(rows[start:stop], gather)
            else:
                lo = seg[start]
                src = _spatial(rows[lo : seg[stop - 1] + 2], gather)
                block = interp_segments(src, seg[start:stop] - lo, w[start:stop], axis=0)
            yield i * n_dst + start, block.T


def reduced_stencil(basis: PodBasis, spec: LiftSpec) -> np.ndarray:
    """Pre-contracted matrix R = P^T basis with P the spatial lift stencil.

    R has shape (n_dof_src, n_pod); projecting a lifted snapshot equals
    R.T @ snapshot for every linear spatial mode.
    """
    n_fields = len(basis.field_names)
    if basis.n_dof != n_fields * spec.dst_grid.n**2:
        raise ShapeError(
            f"basis rows ({basis.n_dof}) are not field_count * n_dst^2 "
            f"({n_fields} * {spec.dst_grid.n}^2)"
        )
    reduced = np.zeros((n_fields * spec.src_grid.n**2, basis.n_pod), dtype=np.float64)
    for ik, wk in zip(*_flat_gather(spec, n_fields)):
        np.add.at(reduced, ik, wk[:, None] * basis.modes)
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
        coeffs=_interp_columns(coef_src.T, snaps, spec.dst_times).T,
        times=spec.dst_times.copy(),
        params=snaps.params,
    )
