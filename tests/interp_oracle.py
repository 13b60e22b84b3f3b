"""Field-by-field spatial interpolation, the oracle the lift is checked against.

``lifting.lift`` interpolates whole snapshot blocks through a flat gather
stencil; this interpolates one (n, n) field with index meshes, straight from
the per-axis maps in ``numerics``.
"""

import numpy as np

from mfpod.errors import ShapeError, ValidationError
from mfpod.numerics import Grid2D, bilinear_weight_map, nearest_index_map


def interp_space(
    src: np.ndarray, src_grid: Grid2D, dst_grid: Grid2D, mode: str = "bilinear"
) -> np.ndarray:
    """Interpolate a periodic field from ``src_grid`` onto ``dst_grid``.

    ``nearest`` picks the closest source node (periodic wrap, rightward on
    ties); ``bilinear`` interpolates the surrounding 4-node periodic cell.
    Both are exact when the grids coincide.
    """
    src = np.asarray(src, dtype=np.float64)
    if src.shape != (src_grid.n, src_grid.n):
        raise ShapeError(f"source field shape {src.shape} does not match grid n={src_grid.n}")
    if mode == "nearest":
        idx = nearest_index_map(src_grid, dst_grid)
        return src[np.ix_(idx, idx)]
    if mode == "bilinear":
        i0, i1, f = bilinear_weight_map(src_grid, dst_grid)
        fx = f[:, None]
        fy = f[None, :]
        return (
            (1 - fx) * (1 - fy) * src[np.ix_(i0, i0)]
            + fx * (1 - fy) * src[np.ix_(i1, i0)]
            + (1 - fx) * fy * src[np.ix_(i0, i1)]
            + fx * fy * src[np.ix_(i1, i1)]
        )
    raise ValidationError(f"unknown interpolation mode {mode!r}")
