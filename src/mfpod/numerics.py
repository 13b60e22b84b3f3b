"""Grid, SVD, and interpolation primitives.

All grids are square, equispaced, and periodic: n points per direction on
[-L, L), node i at -L + i * (2L/n), with node n wrapping to node 0.
Fields are (n, n) float64 arrays indexed [ix, iy]; flattened snapshots use
column-major (Fortran) order so that flat index = ix + n * iy.

Every function here is pure and operates on immutable inputs, so the whole
module is safe to call concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, ExtrapolationError, ShapeError, ValidationError


@dataclass(frozen=True)
class Grid2D:
    """Equispaced periodic square grid: ``n`` points per direction on [-L, L)."""

    n: int
    L: float

    def __post_init__(self):
        if self.n < 4 or self.n % 2 != 0:
            raise ValidationError(f"grid size must be even and >= 4, got n={self.n}")
        if not (self.L > 0):
            raise ValidationError(f"grid half-length must be positive, got L={self.L}")

    @property
    def spacing(self) -> float:
        return 2.0 * self.L / self.n

    def coords(self) -> np.ndarray:
        return -self.L + self.spacing * np.arange(self.n)

    def meshes(self) -> tuple[np.ndarray, np.ndarray]:
        """(X, Y) node coordinates with x varying along axis 0."""
        x = self.coords()
        return np.meshgrid(x, x, indexing="ij")

    def half_wavenumbers(self) -> tuple[np.ndarray, np.ndarray]:
        """Angular wavenumbers (kx, ky) of the rfft2 half spectrum.

        kx has shape (n, 1) in DFT ordering, ky shape (1, n//2 + 1) from 0
        to the Nyquist wavenumber; mode j carries k = pi*j/L.
        """
        kx = 2.0 * np.pi * np.fft.fftfreq(self.n, d=self.spacing)
        ky = 2.0 * np.pi * np.fft.rfftfreq(self.n, d=self.spacing)
        return kx[:, None], ky[None, :]


def require_matrix(a: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Validate a 2-D finite float64 matrix, converting dtype if needed."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise ShapeError(f"{name} must be 2-D, got ndim={a.ndim}")
    if a.size and not np.all(np.isfinite(a)):
        raise DataError(f"{name} contains non-finite entries")
    return a


def thin_svd(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Thin SVD ``A = U @ diag(sigma) @ V.T`` with sigma descending.

    Returns (U, sigma, V); note V, not V transposed.
    """
    a = require_matrix(a, "SVD input")
    if a.shape[0] < 1 or a.shape[1] < 1:
        raise ShapeError("SVD input must be nonempty")
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    return u, s, vt.T


def _periodic_positions(src_grid: Grid2D, dst_grid: Grid2D) -> np.ndarray:
    """Destination node positions in fractional source-node units."""
    if src_grid.L != dst_grid.L:
        raise ValidationError(
            f"grids must share the domain half-length, got {src_grid.L} vs {dst_grid.L}"
        )
    if dst_grid.n < src_grid.n:
        raise ValidationError(
            f"destination grid must be at least as fine as the source "
            f"(n_dst={dst_grid.n} < n_src={src_grid.n})"
        )
    return (dst_grid.coords() + src_grid.L) / src_grid.spacing


def nearest_index_map(src_grid: Grid2D, dst_grid: Grid2D) -> np.ndarray:
    """Per-axis source index nearest to each destination node.

    Exact half-cell ties resolve to the rightward (larger-coordinate) node,
    with periodic wrap.
    """
    p = _periodic_positions(src_grid, dst_grid)
    return (np.floor(p + 0.5).astype(np.intp)) % src_grid.n


def bilinear_weight_map(
    src_grid: Grid2D, dst_grid: Grid2D
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-axis lower/upper source indices and upper-node weight."""
    p = _periodic_positions(src_grid, dst_grid)
    i0 = np.floor(p).astype(np.intp) % src_grid.n
    i1 = (i0 + 1) % src_grid.n
    frac = p - np.floor(p)
    return i0, i1, frac


def interp_time(
    values: np.ndarray, t_src: np.ndarray, t_dst: np.ndarray
) -> np.ndarray:
    """Piecewise-linear interpolation along the last axis.

    ``values`` holds samples at strictly increasing ``t_src`` in its last
    axis. Queries outside the source span raise; there is no silent
    extrapolation. Exact (bitwise) at source times.
    """
    values = np.asarray(values, dtype=np.float64)
    t_src = np.asarray(t_src, dtype=np.float64)
    t_dst = np.asarray(t_dst, dtype=np.float64)
    if t_src.ndim != 1 or t_src.size < 1:
        raise ShapeError("source times must be a nonempty 1-D vector")
    if values.shape[-1] != t_src.size:
        raise ShapeError(
            f"last axis of values ({values.shape[-1]}) must match source times ({t_src.size})"
        )
    if np.any(np.diff(t_src) <= 0):
        raise ValidationError("source times must be strictly increasing")
    if t_src.size == 1:
        if not np.array_equal(t_dst, t_src):
            raise ExtrapolationError("single-sample series supports only its own time")
        return values.copy()
    span = t_src[-1] - t_src[0]
    tol = 1e-9 * span
    if t_dst.size and (t_dst.min() < t_src[0] - tol or t_dst.max() > t_src[-1] + tol):
        raise ExtrapolationError(
            f"query times [{t_dst.min()}, {t_dst.max()}] exceed source span "
            f"[{t_src[0]}, {t_src[-1]}]"
        )
    t_q = np.clip(t_dst, t_src[0], t_src[-1])
    seg = np.clip(np.searchsorted(t_src, t_q, side="right") - 1, 0, t_src.size - 2)
    w = (t_q - t_src[seg]) / (t_src[seg + 1] - t_src[seg])
    return (1.0 - w) * values[..., seg] + w * values[..., seg + 1]
