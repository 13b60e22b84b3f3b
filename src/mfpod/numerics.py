"""Grid, SVD, and interpolation primitives.

All grids are square, equispaced, and periodic: n points per direction on
[-L, L), node i at -L + i * (2L/n), with node n wrapping to node 0.
Fields are (n, n) float64 arrays indexed [ix, iy]; flattened snapshots use
column-major (Fortran) order so that flat index = ix + n * iy.

Every function here is pure and operates on immutable inputs, so the whole
module is safe to call concurrently.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .errors import DataError, ExtrapolationError, ShapeError, ValidationError


def _physical_memory() -> int:
    """The machine's physical memory in bytes; numpy's index limit where unknown."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return np.iinfo(np.intp).max


def require_size(count, what: str) -> None:
    """Check ``count`` float64 values as an array size before anything is
    allocated: numpy must be able to index them, and their bytes must fit in
    the machine's physical memory. Else a ``ValidationError``."""
    if not count <= min(np.iinfo(np.intp).max, _physical_memory() // 8):
        raise ValidationError(
            f"{what} would hold more float64 values than numpy can index or "
            f"{_physical_memory()} bytes of memory hold"
        )


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
        require_size(int(self.n) ** 2, f"a field on the {self.n}^2 grid")

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


def all_finite(a: np.ndarray) -> bool:
    """Whether every entry of the 2-D ``a`` is finite, tested a block of columns at a time.

    A block holds about 2^18 values, so no mask the size of ``a`` is held: a
    snapshot matrix's would add an eighth to its memory. At 8192 x 1203 the
    blocks take as long as one whole-matrix test.
    """
    step = max(1, 2**18 // max(1, a.shape[0]))
    return all(np.isfinite(a[:, i : i + step]).all() for i in range(0, a.shape[1], step))


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
            f"source grid is finer than the destination (n_src={src_grid.n} > n_dst={dst_grid.n})"
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


def interp_weights(t_src: np.ndarray, t_dst: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Segment ``seg`` and upper weight ``w`` of each query time.

    The sample at ``t_dst[j]`` is ``(1 - w[j]) * v[seg[j]] + w[j] * v[seg[j] + 1]``
    for samples ``v`` at the strictly increasing ``t_src``. Queries outside
    the source span raise.
    """
    if t_src.size == 1:
        raise ExtrapolationError("single-sample series supports only its own time")
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
    return seg, w


def interp_segments(
    values: np.ndarray, seg: np.ndarray, w: np.ndarray, axis: int = -1
) -> np.ndarray:
    """The samples ``interp_weights`` describes, taken along ``axis`` of ``values``.

    The result is a new C-ordered array, formed in place with one scratch
    buffer of its size.
    """
    shape = [1] * values.ndim
    shape[axis] = w.size
    out = np.take(values, seg, axis=axis)
    out *= (1.0 - w).reshape(shape)
    term = np.take(values, seg + 1, axis=axis)
    term *= w.reshape(shape)
    out += term
    return out
