"""Reduced-basis construction and coefficient projection.

The basis is the set of dominant left singular vectors of the high-fidelity
snapshot matrix. Truncation follows either a fixed mode count or an energy
tolerance ``tol``: the retained count is the minimum N such that

    sum_{i<=N} sigma_i^2 / sum_i sigma_i^2  >=  1 - tol^2.

Tall snapshot sets (n <= m) go through the method of snapshots: the
eigendecomposition of the small Gram matrix X^T X, forming only the retained
left vectors. Its rank cut resolves sigma only down to
sqrt(max(m, n) * eps) * sigma_0, the thin SVD's down to max(m, n) * eps *
sigma_0, so wide sets and tall sets whose rule retains a mode below the Gram
rank cut take the thin SVD. The cut bounds the noise in sigma, not the
accuracy of the modes just above it: on a 2048 x 1100 test set, the Gram
route put mode k off the true subspace by about 1e-3 eps (sigma_0/sigma_k)^2
and the SVD within 1e-9. The test suite cross-checks both routes.

The Gram matrix is summed over column panels of its upper triangle,
X[:, :k]^T X[:, j:k]. Panel edges sit at multiples of ``_BLOCK`` (64); a
panel spans up to four blocks, and the last partial block is a panel of its
own, so every product is 64, 128, 192 or 256 columns wide, or under 64.
Every entry has the bits it has in 64-column blocks, and the panels are
about a fifth faster at 8192x1203. The upper triangle is then mirrored in
place one block at a time, every entry stored + 0.0, so the matrix is
exactly symmetric. The left vectors X @ V are summed over fixed panels of
``_BLOCK`` columns of X. Under OpenBLAS both products gave the same bits
under 1 and 2 threads at 512x123, 1024x250, 2048x500, 4096x603, 8192x603,
8192x1203 and 20000x1203, which ``scripts/identity_probe.py`` checks at
benchmark size. They did not at 1300x1100 or 1500x1100, and neither did
whole-matrix syrk or gemm Gram products at any shape tried, nor plain
256-column panels at 512x123, 1024x250 or 2048x500, whose last panels are
123, 250 and 244 columns wide: at 512 to 8192 rows, X_w^T X_w changed bits
with the thread count at w = 123, 125, 129, 179, 230, 244 and 250 columns,
but not at 64, 128, 192 or 256. ``eigh`` at 603 and 1203 columns and the
thin SVD at 8192x603 and 8192x1203 are not thread-invariant either, so a
basis of benchmark size may still differ in the last bits between thread
counts.

Each retained mode is flipped so that its largest-magnitude entry is
positive (the ``svd_flip`` convention), on both routes. Singular vectors are
defined only up to sign, and without a rule rounding noise in the snapshots
flips modes, and with them the targets the network is trained on.

Mean subtraction before the SVD is off by default; ``PodRule.center``
enables it, in which case the mean is stored on the basis and re-added on
reconstruction.

``reconstruct`` forms modes @ coeffs directly in column-major storage, the
layout of a snapshot set, as one GEMM on the transposed operands; its bits
may differ from the row-major product ``modes @ coeffs`` in the last place.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError, ValidationError
from .numerics import Grid2D, require_matrix, thin_svd
from .snapshots import SnapshotSet

# Column width of the Gram blocks and X @ V panels. Wider blocks are faster at
# 1203 columns, but 320 and 448 gave thread-dependent bits at 8192x1203 and 384
# at 8192x603; 64 and 96 did not at any shape tried.
_BLOCK = 64
# Whole blocks per Gram panel: products 64, 128, 192 and 256 wide give every
# entry the bits of 64-wide ones
_PANEL_BLOCKS = 4


@dataclass(frozen=True)
class PodRule:
    """Truncation rule: exactly one of ``n_modes`` (fixed) or ``tol`` (energy)."""

    n_modes: int | None = None
    tol: float | None = None
    center: bool = False

    def __post_init__(self):
        if (self.n_modes is None) == (self.tol is None):
            raise ValidationError("specify exactly one of n_modes or tol")
        if self.n_modes is not None and self.n_modes < 1:
            raise ValidationError(f"n_modes must be >= 1, got {self.n_modes}")
        if self.tol is not None and not (0.0 < self.tol < 1.0):
            raise ValidationError(f"tolerance must lie in (0, 1), got {self.tol}")


@dataclass
class PodBasis:
    """Orthonormal reduced basis with its full singular-value spectrum."""

    modes: np.ndarray
    sigma: np.ndarray
    eps_pod: float | None
    snapshot_mean: np.ndarray | None
    grid: Grid2D
    field_names: tuple[str, ...]

    def __post_init__(self):
        mean = () if self.snapshot_mean is None else (self.snapshot_mean,)
        if not all(np.all(np.isfinite(a)) for a in (self.modes, self.sigma, *mean)):
            raise ValidationError("basis modes, sigma and mean must be finite")

    @property
    def n_dof(self) -> int:
        return self.modes.shape[0]

    @property
    def n_pod(self) -> int:
        return self.modes.shape[1]


@dataclass
class CoefficientSeries:
    """Reduced coefficients per column, parameter-major like SnapshotSet."""

    coeffs: np.ndarray
    times: np.ndarray
    params: np.ndarray

    def __post_init__(self):
        self.coeffs = np.asfortranarray(self.coeffs, dtype=np.float64)
        self.times = np.asarray(self.times, dtype=np.float64)
        params = np.asarray(self.params, dtype=np.float64)
        if params.ndim == 1:
            params = params[:, None]
        self.params = params
        if self.coeffs.ndim != 2:
            raise ShapeError(f"coefficients must be 2-D, got ndim={self.coeffs.ndim}")
        if self.coeffs.shape[1] != self.n_mu * self.n_t:
            raise ShapeError(
                f"coefficient matrix has {self.coeffs.shape[1]} columns, expected "
                f"{self.n_mu} * {self.n_t}"
            )

    @property
    def n_pod(self) -> int:
        return self.coeffs.shape[0]

    @property
    def n_t(self) -> int:
        return self.times.size

    @property
    def n_mu(self) -> int:
        return self.params.shape[0]


def modes_by_energy(sigma: np.ndarray, tol: float) -> int:
    """Minimum mode count whose squared singular values capture 1 - tol^2."""
    energy = sigma**2
    total = energy.sum()
    if total == 0.0:
        return 1
    cumulative = np.cumsum(energy) / total
    return int(np.argmax(cumulative >= 1.0 - tol**2)) + 1


def _numerical_rank(values: np.ndarray, m: int, n: int) -> int:
    """Count of descending ``values`` above max(m, n) * eps * values[0].

    The Gram route passes the eigenvalues of X^T X, not their square roots,
    whose noise floor near sqrt(eps) * sigma_0 lies far above this cutoff.
    """
    if values.size == 0 or values[0] <= 0.0:
        return 0
    cutoff = max(m, n) * np.finfo(np.float64).eps * values[0]
    return int(np.count_nonzero(values > cutoff))


def _orthonormalize(u: np.ndarray) -> np.ndarray:
    """QR polish of a nearly orthonormal block, keeping column directions."""
    q, r = np.linalg.qr(u)
    return q * np.sign(np.diag(r))


def _gram(x: np.ndarray) -> np.ndarray:
    """X^T X from panels of its upper triangle, mirrored: exactly symmetric.

    Panel edges sit at multiples of ``_BLOCK``; a panel spans up to
    ``_PANEL_BLOCKS`` whole blocks, and the last partial block is a panel of
    its own. Every entry is then stored + 0.0, above the diagonal in place
    and below it from its mirror, one block at a time.
    """
    n = x.shape[1]
    gram = np.empty((n, n))
    full = n - n % _BLOCK
    edges = [*range(0, full, _PANEL_BLOCKS * _BLOCK), full, n]
    for j, k in zip(edges[:-1], edges[1:]):
        if k > j:
            gram[:k, j:k] = x[:, :k].T @ x[:, j:k]
    for j in range(0, n, _BLOCK):
        k = min(j + _BLOCK, n)
        upper = gram[:k, j:k]
        upper += 0.0
        np.copyto(gram[j:k, :j], upper[:j].T)
        diag = gram[j:k, j:k]
        lower = np.tril_indices(k - j, -1)
        diag[lower] = diag.T[lower]
    return gram


def _panel_product(x: np.ndarray, right: np.ndarray) -> np.ndarray:
    """X @ right summed over column panels of X, in a fixed order."""
    out = x[:, :_BLOCK] @ right[:_BLOCK]
    for j in range(_BLOCK, x.shape[1], _BLOCK):
        out += x[:, j:j + _BLOCK] @ right[j:j + _BLOCK]
    return out


def _gram_modes(x: np.ndarray, rule: PodRule) -> tuple[np.ndarray, np.ndarray] | None:
    """Retained left vectors and sigma from the eigenpairs of X^T X.

    None when the rule retains a mode below the Gram rank cut, which only the
    thin SVD resolves.
    """
    m, n = x.shape
    eigvals, eigvecs = np.linalg.eigh(_gram(x))
    lam = eigvals[::-1]
    sigma = np.sqrt(np.clip(lam, 0.0, None))
    n_pod = _resolve_count(sigma, n, rule)  # the count the rule asks for
    if n_pod > _numerical_rank(lam, m, n):
        return None
    modes = _panel_product(x, eigvecs[:, ::-1][:, :n_pod])
    modes /= sigma[:n_pod]
    if np.abs(modes.T @ modes - np.eye(n_pod)).max() > 1e-12:
        modes = _orthonormalize(modes)
    return modes, sigma


def _fix_signs(modes: np.ndarray) -> None:
    """Flip each column in place so that its largest-magnitude entry is positive."""
    peak = modes[np.argmax(np.abs(modes), axis=0), np.arange(modes.shape[1])]
    modes *= np.where(peak < 0, -1.0, 1.0)


def build_basis(snaps: SnapshotSet, rule: PodRule) -> PodBasis:
    """Extract the reduced basis from a (high-fidelity) snapshot set."""
    x = snaps.data
    if x.shape[1] < 1 or x.shape[0] < 1:
        raise ValidationError("cannot build a basis from an empty snapshot set")
    mean = None
    if rule.center:
        mean = x.mean(axis=1)
        x = x - mean[:, None]

    m, n = x.shape
    found = _gram_modes(x, rule) if n <= m else None
    if found is None:
        u, sigma, _ = thin_svd(x)
        modes = u[:, :_resolve_count(sigma, _numerical_rank(sigma, m, n), rule)]
    else:
        modes, sigma = found
    _fix_signs(modes)

    return PodBasis(
        modes=np.asfortranarray(modes),
        sigma=sigma,
        eps_pod=rule.tol,
        snapshot_mean=mean,
        grid=snaps.grid,
        field_names=snaps.field_names,
    )


def _resolve_count(sigma: np.ndarray, rank: int, rule: PodRule) -> int:
    if rule.tol is not None:
        return modes_by_energy(sigma, rule.tol)
    return min(rule.n_modes, max(rank, 1), sigma.size)


def project(basis: PodBasis, snaps: SnapshotSet) -> CoefficientSeries:
    """Reduced coefficients of snapshots living on the basis grid."""
    if snaps.n_dof != basis.n_dof:
        raise ShapeError(
            f"snapshot rows ({snaps.n_dof}) do not match basis rows ({basis.n_dof})"
        )
    x = snaps.data
    if basis.snapshot_mean is not None:
        x = x - basis.snapshot_mean[:, None]
    return CoefficientSeries(
        coeffs=basis.modes.T @ x,
        times=snaps.times,
        params=snaps.params,
    )


def _full_fields(basis: PodBasis, series: CoefficientSeries, out: np.ndarray) -> np.ndarray:
    """Write modes @ coeffs (+ mean) into the column-major ``out`` and return it.

    With a column-major ``out`` matmul runs one GEMM on the transposed
    operands, so the product is formed where it is stored, with no row-major
    copy. Its bits are those of (coeffs^T @ modes^T)^T, which may differ from
    modes @ coeffs in the last place.
    """
    coeffs = require_matrix(series.coeffs, "coefficients")
    if coeffs.shape[0] != basis.n_pod:
        raise ShapeError(
            f"coefficient rows ({coeffs.shape[0]}) do not match basis n_pod ({basis.n_pod})"
        )
    np.matmul(basis.modes, coeffs, out=out)
    if basis.snapshot_mean is not None:
        out += basis.snapshot_mean[:, None]
    return out


def reconstruct(basis: PodBasis, series: CoefficientSeries) -> SnapshotSet:
    """Full fields from reduced coefficients: modes @ coeffs (+ mean), column-major."""
    out = np.empty((basis.n_dof, series.coeffs.shape[1]), order="F")
    return SnapshotSet(
        fidelity="HF",
        data=_full_fields(basis, series, out),
        grid=basis.grid,
        times=series.times,
        params=series.params,
        field_names=basis.field_names,
    )
