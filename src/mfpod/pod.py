"""Reduced-basis construction and coefficient projection.

The basis is the set of dominant left singular vectors of the high-fidelity
snapshot matrix. Truncation follows either a fixed mode count or an energy
tolerance ``tol``: the retained count is the minimum N such that

    sum_{i<=N} sigma_i^2 / sum_i sigma_i^2  >=  1 - tol^2.

Snapshot matrices with more than ``_GRAM_THRESHOLD`` (1024) columns and at
least as many rows go through the eigendecomposition of the small Gram
matrix X^T X, forming only the retained left vectors; every other set,
tall-thin ones of up to 1024 columns included, takes a direct thin SVD.
So the 1203-column rd-offline benchmark set takes the Gram route and the
603-column sets of the other two benchmark workloads the SVD. Both routes
agree to LAPACK accuracy and are cross-checked in the test suite.

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

# Column count up to which the thin SVD is taken; not a speed crossover, as the
# Gram route is faster at every benchmark shape. The SVD resolves sigma down to
# max(m, n) * eps * sigma_0, the Gram rank cut only to sqrt(max(m, n) * eps) * sigma_0.
_GRAM_THRESHOLD = 1024


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
    use_gram = n <= m and n > _GRAM_THRESHOLD
    if use_gram:
        # Sigma first to settle the count, then only the retained left block.
        gram = x.T @ x
        gram = 0.5 * (gram + gram.T)
        eigvals, eigvecs = np.linalg.eigh(gram)
        order = np.argsort(eigvals)[::-1]
        lam = eigvals[order]
        sigma = np.sqrt(np.clip(lam, 0.0, None))
        n_pod = _resolve_count(sigma, _numerical_rank(lam, m, n), rule)
        right = eigvecs[:, order[:n_pod]]
        safe = np.maximum(sigma[:n_pod], np.finfo(np.float64).tiny)
        modes = (x @ right) / safe
        gram_err = np.abs(modes.T @ modes - np.eye(n_pod)).max()
        if gram_err > 1e-12:
            modes = _orthonormalize(modes)
    else:
        u, sigma, _ = thin_svd(x)
        n_pod = _resolve_count(sigma, _numerical_rank(sigma, m, n), rule)
        modes = u[:, :n_pod]
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
