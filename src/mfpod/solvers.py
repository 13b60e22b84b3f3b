"""Fourier pseudo-spectral generators of high- and low-fidelity datasets.

Two benchmark problems on periodic square domains:

* ``rd`` — a lambda-omega reaction-diffusion system for (u, v):
      u_t = (1 - (u^2+v^2)) u + mu (u^2+v^2) v + d (u_xx + u_yy)
      v_t = -mu (u^2+v^2) u + (1 - (u^2+v^2)) v + d (v_xx + v_yy)
  on [-20, 20]^2, producing rotating spiral waves on a limit cycle.

* ``sw`` — advection-diffusion of vorticity in the shallow-water limit:
      w_t + mu (psi_x w_y - psi_y w_x) = d laplace(w),   laplace(psi) = w
  on [-10, 10]^2 with a stretched-Gaussian initial vorticity.

Both solvers hold the state as one stacked real-to-complex half spectrum of
shape (n_fields, n, n//2 + 1) (``rfft2`` over the two grid axes), apply
diffusion exactly by wavenumber multiplication, evaluate nonlinear terms
pseudo-spectrally in physical space, and advance with classical fixed-step
RK4 through one shared loop, which also stores every step and stops a
diverging run. First derivatives multiply by i*k with the Nyquist wavenumber
set to 0: the Nyquist mode of a real field has no real odd derivative, and
this is what taking the real part of a full complex transform gives. No
dealiasing filter is applied. Snapshots are stored at every step, so a run
over [0, T] yields round(T/dt) + 1 columns. Trajectories are deterministic:
identical configs give bit-identical output.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import InstabilityError, ValidationError
from .numerics import Grid2D
from .snapshots import FIDELITIES, ParameterGrid, SnapshotSet


class _RunChecks:
    """Checks every run config makes on its grid size, step, span, parameter and diffusion."""

    def __post_init__(self):
        Grid2D(self.n, self.L)
        if not (self.dt > 0):
            raise ValidationError(f"time step must be positive, got dt={self.dt}")
        if not (0 <= self.T < np.inf):
            raise ValidationError(f"final time must be finite and nonnegative, got T={self.T}")
        if not np.isfinite(self.mu):
            raise ValidationError(f"parameter mu must be finite, got mu={self.mu}")
        if not (self.d > 0):
            raise ValidationError(f"diffusion coefficient must be positive, got {self.d}")


@dataclass
class RdConfig(_RunChecks):
    """Reaction-diffusion run: reaction strength ``mu``, diffusion ``d``."""

    L: ClassVar[float] = 20.0

    n: int
    T: float
    mu: float
    d: float = 0.05
    dt: float = 0.05


@dataclass
class SwConfig(_RunChecks):
    """Shallow-water vorticity run: advection strength ``mu``, diffusion ``d``."""

    L: ClassVar[float] = 10.0

    n: int
    T: float = 20.0
    mu: float = 3.0
    d: float = 0.001
    dt: float = 0.25


@dataclass(frozen=True)
class FidelityProfile:
    """Numerical resolution plus optional physical corruption of one fidelity level.

    ``d`` overrides the problem's diffusion coefficient when set (the
    corrupted-physics low-fidelity mode); ``None`` keeps the default.
    """

    fidelity: str
    n: int
    dt: float
    d: float | None = None

    def __post_init__(self):
        if self.fidelity not in FIDELITIES:
            raise ValidationError(f"fidelity must be 'HF' or 'LF', got {self.fidelity!r}")
        if self.n < 4 or self.n % 2:
            raise ValidationError(f"profile grid size must be even and >= 4, got {self.n}")
        if not (self.dt > 0):
            raise ValidationError(f"profile time step must be positive, got {self.dt}")


def time_grid(T: float, dt: float) -> np.ndarray:
    """Snapshot times of a run over [0, T] at step ``dt``: round(T/dt) + 1 of them."""
    if not (0 <= T < np.inf):
        raise ValidationError(f"final time must be finite and nonnegative, got T={T}")
    return dt * np.arange(int(round(T / dt)) + 1)


def rd_initial(grid: Grid2D) -> tuple[np.ndarray, np.ndarray]:
    """Spiral-seed initial condition, identical for both components.

    u0 = v0 = tanh(r * cos(theta - r)) with r the radius and theta the
    complex argument of x + iy (theta = 0 at the origin), evaluated
    nodewise.
    """
    X, Y = grid.meshes()
    r = np.sqrt(X**2 + Y**2)
    theta = np.angle(X + 1j * Y)
    u0 = np.tanh(r * np.cos(theta - r))
    return u0, u0.copy()


def sw_initial(grid: Grid2D) -> np.ndarray:
    """Stretched-Gaussian initial vorticity exp(-2x^2 - y^2/20)."""
    X, Y = grid.meshes()
    return np.exp(-2.0 * X**2 - Y**2 / 20.0)


def _derivative_multipliers(grid: Grid2D) -> tuple[np.ndarray, np.ndarray]:
    """Half-spectrum multipliers i*kx, i*ky of d/dx, d/dy, Nyquist set to 0.

    The Nyquist mode of a real field has no odd derivative that is real, so
    it is dropped, as taking the real part of a full complex transform does.
    """
    kx, ky = grid.half_wavenumbers()
    kx[grid.n // 2, 0] = 0.0
    ky[0, grid.n // 2] = 0.0
    return 1j * kx, 1j * ky


def _laplacian_symbols(grid: Grid2D) -> tuple[np.ndarray, np.ndarray]:
    """k^2 = kx^2 + ky^2 on the half spectrum and its inverse, 0 at k = 0."""
    kx, ky = grid.half_wavenumbers()
    k2 = kx**2 + ky**2
    inv_k2 = np.zeros_like(k2)
    nonzero = k2 > 0
    inv_k2[nonzero] = 1.0 / k2[nonzero]
    return k2, inv_k2


def solve_poisson(omega: np.ndarray, grid: Grid2D) -> np.ndarray:
    """Solve laplace(psi) = omega spectrally with a zero-mean gauge for psi."""
    _, inv_k2 = _laplacian_symbols(grid)
    return np.fft.irfft2(-np.fft.rfft2(omega) * inv_k2, s=(grid.n, grid.n))


def _integrate(state_hat: np.ndarray, rhs, times: np.ndarray, dt: float) -> np.ndarray:
    """Classical RK4 on a stacked half-spectrum state; one column per step.

    ``state_hat`` has shape (n_fields, n, n//2+1). ``rhs(hat)`` returns
    d(hat)/dt and the physical fields of ``hat``, so the k1 stage of a step
    also yields the snapshot of the state it starts from. Column j stacks
    the flattened fields at ``times[j]``.
    """
    n_fields, n = state_hat.shape[:2]
    data = np.empty((n_fields * n * n, times.size), dtype=np.float64, order="F")
    # column-major view: data[ix + n*iy + n*n*f, j] is columns[ix, iy, f, j]
    columns = data.reshape((n, n, n_fields, times.size), order="F")
    # overflow in a diverging run is reported as InstabilityError, not warnings
    with np.errstate(over="ignore", invalid="ignore"):
        k1, fields = rhs(state_hat)
        columns[..., 0] = np.moveaxis(fields, 0, -1)
        for step in range(1, times.size):
            k2, _ = rhs(state_hat + 0.5 * dt * k1)
            k3, _ = rhs(state_hat + 0.5 * dt * k2)
            k4, _ = rhs(state_hat + dt * k3)
            state_hat = state_hat + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            _check_finite(state_hat, step, times[step])
            k1, fields = rhs(state_hat)
            columns[..., step] = np.moveaxis(fields, 0, -1)
    return data


def _check_finite(state_hat: np.ndarray, step: int, t: float) -> None:
    if not np.all(np.isfinite(state_hat)):
        raise InstabilityError(
            f"solver produced non-finite values at step {step} (t = {t:g}); "
            f"reduce dt or resolution demands"
        )


def solve_rd(
    cfg: RdConfig,
    ic: tuple[np.ndarray, np.ndarray] | None = None,
    include_reaction: bool = True,
) -> tuple[np.ndarray, np.ndarray]:
    """Integrate the reaction-diffusion system; snapshots at every step.

    Returns (times, data) with data (2*n^2, n_steps+1): each column stacks
    the flattened u field over the flattened v field. ``ic`` and
    ``include_reaction`` are test hooks (defaults reproduce the benchmark).
    """
    grid = Grid2D(cfg.n, cfg.L)
    k2, _ = _laplacian_symbols(grid)
    diffusion = cfg.d * k2
    n = cfg.n

    u0, v0 = rd_initial(grid) if ic is None else ic
    state_hat = np.fft.rfft2(np.stack((u0, v0)).astype(np.float64))

    def rhs(hat):
        fields = np.fft.irfft2(hat, s=(n, n))
        if not include_reaction:
            return -diffusion * hat, fields
        u, v = fields
        a2 = u * u + v * v
        growth, rotation = 1.0 - a2, cfg.mu * a2
        reaction = np.fft.rfft2(np.stack((growth * u + rotation * v, growth * v - rotation * u)))
        return reaction - diffusion * hat, fields

    times = time_grid(cfg.T, cfg.dt)
    return times, _integrate(state_hat, rhs, times, cfg.dt)


def solve_sw(cfg: SwConfig, ic: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Integrate the vorticity transport problem; snapshots at every step.

    Each RK4 stage re-solves the Poisson problem for the streamfunction
    (zero-mean gauge), forms the advection bracket pseudo-spectrally, and
    adds exact spectral diffusion. Returns (times, data) with data
    (n^2, n_steps+1) holding flattened vorticity columns.
    """
    grid = Grid2D(cfg.n, cfg.L)
    k2, inv_k2 = _laplacian_symbols(grid)
    diffusion = cfg.d * k2
    ikx, iky = _derivative_multipliers(grid)
    # psi_x, psi_y, w_x, w_y and w itself from w_hat, with psi_hat = -w_hat / k^2
    multipliers = np.stack(np.broadcast_arrays(
        -ikx * inv_k2, -iky * inv_k2, ikx, iky, np.ones_like(k2)))
    n = cfg.n

    w0 = sw_initial(grid) if ic is None else ic
    state_hat = np.fft.rfft2(np.asarray(w0, dtype=np.float64))[None]

    def rhs(hat):
        psi_x, psi_y, w_x, w_y, w = np.fft.irfft2(multipliers * hat, s=(n, n))
        bracket = np.fft.rfft2(psi_x * w_y - psi_y * w_x)
        return -cfg.mu * bracket - diffusion * hat, w[None]

    times = time_grid(cfg.T, cfg.dt)
    return times, _integrate(state_hat, rhs, times, cfg.dt)


def _problem(name: str):
    """Run config class, solver and field names of a benchmark problem."""
    if name == "rd":
        return RdConfig, solve_rd, ("u", "v")
    if name == "sw":
        return SwConfig, solve_sw, ("omega",)
    raise ValidationError(f"unknown problem {name!r} (expected 'rd' or 'sw')")


def generate_dataset(
    problem: str,
    profile: FidelityProfile,
    params: ParameterGrid | np.ndarray,
    T: float,
) -> SnapshotSet:
    """Run the solver at every parameter value, in order, into one SnapshotSet.

    Each trajectory is written into its own column block of the dataset as
    soon as it is solved.
    """
    values = params.values if isinstance(params, ParameterGrid) else np.asarray(params, float)
    if values.ndim != 1 or values.size < 1:
        raise ValidationError("parameter values must be a nonempty 1-D vector")
    config, solve, field_names = _problem(problem)
    extra = {} if profile.d is None else {"d": profile.d}
    grid = Grid2D(profile.n, config.L)
    times = time_grid(T, profile.dt)
    data = np.empty((len(field_names) * grid.n**2, values.size * times.size),
                    dtype=np.float64, order="F")
    blocks = data.reshape(data.shape[0], values.size, times.size)
    for i, mu in enumerate(values):
        try:
            cfg = config(n=profile.n, T=T, mu=float(mu), dt=profile.dt, **extra)
            blocks[:, i] = solve(cfg)[1]
        except InstabilityError as exc:
            raise InstabilityError(f"mu = {mu:g}: {exc}") from exc
    return SnapshotSet(
        fidelity=profile.fidelity,
        data=data,
        grid=grid,
        times=times,
        params=values[:, None],
        field_names=field_names,
    )
