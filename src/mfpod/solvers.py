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
shape (n_fields, n_mu, n, n//2 + 1) (``rfft2`` over the two grid axes), apply
diffusion exactly by wavenumber multiplication, evaluate nonlinear terms
pseudo-spectrally in physical space, and advance with classical fixed-step
RK4 through one shared loop, which also stores every step and stops a
diverging run. The second axis carries the parameter values of a sweep, so
all of them advance in one RK4 loop; each trajectory is bit-identical to a
run of its parameter alone, and a single run is the n_mu = 1 case. Being
field-major, each field of the state and of every buffer is one contiguous
(n_mu, n, n) block, and the multipliers a stage reads are materialised at
full operand shape once per solve, so only sw's multipliers times state is
a broadcast: at 32^2 x 3 mu, a multiply on a strided field view cost 5.3 us
against 2.3 us contiguous, and a broadcast complex diffusion product 4.9 us
against 2.4 us (5.2/3.8 and 14.2/8.5 us at 64^2), some 11 calls per rd
stage. The RK4 stage slopes, stage state and sum, the transform outputs and the
nonlinear terms and their products live in buffers allocated once per
solve and reused at every stage; the two-dimensional transforms run as the
one-dimensional passes numpy's own ``rfft2``/``irfft2`` make, so the bits
are theirs. Those passes call the pocketfft gufuncs that ``numpy.fft``
wraps, with the factors it passes them, because at 32^2 the wrappers'
argument handling costs about 3 us around a 4-10 us transform, four times
per RK4 stage. First derivatives multiply by i*k with the Nyquist wavenumber
set to 0: the Nyquist mode of a real field has no real odd derivative, and
this is what taking the real part of a full complex transform gives. No
dealiasing filter is applied. Snapshots are stored at every step, so a run
over [0, T] yields round(T/dt) + 1 columns. Trajectories are deterministic:
identical configs give bit-identical output.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import ClassVar

import numpy as np
from numpy.fft import _pocketfft_umath as _pocketfft

from .errors import InstabilityError, ValidationError
from .numerics import Grid2D, require_size
from .snapshots import FIDELITIES, ParameterGrid, SnapshotSet


# gufunc axes of a 1-D pass along the grid's first axis: input, factor, output
_COLUMNS = [(-2,), (), (-2,)]


def _check_step(n: int, dt: float, d: float | None) -> None:
    """Rules a run config and a fidelity profile share: grid size, step and a given diffusion."""
    Grid2D(n, 1.0)  # the grid-size rule; the half-length does not enter it
    if not (0 < dt < np.inf):
        raise ValidationError(f"time step must be positive and finite, got dt={dt}")
    if d is not None and not (0 < d < np.inf):
        raise ValidationError(f"diffusion coefficient must be positive and finite, got d={d}")


class _RunChecks:
    """Checks every run config makes on its grid size, step, span, parameter and diffusion."""

    def __post_init__(self):
        _check_step(self.n, self.dt, self.d)
        _step_count(self.T, self.dt)
        if not np.isfinite(self.mu):
            raise ValidationError(f"parameter mu must be finite, got mu={self.mu}")


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
        _check_step(self.n, self.dt, self.d)


def _step_count(T: float, dt: float) -> int:
    """round(T/dt) + 1, the snapshot count of a run over [0, T], checked as an array size."""
    if not (0 <= T < np.inf):
        raise ValidationError(f"final time must be finite and nonnegative, got T={T}")
    require_size(T / dt + 1, f"the time grid of T={T} at dt={dt}")
    return int(round(T / dt)) + 1


def time_grid(T: float, dt: float) -> np.ndarray:
    """Snapshot times of a run over [0, T] at step ``dt``: round(T/dt) + 1 of them."""
    return dt * np.arange(_step_count(T, dt))


def rd_initial(grid: Grid2D) -> tuple[np.ndarray, np.ndarray]:
    """One-armed spiral seed of the lambda-omega system.

    u0 = tanh(r) cos(theta - r) and v0 = tanh(r) sin(theta - r), with r the
    radius and theta the complex argument of x + iy (theta = 0 at the
    origin), evaluated nodewise: u0 + i v0 = tanh(r) exp(i (theta - r)),
    whose phase winds once around the origin, so a single spiral forms.
    """
    X, Y = grid.meshes()
    r = np.sqrt(X**2 + Y**2)
    phase = np.angle(X + 1j * Y) - r
    amplitude = np.tanh(r)
    return amplitude * np.cos(phase), amplitude * np.sin(phase)


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


def _parameter_values(mus) -> np.ndarray:
    """The parameter values of a sweep as a nonempty 1-D float vector."""
    values = np.asarray(mus, dtype=np.float64)
    if values.ndim != 1 or values.size < 1:
        raise ValidationError("parameter values must be a nonempty 1-D vector")
    return values


def _run_values(cfg: _RunChecks, mus) -> np.ndarray:
    """``cfg.mu`` alone, or each of ``mus`` checked as ``cfg``'s own parameter."""
    if mus is None:
        return np.array([cfg.mu], dtype=np.float64)
    values = _parameter_values(mus)
    for mu in values:
        replace(cfg, mu=float(mu))
    return values


def _integrate(
    state_hat: np.ndarray, rhs, times: np.ndarray, dt: float, mus: np.ndarray
) -> np.ndarray:
    """Classical RK4 on a stacked half-spectrum state; one column per step and mu.

    ``state_hat`` has the field-major shape (n_fields, n_mu, n, n//2+1),
    one run per entry of ``mus``, and is advanced in place; each field is
    one contiguous block, so the stage updates below and the right-hand
    side's elementwise calls run on contiguous operands (module docstring).
    ``rhs(hat, out, store)`` writes d(hat)/dt into ``out`` and, when
    ``store`` is set, returns the physical fields of ``hat``, in the same
    layout: the k1 stage of a step also yields the snapshot of the state it
    starts from. Column i*n_t + j stacks the flattened fields of run i at
    ``times[j]``, the parameter-major order of a ``SnapshotSet``. The
    stage and sum buffers are allocated once; each update is the same
    operation on the same operands, in the same order, as
    ``state + (dt/6) * (k1 + 2*k2 + 2*k3 + k4)`` written out.
    """
    n_fields, n_mu, n = state_hat.shape[:3]
    data = np.empty((n_fields * n * n, n_mu * times.size), dtype=np.float64, order="F")
    # column-major view: data[ix + n*iy + n*n*f, i*n_t + j] is columns[ix, iy, f, j, i]
    columns = data.reshape((n, n, n_fields, times.size, n_mu), order="F")
    k1, k2, k3, k4, stage, acc = (np.empty_like(state_hat) for _ in range(6))
    # overflow in a diverging run is reported as InstabilityError, not warnings
    with np.errstate(over="ignore", invalid="ignore"):
        columns[..., 0, :] = rhs(state_hat, k1, True).transpose(2, 3, 0, 1)
        for step in range(1, times.size):
            for k_in, k_out, h in ((k1, k2, 0.5 * dt), (k2, k3, 0.5 * dt), (k3, k4, dt)):
                np.multiply(h, k_in, out=stage)
                np.add(state_hat, stage, out=stage)
                rhs(stage, k_out, False)
            np.multiply(2.0, k2, out=acc)
            np.add(k1, acc, out=acc)
            np.multiply(2.0, k3, out=stage)
            np.add(acc, stage, out=acc)
            np.add(acc, k4, out=acc)
            np.multiply(dt / 6.0, acc, out=acc)
            np.add(state_hat, acc, out=state_hat)
            _check_finite(state_hat, step, times[step], mus)
            columns[..., step, :] = rhs(state_hat, k1, True).transpose(2, 3, 0, 1)
    return data


def _check_finite(state_hat: np.ndarray, step: int, t: float, mus: np.ndarray) -> None:
    """Name the first run, in input order, whose state is no longer finite."""
    if np.isfinite(state_hat).all():
        return
    finite = np.isfinite(state_hat).all(axis=(0, 2, 3))
    raise InstabilityError(
        f"mu = {mus[np.argmin(finite)]:g}: solver produced non-finite values at "
        f"step {step} (t = {t:g}); reduce dt or resolution demands"
    )


def solve_rd(
    cfg: RdConfig,
    ic: tuple[np.ndarray, np.ndarray] | None = None,
    include_reaction: bool = True,
    *,
    mus: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Integrate the reaction-diffusion system; snapshots at every step.

    Returns (times, data) with data (2*n^2, n_steps+1): each column stacks
    the flattened u field over the flattened v field. ``mus`` runs these
    parameter values in place of ``cfg.mu``, side by side, into consecutive
    column blocks; each is checked as ``cfg``'s own parameter. ``ic`` and
    ``include_reaction`` are test hooks (defaults reproduce the benchmark).
    """
    mus = _run_values(cfg, mus)
    grid = Grid2D(cfg.n, cfg.L)
    k2, _ = _laplacian_symbols(grid)
    n = cfg.n

    u0, v0 = rd_initial(grid) if ic is None else ic
    state_hat = np.fft.rfft2(np.stack((u0, v0)).astype(np.float64))
    state_hat = np.repeat(state_hat[:, None], mus.size, axis=1)
    # complex and at full operand shape once per solve, not cast and broadcast
    # per call: the diffusion d k^2, or without reaction the decay -d k^2
    symbol = cfg.d * k2 if include_reaction else -(cfg.d * k2)
    diffusion = np.broadcast_to(symbol.astype(np.complex128), state_hat.shape).copy()
    rotation_rate = np.broadcast_to(mus[:, None, None], (mus.size, n, n)).copy()
    spectrum = np.empty_like(state_hat)
    fields, reaction = np.empty((2, 2, mus.size, n, n))
    (u, v), (reaction_u, reaction_v) = fields, reaction
    growth, rotation = np.empty((2, mus.size, n, n))
    inv_n = 1.0 / n

    def rhs(hat, out, store):
        # irfft2 and rfft2 as their 1-D passes, into the buffers above, by
        # the gufuncs np.fft.ifft/irfft/rfft/fft call with numpy's own
        # factors (1/n inverse, 1 forward): numpy 2.4.6's irfft2(..., out=)
        # leaves out unwritten and returns a new array, rfft2(x, out=) costs
        # 6-12 us more per 32^2 call, and each 1-D wrapper about 3 us more
        _pocketfft.ifft(hat, inv_n, axes=_COLUMNS, out=spectrum)
        _pocketfft.irfft(spectrum, inv_n, out=fields)
        if include_reaction:
            # growth u + rotation v and growth v - rotation u, with growth =
            # 1 - a2, rotation = mu a2 and a2 = u u + v v: growth holds a2
            # first, and each buffer is scratch once its value is used
            np.multiply(u, u, out=growth)
            np.add(growth, np.multiply(v, v, out=reaction_u), out=growth)
            np.multiply(rotation_rate, growth, out=rotation)
            np.subtract(1.0, growth, out=growth)
            np.add(np.multiply(growth, u, out=reaction_u),
                   np.multiply(rotation, v, out=reaction_v), out=reaction_u)
            np.subtract(np.multiply(growth, v, out=reaction_v),
                        np.multiply(rotation, u, out=growth), out=reaction_v)
            _pocketfft.rfft_n_even(reaction, 1, out=out)
            _pocketfft.fft(out, 1, axes=_COLUMNS, out=out)
            np.subtract(out, np.multiply(diffusion, hat, out=spectrum), out=out)
        else:
            np.multiply(diffusion, hat, out=out)
        return fields if store else None

    times = time_grid(cfg.T, cfg.dt)
    return times, _integrate(state_hat, rhs, times, cfg.dt, mus)


def solve_sw(
    cfg: SwConfig, ic: np.ndarray | None = None, *, mus: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Integrate the vorticity transport problem; snapshots at every step.

    Each RK4 stage re-solves the Poisson problem for the streamfunction
    (zero-mean gauge), forms the advection bracket pseudo-spectrally, and
    adds exact spectral diffusion. Returns (times, data) with data
    (n^2, n_steps+1) holding flattened vorticity columns. ``mus`` runs these
    parameter values in place of ``cfg.mu``, side by side, into consecutive
    column blocks; each is checked as ``cfg``'s own parameter.
    """
    mus = _run_values(cfg, mus)
    grid = Grid2D(cfg.n, cfg.L)
    k2, inv_k2 = _laplacian_symbols(grid)
    ikx, iky = _derivative_multipliers(grid)
    # psi_x, psi_y, w_x, w_y and w itself from w_hat, with psi_hat = -w_hat / k^2;
    # each is broadcast over the parameter axis of the state it multiplies
    multipliers = np.stack(np.broadcast_arrays(
        -ikx * inv_k2, -iky * inv_k2, ikx, iky, np.ones_like(k2)))[:, None]
    n = cfg.n

    w0 = sw_initial(grid) if ic is None else ic
    state_hat = np.fft.rfft2(np.asarray(w0, dtype=np.float64))
    state_hat = np.repeat(state_hat[None, None], mus.size, axis=1)
    diffusion = np.broadcast_to((cfg.d * k2).astype(np.complex128), state_hat.shape).copy()
    advection = np.broadcast_to((-mus).astype(np.complex128)[:, None, None],
                                state_hat.shape).copy()
    spectra = np.empty((5, mus.size, n, n // 2 + 1), dtype=np.complex128)
    physical = np.empty((5, mus.size, n, n))
    bracket = np.empty((1, mus.size, n, n))
    # w itself is needed only for the stored snapshot; every 1-D line is
    # transformed on its own, so the other four fields keep their bits
    passes = {store: (multipliers[:k], spectra[:k], physical[:k])
              for store, k in ((False, 4), (True, 5))}
    psi_x, psi_y, w_x, w_y, w = physical
    snapshot, diffused = w[None], spectra[:1]
    bracket_w, term = bracket[0], np.empty((mus.size, n, n))
    inv_n = 1.0 / n

    def rhs(hat, out, store):
        # the 2-D transforms are 1-D gufunc passes for the reasons given in solve_rd
        mult, spec, phys = passes[store]
        np.multiply(mult, hat, out=spec)
        _pocketfft.ifft(spec, inv_n, axes=_COLUMNS, out=spec)
        _pocketfft.irfft(spec, inv_n, out=phys)
        np.subtract(np.multiply(psi_x, w_y, out=bracket_w),
                    np.multiply(psi_y, w_x, out=term), out=bracket_w)
        _pocketfft.rfft_n_even(bracket, 1, out=out)
        _pocketfft.fft(out, 1, axes=_COLUMNS, out=out)
        np.multiply(advection, out, out=out)
        np.subtract(out, np.multiply(diffusion, hat, out=diffused), out=out)
        return snapshot if store else None

    times = time_grid(cfg.T, cfg.dt)
    return times, _integrate(state_hat, rhs, times, cfg.dt, mus)


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

    All values advance side by side in one RK4 loop, each checked as a run
    parameter by the solver and each trajectory bit-identical to a run of its
    value alone, written straight into its column block. A diverging run is
    named by its parameter value.
    """
    values = _parameter_values(params.values if isinstance(params, ParameterGrid) else params)
    config, solve, field_names = _problem(problem)
    extra = {} if profile.d is None else {"d": profile.d}
    cfg = config(n=profile.n, T=T, mu=float(values[0]), dt=profile.dt, **extra)
    n_dof = len(field_names) * int(profile.n) ** 2
    require_size(n_dof * values.size * _step_count(T, profile.dt), "the snapshot matrix")
    times, data = solve(cfg, mus=values)
    return SnapshotSet(
        fidelity=profile.fidelity,
        data=data,
        grid=Grid2D(profile.n, config.L),
        times=times,
        params=values[:, None],
        field_names=field_names,
    )
