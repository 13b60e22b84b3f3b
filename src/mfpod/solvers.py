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

``generate_dataset`` runs a sweep at HF sizes as two loops, one on the
calling thread and one on a worker thread (``_split`` gives the rule and
its measurements). The bits do not change, because each run is
bit-identical to its run alone. The solver calls only pocketfft and
ufuncs, no BLAS, so its two threads never multiply BLAS's own.
``solve_rd`` and ``solve_sw`` always run one loop.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import partial
from threading import Thread
from typing import ClassVar

import numpy as np
from numpy.fft import _pocketfft_umath as _pocketfft

from .errors import InstabilityError, ValidationError
from .numerics import Grid2D, require_size
from .snapshots import FIDELITIES, ParameterGrid, SnapshotSet


# gufunc axes of a 1-D pass along the grid's first axis: input, factor, output
_COLUMNS = [(-2,), (), (-2,)]
# grid points per FFT pass from which a sweep splits in two loops (``_split``)
_SPLIT_POINTS = 2**14


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
    """The parameter values of a sweep as a nonempty, finite 1-D float vector."""
    values = np.asarray(mus, dtype=np.float64)
    if values.ndim != 1 or values.size < 1:
        raise ValidationError("parameter values must be a nonempty 1-D vector")
    finite = np.isfinite(values)
    if not finite.all():
        raise ValidationError(f"parameter mu must be finite, got mu={values[~finite][0]}")
    return values


def _integrate(
    state_hat: np.ndarray, rhs, buffers, times: np.ndarray, dt: float, data: np.ndarray
) -> tuple[int, int] | None:
    """Classical RK4 on a stacked half-spectrum state; one column of ``data`` per step and mu.

    ``state_hat`` has the field-major shape (n_fields, n_mu, n, n//2+1),
    one run per parameter value, and is advanced in place; each field is
    one contiguous block, so the stage updates below and the right-hand
    side's elementwise calls run on contiguous operands (module docstring).
    ``rhs(hat, out, store)`` writes d(hat)/dt into ``out`` and, when
    ``store`` is set, returns the physical fields of ``hat``, in the same
    layout: the k1 stage of a step also yields the snapshot of the state it
    starts from. Column i*n_t + j of the column-major ``data``
    (n_fields*n^2, n_mu*n_t) receives the flattened fields of run i at
    ``times[j]``, the parameter-major order of a ``SnapshotSet``. The
    ``buffers`` k1, k2, k3, k4, stage and sum, each shaped like
    ``state_hat``, are reused at every step; each update is the same
    operation on the same operands, in the same order, as
    ``state + (dt/6) * (k1 + 2*k2 + 2*k3 + k4)`` written out.

    Returns None once every step is stored. A step after which some run's
    state is no longer finite ends the loop and returns (step, i), i the
    first such run in input order.
    """
    n_fields, n_mu, n = state_hat.shape[:3]
    # column-major view: data[ix + n*iy + n*n*f, i*n_t + j] is columns[ix, iy, f, j, i]
    columns = data.reshape((n, n, n_fields, times.size, n_mu), order="F")
    k1, k2, k3, k4, stage, acc = buffers
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
            if not np.isfinite(state_hat).all():
                return step, int(np.argmin(np.isfinite(state_hat).all(axis=(0, 2, 3))))
            columns[..., step, :] = rhs(state_hat, k1, True).transpose(2, 3, 0, 1)
    return None


def _sweep(build, cfg: _RunChecks, mus: np.ndarray, split: int):
    """Times and snapshot matrix of the runs at ``mus``, split at ``split`` into two RK4 loops.

    ``mus[:split]`` run on the calling thread and the rest, if any, on a
    worker thread. ``build(cfg, mus)`` returns the initial half spectrum
    and right-hand side of the runs at ``mus``. Both groups are set up on
    the calling thread, their RK4 buffers and the snapshot matrix included,
    so the worker's loop allocates nothing that outlives it in its own
    malloc arena, and the transform plans both loops use are in numpy's
    plan cache before the worker starts. Each loop writes into its own
    column block of the one snapshot matrix and runs to its end or to its
    own first divergence, so a diverging split sweep reports once both
    loops have ended. An exception of a loop is raised again on the calling
    thread, the first group's first. Of the runs that diverge, the earliest
    step wins and a tie goes to input order, as in one loop.
    """
    times = time_grid(cfg.T, cfg.dt)
    n_t = times.size
    groups = [slice(0, split)] + ([slice(split, mus.size)] if split < mus.size else [])
    loops = []
    for group in groups:
        state_hat, rhs = build(cfg, mus[group])
        loops.append((state_hat, rhs, [np.empty_like(state_hat) for _ in range(6)]))
    n_fields, _, n = loops[0][0].shape[:3]
    data = np.empty((n_fields * n * n, mus.size * n_t), order="F")
    # per loop: its first divergence as (step, index in mus), the exception
    # it raised, or None
    outcomes = [None] * len(groups)

    def run(g):
        group = groups[g]
        try:
            failure = _integrate(*loops[g], times, cfg.dt,
                                 data[:, group.start * n_t : group.stop * n_t])
        except Exception as exc:
            outcomes[g] = exc
            return
        if failure is not None:
            outcomes[g] = (failure[0], group.start + failure[1])

    worker = Thread(target=run, args=(1,)) if len(groups) > 1 else None
    if worker is not None:
        worker.start()
    try:
        run(0)
    finally:
        if worker is not None:
            worker.join()
    for outcome in outcomes:
        if isinstance(outcome, Exception):
            raise outcome
    failures = [outcome for outcome in outcomes if outcome is not None]
    if failures:
        step, i = min(failures)
        raise InstabilityError(
            f"mu = {mus[i]:g}: solver produced non-finite values at "
            f"step {step} (t = {times[step]:g}); reduce dt or resolution demands"
        )
    return times, data


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
    column blocks. ``ic`` and ``include_reaction`` are test hooks (defaults
    reproduce the benchmark).
    """
    mus = _parameter_values([cfg.mu] if mus is None else mus)
    build = partial(_rd_system, ic=ic, include_reaction=include_reaction)
    return _sweep(build, cfg, mus, mus.size)


def _rd_system(cfg: RdConfig, mus: np.ndarray, ic=None, include_reaction: bool = True):
    """Initial half spectrum and buffered right-hand side of the rd runs at ``mus``."""
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

    return state_hat, rhs


def solve_sw(
    cfg: SwConfig, ic: np.ndarray | None = None, *, mus: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Integrate the vorticity transport problem; snapshots at every step.

    Each RK4 stage re-solves the Poisson problem for the streamfunction
    (zero-mean gauge), forms the advection bracket pseudo-spectrally, and
    adds exact spectral diffusion. Returns (times, data) with data
    (n^2, n_steps+1) holding flattened vorticity columns. ``mus`` runs these
    parameter values in place of ``cfg.mu``, side by side, into consecutive
    column blocks.
    """
    mus = _parameter_values([cfg.mu] if mus is None else mus)
    return _sweep(partial(_sw_system, ic=ic), cfg, mus, mus.size)


def _sw_system(cfg: SwConfig, mus: np.ndarray, ic: np.ndarray | None = None):
    """Initial half spectrum and buffered right-hand side of the sw runs at ``mus``."""
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

    return state_hat, rhs


def _problem(name: str):
    """Run config class, system builder, field names and transform width of a problem.

    The width is the number of fields one parameter value's inverse FFT
    pass transforms: rd's u and v, sw's psi_x, psi_y, w_x and w_y.
    """
    if name == "rd":
        return RdConfig, _rd_system, ("u", "v"), 2
    if name == "sw":
        return SwConfig, _sw_system, ("omega",), 4
    raise ValidationError(f"unknown problem {name!r} (expected 'rd' or 'sw')")


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the OS keeps one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _split(n_mu: int, points: int) -> int:
    """Index of the first value of a sweep's second loop, or ``n_mu`` for one loop.

    ``points`` is the grid points one value transforms per FFT pass (the
    width of ``_problem`` times n^2). The sweep splits into ceil(n_mu/2)
    and floor(n_mu/2) values when two CPUs are usable and the larger group
    transforms at least ``_SPLIT_POINTS``. Below that size a second thread
    costs more than it gives. Time with two threads over time with one
    loop, one BLAS thread, median of 5 interleaved runs:

    ========  ====  ====  ==========
    problem   grid  n_mu  ratio
    ========  ====  ====  ==========
    rd        64^2  3     0.85
    rd        64^2  4     0.66
    rd        100^2 3     0.65
    sw        64^2  2-3   0.80
    sw        128^2 2     0.57
    rd        64^2  2     1.07-1.18 (one loop)
    sw        48^2  2     1.05 (one loop)
    rd        32^2  3     1.97 (one loop)
    sw        32^2  2     1.74 (one loop)
    ========  ====  ====  ==========
    """
    half = -(-n_mu // 2)
    if n_mu < 2 or half * points < _SPLIT_POINTS or _usable_cpus() < 2:
        return n_mu
    return half


def generate_dataset(
    problem: str,
    profile: FidelityProfile,
    params: ParameterGrid | np.ndarray,
    T: float,
) -> SnapshotSet:
    """Run the solver at every parameter value, in order, into one SnapshotSet.

    Each trajectory is bit-identical to a run of its value alone. The
    values advance side by side in one RK4 loop, or, at HF sizes
    (``_split``), in two loops on two threads (``_sweep``). A diverging run
    is named by its parameter value, in the same message on one loop or
    two; on two, it is reported once both loops have ended.
    """
    values = _parameter_values(params.values if isinstance(params, ParameterGrid) else params)
    config, build, field_names, width = _problem(problem)
    extra = {} if profile.d is None else {"d": profile.d}
    cfg = config(n=profile.n, T=T, mu=float(values[0]), dt=profile.dt, **extra)
    n_dof = len(field_names) * cfg.n**2
    require_size(n_dof * values.size * _step_count(T, profile.dt), "the snapshot matrix")
    times, data = _sweep(build, cfg, values, _split(values.size, width * cfg.n**2))
    return SnapshotSet(
        fidelity=profile.fidelity,
        data=data,
        grid=Grid2D(profile.n, config.L),
        times=times,
        params=values[:, None],
        field_names=field_names,
    )
