import math
import os
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from mfpod.errors import InstabilityError, ValidationError
from mfpod.numerics import Grid2D
from mfpod.snapshots import ParameterGrid
from mfpod.solvers import (
    FidelityProfile,
    RdConfig,
    SwConfig,
    _derivative_multipliers,
    _laplacian_symbols,
    generate_dataset,
    rd_initial,
    solve_poisson,
    solve_rd,
    solve_sw,
    sw_initial,
    time_grid,
)
from mfpod import presets, solvers


# ---------------------------------------------------------------------------
# initial conditions
# ---------------------------------------------------------------------------

def test_rd_initial_zero_at_origin():
    grid = Grid2D(8, 20.0)
    u0, v0 = rd_initial(grid)
    i0 = 4  # node at x = y = 0
    assert u0[i0, i0] == 0.0
    assert v0[i0, i0] == 0.0


def test_rd_initial_on_positive_x_axis():
    grid = Grid2D(8, 20.0)
    u0, v0 = rd_initial(grid)
    x = grid.coords()
    i0 = 4
    for i in range(i0 + 1, 8):
        r = x[i]
        assert u0[i, i0] == pytest.approx(math.tanh(r) * math.cos(r), abs=1e-14)
        assert v0[i, i0] == pytest.approx(-math.tanh(r) * math.sin(r), abs=1e-14)


def test_rd_initial_matches_scalar_oracle_pointwise():
    grid = Grid2D(10, 20.0)
    u0, v0 = rd_initial(grid)
    coords = grid.coords()
    for i in range(10):
        for j in range(10):
            x, y = coords[i], coords[j]
            r = math.hypot(x, y)
            phase = math.atan2(y, x) - r
            assert u0[i, j] == pytest.approx(math.tanh(r) * math.cos(phase), abs=1e-13)
            assert v0[i, j] == pytest.approx(math.tanh(r) * math.sin(phase), abs=1e-13)


def test_rd_initial_phase_winds_once_around_the_origin():
    # the square ring of nodes 3 steps from the origin node, counterclockwise;
    # at 64^2 the phase of u0 + i v0 moves less than pi/2 between neighbours,
    # so the summed steps count its turns without ambiguity
    n, k = 64, 3
    u0, v0 = rd_initial(Grid2D(n, 20.0))
    c = n // 2
    ring = ([(c + k, c + j) for j in range(-k, k)] + [(c + i, c + k) for i in range(k, -k, -1)]
            + [(c - k, c + j) for j in range(k, -k, -1)] + [(c + i, c - k) for i in range(-k, k)])
    z = np.array([u0[i, j] + 1j * v0[i, j] for i, j in ring])
    steps = np.angle(np.roll(z, -1) / z)
    assert np.abs(steps).max() < np.pi / 2
    assert steps.sum() / (2 * np.pi) == pytest.approx(1.0, abs=1e-12)


def test_sw_initial_stretched_gaussian():
    grid = Grid2D(8, 10.0)
    w0 = sw_initial(grid)
    coords = grid.coords()
    i, j = 5, 2
    x, y = coords[i], coords[j]
    assert w0[i, j] == pytest.approx(math.exp(-2 * x * x - y * y / 20), abs=1e-15)


# ---------------------------------------------------------------------------
# reaction-diffusion solver
# ---------------------------------------------------------------------------

def test_rd_homogeneous_limit_cycle():
    # spatially constant state: diffusion vanishes and the reaction reduces
    # to a rotation on the unit circle, u = cos(mu t), v = -sin(mu t)
    mu = 1.0
    cfg = RdConfig(n=8, T=10.0, mu=mu, d=0.3, dt=0.05)
    ones = np.ones((8, 8))
    times, data = solve_rd(cfg, ic=(ones, np.zeros((8, 8))))
    u_series = data[0, :]
    v_series = data[64, :]
    assert np.abs(u_series - np.cos(mu * times)).max() < 1e-6
    assert np.abs(v_series + np.sin(mu * times)).max() < 1e-6
    # spatial homogeneity preserved
    assert np.abs(data[:64, -1] - u_series[-1]).max() < 1e-12


def test_rd_pure_diffusion_mode_decay():
    n, L, d = 32, 20.0, 0.05
    cfg = RdConfig(n=n, T=10.0, mu=1.0, d=d, dt=0.05)
    grid = Grid2D(n, L)
    X, _ = grid.meshes()
    u0 = np.sin(np.pi * X / L)
    times, data = solve_rd(cfg, ic=(u0, np.zeros((n, n))), include_reaction=False)
    decay = np.exp(-d * (np.pi / L) ** 2 * times[-1])
    expected = decay * u0.ravel(order="F")
    assert np.abs(data[: n * n, -1] - expected).max() < 1e-8
    assert np.abs(data[n * n :, -1]).max() < 1e-12


def test_rd_zero_ic_stays_zero_without_reaction():
    cfg = RdConfig(n=8, T=1.0, mu=1.0)
    zeros = np.zeros((8, 8))
    _, data = solve_rd(cfg, ic=(zeros, zeros), include_reaction=False)
    assert np.abs(data).max() == 0.0


def test_rd_determinism_bitwise():
    cfg = RdConfig(n=16, T=1.0, mu=0.8)
    _, first = solve_rd(cfg)
    _, second = solve_rd(cfg)
    assert np.array_equal(first, second)


@pytest.mark.parametrize("config", [RdConfig, SwConfig])
@pytest.mark.parametrize("key, value", [("n", 15), ("dt", -0.1), ("d", 0.0), ("T", -1.0)])
def test_run_config_validation(config, key, value):
    with pytest.raises(ValidationError):
        config(**{"n": 16, "T": 1.0, "mu": 1.0, key: value})


@pytest.mark.parametrize("key, value", [("n", 15), ("dt", 0.0), ("dt", math.inf), ("d", 0.0),
                                        ("d", -0.1), ("d", math.inf)])
def test_profile_validation(key, value):
    # the same grid-size, step and diffusion rules as the run configs it becomes
    with pytest.raises(ValidationError):
        FidelityProfile(**{"fidelity": "LF", "n": 16, "dt": 0.1, key: value})


# ---------------------------------------------------------------------------
# shallow-water solver
# ---------------------------------------------------------------------------

def test_sw_poisson_eigenfunction():
    n, L = 64, 10.0
    grid = Grid2D(n, L)
    X, _ = grid.meshes()
    omega = np.sin(np.pi * X / L)
    psi = solve_poisson(omega, grid)
    expected = -((L / np.pi) ** 2) * omega
    assert np.abs(psi - expected).max() < 1e-10


def test_sw_zero_advection_is_pure_diffusion():
    # with mu = 0 every spectral mode decays by exp(-d k^2 t)
    n, d, T, dt = 32, 0.001, 2.0, 0.1
    cfg = SwConfig(n=n, T=T, mu=0.0, d=d, dt=dt)
    times, data = solve_sw(cfg)
    KX, KY = _full_wavenumbers(n, 10.0)
    k2 = KX**2 + KY**2
    w0_hat = np.fft.fft2(data[:, 0].reshape(n, n, order="F"))
    wT_hat = np.fft.fft2(data[:, -1].reshape(n, n, order="F"))
    expected = w0_hat * np.exp(-d * k2 * times[-1])
    significant = np.abs(w0_hat) > 1e-8 * np.abs(w0_hat).max()
    rel = np.abs(wT_hat - expected)[significant] / np.abs(w0_hat)[significant]
    assert rel.max() < 1e-8


def test_sw_total_vorticity_conserved():
    # integral of the vorticity (DFT zero mode) is invariant: the advection
    # bracket and the diffusion term both integrate to zero on the torus
    profile = presets.sw_desk().lf_profile
    cfg = SwConfig(n=profile.n, T=20.0, mu=3.0, dt=profile.dt)
    _, data = solve_sw(cfg)
    totals = data.sum(axis=0)
    assert np.abs(totals - totals[0]).max() / abs(totals[0]) < 1e-10


def test_sw_determinism_bitwise():
    cfg = SwConfig(n=32, T=1.0, mu=2.0, dt=0.1)
    _, first = solve_sw(cfg)
    _, second = solve_sw(cfg)
    assert np.array_equal(first, second)


def test_sw_instability_raises_with_step_index():
    cfg = SwConfig(n=50, T=20.0, mu=5.0, dt=1.0)  # far past the RK4 CFL limit
    with pytest.raises(InstabilityError, match=r"step \d+"):
        solve_sw(cfg)


# ---------------------------------------------------------------------------
# complex-FFT reference
# ---------------------------------------------------------------------------

def _full_wavenumbers(n, L):
    k = 2.0 * np.pi * np.fft.fftfreq(n, d=2.0 * L / n)
    return np.meshgrid(k, k, indexing="ij")


def _reference_rd_rhs(cfg):
    KX, KY = _full_wavenumbers(cfg.n, cfg.L)
    k2 = KX**2 + KY**2

    def rhs(hats):
        uh, vh = hats
        u = np.fft.ifft2(uh).real
        v = np.fft.ifft2(vh).real
        a2 = u * u + v * v
        ru = np.fft.fft2((1.0 - a2) * u + cfg.mu * a2 * v)
        rv = np.fft.fft2(-cfg.mu * a2 * u + (1.0 - a2) * v)
        return ru - cfg.d * k2 * uh, rv - cfg.d * k2 * vh

    return rhs


def _reference_sw_rhs(cfg):
    KX, KY = _full_wavenumbers(cfg.n, cfg.L)
    k2 = KX**2 + KY**2
    inv_k2 = np.zeros_like(k2)
    inv_k2[k2 > 0] = 1.0 / k2[k2 > 0]

    def rhs(hats):
        (wh,) = hats
        psi_hat = -wh * inv_k2
        psi_x = np.fft.ifft2(1j * KX * psi_hat).real
        psi_y = np.fft.ifft2(1j * KY * psi_hat).real
        w_x = np.fft.ifft2(1j * KX * wh).real
        w_y = np.fft.ifft2(1j * KY * wh).real
        bracket = np.fft.fft2(psi_x * w_y - psi_y * w_x)
        return (-cfg.mu * bracket - cfg.d * k2 * wh,)

    return rhs


def _reference_rk4(rhs, fields, dt, steps):
    """Classical RK4 on full complex spectra, keeping the real part of every
    inverse transform; returns the stacked flattened fields per step."""
    hats = tuple(np.fft.fft2(f) for f in fields)

    def column(hats):
        return np.concatenate([np.fft.ifft2(h).real.ravel(order="F") for h in hats])

    columns = [column(hats)]
    for _ in range(steps):
        k1 = rhs(hats)
        k2 = rhs(tuple(h + 0.5 * dt * k for h, k in zip(hats, k1)))
        k3 = rhs(tuple(h + 0.5 * dt * k for h, k in zip(hats, k2)))
        k4 = rhs(tuple(h + dt * k for h, k in zip(hats, k3)))
        hats = tuple(
            h + (dt / 6.0) * (a + 2.0 * b + 2.0 * c + d)
            for h, a, b, c, d in zip(hats, k1, k2, k3, k4)
        )
        columns.append(column(hats))
    return np.stack(columns, axis=1)


@pytest.mark.parametrize("problem", ["rd", "sw"])
def test_half_spectrum_solvers_match_complex_fft_reference(problem):
    # a random initial condition excites the Nyquist modes, whose first
    # derivatives the real part of the complex transform drops
    n, steps = 16, 40
    rng = np.random.default_rng(3)
    if problem == "rd":
        cfg = RdConfig(n=n, T=steps * 0.05, mu=1.0, dt=0.05)
        fields = (rng.uniform(-1, 1, (n, n)), rng.uniform(-1, 1, (n, n)))
        _, data = solve_rd(cfg, ic=fields)
        expected = _reference_rk4(_reference_rd_rhs(cfg), fields, cfg.dt, steps)
    else:
        cfg = SwConfig(n=n, T=steps * 0.1, mu=3.0, dt=0.1)
        fields = (rng.uniform(-1, 1, (n, n)),)
        _, data = solve_sw(cfg, ic=fields[0])
        expected = _reference_rk4(_reference_sw_rhs(cfg), fields, cfg.dt, steps)
    assert data.shape == expected.shape
    assert np.abs(data - expected).max() <= 1e-12 * np.abs(expected).max()


# ---------------------------------------------------------------------------
# buffered kernel against the allocate-per-stage kernel
# ---------------------------------------------------------------------------

def _allocating_rk4(state_hat, rhs, dt, steps):
    """The RK4 loop with a fresh array for every stage, sum and transform,
    writing the parameter-major columns of ``_integrate``."""
    n_mu, n_fields, n = state_hat.shape[:3]
    data = np.empty((n_fields * n * n, n_mu * (steps + 1)), order="F")
    columns = data.reshape((n, n, n_fields, steps + 1, n_mu), order="F")
    k1, fields = rhs(state_hat)
    columns[..., 0, :] = fields.transpose(2, 3, 1, 0)
    for step in range(1, steps + 1):
        k2, _ = rhs(state_hat + 0.5 * dt * k1)
        k3, _ = rhs(state_hat + 0.5 * dt * k2)
        k4, _ = rhs(state_hat + dt * k3)
        state_hat = state_hat + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        k1, fields = rhs(state_hat)
        columns[..., step, :] = fields.transpose(2, 3, 1, 0)
    return data


def _allocating_rd(cfg, ic, include_reaction, mus):
    k2, _ = _laplacian_symbols(Grid2D(cfg.n, cfg.L))
    diffusion = cfg.d * k2
    rate = mus[:, None, None]
    n = cfg.n

    def rhs(hat):
        fields = np.fft.irfft2(hat, s=(n, n))
        if not include_reaction:
            return -diffusion * hat, fields
        u, v = fields[:, 0], fields[:, 1]
        a2 = u * u + v * v
        growth, rotation = 1.0 - a2, rate * a2
        reaction = np.fft.rfft2(
            np.stack((growth * u + rotation * v, growth * v - rotation * u), axis=1))
        return reaction - diffusion * hat, fields

    return np.repeat(np.fft.rfft2(np.stack(ic))[None], mus.size, axis=0), rhs


def _allocating_sw(cfg, ic, mus):
    grid = Grid2D(cfg.n, cfg.L)
    k2, inv_k2 = _laplacian_symbols(grid)
    diffusion = cfg.d * k2
    ikx, iky = _derivative_multipliers(grid)
    multipliers = np.stack(np.broadcast_arrays(
        -ikx * inv_k2, -iky * inv_k2, ikx, iky, np.ones_like(k2)))
    advection = -mus[:, None, None, None]
    n = cfg.n

    def rhs(hat):
        psi_x, psi_y, w_x, w_y, w = np.fft.irfft2(multipliers * hat, s=(n, n)).swapaxes(0, 1)
        bracket = np.fft.rfft2(psi_x * w_y - psi_y * w_x)[:, None]
        return advection * bracket - diffusion * hat, w[:, None]

    return np.repeat(np.fft.rfft2(ic)[None, None], mus.size, axis=0), rhs


@pytest.mark.parametrize("ic", ["random", "zeros"])
@pytest.mark.parametrize("mus", [[1.3], [0.5, 1.0, 2.5]], ids=["1mu", "3mu"])
@pytest.mark.parametrize("n", [8, 16, 32, 64])
@pytest.mark.parametrize("case", ["rd", "rd-diffusion", "sw"])
def test_buffered_kernel_equals_allocating_kernel_bitwise(case, n, mus, ic):
    # the solvers reuse their stage and nonlinear-term buffers and run
    # rfft2/irfft2 as 1-D passes of the pocketfft gufuncs; every operation
    # must stay the same, so the bits, signed zeros included, must be those
    # of the kernel that allocates every stage through the public transforms.
    # 32^2 and 64^2 are the benchmark's LF and HF grids
    rng = np.random.default_rng(n + len(mus))
    fields = rng.uniform(-1.0, 1.0, (2, n, n))
    if ic == "zeros":
        fields[0] = 0.0
        fields[1, ::2] = -0.0
    mus = np.array(mus)
    steps = 5
    if case == "sw":
        cfg = SwConfig(n=n, T=steps * 0.1, mu=1.0, dt=0.1)
        _, data = solve_sw(cfg, ic=fields[1], mus=mus)
        state_hat, rhs = _allocating_sw(cfg, fields[1], mus)
    else:
        reaction = case == "rd"
        cfg = RdConfig(n=n, T=steps * 0.05, mu=1.0, dt=0.05)
        _, data = solve_rd(cfg, ic=tuple(fields), include_reaction=reaction, mus=mus)
        state_hat, rhs = _allocating_rd(cfg, tuple(fields), reaction, mus)
    expected = _allocating_rk4(state_hat, rhs, cfg.dt, steps)
    assert data.shape == expected.shape
    assert data.tobytes() == expected.tobytes()


# ---------------------------------------------------------------------------
# dataset generation
# ---------------------------------------------------------------------------

def test_reference_profiles_match_published_configuration():
    assert presets.RD_HF_REFERENCE == FidelityProfile("HF", n=100, dt=0.05, d=0.05)
    assert presets.RD_LF_REFERENCE == FidelityProfile("LF", n=32, dt=0.05, d=0.1)
    assert presets.RD_N_MU == 10 and presets.RD_T_TRAIN == 40.0
    assert presets.SW_HF_REFERENCE == FidelityProfile("HF", n=200, dt=0.25)
    assert presets.SW_LF_REFERENCE == FidelityProfile("LF", n=50, dt=1.00)
    assert presets.SW_N_MU == 5 and presets.SW_T_TRAIN == 12.0


def test_generate_single_parameter_t0_returns_initial_condition():
    profile = FidelityProfile("HF", n=8, dt=0.05, d=0.05)
    snaps = generate_dataset("rd", profile, np.array([1.0]), 0.0)
    assert snaps.n_t == 1 and snaps.n_mu == 1
    grid = Grid2D(8, 20.0)
    u0, v0 = rd_initial(grid)
    # the stored state is the IC after an rfft2/irfft2 round trip, whose error
    # is absolute: about 4 ulp of max |u0| = 1, while v0 has entries near 0
    assert_allclose(snaps.data[:64, 0], u0.ravel(order="F"), rtol=0, atol=1e-15)
    assert_allclose(snaps.data[64:, 0], v0.ravel(order="F"), rtol=0, atol=1e-15)


def test_generate_parameter_major_ordering_and_determinism():
    profile = FidelityProfile("LF", n=8, dt=0.1, d=0.1)
    grid = ParameterGrid(0.5, 1.5, 3)
    snaps = generate_dataset("rd", profile, grid, 0.5)
    assert snaps.fidelity == "LF"
    for i, mu in enumerate(grid.values):
        cfg = RdConfig(n=8, T=0.5, mu=float(mu), d=0.1, dt=0.1)
        _, solo = solve_rd(cfg)
        assert np.array_equal(snaps.trajectory(i), solo)


def test_generate_annotates_failing_parameter():
    profile = FidelityProfile("LF", n=50, dt=1.0)
    with pytest.raises(InstabilityError, match="mu = 5"):
        generate_dataset("sw", profile, np.array([5.0]), 20.0)


SW_UNSTABLE = ("sw", FidelityProfile("LF", 50, 1.0), r"mu = 5: .*step 4 \(t = 4\)")
RD_UNSTABLE = ("rd", FidelityProfile("LF", 16, 0.5, 0.1), r"mu = 20: .*step 2 \(t = 1\)")


@pytest.mark.parametrize("problem, profile, report, mus", [
    pytest.param(*SW_UNSTABLE, [0.0, 5.0], id="mus0"),
    pytest.param(*SW_UNSTABLE, [5.0, 0.0], id="mus1"),
    pytest.param(*RD_UNSTABLE, [20.0, 0.0, 0.0], id="rd-first"),
    pytest.param(*RD_UNSTABLE, [0.0, 20.0, 0.0], id="rd-middle"),
    pytest.param(*RD_UNSTABLE, [0.0, 0.0, 20.0], id="rd-last"),
    pytest.param(*RD_UNSTABLE, [0.0, 20.0], id="rd-pair"),
])
def test_generate_names_the_diverging_parameter_of_a_batch(problem, profile, report, mus):
    # mu = 0 alone stays stable here; the batch must name the diverging value
    # wherever it sits. rd's two fields also expose a field/mu mix-up in the
    # per-run finite check, which sw's single field cannot
    with pytest.raises(InstabilityError, match=report):
        generate_dataset(problem, profile, np.array(mus), 20.0)


@settings(max_examples=12, deadline=None)
@given(
    problem=st.sampled_from(["rd", "sw"]),
    n=st.sampled_from([8, 16]),
    mus=st.lists(st.floats(0.5, 3.0), min_size=1, max_size=4),
    steps=st.integers(0, 4),
)
def test_batched_sweep_equals_single_runs_bitwise(problem, n, mus, steps):
    # every mu of a sweep advances in one loop; each column block must be the
    # bits of a run of that mu alone
    dt = 0.1
    profile = FidelityProfile("LF", n, dt)
    snaps = generate_dataset(problem, profile, np.array(mus), steps * dt)
    for i, mu in enumerate(mus):
        if problem == "rd":
            _, solo = solve_rd(RdConfig(n=n, T=steps * dt, mu=mu, dt=dt))
        else:
            _, solo = solve_sw(SwConfig(n=n, T=steps * dt, mu=mu, dt=dt))
        assert np.array_equal(snaps.trajectory(i), solo)


# ---------------------------------------------------------------------------
# sweeps split over two threads
# ---------------------------------------------------------------------------

@pytest.fixture
def workers(monkeypatch):
    """Two usable CPUs, and a list of the worker threads ``generate_dataset`` creates."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    made = []

    def thread(*args, **kwargs):
        made.append(threading.Thread(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(solvers, "Thread", thread)
    return made


@pytest.fixture
def no_thread(monkeypatch):
    def thread(*args, **kwargs):
        raise AssertionError("the sweep started a worker thread")

    monkeypatch.setattr(solvers, "Thread", thread)


@pytest.mark.parametrize("problem, profile, mus", [
    ("rd", FidelityProfile("HF", 64, 0.05, 0.05), [0.5, 1.0, 1.5]),
    ("sw", FidelityProfile("HF", 64, 0.05), [1.0, 5.0]),
], ids=["rd-3mu", "sw-2mu"])
def test_split_sweep_equals_one_loop_bitwise(workers, problem, profile, mus):
    # the larger group transforms 2 * 2 * 64^2 (rd) or 1 * 4 * 64^2 (sw)
    # = 2^14 points per pass, so the sweep runs as two groups on two threads
    T = 0.5
    snaps = generate_dataset(problem, profile, np.array(mus), T)
    assert len(workers) == 1 and not workers[0].is_alive()
    if problem == "rd":
        _, one_loop = solve_rd(RdConfig(n=64, T=T, mu=1.0, d=0.05, dt=0.05), mus=np.array(mus))
    else:
        _, one_loop = solve_sw(SwConfig(n=64, T=T, mu=1.0, dt=0.05), mus=np.array(mus))
    assert snaps.data.tobytes() == one_loop.tobytes()


# rd on 64^2 at dt 0.5: mu = 0 stays finite, mu = 2 diverges at step 14 and
# mu = 20 and 21 at step 2; three values split into groups [0, 1] and [2]
RD_SPLIT = FidelityProfile("LF", 64, 0.5, 0.1)


@pytest.mark.parametrize("mus, report", [
    pytest.param([20.0, 0.0, 0.0], r"mu = 20: .*step 2 \(t = 1\)", id="first-group"),
    pytest.param([0.0, 0.0, 20.0], r"mu = 20: .*step 2 \(t = 1\)", id="second-group"),
    pytest.param([2.0, 0.0, 20.0], r"mu = 20: .*step 2 \(t = 1\)", id="second-earlier"),
    pytest.param([20.0, 0.0, 2.0], r"mu = 20: .*step 2 \(t = 1\)", id="first-earlier"),
    pytest.param([21.0, 0.0, 20.0], r"mu = 21: .*step 2 \(t = 1\)", id="same-step"),
])
def test_split_sweep_reports_the_one_loop_divergence(workers, mus, report):
    # the earliest failing step wins and a tie goes to input order, whichever
    # thread gets there first; a short switch interval mixes the two threads'
    # steps finely, and each case runs a few times
    with pytest.raises(InstabilityError, match=report) as one_loop:
        solve_rd(RdConfig(n=64, T=20.0, mu=1.0, d=0.1, dt=0.5), mus=np.array(mus))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            with pytest.raises(InstabilityError) as split:
                generate_dataset("rd", RD_SPLIT, np.array(mus), 20.0)
            assert str(split.value) == str(one_loop.value)
    finally:
        sys.setswitchinterval(interval)
    assert len(workers) == 3 and not any(worker.is_alive() for worker in workers)


def test_split_sweep_raises_the_worker_exception_on_the_calling_thread(workers, monkeypatch):
    integrate = solvers._integrate

    def failing_in_worker(*args):
        if threading.current_thread() is not threading.main_thread():
            raise MemoryError("worker loop")
        return integrate(*args)

    monkeypatch.setattr(solvers, "_integrate", failing_in_worker)
    with pytest.raises(MemoryError, match="worker loop"):
        generate_dataset("rd", FidelityProfile("HF", 64, 0.05, 0.05), np.array([0.5, 1.0, 1.5]),
                         0.5)
    assert len(workers) == 1 and not workers[0].is_alive()


@pytest.mark.parametrize("first", ["calling", "worker"])
def test_split_sweep_raises_the_calling_threads_exception_when_both_loops_fail(
        workers, monkeypatch, first):
    # each loop raises its own error, one at once and the other after its
    # whole run; the calling thread's error surfaces either way
    integrate = solvers._integrate

    def failing(*args):
        calling = threading.current_thread() is threading.main_thread()
        if calling != (first == "calling"):
            integrate(*args)
        raise (MemoryError if calling else OverflowError)("the loop failed")

    monkeypatch.setattr(solvers, "_integrate", failing)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            with pytest.raises(MemoryError):
                generate_dataset("rd", FidelityProfile("HF", 64, 0.05, 0.05),
                                 np.array([0.5, 1.0, 1.5]), 0.5)
    finally:
        sys.setswitchinterval(interval)
    assert len(workers) == 3 and not any(worker.is_alive() for worker in workers)


@pytest.mark.parametrize("problem, n, mus, cpus", [
    ("rd", 32, [0.5, 1.0, 1.5], {0, 1}),
    ("sw", 32, [1.0, 5.0], {0, 1}),
    ("rd", 64, [0.5, 1.5], {0, 1}),
    ("rd", 64, [1.0], {0, 1}),
    ("sw", 64, [3.0], {0, 1}),
    ("rd", 64, [0.5, 1.0, 1.5], {0}),
], ids=["rd-32", "sw-32", "rd-64-2mu", "rd-64-1mu", "sw-64-1mu", "one-cpu"])
def test_sweep_below_the_split_size_starts_no_thread(monkeypatch, no_thread, problem, n,
                                                     mus, cpus):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: len(cpus))
    snaps = generate_dataset(problem, FidelityProfile("HF", n, 0.05), np.array(mus), 0.2)
    assert snaps.n_mu == len(mus) and snaps.n_t == 5


def test_split_sweep_writes_into_one_matrix(workers):
    # no second copy of the snapshot matrix: the two groups write into their
    # own column blocks of it, so the peak stays near the matrix itself
    profile = FidelityProfile("HF", 64, 0.05, 0.05)
    tracemalloc.start()
    try:
        snaps = generate_dataset("rd", profile, np.array([0.5, 1.0, 1.5]), 10.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(workers) == 1
    assert snaps.data.shape == (2 * 64 * 64, 3 * 201)
    assert peak <= 1.1 * snaps.data.nbytes


# the messages the CLI prints for bad parameter values
BAD_VALUES = [([np.nan], "must be finite"), ([1.0, np.inf], "must be finite"),
              ([], "nonempty 1-D"), (1.0, "nonempty 1-D"), ([[1.0, 2.0]], "nonempty 1-D")]
BAD_VALUE_IDS = ["nan", "inf", "empty", "0-d", "2-d"]


@pytest.mark.parametrize("solve, cfg", [(solve_rd, RdConfig(n=8, T=0.1, mu=1.0)),
                                        (solve_sw, SwConfig(n=8, T=0.1, mu=1.0))])
@pytest.mark.parametrize("mus, message", BAD_VALUES, ids=BAD_VALUE_IDS)
def test_solver_checks_given_parameter_values(solve, cfg, mus, message):
    # values given in place of cfg.mu go through the same rule as cfg.mu
    with pytest.raises(ValidationError, match=message):
        solve(cfg, mus=mus)


@pytest.mark.parametrize("mus, message", BAD_VALUES, ids=BAD_VALUE_IDS)
def test_generate_rejects_bad_parameter_values(mus, message):
    with pytest.raises(ValidationError, match=message):
        generate_dataset("rd", FidelityProfile("LF", 8, 0.1), np.array(mus), 0.1)


@pytest.mark.parametrize("T, dt", [(1e300, 0.05), (1.0, 1e-300)], ids=["T", "dt"])
def test_time_grid_rejects_step_counts_numpy_cannot_index(T, dt):
    assert_allclose(time_grid(1.0, 0.25), [0.0, 0.25, 0.5, 0.75, 1.0], rtol=0, atol=0)
    with pytest.raises(ValidationError, match="time grid"):
        time_grid(T, dt)


def test_generate_checks_snapshot_matrix_size_before_solving():
    # grid, step count and parameter count are each small, but together they
    # ask for 2 * 64^2 * 1000 * (10^6 + 1) values, about 65 TB
    profile = FidelityProfile("LF", 64, 1e-6)
    with pytest.raises(ValidationError, match="snapshot matrix"):
        generate_dataset("rd", profile, np.linspace(0.5, 1.5, 1000), 1.0)


def test_generate_rejects_unknown_problem():
    with pytest.raises(ValidationError):
        generate_dataset("heat", FidelityProfile("HF", 8, 0.1), np.array([1.0]), 1.0)
