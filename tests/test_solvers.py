import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from mfpod.errors import InstabilityError, ValidationError
from mfpod.numerics import Grid2D, vec_to_field
from mfpod.snapshots import ParameterGrid
from mfpod.solvers import (
    FidelityProfile,
    RdConfig,
    SwConfig,
    generate_dataset,
    rd_initial,
    solve_poisson,
    solve_rd,
    solve_sw,
    sw_initial,
)
from mfpod import presets


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
    u0, _ = rd_initial(grid)
    x = grid.coords()
    i0 = 4
    for i in range(i0 + 1, 8):
        r = x[i]
        assert u0[i, i0] == pytest.approx(math.tanh(r * math.cos(r)), abs=1e-14)


def test_rd_initial_matches_scalar_oracle_pointwise():
    grid = Grid2D(10, 20.0)
    u0, v0 = rd_initial(grid)
    coords = grid.coords()
    for i in range(10):
        for j in range(10):
            x, y = coords[i], coords[j]
            r = math.hypot(x, y)
            theta = math.atan2(y, x)
            expected = math.tanh(r * math.cos(theta - r))
            assert u0[i, j] == pytest.approx(expected, abs=1e-13)
    assert np.array_equal(u0, v0)


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


def test_rd_config_validation():
    with pytest.raises(ValidationError):
        RdConfig(n=15, T=1.0, mu=1.0)
    with pytest.raises(ValidationError):
        RdConfig(n=16, T=1.0, mu=1.0, dt=-0.1)
    with pytest.raises(ValidationError):
        RdConfig(n=16, T=1.0, mu=1.0, d=0.0)


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
    w0_hat = np.fft.fft2(vec_to_field(data[:, 0], n))
    wT_hat = np.fft.fft2(vec_to_field(data[:, -1], n))
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
    assert_allclose(snaps.data[:64, 0], u0.ravel(order="F"), atol=0)
    assert_allclose(snaps.data[64:, 0], v0.ravel(order="F"), atol=0)


def test_generate_parameter_major_ordering_and_determinism():
    profile = FidelityProfile("LF", n=8, dt=0.1, d=0.1)
    grid = ParameterGrid(0.5, 1.5, 3)
    snaps = generate_dataset("rd", profile, grid, 0.5)
    assert snaps.fidelity == "LF"
    for i, mu in enumerate(grid.values):
        cfg = RdConfig(n=8, T=0.5, mu=float(mu), d=0.1, dt=0.1)
        _, solo = solve_rd(cfg)
        assert np.array_equal(snaps.trajectory(i), solo)


def test_generate_threaded_matches_sequential():
    profile = FidelityProfile("LF", n=8, dt=0.1, d=0.1)
    grid = ParameterGrid(0.5, 1.5, 4)
    sequential = generate_dataset("rd", profile, grid, 0.4, workers=1)
    threaded = generate_dataset("rd", profile, grid, 0.4, workers=3)
    assert np.array_equal(sequential.data, threaded.data)


def test_generate_annotates_failing_parameter():
    profile = FidelityProfile("LF", n=50, dt=1.0)
    with pytest.raises(InstabilityError, match="mu = 5"):
        generate_dataset("sw", profile, np.array([5.0]), 20.0)


def test_generate_rejects_unknown_problem():
    with pytest.raises(ValidationError):
        generate_dataset("heat", FidelityProfile("HF", 8, 0.1), np.array([1.0]), 1.0)
