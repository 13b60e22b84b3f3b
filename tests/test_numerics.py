import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from interp_oracle import interp_space
from mfpod.errors import DataError, ExtrapolationError, ValidationError
from mfpod.numerics import (
    Grid2D,
    interp_time,
    nearest_index_map,
    thin_svd,
)


# ---------------------------------------------------------------------------
# grids and wavenumbers
# ---------------------------------------------------------------------------

def test_grid_nodes_and_spacing():
    grid = Grid2D(8, 20.0)
    assert grid.spacing == 5.0
    coords = grid.coords()
    assert coords[0] == -20.0
    # point n wraps to point 0: the right endpoint +L is not a node
    assert coords[-1] == pytest.approx(20.0 - grid.spacing)


@pytest.mark.parametrize("n", [3, 2, 0, 7])
def test_grid_rejects_odd_or_tiny(n):
    with pytest.raises(ValidationError):
        Grid2D(n, 1.0)


def _direct_dft(field: np.ndarray) -> np.ndarray:
    # Plain summation of the 2-D DFT definition (no fast transform): the
    # matrix products evaluate sum_ij f[i,j] exp(-2pi*1j*(k*i + l*j)/n).
    n = field.shape[0]
    j = np.arange(n)
    w = np.exp(-2j * np.pi * np.outer(j, j) / n)
    return w @ field @ w.T


def test_direct_dft_oracle_matches_literal_loop():
    rng = np.random.default_rng(2)
    field = rng.standard_normal((6, 6))
    by_loop = np.zeros((6, 6), dtype=complex)
    for k in range(6):
        for l in range(6):
            for i in range(6):
                for j in range(6):
                    by_loop[k, l] += field[i, j] * np.exp(-2j * np.pi * (k * i + l * j) / 6)
    assert_allclose(_direct_dft(field), by_loop, atol=1e-10)


def test_half_wavenumbers_locate_plane_wave():
    # cos(a x + b y) has one mode in the rfft2 half spectrum, at the index
    # whose half wavenumbers are (a, b); its conjugate (-a, -b) is not stored
    n, L = 16, 5.0
    grid = Grid2D(n, L)
    X, Y = grid.meshes()
    a, b = 3 * np.pi / L, 2 * np.pi / L
    field = np.cos(a * X + b * Y)
    coef = np.fft.rfft2(field)
    assert_allclose(coef, _direct_dft(field)[:, : n // 2 + 1], atol=1e-9 * n * n)
    kx, ky = grid.half_wavenumbers()
    assert kx.shape == (n, 1) and ky.shape == (1, n // 2 + 1)
    magnitude = np.abs(coef)
    nonzero = np.argwhere(magnitude > 1e-9 * magnitude.max())
    assert [tuple(ix) for ix in nonzero] == [(3, 2)]
    assert kx[3, 0] == pytest.approx(a) and ky[0, 2] == pytest.approx(b)
    assert kx[n // 2, 0] ** 2 == pytest.approx(ky[0, n // 2] ** 2)


# ---------------------------------------------------------------------------
# thin_svd
# ---------------------------------------------------------------------------

def test_svd_identity():
    _, sigma, _ = thin_svd(np.eye(3))
    assert_allclose(sigma, [1.0, 1.0, 1.0], atol=1e-14)


def test_svd_rank_one():
    a = np.array([0.0, 2.0, 0.0])
    b = np.array([3.0, 0.0, 0.0, 0.0])
    _, sigma, _ = thin_svd(np.outer(a, b))
    assert sigma[0] == pytest.approx(6.0, abs=1e-12)
    assert np.abs(sigma[1:]).max() < 1e-12


def test_svd_matches_gram_eigenvalue_oracle():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((20, 15))
    _, sigma, _ = thin_svd(a)
    # independent route: symmetric eigensolver on the Gram matrix
    eigvals = np.linalg.eigvalsh(a.T @ a)
    oracle = np.sqrt(np.clip(eigvals[::-1], 0.0, None))
    assert_allclose(sigma, oracle, rtol=1e-9)


def test_svd_rejects_non_finite():
    bad = np.array([[1.0, np.nan], [0.0, 1.0]])
    with pytest.raises(DataError):
        thin_svd(bad)


@settings(max_examples=20, deadline=None)
@given(
    m=st.integers(1, 200),
    n=st.integers(1, 200),
    seed=st.integers(0, 2**31),
)
def test_svd_reconstruction_and_orthonormality(m, n, seed):
    a = np.random.default_rng(seed).standard_normal((m, n))
    u, sigma, v = thin_svd(a)
    norm = np.linalg.norm(a)
    assert np.linalg.norm(a - (u * sigma) @ v.T) <= 1e-10 * max(norm, 1.0)
    k = min(m, n)
    assert np.abs(u.T @ u - np.eye(k)).max() < 1e-10
    assert np.abs(v.T @ v - np.eye(k)).max() < 1e-10
    assert np.all(np.diff(sigma) <= 0)
    assert np.all(sigma >= 0)


# ---------------------------------------------------------------------------
# spatial interpolation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("mode", ["nearest", "bilinear"])
def test_interp_space_identity_on_same_grid(mode):
    grid = Grid2D(8, 2.0)
    field = np.random.default_rng(4).standard_normal((8, 8))
    out = interp_space(field, grid, grid, mode)
    assert_allclose(out, field, atol=0)


def test_interp_space_bilinear_midpoint_averages_corners():
    src = Grid2D(4, 2.0)
    dst = Grid2D(8, 2.0)
    X, Y = src.meshes()
    field = 2.0 * X + 3.0 * Y  # uniform gradient
    out = interp_space(field, src, dst, "bilinear")
    # odd destination nodes sit at cell midpoints; check an interior one
    xd = dst.coords()
    i, j = 3, 3  # midpoint of src cell [1,2]x[1,2]
    corners = field[1:3, 1:3]
    assert out[i, j] == pytest.approx(corners.mean())
    assert xd[i] == pytest.approx((src.coords()[1] + src.coords()[2]) / 2)


def test_interp_space_nearest_doubling_against_distance_oracle():
    src = Grid2D(4, 2.0)
    dst = Grid2D(8, 2.0)
    row = np.array([1.0, 2.0, 3.0, 4.0])
    field = np.tile(row[:, None], (1, 4))
    out = interp_space(field, src, dst, "nearest")
    # brute-force periodic distances: every chosen node must be a minimizer
    xs, xd = src.coords(), dst.coords()
    chosen = nearest_index_map(src, dst)
    for r, x in enumerate(xd):
        dist = np.abs(xs - x)
        dist = np.minimum(dist, 2 * src.L - dist)
        minimal = np.nonzero(np.isclose(dist, dist.min()))[0]
        assert chosen[r] in minimal
    # documented tie rule: rightward node wins, so values duplicate as
    # [s0, s1, s1, s2, s2, s3, s3, s0]
    assert_allclose(out[:, 0], [1, 2, 2, 3, 3, 4, 4, 1], atol=0)
    for val in np.unique(row):
        assert np.count_nonzero(out[:, 0] == val) == 2


def test_interp_space_rejects_coarsening():
    with pytest.raises(ValidationError):
        interp_space(np.zeros((8, 8)), Grid2D(8, 1.0), Grid2D(4, 1.0), "nearest")


@settings(max_examples=20, deadline=None)
@given(
    mode=st.sampled_from(["nearest", "bilinear"]),
    n_src=st.sampled_from([4, 8, 16]),
    factor=st.sampled_from([1, 2, 3]),
    value=st.floats(-100, 100),
)
def test_interp_space_reproduces_constants(mode, n_src, factor, value):
    src = Grid2D(n_src, 1.5)
    dst = Grid2D(n_src * factor, 1.5)
    out = interp_space(np.full((n_src, n_src), value), src, dst, mode)
    assert_allclose(out, value, atol=1e-13 * max(abs(value), 1.0))


def test_interp_space_bilinear_reproduces_affine_on_interior():
    src = Grid2D(8, 4.0)
    dst = Grid2D(16, 4.0)
    Xs, Ys = src.meshes()
    field = 1.5 + 0.25 * Xs - 0.75 * Ys
    out = interp_space(field, src, dst, "bilinear")
    Xd, Yd = dst.meshes()
    exact = 1.5 + 0.25 * Xd - 0.75 * Yd
    # interior destination nodes: exclude cells that wrap around the seam
    interior = slice(1, -2)
    assert_allclose(out[interior, interior], exact[interior, interior], atol=1e-12)


# ---------------------------------------------------------------------------
# temporal interpolation
# ---------------------------------------------------------------------------

def test_interp_time_identity():
    t = np.array([0.0, 0.3, 1.1, 2.0])
    values = np.random.default_rng(5).standard_normal((3, 4))
    assert np.array_equal(interp_time(values, t, t), values)


def test_interp_time_midpoint_of_line():
    out = interp_time(np.array([0.0, 2.0]), np.array([0.0, 1.0]), np.array([0.5]))
    assert out[0] == pytest.approx(1.0)


def test_interp_time_error_bound_for_cubic():
    # linear interpolation error bound: (dt^2 / 8) * max|f''|
    rng = np.random.default_rng(6)
    c3, c2, c1, c0 = rng.uniform(-1, 1, size=4)
    f = np.polynomial.Polynomial([c0, c1, c2, c3])
    d2 = f.deriv(2)
    dt = 0.25
    t_src = np.arange(0.0, 2.0 + dt / 2, dt)
    t_dst = np.arange(0.0, 2.0 + dt / 8, dt / 4)
    out = interp_time(f(t_src), t_src, t_dst)
    max_second = np.abs(d2(np.linspace(0, 2, 1001))).max()
    bound = dt**2 / 8 * max_second
    assert np.abs(out - f(t_dst)).max() <= bound * (1 + 1e-12)


def test_interp_time_refuses_extrapolation():
    t = np.array([0.0, 1.0])
    with pytest.raises(ExtrapolationError):
        interp_time(np.array([0.0, 1.0]), t, np.array([1.5]))
    with pytest.raises(ExtrapolationError):
        interp_time(np.array([0.0, 1.0]), t, np.array([-0.5]))


def test_interp_time_requires_increasing_source():
    with pytest.raises(ValidationError):
        interp_time(np.array([0.0, 1.0]), np.array([1.0, 0.0]), np.array([0.5]))


def test_interp_time_exact_at_source_times_within_queries():
    t_src = np.array([0.0, 1.0, 2.0])
    values = np.array([[1.0, -3.0, 7.0]])
    out = interp_time(values, t_src, np.array([0.0, 0.5, 1.0, 2.0]))
    assert out[0, 0] == 1.0 and out[0, 2] == -3.0 and out[0, 3] == 7.0
