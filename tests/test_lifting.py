import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose

from interp_oracle import interp_space
from mfpod.errors import ExtrapolationError, ShapeError, ValidationError
from mfpod.lifting import LiftSpec, lift, lift_project
from mfpod.numerics import Grid2D, interp_time
from mfpod.pod import PodRule, build_basis
from mfpod.snapshots import SnapshotSet
from mfpod import presets


def make_set(n, L, times, params, n_fields=1, seed=0, fidelity="LF"):
    rng = np.random.default_rng(seed)
    n_mu = len(params)
    data = rng.standard_normal((n_fields * n * n, n_mu * len(times)))
    return SnapshotSet(
        fidelity=fidelity,
        data=data,
        grid=Grid2D(n, L),
        times=np.asarray(times, float),
        params=np.asarray(params, float)[:, None],
        field_names=tuple("uv"[:n_fields]),
    )


def test_identity_when_grids_and_times_match():
    snaps = make_set(8, 2.0, [0.0, 0.5, 1.0], [1.0, 2.0])
    spec = LiftSpec("bilinear", snaps.grid, snaps.grid, snaps.times)
    out = lift(snaps, spec)
    assert np.array_equal(out.data, snaps.data)
    assert np.array_equal(out.times, snaps.times)


def test_configured_modes_match_benchmarks():
    assert presets.RD_LIFT_MODE == "nearest"
    assert presets.SW_LIFT_MODE == "bilinear"


def test_nearest_spatial_lift_32_to_100():
    # reaction-diffusion style: coarse 32 to fine 100, identical time grids
    snaps = make_set(32, 20.0, [0.0, 0.05], [1.0], n_fields=2, seed=1)
    dst = Grid2D(100, 20.0)
    out = lift(snaps, LiftSpec("nearest", snaps.grid, dst, snaps.times))
    assert out.data.shape == (2 * 100 * 100, 2)
    # values are copies of source nodes: every output entry exists in input
    src_vals = np.sort(np.unique(snaps.data[: 32 * 32, 0]))
    lifted_vals = np.unique(out.data[: 100 * 100, 0])
    assert np.isin(lifted_vals, src_vals).all()


def test_bilinear_space_and_time_lift_50_to_200():
    # vorticity style: 50 -> 200 nodes and a 4x finer time grid
    times_lf = np.array([0.0, 1.0, 2.0])
    snaps = make_set(50, 10.0, times_lf, [2.0], seed=2)
    dst_times = np.arange(0.0, 2.0 + 1e-12, 0.25)
    spec = LiftSpec("bilinear", snaps.grid, Grid2D(200, 10.0), dst_times)
    out = lift(snaps, spec)
    assert out.data.shape == (200 * 200, dst_times.size)
    assert out.grid.n == 200
    # at shared time instants the lift is purely spatial
    direct = interp_space(
        snaps.data[:, 1].reshape(50, 50, order="F"), snaps.grid, spec.dst_grid, "bilinear"
    )
    assert_allclose(out.data[:, 4], direct.ravel(order="F"), atol=1e-13)


@pytest.mark.parametrize("mode", ["nearest", "bilinear"])
def test_linearity(mode):
    times = [0.0, 1.0, 2.0]
    a_set = make_set(8, 2.0, times, [1.0], seed=3)
    b_set = make_set(8, 2.0, times, [1.0], seed=4)
    combo = SnapshotSet(
        "LF", 2.0 * a_set.data - 0.5 * b_set.data, a_set.grid,
        a_set.times, a_set.params, a_set.field_names,
    )
    spec = LiftSpec(mode, a_set.grid, Grid2D(16, 2.0), np.array([0.0, 0.25, 1.5, 2.0]))
    lifted = lift(combo, spec)
    expected = 2.0 * lift(a_set, spec).data - 0.5 * lift(b_set, spec).data
    assert np.abs(lifted.data - expected).max() < 1e-12


@pytest.mark.parametrize("mode", ["nearest", "bilinear"])
def test_constant_preserved(mode):
    times = [0.0, 1.0]
    snaps = make_set(8, 2.0, times, [1.0])
    snaps.data[:] = 3.25
    spec = LiftSpec(mode, snaps.grid, Grid2D(24, 2.0), np.array([0.0, 0.3, 1.0]))
    out = lift(snaps, spec)
    assert np.abs(out.data - 3.25).max() < 1e-13


def test_space_time_order_commutes():
    snaps = make_set(8, 2.0, [0.0, 1.0, 2.0], [1.0], seed=5)
    dst_grid = Grid2D(16, 2.0)
    dst_times = np.array([0.0, 0.4, 1.7, 2.0])
    spec = LiftSpec("bilinear", snaps.grid, dst_grid, dst_times)
    space_then_time = lift(snaps, spec).data
    # reverse order: interpolate the 64-row block in time, then in space
    time_first = interp_time(snaps.data, snaps.times, dst_times)
    other = np.empty((16 * 16, dst_times.size))
    for j in range(dst_times.size):
        other[:, j] = interp_space(
            time_first[:, j].reshape(8, 8, order="F"), snaps.grid, dst_grid, "bilinear"
        ).ravel(order="F")
    assert np.abs(space_then_time - other).max() < 1e-12


def test_components_do_not_mix():
    times = [0.0, 1.0]
    snaps = make_set(8, 2.0, times, [1.0], n_fields=2)
    snaps.data[: 8 * 8, :] = 1.0
    snaps.data[8 * 8 :, :] = -2.0
    spec = LiftSpec("bilinear", snaps.grid, Grid2D(16, 2.0), np.array([0.0, 0.5, 1.0]))
    out = lift(snaps, spec)
    assert np.abs(out.data[: 16 * 16] - 1.0).max() < 1e-13
    assert np.abs(out.data[16 * 16 :] + 2.0).max() < 1e-13


def test_extrapolation_rejected():
    snaps = make_set(8, 2.0, [0.0, 1.0], [1.0])
    spec = LiftSpec("bilinear", snaps.grid, snaps.grid, np.array([0.0, 1.5]))
    with pytest.raises(ExtrapolationError):
        lift(snaps, spec)


def test_grid_mismatch_rejected():
    snaps = make_set(8, 2.0, [0.0, 1.0], [1.0])
    spec = LiftSpec("bilinear", Grid2D(16, 2.0), Grid2D(32, 2.0), snaps.times)
    with pytest.raises(ValidationError):
        lift(snaps, spec)


def test_nonconforming_dof_rejected():
    snaps = make_set(8, 2.0, [0.0, 1.0], [1.0])
    bad = SnapshotSet(
        "LF", snaps.data[:60], snaps.grid, snaps.times, snaps.params, ("u",)
    )
    spec = LiftSpec("bilinear", snaps.grid, Grid2D(16, 2.0), snaps.times)
    with pytest.raises(ShapeError):
        lift(bad, spec)


@pytest.mark.parametrize("mode", ["nearest", "bilinear"])
def test_fused_lift_project_matches_naive_composition(mode):
    rng = np.random.default_rng(6)
    hf = make_set(16, 2.0, np.linspace(0, 2, 9), [1.0, 2.0], n_fields=2,
                  seed=7, fidelity="HF")
    basis = build_basis(hf, PodRule(n_modes=5))
    lf = make_set(8, 2.0, np.linspace(0, 2, 5), [1.0, 2.0], n_fields=2, seed=8)
    spec = LiftSpec(mode, lf.grid, hf.grid, hf.times)
    from mfpod.pod import project

    naive = project(basis, lift(lf, spec)).coeffs
    fused = lift_project(lf, spec, basis).coeffs
    assert np.abs(naive - fused).max() < 1e-10 * max(1.0, np.abs(naive).max())


@pytest.mark.parametrize("mode", ["nearest", "bilinear"])
@pytest.mark.parametrize("interp", [False, True], ids=["same-times", "interp-times"])
@pytest.mark.parametrize("center", [False, True], ids=["raw", "centred"])
def test_whole_set_equals_single_parameter_calls(mode, interp, center):
    # columns are parameter-major: lifting all three parameters at once must
    # give, bit for bit, the per-parameter results side by side
    lf = make_set(8, 2.0, [0.0, 0.4, 1.0, 1.5, 2.0], [1.0, 2.0, 3.0], n_fields=2, seed=9)
    hf = make_set(16, 2.0, np.linspace(0, 2, 9), [1.0, 2.0], n_fields=2, seed=10,
                  fidelity="HF")
    basis = build_basis(hf, PodRule(n_modes=5, center=center))
    spec = LiftSpec(mode, lf.grid, hf.grid, hf.times if interp else lf.times)
    singles = [
        dataclasses.replace(lf, data=lf.trajectory(i), params=lf.params[i : i + 1])
        for i in range(lf.n_mu)
    ]
    whole = lift(lf, spec).data
    assert np.array_equal(whole, np.hstack([lift(one, spec).data for one in singles]))
    whole = lift_project(lf, spec, basis).coeffs
    assert np.array_equal(
        whole, np.hstack([lift_project(one, spec, basis).coeffs for one in singles]))
