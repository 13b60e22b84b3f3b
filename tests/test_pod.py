import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from mfpod.errors import ShapeError, ValidationError
from mfpod import pod
from mfpod.numerics import Grid2D
from mfpod.pod import (
    CoefficientSeries,
    PodRule,
    build_basis,
    modes_by_energy,
    project,
    reconstruct,
)
from mfpod.snapshots import ParameterGrid, SnapshotSet
from mfpod.solvers import FidelityProfile, generate_dataset


def as_set(matrix: np.ndarray, n_mu: int = 1) -> SnapshotSet:
    n_t = matrix.shape[1] // n_mu
    return SnapshotSet(
        fidelity="HF",
        data=matrix,
        grid=Grid2D(4, 1.0),
        times=np.linspace(0.0, 1.0, n_t),
        params=np.arange(1, n_mu + 1, dtype=float)[:, None],
        field_names=("u",),
    )


def test_rule_requires_exactly_one_criterion():
    with pytest.raises(ValidationError):
        PodRule()
    with pytest.raises(ValidationError):
        PodRule(n_modes=3, tol=0.1)


@pytest.mark.parametrize("tol", [0.0, -0.5, 1.0, 2.0])
def test_rule_rejects_bad_tolerance(tol):
    with pytest.raises(ValidationError):
        PodRule(tol=tol)


def test_energy_count_near_rank_one_spectrum():
    # sigma = [10, 1e-12]: one mode already captures 1 - 1e-6 of the energy
    assert modes_by_energy(np.array([10.0, 1e-12]), 1e-3) == 1


def test_fixed_rule_keeps_requested_count():
    rng = np.random.default_rng(0)
    snaps = as_set(rng.standard_normal((40, 12)))
    basis = build_basis(snaps, PodRule(n_modes=5))
    assert basis.n_pod == 5
    assert basis.modes.shape == (40, 5)
    assert basis.eps_pod is None
    assert basis.sigma.size == 12
    assert replace(basis, modes=basis.modes[:, :2]).n_pod == 2


@pytest.mark.parametrize("shape", [(30, 10), (2048, 1100)], ids=["30x10", "2048x1100"])
def test_fixed_rule_clamps_to_rank(shape):
    # both sets start on the Gram route, whose sqrt-eigenvalue noise floor lies
    # far above the SVD rank cutoff; 8 modes exceed its rank, so the SVD decides
    rng = np.random.default_rng(1)
    low_rank = rng.standard_normal((shape[0], 3)) @ rng.standard_normal((3, shape[1]))
    basis = build_basis(as_set(low_rank), PodRule(n_modes=8))
    assert basis.n_pod == 3


def test_orthonormality():
    rng = np.random.default_rng(2)
    basis = build_basis(as_set(rng.standard_normal((50, 20))), PodRule(n_modes=10))
    gram = basis.modes.T @ basis.modes
    assert np.abs(gram - np.eye(10)).max() < 1e-10


def test_project_modes_give_identity():
    rng = np.random.default_rng(3)
    basis = build_basis(as_set(rng.standard_normal((30, 8))), PodRule(n_modes=4))
    snaps = as_set(basis.modes.copy())
    coeffs = project(basis, snaps).coeffs
    assert_allclose(coeffs, np.eye(4), atol=1e-12)


def test_project_orthogonal_complement_gives_zero():
    rng = np.random.default_rng(4)
    snaps = as_set(rng.standard_normal((30, 8)))
    basis = build_basis(snaps, PodRule(n_modes=3))
    # residual of projection is orthogonal to the basis by construction
    residual = snaps.data - basis.modes @ (basis.modes.T @ snaps.data)
    coeffs = project(basis, as_set(residual)).coeffs
    assert np.abs(coeffs).max() < 1e-10


def test_project_rejects_row_mismatch():
    rng = np.random.default_rng(5)
    basis = build_basis(as_set(rng.standard_normal((30, 8))), PodRule(n_modes=3))
    with pytest.raises(ShapeError):
        project(basis, as_set(rng.standard_normal((20, 4))))


def test_truncation_error_matches_tail_energy():
    # optimal low-rank approximation: squared reconstruction error equals the
    # discarded singular-value energy, checked against an independent SVD
    rng = np.random.default_rng(6)
    x = rng.standard_normal((60, 25))
    k = 7
    basis = build_basis(as_set(x), PodRule(n_modes=k))
    recon = reconstruct(basis, project(basis, as_set(x)))
    err_sq = np.linalg.norm(x - recon.data) ** 2
    oracle_sigma = np.linalg.svd(x, compute_uv=False)
    tail = (oracle_sigma[k:] ** 2).sum()
    assert err_sq == pytest.approx(tail, rel=1e-9)
    # and the truncated-SVD oracle reconstruction matches ours
    u, s, vt = np.linalg.svd(x, full_matrices=False)
    oracle_recon = (u[:, :k] * s[:k]) @ vt[:k]
    assert np.abs(recon.data - oracle_recon).max() < 1e-10


def test_reconstruct_zero_and_unit_coefficients():
    rng = np.random.default_rng(7)
    basis = build_basis(as_set(rng.standard_normal((30, 9))), PodRule(n_modes=4))
    times = np.array([0.0])
    params = np.array([[1.0]])
    zero = reconstruct(basis, CoefficientSeries(np.zeros((4, 1)), times, params))
    assert np.abs(zero.data).max() == 0.0
    for k in range(4):
        e_k = np.zeros((4, 1))
        e_k[k, 0] = 1.0
        out = reconstruct(basis, CoefficientSeries(e_k, times, params))
        assert_allclose(out.data[:, 0], basis.modes[:, k], atol=1e-14)


@pytest.mark.parametrize("center", [False, True], ids=["uncentred", "centred"])
def test_reconstruct_is_the_column_major_product_bitwise(center):
    # the product is formed straight into column-major storage: the bits of
    # (coeffs^T @ modes^T)^T, which may differ from modes @ coeffs in the last place
    rng = np.random.default_rng(12)
    basis = build_basis(as_set(rng.standard_normal((600, 40)) + 3.0),
                        PodRule(n_modes=7, center=center))
    series = CoefficientSeries(rng.standard_normal((7, 40)), np.linspace(0, 1, 40),
                               np.array([[1.0]]))
    out = reconstruct(basis, series)
    expected = (series.coeffs.T @ basis.modes.T).T
    if center:
        expected = expected + basis.snapshot_mean[:, None]
    assert out.data.flags.f_contiguous
    assert out.data.tobytes(order="F") == np.asfortranarray(expected).tobytes(order="F")


def test_reconstruct_rejects_coefficient_mismatch():
    rng = np.random.default_rng(8)
    basis = build_basis(as_set(rng.standard_normal((30, 9))), PodRule(n_modes=4))
    with pytest.raises(ShapeError):
        reconstruct(
            basis,
            CoefficientSeries(np.zeros((3, 1)), np.array([0.0]), np.array([[1.0]])),
        )


def test_coefficients_must_be_a_matrix():
    with pytest.raises(ShapeError):
        CoefficientSeries(np.zeros(5), np.arange(5.0), np.array([[1.0]]))


def test_project_reconstruct_identity_on_coefficient_space():
    rng = np.random.default_rng(9)
    basis = build_basis(as_set(rng.standard_normal((40, 15))), PodRule(n_modes=6))
    coeffs = rng.standard_normal((6, 5))
    series = CoefficientSeries(coeffs, np.linspace(0, 1, 5), np.array([[1.0]]))
    back = project(basis, reconstruct(basis, series))
    assert np.abs(back.coeffs - coeffs).max() < 1e-12


@settings(max_examples=20, deadline=None)
@given(
    m=st.integers(8, 60),
    n=st.integers(4, 30),
    tol=st.floats(0.01, 0.6),
    seed=st.integers(0, 2**31),
)
def test_energy_criterion_and_minimality(m, n, tol, seed):
    rng = np.random.default_rng(seed)
    # decaying spectrum so several truncation levels are exercised
    u, _ = np.linalg.qr(rng.standard_normal((m, min(m, n))))
    v, _ = np.linalg.qr(rng.standard_normal((n, min(m, n))))
    sigma = np.exp(-np.arange(min(m, n)) * rng.uniform(0.2, 1.5))
    x = (u * sigma) @ v.T
    snaps = as_set(x)
    basis = build_basis(snaps, PodRule(tol=tol))
    recon = reconstruct(basis, project(basis, snaps))
    rel = np.linalg.norm(x - recon.data) / np.linalg.norm(x)
    assert rel <= tol
    if basis.n_pod > 1:
        # one mode fewer must violate the energy criterion
        energy = basis.sigma**2
        captured = energy[: basis.n_pod - 1].sum() / energy.sum()
        assert captured < 1.0 - tol**2


@pytest.mark.parametrize("shape", [(1500, 1100), (4096, 603)], ids=["1100-columns", "603-columns"])
def test_gram_route_matches_direct_svd(shape):
    # tall sets whose retained modes lie above the Gram rank cut take the Gram route
    rng = np.random.default_rng(10)
    x = rng.standard_normal(shape)
    basis = build_basis(as_set(x, n_mu=1), PodRule(n_modes=5))
    u, s, _ = np.linalg.svd(x, full_matrices=False)
    assert_allclose(basis.sigma, s, rtol=1e-9, atol=1e-9 * s[0])
    # modes agree up to sign
    for k in range(5):
        dot = abs(float(basis.modes[:, k] @ u[:, k]))
        assert dot == pytest.approx(1.0, abs=1e-9)
    assert np.abs(basis.modes.T @ basis.modes - np.eye(5)).max() < 1e-10


def assert_matches_svd(basis, x: np.ndarray, n_pod: int):
    """n_pod modes, each on the span of the thin SVD's leading n_pod left vectors."""
    assert basis.n_pod == n_pod
    u = np.linalg.svd(x, full_matrices=False)[0][:, :n_pod]
    off = np.linalg.norm(basis.modes - u @ (u.T @ basis.modes), axis=0)
    assert off.max() < 1e-8


@pytest.fixture(scope="module")
def half_decade_spectrum():
    """The set and its left singular vectors.

    sigma_i = 10^(-i/2) on a 2048 x 1100 set: the Gram rank cut,
    sqrt(2048 eps) sigma_0 = 6.7e-7 sigma_0, resolves only the first 13 modes.
    """
    rng = np.random.default_rng(13)
    u, _ = np.linalg.qr(rng.standard_normal((2048, 1100)))
    v, _ = np.linalg.qr(rng.standard_normal((1100, 1100)))
    return (u * 10.0 ** (-np.arange(1100) / 2)) @ v.T, u


# 14 is the count the thin SVD's spectrum gives for tol 1e-7
@pytest.mark.parametrize("rule, n_pod", [(PodRule(tol=1e-7), 14), (PodRule(n_modes=16), 16)],
                         ids=["tol", "n_modes"])
def test_modes_below_the_gram_rank_cut_come_from_the_svd(half_decade_spectrum, rule, n_pod):
    x, _ = half_decade_spectrum
    assert_matches_svd(build_basis(as_set(x), rule), x, n_pod)


@pytest.mark.parametrize("n_modes", [10, 12, 13])
def test_gram_modes_above_the_rank_cut_lose_accuracy_as_sigma_falls(
    half_decade_spectrum, n_modes, monkeypatch
):
    # The rank cut bounds the noise in sigma, not the accuracy of the modes
    # just above it. Gram rounding errors of eps * sigma_0^2 tilt mode k off
    # the true subspace by about 1e-3 eps (sigma_0 / sigma_k)^2: with one BLAS
    # thread the worst mode is off by 2.4e-10, 1.2e-8 and 1.9e-7 at 10, 12
    # and 13 modes, where the thin SVD, taken at 14 and 16, stays within
    # 1e-9. The bound below is ten times that rate.
    def no_svd(_):
        raise AssertionError("the basis left the Gram route")

    monkeypatch.setattr(pod, "thin_svd", no_svd)
    x, u = half_decade_spectrum
    basis = build_basis(as_set(x), PodRule(n_modes=n_modes))
    true = u[:, :n_modes]
    off = np.linalg.norm(basis.modes - true @ (true.T @ basis.modes), axis=0).max()
    sigma = 10.0 ** (-np.arange(n_modes) / 2)
    assert off <= 1e-2 * np.finfo(float).eps * (sigma[0] / sigma[-1]) ** 2


def test_seventeen_vorticity_modes_below_the_gram_rank_cut():
    # sw at 16^2, mu in [1, 5] x 5, t_train 2: the 17th singular value,
    # 1.5e-7 sigma_0, lies below the Gram rank cut of this 256 x 105 set, 2.4e-7
    hf = generate_dataset("sw", FidelityProfile("HF", 16, 0.1), ParameterGrid(1.0, 5.0, 5), 2.0)
    assert_matches_svd(build_basis(hf, PodRule(n_modes=17)), hf.data, 17)


# rd-offline's basis: two fields on 64^2 and 3 parameters x 401 times, 9 modes.
# The columns are scaled Gaussians, made without BLAS, so both processes start
# from the same bits and sigma decays by 3 % per mode.
THREADED_BASIS = """
import sys
import numpy as np
from mfpod.numerics import Grid2D
from mfpod.pod import PodRule, build_basis
from mfpod.snapshots import SnapshotSet
x = np.random.default_rng(17).standard_normal((8192, 1203)) * 0.97 ** np.arange(1203)
snaps = SnapshotSet("HF", x, Grid2D(64, 20.0), 0.05 * np.arange(401),
                    [[0.5], [1.0], [1.5]], ("u", "v"))
basis = build_basis(snaps, PodRule(n_modes=9))
np.savez(sys.argv[1], modes=basis.modes, sigma=basis.sigma)
"""


@pytest.mark.slow
def test_benchmark_size_basis_agrees_across_blas_threads(tmp_path):
    # eigh gives different bits under 1 and 2 OpenBLAS threads at this size.
    # Measured on a 2-vCPU VM: sigma moved by 1.7e-16 sigma_0 and the
    # retained subspace by 2.5e-15 (largest principal-angle sine). The bounds
    # are 60 and 40 times that.
    src = str(Path(pod.__file__).resolve().parents[1])
    bases = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        path = tmp_path / f"basis-{threads}.npz"
        subprocess.run([sys.executable, "-c", THREADED_BASIS, str(path)], env=env, check=True)
        bases.append(np.load(path))
    one, two = bases
    assert np.abs(one["sigma"] - two["sigma"]).max() <= 1e-14 * one["sigma"][0]
    a, b = one["modes"], two["modes"]
    assert np.linalg.norm(a - b @ (b.T @ a), 2) <= 1e-13


def test_mean_centering_round_trip():
    rng = np.random.default_rng(11)
    x = rng.standard_normal((20, 6)) + 5.0
    snaps = as_set(x)
    basis = build_basis(snaps, PodRule(n_modes=6, center=True))
    assert basis.snapshot_mean is not None
    recon = reconstruct(basis, project(basis, snaps))
    assert np.abs(recon.data - x).max() < 1e-10
    zero = reconstruct(
        basis, CoefficientSeries(np.zeros((basis.n_pod, 1)), np.array([0.0]), np.array([[1.0]]))
    )
    assert_allclose(zero.data[:, 0], x.mean(axis=1), atol=1e-12)


@pytest.mark.parametrize("shape", [(60, 24), (1300, 1100)], ids=["60x24", "1300x1100"])
def test_mode_signs_survive_rounding_noise(shape):
    rng = np.random.default_rng(12)
    x = rng.standard_normal(shape)
    noisy = x * (1.0 + 1e-15 * rng.standard_normal(shape))
    rule = PodRule(n_modes=8)
    modes = build_basis(as_set(x), rule).modes
    noisy_modes = build_basis(as_set(noisy), rule).modes
    assert np.abs(modes - noisy_modes).max() < 1e-9
    assert np.array_equal(np.sign(modes), np.sign(noisy_modes))
    peak = modes[np.argmax(np.abs(modes), axis=0), np.arange(8)]
    assert np.all(peak > 0)
