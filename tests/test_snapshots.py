import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from mfpod import snapshots
from mfpod.errors import DataError, FormatError, ShapeError, StorageError, ValidationError
from mfpod.numerics import Grid2D
from mfpod.pod import PodRule, build_basis, project
from mfpod.snapshots import (
    ParameterGrid,
    SnapshotSet,
    ingest_external,
    mfsnap_file_size,
    read_snapshots,
    write_snapshots,
)


def small_set(seed=0, n_dof=4, n_mu=2, n_t=3):
    rng = np.random.default_rng(seed)
    return SnapshotSet(
        fidelity="LF",
        data=rng.standard_normal((n_dof, n_mu * n_t)),
        grid=Grid2D(4, 2.5),
        times=np.linspace(0.0, 1.0, n_t),
        params=rng.uniform(0, 1, size=(n_mu, 1)),
        field_names=("u",),
    )


# ---------------------------------------------------------------------------
# data model
# ---------------------------------------------------------------------------

def test_parameter_grid_values_and_midpoints():
    grid = ParameterGrid(0.5, 1.5, 10)
    values = grid.values
    assert values[0] == 0.5 and values[-1] == 1.5 and values.size == 10
    mids = grid.midpoints(25)
    assert mids.size == 25
    # cell-centered values never coincide with the training nodes
    assert not np.isclose(mids[:, None], values[None, :]).any()


def test_parameter_grid_validation():
    with pytest.raises(ValidationError):
        ParameterGrid(1.0, 1.0, 5)
    with pytest.raises(ValidationError):
        ParameterGrid(0.0, 1.0, 1)


def test_parameter_grid_rejects_counts_numpy_cannot_index():
    with pytest.raises(ValidationError, match="parameter grid"):
        ParameterGrid(0.5, 1.5, 10**19)
    with pytest.raises(ValidationError, match="midpoints"):
        ParameterGrid(0.5, 1.5, 3).midpoints(10**19)


def test_column_ordering_contract():
    n_mu, n_t = 3, 4
    data = np.arange(2 * n_mu * n_t, dtype=float).reshape(2, n_mu * n_t)
    snaps = SnapshotSet(
        fidelity="HF",
        data=data,
        grid=Grid2D(4, 1.0),
        times=np.arange(n_t, dtype=float),
        params=np.arange(n_mu, dtype=float)[:, None],
        field_names=("u",),
    )
    for i in range(n_mu):
        assert np.array_equal(snaps.trajectory(i), data[:, i * n_t : (i + 1) * n_t])


def test_rejects_empty_parameter_set():
    with pytest.raises(ValidationError):
        SnapshotSet(
            fidelity="HF",
            data=np.zeros((4, 0)),
            grid=Grid2D(4, 1.0),
            times=np.array([0.0]),
            params=np.zeros((0, 1)),
            field_names=("u",),
        )


def test_rejects_non_finite_data():
    data = np.zeros((2, 2))
    data[1, 1] = np.inf
    with pytest.raises(DataError):
        SnapshotSet(
            fidelity="HF",
            data=data,
            grid=Grid2D(4, 1.0),
            times=np.array([0.0, 1.0]),
            params=np.array([[1.0]]),
            field_names=("u",),
        )


def test_rejects_column_count_mismatch():
    with pytest.raises(ShapeError):
        SnapshotSet(
            fidelity="HF",
            data=np.zeros((2, 5)),
            grid=Grid2D(4, 1.0),
            times=np.array([0.0, 1.0]),
            params=np.array([[1.0], [2.0]]),
            field_names=("u",),
        )


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

def test_write_read_round_trip_bit_exact(tmp_path):
    snaps = small_set()
    path = tmp_path / "set.mfsnap"
    write_snapshots(snaps, path)
    loaded = read_snapshots(path)
    assert loaded.fidelity == snaps.fidelity
    assert loaded.grid == snaps.grid
    assert loaded.field_names == snaps.field_names
    assert np.array_equal(loaded.data, snaps.data)
    assert np.array_equal(loaded.times, snaps.times)
    assert np.array_equal(loaded.params, snaps.params)


def test_double_cycle_produces_identical_bytes(tmp_path):
    snaps = small_set(seed=7)
    first = tmp_path / "a.mfsnap"
    second = tmp_path / "b.mfsnap"
    write_snapshots(snaps, first)
    write_snapshots(read_snapshots(first), second)
    assert first.read_bytes() == second.read_bytes()


def test_file_size_formula_matches_disk(tmp_path):
    snaps = small_set(seed=3, n_dof=6, n_mu=2, n_t=5)
    path = tmp_path / "sized.mfsnap"
    write_snapshots(snaps, path)
    expected = mfsnap_file_size(6, 5, 2, 1, ("u",))
    assert path.stat().st_size == expected


def test_file_size_formula_reference_configuration():
    # full-scale reaction-diffusion training set: 2*100^2 dof, 10 params,
    # 801 snapshots, two field names
    n_dof, n_mu, n_t = 2 * 100**2, 10, 801
    size = mfsnap_file_size(n_dof, n_t, n_mu, 1, ("u", "v"))
    header = 64
    metadata = 8 * (1 + n_t + n_mu * 1) + (4 + 1) + (4 + 1)
    payload = 8 * n_dof * n_mu * n_t
    assert size == header + metadata + payload
    assert size == 1_281_606_570


def test_read_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.mfsnap"
    path.write_bytes(b"NOTMAGIC" + bytes(100))
    with pytest.raises(FormatError):
        read_snapshots(path)


def test_read_rejects_truncated(tmp_path):
    snaps = small_set()
    path = tmp_path / "trunc.mfsnap"
    write_snapshots(snaps, path)
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) - 8])
    with pytest.raises(FormatError):
        read_snapshots(path)


def test_read_rejects_non_finite_payload(tmp_path):
    snaps = small_set()
    path = tmp_path / "nan.mfsnap"
    write_snapshots(snaps, path)
    raw = bytearray(path.read_bytes())
    raw[-8:] = np.float64(np.nan).tobytes()
    path.write_bytes(bytes(raw))
    with pytest.raises(DataError):
        read_snapshots(path)


def test_missing_file_is_storage_error(tmp_path):
    with pytest.raises(StorageError):
        read_snapshots(tmp_path / "nope.mfsnap")


# ---------------------------------------------------------------------------
# external ingestion
# ---------------------------------------------------------------------------

def test_ingest_valid_payload(tmp_path):
    payload = np.arange(12, dtype="<f8")
    path = tmp_path / "raw.bin"
    payload.tofile(path)
    snaps = ingest_external(
        path,
        Grid2D(4, 1.0),
        times=np.array([0.0, 0.5, 1.0]),
        params=np.array([2.0]),
        n_dof=4,
        field_names=("p",),
    )
    assert snaps.n_dof == 4 and snaps.n_t == 3 and snaps.n_mu == 1
    # column-major payload: first column is the first 4 floats
    assert_allclose(snaps.data[:, 0], [0, 1, 2, 3])


def test_ingest_rejects_indivisible_payload(tmp_path):
    path = tmp_path / "raw.bin"
    np.arange(13, dtype="<f8").tofile(path)
    with pytest.raises(ShapeError):
        ingest_external(path, Grid2D(4, 1.0), np.array([0.0, 1.0, 2.0]),
                        np.array([1.0]), n_dof=4)


def test_ingest_rejects_wrong_total(tmp_path):
    path = tmp_path / "raw.bin"
    np.arange(16, dtype="<f8").tofile(path)  # divisible by 4 but not 4*1*3
    with pytest.raises(ShapeError):
        ingest_external(path, Grid2D(4, 1.0), np.array([0.0, 1.0, 2.0]),
                        np.array([1.0]), n_dof=4)


def test_ingest_missing_payload_is_a_storage_error(tmp_path):
    with pytest.raises(StorageError, match="cannot read payload"):
        ingest_external(tmp_path / "nope.bin", Grid2D(4, 1.0), np.array([0.0, 1.0, 2.0]),
                        np.array([1.0]), n_dof=4)


# ingests argv[1], declared as 16 values, with the address space capped at
# 2 GiB after the imports; prints the name of the error it ends in
CAPPED_INGEST = """
import resource, sys
import numpy as np
from mfpod.errors import ShapeError
from mfpod.numerics import Grid2D
from mfpod.snapshots import ingest_external
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
try:
    ingest_external(sys.argv[1], Grid2D(4, 1.0), np.array([0.0]), np.array([1.0]), n_dof=16)
except (ShapeError, MemoryError) as exc:
    print(type(exc).__name__)
"""


def test_ingest_sizes_the_payload_before_reading_it(tmp_path):
    # a sparse 4 GiB file: read before it is sized, it would be a MemoryError
    # under the cap; sized first, it is a ShapeError and nothing is loaded
    path = tmp_path / "huge.bin"
    path.touch()
    os.truncate(path, 4 << 30)
    src = str(Path(snapshots.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", CAPPED_INGEST, str(path)], env=env,
                          capture_output=True, text=True)
    assert proc.stdout.strip() == "ShapeError", proc.stderr


def test_ingest_then_project_matches_in_memory_path(tmp_path):
    # the ingested route must produce the same coefficients as building the
    # set directly from the same floats
    rng = np.random.default_rng(11)
    n_dof, n_mu, n_t = 32, 2, 4
    data = rng.standard_normal((n_dof, n_mu * n_t))
    times = np.linspace(0, 1, n_t)
    params = np.array([[0.3], [0.9]])
    direct = SnapshotSet("HF", data, Grid2D(4, 1.0), times, params, ("u", "v"))
    path = tmp_path / "ext.bin"
    data.astype("<f8").tofile(path, sep="")
    # tofile writes C-order; persist explicitly column-major instead
    path.write_bytes(data.astype("<f8").tobytes(order="F"))
    ingested = ingest_external(
        path, Grid2D(4, 1.0), times, params, n_dof=n_dof, field_names=("u", "v")
    )
    assert np.array_equal(ingested.data, direct.data)
    basis = build_basis(direct, PodRule(n_modes=3))
    assert np.array_equal(
        project(basis, ingested).coeffs, project(basis, direct).coeffs
    )
