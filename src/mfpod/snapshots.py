"""Multi-fidelity snapshot sets: data model, MFSNAP persistence, ingestion.

A snapshot set stacks solution vectors as columns of an (n_dof, n_mu * n_t)
matrix in parameter-major order: all times of the first parameter come
first, so column index = mu_index * n_t + t_index. Trajectory slices are
therefore contiguous, which is why payloads are stored column-major.

MFSNAP binary layout (all integers u32 LE, floats f64 LE):

    bytes 0-7    magic "MFSNAP01"
    bytes 8-31   n_dof, n_t, n_mu, p, n_grid, field_count
    bytes 32-35  fidelity code (0 = HF, 1 = LF)
    bytes 36-63  reserved (zero)
    then         L, times[n_t], params[n_mu * p] (row-major)
    then         field names, each u32 byte length + UTF-8 payload
    then         data, column-major f64, n_dof x (n_mu * n_t)
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .codec import Reader, dump_f64, utf8_bytes, write_atomic
from .errors import DataError, FormatError, ShapeError, StorageError, ValidationError
from .numerics import Grid2D

MAGIC = b"MFSNAP01"
HEADER_SIZE = 64
_FIDELITY_CODES = {"HF": 0, "LF": 1}
_FIDELITY_NAMES = {v: k for k, v in _FIDELITY_CODES.items()}


@dataclass(frozen=True)
class ParameterGrid:
    """Equispaced parameter values on [lo, hi], endpoints included."""

    lo: float
    hi: float
    count: int

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValidationError(f"parameter range requires lo < hi, got [{self.lo}, {self.hi}]")
        if self.count < 2:
            raise ValidationError(f"parameter grid needs at least 2 values, got {self.count}")

    @property
    def values(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.count)

    def midpoints(self, count: int) -> np.ndarray:
        """``count`` cell-centered values; never coincide with grid nodes."""
        if count < 1:
            raise ValidationError(f"midpoint count must be >= 1, got {count}")
        step = (self.hi - self.lo) / count
        return self.lo + step * (0.5 + np.arange(count))


@dataclass
class SnapshotSet:
    """Solution snapshots with their grid, time grid, and parameter values."""

    fidelity: str
    data: np.ndarray
    grid: Grid2D
    times: np.ndarray
    params: np.ndarray
    field_names: tuple[str, ...]

    def __post_init__(self):
        if self.fidelity not in _FIDELITY_CODES:
            raise ValidationError(f"fidelity must be 'HF' or 'LF', got {self.fidelity!r}")
        self.data = np.asfortranarray(self.data, dtype=np.float64)
        if self.data.ndim != 2:
            raise ShapeError(f"snapshot data must be 2-D, got ndim={self.data.ndim}")
        self.times = np.ascontiguousarray(self.times, dtype=np.float64)
        if self.times.ndim != 1 or self.times.size < 1:
            raise ValidationError("times must be a nonempty 1-D vector")
        if np.any(np.diff(self.times) <= 0):
            raise ValidationError("times must be strictly increasing")
        params = np.ascontiguousarray(self.params, dtype=np.float64)
        if params.ndim == 1:
            params = params[:, None]
        if params.ndim != 2 or params.shape[0] < 1 or params.shape[1] < 1:
            raise ValidationError("params must be a nonempty (n_mu, p) matrix")
        self.params = params
        self.field_names = tuple(str(name) for name in self.field_names)
        if not self.field_names:
            raise ValidationError("at least one field name is required")
        expected = self.n_mu * self.n_t
        if self.data.shape[1] != expected:
            raise ShapeError(
                f"snapshot matrix has {self.data.shape[1]} columns, expected "
                f"n_mu*n_t = {self.n_mu}*{self.n_t} = {expected}"
            )
        if not np.all(np.isfinite(self.data)):
            raise DataError("snapshot data contains non-finite values")
        if not np.all(np.isfinite(self.times)) or not np.all(np.isfinite(self.params)):
            raise DataError("times/params contain non-finite values")

    @property
    def n_dof(self) -> int:
        return self.data.shape[0]

    @property
    def n_t(self) -> int:
        return self.times.size

    @property
    def n_mu(self) -> int:
        return self.params.shape[0]

    @property
    def p(self) -> int:
        return self.params.shape[1]

    def trajectory(self, mu_index: int) -> np.ndarray:
        """Columns [i*n_t, (i+1)*n_t) — all snapshots of one parameter."""
        if not 0 <= mu_index < self.n_mu:
            raise ValidationError(f"parameter index {mu_index} out of range [0, {self.n_mu})")
        return self.data[:, mu_index * self.n_t : (mu_index + 1) * self.n_t]


def mfsnap_file_size(n_dof: int, n_t: int, n_mu: int, p: int,
                     field_names: tuple[str, ...]) -> int:
    """Exact on-disk size in bytes of an MFSNAP file with these dimensions."""
    names = sum(4 + len(name.encode("utf-8")) for name in field_names)
    metadata = 8 * (1 + n_t + n_mu * p) + names
    return HEADER_SIZE + metadata + 8 * n_dof * n_mu * n_t


def write_snapshots(snaps: SnapshotSet, path: str | Path) -> None:
    """Persist a snapshot set in MFSNAP format (bit-exact round trip, atomic)."""
    header = MAGIC + struct.pack(
        "<7I",
        snaps.n_dof,
        snaps.n_t,
        snaps.n_mu,
        snaps.p,
        snaps.grid.n,
        len(snaps.field_names),
        _FIDELITY_CODES[snaps.fidelity],
    )
    header += b"\x00" * (HEADER_SIZE - len(header))
    parts = [
        header,
        struct.pack("<d", snaps.grid.L),
        dump_f64(snaps.times),
        dump_f64(snaps.params),
        *(utf8_bytes(name) for name in snaps.field_names),
        dump_f64(snaps.data, order="F"),
    ]
    write_atomic(path, parts, "snapshots")


def read_snapshots(path: str | Path) -> SnapshotSet:
    """Load and validate an MFSNAP file.

    The header's dimensions are checked against the real file size before
    anything is allocated, and the payload is used in place, without a copy.
    """
    try:
        with open(path, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            header = Reader(fh.read(HEADER_SIZE), "MFSNAP header")
            magic = bytes(header.take(8))
            if magic != MAGIC:
                raise FormatError(f"bad magic {magic!r}, expected {MAGIC!r}")
            n_dof, n_t, n_mu, p, n_grid, field_count, fid_code = header.u32(7)
            if fid_code not in _FIDELITY_NAMES:
                raise FormatError(f"unknown fidelity code {fid_code}")
            least = mfsnap_file_size(n_dof, n_t, n_mu, p, ()) + 4 * field_count
            if least > size:
                raise FormatError(
                    f"MFSNAP header declares at least {least} bytes, but {path} "
                    f"holds {size}"
                )
            payload_size = 8 * n_dof * n_mu * n_t
            meta = Reader(fh.read(size - HEADER_SIZE - payload_size), "MFSNAP metadata")
            length = meta.f64()
            times = meta.f64_array(n_t)
            params = meta.f64_array((n_mu, p))
            names = tuple(meta.utf8() for _ in range(field_count))
            meta.done()
            payload = Reader(fh.read(payload_size), "MFSNAP payload").take(payload_size)
    except OSError as exc:
        raise StorageError(f"cannot read snapshots from {path}: {exc}") from exc
    return SnapshotSet(
        fidelity=_FIDELITY_NAMES[fid_code],
        data=np.frombuffer(payload, dtype="<f8").reshape((n_dof, n_mu * n_t), order="F"),
        grid=Grid2D(n_grid, length),
        times=times,
        params=params,
        field_names=names,
    )


def ingest_external(
    data_path: str | Path,
    grid_spec: Grid2D,
    times: np.ndarray,
    params: np.ndarray,
    n_dof: int,
    field_names: tuple[str, ...] = ("field",),
    fidelity: str = "HF",
) -> SnapshotSet:
    """Wrap an externally generated raw payload as a SnapshotSet.

    The payload must be column-major float64 of shape n_dof x (n_mu * n_t)
    in parameter-major column order; this is how third-party solver output
    (e.g. finite-element fields) enters the pipeline.
    """
    times = np.asarray(times, dtype=np.float64)
    params = np.asarray(params, dtype=np.float64)
    if params.ndim == 1:
        params = params[:, None]
    try:
        raw = np.fromfile(data_path, dtype="<f8")
    except OSError as exc:
        raise StorageError(f"cannot read payload from {data_path}: {exc}") from exc
    if n_dof < 1:
        raise ValidationError(f"declared n_dof must be positive, got {n_dof}")
    if raw.size % n_dof != 0:
        raise ShapeError(
            f"payload length {raw.size} is not divisible by declared n_dof {n_dof}"
        )
    expected = n_dof * params.shape[0] * times.size
    if raw.size != expected:
        raise ShapeError(
            f"payload holds {raw.size} values, expected n_dof*n_mu*n_t = {expected}"
        )
    data = raw.reshape((n_dof, params.shape[0] * times.size), order="F")
    return SnapshotSet(
        fidelity=fidelity,
        data=data,
        grid=grid_spec,
        times=times,
        params=params,
        field_names=field_names,
    )
