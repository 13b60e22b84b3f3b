"""File-format guarantees: pinned bytes, typed errors on corrupt input, atomic writes."""

import hashlib
import os
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mfpod.errors import FormatError, MfpodError, StorageError, ValidationError
from mfpod.lifting import LiftSpec
from mfpod.mflstm import FeatureLayout, LstmLayerWeights, LstmModel, Normalizer, predict
from mfpod.numerics import Grid2D
from mfpod.pipeline import Provenance, SurrogateModel, load_model, save_model
from mfpod.pod import CoefficientSeries, PodBasis
from mfpod.snapshots import SnapshotSet, read_snapshots, write_snapshots
from mfpod.solvers import FidelityProfile


def ramp(shape, offset=0):
    """Deterministic dyadic values, exact in binary on every platform."""
    count = int(np.prod(shape))
    return ((np.arange(count) % 7 - 3) * 0.125 + offset * 0.03125).reshape(shape)


def pinned_snapshots() -> SnapshotSet:
    return SnapshotSet(
        fidelity="LF",
        data=ramp((4, 6)) - 0.5,
        grid=Grid2D(4, 2.5),
        times=np.array([0.0, 0.5, 1.0]),
        params=np.array([[0.5], [1.5]]),
        field_names=("u", "ψ"),
    )


def pinned_model(n_layers: int = 1) -> SurrogateModel:
    grid = Grid2D(4, 2.0)
    basis = PodBasis(
        modes=np.asfortranarray(ramp((16, 2), 1)),
        sigma=np.array([4.0, 2.0, 1.0]),
        eps_pod=1e-3,
        snapshot_mean=ramp(16, 2),
        grid=grid,
        field_names=("u",),
    )
    hidden, d_in = 2, 4
    layers = [
        LstmLayerWeights(
            np.vstack([ramp((hidden, hidden + d_layer), 12 * li + k) for k in range(4)]),
            np.concatenate([ramp(hidden, 12 * li + k) for k in range(4, 8)]),
        )
        for li, d_layer in enumerate([d_in, hidden][:n_layers])
    ]
    lstm = LstmModel(
        layers=layers,
        w_out=ramp((2, hidden), 8),
        b_out=ramp(2, 9),
        input_norm=Normalizer(ramp(d_in, 10), np.arange(1.0, d_in + 1)),
        output_norm=Normalizer(ramp(2, 11), np.array([0.5, 2.0])),
        layout=FeatureLayout(with_time=True, n_params=1, n_coef=2),
    )
    return SurrogateModel(
        basis=basis,
        lift_spec=LiftSpec("bilinear", grid, grid, np.arange(5) * 0.25),
        lstm=lstm,
        provenance=Provenance(
            problem="rd",
            hf_profile=FidelityProfile("HF", 4, 0.25, 0.05),
            lf_profile=FidelityProfile("LF", 4, 0.5),
            t_train=1.0,
            param_lo=0.5,
            param_hi=1.5,
        ),
    )


def encode(write, obj) -> bytes:
    with tempfile.TemporaryDirectory() as td:
        path = Path(td) / "artifact"
        write(obj, path)
        return path.read_bytes()


GOOD = {
    "snap": encode(write_snapshots, pinned_snapshots()),
    "surr": encode(save_model, pinned_model()),
}
READERS = {"snap": read_snapshots, "surr": load_model}


def block_offsets(surr: bytes) -> list[int]:
    """Start of each MFSURR block (after its u64 length)."""
    starts, pos = [], 8
    for _ in range(4):
        (size,) = struct.unpack_from("<Q", surr, pos)
        starts.append(pos + 8)
        pos += 8 + size
    return starts


def with_block(surr: bytes, index: int, block: bytes) -> bytes:
    """The MFSURR container with block ``index`` replaced."""
    starts = block_offsets(surr)
    begin = starts[index]
    (size,) = struct.unpack_from("<Q", surr, begin - 8)
    return (surr[: begin - 8] + struct.pack("<Q", len(block)) + block
            + surr[begin + size :])


# byte offsets of the fields the explicit fuzz examples forge
SNAP_N_DOF_TOP = 11  # most significant byte of the header's n_dof
SNAP_NAME = 64 + 8 * (1 + 3 + 2) + 4  # first byte of the first field name
LSTM_HIDDEN = block_offsets(GOOD["surr"])[2] + 8 + 4  # after magic and n_layers


# ---------------------------------------------------------------------------
# format pins: SHA-256 of the bytes these fixed objects gave before the
# readers and writers moved onto the shared codec
# ---------------------------------------------------------------------------

def test_mfsnap_bytes_are_pinned():
    assert hashlib.sha256(GOOD["snap"]).hexdigest() == (
        "62ecf889c96d4a19c6fddeff27eb43c1ca694277ea949d5d5db257b01262f7de"
    )


def test_mfsurr_bytes_are_pinned():
    assert hashlib.sha256(GOOD["surr"]).hexdigest() == (
        "c3cf9cfab13ed1542cf9941947d6fc162fcfa89d61cf23c35998c49a064e2c72"
    )


def test_two_layer_mfsurr_bytes_are_pinned():
    # hash taken with the per-gate weight layout, before the stacked one
    assert hashlib.sha256(encode(save_model, pinned_model(n_layers=2))).hexdigest() == (
        "7dfa5fe580df5674e0d066ef1e3f65e07ead94a726fff76150d75f0533e2f774"
    )


# ---------------------------------------------------------------------------
# corrupt and forged files
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(deadline=None)
@given(
    kind=st.sampled_from(sorted(READERS)),
    cut=st.none() | st.integers(0, 1 << 16),
    edits=st.lists(st.tuples(st.integers(0, 1 << 16), st.integers(0, 255)), max_size=4),
)
@example(kind="snap", cut=None, edits=[(SNAP_NAME, 0xFF)])
@example(kind="snap", cut=None, edits=[(SNAP_N_DOF_TOP, 0x80)])
@example(kind="surr", cut=None, edits=[(LSTM_HIDDEN + i, 0xFF) for i in range(4)])
def test_corrupt_files_raise_only_mfpod_errors(fuzz_dir, kind, cut, edits):
    blob = bytearray(GOOD[kind])
    for pos, value in edits:
        blob[pos % len(blob)] = value
    if cut is not None:
        blob = blob[: cut % (len(blob) + 1)]
    path = fuzz_dir / kind
    path.write_bytes(bytes(blob))
    try:
        READERS[kind](path)
    except MfpodError:
        pass


@pytest.mark.parametrize("defect", ["n_t", "name"])
def test_forged_mfsnap_is_format_error(tmp_path, defect):
    blob = bytearray(GOOD["snap"])
    if defect == "n_t":
        struct.pack_into("<I", blob, 12, 1 << 30)  # checked before anything is allocated
    else:
        blob[SNAP_NAME] = 0xFF  # invalid UTF-8
    path = tmp_path / "forged.mfsnap"
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError):
        read_snapshots(path)


@pytest.mark.parametrize("defect", ["trailing bytes", "rows"])
def test_malformed_basis_block_is_format_error(tmp_path, defect):
    begin = block_offsets(GOOD["surr"])[0]
    (size,) = struct.unpack_from("<Q", GOOD["surr"], begin - 8)
    block = bytearray(GOOD["surr"][begin : begin + size])
    if defect == "trailing bytes":
        block += b"\0" * 8
    else:
        struct.pack_into("<I", block, 8 + 12, 6)  # n_grid 4 -> 6: rows != 1 * 6^2
    path = tmp_path / "model.mfsurr"
    path.write_bytes(with_block(GOOD["surr"], 0, bytes(block)))
    with pytest.raises(FormatError):
        load_model(path)


@pytest.mark.parametrize("profile", ["hf", "lf"])
def test_provenance_without_profile_is_format_error(tmp_path, profile):
    begin = block_offsets(GOOD["surr"])[3]
    block = GOOD["surr"][begin:]
    # magic, the problem "rd" (u32 length + 2 bytes), then two 28-byte profiles
    at = 8 + 6 + (0 if profile == "hf" else 28)
    absent = block[:at] + struct.pack("<I", 0) + block[at + 28 :]
    path = tmp_path / "model.mfsurr"
    path.write_bytes(with_block(GOOD["surr"], 3, absent))
    with pytest.raises(FormatError):
        load_model(path)


@pytest.mark.parametrize("field", ["snapshot fidelity", "lift mode", "hf profile fidelity",
                                   "problem"])
def test_unknown_code_is_format_error(tmp_path, field):
    # every block maps its codes through the same table its writer uses
    match = "unknown .* code 7"
    if field == "snapshot fidelity":
        blob = bytearray(GOOD["snap"])
        struct.pack_into("<I", blob, 32, 7)
        reader = read_snapshots
    elif field == "problem":
        # the name "rd" after the provenance magic and its u32 length, checked
        # against the solvers' problem table
        blob = bytearray(GOOD["surr"])
        at = block_offsets(GOOD["surr"])[3] + 8 + 4
        blob[at : at + 2] = b"xx"
        reader, match = load_model, "unknown problem 'xx'"
    else:
        index = 1 if field == "lift mode" else 3
        begin = block_offsets(GOOD["surr"])[index]
        (size,) = struct.unpack_from("<Q", GOOD["surr"], begin - 8)
        block = bytearray(GOOD["surr"][begin : begin + size])
        # after the magic; the profile code follows the problem "rd" and the profile flag
        struct.pack_into("<I", block, 8 if index == 1 else 8 + 6 + 4, 7)
        blob = with_block(GOOD["surr"], index, bytes(block))
        reader = load_model
    path = tmp_path / "forged"
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match=match):
        reader(path)


# ---------------------------------------------------------------------------
# atomic writes
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind", ["snap", "surr"])
def test_failed_write_keeps_old_file_and_leaves_no_temp(tmp_path, monkeypatch, kind):
    path = tmp_path / "artifact"
    path.write_bytes(b"old content")

    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(StorageError):
        if kind == "snap":
            write_snapshots(pinned_snapshots(), path)
        else:
            save_model(pinned_model(), path)
    assert path.read_bytes() == b"old content"
    assert [p.name for p in tmp_path.iterdir()] == ["artifact"]


NON_FINITE_TARGETS = {
    "b": lambda lstm: lstm.layers[0].b,
    "w_out": lambda lstm: lstm.w_out,
    "b_out": lambda lstm: lstm.b_out,
    "input_norm.mean": lambda lstm: lstm.input_norm.mean,
    "output_norm.std": lambda lstm: lstm.output_norm.std,
}


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("array", sorted(NON_FINITE_TARGETS))
def test_non_finite_model_arrays_are_rejected(array, bad, tmp_path):
    model = pinned_model()
    NON_FINITE_TARGETS[array](model.lstm)[-1] = bad
    series = CoefficientSeries(np.zeros((2, 3)), np.array([0.0, 0.5, 1.0]), np.array([[1.0]]))
    with pytest.raises(ValidationError):
        predict(model.lstm, series)
    path = tmp_path / "model.mfsurr"
    save_model(model, path)
    with pytest.raises(MfpodError):
        load_model(path)
