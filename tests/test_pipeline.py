import functools
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

import mfpod.solvers
from mfpod.errors import (
    AlignmentError,
    CoverageError,
    FormatError,
    ValidationError,
)
from mfpod.mflstm import TrainConfig
from mfpod.pipeline import (
    Provenance,
    SurrogateModel,
    _ERROR_BLOCK,
    evaluate,
    load_model,
    offline_train,
    online_predict,
    online_predict_detailed,
    prediction_times,
    save_model,
)
from mfpod.pod import PodRule
from mfpod.snapshots import ParameterGrid, SnapshotSet
from mfpod.solvers import FidelityProfile, generate_dataset, rd_initial
from mfpod.lifting import LiftSpec, lift, lift_project
from mfpod.numerics import Grid2D


HF_PROF = FidelityProfile("HF", 16, 0.05, 0.05)
LF_PROF = FidelityProfile("LF", 8, 0.1, 0.1)
GRID = ParameterGrid(0.5, 1.5, 3)


@pytest.fixture(scope="module")
def tiny_sets():
    hf = generate_dataset("rd", HF_PROF, GRID, 4.0)
    lf = generate_dataset("rd", LF_PROF, GRID, 4.0)
    return hf, lf


@pytest.fixture(scope="module")
def tiny_model(tiny_sets):
    hf, lf = tiny_sets
    cfg = TrainConfig(hidden=24, k_window=20, n_batch=8, epochs=250,
                      learning_rate=1e-2, seed=5)
    return offline_train(
        hf, lf, PodRule(n_modes=6), cfg,
        spatial_mode="nearest", problem="rd",
        hf_profile=HF_PROF, lf_profile=LF_PROF,
    )


# ---------------------------------------------------------------------------
# offline training
# ---------------------------------------------------------------------------

def test_offline_train_basis_mode_count(tiny_model):
    assert tiny_model.basis.n_pod == 6
    assert tiny_model.lstm.layout.n_coef == 6
    assert tiny_model.provenance.problem == "rd"
    assert tiny_model.provenance.t_train == pytest.approx(4.0)


def test_offline_train_rejects_parameter_mismatch(tiny_sets):
    hf, _ = tiny_sets
    other = generate_dataset("rd", LF_PROF, np.array([0.6, 1.0, 1.4]), 4.0)
    with pytest.raises(AlignmentError):
        offline_train(hf, other, PodRule(n_modes=4), TrainConfig(epochs=1, k_window=8),
                      problem="rd", hf_profile=HF_PROF, lf_profile=LF_PROF)


def test_surrogate_rejects_inconsistent_parts(tiny_model):
    # lift destination grid must match the basis grid
    bad_spec = LiftSpec(
        "nearest", tiny_model.lift_spec.src_grid, Grid2D(32, 20.0),
        tiny_model.lift_spec.dst_times,
    )
    with pytest.raises(ValidationError):
        SurrogateModel(
            basis=tiny_model.basis,
            lift_spec=bad_spec,
            lstm=tiny_model.lstm,
            provenance=tiny_model.provenance,
        )


def test_surrogate_rejects_a_lift_from_a_finer_grid(tiny_model):
    # the reduced stencil has a row per source entry: a forged source grid
    # must be refused before it is allocated
    spec = tiny_model.lift_spec
    finer = LiftSpec(spec.spatial_mode, Grid2D(spec.dst_grid.n + 2, spec.src_grid.L),
                     spec.dst_grid, spec.dst_times)
    with pytest.raises(ValidationError, match="finer"):
        SurrogateModel(basis=tiny_model.basis, lift_spec=finer, lstm=tiny_model.lstm,
                       provenance=tiny_model.provenance)


def test_coefficient_alignment_structure(tiny_sets, tiny_model):
    # column i of both coefficient series corresponds to the same (t, mu)
    hf, lf = tiny_sets
    from mfpod.lifting import lift_project
    from mfpod.pod import project

    coef_hf = project(tiny_model.basis, hf)
    coef_lf = lift_project(lf, tiny_model.lift_spec, tiny_model.basis)
    assert np.array_equal(coef_hf.times, coef_lf.times)
    assert np.array_equal(coef_hf.params, coef_lf.params)
    assert coef_hf.coeffs.shape == coef_lf.coeffs.shape


# ---------------------------------------------------------------------------
# online prediction
# ---------------------------------------------------------------------------

def test_online_predict_t0_returns_initial_state(tiny_model):
    pred = online_predict(tiny_model, 1.0, 0.0)
    assert pred.n_t == 1
    assert pred.times[0] == 0.0
    # the prediction is the reconstruction of the mapped initial coefficients:
    # finite and close to the true initial field at coarse tolerance
    u0, v0 = rd_initial(Grid2D(16, 20.0))
    truth = np.concatenate([u0.ravel(order="F"), v0.ravel(order="F")])
    rel = np.linalg.norm(pred.data[:, 0] - truth) / np.linalg.norm(truth)
    assert rel < 1.0


def test_online_predict_never_calls_hf_solver(tiny_model, monkeypatch):
    # every rd solve, in one loop or split over two threads, builds its
    # right-hand side through _rd_system
    seen = []
    original = mfpod.solvers._rd_system

    def spy(cfg, *args, **kwargs):
        seen.append(cfg.n)
        return original(cfg, *args, **kwargs)

    monkeypatch.setattr(mfpod.solvers, "_rd_system", spy)
    online_predict(tiny_model, 1.0, 2.0)
    assert seen and all(n == LF_PROF.n for n in seen)


def test_online_predict_warns_out_of_range(tiny_model):
    with pytest.warns(UserWarning, match="outside the training range"):
        online_predict(tiny_model, 2.5, 0.5)


def test_online_predict_extends_past_training_horizon(tiny_model):
    pred = online_predict(tiny_model, 1.0, 8.0)  # T_train was 4.0
    assert pred.times[-1] == pytest.approx(8.0)
    assert np.all(np.isfinite(pred.data))


def test_online_coefficients_match_fresh_stencil(tiny_model, tmp_path):
    # the model's own stencil, built with the trained, the loaded or a
    # re-based model, gives the coefficients that building it per call gives
    path = tmp_path / "model.mfsurr"
    save_model(tiny_model, path)
    flipped = replace(tiny_model.basis, modes=-tiny_model.basis.modes)
    for model in (tiny_model, load_model(path), replace(tiny_model, basis=flipped)):
        detail = online_predict_detailed(model, 0.8, 6.0)  # LF dt is twice HF dt
        spec = LiftSpec(model.lift_spec.spatial_mode, model.lift_spec.src_grid,
                        model.lift_spec.dst_grid, detail.prediction.times)
        fresh = lift_project(detail.lf_snapshots, spec, model.basis, stencil=None)
        assert np.array_equal(detail.lf_coefficients.coeffs, fresh.coeffs)


def test_prediction_times_grid(tiny_model):
    times = prediction_times(tiny_model, 1.0)
    assert_allclose(times, np.arange(0, 1.0 + 0.025, 0.05), atol=1e-12)


def test_training_point_mf_beats_lf(tiny_sets, tiny_model):
    hf, _ = tiny_sets
    mu = GRID.values[1]
    report = evaluate(tiny_model, np.array([mu]), 4.0, hf, timing_reps=0)
    assert report.err_mf_percent <= report.err_lf_percent


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def test_evaluate_zero_error_when_reference_is_own_prediction(tiny_model):
    mu = 0.8
    pred = online_predict(tiny_model, mu, 2.0)
    reference = SnapshotSet(
        "HF", pred.data, pred.grid, pred.times, np.array([[mu]]), pred.field_names
    )
    report = evaluate(tiny_model, np.array([mu]), 2.0, reference, timing_reps=0)
    assert report.err_mf_percent == 0.0


def test_evaluate_lf_error_100_when_reference_is_half_lift(tiny_model):
    mu = 1.2
    detail = online_predict_detailed(tiny_model, mu, 2.0)
    spec = LiftSpec(
        tiny_model.lift_spec.spatial_mode,
        tiny_model.lift_spec.src_grid,
        tiny_model.lift_spec.dst_grid,
        detail.prediction.times,
    )
    lifted = lift(detail.lf_snapshots, spec)
    reference = SnapshotSet(
        "HF", 0.5 * lifted.data, lifted.grid, lifted.times,
        np.array([[mu]]), lifted.field_names,
    )
    report = evaluate(tiny_model, np.array([mu]), 2.0, reference, timing_reps=0)
    assert report.err_lf_percent == pytest.approx(100.0, abs=1e-10)


def test_evaluate_matches_brute_force_column_metric(tiny_sets, tiny_model):
    hf, _ = tiny_sets
    mus = GRID.values[:2]
    report = evaluate(tiny_model, mus, 4.0, hf, timing_reps=0)
    # brute-force recomputation of the column-wise metric
    offset = 0
    for mu_idx, mu in enumerate(mus):
        pred = online_predict(tiny_model, float(mu), 4.0)
        ref = hf.trajectory(mu_idx)
        for j in range(pred.n_t):
            expected = (
                100.0
                * np.linalg.norm(ref[:, j] - pred.data[:, j])
                / np.linalg.norm(ref[:, j])
            )
            assert report.col_err_mf_percent[offset + j] == pytest.approx(
                expected, abs=1e-12
            )
        offset += pred.n_t
    assert report.err_mf_percent == pytest.approx(
        report.col_err_mf_percent.mean(), abs=1e-12
    )


@functools.cache
def block_case_model(mode: str, lf_dt: float, center: bool) -> SurrogateModel:
    """A small rd model per lift mode, LF step and basis kind."""
    hf_prof = FidelityProfile("HF", 16, 0.05, 0.05)
    lf_prof = FidelityProfile("LF", 8, lf_dt, 0.1)
    hf = generate_dataset("rd", hf_prof, GRID, 2.0)
    lf = generate_dataset("rd", lf_prof, GRID, 2.0)
    cfg = TrainConfig(hidden=8, k_window=10, n_batch=8, epochs=5, seed=3)
    return offline_train(hf, lf, PodRule(n_modes=4, center=center), cfg, spatial_mode=mode,
                         problem="rd", hf_profile=hf_prof, lf_profile=lf_prof)


@pytest.mark.parametrize("mode", ["nearest", "bilinear"])
@pytest.mark.parametrize("lf_dt", [0.05, 0.1], ids=["equal-step", "coarser-step"])
@pytest.mark.parametrize("center", [False, True], ids=["raw", "centred"])
@pytest.mark.parametrize("n_t", [4 * _ERROR_BLOCK + 1, _ERROR_BLOCK // 2 + 1],
                         ids=["one-past-whole-blocks", "below-one-block"])
def test_evaluate_columns_equal_single_parameter_recomputation(mode, lf_dt, center, n_t):
    # evaluate solves LF once for all parameters and streams its errors through
    # column blocks; every column must still be the bits of a whole-array
    # recomputation from the single-parameter online path and its lifted LF input
    model = block_case_model(mode, lf_dt, center)
    T = (n_t - 1) * model.provenance.hf_profile.dt
    mus = GRID.midpoints(2)
    reference = generate_dataset("rd", model.provenance.hf_profile, mus, T)
    report = evaluate(model, mus[::-1], T, reference, timing_reps=0)
    assert report.mus.size == 2 * n_t
    for i, mu in enumerate(mus[::-1]):
        detail = online_predict_detailed(model, float(mu), T)
        spec = replace(model.lift_spec, dst_times=detail.prediction.times)
        ref = reference.trajectory(1 - i)
        ref_norm = np.linalg.norm(ref, axis=0)
        assert np.all(ref_norm > 0)
        lifted = lift(detail.lf_snapshots, spec).data
        block = slice(i * n_t, (i + 1) * n_t)
        expected_mf = 100.0 * (np.linalg.norm(ref - detail.prediction.data, axis=0) / ref_norm)
        expected_lf = 100.0 * (np.linalg.norm(ref - lifted, axis=0) / ref_norm)
        assert report.col_err_mf_percent[block].tobytes() == expected_mf.tobytes()
        assert report.col_err_lf_percent[block].tobytes() == expected_lf.tobytes()


def test_evaluate_warns_out_of_range(tiny_model):
    mu = 2.5
    with pytest.warns(UserWarning, match="outside the training range"):
        pred = online_predict(tiny_model, mu, 2.0)
    reference = SnapshotSet(
        "HF", pred.data, pred.grid, pred.times, np.array([[mu]]), pred.field_names
    )
    with pytest.warns(UserWarning, match=r"mu = 2\.5 lies outside the training range"):
        report = evaluate(tiny_model, np.array([mu]), 2.0, reference, timing_reps=0)
    assert report.err_mf_percent == 0.0


def test_evaluate_rejects_missing_parameter(tiny_sets, tiny_model):
    hf, _ = tiny_sets
    with pytest.raises(CoverageError):
        evaluate(tiny_model, np.array([0.77]), 4.0, hf, timing_reps=0)


def test_evaluate_rejects_wrong_time_grid(tiny_sets, tiny_model):
    hf, _ = tiny_sets
    with pytest.raises(CoverageError):
        evaluate(tiny_model, GRID.values[:1], 2.0, hf, timing_reps=0)


def test_evaluate_timing_block(tiny_model, tiny_sets):
    hf, _ = tiny_sets
    report = evaluate(tiny_model, GRID.values[:1], 4.0, hf, timing_reps=1)
    assert report.time_lf > 0 and report.time_mf > 0 and report.time_hf > 0
    summary = report.summary()
    assert "% of HF" in summary


@pytest.mark.parametrize("reps", [-1, -3])
def test_evaluate_rejects_negative_timing_reps(tiny_sets, tiny_model, reps):
    hf, _ = tiny_sets
    with pytest.raises(ValidationError, match="timing_reps"):
        evaluate(tiny_model, GRID.values[:1], 4.0, hf, timing_reps=reps)


def test_report_csv_and_per_parameter(tiny_sets, tiny_model, tmp_path):
    hf, _ = tiny_sets
    report = evaluate(tiny_model, GRID.values[:2], 4.0, hf, timing_reps=0)
    path = tmp_path / "report.csv"
    report.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "mu,t,err_mf_percent,err_lf_percent"
    assert len(lines) == 1 + report.mus.size
    per_mu = report.per_parameter()
    assert len(per_mu) == 2
    # grouped means agree with manual grouping
    first_block = report.col_err_mf_percent[: hf.n_t]
    assert per_mu[0][1] == pytest.approx(first_block.mean())
    # the overall means follow the columns
    first_only = replace(report, col_err_mf_percent=first_block, col_err_lf_percent=first_block)
    assert first_only.err_mf_percent == first_only.err_lf_percent == float(first_block.mean())


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

def test_save_load_round_trip_identical_predictions(tiny_model, tmp_path):
    path = tmp_path / "model.mfsurr"
    save_model(tiny_model, path)
    loaded = load_model(path)
    probe = online_predict(tiny_model, 0.9, 1.0)
    probe2 = online_predict(loaded, 0.9, 1.0)
    assert np.array_equal(probe.data, probe2.data)
    # double save produces identical bytes
    path2 = tmp_path / "model2.mfsurr"
    save_model(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_truncated_model_file_rejected(tiny_model, tmp_path):
    path = tmp_path / "model.mfsurr"
    save_model(tiny_model, path)
    raw = path.read_bytes()
    for cut in (len(raw) - 16, 20, 7):
        path.write_bytes(raw[:cut])
        with pytest.raises(FormatError):
            load_model(path)


def test_bad_magic_rejected(tiny_model, tmp_path):
    path = tmp_path / "model.mfsurr"
    save_model(tiny_model, path)
    raw = bytearray(path.read_bytes())
    raw[:8] = b"WRONGMAG"
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError):
        load_model(path)


def test_cross_process_load_gives_identical_report(tiny_model, tiny_sets, tmp_path):
    hf, _ = tiny_sets
    model_path = tmp_path / "model.mfsurr"
    save_model(tiny_model, model_path)
    report = evaluate(tiny_model, GRID.values[:1], 4.0, hf, timing_reps=0)
    csv_here = tmp_path / "here.csv"
    report.to_csv(csv_here)
    from mfpod.snapshots import write_snapshots

    hf_path = tmp_path / "hf.mfsnap"
    write_snapshots(hf, hf_path)
    script = (
        "import numpy as np\n"
        "from mfpod.pipeline import load_model, evaluate\n"
        "from mfpod.snapshots import read_snapshots\n"
        f"model = load_model({str(model_path)!r})\n"
        f"hf = read_snapshots({str(hf_path)!r})\n"
        f"report = evaluate(model, np.array([{GRID.values[0]!r}]), 4.0, hf, timing_reps=0)\n"
        f"report.to_csv({str(tmp_path / 'there.csv')!r})\n"
    )
    subprocess.run([sys.executable, "-c", script], check=True)
    assert csv_here.read_bytes() == (tmp_path / "there.csv").read_bytes()


def test_retrain_with_same_seed_is_byte_identical(tiny_sets, tmp_path):
    hf, lf = tiny_sets
    cfg = TrainConfig(hidden=8, k_window=10, n_batch=8, epochs=20, seed=9)
    paths = []
    for name in ("a.mfsurr", "b.mfsurr"):
        model = offline_train(
            hf, lf, PodRule(n_modes=4), cfg,
            spatial_mode="nearest", problem="rd",
            hf_profile=HF_PROF, lf_profile=LF_PROF,
        )
        path = tmp_path / name
        save_model(model, path)
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()


# ---------------------------------------------------------------------------
# degenerate same-fidelity input: the mapping task is the identity
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_identity_pipeline_error_below_two_percent():
    hf_prof = FidelityProfile("HF", 16, 0.05, 0.05)
    lf_prof = FidelityProfile("LF", 16, 0.05, 0.05)
    hf = generate_dataset("rd", hf_prof, GRID, 8.0)
    lf = generate_dataset("rd", lf_prof, GRID, 8.0)
    assert np.array_equal(hf.data, lf.data)
    cfg = TrainConfig(hidden=64, k_window=80, n_batch=16, epochs=1500,
                      learning_rate=5e-3, seed=0)
    model = offline_train(
        hf, lf, PodRule(n_modes=12), cfg,
        spatial_mode="nearest", problem="rd",
        hf_profile=hf_prof, lf_profile=lf_prof,
    )
    # evaluate on the fitted window (the last 10% of each trajectory was the
    # validation holdout)
    t_eval = 7.2
    reference = generate_dataset("rd", hf_prof, GRID.values, t_eval)
    report = evaluate(model, GRID.values, t_eval, reference, timing_reps=0)
    assert report.err_lf_percent == pytest.approx(0.0, abs=1e-9)
    assert report.err_mf_percent < 2.0
