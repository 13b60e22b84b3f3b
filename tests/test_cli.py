import json

import numpy as np
import pytest

from mfpod.cli import main
from mfpod.snapshots import read_snapshots


def write_config(path, **overrides):
    cfg = {
        "problem": "rd",
        "seed": 3,
        "hf": {"n": 16, "dt": 0.05, "d": 0.05},
        "lf": {"n": 8, "dt": 0.1, "d": 0.1},
        "params": {"lo": 0.5, "hi": 1.5, "count": 3},
        "test_params": {"count": 2},
        "t_train": 3.0,
        "t_final": 5.0,
        "pod": {"n_modes": 4},
        "lift": {"spatial_mode": "nearest"},
        "train": {"hidden": 12, "k_window": 10, "n_batch": 8, "epochs": 25},
    }
    cfg.update(overrides)
    path.write_text(json.dumps(cfg))
    return path


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    td = tmp_path_factory.mktemp("cli")
    cfg = write_config(td / "cfg.json")
    assert main(["generate", "--config", str(cfg), "--fidelity", "hf",
                 "--out", str(td / "hf.mfsnap")]) == 0
    assert main(["generate", "--config", str(cfg), "--fidelity", "lf",
                 "--out", str(td / "lf.mfsnap")]) == 0
    assert main(["generate", "--config", str(cfg), "--fidelity", "hf",
                 "--role", "test", "--out", str(td / "ref.mfsnap")]) == 0
    assert main(["train", "--config", str(cfg), "--hf", str(td / "hf.mfsnap"),
                 "--lf", str(td / "lf.mfsnap"), "--out", str(td / "model.mfsurr"),
                 "--log", str(td / "train_log.csv")]) == 0
    return td


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------

def test_generate_outputs(workspace):
    hf = read_snapshots(workspace / "hf.mfsnap")
    assert hf.n_mu == 3 and hf.grid.n == 16 and hf.fidelity == "HF"
    lf = read_snapshots(workspace / "lf.mfsnap")
    assert lf.grid.n == 8 and lf.fidelity == "LF"
    ref = read_snapshots(workspace / "ref.mfsnap")
    assert ref.n_mu == 2 and ref.times[-1] == pytest.approx(5.0)


def test_generate_missing_config_exits_2(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    code = main(["generate", "--config", str(missing), "--fidelity", "hf",
                 "--out", str(tmp_path / "x.mfsnap")])
    assert code == 2
    assert str(missing) in capsys.readouterr().err


def test_generate_no_overwrite_exits_2(workspace):
    code = main(["generate", "--config", str(workspace / "cfg.json"),
                 "--fidelity", "hf", "--out", str(workspace / "hf.mfsnap"),
                 "--no-overwrite"])
    assert code == 2


def test_generate_unstable_solver_exits_3(tmp_path):
    cfg = write_config(
        tmp_path / "cfg.json",
        problem="sw",
        hf={"n": 50, "dt": 1.0},
        lf={"n": 50, "dt": 1.0},
        params={"lo": 4.5, "hi": 5.0, "count": 2},
        t_train=20.0,
    )
    code = main(["generate", "--config", str(cfg), "--fidelity", "hf",
                 "--out", str(tmp_path / "boom.mfsnap")])
    assert code == 3


def test_generate_rejects_unknown_config_key(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    raw = json.loads(write_config(tmp_path / "base.json").read_text())
    raw["surprise"] = 1
    cfg_path.write_text(json.dumps(raw))
    code = main(["generate", "--config", str(cfg_path), "--fidelity", "hf",
                 "--out", str(tmp_path / "x.mfsnap")])
    assert code == 2


@pytest.mark.parametrize("overrides", [
    {"hf": {"n": "abc", "dt": 0.05}},
    {"hf": {"n": True, "dt": 0.05}},
    {"params": {"lo": "x", "hi": 1.5, "count": 3}},
    {"params": {"lo": 0.5, "hi": 1.5}},
    {"test_params": ["a"]},
    {"test_params": {"count": 0}},
    {"train": {"hidden": "12"}},
    {"pod": {"n_modes": "4"}},
    {"search": {"space": {"hidden": 5}}},
    {"paths": {"out_dir": "x"}},
    {"t_final": float("nan")},
    {"train": {"beta1": 0.9}},
    {"search": {"space": {"adam_eps": [1e-8]}}},
    {"search": {"mode": "grid", "space": {"hidden": [8]}}},
], ids=["hf.n-str", "hf.n-bool", "params.lo-str", "params-no-count", "test_params-str",
        "test_params-count-0", "train.hidden-str", "pod.n_modes-str", "search.space-scalar",
        "paths", "t_final-nan", "train.beta1", "search.space.adam_eps", "search.mode"])
def test_generate_rejects_malformed_config_value(tmp_path, capsys, overrides):
    cfg = write_config(tmp_path / "cfg.json", **overrides)
    code = main(["generate", "--config", str(cfg), "--fidelity", "hf", "--role", "test",
                 "--out", str(tmp_path / "x.mfsnap")])
    assert code == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not (tmp_path / "x.mfsnap").exists()


def test_generate_problem_flag_exits_2(workspace, tmp_path, capsys):
    # the config's required "problem" key is the one place the problem is set
    with pytest.raises(SystemExit) as exc:
        main(["generate", "--config", str(workspace / "cfg.json"), "--problem", "sw",
              "--fidelity", "hf", "--out", str(tmp_path / "x.mfsnap")])
    assert exc.value.code == 2
    assert "--problem" in capsys.readouterr().err
    assert not (tmp_path / "x.mfsnap").exists()


def test_config_accepts_int_where_float_declared(tmp_path):
    from mfpod.cli import load_config

    cfg = write_config(tmp_path / "cfg.json", t_train=3, params={"lo": 1, "hi": 2, "count": 3},
                       test_params=[1, 1.5])
    assert load_config(str(cfg))["t_train"] == 3


def test_generate_is_deterministic(workspace, tmp_path):
    out = tmp_path / "again.mfsnap"
    assert main(["generate", "--config", str(workspace / "cfg.json"),
                 "--fidelity", "hf", "--out", str(out)]) == 0
    assert out.read_bytes() == (workspace / "hf.mfsnap").read_bytes()


def test_reference_scale_manifest_parses(tmp_path):
    # the full-scale manifest of the reaction-diffusion benchmark: 10 training
    # parameters on a 100-point fine grid
    cfg = write_config(
        tmp_path / "full.json",
        hf={"n": 100, "dt": 0.05, "d": 0.05},
        lf={"n": 32, "dt": 0.05, "d": 0.1},
        params={"lo": 0.5, "hi": 1.5, "count": 10},
        t_train=40.0,
        t_final=80.0,
        pod={"n_modes": 9},
    )
    from mfpod.cli import _profile, load_config

    loaded = load_config(str(cfg))
    profile = _profile(loaded, "hf")
    assert profile.n == 100 and profile.dt == 0.05 and profile.d == 0.05
    values = np.linspace(loaded["params"]["lo"], loaded["params"]["hi"],
                         loaded["params"]["count"])
    assert values.size == 10


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def test_train_log_shows_convergence(workspace):
    lines = (workspace / "train_log.csv").read_text().splitlines()
    assert lines[0] == "epoch,train_loss,val_loss"
    first = float(lines[1].split(",")[1])
    last = float(lines[-1].split(",")[1])
    assert last < first


def test_train_seed_repeat_byte_identical(workspace, tmp_path):
    out = tmp_path / "model_again.mfsurr"
    assert main(["train", "--config", str(workspace / "cfg.json"),
                 "--hf", str(workspace / "hf.mfsnap"),
                 "--lf", str(workspace / "lf.mfsnap"),
                 "--out", str(out)]) == 0
    assert out.read_bytes() == (workspace / "model.mfsurr").read_bytes()


def test_train_seed_env_override(workspace, tmp_path, monkeypatch):
    out_env = tmp_path / "model_env.mfsurr"
    monkeypatch.setenv("MFPOD_SEED", "99")
    assert main(["train", "--config", str(workspace / "cfg.json"),
                 "--hf", str(workspace / "hf.mfsnap"),
                 "--lf", str(workspace / "lf.mfsnap"),
                 "--out", str(out_env)]) == 0
    monkeypatch.delenv("MFPOD_SEED")
    assert out_env.read_bytes() != (workspace / "model.mfsurr").read_bytes()


@pytest.mark.parametrize("missing", ["problem", "hf", "lf"])
def test_train_without_solver_setup_exits_2(workspace, tmp_path, capsys, missing):
    raw = json.loads((workspace / "cfg.json").read_text())
    del raw[missing]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(raw))
    code = main(["train", "--config", str(cfg), "--hf", str(workspace / "hf.mfsnap"),
                 "--lf", str(workspace / "lf.mfsnap"), "--out", str(tmp_path / "m.mfsurr")])
    assert code == 2
    assert repr(missing) in capsys.readouterr().err
    assert not (tmp_path / "m.mfsurr").exists()


def test_train_unknown_problem_exits_2(workspace, tmp_path, capsys):
    # predict could not re-run an unknown problem's LF solver, so train refuses it
    cfg = write_config(tmp_path / "cfg.json", problem="xx")
    code = main(["train", "--config", str(cfg), "--hf", str(workspace / "hf.mfsnap"),
                 "--lf", str(workspace / "lf.mfsnap"), "--out", str(tmp_path / "m.mfsurr")])
    assert code == 2
    assert "unknown problem 'xx'" in capsys.readouterr().err
    assert not (tmp_path / "m.mfsurr").exists()


def test_train_forged_snapshot_header_exits_2(workspace, tmp_path, capsys):
    forged = bytearray((workspace / "hf.mfsnap").read_bytes())
    forged[8:12] = (1 << 31).to_bytes(4, "little")  # n_dof
    hf = tmp_path / "forged.mfsnap"
    hf.write_bytes(bytes(forged))
    assert main(["train", "--config", str(workspace / "cfg.json"),
                 "--hf", str(hf), "--lf", str(workspace / "lf.mfsnap"),
                 "--out", str(tmp_path / "model.mfsurr")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_train_seventeen_mode_vorticity_model(tmp_path):
    cfg = write_config(
        tmp_path / "sw.json",
        problem="sw",
        hf={"n": 16, "dt": 0.1},
        lf={"n": 8, "dt": 0.2},
        params={"lo": 1.0, "hi": 5.0, "count": 5},
        t_train=2.0,
        pod={"n_modes": 17},
        lift={"spatial_mode": "bilinear"},
        train={"hidden": 8, "k_window": 8, "n_batch": 8, "epochs": 10},
    )
    for fid in ("hf", "lf"):
        assert main(["generate", "--config", str(cfg), "--fidelity", fid,
                     "--out", str(tmp_path / f"{fid}.mfsnap")]) == 0
    assert main(["train", "--config", str(cfg),
                 "--hf", str(tmp_path / "hf.mfsnap"),
                 "--lf", str(tmp_path / "lf.mfsnap"),
                 "--out", str(tmp_path / "sw_model.mfsurr")]) == 0
    from mfpod.pipeline import load_model

    model = load_model(tmp_path / "sw_model.mfsurr")
    assert model.basis.n_pod == 17


# ---------------------------------------------------------------------------
# predict
# ---------------------------------------------------------------------------

def test_predict_writes_coefficient_csv(workspace, tmp_path):
    out = tmp_path / "pred.mfsnap"
    coef = tmp_path / "coef.csv"
    assert main(["predict", "--model", str(workspace / "model.mfsurr"),
                 "--mu", "0.75", "--T", "5", "--out", str(out),
                 "--coef-csv", str(coef),
                 "--reference", str(workspace / "ref.mfsnap")]) == 0
    lines = coef.read_text().splitlines()
    header = lines[0].split(",")
    assert header[0] == "t"
    assert "lf_1" in header and "mf_1" in header and "hf_1" in header
    assert len(header) == 1 + 3 * 4  # three blocks of n_pod=4 coefficients
    assert len(lines) == 1 + read_snapshots(out).n_t


def test_predict_t0_single_row(workspace, tmp_path):
    out = tmp_path / "p0.mfsnap"
    assert main(["predict", "--model", str(workspace / "model.mfsurr"),
                 "--mu", "0.75", "--T", "0", "--out", str(out)]) == 0
    csv_lines = (tmp_path / "p0.mfsnap.coef.csv").read_text().splitlines()
    assert len(csv_lines) == 2  # header + one time instant


def test_predict_reference_on_other_grid_exits_4(workspace, tmp_path):
    # a 32^2 reference for the 16^2 model: the same check as evaluate's
    cfg = write_config(tmp_path / "cfg.json", hf={"n": 32, "dt": 0.05, "d": 0.05})
    ref = tmp_path / "ref32.mfsnap"
    assert main(["generate", "--config", str(cfg), "--fidelity", "hf", "--role", "test",
                 "--out", str(ref)]) == 0
    out = tmp_path / "pred.mfsnap"
    code = main(["predict", "--model", str(workspace / "model.mfsurr"), "--mu", "0.75",
                 "--T", "5", "--out", str(out), "--reference", str(ref)])
    assert code == 4
    assert not out.exists()


@pytest.mark.filterwarnings("ignore:mu = nan lies outside the training range")
@pytest.mark.parametrize("mu, T", [("0.75", "nan"), ("0.75", "inf"), ("nan", "1")])
def test_predict_non_finite_input_exits_2(workspace, tmp_path, capsys, mu, T):
    out = tmp_path / "p.mfsnap"
    code = main(["predict", "--model", str(workspace / "model.mfsurr"),
                 "--mu", mu, "--T", T, "--out", str(out)])
    assert code == 2
    assert "must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_predict_unknown_model_exits_2(tmp_path):
    code = main(["predict", "--model", str(tmp_path / "ghost.mfsurr"),
                 "--mu", "1.0", "--T", "1", "--out", str(tmp_path / "x.mfsnap")])
    assert code == 2


# ---------------------------------------------------------------------------
# evaluate & report
# ---------------------------------------------------------------------------

def test_evaluate_summary_and_csv(workspace, tmp_path, capsys):
    out = tmp_path / "report.csv"
    summary = tmp_path / "summary.txt"
    code = main(["evaluate", "--model", str(workspace / "model.mfsurr"),
                 "--reference", str(workspace / "ref.mfsnap"),
                 "--out", str(out), "--summary", str(summary),
                 "--timing-reps", "1"])
    assert code == 0
    text = summary.read_text()
    assert "lifted LF input" in text and "surrogate" in text
    assert text.count("% of HF") == 2
    lines = out.read_text().splitlines()
    assert lines[0] == "mu,t,err_mf_percent,err_lf_percent"


def test_evaluate_perfect_model_reports_zero(workspace, tmp_path):
    # feed a prediction back as the reference: the error must be exactly zero
    pred_path = tmp_path / "selfref.mfsnap"
    assert main(["predict", "--model", str(workspace / "model.mfsurr"),
                 "--mu", "0.9", "--T", "5", "--out", str(pred_path)]) == 0
    out = tmp_path / "zero.csv"
    code = main(["evaluate", "--model", str(workspace / "model.mfsurr"),
                 "--reference", str(pred_path), "--out", str(out),
                 "--timing-reps", "0"])
    assert code == 0
    errs = [float(line.split(",")[2]) for line in out.read_text().splitlines()[1:]]
    assert max(errs) == 0.0


def test_evaluate_coverage_failure_exits_4(workspace, tmp_path):
    # a reference sampled at half the model's cadence misses prediction times
    ref = read_snapshots(workspace / "ref.mfsnap")
    from mfpod.snapshots import SnapshotSet, write_snapshots

    blocks = [ref.trajectory(i)[:, ::2] for i in range(ref.n_mu)]
    sparse = SnapshotSet("HF", np.concatenate(blocks, axis=1), ref.grid,
                         ref.times[::2], ref.params, ref.field_names)
    sparse_path = tmp_path / "sparse.mfsnap"
    write_snapshots(sparse, sparse_path)
    code = main(["evaluate", "--model", str(workspace / "model.mfsurr"),
                 "--reference", str(sparse_path),
                 "--out", str(tmp_path / "r.csv"), "--timing-reps", "0"])
    assert code == 4


def test_evaluate_deterministic_csv(workspace, tmp_path):
    outs = []
    for name in ("r1.csv", "r2.csv"):
        out = tmp_path / name
        assert main(["evaluate", "--model", str(workspace / "model.mfsurr"),
                     "--reference", str(workspace / "ref.mfsnap"),
                     "--out", str(out), "--timing-reps", "0"]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_report_aggregates(workspace, tmp_path, capsys):
    out = tmp_path / "report.csv"
    main(["evaluate", "--model", str(workspace / "model.mfsurr"),
          "--reference", str(workspace / "ref.mfsnap"),
          "--out", str(out), "--timing-reps", "0"])
    capsys.readouterr()
    assert main(["report", str(out), "--out", str(tmp_path / "agg.txt")]) == 0
    text = capsys.readouterr().out
    assert "overall relative error" in text
    assert (tmp_path / "agg.txt").read_text().strip() == text.strip()


def test_report_rejects_non_report_csv(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n1,2\n")
    assert main(["report", str(bad)]) == 2


@pytest.mark.parametrize("text", ["", "mu,t,err_mf_percent,err_lf_percent\n0.5,x,1,2\n"])
def test_report_rejects_empty_or_malformed_csv(tmp_path, capsys, text):
    bad = tmp_path / "bad.csv"
    bad.write_text(text)
    assert main(["report", str(bad)]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_report_reads_first_four_columns(workspace, tmp_path, capsys):
    out = tmp_path / "report.csv"
    assert main(["evaluate", "--model", str(workspace / "model.mfsurr"),
                 "--reference", str(workspace / "ref.mfsnap"),
                 "--out", str(out), "--timing-reps", "0"]) == 0
    wide = tmp_path / "wide.csv"
    wide.write_text("".join(line + ",extra\n" for line in out.read_text().splitlines()))
    capsys.readouterr()
    assert main(["report", str(out)]) == 0
    plain = capsys.readouterr().out
    assert main(["report", str(wide)]) == 0
    assert capsys.readouterr().out == plain


@pytest.mark.parametrize("command", ["report", "predict", "evaluate", "train",
                                     "search-out", "search-log"])
def test_unwritable_text_output_exits_2(workspace, tmp_path, capsys, command):
    missing = str(tmp_path / "missing" / "out.txt")
    model, ref = str(workspace / "model.mfsurr"), str(workspace / "ref.mfsnap")
    report = tmp_path / "report.csv"
    assert main(["evaluate", "--model", model, "--reference", ref,
                 "--out", str(report), "--timing-reps", "0"]) == 0
    snaps = ["--hf", str(workspace / "hf.mfsnap"), "--lf", str(workspace / "lf.mfsnap")]
    search_cfg = str(write_config(
        tmp_path / "search.json",
        search={"budget": 1, "space": {"hidden": [8]}},
    ))
    argv = {
        "report": ["report", str(report), "--out", missing],
        "train": ["train", "--config", str(workspace / "cfg.json"), *snaps,
                  "--out", str(tmp_path / "m.mfsurr"), "--log", missing],
        "search-out": ["search", "--config", search_cfg, *snaps, "--out", missing],
        "search-log": ["search", "--config", search_cfg, *snaps,
                       "--out", str(tmp_path / "best.json"), "--log", missing],
        "predict": ["predict", "--model", model, "--mu", "0.75", "--T", "1",
                    "--out", str(tmp_path / "p.mfsnap"), "--coef-csv", missing],
        "evaluate": ["evaluate", "--model", model, "--reference", ref,
                     "--out", str(tmp_path / "e.csv"), "--summary", missing,
                     "--timing-reps", "0"],
    }[command]
    capsys.readouterr()
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not (tmp_path / "missing").exists()


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------

def test_search_writes_best_and_log(workspace, tmp_path):
    cfg = write_config(
        tmp_path / "search.json",
        search={"budget": 2, "space": {"hidden": [8, 12], "learning_rate": [0.001, 0.003]}},
    )
    best = tmp_path / "best.json"
    log = tmp_path / "trials.csv"
    code = main(["search", "--config", str(cfg),
                 "--hf", str(workspace / "hf.mfsnap"),
                 "--lf", str(workspace / "lf.mfsnap"),
                 "--out", str(best), "--log", str(log)])
    assert code == 0
    payload = json.loads(best.read_text())
    assert payload["train"]["hidden"] in (8, 12)
    assert len(log.read_text().splitlines()) == 3  # header + 2 trials


def test_search_empty_space_exits_2(workspace, tmp_path):
    cfg = write_config(
        tmp_path / "search.json",
        search={"budget": 2, "space": {}},
    )
    code = main(["search", "--config", str(cfg),
                 "--hf", str(workspace / "hf.mfsnap"),
                 "--lf", str(workspace / "lf.mfsnap"),
                 "--out", str(tmp_path / "best.json")])
    assert code == 2
