"""Command-line front end: config-driven, headless, plot-ready CSV output.

Subcommands: generate, train, predict, evaluate, search, report. Runs are
driven by a JSON config (flags override config keys) so an experiment is
reproducible from its manifest. Exit codes: 0 success, 2 configuration or
validation failure, 3 numerical failure, 4 data-coverage failure.

The environment variable MFPOD_SEED, when set, overrides the config seed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import time
from dataclasses import fields as dataclass_fields
from pathlib import Path

import numpy as np

from . import pipeline
from .codec import write_atomic
from .errors import (
    CoverageError,
    InstabilityError,
    MfpodError,
    TrainingError,
    ValidationError,
)
from .mflstm import TrainConfig, hyperparameter_search
from .pod import PodRule, project
from .snapshots import ParameterGrid, read_snapshots, write_snapshots
from .solvers import FidelityProfile, generate_dataset

# every TrainConfig field takes the type of its default
_TRAIN_TYPES = {f.name: type(f.default) for f in dataclass_fields(TrainConfig)}

# a type is a scalar of that type, a dict an object of those keys, a
# one-element list a nonempty list of that form, and a tuple (test_params
# only) either of its forms
_SCHEMA = {
    "problem": str,
    "seed": int,
    "hf": {"n": int, "dt": float, "d": float},
    "lf": {"n": int, "dt": float, "d": float},
    "params": {"lo": float, "hi": float, "count": int},
    "test_params": ([float], {"count": int}),
    "t_train": float,
    "t_final": float,
    "pod": {"n_modes": int, "tol": float, "center": bool},
    "lift": {"spatial_mode": str},
    "train": _TRAIN_TYPES,
    "search": {"budget": int, "space": {key: [kind] for key, kind in _TRAIN_TYPES.items()}},
}
_TYPE_NAMES = {int: "an integer", float: "a finite number", bool: "true or false", str: "a string"}


def _check_value(value, schema, where: str) -> None:
    """Raise ValidationError unless ``value`` has the form ``schema`` declares.

    An int is accepted where a float is declared; a bool is never a number,
    and NaN and infinity, which Python's json reads, are not numbers either.
    """
    if isinstance(schema, tuple):
        for form in schema:
            try:
                return _check_value(value, form, where)
            except ValidationError:
                pass
        raise ValidationError(
            f"{where} must be a list of values or an object with 'count', got {value!r}")
    if isinstance(schema, dict):
        if not isinstance(value, dict):
            raise ValidationError(f"config section {where} must be an object")
        for key, item in value.items():
            if key not in schema:
                raise ValidationError(f"unknown config key {key!r} in {where}")
            _check_value(item, schema[key], f"{where}.{key}")
    elif isinstance(schema, list):
        if not isinstance(value, list) or not value:
            raise ValidationError(f"{where} must be a nonempty list, got {value!r}")
        for i, item in enumerate(value):
            _check_value(item, schema[0], f"{where}[{i}]")
    else:
        kinds = (int, float) if schema is float else schema
        if (not isinstance(value, kinds) or (isinstance(value, bool) and schema is not bool)
                or (schema is float and not math.isfinite(value))):
            raise ValidationError(f"{where} must be {_TYPE_NAMES[schema]}, got {value!r}")


def load_config(path: str | None) -> dict:
    """Load and schema-validate a JSON run config; unknown keys and mistyped values fail."""
    if path is None:
        return {}
    cfg_path = Path(path)
    if not cfg_path.is_file():
        raise ValidationError(f"config file not found: {cfg_path}")
    try:
        cfg = json.loads(cfg_path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValidationError(f"config {cfg_path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ValidationError("config root must be a JSON object")
    for key, value in cfg.items():
        if key not in _SCHEMA:
            raise ValidationError(f"unknown config key {key!r} in config root")
        _check_value(value, _SCHEMA[key], key)
    return cfg


def _require(cfg: dict, key: str):
    if key not in cfg:
        raise ValidationError(f"config is missing required key {key!r}")
    return cfg[key]


def _profile(cfg: dict, which: str) -> FidelityProfile:
    section = _require(cfg, which)
    return FidelityProfile(
        fidelity=which.upper(),
        n=int(_require(section, "n")),
        dt=float(_require(section, "dt")),
        d=float(section["d"]) if "d" in section else None,
    )


def _seed(cfg: dict) -> int:
    env = os.environ.get("MFPOD_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise ValidationError(f"MFPOD_SEED must be an integer, got {env!r}") from exc
    return int(cfg.get("seed", 0))


def _train_config(cfg: dict) -> TrainConfig:
    section = dict(cfg.get("train", {}))
    if "seed" not in section or os.environ.get("MFPOD_SEED") is not None:
        section["seed"] = _seed(cfg)
    return TrainConfig(**section)


def _pod_rule(cfg: dict) -> PodRule:
    section = _require(cfg, "pod")
    return PodRule(
        n_modes=section.get("n_modes"),
        tol=section.get("tol"),
        center=bool(section.get("center", False)),
    )


def _test_values(cfg: dict) -> np.ndarray:
    tp = cfg.get("test_params")
    if tp is None:
        raise ValidationError("config is missing 'test_params' for the test role")
    if isinstance(tp, list):
        return np.asarray(tp, dtype=np.float64)
    return _param_grid(cfg).midpoints(_require(tp, "count"))


def _param_grid(cfg: dict) -> ParameterGrid:
    section = _require(cfg, "params")
    return ParameterGrid(float(_require(section, "lo")), float(_require(section, "hi")),
                         _require(section, "count"))


def _check_out(path: str, no_overwrite: bool) -> None:
    if no_overwrite and Path(path).exists():
        raise ValidationError(f"output {path} already exists and --no-overwrite is set")


def _write_text(path: str, text: str, what: str) -> None:
    write_atomic(path, [text.encode("utf-8")], what)


def cmd_generate(args) -> int:
    cfg = load_config(args.config)
    problem = _require(cfg, "problem")
    profile = _profile(cfg, args.fidelity)
    if args.role == "train":
        values = _param_grid(cfg).values
        t_end = float(_require(cfg, "t_train"))
    else:
        values = _test_values(cfg)
        t_end = float(_require(cfg, "t_final"))
    _check_out(args.out, args.no_overwrite)
    t0 = time.perf_counter()
    snaps = generate_dataset(problem, profile, values, t_end)
    write_snapshots(snaps, args.out)
    wall = time.perf_counter() - t0
    print(
        f"wrote {args.out}: {snaps.n_mu} parameters x {snaps.n_t} snapshots "
        f"({snaps.n_dof} dof, {profile.fidelity}) in {wall:.2f}s"
    )
    return 0


def cmd_train(args) -> int:
    cfg = load_config(args.config)
    # the model re-runs the LF solver online, so its setup is required up front
    problem = _require(cfg, "problem")
    hf_profile, lf_profile = _profile(cfg, "hf"), _profile(cfg, "lf")
    hf = read_snapshots(args.hf)
    lf = read_snapshots(args.lf)
    t0 = time.perf_counter()
    model = pipeline.offline_train(
        hf,
        lf,
        _pod_rule(cfg),
        _train_config(cfg),
        **cfg.get("lift", {}),
        problem=problem,
        hf_profile=hf_profile,
        lf_profile=lf_profile,
    )
    pipeline.save_model(model, args.out)
    wall = time.perf_counter() - t0
    if args.log:
        lines = ["epoch,train_loss,val_loss"]
        for epoch, train_loss, val_loss in model.lstm.history:
            lines.append(f"{epoch},{train_loss!r},{val_loss!r}")
        _write_text(args.log, "\n".join(lines) + "\n", "training log")
    print(
        f"wrote {args.out}: {model.basis.n_pod}-mode basis, "
        f"{len(model.lstm.layers)}-layer network, trained in {wall:.2f}s"
    )
    return 0


def _coef_csv(path, times, blocks):
    """blocks: list of (prefix, (n_coef, n_t) array); one CSV row per time."""
    header = ["t"]
    for prefix, arr in blocks:
        header.extend(f"{prefix}_{i + 1}" for i in range(arr.shape[0]))
    lines = [",".join(header)]
    for j, t in enumerate(times):
        row = [repr(float(t))]
        for _, arr in blocks:
            row.extend(repr(float(v)) for v in arr[:, j])
        lines.append(",".join(row))
    _write_text(path, "\n".join(lines) + "\n", "coefficient CSV")


def cmd_predict(args) -> int:
    model = pipeline.load_model(args.model)
    ref_blocks = []
    if args.reference:
        # checked before the prediction is written, so a bad reference leaves no output
        reference = read_snapshots(args.reference)
        (idx,) = pipeline.reference_indices(
            model, reference, [args.mu], pipeline.prediction_times(model, args.T))
        single = dataclasses.replace(
            reference,
            data=reference.trajectory(idx),
            params=reference.params[idx : idx + 1],
        )
        ref_blocks.append(("hf", project(model.basis, single).coeffs))
    detail = pipeline.online_predict_detailed(model, args.mu, args.T)
    write_snapshots(detail.prediction, args.out)
    blocks = [
        ("lf", detail.lf_coefficients.coeffs),
        ("mf", detail.mf_coefficients.coeffs),
        *ref_blocks,
    ]
    coef_path = args.coef_csv or (str(args.out) + ".coef.csv")
    _coef_csv(coef_path, detail.prediction.times, blocks)
    print(
        f"wrote {args.out} ({detail.prediction.n_t} snapshots) and {coef_path} "
        f"(mu = {args.mu:g}, T = {args.T:g})"
    )
    return 0


def cmd_evaluate(args) -> int:
    model = pipeline.load_model(args.model)
    reference = read_snapshots(args.reference)
    test_params = reference.params[:, 0]
    T = float(reference.times[-1])
    report = pipeline.evaluate(
        model, test_params, T, reference, timing_reps=args.timing_reps
    )
    report.to_csv(args.out)
    summary = report.summary()
    if args.summary:
        _write_text(args.summary, summary + "\n", "summary")
    print(summary)
    print(f"wrote {args.out}")
    return 0


def cmd_search(args) -> int:
    cfg = load_config(args.config)
    section = _require(cfg, "search")
    space = _require(section, "space")
    if not isinstance(space, dict) or not space:
        raise ValidationError("search.space must be a nonempty object of candidate lists")
    data = pipeline.offline_prepare(
        read_snapshots(args.hf),
        read_snapshots(args.lf),
        _pod_rule(cfg),
        **cfg.get("lift", {}),
    )
    best_cfg, trials = hyperparameter_search(
        space,
        int(section.get("budget", 4)),
        data.coef_lf,
        data.coef_hf,
        base_cfg=_train_config(cfg),
        seed=_seed(cfg),
    )
    best = {f.name: getattr(best_cfg, f.name) for f in dataclass_fields(TrainConfig)}
    _write_text(args.out, json.dumps({"train": best}, indent=2) + "\n", "best config")
    if args.log:
        keys = sorted({k for t in trials for k in t})
        lines = [",".join(keys)]
        for t in trials:
            lines.append(",".join(repr(t.get(k, "")) for k in keys))
        _write_text(args.log, "\n".join(lines) + "\n", "trial log")
    best_loss = min(t["val_loss"] for t in trials)
    print(f"ran {len(trials)} trials; best held-out loss {best_loss!r}; wrote {args.out}")
    return 0


def cmd_report(args) -> int:
    report = pipeline.EvalReport.from_csv(args.reports)
    lines_out = [
        "aggregated evaluation report",
        f"  columns: {report.mus.size}",
        f"  overall relative error  surrogate: {report.err_mf_percent:.2f}%   "
        f"lifted LF: {report.err_lf_percent:.2f}%",
        "  per-parameter means:",
    ]
    for mu, emf, elf in report.per_parameter():
        lines_out.append(f"    mu = {mu:g}: surrogate {emf:.2f}%   lifted LF {elf:.2f}%")
    text = "\n".join(lines_out)
    if args.out:
        _write_text(args.out, text + "\n", "report")
    print(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mfpod",
        description="Multi-fidelity reduced-order surrogate modeling workflow",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="run a solver sweep and write an MFSNAP file")
    gen.add_argument("--config", required=True)
    gen.add_argument("--fidelity", choices=["hf", "lf"], required=True)
    gen.add_argument("--role", choices=["train", "test"], default="train")
    gen.add_argument("--out", required=True)
    gen.add_argument("--no-overwrite", action="store_true")
    gen.set_defaults(func=cmd_generate)

    tr = sub.add_parser("train", help="train a surrogate from snapshot files")
    tr.add_argument("--config", required=True)
    tr.add_argument("--hf", required=True)
    tr.add_argument("--lf", required=True)
    tr.add_argument("--out", required=True)
    tr.add_argument("--log", help="training-loss CSV path")
    tr.set_defaults(func=cmd_train)

    pr = sub.add_parser("predict", help="predict fields for one parameter value")
    pr.add_argument("--model", required=True)
    pr.add_argument("--mu", type=float, required=True)
    pr.add_argument("--T", type=float, required=True)
    pr.add_argument("--out", required=True)
    pr.add_argument("--coef-csv")
    pr.add_argument("--reference", help="MFSNAP reference to add hf_* coefficient columns")
    pr.set_defaults(func=cmd_predict)

    ev = sub.add_parser("evaluate", help="errors and timings against a reference")
    ev.add_argument("--model", required=True)
    ev.add_argument("--reference", required=True)
    ev.add_argument("--out", required=True)
    ev.add_argument("--summary")
    ev.add_argument("--timing-reps", type=int, default=3)
    ev.set_defaults(func=cmd_evaluate)

    se = sub.add_parser("search", help="hyperparameter search over train configs")
    se.add_argument("--config", required=True)
    se.add_argument("--hf", required=True)
    se.add_argument("--lf", required=True)
    se.add_argument("--out", required=True)
    se.add_argument("--log", help="trial-log CSV path")
    se.set_defaults(func=cmd_search)

    rp = sub.add_parser("report", help="aggregate evaluation CSVs into a summary")
    rp.add_argument("reports", nargs="+")
    rp.add_argument("--out")
    rp.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CoverageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (InstabilityError, TrainingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MfpodError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
