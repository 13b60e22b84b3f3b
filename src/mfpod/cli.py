"""Command-line front end: config-driven, headless, plot-ready CSV output.

Subcommands: generate, train, predict, evaluate, report. Runs are
driven by a JSON config (flags override config keys) so an experiment is
reproducible from its manifest. Exit codes: 0 success, else the ``exit_code``
of the ``MfpodError`` raised (2 input or file, 3 numerical, 4 data coverage).

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
import typing
from dataclasses import fields as dataclass_fields
from pathlib import Path

import numpy as np

from . import pipeline
from .codec import read_text, write_atomic
from .errors import MfpodError, ValidationError
from .mflstm import TrainConfig
from .pod import PodRule, project
from .snapshots import ParameterGrid, read_snapshots, write_snapshots
from .solvers import FidelityProfile, generate_dataset


def _declared(cls, *fixed: str) -> dict:
    """Each field of ``cls`` but ``fixed`` with its declared type; ``T | None`` declares ``T``."""
    hints = typing.get_type_hints(cls)
    return {f.name: (typing.get_args(hints[f.name]) or (hints[f.name],))[0]
            for f in dataclass_fields(cls) if f.name not in fixed}


# a type is a scalar of that type, a dict an object of those keys, a
# one-element list a nonempty list of that form, and a tuple (test_params
# only) either of its forms
_SCHEMA = {
    "problem": str,
    "seed": int,
    "hf": _declared(FidelityProfile, "fidelity"),
    "lf": _declared(FidelityProfile, "fidelity"),
    "params": _declared(ParameterGrid),
    "test_params": ([float], {"count": int}),
    "t_train": float,
    "t_final": float,
    "pod": _declared(PodRule),
    "lift": {"spatial_mode": str},
    "train": _declared(TrainConfig, "seed"),
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


def load_config(path: str) -> dict:
    """Load and schema-validate a JSON run config; unknown keys and mistyped values fail."""
    try:
        cfg = json.loads(read_text(path, "config"))
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ValidationError(f"config {path} is not valid JSON: {exc}") from exc
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


def _section(cfg: dict, key: str, cls, **fixed):
    """``cls`` from config section ``key``, values cast to their declared types.

    A field the section leaves out keeps its default, and one without a default is required.
    """
    section = _require(cfg, key)
    for f in dataclass_fields(cls):
        if f.name not in fixed and (f.name in section or f.default is dataclasses.MISSING):
            fixed[f.name] = _SCHEMA[key][f.name](_require(section, f.name))
    return cls(**fixed)


def _profile(cfg: dict, which: str) -> FidelityProfile:
    return _section(cfg, which, FidelityProfile, fidelity=which.upper())


def _seed(cfg: dict) -> int:
    env = os.environ.get("MFPOD_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise ValidationError(f"MFPOD_SEED must be an integer, got {env!r}") from exc
    return int(cfg.get("seed", 0))


def _train_config(cfg: dict) -> TrainConfig:
    return TrainConfig(**cfg.get("train", {}), seed=_seed(cfg))


def _test_values(cfg: dict) -> np.ndarray:
    tp = cfg.get("test_params")
    if tp is None:
        raise ValidationError("config is missing 'test_params' for the test role")
    if isinstance(tp, list):
        return np.asarray(tp, dtype=np.float64)
    return _section(cfg, "params", ParameterGrid).midpoints(_require(tp, "count"))


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
        values = _section(cfg, "params", ParameterGrid).values
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
        _section(cfg, "pod", PodRule),
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


def cmd_report(args) -> int:
    text = pipeline.EvalReport.from_csv(args.reports).summary()
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
    except MfpodError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
