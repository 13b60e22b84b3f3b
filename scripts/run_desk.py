#!/usr/bin/env python3
"""Desk-scale benchmark run: train the surrogate, then evaluate it.

--problem rd: reaction-diffusion, a 64-point grid with true diffusion against
a 32-point grid with corrupted diffusion; scored at 25 unseen parameter
values over twice the training horizon. Takes roughly 10-20 minutes on a
laptop, most of it the high-fidelity reference sweep and the timing loops.

--problem sw: shallow-water vorticity, 128 against 50 points per direction
and a 4x time-step ratio; scored at four unseen advection strengths over
[0, 20] with training data covering only [0, 12]. Takes several minutes,
dominated by the high-fidelity runs.

Writes the model, the high-fidelity reference, the per-column error CSV and
a text summary into --out-dir (default results/<problem>).
"""

import argparse
import time
from pathlib import Path

from mfpod import pipeline
from mfpod.codec import write_atomic
from mfpod.presets import rd_desk, sw_desk
from mfpod.snapshots import write_snapshots
from mfpod.solvers import generate_dataset


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--problem", choices=["rd", "sw"], required=True)
    parser.add_argument("--out-dir")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--timing-reps", type=int, default=3)
    args = parser.parse_args()

    out = Path(args.out_dir or f"results/{args.problem}")
    out.mkdir(parents=True, exist_ok=True)
    bundle = {"rd": rd_desk, "sw": sw_desk}[args.problem](seed=args.seed)

    t0 = time.perf_counter()
    print("generating training data ...", flush=True)
    hf = generate_dataset(bundle.problem, bundle.hf_profile, bundle.train_params,
                          bundle.t_train)
    lf = generate_dataset(bundle.problem, bundle.lf_profile, bundle.train_params,
                          bundle.t_train)
    print(f"  HF {hf.data.shape}, LF {lf.data.shape}  [{time.perf_counter()-t0:.0f}s]",
          flush=True)

    print("offline stage (basis + network) ...", flush=True)
    model = pipeline.offline_train(
        hf, lf, bundle.pod_rule, bundle.train_cfg,
        spatial_mode=bundle.spatial_mode, problem=bundle.problem,
        hf_profile=bundle.hf_profile, lf_profile=bundle.lf_profile,
    )
    pipeline.save_model(model, out / "model.mfsurr")
    print(f"  basis modes: {model.basis.n_pod}  [{time.perf_counter()-t0:.0f}s]",
          flush=True)

    print("high-fidelity reference sweep ...", flush=True)
    reference = generate_dataset(bundle.problem, bundle.hf_profile,
                                 bundle.test_params, bundle.t_final)
    write_snapshots(reference, out / "reference.mfsnap")

    print("evaluation ...", flush=True)
    report = pipeline.evaluate(model, bundle.test_params, bundle.t_final,
                               reference, timing_reps=args.timing_reps)
    report.to_csv(out / "report.csv")
    write_atomic(out / "summary.txt", [(report.summary() + "\n").encode("utf-8")], "summary")
    print(report.summary())
    print(f"done in {time.perf_counter()-t0:.0f}s; artifacts in {out}")


if __name__ == "__main__":
    main()
