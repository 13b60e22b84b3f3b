#!/usr/bin/env python3
"""End-to-end benchmark of mfpod: offline training, online prediction, evaluation.

Run from the repository root, for example:

    python3 mfbench/run.py --workload sw-online --seed 1 --seconds 12 --trace 0

Each workload is one user session on one problem: a set-up (repeated, so its
time is a median), a timed loop of the workload's operation for ``--seconds``,
and a closing evaluation against high-fidelity references. Every output is
checked against numpy recomputations or against properties the method must
have; no check compares against a stored copy of earlier output.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` also replays the
program's public calls one by one under timing spans, checks that the replay
reproduces ``offline_train`` and ``online_predict`` bit for bit, prints the
per-layer metrics and writes every span to ``mfbench/out/``. The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``. See README.md for what each number means.
"""

import os

# One BLAS thread, fixed before numpy loads: with two threads contending for
# two cores, an 801x801 eigh was measured 50x slower, so unpinned times are noise.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from dataclasses import dataclass, field, replace  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "mfbench" / "out"
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

try:
    from mfpod import lifting, mflstm, pipeline, pod, snapshots, solvers
    from mfpod.errors import MfpodError
except ImportError as exc:
    sys.exit(f"cannot import mfpod from {ROOT / 'src'}: {exc}")

SETUP_REPS = 3

# Times are reported scaled to a reference host speed. Other tenants of a
# shared host slow whole stretches of a run by up to 1.6x, so raw medians
# drift by that much between runs. A fixed loop of the kernels this program
# spends its time in slows with them: on a 2-vCPU VM, over 150 alternating
# calls, its time correlated 0.88 with online_predict's. The loop runs
# before and after each timed segment. One loop time is noisy, so a time is
# scaled by CAL_REF_S over the median loop time from CAL_WINDOW_S before it
# starts to CAL_WINDOW_S after it ends: enough loops to outvote a spike, few
# enough to follow the host's changes, which last a second or more. A
# reported time is what the code would take on a host where the loop takes
# CAL_REF_S.
CAL_REF_S = 0.025
CAL_WINDOW_S = 1.0


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Setting:
    """One problem at one scale: what the offline path trains and what is tested."""

    problem: str
    hf: solvers.FidelityProfile
    lf: solvers.FidelityProfile
    mu_range: tuple[float, float]
    n_train: int  # training parameters, equispaced over mu_range
    t_train: float
    n_modes: int
    lift: str
    epochs: int
    k_window: int
    n_test: int  # held-out parameters whose HF references are made in set-up
    t_test: float  # horizon of the references and of every prediction


RD_HF = solvers.FidelityProfile("HF", n=64, dt=0.05, d=0.05)
RD_LF = solvers.FidelityProfile("LF", n=32, dt=0.05, d=0.1)
SW_HF = solvers.FidelityProfile("HF", n=64, dt=0.05)
SW_LF = solvers.FidelityProfile("LF", n=32, dt=0.1)

# rd-offline: 3 x 401 = 1203 HF columns (> 1024) send build_basis down its
# Gram route; sweeps, basis and training then share the offline path.
# sw-online: LF dt is twice HF dt, so lift_project interpolates in time, and
# t_test runs past t_train. rd-evaluate: nearest lift, horizon 2 * t_train.
WORKLOADS = {
    "rd-offline": Setting("rd", RD_HF, RD_LF, (0.5, 1.5), 3, 20.0, 9, "nearest",
                          epochs=40, k_window=40, n_test=3, t_test=20.0),
    "sw-online": Setting("sw", SW_HF, SW_LF, (1.0, 5.0), 3, 10.0, 17, "bilinear",
                         epochs=60, k_window=40, n_test=2, t_test=20.0),
    "rd-evaluate": Setting("rd", RD_HF, RD_LF, (0.5, 1.5), 3, 10.0, 9, "nearest",
                           epochs=40, k_window=40, n_test=3, t_test=20.0),
}


def tiny(s: Setting) -> Setting:
    """The same workload on 16^2 / 8^2 grids and short horizons (self-test)."""
    return replace(
        s,
        hf=replace(s.hf, n=16),
        lf=replace(s.lf, n=8),
        t_train=2.0,
        n_modes=min(s.n_modes, 6),
        epochs=3,
        k_window=8,
        t_test=4.0 if s.t_test > s.t_train else 2.0,
    )


def train_config(s: Setting, seed: int) -> mflstm.TrainConfig:
    return mflstm.TrainConfig(hidden=64, n_layers=1, k_window=s.k_window, n_batch=32,
                              epochs=s.epochs, learning_rate=1e-3, seed=seed)


def train_params(s: Setting) -> np.ndarray:
    return np.linspace(*s.mu_range, s.n_train)


class MuStream:
    """Seeded parameter draws inside the training range, never repeating one."""

    def __init__(self, s: Setting, seed: int):
        self.rng = np.random.default_rng(seed)
        self.lo, self.hi = s.mu_range
        self.seen = set(train_params(s).tolist())

    def _keep(self, mu: float) -> bool:
        if mu in self.seen:
            return False
        self.seen.add(mu)
        return True

    def held_out(self, count: int) -> np.ndarray:
        """One draw per equal cell of the range, within 10% of a cell of its centre.

        Errors vary strongly with mu, so one uniform draw per run would make
        the error metric depend mostly on the seed's luck.
        """
        cell = (self.hi - self.lo) / count
        out = []
        for i in range(count):
            mu = self.lo + cell * (i + 0.5 + self.rng.uniform(-0.1, 0.1))
            while not self._keep(mu):
                mu = np.nextafter(mu, self.hi)
            out.append(float(mu))
        return np.array(out)

    def next(self) -> float:
        """A fresh uniform draw: online calls never see a parameter twice."""
        mu = float(self.rng.uniform(self.lo, self.hi))
        while not self._keep(mu):
            mu = float(self.rng.uniform(self.lo, self.hi))
        return mu


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------

@dataclass
class Span:
    name: str
    parent: int | None
    attrs: dict
    start: float = 0.0
    end: float = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Times every span; keeps them in memory only when enabled."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self.derived: dict[str, list[float]] = {}
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        sp = Span(name, self._open[-1] if self._open else None, attrs)
        if self.enabled:
            self._open.append(len(self.spans))
            self.spans.append(sp)
        sp.start = time.perf_counter()
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            if self.enabled:
                self._open.pop()

    def derive(self, name: str, value: float) -> None:
        if self.enabled:
            self.derived.setdefault(name, []).append(value)

    def named(self, name: str) -> list[Span]:
        return [sp for sp in self.spans if sp.name == name]

    def dump(self, path: Path) -> None:
        rows = [{"name": sp.name, "parent": sp.parent, "start": sp.start,
                 "end": sp.end, **sp.attrs} for sp in self.spans]
        path.write_text(json.dumps({"spans": rows, "derived": self.derived}) + "\n")


class Clock:
    """The calibration loop: FFTs, a tall GEMM and small recurrent steps."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.a64 = rng.standard_normal((64, 64))
        self.a32 = rng.standard_normal((32, 32))
        self.modes = rng.standard_normal((4096, 17))
        self.coef = rng.standard_normal((17, 401))
        self.w = rng.standard_normal((256, 82))
        self.x = rng.standard_normal((1, 82))

    def loop(self) -> float:
        t0 = time.perf_counter()
        for _ in range(40):
            np.fft.ifft2(np.fft.fft2(self.a64)).real
        for _ in range(80):
            np.fft.ifft2(np.fft.fft2(self.a32)).real
        for _ in range(3):
            self.modes @ self.coef
        for _ in range(300):
            np.tanh(self.x @ self.w.T)
        return time.perf_counter() - t0


# ---------------------------------------------------------------------------
# the benchmark session
# ---------------------------------------------------------------------------

@dataclass
class Timed:
    seconds: float  # wall time inside segments, checks excluded
    start: float
    end: float


@dataclass
class Offline:
    model: pipeline.SurrogateModel  # as loaded back from its MFSURR file
    model_bytes: bytes
    timed: Timed


@dataclass
class Session:
    s: Setting
    seed: int
    tr: Tracer
    work: Path
    clock: Clock = field(default_factory=Clock)
    failures: list[str] = field(default_factory=list)
    loops: list[tuple[float, float]] = field(default_factory=list)  # (when, seconds)
    raw_s: float = 0.0
    since: float = 0.0

    def check(self, ok, what: str) -> None:
        if not ok:
            self.failures.append(what)

    def calibrate(self) -> None:
        self.loops.append((time.perf_counter(), self.clock.loop()))

    @contextmanager
    def segment(self):
        """Time a block between two runs of the calibration loop."""
        self.calibrate()
        t0 = time.perf_counter()
        yield
        self.raw_s += time.perf_counter() - t0
        self.calibrate()

    def take(self) -> Timed:
        """Wall time spent in segments since the last take, and when."""
        now = time.perf_counter()
        out = Timed(self.raw_s, self.since, now)
        self.raw_s, self.since = 0.0, now
        return out

    def scaled(self, timed: Timed) -> float:
        """Seconds on the reference host, from the loops around the segments."""
        near = [loop for when, loop in self.loops
                if timed.start - CAL_WINDOW_S <= when <= timed.end + CAL_WINDOW_S]
        return timed.seconds * CAL_REF_S / median(near)

    # -- artifact I/O ------------------------------------------------------

    def snap_round_trip(self, snaps, name: str):
        path = self.work / f"{name}.mfsnap"
        with self.segment():
            with self.tr.span("snapshots.write", file=name) as sp:
                snapshots.write_snapshots(snaps, path)
            with self.tr.span("snapshots.read", file=name):
                back = snapshots.read_snapshots(path)
        sp.attrs["bytes"] = path.stat().st_size
        return back

    def check_snap(self, snaps, back, name: str) -> None:
        again = self.work / f"{name}.again.mfsnap"
        snapshots.write_snapshots(back, again)
        self.check((self.work / f"{name}.mfsnap").read_bytes() == again.read_bytes()
                   and np.array_equal(back.data, snaps.data)
                   and np.array_equal(back.times, snaps.times)
                   and np.array_equal(back.params, snaps.params)
                   and back.grid == snaps.grid and back.field_names == snaps.field_names,
                   f"MFSNAP round trip of {name} is not bit-exact")

    def model_bytes(self, model, name: str) -> bytes:
        path = self.work / f"{name}.mfsurr"
        pipeline.save_model(model, path)
        return path.read_bytes()

    # -- offline path ------------------------------------------------------

    def offline_path(self, verify: bool) -> Offline:
        """Parameters -> HF+LF sweeps -> MFSNAP files -> offline_train -> save/load.

        The checks run after the clock stops and before the data is dropped.
        """
        s, tr = self.s, self.tr
        mus = train_params(s)
        self.take()
        with self.segment(), tr.span(
                "solvers.hf_sweep", steps=s.n_train * int(round(s.t_train / s.hf.dt))):
            hf = solvers.generate_dataset(s.problem, s.hf, mus, s.t_train)
        with self.segment(), tr.span(
                "solvers.lf_sweep", steps=s.n_train * int(round(s.t_train / s.lf.dt))):
            lf = solvers.generate_dataset(s.problem, s.lf, mus, s.t_train)
        hf_r = self.snap_round_trip(hf, "hf_train")
        lf_r = self.snap_round_trip(lf, "lf_train")
        with self.segment():
            if tr.enabled:
                trained = self.composed_offline_train(hf_r, lf_r)
            else:
                trained = pipeline.offline_train(
                    hf_r, lf_r, pod.PodRule(n_modes=s.n_modes), train_config(s, self.seed),
                    spatial_mode=s.lift, problem=s.problem, hf_profile=s.hf,
                    lf_profile=s.lf)
        path = self.work / "model.mfsurr"
        with self.segment():
            with tr.span("pipeline.save_model"):
                pipeline.save_model(trained, path)
            with tr.span("pipeline.load_model"):
                model = pipeline.load_model(path)
        off = Offline(model=model, model_bytes=path.read_bytes(), timed=self.take())
        if verify:
            self.check_snap(hf, hf_r, "hf_train")
            self.check_snap(lf, lf_r, "lf_train")
            self.check(self.model_bytes(model, "model.again") == off.model_bytes,
                       "model save/load round trip is not bit-exact")
            self.check_basis(trained.basis, hf)
            hist = [val for _, _, val in trained.lstm.history]
            self.check(min(hist) < hist[0],
                       f"best held-out loss {min(hist):.4g} is not below the first "
                       f"epoch's {hist[0]:.4g}")
            if tr.enabled:
                with tr.span("pipeline.offline_train"):
                    whole = pipeline.offline_train(
                        hf_r, lf_r, pod.PodRule(n_modes=s.n_modes),
                        train_config(s, self.seed), spatial_mode=s.lift,
                        problem=s.problem, hf_profile=s.hf, lf_profile=s.lf)
                self.check(self.model_bytes(whole, "whole") == off.model_bytes,
                           "composed offline stages differ from offline_train")
        return off

    def composed_offline_train(self, hf, lf):
        """offline_train as its public stages, each under a span."""
        s, tr = self.s, self.tr
        cfg = train_config(s, self.seed)
        with tr.span("pod.build_basis", columns=hf.data.shape[1]):
            basis = pod.build_basis(hf, pod.PodRule(n_modes=s.n_modes))
        spec = lifting.LiftSpec(s.lift, lf.grid, hf.grid, hf.times)
        with tr.span("pod.project"):
            coef_hf = pod.project(basis, hf)
        with tr.span("lifting.reduced_stencil.offline"):
            stencil = lifting.reduced_stencil(basis, spec)
        with tr.span("lifting.lift_project.offline"):
            coef_lf = lifting.lift_project(lf, spec, basis, stencil=stencil)
        with tr.span("mflstm.train", epochs=cfg.epochs,
                     windows=training_windows(hf, cfg)):
            lstm = mflstm.train(coef_lf, coef_hf, cfg)
        prov = pipeline.Provenance(
            problem=s.problem, hf_profile=s.hf, lf_profile=s.lf,
            t_train=float(hf.times[-1]), param_lo=float(hf.params[:, 0].min()),
            param_hi=float(hf.params[:, 0].max()))
        return pipeline.SurrogateModel(basis=basis, lift_spec=spec, lstm=lstm,
                                       provenance=prov)

    def check_basis(self, basis, hf) -> None:
        """Orthonormal modes; spectrum and projection floor match numpy's own."""
        x, phi, k = hf.data, basis.modes, basis.n_pod
        self.check(np.abs(phi.T @ phi - np.eye(k)).max() < 1e-10,
                   "basis columns are not orthonormal")
        if x.shape[1] <= x.shape[0]:
            eig = np.linalg.eigvalsh(x.T @ x)[::-1]
            sigma = np.sqrt(np.clip(eig, 0.0, None))
        else:
            sigma = np.linalg.svd(x, compute_uv=False)
        self.check(np.allclose(basis.sigma[:k], sigma[:k], rtol=1e-8,
                               atol=1e-10 * sigma[0]),
                   "leading singular values differ from numpy's")
        energy = sigma**2
        floor_own = energy[k:].sum() / energy.sum()
        # with orthonormal modes, ||X - P X||^2 = ||X||^2 - ||Phi^T X||^2
        floor_basis = 1.0 - np.sum((phi.T @ x) ** 2) / np.sum(x**2)
        self.check(abs(floor_basis - floor_own) < 1e-8,
                   f"projection floor {floor_basis:.10f} differs from numpy's "
                   f"{floor_own:.10f}")

    # -- references and online calls --------------------------------------

    def references(self, mus: np.ndarray, verify: bool):
        """HF references for the held-out parameters, through an MFSNAP file."""
        self.take()
        with self.segment(), self.tr.span("solvers.hf_reference", n_mu=mus.size):
            ref = solvers.generate_dataset(self.s.problem, self.s.hf, mus, self.s.t_test)
        back = self.snap_round_trip(ref, "reference")
        seconds = self.take()
        if verify:
            self.check_snap(ref, back, "reference")
        return back, seconds

    def online_checked(self, model, mu: float):
        """online_predict, then its public stages replayed under spans."""
        tr, T = self.tr, self.s.t_test
        self.take()
        with self.segment(), tr.span("pipeline.online_predict") as whole:
            out = pipeline.online_predict(model, mu, T)
        op = self.take()
        times = pipeline.prediction_times(model, T)
        prof = model.provenance.lf_profile
        steps = int(np.ceil(float(times[-1]) / prof.dt - 1e-12)) if times[-1] > 0 else 0
        spec = lifting.LiftSpec(model.lift_spec.spatial_mode, model.lift_spec.src_grid,
                                model.lift_spec.dst_grid, times)
        with tr.span("online.replay"):
            with tr.span("solvers.lf_solve") as a:
                lf = solvers.generate_dataset(model.provenance.problem, prof,
                                              np.array([mu]), steps * prof.dt)
            with tr.span("lifting.reduced_stencil") as b:
                stencil = lifting.reduced_stencil(model.basis, spec)
            with tr.span("lifting.lift_project") as c:
                coef_lf = lifting.lift_project(lf, spec, model.basis, stencil=stencil)
            with tr.span("mflstm.predict") as d:
                coef_mf = mflstm.predict(model.lstm, coef_lf)
            with tr.span("pod.reconstruct") as e:
                pred = pod.reconstruct(model.basis, coef_mf)
        parts = a.seconds + b.seconds + c.seconds + d.seconds + e.seconds
        tr.derive("pipeline.online_glue", whole.seconds - parts)
        self.check(np.array_equal(out.data, pred.data)
                   and np.array_equal(out.times, pred.times),
                   f"replayed online stages differ from online_predict at mu={mu!r}")
        return out, lf, spec, op

    def check_report(self, model, mus, ref, report, eval_timed: Timed) -> None:
        """Recompute evaluate's column errors; bound them below by the floor."""
        phi = model.basis.modes
        col_mf, col_lf, parts = [], [], 0.0
        for mu in mus:
            out, lf, spec, online_s = self.online_checked(model, float(mu))
            with self.tr.span("lifting.lift") as sp:
                lifted = lifting.lift(lf, spec)
            parts += online_s.seconds + sp.seconds
            idx = int(np.nonzero(ref.params[:, 0] == mu)[0][0])
            x_ref = ref.trajectory(idx)
            norm = np.linalg.norm(x_ref, axis=0)
            err = np.linalg.norm(x_ref - out.data, axis=0) / norm
            floor = np.linalg.norm(x_ref - phi @ (phi.T @ x_ref), axis=0) / norm
            self.check(np.all(err >= floor * (1 - 1e-9)),
                       f"surrogate error below the projection floor at mu={mu!r}")
            col_mf.append(err)
            col_lf.append(np.linalg.norm(x_ref - lifted.data, axis=0) / norm)
        self.tr.derive("pipeline.error", (eval_timed.seconds - parts) / len(mus))
        for got, own, what in ((report.col_err_mf_percent, col_mf, "surrogate"),
                               (report.col_err_lf_percent, col_lf, "lifted LF")):
            self.check(np.allclose(got, 100.0 * np.concatenate(own), rtol=1e-10, atol=0),
                       f"evaluate's {what} column errors differ from the recomputation")

    def evaluate(self, model, mus, ref):
        self.take()
        with self.segment(), self.tr.span("pipeline.evaluate", n_mu=len(mus)):
            report = pipeline.evaluate(model, mus, self.s.t_test, ref, timing_reps=0)
        return report, self.take()


def training_windows(hf, cfg) -> int:
    """Training subsequences per epoch, as mflstm.train cuts them."""
    n_t = hf.n_t
    n_train_t = n_t - max(1, int(round(0.1 * n_t)))
    starts = set(range(0, n_train_t - cfg.k_window + 1, cfg.k_window))
    starts.add(n_train_t - cfg.k_window)
    return hf.n_mu * len(starts)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def median(values) -> float:
    return float(statistics.median(values))


def layer_metrics(tr: Tracer) -> dict[str, tuple[float, str]]:
    def secs(name):
        return [sp.seconds for sp in tr.named(name)]

    def per_step(name):
        return [sp.seconds / sp.attrs["steps"] for sp in tr.named(name)]

    trains = tr.named("mflstm.train")
    writes, reads = tr.named("snapshots.write"), tr.named("snapshots.read")
    train_files = ("hf_train", "lf_train")
    first = {sp.name: sp for sp in reversed(tr.spans)}
    return {
        "solvers.hf_sweep_s": (median(secs("solvers.hf_sweep")), "s"),
        "solvers.lf_sweep_s": (median(secs("solvers.lf_sweep")), "s"),
        "solvers.hf_step_ms": (1e3 * median(per_step("solvers.hf_sweep")), "ms"),
        "solvers.lf_step_ms": (1e3 * median(per_step("solvers.lf_sweep")), "ms"),
        "solvers.rk4_steps": (first["solvers.hf_sweep"].attrs["steps"]
                              + first["solvers.lf_sweep"].attrs["steps"], "count"),
        "solvers.lf_solve_ms": (1e3 * median(secs("solvers.lf_solve")), "ms"),
        "solvers.hf_reference_ms": (1e3 * median(
            sp.seconds / sp.attrs["n_mu"] for sp in tr.named("solvers.hf_reference")), "ms"),
        "pod.build_basis_s": (median(secs("pod.build_basis")), "s"),
        "pod.project_s": (median(secs("pod.project")), "s"),
        "pod.snapshot_columns": (first["pod.build_basis"].attrs["columns"], "count"),
        "pod.reconstruct_ms": (1e3 * median(secs("pod.reconstruct")), "ms"),
        "lifting.lift_project_ms": (1e3 * median(secs("lifting.lift_project")), "ms"),
        "lifting.reduced_stencil_ms": (1e3 * median(secs("lifting.reduced_stencil")), "ms"),
        "lifting.lift_ms": (1e3 * median(secs("lifting.lift")), "ms"),
        "mflstm.train_s": (median(sp.seconds for sp in trains), "s"),
        "mflstm.epoch_ms": (1e3 * median(sp.seconds / sp.attrs["epochs"] for sp in trains),
                            "ms"),
        "mflstm.windows_per_s": (median(sp.attrs["windows"] * sp.attrs["epochs"] / sp.seconds
                                        for sp in trains), "1/s"),
        "mflstm.predict_ms": (1e3 * median(secs("mflstm.predict")), "ms"),
        "pipeline.online_predict_ms": (1e3 * median(secs("pipeline.online_predict")), "ms"),
        "pipeline.online_glue_ms": (1e3 * median(tr.derived["pipeline.online_glue"]), "ms"),
        "pipeline.evaluate_mu_ms": (1e3 * median(
            sp.seconds / sp.attrs["n_mu"] for sp in tr.named("pipeline.evaluate")), "ms"),
        "pipeline.error_ms": (1e3 * median(tr.derived["pipeline.error"]), "ms"),
        "pipeline.save_model_ms": (1e3 * median(secs("pipeline.save_model")), "ms"),
        "pipeline.load_model_ms": (1e3 * median(secs("pipeline.load_model")), "ms"),
        "snapshots.write_s": (median(sum(sp.seconds for sp in writes[i:i + 2])
                                     for i in range(len(writes))
                                     if writes[i].attrs["file"] == train_files[0]), "s"),
        "snapshots.read_s": (median(sum(sp.seconds for sp in reads[i:i + 2])
                                    for i in range(len(reads))
                                    if reads[i].attrs["file"] == train_files[0]), "s"),
        "snapshots.bytes": (sum(sp.attrs["bytes"] for sp in writes
                                if sp.attrs["file"] in train_files)
                            // len(tr.named("solvers.hf_sweep")), "count"),
    }


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

def run(workload: str, s: Setting, seed: int, seconds: float, trace: bool, work: Path):
    tr = Tracer(trace)
    ses = Session(s=s, seed=seed, tr=tr, work=work)
    draws = MuStream(s, seed)
    held_out = draws.held_out(s.n_test)

    # set-up: what the timed loop needs, built SETUP_REPS times; every
    # repetition must rebuild the same model and references bit for bit
    setup_s, offline, ref = [], None, None
    for rep in range(SETUP_REPS):
        off_now = None if workload == "rd-offline" else ses.offline_path(rep == 0)
        ref_now, ref_s = ses.references(held_out, rep == 0)
        setup_s.append([ref_s] + ([off_now.timed] if off_now else []))
        if rep == 0:
            offline, ref = off_now, ref_now
        else:
            ses.check(off_now is None or off_now.model_bytes == offline.model_bytes,
                      "set-up repetitions trained different models")
            ses.check(np.array_equal(ref_now.data, ref.data),
                      "set-up repetitions made different references")
        del off_now, ref_now

    # timed loop: whole operations until their summed time reaches --seconds
    op_s, attempted, failed, spent = [], 0, 0, 0.0
    report = None
    while attempted == 0 or spent < seconds:
        attempted += 1
        t0 = time.perf_counter()
        try:
            if workload == "rd-offline":
                result = ses.offline_path(verify=offline is None)
                op_s.append(result.timed)
                offline = offline or result
                ses.check(result.model_bytes == offline.model_bytes,
                          "repeated offline paths trained different models")
            elif workload == "sw-online":
                mu = draws.next()
                if trace:
                    op_s.append(ses.online_checked(offline.model, mu)[3])
                else:
                    ses.take()
                    with ses.segment():
                        pipeline.online_predict(offline.model, mu, s.t_test)
                    op_s.append(ses.take())
            else:
                rep_now, elapsed = ses.evaluate(offline.model, held_out, ref)
                op_s.append(elapsed)
                if report is None or trace:
                    ses.check_report(offline.model, held_out, ref, rep_now, elapsed)
                if report is not None:
                    ses.check(np.array_equal(rep_now.col_err_mf_percent,
                                             report.col_err_mf_percent),
                              "repeated evaluate calls disagree")
                report = rep_now
        except MfpodError as exc:
            failed += 1
            spent += time.perf_counter() - t0
            print(f"operation {attempted} failed: {exc}", file=sys.stderr)
        else:
            spent += op_s[-1].seconds

    # closing evaluation of the trained model on the held-out references
    if report is None:
        report, elapsed = ses.evaluate(offline.model, held_out, ref)
        ses.check_report(offline.model, held_out, ref, report, elapsed)

    op_ref = [ses.scaled(op) for op in op_s]
    metrics = {
        "setup_s": (median(sum(map(ses.scaled, parts)) for parts in setup_s), "s"),
        "op_p50_ms": (1e3 * median(op_ref), "ms"),
        "err_mf_pct": (report.err_mf_percent, "%"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    info = {"ops": len(op_s), "raw_op_p50_ms": round(1e3 * median(op.seconds for op in op_s), 3),
            "err_lf_pct": round(report.err_lf_percent, 4)}
    if len(op_s) >= 40:
        # the highest percentile with at least ten samples beyond it
        q = 100 * (1 - 10 / len(op_s))
        info[f"op_p{q:.0f}_ms"] = round(1e3 * float(np.percentile(op_ref, q)), 3)
    if trace:
        info["op_p50_ms"] = round(1e3 * median(op_ref), 3)  # for the tracing overhead
        metrics = layer_metrics(tr)
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        tr.dump(OUT_DIR / f"trace-{workload}-seed{seed}.json")
    return ses.failures, attempted, failed, metrics, info


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="16^2 / 8^2 grids and short horizons, for the self-test")
    args = parser.parse_args()

    setting = WORKLOADS[args.workload]
    if args.tiny:
        setting = tiny(setting)
    work = OUT_DIR / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        failures, attempted, failed, metrics, info = run(
            args.workload, setting, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for what in failures:
        print(f"check failed: {what}", file=sys.stderr)
    print(" ".join(f"{k}={v:.6g}{u}" for k, (v, u) in metrics.items()), info)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
