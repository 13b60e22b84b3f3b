"""Canonical benchmark configurations at reference and desk scale.

``*_REFERENCE`` constants record the published full-scale settings of the
two in-scope benchmarks. The ``*_desk()`` bundles are reduced-cost variants
sized for a laptop: same physics and multi-fidelity structure, smaller
grids, tuned for the acceptance thresholds.

Note the reference shallow-water low-fidelity step (dt = 1.0) is far beyond
the stability region of the fixed-step RK4 integrator used here at mu up to
5; it is kept as configuration data but the desk-scale bundle uses
dt_lf = 0.1 / dt_hf = 0.025, preserving the 4x step ratio.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .mflstm import TrainConfig
from .pod import PodRule
from .snapshots import ParameterGrid
from .solvers import FidelityProfile

# Reaction-diffusion benchmark, published configuration.
RD_PARAM_RANGE = (0.5, 1.5)
RD_N_MU = 10
RD_T_TRAIN = 40.0
RD_T_FINAL = 80.0
RD_N_POD = 9
RD_HF_REFERENCE = FidelityProfile(fidelity="HF", n=100, dt=0.05, d=0.05)
RD_LF_REFERENCE = FidelityProfile(fidelity="LF", n=32, dt=0.05, d=0.1)
RD_LIFT_MODE = "nearest"

# Shallow-water vorticity benchmark, published configuration.
SW_PARAM_RANGE = (1.0, 5.0)
SW_N_MU = 5
SW_T_TRAIN = 12.0
SW_T_FINAL = 20.0
SW_N_POD = 17
SW_HF_REFERENCE = FidelityProfile(fidelity="HF", n=200, dt=0.25)
SW_LF_REFERENCE = FidelityProfile(fidelity="LF", n=50, dt=1.00)
SW_LIFT_MODE = "bilinear"

# Network and optimizer of both desk bundles; each bundle sets only the seed.
DESK_TRAIN = TrainConfig(
    hidden=64,
    n_layers=1,
    k_window=40,
    n_batch=32,
    epochs=1200,
    learning_rate=1e-3,
)


@dataclass(frozen=True)
class BenchmarkBundle:
    """Everything needed to run one benchmark end to end."""

    problem: str
    hf_profile: FidelityProfile
    lf_profile: FidelityProfile
    train_params: ParameterGrid
    test_params: np.ndarray
    t_train: float
    t_final: float
    pod_rule: PodRule
    spatial_mode: str
    train_cfg: TrainConfig = field(default_factory=TrainConfig)


def rd_desk(seed: int = 0) -> BenchmarkBundle:
    """Reaction-diffusion at desk scale: 64 vs 32 grid, corrupted diffusion."""
    grid = ParameterGrid(*RD_PARAM_RANGE, RD_N_MU)
    return BenchmarkBundle(
        problem="rd",
        hf_profile=FidelityProfile(fidelity="HF", n=64, dt=0.05, d=0.05),
        lf_profile=FidelityProfile(fidelity="LF", n=32, dt=0.05, d=0.1),
        train_params=grid,
        test_params=grid.midpoints(25),
        t_train=RD_T_TRAIN,
        t_final=RD_T_FINAL,
        pod_rule=PodRule(n_modes=RD_N_POD),
        spatial_mode=RD_LIFT_MODE,
        train_cfg=replace(DESK_TRAIN, seed=seed),
    )


def sw_desk(seed: int = 0) -> BenchmarkBundle:
    """Shallow water at desk scale: 128 vs 50 grid, 4x time-step ratio."""
    return BenchmarkBundle(
        problem="sw",
        hf_profile=FidelityProfile(fidelity="HF", n=128, dt=0.025),
        lf_profile=FidelityProfile(fidelity="LF", n=50, dt=0.1),
        train_params=ParameterGrid(*SW_PARAM_RANGE, SW_N_MU),
        test_params=np.array([1.5, 2.5, 3.5, 4.5]),
        t_train=SW_T_TRAIN,
        t_final=SW_T_FINAL,
        pod_rule=PodRule(n_modes=SW_N_POD),
        spatial_mode=SW_LIFT_MODE,
        train_cfg=replace(DESK_TRAIN, seed=seed),
    )
