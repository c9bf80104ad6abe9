"""Velocity-tracking and gait-phase reward terms plus episode aggregation.

Per-step terms:
  velocity xy    exp(-|v_xy - v_xy_cmd|^2 / sigma_vxy), in (0, 1]
  velocity yaw   exp(-|w_z - w_z_cmd|^2 / sigma_wz), in (0, 1]
  swing force    sum over commanded-swing feet of exp(-|f|^2 / sigma_cf)
  stance slip    sum over commanded-stance feet of exp(-|v_foot|^2 / sigma_cv)

Episode scores are percentages of the maximum attainable episodic reward.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .locomotion import CommandVector, GaitOffsets, desired_contact, desired_contacts


@dataclass
class RewardConfig:
    sigma_vxy: float = 0.25
    sigma_wz: float = 0.25
    sigma_cf: float = 100.0
    sigma_cv: float = 0.25
    # Per-term maxima used only when composing the scalar training-style reward.
    weights: tuple = (1.0, 1.0, 0.08, 0.08)
    # Audit mode: score the stance term over the commanded-swing feet too.
    swing_selector_on_stance: bool = False
    # Normalize phase terms by a flat 4 feet instead of the realized selection count.
    flat_phase_max: bool = False

    def validate(self) -> "RewardConfig":
        for name in ("sigma_vxy", "sigma_wz", "sigma_cf", "sigma_cv"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be strictly positive")
        return self


@dataclass(frozen=True)
class StepSample:
    """One timestep of achieved motion. Foot tuples are ordered FR, FL, RR, RL."""

    v_xy: tuple
    w_z: float
    foot_force: tuple
    foot_speed_xy: tuple
    phase_t: float

    def __post_init__(self):
        if len(self.foot_force) != 4 or len(self.foot_speed_xy) != 4:
            raise ValueError("exactly four foot entries required")
        if min(self.foot_force) < 0 or min(self.foot_speed_xy) < 0:
            raise ValueError("foot forces and speeds must be non-negative")


@dataclass(frozen=True)
class EpisodeReport:
    """Per-term episode scores as percent of maximum, each in [0, 100]."""

    vel_xy_pct: float
    vel_yaw_pct: float
    swing_force_pct: float
    stance_vel_pct: float

    def as_tuple(self) -> tuple:
        return (self.vel_xy_pct, self.vel_yaw_pct, self.swing_force_pct, self.stance_vel_pct)

    def csv_row(self, terrain: str, method: str) -> str:
        vals = ",".join(f"{v:.6f}" for v in self.as_tuple())
        return f"{terrain},{method},{vals}"


def r_velocity_xy(sample: StepSample, cmd: CommandVector, cfg: RewardConfig) -> float:
    dx = sample.v_xy[0] - cmd.vx
    dy = sample.v_xy[1] - cmd.vy
    return math.exp(-(dx * dx + dy * dy) / cfg.sigma_vxy)


def r_velocity_yaw(sample: StepSample, cmd: CommandVector, cfg: RewardConfig) -> float:
    dw = sample.w_z - cmd.wz
    return math.exp(-(dw * dw) / cfg.sigma_wz)


def _phase_terms(sample: StepSample, gait: GaitOffsets, cfg: RewardConfig):
    """(swing_sum, swing_count, stance_sum, stance_count) at this sample's phase.

    Swing tracking penalizes contact force on feet commanded to swing. Stance
    tracking penalizes planar slip on feet commanded to stand; with
    ``swing_selector_on_stance`` the swing-side selector applies to both terms.
    """
    contact = desired_contact(gait, sample.phase_t)
    swing_sum = 0.0
    swing_count = 0
    stance_sum = 0.0
    stance_count = 0
    for i in range(4):
        if not contact[i]:
            f = sample.foot_force[i]
            swing_sum += math.exp(-(f * f) / cfg.sigma_cf)
            swing_count += 1
        stance_selected = (not contact[i]) if cfg.swing_selector_on_stance else contact[i]
        if stance_selected:
            s = sample.foot_speed_xy[i]
            stance_sum += math.exp(-(s * s) / cfg.sigma_cv)
            stance_count += 1
    return swing_sum, swing_count, stance_sum, stance_count


def r_swing_force(sample: StepSample, gait: GaitOffsets, cfg: RewardConfig) -> float:
    return _phase_terms(sample, gait, cfg)[0]


def r_stance_velocity(sample: StepSample, gait: GaitOffsets, cfg: RewardConfig) -> float:
    return _phase_terms(sample, gait, cfg)[2]


def scalar_reward(sample: StepSample, cmd: CommandVector, gait: GaitOffsets,
                  cfg: RewardConfig) -> float:
    """Single training-style reward: each term normalized to [0, 1], then scaled
    so its maximum equals the configured per-term weight."""
    w = cfg.weights
    sw_sum, sw_n, st_sum, st_n = _phase_terms(sample, gait, cfg)
    total = w[0] * r_velocity_xy(sample, cmd, cfg)
    total += w[1] * r_velocity_yaw(sample, cmd, cfg)
    total += w[2] * (sw_sum / sw_n if sw_n else 0.0)
    total += w[3] * (st_sum / st_n if st_n else 0.0)
    return total


def _velocity_xy_terms(traj, cmd: CommandVector, cfg: RewardConfig) -> np.ndarray:
    """Per-step xy-velocity term: ``r_velocity_xy`` over a trajectory's steps."""
    d = traj.v_xy - (cmd.vx, cmd.vy)
    return np.exp(-(d * d).sum(axis=1) / cfg.sigma_vxy)


def episode_percent(traj, cmd: CommandVector, gait: GaitOffsets,
                    cfg: RewardConfig | None = None) -> EpisodeReport:
    """Episode scores of a ``Trajectory``: 100 * (sum of term) / (sum of per-step maxima).

    The per-step maximum is 1 for the velocity terms and the number of feet the
    selector picks for the phase terms (or a flat 4 with ``flat_phase_max``).
    A selector that never picks a foot yields a vacuous 100.
    """
    n = len(traj)
    if not n:
        raise ValueError("episode needs at least one sample")
    cfg = (cfg or RewardConfig()).validate()
    swing = ~desired_contacts(gait, traj.phase)
    stance = swing if cfg.swing_selector_on_stance else ~swing
    acc = (_velocity_xy_terms(traj, cmd, cfg).sum(),
           np.exp(-((traj.w_z - cmd.wz) ** 2) / cfg.sigma_wz).sum(),
           np.exp(-(traj.foot_force ** 2) / cfg.sigma_cf)[swing].sum(),
           np.exp(-(traj.foot_speed ** 2) / cfg.sigma_cv)[stance].sum())
    den = (n, n, 4 * n, 4 * n) if cfg.flat_phase_max else (n, n, swing.sum(), stance.sum())
    return EpisodeReport(*(float(100.0 * a / d) if d > 0 else 100.0 for a, d in zip(acc, den)))


def episode_velocity_percent(traj, cmd: CommandVector,
                             cfg: RewardConfig | None = None) -> float:
    """Just the xy-velocity episode percentage (the candidate-selection metric)."""
    if not len(traj):
        raise ValueError("episode needs at least one sample")
    cfg = (cfg or RewardConfig()).validate()
    return float(100.0 * _velocity_xy_terms(traj, cmd, cfg).sum() / len(traj))
