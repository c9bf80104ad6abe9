"""Deterministic terrain-response model with a known per-terrain optimum.

This stands in for a trained locomotion policy running in a physics
simulator. It is a model, not physics: each terrain has an ideal ordinal
level per behavior parameter, and tracking quality decays smoothly with the
distance of each parameter from its ideal level interval. That makes the
simulate-and-select adaptation loop exercisable with a known optimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .locomotion import (
    GAITS,
    LEVEL_RANGES,
    PARAMETERS,
    BehaviorParams,
    CommandVector,
    Level,
    desired_contacts,
    gait_name,
)
from .terrain import TerrainSpec

# Total vertical load shared by the stance feet, N.
BODY_WEIGHT_N = 140.0
# Spurious contact force on a commanded-swing foot at zero efficiency, N.
SPURIOUS_FORCE_N = 30.0
# Planar slip speed of a commanded-stance foot at zero efficiency, m/s.
SLIP_SCALE = 0.5
# Swing-foot planar speed relative to commanded body speed.
SWING_SPEED_FACTOR = 2.0
# Efficiency length scale in units of level-interval widths.
RHO = 0.5
# Efficiency multiplier when the gait preset does not match the ideal.
GAIT_MISMATCH_FACTOR = 0.8


@dataclass
class SimConfig:
    steps: int = 250
    dt: float = 0.02
    noise_scale: float = 0.05
    seed: int = 0

    def validate(self) -> "SimConfig":
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if self.noise_scale < 0:
            raise ValueError("noise_scale must be >= 0")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        return self


@dataclass(frozen=True)
class IdealProfile:
    """Ideal ordinal level per continuous parameter plus the ideal gait preset."""

    body_height: Level
    step_frequency: Level
    body_pitch: Level
    stance_width: Level
    swing_height: Level
    gait: str

    def level(self, parameter: str) -> Level:
        return getattr(self, parameter)


# Per-terrain optima. The uphill row follows the expert level choices used in
# the level-location prompt's worked example; the other rows are authored to
# give every terrain a plausible, documented optimum.
IDEAL_PROFILES = {
    "uphill_slope": IdealProfile(Level.LOW, Level.HIGH, Level.HIGH, Level.MEDIUM, Level.HIGH,
                                 "trotting"),
    "downhill_slope": IdealProfile(Level.LOW, Level.LOW, Level.LOW, Level.HIGH, Level.MEDIUM,
                                   "trotting"),
    "upside_stair": IdealProfile(Level.LOW, Level.LOW, Level.HIGH, Level.MEDIUM, Level.VERY_HIGH,
                                 "trotting"),
    "downside_stair": IdealProfile(Level.LOW, Level.LOW, Level.LOW, Level.HIGH, Level.HIGH,
                                   "trotting"),
    "uneven_ground": IdealProfile(Level.LOW, Level.MEDIUM, Level.MEDIUM, Level.HIGH, Level.HIGH,
                                  "trotting"),
}


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Simulated episode: per-step arrays (feet FR, FL, RR, RL) plus provenance."""

    v_xy: np.ndarray  # (n, 2) achieved planar velocity, m/s
    w_z: np.ndarray  # (n,) achieved yaw rate, rad/s
    foot_force: np.ndarray  # (n, 4) vertical contact force, N
    foot_speed: np.ndarray  # (n, 4) planar foot speed, m/s
    phase: np.ndarray  # (n,) gait cycle fraction in [0, 1)
    terrain_name: str = ""
    params: BehaviorParams | None = None
    cmd: CommandVector | None = None
    seed: int = 0

    def __len__(self):
        return len(self.phase)


def ideal_profile(terrain: TerrainSpec) -> IdealProfile:
    try:
        return IDEAL_PROFILES[terrain.name]
    except KeyError:
        raise ValueError(f"no ideal profile for terrain '{terrain.name}'") from None


def _interval_distance(value: float, interval: tuple) -> float:
    """Distance from a value to a closed interval, in interval widths."""
    lo, hi = interval
    d = max(lo - value, value - hi, 0.0)
    return d / (hi - lo)


def efficiency(params: BehaviorParams, ideal: IdealProfile) -> float:
    """Tracking efficiency in (0, 1]: product of per-parameter Gaussian factors
    of the normalized distance to the ideal interval, times a gait factor."""
    params.validate()
    e = 1.0
    for name in PARAMETERS:
        interval = LEVEL_RANGES[name][int(ideal.level(name))]
        d = _interval_distance(getattr(params, name), interval)
        e *= math.exp(-((d / RHO) ** 2))
    if params.gait != GAITS[ideal.gait]:
        e *= GAIT_MISMATCH_FACTOR
    return e


def simulate(terrain: TerrainSpec, params: BehaviorParams, cmd: CommandVector,
             cfg: SimConfig) -> Trajectory:
    """Roll out one episode against the response model.

    Achieved planar velocity is the command scaled by efficiency plus seeded
    noise, capped so it never exceeds the command speed. Contact forces and
    foot slips are deterministic functions of efficiency so the phase terms
    stay exact at zero noise.
    """
    cfg.validate()
    cmd.validate()
    e = efficiency(params, ideal_profile(terrain))
    n = cfg.steps
    if cfg.noise_scale > 0:
        rng = np.random.default_rng(cfg.seed)
        noise_v = rng.normal(0.0, cfg.noise_scale, n)
        noise_w = rng.normal(0.0, cfg.noise_scale, n)
    else:
        noise_v = np.zeros(n)
        noise_w = np.zeros(n)
    mult = np.clip(e + noise_v, -1.0, 1.0)
    phase = np.mod(np.arange(n) * (params.step_frequency * cfg.dt), 1.0)
    contact = desired_contacts(params.gait, phase)
    n_stance = contact.sum(axis=1)
    # A step with no stance foot (pronking, second half-cycle) carries no load.
    load = np.divide(BODY_WEIGHT_N, n_stance, out=np.zeros(n), where=n_stance > 0)

    spurious = (1.0 - e) * SPURIOUS_FORCE_N
    slip = (1.0 - e) * SLIP_SCALE
    swing_speed = SWING_SPEED_FACTOR * math.hypot(cmd.vx, cmd.vy) * e

    return Trajectory(v_xy=np.stack([cmd.vx * mult, cmd.vy * mult], axis=1),
                      w_z=cmd.wz * e + noise_w,
                      foot_force=np.where(contact, load[:, None], spurious),
                      foot_speed=np.where(contact, slip, swing_speed), phase=phase,
                      terrain_name=terrain.name, params=params, cmd=cmd, seed=cfg.seed)


def ideal_params(terrain: TerrainSpec) -> BehaviorParams:
    """Midpoints of the ideal level intervals with the ideal gait (efficiency 1)."""
    prof = ideal_profile(terrain)
    vals = {}
    for name in PARAMETERS:
        lo, hi = LEVEL_RANGES[name][int(prof.level(name))]
        vals[name] = round((lo + hi) / 2.0, 9)
    return BehaviorParams(gait=GAITS[prof.gait], **vals)


def describe_profile(profile: IdealProfile) -> str:
    parts = [f"{name}={profile.level(name).name.lower()}" for name in PARAMETERS]
    parts.append(f"gait={profile.gait}")
    return ", ".join(parts)


__all__ = [
    "SimConfig", "IdealProfile", "IDEAL_PROFILES", "Trajectory",
    "ideal_profile", "efficiency", "simulate", "ideal_params",
    "BODY_WEIGHT_N", "SPURIOUS_FORCE_N", "SLIP_SCALE", "RHO",
    "GAIT_MISMATCH_FACTOR", "describe_profile", "gait_name",
]
