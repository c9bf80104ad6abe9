"""Deterministic terrain-response model with a known per-terrain optimum.

This stands in for a trained locomotion policy running in a physics
simulator. It is a model, not physics: each terrain has an ideal ordinal
level per behavior parameter, and tracking quality decays smoothly with the
distance of each parameter from its ideal level interval. That makes the
simulate-and-select adaptation loop exercisable with a known optimum.

A gait is its ``GAITS`` preset name everywhere here; only ``_gait_schedule``
looks up its offsets, to build an episode's stance flags. A ``Trajectory``
carries those flags, so scoring an episode needs no gait.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .config import SimConfig
from .locomotion import (
    GAIT_NAMES,
    GAITS,
    GLOBAL_RANGES,
    LEVEL_RANGES,
    PARAMETERS,
    BehaviorParams,
    CandidateTable,
    CommandVector,
    Level,
    LevelSelection,
    desired_contacts,
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
# Gait schedules kept per process, keyed on the gait preset name, step
# frequency, dt and steps. A default adapt run scores 15 rows' phase terms
# over 6 (gait, frequency) schedules: 9 of its 15 reads hit. Episode noise is
# not kept: adaptation.score_terrain stacks a terrain's evaluation noise once
# for all its rows, so each of the run's 65 episode seeds is drawn once (a
# noise cache measured 0 hits in 65 reads).
_CACHE_SIZE = 16


# Per-terrain optima. The uphill row follows the expert level choices used in
# the level-location prompt's worked example; the other rows are authored to
# give every terrain a plausible, documented optimum.
IDEAL_PROFILES = {
    "uphill_slope": LevelSelection(Level.LOW, Level.HIGH, Level.HIGH, Level.MEDIUM, Level.HIGH,
                                   "trotting"),
    "downhill_slope": LevelSelection(Level.LOW, Level.LOW, Level.LOW, Level.HIGH, Level.MEDIUM,
                                     "trotting"),
    "upside_stair": LevelSelection(Level.LOW, Level.LOW, Level.HIGH, Level.MEDIUM,
                                   Level.VERY_HIGH, "trotting"),
    "downside_stair": LevelSelection(Level.LOW, Level.LOW, Level.LOW, Level.HIGH, Level.HIGH,
                                     "trotting"),
    "uneven_ground": LevelSelection(Level.LOW, Level.MEDIUM, Level.MEDIUM, Level.HIGH,
                                    Level.HIGH, "trotting"),
}


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Simulated episode: per-step arrays, feet ordered FR, FL, RR, RL.

    ``simulate`` returns ``v_xy``, ``w_z``, ``foot_force`` and ``foot_speed``
    as new arrays per call. ``contact`` holds the commanded stance flags the
    episode was simulated with; it is shared by every episode with the same
    gait, step frequency, ``dt`` and length, and is read-only: writing into it
    raises ``ValueError``.
    """

    v_xy: np.ndarray  # (n, 2) achieved planar velocity, m/s
    w_z: np.ndarray  # (n,) achieved yaw rate, rad/s
    foot_force: np.ndarray  # (n, 4) vertical contact force, N
    foot_speed: np.ndarray  # (n, 4) planar foot speed, m/s
    contact: np.ndarray  # (n, 4) bool, True while a foot is commanded to stand

    def __len__(self):
        return len(self.w_z)


def ideal_profile(terrain: TerrainSpec) -> LevelSelection:
    try:
        return IDEAL_PROFILES[terrain.name]
    except KeyError:
        raise ValueError(f"no ideal profile for terrain '{terrain.name}'") from None


def efficiency(params: BehaviorParams, ideal: LevelSelection) -> float:
    """Tracking efficiency in (0, 1]: product of per-parameter Gaussian factors
    of the normalized distance to the ideal interval, times a gait factor.

    The one-row case of ``grid_efficiency``."""
    return float(grid_efficiency(CandidateTable.of([params.validate()]), ideal)[0])


def grid_efficiency(candidates: CandidateTable, ideal: LevelSelection) -> np.ndarray:
    """Tracking efficiency of every row of a candidate table, as one float array.

    A parameter's factor is ``exp(-(d / RHO)**2)``, where ``d`` is the
    distance from its value to the ideal level interval in interval widths.
    ``exp`` runs once per distinct ``d`` in Python's ``math``, so a factor
    does not depend on the table it comes in. The factors are multiplied in
    ``PARAMETERS`` order, then by the gait factor. A row outside the global
    ranges or with an unknown gait raises the ``ValueError`` that
    ``BehaviorParams.validate`` gives for it.
    """
    values, gaits = candidates.values, candidates.gaits
    glo, ghi = np.array([GLOBAL_RANGES[name] for name in PARAMETERS]).T
    ok = ((glo - 1e-9 <= values) & (values <= ghi + 1e-9)).all(axis=1)
    ok &= np.logical_or.reduce([gaits == g for g in GAIT_NAMES])
    if not ok.all():
        candidates.params(int(ok.argmin())).validate()
    lo, hi = np.array([LEVEL_RANGES[name][int(ideal.level(name))] for name in PARAMETERS]).T
    d = np.maximum(np.maximum(lo - values, values - hi), 0.0) / (hi - lo)
    distinct, index = np.unique(d, return_inverse=True)
    factors = np.array([math.exp(-((v / RHO) ** 2)) for v in distinct.tolist()])
    factors = factors[index.reshape(d.shape)]
    e = factors[:, 0]
    for k in range(1, len(PARAMETERS)):
        e = e * factors[:, k]
    return np.where(gaits != ideal.gait, e * GAIT_MISMATCH_FACTOR, e)


def _read_only(*arrays) -> tuple:
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _episode_noise(seed: int, noise_scale: float, steps: int) -> tuple:
    """Seeded (noise_v, noise_w) of one episode, the same for every candidate
    simulated under the same seed."""
    if noise_scale > 0:
        rng = np.random.default_rng(seed)
        return rng.normal(0.0, noise_scale, steps), rng.normal(0.0, noise_scale, steps)
    return np.zeros(steps), np.zeros(steps)


@functools.lru_cache(maxsize=_CACHE_SIZE, typed=True)
def _gait_schedule(gait: str, step_frequency: float, dt: float, steps: int) -> tuple:
    """Read-only (contact, load) of a gait preset at a step frequency: the
    (n, 4) stance flags and the load per stance foot."""
    phase = np.mod(np.arange(steps) * (step_frequency * dt), 1.0)
    contact = desired_contacts(GAITS[gait], phase)
    n_stance = contact.sum(axis=1)
    # A step with no stance foot (pronking, second half-cycle) carries no load.
    load = np.divide(BODY_WEIGHT_N, n_stance, out=np.zeros(steps), where=n_stance > 0)
    return _read_only(contact, load)


def simulate(terrain: TerrainSpec, params: BehaviorParams, cmd: CommandVector,
             cfg: SimConfig, seed: int = 0) -> Trajectory:
    """Roll out one episode against the response model.

    Achieved planar velocity is the command scaled by efficiency plus noise
    drawn from ``seed``, capped so it never exceeds the command speed.
    Contact forces and foot slips are deterministic functions of efficiency
    so the phase terms stay exact at zero noise. The gait schedule (stance
    flags and per-foot load) depends only on the gait preset and its timing,
    so it is computed once per key and shared read-only (``SimConfig`` is
    mutable: the key is its values now).

    No pipeline calls this: ``adaptation.select_best`` scores a whole
    candidate grid as arrays and ``adaptation.score_terrain`` a terrain's
    rows as one batch. This function followed by
    ``rewards.episode_velocity_percent`` or ``rewards.episode_percent`` stays
    the per-episode reference that those scores equal exactly.
    """
    cfg.validate()
    cmd.validate()
    e = efficiency(params, ideal_profile(terrain))
    noise_v, noise_w = _episode_noise(seed, cfg.noise_scale, cfg.steps)
    contact, load = _gait_schedule(params.gait, params.step_frequency, cfg.dt, cfg.steps)
    foot_force, foot_speed = _foot_arrays(e, contact, load, cmd)
    return Trajectory(v_xy=np.multiply.outer(np.clip(e + noise_v, -1.0, 1.0), (cmd.vx, cmd.vy)),
                      w_z=cmd.wz * e + noise_w, foot_force=foot_force, foot_speed=foot_speed,
                      contact=contact)


def _foot_arrays(e: float, contact: np.ndarray, load: np.ndarray,
                 cmd: CommandVector) -> tuple:
    """(foot_force, foot_speed) of an episode at efficiency ``e``: the stance
    feet carry ``load`` and slip, the swing feet see a spurious force and move
    at the swing speed. Neither depends on the episode's seed."""
    spurious = (1.0 - e) * SPURIOUS_FORCE_N
    slip = (1.0 - e) * SLIP_SCALE
    swing_speed = SWING_SPEED_FACTOR * math.hypot(cmd.vx, cmd.vy) * e
    return np.where(contact, load[:, None], spurious), np.where(contact, slip, swing_speed)


def ideal_params(terrain: TerrainSpec) -> BehaviorParams:
    """Midpoints of the ideal level intervals with the ideal gait (efficiency 1)."""
    prof = ideal_profile(terrain)
    vals = {}
    for name in PARAMETERS:
        lo, hi = LEVEL_RANGES[name][int(prof.level(name))]
        vals[name] = round((lo + hi) / 2.0, 9)
    return BehaviorParams(gait=prof.gait, **vals)


def describe_profile(profile: LevelSelection) -> str:
    parts = [f"{name}={profile.level(name).name.lower()}" for name in PARAMETERS]
    parts.append(f"gait={profile.gait}")
    return ", ".join(parts)


__all__ = [
    "IDEAL_PROFILES", "Trajectory",
    "ideal_profile", "efficiency", "grid_efficiency", "simulate", "ideal_params",
    "BODY_WEIGHT_N", "SPURIOUS_FORCE_N", "SLIP_SCALE", "RHO",
    "GAIT_MISMATCH_FACTOR", "describe_profile",
]
