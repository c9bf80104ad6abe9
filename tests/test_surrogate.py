import math

import numpy as np
import pytest

from quadkit.locomotion import GAITS, LEVEL_RANGES, PARAMETERS, BehaviorParams, CommandVector, Level
from quadkit.rewards import episode_percent, episode_velocity_percent
from quadkit.surrogate import (
    GAIT_MISMATCH_FACTOR,
    IDEAL_PROFILES,
    SimConfig,
    efficiency,
    ideal_params,
    ideal_profile,
    simulate,
)
from quadkit.terrain import (
    DownhillSlope,
    UnevenGround,
    UphillSlope,
    terrain_by_name,
)

CMD = CommandVector(1.0, 0.0, 0.0)
TRAJECTORY_ARRAYS = ("v_xy", "w_z", "foot_force", "foot_speed", "phase")


def test_uphill_profile_matches_expert_answers():
    prof = ideal_profile(UphillSlope())
    assert prof.body_height == Level.LOW
    assert prof.step_frequency == Level.HIGH
    assert prof.swing_height == Level.HIGH
    assert prof.body_pitch == Level.HIGH  # ordinal 3 reads "positive"
    assert prof.stance_width == Level.MEDIUM
    assert prof.gait == "trotting"


def test_authored_profiles_for_other_terrains():
    down = ideal_profile(DownhillSlope())
    assert (down.body_height, down.step_frequency, down.swing_height,
            down.body_pitch, down.stance_width) == (
        Level.LOW, Level.LOW, Level.MEDIUM, Level.LOW, Level.HIGH)
    uneven = ideal_profile(UnevenGround())
    assert (uneven.body_height, uneven.step_frequency, uneven.swing_height,
            uneven.body_pitch, uneven.stance_width) == (
        Level.LOW, Level.MEDIUM, Level.HIGH, Level.MEDIUM, Level.HIGH)
    assert all(p.gait == "trotting" for p in IDEAL_PROFILES.values())


def test_efficiency_at_ideal_midpoints_is_one():
    for name in IDEAL_PROFILES:
        terrain = terrain_by_name(name)
        assert efficiency(ideal_params(terrain), ideal_profile(terrain)) == 1.0


def test_efficiency_one_interval_width_away():
    terrain = UphillSlope()
    prof = ideal_profile(terrain)
    params = ideal_params(terrain)
    # body height one full interval width above the ideal interval
    lo, hi = LEVEL_RANGES["body_height"][int(prof.body_height)]
    shifted = BehaviorParams(hi + (hi - lo), params.step_frequency, params.body_pitch,
                             params.stance_width, params.swing_height, params.gait)
    assert abs(efficiency(shifted, prof) - math.exp(-4.0)) < 1e-12


def test_efficiency_gait_mismatch_factor():
    terrain = UphillSlope()
    params = ideal_params(terrain)
    paced = BehaviorParams(params.body_height, params.step_frequency, params.body_pitch,
                           params.stance_width, params.swing_height, GAITS["pacing"])
    assert efficiency(paced, ideal_profile(terrain)) == GAIT_MISMATCH_FACTOR


def test_ideal_zero_noise_tracks_exactly():
    terrain = UphillSlope()
    params = ideal_params(terrain)
    traj = simulate(terrain, params, CMD, SimConfig(noise_scale=0.0, seed=0))
    assert len(traj) == 250
    assert np.all(traj.v_xy == (1.0, 0.0))
    assert np.all(traj.w_z == 0.0)
    report = episode_percent(traj, CMD, params.gait)
    assert report.vel_xy_pct == 100.0
    assert report.swing_force_pct >= 99.0
    assert report.stance_vel_pct >= 99.0


def test_same_seed_reproduces_trajectory():
    terrain = UnevenGround()
    params = ideal_params(terrain)
    a = simulate(terrain, params, CMD, SimConfig(seed=123))
    b = simulate(terrain, params, CMD, SimConfig(seed=123))
    c = simulate(terrain, params, CMD, SimConfig(seed=124))
    assert all(np.array_equal(getattr(a, k), getattr(b, k)) for k in TRAJECTORY_ARRAYS)
    assert not all(np.array_equal(getattr(a, k), getattr(c, k)) for k in TRAJECTORY_ARRAYS)


def test_speed_cap():
    terrain = UphillSlope()
    params = ideal_params(terrain)
    traj = simulate(terrain, params, CMD, SimConfig(noise_scale=0.4, seed=5))
    cmd_speed = math.hypot(CMD.vx, CMD.vy)
    assert np.all(np.hypot(traj.v_xy[:, 0], traj.v_xy[:, 1]) <= cmd_speed + 1e-12)


def test_phase_advances_by_frequency_dt():
    terrain = UphillSlope()
    params = ideal_params(terrain)
    cfg = SimConfig(noise_scale=0.0, seed=0)
    traj = simulate(terrain, params, CMD, cfg)
    step = params.step_frequency * cfg.dt
    assert np.all(np.abs(np.diff(traj.phase) % 1.0 - step % 1.0) < 1e-9)


def test_ordinal_monotonicity_at_zero_noise():
    cfg = SimConfig(noise_scale=0.0, seed=0)
    for name in ("uphill_slope", "downhill_slope", "uneven_ground"):
        terrain = terrain_by_name(name)
        prof = ideal_profile(terrain)
        base = ideal_params(terrain)
        for param in PARAMETERS:
            ideal_level = int(prof.level(param))
            for direction in (-1, 1):
                percents = []
                for dist in range(0, 5):
                    level = ideal_level + direction * dist
                    if not 0 <= level <= 4:
                        break
                    lo, hi = LEVEL_RANGES[param][level]
                    values = base.continuous()
                    values[param] = (lo + hi) / 2
                    candidate = BehaviorParams(gait=base.gait, **values)
                    traj = simulate(terrain, candidate, CMD, cfg)
                    percents.append(episode_velocity_percent(traj, CMD))
                assert all(a >= b - 1e-9 for a, b in zip(percents, percents[1:]))


def test_degraded_params_score_lower():
    terrain = UphillSlope()
    cfg = SimConfig(noise_scale=0.0, seed=0)
    good = ideal_params(terrain)
    values = good.continuous()
    values["body_height"] = 0.35  # two levels above the ideal "low"
    bad = BehaviorParams(gait=good.gait, **values)
    good_pct = episode_velocity_percent(simulate(terrain, good, CMD, cfg), CMD)
    bad_pct = episode_velocity_percent(simulate(terrain, bad, CMD, cfg), CMD)
    assert good_pct > bad_pct


def test_sim_config_validation():
    with pytest.raises(ValueError):
        SimConfig(steps=0).validate()
    with pytest.raises(ValueError):
        SimConfig(noise_scale=-0.1).validate()
    with pytest.raises(ValueError):
        simulate(UphillSlope(), ideal_params(UphillSlope()),
                 CommandVector(3.0, 0.0, 0.0), SimConfig())
