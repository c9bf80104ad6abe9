import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import contact_table, efficiency_reference, episode_phase, simulate_reference
from quadkit.config import SimConfig
from quadkit.locomotion import (
    GAITS,
    GLOBAL_RANGES,
    LEVEL_RANGES,
    PARAMETERS,
    BehaviorParams,
    CandidateTable,
    CommandVector,
    Level,
)
from quadkit.rewards import episode_percent, episode_velocity_percent
from quadkit.surrogate import (
    GAIT_MISMATCH_FACTOR,
    IDEAL_PROFILES,
    efficiency,
    grid_efficiency,
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
TRAJECTORY_ARRAYS = ("v_xy", "w_z", "foot_force", "foot_speed", "contact")


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
                           params.stance_width, params.swing_height, "pacing")
    assert efficiency(paced, ideal_profile(terrain)) == GAIT_MISMATCH_FACTOR


@settings(max_examples=100, deadline=None)
@given(data=st.data(), terrain_name=st.sampled_from(sorted(IDEAL_PROFILES)))
def test_grid_efficiency_equals_efficiency(data, terrain_name):
    # Level-interval ends as well as arbitrary values, so that rows repeat
    # values and sit exactly on an ideal interval's edge.
    values = st.fixed_dictionaries({
        name: st.floats(*GLOBAL_RANGES[name])
        | st.sampled_from(sorted({v for iv in LEVEL_RANGES[name] for v in iv}))
        for name in PARAMETERS})
    candidates = [BehaviorParams(gait=data.draw(st.sampled_from(sorted(GAITS))), **v)
                  for v in data.draw(st.lists(values, min_size=1, max_size=20))]
    ideal = IDEAL_PROFILES[terrain_name]
    grid = grid_efficiency(CandidateTable.of(candidates), ideal).tolist()
    assert grid == [efficiency_reference(c, ideal) for c in candidates]
    assert grid == [efficiency(c, ideal) for c in candidates]


def test_ideal_zero_noise_tracks_exactly():
    terrain = UphillSlope()
    params = ideal_params(terrain)
    traj = simulate(terrain, params, CMD, SimConfig(noise_scale=0.0), 0)
    assert len(traj) == 250
    assert np.all(traj.v_xy == (1.0, 0.0))
    assert np.all(traj.w_z == 0.0)
    report = episode_percent(traj, CMD)
    assert report.vel_xy_pct == 100.0
    assert report.swing_force_pct >= 99.0
    assert report.stance_vel_pct >= 99.0


def test_same_seed_reproduces_trajectory():
    terrain = UnevenGround()
    params = ideal_params(terrain)
    a = simulate(terrain, params, CMD, SimConfig(), 123)
    b = simulate(terrain, params, CMD, SimConfig(), 123)
    c = simulate(terrain, params, CMD, SimConfig(), 124)
    assert all(np.array_equal(getattr(a, k), getattr(b, k)) for k in TRAJECTORY_ARRAYS)
    assert not all(np.array_equal(getattr(a, k), getattr(c, k)) for k in TRAJECTORY_ARRAYS)


def test_speed_cap():
    terrain = UphillSlope()
    params = ideal_params(terrain)
    traj = simulate(terrain, params, CMD, SimConfig(noise_scale=0.4), 5)
    cmd_speed = math.hypot(CMD.vx, CMD.vy)
    assert np.all(np.hypot(traj.v_xy[:, 0], traj.v_xy[:, 1]) <= cmd_speed + 1e-12)


def test_phase_advances_by_frequency_dt():
    terrain = UphillSlope()
    params = ideal_params(terrain)
    cfg = SimConfig(noise_scale=0.0)
    traj = simulate(terrain, params, CMD, cfg, 0)
    phase = episode_phase(params, cfg)
    step = params.step_frequency * cfg.dt
    assert np.all(np.abs(np.diff(phase) % 1.0 - step % 1.0) < 1e-9)
    gait = GAITS[params.gait]
    offsets = (gait.theta1, gait.theta2, gait.theta3)
    assert [tuple(row) for row in traj.contact.tolist()] == [
        contact_table(t, offsets) for t in phase.tolist()]


def test_ordinal_monotonicity_at_zero_noise():
    cfg = SimConfig(noise_scale=0.0)
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
                    traj = simulate(terrain, candidate, CMD, cfg, 0)
                    percents.append(episode_velocity_percent(traj, CMD))
                assert all(a >= b - 1e-9 for a, b in zip(percents, percents[1:]))


def test_degraded_params_score_lower():
    terrain = UphillSlope()
    cfg = SimConfig(noise_scale=0.0)
    good = ideal_params(terrain)
    values = good.continuous()
    values["body_height"] = 0.35  # two levels above the ideal "low"
    bad = BehaviorParams(gait=good.gait, **values)
    good_pct = episode_velocity_percent(simulate(terrain, good, CMD, cfg, 0), CMD)
    bad_pct = episode_velocity_percent(simulate(terrain, bad, CMD, cfg, 0), CMD)
    assert good_pct > bad_pct


def test_sim_config_validation():
    with pytest.raises(ValueError):
        SimConfig(steps=0).validate()
    with pytest.raises(ValueError):
        SimConfig(noise_scale=-0.1).validate()
    with pytest.raises(ValueError):
        simulate(UphillSlope(), ideal_params(UphillSlope()),
                 CommandVector(3.0, 0.0, 0.0), SimConfig())


def assert_matches_reference(terrain, params, cmd, cfg, seed):
    """simulate equals the uncached reference bit for bit, on a miss and on a hit."""
    expected = simulate_reference(terrain, params, cmd, cfg, seed)
    for _ in range(2):
        traj = simulate(terrain, params, cmd, cfg, seed)
        for key in TRAJECTORY_ARRAYS:
            assert np.array_equal(getattr(traj, key), getattr(expected, key)), key
            assert getattr(traj, key).dtype == getattr(expected, key).dtype, key


@pytest.mark.parametrize("gait", sorted(GAITS))
@pytest.mark.parametrize("noise_scale", [0.0, 0.05])
@pytest.mark.parametrize("steps,dt", [(250, 0.02), (1, 0.02), (97, 0.013)])
def test_simulate_matches_reference_every_gait(gait, noise_scale, steps, dt):
    terrain = UphillSlope()
    values = ideal_params(terrain).continuous()
    values["step_frequency"] = 2.7
    params = BehaviorParams(gait=gait, **values)
    cfg = SimConfig(steps=steps, dt=dt, noise_scale=noise_scale)
    assert_matches_reference(terrain, params, CommandVector(0.8, -0.3, 0.4), cfg, 11)


@settings(max_examples=60, deadline=None)
@given(terrain=st.sampled_from(sorted(IDEAL_PROFILES)),
       gait=st.sampled_from(sorted(GAITS)),
       fractions=st.tuples(*[st.floats(0.0, 1.0)] * len(PARAMETERS)),
       seed=st.integers(0, 2 ** 63 - 1),
       steps=st.integers(1, 300),
       dt=st.floats(1e-3, 0.1),
       noise_scale=st.sampled_from([0.0, 0.01, 0.05, 0.4]),
       cmd=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)))
def test_simulate_matches_reference_property(terrain, gait, fractions, seed, steps, dt,
                                             noise_scale, cmd):
    values = {}
    for name, f in zip(PARAMETERS, fractions):
        lo, hi = GLOBAL_RANGES[name]
        values[name] = lo + f * (hi - lo)
    params = BehaviorParams(gait=gait, **values)
    cfg = SimConfig(steps=steps, dt=dt, noise_scale=noise_scale)
    assert_matches_reference(terrain_by_name(terrain), params, CommandVector(*cmd), cfg, seed)


def test_interleaved_seeds_get_their_own_noise():
    terrain = UnevenGround()
    params = ideal_params(terrain)
    for seed in (301, 302, 301, 302, 301):
        assert_matches_reference(terrain, params, CMD, SimConfig(), seed)
    a = simulate(terrain, params, CMD, SimConfig(), 301)
    b = simulate(terrain, params, CMD, SimConfig(), 302)
    assert not np.array_equal(a.w_z, b.w_z)


def test_mutated_sim_config_gets_fresh_noise():
    terrain = UnevenGround()
    params = ideal_params(terrain)
    cfg = SimConfig()
    first = simulate(terrain, params, CMD, cfg, 401)
    second = simulate(terrain, params, CMD, cfg, 402)
    assert not np.array_equal(first.w_z, second.w_z)
    assert_matches_reference(terrain, params, CMD, cfg, 402)
    cfg.noise_scale = 0.0
    assert_matches_reference(terrain, params, CMD, cfg, 402)
    assert np.all(simulate(terrain, params, CMD, cfg, 402).w_z == 0.0)
    cfg.steps, cfg.dt = 40, 0.031
    assert_matches_reference(terrain, params, CMD, cfg, 402)


def test_mutated_sim_config_is_validated_on_every_call():
    terrain = UnevenGround()
    params = ideal_params(terrain)
    cfg = SimConfig()
    simulate(terrain, params, CMD, cfg, 403)
    cfg.noise_scale = -0.1
    with pytest.raises(ValueError, match="noise_scale"):
        simulate(terrain, params, CMD, cfg, 403)
    cfg.noise_scale, cfg.steps = 0.05, 0
    with pytest.raises(ValueError, match="steps"):
        simulate(terrain, params, CMD, cfg, 403)


def test_shared_contact_is_read_only():
    terrain = UphillSlope()
    traj = simulate(terrain, ideal_params(terrain), CMD, SimConfig(), 7)
    with pytest.raises(ValueError):
        traj.contact[0, 0] = False


def test_per_candidate_arrays_are_new_per_call():
    terrain = UphillSlope()
    params = ideal_params(terrain)
    a = simulate(terrain, params, CMD, SimConfig(), 9)
    b = simulate(terrain, params, CMD, SimConfig(), 9)
    for key in ("v_xy", "w_z", "foot_force", "foot_speed"):
        assert not np.shares_memory(getattr(a, key), getattr(b, key)), key
        assert getattr(a, key).flags.writeable, key
    a.w_z[0] += 1.0
    assert_matches_reference(terrain, params, CMD, SimConfig(), 9)
