import math

import pytest

from oracles import episode_percent_steps, samples_of, trajectory_of
from quadkit.locomotion import (
    GAITS,
    BehaviorParams,
    CommandVector,
    desired_contact,
    desired_contacts,
)
from quadkit.rewards import (
    EpisodeReport,
    RewardConfig,
    StepSample,
    episode_percent,
    episode_velocity_percent,
    r_stance_velocity,
    r_swing_force,
    r_velocity_xy,
    r_velocity_yaw,
    scalar_reward,
)
from quadkit.surrogate import SimConfig, ideal_params, simulate
from quadkit.terrain import UphillSlope

CMD = CommandVector(1.0, 0.0, 0.0)
CFG = RewardConfig()


def sample(v=(1.0, 0.0), w=0.0, force=(0.0,) * 4, speed=(0.0,) * 4, t=0.25):
    return StepSample(v_xy=v, w_z=w, foot_force=force, foot_speed_xy=speed, phase_t=t)


def test_velocity_xy_closed_forms():
    assert r_velocity_xy(sample(v=(1.0, 0.0)), CMD, CFG) == 1.0
    err = math.sqrt(CFG.sigma_vxy)
    assert abs(r_velocity_xy(sample(v=(1.0 - err, 0.0)), CMD, CFG) - math.exp(-1)) < 1e-12
    got = r_velocity_xy(sample(v=(0.5, 0.0)), CMD, CFG)
    assert abs(got - math.exp(-1)) < 1e-12


def test_velocity_yaw_closed_forms():
    assert r_velocity_yaw(sample(w=0.0), CMD, CFG) == 1.0
    assert abs(r_velocity_yaw(sample(w=0.5), CMD, CFG) - math.exp(-1)) < 1e-12


def test_swing_force_examples():
    pronk = GAITS["pronking"]
    assert r_swing_force(sample(t=0.75), pronk, CFG) == 4.0
    assert r_swing_force(sample(t=0.25, force=(500.0,) * 4), pronk, CFG) == 0.0
    trot = GAITS["trotting"]
    got = r_swing_force(sample(t=0.25, force=(3.0, 10.0, 0.0, 7.0)), trot, CFG)
    assert abs(got - (math.exp(-1) + 1.0)) < 1e-12  # swing feet are FL, RR


def test_stance_velocity_examples():
    pronk = GAITS["pronking"]
    assert r_stance_velocity(sample(t=0.25), pronk, CFG) == 4.0
    assert r_stance_velocity(sample(t=0.75, speed=(9.0,) * 4), pronk, CFG) == 0.0
    trot = GAITS["trotting"]
    got = r_stance_velocity(sample(t=0.25, speed=(0.5, 2.0, 2.0, 0.0)), trot, CFG)
    assert abs(got - (math.exp(-1) + 1.0)) < 1e-12  # stance feet are FR, RL


def test_swing_selector_on_stance_mode():
    cfg = RewardConfig(swing_selector_on_stance=True)
    trot = GAITS["trotting"]
    s = sample(t=0.25, speed=(0.5, 2.0, 2.0, 0.0))
    # in audit mode the stance term sums over the commanded-swing feet
    got = r_stance_velocity(s, trot, cfg)
    want = math.exp(-(2.0 ** 2) / cfg.sigma_cv) * 2
    assert abs(got - want) < 1e-12


def test_phase_terms_partition_feet():
    for name, gait in GAITS.items():
        for t in [k * 0.05 for k in range(20)]:
            contact = desired_contact(gait, t)
            s = sample(t=t)
            swing = r_swing_force(s, gait, CFG)
            stance = r_stance_velocity(s, gait, CFG)
            # with zero forces/speeds each selected foot contributes exactly 1
            assert swing + stance == 4.0
            assert swing == float(4 - sum(contact))


def test_term_bounds():
    import random
    rng = random.Random(7)
    for _ in range(200):
        s = sample(
            v=(rng.uniform(-2, 2), rng.uniform(-2, 2)),
            w=rng.uniform(-3, 3),
            force=tuple(rng.uniform(0, 200) for _ in range(4)),
            speed=tuple(rng.uniform(0, 3) for _ in range(4)),
            t=rng.random(),
        )
        assert 0.0 < r_velocity_xy(s, CMD, CFG) <= 1.0
        assert 0.0 < r_velocity_yaw(s, CMD, CFG) <= 1.0
        for gait in GAITS.values():
            assert 0.0 <= r_swing_force(s, gait, CFG) <= 4.0
            assert 0.0 <= r_stance_velocity(s, gait, CFG) <= 4.0


def test_monotonicity():
    trot = GAITS["trotting"]
    forces = [0.0, 5.0, 20.0, 80.0]
    swing_vals = [r_swing_force(sample(t=0.25, force=(0.0, f, 0.0, 0.0)), trot, CFG)
                  for f in forces]
    assert all(a >= b for a, b in zip(swing_vals, swing_vals[1:]))
    errs = [0.0, 0.2, 0.5, 1.0]
    vel_vals = [r_velocity_xy(sample(v=(1.0 - e, 0.0)), CMD, CFG) for e in errs]
    assert all(a > b for a, b in zip(vel_vals, vel_vals[1:]))


def test_perfect_episode_scores_100():
    gait = GAITS["trotting"]
    steps = []
    for k in range(250):
        t = (k * 3.0 * 0.02) % 1.0
        steps.append(sample(t=t))
    report = episode_percent(trajectory_of(steps), CMD, gait, CFG)
    assert report.as_tuple() == (100.0, 100.0, 100.0, 100.0)


def test_constant_e_minus_one_velocity_percent():
    gait = GAITS["trotting"]
    steps = [sample(v=(0.5, 0.0), t=0.25) for _ in range(250)]
    report = episode_percent(trajectory_of(steps), CMD, gait, CFG)
    assert abs(report.vel_xy_pct - 100.0 * math.exp(-1)) < 1e-9
    assert abs(report.vel_xy_pct - 36.79) < 0.01


def test_episode_invariant_under_duplication():
    gait = GAITS["pacing"]
    steps = [sample(v=(0.8, 0.1), w=0.2, force=(10.0, 0.0, 5.0, 1.0),
                    speed=(0.1, 0.4, 0.0, 0.2), t=k * 0.1) for k in range(10)]
    once = episode_percent(trajectory_of(steps), CMD, gait, CFG)
    twice = episode_percent(trajectory_of(steps + steps), CMD, gait, CFG)
    assert all(abs(a - b) < 1e-9 for a, b in zip(once.as_tuple(), twice.as_tuple()))


def test_empty_episode_rejected():
    with pytest.raises(ValueError):
        episode_percent(trajectory_of([]), CMD, GAITS["trotting"], CFG)
    with pytest.raises(ValueError):
        episode_velocity_percent(trajectory_of([]), CMD, CFG)


def test_flat_normalization_option():
    gait = GAITS["trotting"]
    steps = [sample(t=0.25)]
    flat = episode_percent(trajectory_of(steps), CMD, gait,
                           RewardConfig(flat_phase_max=True))
    # 2 perfect swing feet out of a flat 4 maximum
    assert abs(flat.swing_force_pct - 50.0) < 1e-9
    realized = episode_percent(trajectory_of(steps), CMD, gait, CFG)
    assert realized.swing_force_pct == 100.0


def test_scalar_reward_maximum():
    gait = GAITS["trotting"]
    total = scalar_reward(sample(t=0.25), CMD, gait, CFG)
    assert abs(total - (1.0 + 1.0 + 0.08 + 0.08)) < 1e-12


def test_sample_validation():
    with pytest.raises(ValueError):
        StepSample((1.0, 0.0), 0.0, (0.0, 0.0, 0.0), (0.0,) * 4, 0.1)
    with pytest.raises(ValueError):
        StepSample((1.0, 0.0), 0.0, (-1.0, 0.0, 0.0, 0.0), (0.0,) * 4, 0.1)


def test_sigma_validation():
    with pytest.raises(ValueError):
        RewardConfig(sigma_vxy=0.0).validate()


def test_report_csv_row():
    report = EpisodeReport(99.5, 98.25, 100.0, 67.125)
    row = report.csv_row("uphill_slope", "auto")
    assert row == "uphill_slope,auto,99.500000,98.250000,100.000000,67.125000"


AUDIT_FLAGS = [(False, False), (True, False), (False, True), (True, True)]


def assert_matches_step_oracle(traj, cmd, gait, cfg):
    want = episode_percent_steps(samples_of(traj), cmd, gait, cfg)
    got = episode_percent(traj, cmd, gait, cfg).as_tuple()
    assert all(math.isclose(a, b, rel_tol=1e-12, abs_tol=0.0) for a, b in zip(got, want))
    assert math.isclose(episode_velocity_percent(traj, cmd, cfg), want[0],
                        rel_tol=1e-12, abs_tol=0.0)


@pytest.mark.parametrize("gait_name_", list(GAITS))
@pytest.mark.parametrize("on_stance,flat", AUDIT_FLAGS)
def test_episode_arrays_match_per_step_oracle(gait_name_, on_stance, flat):
    cfg = RewardConfig(swing_selector_on_stance=on_stance, flat_phase_max=flat)
    terrain = UphillSlope()
    base = ideal_params(terrain).continuous()
    cmd = CommandVector(0.8, -0.3, 0.4)
    # a detuned height keeps spurious swing forces and stance slips nonzero
    params = BehaviorParams(gait=GAITS[gait_name_], **dict(base, body_height=0.3))
    for noise in (0.05, 0.4):
        for seed in (0, 7, 123):
            traj = simulate(terrain, params, cmd, SimConfig(noise_scale=noise, seed=seed))
            # scored against every gait, not only the simulated one
            for other in GAITS.values():
                assert_matches_step_oracle(traj, cmd, other, cfg)


@pytest.mark.parametrize("on_stance,flat", AUDIT_FLAGS)
def test_pronking_steps_without_stance_match_oracle(on_stance, flat):
    cfg = RewardConfig(swing_selector_on_stance=on_stance, flat_phase_max=flat)
    pronk = GAITS["pronking"]
    params = BehaviorParams(gait=pronk, **dict(ideal_params(UphillSlope()).continuous(),
                                               body_height=0.3))
    traj = simulate(UphillSlope(), params, CMD, SimConfig(noise_scale=0.4, seed=3))
    no_stance = ~desired_contacts(pronk, traj.phase).any(axis=1)
    assert no_stance.any() and not no_stance.all()
    assert_matches_step_oracle(traj, CMD, pronk, cfg)
    # an episode made only of such steps: the stance selector never picks a foot
    swing_only = trajectory_of(s for s in samples_of(traj) if s.phase_t >= 0.5)
    assert_matches_step_oracle(swing_only, CMD, pronk, cfg)
    report = episode_percent(swing_only, CMD, pronk, cfg)
    if not (on_stance or flat):
        assert report.stance_vel_pct == 100.0
