"""Reward-model walkthrough: the four per-step terms and how an episode
aggregates into percent-of-maximum scores."""

import math

import numpy as np

from quadkit.locomotion import GAITS, CommandVector
from quadkit.rewards import (
    RewardConfig,
    StepSample,
    episode_percent,
    r_stance_velocity,
    r_swing_force,
    r_velocity_xy,
)
from quadkit.surrogate import Trajectory

cmd = CommandVector(1.0, 0.0, 0.0)   # walk straight at 1 m/s
cfg = RewardConfig()
trot = GAITS["trotting"]

# A perfectly tracking step: commanded velocity achieved, no spurious swing
# forces, no stance slip.
perfect = StepSample(v_xy=(1.0, 0.0), w_z=0.0, foot_force=(0.0,) * 4,
                     foot_speed_xy=(0.0,) * 4, phase_t=0.25)
print("velocity term, perfect tracking:", r_velocity_xy(perfect, cmd, cfg))

# Velocity error decays the term as exp(-err^2 / sigma). With the default
# sigma of 0.25, a 0.5 m/s error lands exactly on exp(-1).
slow = StepSample(v_xy=(0.5, 0.0), w_z=0.0, foot_force=(0.0,) * 4,
                  foot_speed_xy=(0.0,) * 4, phase_t=0.25)
print("velocity term at 0.5 m/s error:", round(r_velocity_xy(slow, cmd, cfg), 6),
      "= exp(-1) =", round(math.exp(-1), 6))

# At phase 0.25 a trotting gait commands FR/RL stance and FL/RR swing. A 10 N
# contact force on a swing foot (FL) costs exp(-100/100) on that foot.
touch = StepSample(v_xy=(1.0, 0.0), w_z=0.0, foot_force=(0.0, 10.0, 0.0, 0.0),
                   foot_speed_xy=(0.0, 0.0, 0.0, 0.0), phase_t=0.25)
print("swing-force term with one 10 N touch:", round(r_swing_force(touch, trot, cfg), 6))

# Stance slip is scored the same way on the feet commanded to stand.
slip = StepSample(v_xy=(1.0, 0.0), w_z=0.0, foot_force=(0.0,) * 4,
                  foot_speed_xy=(0.5, 0.0, 0.0, 0.0), phase_t=0.25)
print("stance-slip term with one 0.5 m/s slip:",
      round(r_stance_velocity(slip, trot, cfg), 6))

# Episode scores divide the summed terms by the summed per-step maxima. An
# episode is a Trajectory: one array per quantity, one row per step.
k = np.arange(250)
v = np.where(k % 2 == 0, 1.0, 0.5)   # alternate perfect / degraded tracking
episode = Trajectory(
    v_xy=np.stack([v, np.zeros(250)], axis=1),
    w_z=np.zeros(250),
    foot_force=np.zeros((250, 4)),
    foot_speed=np.zeros((250, 4)),
    phase=(k * 3.0 * 0.02) % 1.0,
)
report = episode_percent(episode, cmd, trot, cfg)
print("\nepisode percents (vel_xy, vel_yaw, swing, stance):",
      tuple(round(v, 2) for v in report.as_tuple()))
print("expected vel_xy percent:", round(100 * (1 + math.exp(-1)) / 2, 2))
