"""Surrogate response model: how tracking efficiency falls as behavior
parameters leave each terrain's ideal level intervals, and what that does to
episode scores."""

from quadkit.locomotion import GAITS, LEVEL_RANGES, BehaviorParams, CommandVector
from quadkit.rewards import episode_percent
from quadkit.surrogate import (
    SimConfig,
    describe_profile,
    efficiency,
    ideal_params,
    ideal_profile,
    simulate,
)
from quadkit.terrain import TERRAIN_TYPES, terrain_by_name

cmd = CommandVector(1.0, 0.0, 0.0)

print("per-terrain ideal profiles:")
for name in TERRAIN_TYPES:
    print(f"  {name:15s} {describe_profile(ideal_profile(terrain_by_name(name)))}")

# Efficiency is a product of per-parameter factors. Sweep body height across
# its five levels on the uphill slope (ideal level: low).
terrain = terrain_by_name("uphill_slope")
base = ideal_params(terrain)
print("\nbody-height sweep on the uphill slope (ideal = low):")
for level, (lo, hi) in enumerate(LEVEL_RANGES["body_height"]):
    values = base.continuous()
    values["body_height"] = (lo + hi) / 2
    params = BehaviorParams(gait=base.gait, **values)
    e = efficiency(params, ideal_profile(terrain))
    print(f"  level {level} midpoint {values['body_height']:.3f} -> efficiency {e:.4f}")

# A wrong gait multiplies efficiency by a flat penalty.
paced = BehaviorParams(gait=GAITS["pacing"], **base.continuous())
print("\npacing instead of trotting:", efficiency(paced, ideal_profile(terrain)))

# Ideal parameters track the command exactly at zero noise; detuned ones slip
# and brush the ground during swing.
for label, params in (("ideal", base), ("height two levels high",
                                        BehaviorParams(gait=base.gait, **dict(
                                            base.continuous(), body_height=0.35)))):
    traj = simulate(terrain, params, cmd, SimConfig(noise_scale=0.0, seed=0))
    report = episode_percent(traj, cmd, params.gait)
    print(f"  {label:24s} -> episode percents "
          f"{tuple(round(v, 2) for v in report.as_tuple())}")
