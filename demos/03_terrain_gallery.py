"""The five benchmark terrains. A terrain is its name: the prompts describe it
in fixed text, and the surrogate scores parameters by their distance from its
fixed ideal profile."""

from quadkit.adaptation import TERRAIN_DESCRIPTIONS
from quadkit.surrogate import describe_profile, ideal_profile
from quadkit.terrain import TERRAIN_TYPES

for name, cls in TERRAIN_TYPES.items():
    spec = cls()
    print(f"\n=== {name} ===")
    print("  description:", TERRAIN_DESCRIPTIONS[name])
    print("  ideal profile:", describe_profile(ideal_profile(spec)))
