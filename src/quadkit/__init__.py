"""quadkit: a desk-scale quadruped agent toolkit.

Gait-phase math and behavior parameters, velocity/gait reward scoring,
benchmark terrains, a deterministic surrogate simulator, LLM-guided
parameter adaptation, semantic instance mapping, fast-marching navigation,
and long-horizon task execution over a skill library.
"""

from .config import RewardConfig, SimConfig, ToolkitConfig, derive_seed, load_config
from .locomotion import (
    GAITS,
    BehaviorParams,
    CommandVector,
    FootId,
    GaitOffsets,
    Level,
    LevelSelection,
    desired_contact,
    foot_phases,
    level_range,
    sample_grid,
    timing_reference,
)
from .rewards import (
    EpisodeReport,
    StepSample,
    episode_percent,
    r_stance_velocity,
    r_swing_force,
    r_velocity_xy,
    r_velocity_yaw,
)
from .surrogate import Trajectory, efficiency, ideal_profile, simulate
from .terrain import (
    DownhillSlope,
    DownsideStair,
    UnevenGround,
    UphillSlope,
    UpsideStair,
    terrain_by_name,
)

__version__ = "0.1.0"

__all__ = [
    "ToolkitConfig", "load_config", "derive_seed",
    "BehaviorParams", "CommandVector", "FootId", "GaitOffsets", "Level", "LevelSelection",
    "GAITS",
    "foot_phases", "timing_reference", "desired_contact", "level_range", "sample_grid",
    "RewardConfig", "StepSample", "EpisodeReport", "episode_percent",
    "r_velocity_xy", "r_velocity_yaw", "r_swing_force", "r_stance_velocity",
    "SimConfig", "Trajectory", "simulate", "efficiency", "ideal_profile",
    "UphillSlope", "DownhillSlope", "UpsideStair", "DownsideStair", "UnevenGround",
    "terrain_by_name",
    "__version__",
]
