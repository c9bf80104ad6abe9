"""Toolkit configuration: compiled-in defaults plus a JSON config file loader.

One file configures the level-range table, reward sigmas, simulation, LSS
search, mapping, and navigation settings, and optional terrain parameter
overrides.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field

from .errors import ConfigError
from .locomotion import LEVEL_RANGES, PARAMETERS
from .rewards import RewardConfig
from .surrogate import SimConfig


@dataclass
class LssConfig:
    candidate_cap: int = 4096
    grid_gaits: bool = False


@dataclass
class MappingConfig:
    dilation_p: int = 3  # Chebyshev dilation radius (cells) for matching detections to memory
    sensor_range: float = 3.0  # explored disk radius around each observation pose, m
    max_point_height: float = 2.0  # points at or above this height are ceiling clutter, m


@dataclass
class NavConfig:
    unexplored_cost: float = 0.5  # traversal cost of cells never observed
    speed_floor: float = 0.05  # lower clamp on speed so near-impassable cells stay well-posed
    cost_mode: str = "binary"  # "binary" ({0, 1} costs) or "continuous" ([0, 1] costs)
    success_radius: float = 0.5


@dataclass
class ToolkitConfig:
    level_ranges: dict = field(default_factory=lambda: {k: list(v) for k, v in LEVEL_RANGES.items()})
    reward: RewardConfig = field(default_factory=RewardConfig)
    sim: SimConfig = field(default_factory=SimConfig)
    lss: LssConfig = field(default_factory=LssConfig)
    mapping: MappingConfig = field(default_factory=MappingConfig)
    nav: NavConfig = field(default_factory=NavConfig)
    terrain_overrides: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


def _apply_section(obj, data: dict, section: str):
    defaults = {f.name: f.default for f in dataclasses.fields(obj)}
    for key, value in data.items():
        if key not in defaults:
            raise ConfigError(f"unknown key '{key}' in config section '{section}'")
        if isinstance(value, list):
            value = tuple(value)
        # Exact types, so a bool never passes for a number; an int is a valid float.
        expected = type(defaults[key])
        if not (type(value) is expected or (expected, type(value)) == (float, int)):
            raise ConfigError(f"config {section}.{key} must be {expected.__name__}, "
                              f"not {type(value).__name__}")
        setattr(obj, key, value)


def _validate_level_ranges(table: dict):
    for name in PARAMETERS:
        if name not in table:
            raise ConfigError(f"level_ranges missing parameter '{name}'")
        intervals = table[name]
        if len(intervals) != 5:
            raise ConfigError(f"level_ranges[{name}] needs exactly 5 intervals")
        for i, (lo, hi) in enumerate(intervals):
            if hi < lo:
                raise ConfigError(f"level_ranges[{name}][{i}] is inverted")
            if i and abs(lo - intervals[i - 1][1]) > 1e-9:
                raise ConfigError(f"level_ranges[{name}] intervals must be contiguous")


def load_config(path=None) -> ToolkitConfig:
    """Build a config from defaults, merging a JSON file on top when given."""
    cfg = ToolkitConfig()
    if path is None:
        return cfg
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        raise ConfigError(f"cannot load config {path}: {err}") from None
    return apply_config_data(cfg, data)


def apply_config_data(cfg: ToolkitConfig, data: dict) -> ToolkitConfig:
    """Merge a config dict (same schema as the JSON file) onto a config."""
    sections = {
        "reward": cfg.reward,
        "sim": cfg.sim,
        "lss": cfg.lss,
        "mapping": cfg.mapping,
        "nav": cfg.nav,
    }
    for key, value in data.items():
        if key in sections:
            if not isinstance(value, dict):
                raise ConfigError(f"config section '{key}' must be an object")
            _apply_section(sections[key], value, key)
        elif key == "level_ranges":
            table = {k: [tuple(iv) for iv in v] for k, v in value.items()}
            merged = dict(cfg.level_ranges)
            merged.update(table)
            _validate_level_ranges(merged)
            cfg.level_ranges = merged
        elif key == "terrain_overrides":
            cfg.terrain_overrides = dict(value)
        else:
            raise ConfigError(f"unknown top-level config key '{key}'")
    if cfg.nav.cost_mode not in ("binary", "continuous"):
        raise ConfigError("config nav.cost_mode must be 'binary' or 'continuous', "
                          f"not {cfg.nav.cost_mode!r}")
    cfg.reward.validate()
    cfg.sim.validate()
    return cfg


def derive_seed(root: int, *tokens) -> int:
    """Stable child seed derived from a root seed and labeling tokens."""
    payload = "|".join([str(root), *map(str, tokens)])
    digest = hashlib.sha256(payload.encode()).digest()
    return int.from_bytes(digest[:8], "little") % (2 ** 63)
