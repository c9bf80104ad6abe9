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
from .terrain import TERRAIN_TYPES


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


def _checked_values(cls, data: dict, section: str) -> dict:
    """``data`` type-checked against the field defaults of dataclass ``cls``."""
    defaults = {f.name: f.default for f in dataclasses.fields(cls)}
    values = {}
    for key, value in data.items():
        if key not in defaults:
            raise ConfigError(f"unknown key '{key}' in section '{section}'")
        if isinstance(value, list):
            value = tuple(value)
        # Exact types, so a bool never passes for a number; an int is a valid float.
        expected = type(defaults[key])
        if not (type(value) is expected or (expected, type(value)) == (float, int)):
            raise ConfigError(f"{section}.{key} must be {expected.__name__}, "
                              f"not {type(value).__name__}")
        values[key] = value
    return values


def _object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{what} must be an object, not {type(value).__name__}")
    return value


def _is_interval(iv) -> bool:
    return (isinstance(iv, (list, tuple)) and len(iv) == 2
            and all(type(v) in (int, float) for v in iv))


def _level_ranges(value, current: dict) -> dict:
    merged = dict(current)
    for name, intervals in _object(value, "level_ranges").items():
        if name not in PARAMETERS:
            raise ConfigError(f"unknown parameter '{name}' in level_ranges")
        if not (isinstance(intervals, (list, tuple)) and len(intervals) == 5
                and all(_is_interval(iv) for iv in intervals)):
            raise ConfigError(f"level_ranges.{name} must be 5 [lo, hi] number pairs")
        for i, (lo, hi) in enumerate(intervals):
            if hi < lo:
                raise ConfigError(f"level_ranges.{name}[{i}] is inverted")
            if i and abs(lo - intervals[i - 1][1]) > 1e-9:
                raise ConfigError(f"level_ranges.{name} intervals must be contiguous")
        merged[name] = [tuple(iv) for iv in intervals]
    return merged


def _terrain_overrides(value) -> dict:
    overrides = {}
    for name, fields in _object(value, "terrain_overrides").items():
        if name not in TERRAIN_TYPES:
            raise ConfigError(f"unknown terrain '{name}' in terrain_overrides")
        section = f"terrain_overrides.{name}"
        overrides[name] = _checked_values(TERRAIN_TYPES[name], _object(fields, section), section)
    return overrides


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
    return apply_config_data(cfg, data, f"config {path}")


def apply_config_data(cfg: ToolkitConfig, data: dict, source: str = "config") -> ToolkitConfig:
    """Merge a config dict (same schema as the JSON file) onto a config.

    Every error is a ``ConfigError`` whose message starts with ``source``.
    """
    try:
        _merge(cfg, data)
    except ConfigError as err:
        raise ConfigError(f"{source}: {err}") from None
    return cfg


def _merge(cfg: ToolkitConfig, data):
    sections = {
        "reward": cfg.reward,
        "sim": cfg.sim,
        "lss": cfg.lss,
        "mapping": cfg.mapping,
        "nav": cfg.nav,
    }
    for key, value in _object(data, "the top level").items():
        if key in sections:
            section = sections[key]
            for name, v in _checked_values(section, _object(value, key), key).items():
                setattr(section, name, v)
        elif key == "level_ranges":
            cfg.level_ranges = _level_ranges(value, cfg.level_ranges)
        elif key == "terrain_overrides":
            cfg.terrain_overrides = _terrain_overrides(value)
        else:
            raise ConfigError(f"unknown top-level key '{key}'")
    if cfg.nav.cost_mode not in ("binary", "continuous"):
        raise ConfigError("nav.cost_mode must be 'binary' or 'continuous', "
                          f"not {cfg.nav.cost_mode!r}")
    for key in ("reward", "sim"):
        try:
            sections[key].validate()
        except ValueError as err:
            # validate() messages start with the offending field's name
            raise ConfigError(f"{key}.{err}") from None


def derive_seed(root: int, *tokens) -> int:
    """Stable child seed derived from a root seed and labeling tokens."""
    payload = "|".join([str(root), *map(str, tokens)])
    digest = hashlib.sha256(payload.encode()).digest()
    return int.from_bytes(digest[:8], "little") % (2 ** 63)
