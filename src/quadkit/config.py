"""Toolkit configuration: compiled-in defaults plus a JSON config file loader.

Each section's defaults are defined here and nowhere else: the level-range
table, reward sigmas, simulation, LSS search, mapping and navigation. One
UTF-8 JSON file, read through ``errors.read_json``, overrides any of them; an
unknown key, a wrong type, an out-of-range value or a number too large for a
float is a ``ConfigError`` naming the file.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
from dataclasses import dataclass, field

from .errors import ConfigError, is_finite, json_object, read_json
from .locomotion import GAIT_NAMES, GLOBAL_RANGES, LEVEL_RANGES, PARAMETERS

# Most map cells a scene header may ask for: categories x M x M, the cells of
# the int32 owner grid. At the ceiling that grid is 64 MiB, and with one
# category a solve adds two float64 M x M grids of 128 MiB each. The largest
# bundled or benchmark scene, plan-480, has 4 x 480 x 480 = 921,600 cells.
MAX_SCENE_CELLS = 1 << 24

# Most evaluation runs (--runs) and episode steps (runs x sim.steps, so also
# sim.steps) per adapt terrain; the default is 10 x 250. With four variants a
# terrain peaks near 39 MiB at 1 x 131,072 and 22 MiB at 16,384 x 8.
MAX_RUNS = 1 << 14
MAX_EPISODE_STEPS = 1 << 17


def _check_range(section, name: str, low: float, high: float = math.inf,
                 low_open: bool = False):
    """Raise ValueError, starting with ``name``, unless the field is finite and
    in [low, high] (or (low, high] with ``low_open``)."""
    v = getattr(section, name)
    if not is_finite(v):
        raise ValueError(f"{name} must be finite, not {v}")
    if v < low or v > high or (low_open and v == low):
        bound = (f"in {'(' if low_open else '['}{low}, {high}]" if high < math.inf
                 else f"{'>' if low_open else '>='} {low}")
        raise ValueError(f"{name} must be {bound}, not {v}")


@dataclass
class RewardConfig:
    sigma_vxy: float = 0.25
    sigma_wz: float = 0.25
    sigma_cf: float = 100.0
    sigma_cv: float = 0.25
    # Audit mode: score the stance term over the commanded-swing feet too.
    swing_selector_on_stance: bool = False
    # Normalize phase terms by a flat 4 feet instead of the realized selection count.
    flat_phase_max: bool = False

    def validate(self) -> "RewardConfig":
        for name in ("sigma_vxy", "sigma_wz", "sigma_cf", "sigma_cv"):
            _check_range(self, name, 0, low_open=True)
        return self


@dataclass
class SimConfig:
    steps: int = 250
    dt: float = 0.02
    noise_scale: float = 0.05

    def validate(self) -> "SimConfig":
        _check_range(self, "steps", 1, MAX_EPISODE_STEPS)
        _check_range(self, "dt", 0, low_open=True)
        _check_range(self, "noise_scale", 0)
        return self


@dataclass
class LssConfig:
    candidate_cap: int = 4096
    grid_gaits: bool = False

    def validate(self) -> "LssConfig":
        # Thinning keeps both ends of every sampled axis, so no grid has fewer
        # than 2 values per parameter, times the 4 presets with grid_gaits.
        _check_range(self, "candidate_cap",
                     2 ** len(PARAMETERS) * (len(GAIT_NAMES) if self.grid_gaits else 1))
        return self


@dataclass
class MappingConfig:
    dilation_p: int = 3  # Chebyshev dilation radius (cells) for matching detections to memory
    sensor_range: float = 3.0  # explored disk radius around each observation pose, m
    max_point_height: float = 2.0  # points at or above this height are ceiling clutter, m

    def validate(self) -> "MappingConfig":
        _check_range(self, "dilation_p", 0)
        _check_range(self, "sensor_range", 0)
        _check_range(self, "max_point_height", 0, low_open=True)
        return self


@dataclass
class NavConfig:
    unexplored_cost: float = 0.5  # traversal cost of cells never observed
    speed_floor: float = 0.05  # lower clamp on speed so near-impassable cells stay well-posed
    cost_mode: str = "binary"  # "binary" ({0, 1} costs) or "continuous" ([0, 1] costs)
    success_radius: float = 0.5

    def validate(self) -> "NavConfig":
        _check_range(self, "unexplored_cost", 0, 1)
        _check_range(self, "speed_floor", 0, 1, low_open=True)
        if self.cost_mode not in ("binary", "continuous"):
            raise ValueError("cost_mode must be 'binary' or 'continuous', "
                             f"not {self.cost_mode!r}")
        _check_range(self, "success_radius", 0)
        return self


@dataclass
class ToolkitConfig:
    level_ranges: dict = field(default_factory=lambda: {k: list(v) for k, v in LEVEL_RANGES.items()})
    reward: RewardConfig = field(default_factory=RewardConfig)
    sim: SimConfig = field(default_factory=SimConfig)
    lss: LssConfig = field(default_factory=LssConfig)
    mapping: MappingConfig = field(default_factory=MappingConfig)
    nav: NavConfig = field(default_factory=NavConfig)

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


def _checked_values(cls, data, section: str) -> dict:
    """``data`` type-checked against the field defaults of dataclass ``cls``."""
    defaults = {f.name: f.default for f in dataclasses.fields(cls)}
    for key, value in _object(data, section, tuple(defaults)).items():
        # Exact types, so a bool never passes for a number; an int is a valid float.
        expected = type(defaults[key])
        if not (type(value) is expected or (expected, type(value)) == (float, int)):
            raise ConfigError(f"{section}.{key} must be {expected.__name__}, "
                              f"not {type(value).__name__}")
    return data


def _object(value, what: str, keys) -> dict:
    try:
        return json_object(value, keys)
    except ValueError as err:
        raise ConfigError(f"{what}: {err}") from None


def _is_interval(iv) -> bool:
    return (isinstance(iv, (list, tuple)) and len(iv) == 2
            and all(type(v) in (int, float) and is_finite(v) for v in iv))


def _level_ranges(value, current: dict) -> dict:
    merged = dict(current)
    for name, intervals in _object(value, "level_ranges", PARAMETERS).items():
        if not (isinstance(intervals, (list, tuple)) and len(intervals) == 5
                and all(_is_interval(iv) for iv in intervals)):
            raise ConfigError(f"level_ranges.{name} must be 5 [lo, hi] finite number pairs")
        glo, ghi = GLOBAL_RANGES[name]
        for i, (lo, hi) in enumerate(intervals):
            if hi < lo:
                raise ConfigError(f"level_ranges.{name}[{i}] is inverted")
            # the tolerance sample_grid applies to the same bounds
            if lo < glo - 1e-9 or hi > ghi + 1e-9:
                raise ConfigError(f"level_ranges.{name}[{i}] [{lo}, {hi}] is outside "
                                  f"the global range [{glo}, {ghi}]")
            if i and abs(lo - intervals[i - 1][1]) > 1e-9:
                raise ConfigError(f"level_ranges.{name} intervals must be contiguous")
        merged[name] = [tuple(iv) for iv in intervals]
    return merged


def load_config(path=None) -> ToolkitConfig:
    """Build a config from defaults, merging a JSON file on top when given."""
    cfg = ToolkitConfig()
    if path is None:
        return cfg
    return read_json("config", path, lambda data: apply_config_data(cfg, data, f"config {path}"))


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
    sections = {key: getattr(cfg, key) for key in ("reward", "sim", "lss", "mapping", "nav")}
    for key, value in _object(data, "the top level", (*sections, "level_ranges")).items():
        if key == "level_ranges":
            cfg.level_ranges = _level_ranges(value, cfg.level_ranges)
        else:
            for name, v in _checked_values(sections[key], value, key).items():
                setattr(sections[key], name, v)
    for key, section in sections.items():
        try:
            section.validate()
        except ValueError as err:
            # validate() messages start with the offending field's name
            raise ConfigError(f"{key}.{err}") from None


def derive_seed(root: int, *tokens) -> int:
    """Stable child seed derived from a root seed and labeling tokens."""
    payload = "|".join([str(root), *map(str, tokens)])
    digest = hashlib.sha256(payload.encode()).digest()
    return int.from_bytes(digest[:8], "little") % (2 ** 63)
