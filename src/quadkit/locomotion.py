"""Command vector, gait timing, and behavior-parameter domain model.

All quantities are SI (meters, Hz, radians). Gait timing works on cycle
fractions in [0, 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

# Fraction of each gait cycle a foot is commanded to stay in stance.
DUTY_FACTOR = 0.5

# Default command magnitude limits: |v| in m/s, |w| in rad/s.
DEFAULT_V_LIMIT = 2.0
DEFAULT_W_LIMIT = 3.0


class FootId(IntEnum):
    """Foot ordering used everywhere: FR, FL, RR, RL."""

    FR = 0
    FL = 1
    RR = 2
    RL = 3


@dataclass(frozen=True)
class CommandVector:
    """Body-frame velocity command (vx, vy in m/s, wz in rad/s)."""

    vx: float
    vy: float
    wz: float

    def __post_init__(self):
        for name in ("vx", "vy", "wz"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"command component {name} must be finite")

    def validate(self, v_limit: float = DEFAULT_V_LIMIT, w_limit: float = DEFAULT_W_LIMIT):
        if abs(self.vx) > v_limit or abs(self.vy) > v_limit:
            raise ValueError(f"linear command exceeds |v| <= {v_limit} m/s: {self}")
        if abs(self.wz) > w_limit:
            raise ValueError(f"yaw command exceeds |w| <= {w_limit} rad/s: {self}")
        return self


@dataclass(frozen=True)
class GaitOffsets:
    """Cycle-fraction timing offsets between foot pairs."""

    theta1: float
    theta2: float
    theta3: float

    def __post_init__(self):
        for name in ("theta1", "theta2", "theta3"):
            v = getattr(self, name)
            if not (0.0 <= v < 1.0):
                raise ValueError(f"gait offset {name}={v} outside [0, 1)")


GAITS = {
    "pronking": GaitOffsets(0.0, 0.0, 0.0),
    "trotting": GaitOffsets(0.5, 0.0, 0.0),
    "bounding": GaitOffsets(0.0, 0.5, 0.0),
    "pacing": GaitOffsets(0.0, 0.0, 0.5),
}

GAIT_NAMES = tuple(GAITS)


class Level(IntEnum):
    """Ordinal parameter level 0..4; display names depend on the parameter."""

    VERY_LOW = 0
    LOW = 1
    MEDIUM = 2
    HIGH = 3
    VERY_HIGH = 4


MAGNITUDE_LEVEL_NAMES = ("very low", "low", "medium", "high", "very high")
PITCH_LEVEL_NAMES = ("very negative", "negative", "neutral", "positive", "very positive")
# Some replies spell the middle pitch level "neural"; accept it as an alias.
_PITCH_ALIASES = {"neural": "neutral"}

# Continuous parameters in dataclass order.
PARAMETERS = ("body_height", "step_frequency", "body_pitch", "stance_width", "swing_height")

# Question order used by the level-location prompt (A1..A5; A6 is the gait).
PROMPT_PARAM_ORDER = ("body_height", "step_frequency", "swing_height", "body_pitch", "stance_width")

GLOBAL_RANGES = {
    "body_height": (0.1, 0.45),
    "step_frequency": (1.5, 4.0),
    "body_pitch": (-0.4, 0.4),
    "stance_width": (0.05, 0.45),
    "swing_height": (0.03, 0.25),
}

# Five closed level intervals per parameter, ordinal 0..4. Adjacent intervals
# share endpoints; together they cover the parameter's global range.
LEVEL_RANGES = {
    "body_height": ((0.1, 0.15), (0.15, 0.2), (0.2, 0.3), (0.3, 0.4), (0.4, 0.45)),
    "step_frequency": ((1.5, 2.0), (2.0, 2.5), (2.5, 3.0), (3.0, 3.5), (3.5, 4.0)),
    "body_pitch": ((-0.4, -0.24), (-0.24, -0.08), (-0.08, 0.08), (0.08, 0.24), (0.24, 0.4)),
    "stance_width": ((0.05, 0.13), (0.13, 0.21), (0.21, 0.29), (0.29, 0.37), (0.37, 0.45)),
    "swing_height": ((0.03, 0.07), (0.07, 0.11), (0.11, 0.16), (0.16, 0.21), (0.21, 0.25)),
}

# Uniform sampling step per continuous parameter.
SAMPLE_STEPS = {
    "body_height": 0.05,
    "step_frequency": 0.2,
    "body_pitch": 0.08,
    "stance_width": 0.05,
    "swing_height": 0.02,
}


@dataclass(frozen=True)
class BehaviorParams:
    """The six adjustable locomotion knobs; the gait is a ``GAITS`` preset name."""

    body_height: float
    step_frequency: float
    body_pitch: float
    stance_width: float
    swing_height: float
    gait: str

    def validate(self) -> "BehaviorParams":
        for name in PARAMETERS:
            lo, hi = GLOBAL_RANGES[name]
            v = getattr(self, name)
            if not (lo - 1e-9 <= v <= hi + 1e-9):
                raise ValueError(f"{name}={v} outside global range [{lo}, {hi}]")
        if self.gait not in GAITS:
            raise ValueError(f"unknown gait preset '{self.gait}'")
        return self

    def continuous(self) -> dict:
        return {name: getattr(self, name) for name in PARAMETERS}


@dataclass(frozen=True, eq=False)
class CandidateTable:
    """Candidate parameter sets as columns.

    ``values`` is an ``(N, 5)`` float64 array in ``PARAMETERS`` order and
    ``gaits`` the N ``GAITS`` preset names as a string array; row ``i`` is
    one candidate. Nothing checks the rows: scoring them validates them.
    """

    values: np.ndarray
    gaits: np.ndarray

    @classmethod
    def of(cls, candidates) -> "CandidateTable":
        """The table whose rows are the given ``BehaviorParams``, in order."""
        candidates = list(candidates)
        values = np.array([[getattr(c, name) for name in PARAMETERS] for c in candidates],
                          dtype=float).reshape(len(candidates), len(PARAMETERS))
        return cls(values, np.array([c.gait for c in candidates], dtype=str))

    def __len__(self):
        return len(self.gaits)

    def params(self, i: int) -> BehaviorParams:
        """Row ``i`` as a ``BehaviorParams``."""
        return BehaviorParams(gait=str(self.gaits[i]),
                              **dict(zip(PARAMETERS, self.values[i].tolist())))


@dataclass(frozen=True)
class LevelSelection:
    """Complete per-parameter level choice plus a gait preset name."""

    body_height: Level
    step_frequency: Level
    body_pitch: Level
    stance_width: Level
    swing_height: Level
    gait: str

    def __post_init__(self):
        if self.gait not in GAITS:
            raise ValueError(f"unknown gait preset '{self.gait}'")

    def level(self, parameter: str) -> Level:
        return getattr(self, parameter)


def level_names(parameter: str) -> tuple:
    """Display names for the five levels of a parameter."""
    return PITCH_LEVEL_NAMES if parameter == "body_pitch" else MAGNITUDE_LEVEL_NAMES


def level_name(parameter: str, level: Level) -> str:
    return level_names(parameter)[int(level)]


def level_from_name(parameter: str, text: str) -> Level:
    """Map a level name (either naming scheme, any case) to its ordinal."""
    key = " ".join(text.strip().lower().replace("_", " ").split())
    key = _PITCH_ALIASES.get(key, key)
    for names in (level_names(parameter), MAGNITUDE_LEVEL_NAMES, PITCH_LEVEL_NAMES):
        if key in names:
            return Level(names.index(key))
    raise ValueError(f"unknown level '{text}' for parameter '{parameter}'")


def level_range(parameter: str, level, ranges=None) -> tuple:
    """Closed value interval for a (parameter, level) pair."""
    table = LEVEL_RANGES if ranges is None else ranges
    if parameter not in table:
        raise ValueError(f"unknown parameter '{parameter}'")
    if isinstance(level, str):
        level = level_from_name(parameter, level)
    if not 0 <= int(level) <= 4:
        raise ValueError(f"level ordinal {level} outside 0..4")
    lo, hi = table[parameter][int(level)]
    return (lo, hi)


def level_midpoint(parameter: str, level, ranges=None) -> float:
    lo, hi = level_range(parameter, level, ranges)
    return round((lo + hi) / 2.0, 9)


def sample_grid(parameter: str, interval: tuple) -> list:
    """Ascending sample values across a closed interval at the parameter's step.

    Starts at the lower bound and steps uniformly; the upper bound is always
    included (appended when it falls off-grid) so extreme values stay reachable.
    """
    lo, hi = interval
    if hi < lo:
        raise ValueError(f"inverted interval [{lo}, {hi}]")
    glo, ghi = GLOBAL_RANGES[parameter]
    if lo < glo - 1e-9 or hi > ghi + 1e-9:
        raise ValueError(f"interval [{lo}, {hi}] outside global range of {parameter}")
    step = SAMPLE_STEPS[parameter]
    values = []
    k = 0
    while True:
        v = round(lo + k * step, 9)
        if v > hi + 1e-9:
            break
        values.append(min(v, hi))
        k += 1
    if values[-1] < hi - 1e-9:
        values.append(hi)
    return values


def _check_cycle_fraction(t: float):
    if not (0.0 <= t <= 1.0):
        raise ValueError(f"cycle fraction t={t} outside [0, 1]")


def foot_phases(t: float, gait: GaitOffsets) -> tuple:
    """Per-foot cycle fractions (FR, FL, RR, RL), each reduced into [0, 1)."""
    _check_cycle_fraction(t)
    return (
        (t + gait.theta2 + gait.theta3) % 1.0,
        (t + gait.theta1 + gait.theta3) % 1.0,
        (t + gait.theta1) % 1.0,
        (t + gait.theta2) % 1.0,
    )


def timing_reference(t: float, gait: GaitOffsets) -> tuple:
    """Sinusoidal clock values sin(2*pi*t_i) for the four feet."""
    return tuple(math.sin(2.0 * math.pi * p) for p in foot_phases(t, gait))


def desired_contact(gait: GaitOffsets, t: float, duty_factor: float = DUTY_FACTOR) -> tuple:
    """Commanded stance flags per foot: True while the foot phase is below duty."""
    return tuple(p < duty_factor for p in foot_phases(t, gait))


def desired_contacts(gait: GaitOffsets, phase, duty_factor: float = DUTY_FACTOR) -> np.ndarray:
    """(n, 4) bool stance flags whose row k equals ``desired_contact(gait, phase[k])``."""
    t = np.asarray(phase, dtype=float)
    if t.size and not (t.min() >= 0.0 and t.max() <= 1.0):
        raise ValueError("cycle fractions outside [0, 1]")
    return np.stack([t + gait.theta2 + gait.theta3, t + gait.theta1 + gait.theta3,
                     t + gait.theta1, t + gait.theta2], axis=-1) % 1.0 < duty_factor
