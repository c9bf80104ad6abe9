"""Benchmark terrain heightfields: slopes, stairs, and uneven ground.

Specs store the simulator-convention numbers (negative slope for uphill,
negative step height for ascending stairs); the built heightfields use world
semantics, so "up" terrains rise along +x. Profiles are mirrored along -x so
an episode can start before the feature, and each platformed terrain has a
flat central platform at height 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, Union

import numpy as np


@dataclass(frozen=True)
class UphillSlope:
    name: ClassVar[str] = "uphill_slope"
    slope: float = -0.15
    platform_size: float = 0.6


@dataclass(frozen=True)
class DownhillSlope:
    name: ClassVar[str] = "downhill_slope"
    slope: float = 0.4
    platform_size: float = 0.8


@dataclass(frozen=True)
class UpsideStair:
    name: ClassVar[str] = "upside_stair"
    step_width: float = 0.5
    step_height: float = -0.1
    platform_size: float = 0.8


@dataclass(frozen=True)
class DownsideStair:
    name: ClassVar[str] = "downside_stair"
    step_width: float = 0.5
    step_height: float = 0.1
    platform_size: float = 1.0


@dataclass(frozen=True)
class UnevenGround:
    name: ClassVar[str] = "uneven_ground"
    min_height: float = 0.0
    max_height: float = 0.2
    seed: int = 0


TerrainSpec = Union[UphillSlope, DownhillSlope, UpsideStair, DownsideStair, UnevenGround]

TERRAIN_TYPES = {
    cls.name: cls for cls in (UphillSlope, DownhillSlope, UpsideStair, DownsideStair, UnevenGround)
}


def terrain_by_name(name: str, **overrides) -> TerrainSpec:
    if name not in TERRAIN_TYPES:
        raise ValueError(f"unknown terrain '{name}'; valid: {', '.join(sorted(TERRAIN_TYPES))}")
    return TERRAIN_TYPES[name](**overrides)


@dataclass(frozen=True)
class Heightfield:
    """Cell-centered height grid. ``heights[i, j]`` sits at world
    (origin_x + (j + 0.5) * res, origin_y + (i + 0.5) * res)."""

    heights: np.ndarray
    resolution: float
    origin: tuple
    extent: float

    def __post_init__(self):
        if self.resolution <= 0:
            raise ValueError("resolution must be positive")
        if not np.all(np.isfinite(self.heights)):
            raise ValueError("heights must be finite")

    @property
    def cells(self) -> int:
        return self.heights.shape[0]

    def to_text(self, path):
        np.savetxt(path, self.heights, fmt="%.6f")

    def to_pgm(self, path):
        write_pgm(path, self.heights)


# The decimal text of each PGM gray level, indexed by the level.
_GRAY_TEXT = np.array([str(level) for level in range(256)], dtype=object)
# Rows of a PGM scaled and formatted per step.
_PGM_BLOCK_ROWS = 32


def write_pgm(path, values: np.ndarray):
    """Plain (P2) PGM with values scaled to 0..255 over the finite range.

    The rows are the text ``np.savetxt(fh, scaled, fmt="%d")`` writes, built
    by looking each level's text up in a table. Rows are scaled and written
    ``_PGM_BLOCK_ROWS`` at a time, so no temporary spans the whole grid."""
    finite = np.isfinite(values)
    lo, hi = 0.0, 1.0
    if finite.any():
        first = values.flat[np.argmax(finite)]  # a start value of the values' own dtype
        lo = float(np.min(values, where=finite, initial=first))
        hi = float(np.max(values, where=finite, initial=first))
    span = hi - lo if hi > lo else 1.0
    with open(path, "w") as fh:
        fh.write(f"P2\n{values.shape[1]} {values.shape[0]}\n255\n")
        for r in range(0, values.shape[0], _PGM_BLOCK_ROWS):
            rows = values[r:r + _PGM_BLOCK_ROWS]
            if math.isinf(span):
                # The finite values span more than the largest float: scale by
                # halves, which cannot overflow.
                scaled = (rows / 2 - lo / 2) / (hi / 2 - lo / 2) * 255.0
            else:
                scaled = (rows - lo) / span * 255.0
            scaled = np.where(finite[r:r + _PGM_BLOCK_ROWS], scaled, 255.0).astype(int)
            fh.writelines(" ".join(row) + "\n" for row in _GRAY_TEXT[scaled].tolist())


def _profile_height(spec: TerrainSpec, x: float) -> float:
    """Height of the x-profile for the platformed terrains (extruded along y)."""
    half = spec.platform_size / 2.0
    d = abs(x) - half
    if d <= 0:
        return 0.0
    if isinstance(spec, UphillSlope):
        return abs(spec.slope) * d
    if isinstance(spec, DownhillSlope):
        return -abs(spec.slope) * d
    if isinstance(spec, UpsideStair):
        return abs(spec.step_height) * math.floor(d / spec.step_width)
    if isinstance(spec, DownsideStair):
        return -abs(spec.step_height) * math.floor(d / spec.step_width)
    raise TypeError(f"no profile for {type(spec).__name__}")


def build(spec: TerrainSpec, extent: float = 8.0, resolution: float = 0.05) -> Heightfield:
    """Rasterize a terrain spec into a square heightfield centered on the origin."""
    n = int(round(extent / resolution))
    origin = (-extent / 2.0, -extent / 2.0)
    if isinstance(spec, UnevenGround):
        rng = np.random.default_rng(spec.seed)
        heights = rng.uniform(spec.min_height, spec.max_height, size=(n, n))
    else:
        xs = origin[0] + (np.arange(n) + 0.5) * resolution
        profile = np.array([_profile_height(spec, x) for x in xs])
        heights = np.tile(profile, (n, 1))
    return Heightfield(heights=heights, resolution=resolution, origin=origin, extent=extent)


def height_at(hf: Heightfield, x: float, y: float) -> float:
    """Bilinear interpolation between the four surrounding cell centers."""
    x0, y0 = hf.origin
    if not (x0 <= x <= x0 + hf.extent and y0 <= y <= y0 + hf.extent):
        raise ValueError(f"query ({x}, {y}) outside terrain extent")
    n = hf.cells
    # Continuous cell-center coordinates, clamped to the center lattice.
    u = min(max((x - x0) / hf.resolution - 0.5, 0.0), n - 1.0)
    v = min(max((y - y0) / hf.resolution - 0.5, 0.0), n - 1.0)
    j0 = min(int(u), n - 2) if n > 1 else 0
    i0 = min(int(v), n - 2) if n > 1 else 0
    fx = u - j0
    fy = v - i0
    h = hf.heights
    return float(
        h[i0, j0] * (1 - fx) * (1 - fy)
        + h[i0, j0 + 1] * fx * (1 - fy)
        + h[i0 + 1, j0] * (1 - fx) * fy
        + h[i0 + 1, j0 + 1] * fx * fy
    )


def slope_roughness(hf: Heightfield, region: tuple) -> dict:
    """Mean gradient magnitude and height span over a world-frame region
    (x_min, y_min, x_max, y_max)."""
    x_min, y_min, x_max, y_max = region
    x0, y0 = hf.origin
    if not (x0 <= x_min < x_max <= x0 + hf.extent and y0 <= y_min < y_max <= y0 + hf.extent):
        raise ValueError("region outside terrain extent")
    j0 = int((x_min - x0) / hf.resolution)
    j1 = int(math.ceil((x_max - x0) / hf.resolution))
    i0 = int((y_min - y0) / hf.resolution)
    i1 = int(math.ceil((y_max - y0) / hf.resolution))
    patch = hf.heights[i0:i1, j0:j1]
    if patch.shape[0] < 2 or patch.shape[1] < 2:
        raise ValueError("region too small: need at least 2x2 cells")
    gy, gx = np.gradient(patch, hf.resolution)
    mean_gradient = float(np.mean(np.hypot(gx, gy)))
    return {
        "mean_gradient": mean_gradient,
        "height_span": float(patch.max() - patch.min()),
    }
