"""The five benchmark terrains and the PGM writer.

A terrain is its name. The surrogate scores it through a fixed ideal
parameter profile (``surrogate.IDEAL_PROFILES``) and the prompts describe it
in fixed text (``adaptation.TERRAIN_DESCRIPTIONS``), both keyed by the name,
so a spec holds no geometry. ``write_pgm`` writes a grid as a plain PGM
image; the planner's ``costmap.pgm`` goes through it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, Union

import numpy as np


@dataclass(frozen=True)
class UphillSlope:
    name: ClassVar[str] = "uphill_slope"


@dataclass(frozen=True)
class DownhillSlope:
    name: ClassVar[str] = "downhill_slope"


@dataclass(frozen=True)
class UpsideStair:
    name: ClassVar[str] = "upside_stair"


@dataclass(frozen=True)
class DownsideStair:
    name: ClassVar[str] = "downside_stair"


@dataclass(frozen=True)
class UnevenGround:
    name: ClassVar[str] = "uneven_ground"


TerrainSpec = Union[UphillSlope, DownhillSlope, UpsideStair, DownsideStair, UnevenGround]

TERRAIN_TYPES = {
    cls.name: cls for cls in (UphillSlope, DownhillSlope, UpsideStair, DownsideStair, UnevenGround)
}


def terrain_by_name(name: str) -> TerrainSpec:
    if name not in TERRAIN_TYPES:
        raise ValueError(f"unknown terrain '{name}'; valid: {', '.join(sorted(TERRAIN_TYPES))}")
    return TERRAIN_TYPES[name]()


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
