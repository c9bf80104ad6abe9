"""Top-down semantic instance map and cross-frame instance memory.

The map is a (C + 3) x M x M integer grid at 5 cm cells: C category channels
holding owning instance ids per cell, then explored, current-position, and
past-position channels. Labeled points are binned into cells (5 cm height
bins up to a 2 m ceiling, then summed vertically), connected components per
category become detections, and detections merge into persistent instance
records via dilation-overlap matching. Every region (a detection, its
dilation, an instance) is an M x M boolean mask.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np
from scipy import ndimage

from .config import MappingConfig
from .errors import ConfigError
from .terrain import write_pgm

HEIGHT_BIN = 0.05

_EIGHT_CONNECTED = np.ones((3, 3), dtype=bool)

# Provisional category-channel marker written by projection before an ingest
# assigns the owning instance id.
PRESENCE_MARK = -1


@dataclass(frozen=True)
class LabeledPointCloud:
    """World-frame points, each with a category id in [0, C)."""

    points: tuple  # of (x, y, z, category_id)

    def __post_init__(self):
        for p in self.points:
            if len(p) != 4:
                raise ValueError("points must be (x, y, z, category_id)")
            if not all(math.isfinite(v) for v in p[:3]):
                raise ValueError("point coordinates must be finite")


@dataclass(frozen=True)
class Frame:
    """One synthetic observation: a pose (x, y, yaw) plus labeled points."""

    index: int
    pose: tuple
    cloud: LabeledPointCloud


@dataclass(frozen=True, eq=False)
class Detection:
    """One connected same-category component of a frame's projected cells."""

    bbox: tuple  # (frame_index, (r0, c0, r1, c1))
    class_id: int
    cells: np.ndarray  # (M, M) bool
    dilated: np.ndarray | None = None

    def with_dilation(self, p: int) -> "Detection":
        return replace(self, dilated=dilate(self.cells, p))


@dataclass
class InstanceRecord:
    instance_id: int
    class_id: int
    cells: np.ndarray  # (M, M) bool
    views: set


class SemanticMap:
    """K x M x M integer grid with K = C + 3 channels."""

    def __init__(self, categories, m: int = 480, cell_size: float = 0.05,
                 origin: tuple = (0.0, 0.0)):
        if not categories:
            raise ValueError("need at least one category")
        self.categories = list(categories)
        self.m = int(m)
        self.cell_size = float(cell_size)
        self.origin = (float(origin[0]), float(origin[1]))
        self.grid = np.zeros((len(self.categories) + 3, self.m, self.m), dtype=np.int32)

    @property
    def num_categories(self) -> int:
        return len(self.categories)

    @property
    def k(self) -> int:
        return self.grid.shape[0]

    @property
    def explored_channel(self) -> int:
        return self.num_categories

    @property
    def current_pos_channel(self) -> int:
        return self.num_categories + 1

    @property
    def past_pos_channel(self) -> int:
        return self.num_categories + 2

    def add_category(self, name: str) -> int:
        """Append a category channel (reallocates the grid)."""
        if name in self.categories:
            return self.categories.index(name)
        c = self.num_categories
        self.grid = np.insert(self.grid, c, 0, axis=0)
        self.categories.append(name)
        return c

    def world_to_cell(self, x, y) -> tuple:
        """(row, col) of world point(s): ints for scalars, int arrays for arrays."""
        half = self.m // 2
        col = np.floor((np.asarray(x) - self.origin[0]) / self.cell_size).astype(np.int64) + half
        row = np.floor((np.asarray(y) - self.origin[1]) / self.cell_size).astype(np.int64) + half
        outside = (row < 0) | (row >= self.m) | (col < 0) | (col >= self.m)
        if outside.any():
            i = np.argmax(outside)  # the first point outside
            raise ValueError(f"world point ({np.ravel(x)[i]}, {np.ravel(y)[i]}) outside map extent")
        return (row, col) if row.ndim else (int(row), int(col))

    def cell_to_world(self, row: int, col: int) -> tuple:
        return cell_to_world(row, col, self.m, self.cell_size, self.origin)

    def explored_mask(self) -> np.ndarray:
        return self.grid[self.explored_channel] != 0

    def mark_pose(self, row: int, col: int):
        cur = self.grid[self.current_pos_channel]
        cur[:] = 0
        cur[row, col] = 1
        self.grid[self.past_pos_channel][row, col] = 1
        self.grid[self.explored_channel][row, col] = 1

    def channel_to_pgm(self, channel: int, path):
        write_pgm(path, np.abs(self.grid[channel]).astype(float))


class InstanceMemory:
    """Persistent per-instance records; same-class records own disjoint cells."""

    def __init__(self, p: int = MappingConfig.dilation_p):
        self.p = int(p)
        self.instances: dict = {}
        self._next_id = 1

    def __len__(self):
        return len(self.instances)

    def create(self, detection: Detection) -> int:
        iid = self._next_id
        self._next_id += 1
        self.instances[iid] = InstanceRecord(
            instance_id=iid, class_id=detection.class_id,
            cells=detection.cells.copy(), views={detection.bbox})
        return iid

    def first_named(self, categories, name: str):
        """Lowest-id instance of the category called ``name``, or None."""
        if name not in categories:
            return None
        class_id = categories.index(name)
        matches = [rec for rec in self.instances.values() if rec.class_id == class_id]
        return min(matches, key=lambda rec: rec.instance_id, default=None)


def cell_to_world(row: int, col: int, m: int, cell_size: float, origin: tuple) -> tuple:
    """World (x, y) of a cell centre on an m x m grid centred on ``origin``."""
    half = m // 2
    x = (col - half + 0.5) * cell_size + origin[0]
    y = (row - half + 0.5) * cell_size + origin[1]
    return (x, y)


def dilate(mask: np.ndarray, p: int) -> np.ndarray:
    """Chebyshev (8-connected square) dilation of a bool mask by p cells,
    clipped at the grid edge; p=0 returns a copy."""
    if p < 0:
        raise ValueError("dilation radius must be >= 0")
    return ndimage.maximum_filter(mask, size=2 * p + 1, mode="constant")


def match_detection(detection: Detection, memory: InstanceMemory) -> int | None:
    """Instance with equal class and maximal overlap with the dilated cells;
    ties resolve to the lowest instance id. None when nothing overlaps."""
    if detection.dilated is None:
        raise ValueError("detection has no dilation; call with_dilation first")
    best_id = None
    best_overlap = 0
    for iid in sorted(memory.instances):
        rec = memory.instances[iid]
        if rec.class_id != detection.class_id:
            continue
        overlap = np.count_nonzero(detection.dilated & rec.cells)
        if overlap > best_overlap:
            best_overlap = overlap
            best_id = iid
    return best_id


def merge(instance_id: int, detection: Detection, memory: InstanceMemory) -> np.ndarray:
    """Union the detection into an instance; returns the newly owned cells' mask.

    Cells already owned by another same-class instance stay with their first
    owner so class coverage remains a partition. No other record is modified.
    """
    rec = memory.instances[instance_id]
    if rec.class_id != detection.class_id:
        raise ValueError(
            f"class mismatch: instance {instance_id} has class {rec.class_id}, "
            f"detection has {detection.class_id}")
    owned = np.zeros_like(detection.cells)
    for other in memory.instances.values():
        if other.class_id == detection.class_id:
            owned |= other.cells
    new_cells = detection.cells & ~owned
    rec.cells |= new_cells
    rec.views.add(detection.bbox)
    return new_cells


def project_frame(smap: SemanticMap, cloud: LabeledPointCloud, pose: tuple,
                  frame_index: int = 0, sensor_range: float = MappingConfig.sensor_range,
                  max_height: float = MappingConfig.max_point_height) -> list:
    """Project one observation into the map; returns per-component detections.

    Points are binned into (cell, 5 cm height bin, category) voxels up to the
    height ceiling and summed vertically, marking category presence per cell.
    Cells inside the sensor disk and all point cells become explored. Category
    channels get a provisional presence mark; ingest replaces it with the
    owning instance id.
    """
    x, y, yaw = pose
    if not all(math.isfinite(v) for v in (x, y, yaw)):
        raise ValueError("pose must be finite")
    pr, pc = smap.world_to_cell(x, y)
    smap.mark_pose(pr, pc)

    explored = smap.grid[smap.explored_channel]
    radius_cells = int(sensor_range / smap.cell_size)
    r0 = max(0, pr - radius_cells)
    r1 = min(smap.m, pr + radius_cells + 1)
    c0 = max(0, pc - radius_cells)
    c1 = min(smap.m, pc + radius_cells + 1)
    disk_rows, disk_cols = np.mgrid[r0:r1, c0:c1]
    disk = (disk_rows - pr) ** 2 + (disk_cols - pc) ** 2 <= radius_cells ** 2
    explored[r0:r1, c0:c1][disk] = 1

    pts = np.asarray(cloud.points, dtype=float).reshape(-1, 4)
    cats = pts[:, 3].astype(np.int64)
    bad = (cats < 0) | (cats >= smap.num_categories)
    if bad.any():
        raise ValueError(f"category id {cats[bad][0]} outside [0, {smap.num_categories})")
    px, py = pts[:, 0], pts[:, 1]
    z_bin = np.floor(pts[:, 2] / HEIGHT_BIN)
    ox, oy = smap.origin
    half_extent = (smap.m // 2) * smap.cell_size
    keep = ((0 <= z_bin) & (z_bin < int(max_height / HEIGHT_BIN))
            & (ox - half_extent <= px) & (px < ox + half_extent)
            & (oy - half_extent <= py) & (py < oy + half_extent))
    rows, cols = smap.world_to_cell(px[keep], py[keep])
    cats = cats[keep]
    explored[rows, cols] = 1

    detections = []
    for cat in np.unique(cats).tolist():
        mask = np.zeros((smap.m, smap.m), dtype=bool)
        mask[rows[cats == cat], cols[cats == cat]] = True
        labels, _ = ndimage.label(mask, structure=_EIGHT_CONNECTED)
        for lab, (rs, cs) in enumerate(ndimage.find_objects(labels), start=1):
            bbox = (frame_index, (rs.start, cs.start, rs.stop - 1, cs.stop - 1))
            detections.append(Detection(bbox=bbox, class_id=cat, cells=labels == lab))
        channel = smap.grid[cat]
        channel[mask & (channel == 0)] = PRESENCE_MARK
    return detections


def ingest(smap: SemanticMap, memory: InstanceMemory, frame: Frame,
           sensor_range: float = MappingConfig.sensor_range,
           max_height: float = MappingConfig.max_point_height) -> list:
    """Project a frame, then match-or-create instances for its detections.

    Category channels end up holding the owning instance id per cell. Returns
    the instance ids touched, one per detection in processing order.
    """
    detections = project_frame(smap, frame.cloud, frame.pose, frame.index,
                               sensor_range, max_height)
    touched_ids = []
    for det in detections:
        det = det.with_dilation(memory.p)
        iid = match_detection(det, memory)
        if iid is None:
            iid = memory.create(det)
            new_cells = memory.instances[iid].cells
        else:
            new_cells = merge(iid, det, memory)
        smap.grid[det.class_id][new_cells] = iid
        touched_ids.append(iid)
    return touched_ids


@dataclass
class Scene:
    """A synthetic labeled capture: category inventory plus observation frames."""

    categories: list
    m: int
    cell_size: float
    frames: list
    start_pose: tuple = (0.0, 0.0, 0.0)
    origin: tuple = (0.0, 0.0)

    def build_map(self) -> SemanticMap:
        return SemanticMap(self.categories, self.m, self.cell_size, self.origin)


def _pose(value) -> tuple:
    pose = tuple(float(v) for v in value)
    if len(pose) != 3:
        raise ValueError(f"pose {list(value)} is not [x, y, yaw]")
    return pose


def load_scene(path) -> Scene:
    """Read a line-delimited scene file: a header object followed by frames.

    A malformed file raises ConfigError naming the path and the 1-based line.
    """
    with open(path) as fh:
        lines = [(n, line) for n, line in enumerate(fh, start=1) if line.strip()]
    if not lines:
        raise ConfigError(f"scene file {path} is empty")
    scene = None
    for n, line in lines:
        try:
            rec = json.loads(line)
            if not isinstance(rec, dict):
                raise ValueError("expected a JSON object")
            if scene is None:
                scene = Scene(
                    categories=list(rec["categories"]),
                    m=int(rec.get("M", 480)),
                    cell_size=float(rec.get("cell_size", 0.05)),
                    frames=[],
                    start_pose=_pose(rec.get("start_pose", (0.0, 0.0, 0.0))),
                    origin=tuple(rec.get("origin", (0.0, 0.0))),
                )
            else:
                cloud = LabeledPointCloud(points=tuple(tuple(p) for p in rec.get("points", [])))
                scene.frames.append(Frame(index=len(scene.frames), pose=_pose(rec["pose"]),
                                          cloud=cloud))
        except KeyError as err:
            raise ConfigError(f"scene file {path}, line {n}: missing field {err}") from None
        except (ValueError, TypeError) as err:
            raise ConfigError(f"scene file {path}, line {n}: {err}") from None
    return scene


def save_scene(scene: Scene, path):
    with open(path, "w") as fh:
        header = {
            "categories": scene.categories,
            "M": scene.m,
            "cell_size": scene.cell_size,
            "start_pose": list(scene.start_pose),
            "origin": list(scene.origin),
        }
        fh.write(json.dumps(header) + "\n")
        for frame in scene.frames:
            fh.write(json.dumps({
                "pose": list(frame.pose),
                "points": [list(p) for p in frame.cloud.points],
            }) + "\n")
