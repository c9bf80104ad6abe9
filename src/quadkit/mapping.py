"""Top-down semantic instance map and cross-frame instance memory.

The map is a (C + 3) x M x M integer grid at 5 cm cells: C category channels
holding owning instance ids per cell, then explored, current-position, and
past-position channels. Labeled points are binned into cells (5 cm height
bins up to a 2 m ceiling, then summed vertically), connected components per
category become detections, and detections merge into persistent instance
records via dilation-overlap matching.
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


@dataclass(frozen=True)
class Detection:
    """One connected same-category component of a frame's projected cells."""

    bbox: tuple  # (frame_index, (r0, c0, r1, c1))
    class_id: int
    cells: frozenset
    dilated: frozenset | None = None

    def with_dilation(self, p: int, m: int) -> "Detection":
        return replace(self, dilated=frozenset(dilate(self.cells, p, m)))


@dataclass
class InstanceRecord:
    instance_id: int
    class_id: int
    cells: set
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

    def category_index(self, name: str) -> int:
        return self.categories.index(name)

    def add_category(self, name: str) -> int:
        """Append a category channel (reallocates the grid)."""
        if name in self.categories:
            return self.categories.index(name)
        c = self.num_categories
        self.grid = np.insert(self.grid, c, 0, axis=0)
        self.categories.append(name)
        return c

    def world_to_cell(self, x: float, y: float) -> tuple:
        half = self.m // 2
        col = math.floor((x - self.origin[0]) / self.cell_size) + half
        row = math.floor((y - self.origin[1]) / self.cell_size) + half
        if not (0 <= row < self.m and 0 <= col < self.m):
            raise ValueError(f"world point ({x}, {y}) outside map extent")
        return (row, col)

    def cell_to_world(self, row: int, col: int) -> tuple:
        return cell_to_world(row, col, self.m, self.cell_size, self.origin)

    def contains_world(self, x: float, y: float) -> bool:
        half_extent = (self.m // 2) * self.cell_size
        return (self.origin[0] - half_extent <= x < self.origin[0] + half_extent
                and self.origin[1] - half_extent <= y < self.origin[1] + half_extent)

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
    """Persistent per-instance records with per-class cell ownership."""

    def __init__(self, p: int = MappingConfig.dilation_p):
        self.p = int(p)
        self.instances: dict = {}
        self._owner: dict = {}  # class_id -> {cell: instance_id}
        self._next_id = 1

    def __len__(self):
        return len(self.instances)

    def class_coverage(self, class_id: int) -> set:
        return set(self._owner.get(class_id, {}))

    def create(self, detection: Detection) -> int:
        iid = self._next_id
        self._next_id += 1
        self.instances[iid] = InstanceRecord(
            instance_id=iid, class_id=detection.class_id,
            cells=set(detection.cells), views={detection.bbox})
        owners = self._owner.setdefault(detection.class_id, {})
        for cell in detection.cells:
            owners[cell] = iid
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


def dilate(cells, p: int, m: int | None = None) -> set:
    """Chebyshev (8-connected square) dilation by p cells; p=0 is identity."""
    if p < 0:
        raise ValueError("dilation radius must be >= 0")
    if p == 0:
        return set(cells)
    out = set()
    offsets = range(-p, p + 1)
    for (r, c) in cells:
        for dr in offsets:
            for dc in offsets:
                nr, nc = r + dr, c + dc
                if m is None or (0 <= nr < m and 0 <= nc < m):
                    out.add((nr, nc))
    return out


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
        overlap = len(detection.dilated & rec.cells)
        if overlap > best_overlap:
            best_overlap = overlap
            best_id = iid
    return best_id


def merge(instance_id: int, detection: Detection, memory: InstanceMemory) -> set:
    """Union the detection into an instance; returns the newly owned cells.

    Cells already owned by another same-class instance stay with their first
    owner so class coverage remains a partition. No other record is modified.
    """
    rec = memory.instances[instance_id]
    if rec.class_id != detection.class_id:
        raise ValueError(
            f"class mismatch: instance {instance_id} has class {rec.class_id}, "
            f"detection has {detection.class_id}")
    owners = memory._owner.setdefault(detection.class_id, {})
    new_cells = {cell for cell in detection.cells
                 if owners.get(cell) in (None, instance_id)} - rec.cells
    rec.cells.update(new_cells)
    for cell in new_cells:
        owners[cell] = instance_id
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

    touched: dict = {}
    n_bins = int(max_height / HEIGHT_BIN)
    for (px, py, pz, cat) in cloud.points:
        cat = int(cat)
        if not 0 <= cat < smap.num_categories:
            raise ValueError(f"category id {cat} outside [0, {smap.num_categories})")
        z_bin = math.floor(pz / HEIGHT_BIN)
        if not 0 <= z_bin < n_bins:
            continue
        if not smap.contains_world(px, py):
            continue
        cell = smap.world_to_cell(px, py)
        touched.setdefault(cat, set()).add(cell)

    detections = []
    for cat in sorted(touched):
        cells = touched[cat]
        mask = np.zeros((smap.m, smap.m), dtype=bool)
        rows = [c[0] for c in cells]
        cols = [c[1] for c in cells]
        mask[rows, cols] = True
        explored[rows, cols] = 1
        labels, n_labels = ndimage.label(mask, structure=_EIGHT_CONNECTED)
        channel = smap.grid[cat]
        for lab in range(1, n_labels + 1):
            comp_rows, comp_cols = np.where(labels == lab)
            comp = frozenset(zip(comp_rows.tolist(), comp_cols.tolist()))
            bbox = (frame_index, (int(comp_rows.min()), int(comp_cols.min()),
                                  int(comp_rows.max()), int(comp_cols.max())))
            detections.append(Detection(bbox=bbox, class_id=cat, cells=comp))
        unmarked = mask & (channel == 0)
        channel[unmarked] = PRESENCE_MARK
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
        det = det.with_dilation(memory.p, smap.m)
        iid = match_detection(det, memory)
        if iid is None:
            iid = memory.create(det)
            new_cells = memory.instances[iid].cells
        else:
            new_cells = merge(iid, det, memory)
        channel = smap.grid[det.class_id]
        for (r, c) in new_cells:
            channel[r, c] = iid
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
