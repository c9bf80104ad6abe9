"""Top-down semantic instance map and cross-frame instance memory.

The map holds, at 5 cm cells, a (C, M, M) int32 owner grid (one channel per
category, each cell holding its owning instance id or 0), a bool mask of
explored cells, a bool mask of visited (past-position) cells, and the current
pose cell. Its canonical image, which map hashes read, is the (C + 3) x M x M
int32 grid of the category channels followed by the explored,
current-position and past-position planes of 0/1. Labeled points are binned
into cells (5 cm height bins up to a 2 m ceiling, then summed vertically),
connected components per category become detections, and detections merge
into persistent instance records via dilation-overlap matching. A detection is
its bounding box plus the bool crop of its cells inside it; matching dilates
that crop in the box padded by the dilation radius. An instance memory is
built on one map, and an instance's cells are the cells of its category
channel holding its id.

The module is numpy only: square dilations are shifted ORs, and the 8-connected
component labeling is a union-find over row runs of set cells
(``_label_components``).
"""

from __future__ import annotations

import dataclasses
import json
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .config import MAX_SCENE_CELLS, MappingConfig
from .errors import ConfigError, is_finite, json_object, read_json_lines

HEIGHT_BIN = 0.05


@dataclass(frozen=True, eq=False)
class LabeledPointCloud:
    """World-frame points as one (N, 4) float array of (x, y, z, category_id),
    each category id an integer in [0, C). Any (N, 4) numeric sequence is
    accepted."""

    points: np.ndarray

    def __post_init__(self):
        bad_shape = "points must be (x, y, z, category_id)"
        try:
            pts = np.asarray(self.points)  # no dtype, so a string is not coerced
        except ValueError:  # ragged rows
            raise ValueError(bad_shape) from None
        if pts.shape == (0,):
            pts = pts.reshape(0, 4)
        if pts.ndim != 2 or pts.shape[1] != 4 or pts.dtype.kind not in "iuf":
            raise ValueError(bad_shape)
        pts = pts.astype(float)
        if not np.isfinite(pts[:, :3]).all():
            raise ValueError("point coordinates must be finite")
        fractional = pts[:, 3] != np.floor(pts[:, 3])  # NaN included
        if fractional.any():
            raise ValueError(f"category id {pts[fractional, 3][0]} is not an integer")
        object.__setattr__(self, "points", pts)


@dataclass(frozen=True)
class Frame:
    """One synthetic observation: a pose (x, y, yaw) plus labeled points."""

    index: int
    pose: tuple
    cloud: LabeledPointCloud


@dataclass(frozen=True, eq=False)
class Detection:
    """One connected same-category component of a frame's projected cells:
    its inclusive bounding box on the map and the bool crop of the component's
    cells inside that box. A crop whose shape is not the box's raises
    ValueError."""

    bbox: tuple  # (frame_index, (r0, c0, r1, c1)), inclusive
    class_id: int
    cells: np.ndarray  # (r1 - r0 + 1, c1 - c0 + 1) bool

    def __post_init__(self):
        r0, c0, r1, c1 = self.bbox[1]
        if np.shape(self.cells) != (r1 - r0 + 1, c1 - c0 + 1):
            raise ValueError(f"cells of shape {np.shape(self.cells)} do not crop "
                             f"the bbox {self.bbox[1]}")

    @property
    def window(self) -> tuple:
        """The bbox as a (row_slice, col_slice) of the map."""
        r0, c0, r1, c1 = self.bbox[1]
        return slice(r0, r1 + 1), slice(c0, c1 + 1)

    def nonzero(self) -> tuple:
        """Map (rows, cols) of the cells, so that ``np.nonzero`` of a detection
        equals ``np.nonzero`` of its full-grid mask."""
        rows, cols = self.cells.nonzero()
        r0, c0 = self.bbox[1][:2]
        return rows + r0, cols + c0


@dataclass
class InstanceRecord:
    instance_id: int
    class_id: int
    views: set
    smap: SemanticMap = field(repr=False, compare=False)  # the map holding its cells

    @property
    def cells(self) -> np.ndarray:  # a fresh (M, M) bool mask
        return self.smap.grid[self.class_id] == self.instance_id


@dataclass
class Scene:
    """A synthetic labeled capture: category inventory plus observation frames.
    Its defaults are what a scene header without that key means, and a map's."""

    categories: list
    frames: list = field(default_factory=list)
    m: int = 480
    cell_size: float = 0.05
    start_pose: tuple = (0.0, 0.0, 0.0)
    origin: tuple = (0.0, 0.0)

    def build_map(self) -> SemanticMap:
        return SemanticMap(self.categories, self.m, self.cell_size, self.origin)


class SemanticMap:
    """An M x M map: ``grid`` is the (C, M, M) int32 owner grid, ``explored``
    and ``visited`` are (M, M) bool masks, and ``current_cell`` is the pose cell
    (None until ``mark_pose``). ``image_planes`` yields the canonical
    (C + 3) x M x M int32 image."""

    def __init__(self, categories, m: int = Scene.m, cell_size: float = Scene.cell_size,
                 origin: tuple = Scene.origin):
        if not categories:
            raise ValueError("need at least one category")
        self.categories = list(categories)
        self.m = int(m)
        self.cell_size = float(cell_size)
        self.origin = (float(origin[0]), float(origin[1]))
        self.grid = np.zeros((len(self.categories), self.m, self.m), dtype=np.int32)
        self.explored = np.zeros((self.m, self.m), dtype=bool)
        self.visited = np.zeros((self.m, self.m), dtype=bool)
        self.current_cell = None

    @property
    def num_categories(self) -> int:
        return len(self.categories)

    def world_to_cell(self, x, y) -> tuple:
        return world_to_cell(x, y, self.m, self.cell_size, self.origin)

    def cell_to_world(self, row: int, col: int) -> tuple:
        return cell_to_world(row, col, self.m, self.cell_size, self.origin)

    def mark_pose(self, row: int, col: int):
        """Make (row, col) the current cell, and mark it visited and explored.
        A cell off the grid raises ValueError."""
        row, col = operator.index(row), operator.index(col)
        if not (0 <= row < self.m and 0 <= col < self.m):
            raise ValueError(f"pose cell ({row}, {col}) is outside the "
                             f"{self.m}x{self.m} grid")
        self.current_cell = (row, col)
        self.visited[row, col] = True
        self.explored[row, col] = True

    def image_planes(self):
        """The canonical (C + 3) x M x M int32 image, one (M, M) plane at a
        time: the category channels, then the explored, current-position and
        past-position planes."""
        yield from self.grid
        yield self.explored.astype(np.int32)
        current = np.zeros((self.m, self.m), dtype=np.int32)
        if self.current_cell is not None:
            current[self.current_cell] = 1
        yield current
        yield self.visited.astype(np.int32)


class InstanceMemory:
    """Per-instance ids, class ids and views over one map, whose category
    channels are the only record of which instance owns a cell."""

    def __init__(self, smap: SemanticMap, p: int = MappingConfig.dilation_p):
        if p < 0:
            raise ValueError("dilation radius must be >= 0")
        self.smap = smap
        self.p = int(p)
        self.instances: dict = {}
        self._next_id = 1

    def __len__(self):
        return len(self.instances)

    def create(self, detection: Detection) -> int:
        """A new instance owning the detection's cells that no instance owns yet."""
        _check_category_ids(np.array([detection.class_id]), self.smap.num_categories)
        iid = self._next_id
        self._next_id += 1
        self.instances[iid] = InstanceRecord(iid, detection.class_id, set(), self.smap)
        self._claim(iid, detection)
        return iid

    def _claim(self, instance_id: int, detection: Detection) -> Detection:
        """Give the instance the detection's unowned cells; returns them as a
        detection over the same bbox."""
        owners = self.smap.grid[detection.class_id][detection.window]
        new_cells = detection.cells & (owners == 0)
        owners[new_cells] = instance_id
        self.instances[instance_id].views.add(detection.bbox)
        return dataclasses.replace(detection, cells=new_cells)

    def first_named(self, name: str):
        """Lowest-id (first: ids only grow) instance of the category ``name``, or None."""
        categories = self.smap.categories
        class_id = categories.index(name) if name in categories else None
        return next((r for r in self.instances.values() if r.class_id == class_id), None)


def _cell_of(x, y, m: int, cell_size: float, origin: tuple) -> tuple:
    """Unchecked ``(row, col, on_grid)`` of world point(s) on an m x m grid
    centred on ``origin``: the one definition of a point being on the map.
    Whole floats, so that a far point cannot overflow an integer cast."""
    half = m // 2
    col = np.floor((np.asarray(x) - origin[0]) / cell_size) + half
    row = np.floor((np.asarray(y) - origin[1]) / cell_size) + half
    return row, col, (0 <= row) & (row < m) & (0 <= col) & (col < m)


def world_to_cell(x, y, m: int, cell_size: float, origin: tuple) -> tuple:
    """(row, col) of world point(s) on an m x m grid centred on ``origin``: ints
    for scalars, int arrays for arrays. A point off the grid raises ValueError."""
    row, col, on_grid = _cell_of(x, y, m, cell_size, origin)
    if not on_grid.all():
        i = np.argmin(on_grid)  # the first point off the grid
        raise ValueError(f"world point ({np.ravel(x)[i]}, {np.ravel(y)[i]}) outside map extent")
    return (row.astype(np.int64), col.astype(np.int64)) if row.ndim else (int(row), int(col))


def _check_category_ids(ids: np.ndarray, num_categories: int):
    """Raise ValueError naming the first category id outside [0, num_categories)."""
    bad = (ids < 0) | (ids >= num_categories)
    if bad.any():
        raise ValueError(f"category id {ids[bad][0]:g} outside [0, {num_categories})")


def cell_to_world(row: int, col: int, m: int, cell_size: float, origin: tuple) -> tuple:
    """World (x, y) of a cell centre on an m x m grid centred on ``origin``."""
    half = m // 2
    x = (col - half + 0.5) * cell_size + origin[0]
    y = (row - half + 0.5) * cell_size + origin[1]
    return (x, y)


def _square_dilation(mask: np.ndarray, p: int) -> np.ndarray:
    """Fresh bool array: a 2-D mask dilated by p cells along rows, then along
    columns (a (2p+1)-wide square), clipped at the grid edge. Each axis ORs in
    the shifts 1..p both ways; a shift of the axis length or more reaches no
    cell, so the count stops at length - 1 and any p costs at most that."""
    src = np.asarray(mask, dtype=bool)
    rows = src.copy()
    for s in range(1, min(p, src.shape[0] - 1) + 1):
        rows[s:] |= src[:-s]
        rows[:-s] |= src[s:]
    out = rows.copy()
    for s in range(1, min(p, src.shape[1] - 1) + 1):
        out[:, s:] |= rows[:, :-s]
        out[:, :-s] |= rows[:, s:]
    return out


def dilate(mask: np.ndarray, p: int) -> np.ndarray:
    """Chebyshev (8-connected square) dilation of a bool mask by p cells,
    clipped at the grid edge; p=0 returns a copy."""
    if p < 0:
        raise ValueError("dilation radius must be >= 0")
    return _square_dilation(mask, p)


def _label_components(mask: np.ndarray) -> tuple:
    """8-connected components of a 2-D bool mask as ``(labels, slices)``, equal
    to ``ndimage.label(mask, structure=np.ones((3, 3)))`` followed by
    ``ndimage.find_objects``: an int32 array numbering the components 1..k in
    the raster order of their first cell (0 off the mask), and one
    ``(row_slice, col_slice)`` bounding box per label.

    Hook-and-compress union-find (Shiloach & Vishkin 1982) over the row runs
    of set cells. A run joins each run of the row above that it touches
    8-connectedly: a contiguous range of the raster-sorted runs, found by two
    binary searches. The larger root of every unjoined pair is hooked onto the
    smaller and pointers are jumped to a fixed point, until every pair shares
    a root. A root never points lower than itself, so it ends as its
    component's first run. Labels are written by a cumulative sum of +label
    at each run's start and -label just past its end. The work grows with the
    runs, not the set cells: a dense block is a few runs per row.
    """
    h, w = mask.shape
    stride = w + 2  # padded by one cell, so no run wraps or leaves the grid
    padded = np.zeros((h + 2, stride), dtype=bool)
    padded[1:-1, 1:-1] = mask
    flat = padded.ravel()
    edges = np.flatnonzero(flat[1:] != flat[:-1]) + 1  # flat starts and ends unset
    starts, stops = edges[0::2], edges[1::2]  # each run is flat[start:stop]
    if starts.size == 0:
        return np.zeros((h, w), dtype=np.int32), []
    runs = np.arange(starts.size)
    # The runs a run touches in the row above: from the first one ending at or
    # after its first cell's up-left neighbour to the last one starting at or
    # before its last cell's up-right neighbour.
    lo = np.searchsorted(stops, starts - stride - 1, side="right")
    counts = np.searchsorted(starts, stops - stride + 1) - lo
    lower = np.repeat(runs, counts)
    upper = np.arange(lower.size) - np.repeat(np.cumsum(counts) - counts - lo, counts)
    parent = runs.copy()
    while True:
        root_a, root_b = parent[upper], parent[lower]
        apart = root_a != root_b
        if not apart.any():
            break
        upper, lower = upper[apart], lower[apart]  # a joined pair stays joined
        root_a, root_b = root_a[apart], root_b[apart]
        np.minimum.at(parent, np.maximum(root_a, root_b), np.minimum(root_a, root_b))
        while True:
            jumped = parent[parent]
            if np.array_equal(jumped, parent):
                break
            parent = jumped
    # roots rank in raster order, which is ndimage's numbering
    rank = np.cumsum(parent == runs, dtype=np.int32)
    run_labels = rank[parent]
    marks = np.zeros(flat.size, dtype=np.int32)
    marks[starts] = run_labels
    marks[stops] = -run_labels
    np.cumsum(marks, out=marks)
    labels = marks.reshape(h + 2, stride)[1:-1, 1:-1].copy()
    k = int(rank[-1])
    index = run_labels - 1
    rows, first_cols, last_cols = starts // stride - 1, starts % stride - 1, stops % stride - 2
    r0, c0 = np.full(k, h), np.full(k, w)
    r1, c1 = np.full(k, -1), np.full(k, -1)
    np.minimum.at(r0, index, rows)
    np.minimum.at(c0, index, first_cols)
    np.maximum.at(r1, index, rows)
    np.maximum.at(c1, index, last_cols)
    slices = [(slice(a, b + 1), slice(c, d + 1))
              for a, c, b, d in zip(r0.tolist(), c0.tolist(), r1.tolist(), c1.tolist())]
    return labels, slices


def match_detection(detection: Detection, memory: InstanceMemory) -> int | None:
    """Instance with equal class and maximal overlap with the detection's cells
    dilated by ``memory.p``; ties resolve to the lowest instance id. None when
    nothing overlaps. A class id outside [0, C) raises ValueError.

    The dilation is taken in the detection's bbox padded by ``p`` and clipped
    to the grid, which holds every cell the full-grid dilation reaches."""
    smap, p = memory.smap, memory.p
    _check_category_ids(np.array([detection.class_id]), smap.num_categories)
    rows, cols = detection.window
    top, left = max(rows.start - p, 0), max(cols.start - p, 0)
    bottom, right = min(rows.stop + p, smap.m), min(cols.stop + p, smap.m)
    padded = np.zeros((bottom - top, right - left), dtype=bool)
    padded[rows.start - top:rows.stop - top, cols.start - left:cols.stop - left] = (
        detection.cells)
    ids = smap.grid[detection.class_id][top:bottom, left:right][dilate(padded, p)]
    ids = ids[ids > 0]
    return int(np.bincount(ids).argmax()) if ids.size else None


def merge(instance_id: int, detection: Detection, memory: InstanceMemory) -> Detection:
    """Union the detection into an instance; returns the newly owned cells as a
    detection over the same bbox. Cells another same-class instance owns stay
    with that first owner, so class coverage remains a partition."""
    _check_category_ids(np.array([detection.class_id]), memory.smap.num_categories)
    rec = memory.instances[instance_id]
    if rec.class_id != detection.class_id:
        raise ValueError(
            f"class mismatch: instance {instance_id} has class {rec.class_id}, "
            f"detection has {detection.class_id}")
    return memory._claim(instance_id, detection)


def _kept_cells(smap: SemanticMap, points: np.ndarray, max_height: float) -> tuple:
    """(rows, cols, category ids), as int64 arrays, of the points whose 5 cm
    height bin lies below the ceiling's and whose cell is on the grid. A
    category id outside [0, C) raises ValueError."""
    _check_category_ids(points[:, 3], smap.num_categories)
    # floor(z / HEIGHT_BIN) >= 0 exactly when z >= 0
    keep = (points[:, 2] >= 0) & (np.floor(points[:, 2] / HEIGHT_BIN)
                                  < int(max_height / HEIGHT_BIN))
    rows, cols, on_grid = _cell_of(points[:, 0], points[:, 1], smap.m, smap.cell_size,
                                   smap.origin)
    keep &= on_grid
    return (rows[keep].astype(np.int64), cols[keep].astype(np.int64),
            points[keep, 3].astype(np.int64))


def project_frame(smap: SemanticMap, cloud: LabeledPointCloud, pose: tuple,
                  frame_index: int = 0, sensor_range: float = MappingConfig.sensor_range,
                  max_height: float = MappingConfig.max_point_height) -> list:
    """Project one observation into the map; returns per-component detections.

    Points are binned into (cell, 5 cm height bin, category) voxels up to the
    height ceiling and summed vertically, marking category presence per cell.
    Points whose cell is off the grid are dropped. Cells inside the sensor disk
    and all point cells become explored. Each category is labeled inside the
    bounding box of the kept point cells, and each detection crops its own
    bbox. The category channels are left to ``ingest``, which writes each
    cell's owning instance id.
    """
    x, y, yaw = pose
    if not all(math.isfinite(v) for v in (x, y, yaw)):
        raise ValueError("pose must be finite")
    pr, pc = smap.world_to_cell(x, y)
    smap.mark_pose(pr, pc)

    radius_cells = int(sensor_range / smap.cell_size)
    r0 = max(0, pr - radius_cells)
    r1 = min(smap.m, pr + radius_cells + 1)
    c0 = max(0, pc - radius_cells)
    c1 = min(smap.m, pc + radius_cells + 1)
    disk_rows, disk_cols = np.ogrid[r0:r1, c0:c1]
    disk = (disk_rows - pr) ** 2 + (disk_cols - pc) ** 2 <= radius_cells ** 2
    smap.explored[r0:r1, c0:c1] |= disk

    rows, cols, cats = _kept_cells(smap, cloud.points, max_height)
    smap.explored[rows, cols] = True
    if not rows.size:
        return []

    # Labeling in the points' bbox gives the full grid's components, in the
    # same raster order, shifted by the box's corner.
    top, left = int(rows.min()), int(cols.min())
    rows -= top
    cols -= left
    box = (int(rows.max()) + 1, int(cols.max()) + 1)
    detections = []
    for cat in np.unique(cats).tolist():
        mask = np.zeros(box, dtype=bool)
        mask[rows[cats == cat], cols[cats == cat]] = True
        labels, slices = _label_components(mask)
        for lab, (rs, cs) in enumerate(slices, start=1):
            bbox = (frame_index, (top + rs.start, left + cs.start,
                                  top + rs.stop - 1, left + cs.stop - 1))
            detections.append(Detection(bbox=bbox, class_id=cat, cells=labels[rs, cs] == lab))
    return detections


def ingest(smap: SemanticMap, memory: InstanceMemory, frame: Frame,
           sensor_range: float = MappingConfig.sensor_range,
           max_height: float = MappingConfig.max_point_height) -> list:
    """Project a frame, then match-or-create instances for its detections.

    Returns the instance ids touched, one per detection in processing order.
    ``memory`` must be built on ``smap`` (ValueError otherwise).
    """
    if memory.smap is not smap:
        raise ValueError("instance memory is built on another map")
    detections = project_frame(smap, frame.cloud, frame.pose, frame.index,
                               sensor_range, max_height)
    touched_ids = []
    for det in detections:
        iid = match_detection(det, memory)
        if iid is None:
            iid = memory.create(det)
        else:
            merge(iid, det, memory)
        touched_ids.append(iid)
    return touched_ids


HEADER_KEYS = ("categories", "M", "cell_size", "start_pose", "origin")
FRAME_KEYS = ("pose", "points")


def _finite_number(value) -> bool:
    return type(value) in (int, float) and is_finite(value)


def _pose(value, m: int, cell_size: float, origin: tuple) -> tuple:
    """A finite (x, y, yaw) whose (x, y) lies on the scene's map."""
    if not (isinstance(value, (list, tuple)) and len(value) == 3
            and all(_finite_number(v) for v in value)):
        raise ValueError(f"pose must be three finite numbers [x, y, yaw], not {value!r}")
    pose = tuple(float(v) for v in value)
    world_to_cell(pose[0], pose[1], m, cell_size, origin)
    return pose


def _scene_header(rec) -> Scene:
    """The frameless Scene a header record describes; a bad field raises
    ValueError naming it."""
    rec = json_object(rec, HEADER_KEYS)
    categories = rec["categories"]
    if not (isinstance(categories, list) and categories
            and all(isinstance(name, str) for name in categories)
            and len(set(categories)) == len(categories)):
        raise ValueError(f"categories must be a non-empty list of distinct strings, "
                         f"not {categories!r}")
    m = rec.get("M", Scene.m)
    if type(m) is not int or m <= 0:
        raise ValueError(f"M must be a positive integer, not {m!r}")
    if len(categories) * m * m > MAX_SCENE_CELLS:
        raise ValueError(f"M={m} makes {len(categories)} x {m} x {m} map cells, over the "
                         f"ceiling of {MAX_SCENE_CELLS}")
    cell_size = rec.get("cell_size", Scene.cell_size)
    if not (_finite_number(cell_size) and cell_size > 0):
        raise ValueError(f"cell_size must be a finite number > 0, not {cell_size!r}")
    origin = rec.get("origin", Scene.origin)
    if not (isinstance(origin, (list, tuple)) and len(origin) == 2
            and all(_finite_number(v) for v in origin)):
        raise ValueError(f"origin must be two finite numbers, not {origin!r}")
    origin = tuple(origin)
    return Scene(categories=categories, m=m, cell_size=float(cell_size),
                 start_pose=_pose(rec.get("start_pose", Scene.start_pose), m, cell_size, origin),
                 origin=origin)


def load_scene(path) -> Scene:
    """Read a line-delimited scene file: a header object followed by frames.

    A malformed file raises ConfigError naming the path and the 1-based line.
    """
    scene = None

    def parse(rec):
        nonlocal scene
        if scene is None:
            scene = _scene_header(rec)
            return
        rec = json_object(rec, FRAME_KEYS)
        cloud = LabeledPointCloud(points=rec.get("points", []))
        _check_category_ids(cloud.points[:, 3], len(scene.categories))
        pose = _pose(rec["pose"], scene.m, scene.cell_size, scene.origin)
        scene.frames.append(Frame(index=len(scene.frames), pose=pose, cloud=cloud))

    read_json_lines("scene file", path, parse)
    if scene is None:
        raise ConfigError(f"scene file {path} is empty")
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
                # the category id stays a JSON integer
                "points": [[x, y, z, int(c)] for x, y, z, c in frame.cloud.points.tolist()],
            }) + "\n")
