"""Cost-map construction, eikonal arrival fields, and goal selection.

The local policy turns model-assigned per-category costs into an M x M cost
map (cost 1 = impassable), solves |grad T| = 1/F with F = clamp(1 - cost,
speed_floor, 1) by a first-order upwind fast-marching sweep on a 4-neighbor
stencil, and extracts waypoint paths by steepest descent over 8 neighbors.
The global policy resolves goals from instance memory and falls back to the
geodesically nearest frontier cell.
"""

from __future__ import annotations

import heapq
import json
import math
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .config import NavConfig
from .errors import ExplorationComplete, UnreachableError
from .gateway import (
    PARSE_TEMPERATURE,
    ChatRequest,
    Gateway,
    complete_and_parse,
    load_template,
    parse_cost_json,
)
from .mapping import InstanceMemory, SemanticMap, cell_to_world
from .terrain import write_pgm

_EIGHT_CONNECTED = np.ones((3, 3), dtype=bool)
_NEIGHBORS_4 = ((1, 0), (-1, 0), (0, 1), (0, -1))
_NEIGHBORS_8 = ((-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1))


@dataclass(frozen=True)
class TerrainCost:
    type: str
    cost: float
    gait: int


@dataclass(frozen=True)
class CostAssignment:
    """Parsed cost reply: target category, obstacle categories, terrain triples."""

    target_object: str
    obstacles: tuple
    terrain: tuple

    def cost_of(self, category: str):
        for entry in self.terrain:
            if entry.type == category:
                return entry
        return None


@dataclass
class CostMap:
    """Per-cell traversal cost in [0, 1] plus the per-cell gait requirement."""

    costs: np.ndarray
    gait: np.ndarray
    cell_size: float
    origin: tuple = (0.0, 0.0)

    @property
    def m(self) -> int:
        return self.costs.shape[0]

    @property
    def obstacle_mask(self) -> np.ndarray:
        return self.costs >= 1.0

    def to_pgm(self, path):
        write_pgm(path, self.costs)


@dataclass
class ArrivalField:
    """Arrival times toward a goal; unreachable cells hold +inf."""

    times: np.ndarray
    goal: tuple
    cell_size: float

    def to_csv(self, path):
        np.savetxt(path, self.times, fmt="%.6f", delimiter=",")


@dataclass(frozen=True)
class Waypoint:
    cell: tuple
    world: tuple


@dataclass
class PathPlan:
    """Ordered waypoints plus per-segment gait flags and positional offsets."""

    waypoints: list
    gait_flags: list
    actions: list  # (dx, dy, dyaw) per segment

    @property
    def cells(self) -> list:
        return [w.cell for w in self.waypoints]

    def to_jsonl(self, path):
        with open(path, "w") as fh:
            for i, wp in enumerate(self.waypoints):
                rec = {"cell": list(wp.cell), "world": [round(v, 6) for v in wp.world]}
                if i > 0:
                    rec["gait"] = int(self.gait_flags[i - 1])
                    rec["action"] = [round(v, 6) for v in self.actions[i - 1]]
                fh.write(json.dumps(rec) + "\n")


def assign_costs(instruction: str, observed_categories, gateway: Gateway,
                 mode: str = NavConfig.cost_mode,
                 unexplored_cost: float = NavConfig.unexplored_cost) -> CostAssignment:
    """Ask the model for per-category costs; one retry on a malformed reply.

    Observed categories the reply does not mention get ``unexplored_cost`` and
    normal gait.
    """
    observed = list(observed_categories)
    if not observed:
        raise ValueError("assign_costs needs a non-empty category list")
    user = load_template("cost_map").format(instruction=instruction)
    request = ChatRequest("cost_map", "", user, PARSE_TEMPERATURE, 1)
    assignment = complete_and_parse(gateway, request,
                                    lambda text: parse_cost_json(text, mode))[0]
    known = {entry.type for entry in assignment.terrain}
    extra = tuple(TerrainCost(type=name, cost=unexplored_cost, gait=0)
                  for name in observed if name not in known)
    return CostAssignment(target_object=assignment.target_object,
                          obstacles=assignment.obstacles,
                          terrain=assignment.terrain + extra)


def build_cost_map(smap: SemanticMap, assignment: CostAssignment,
                   unexplored_cost: float = NavConfig.unexplored_cost,
                   zero_costs: bool = False) -> CostMap:
    """Cell cost = max over categories present of the category cost; obstacle
    categories force 1. Explored empty cells cost 0, unexplored cells the
    configured default. ``zero_costs`` is the no-cost ablation."""
    explored = smap.explored_mask()
    costs = np.where(explored, 0.0, unexplored_cost)
    gait = np.zeros((smap.m, smap.m), dtype=np.int8)
    best_cost = np.full((smap.m, smap.m), -1.0)
    obstacle_names = set(assignment.obstacles)
    for ci, name in enumerate(smap.categories):
        present = smap.grid[ci] != 0
        if not present.any():
            continue
        entry = assignment.cost_of(name)
        cost = 1.0 if name in obstacle_names else (
            entry.cost if entry is not None else unexplored_cost)
        gait_bit = entry.gait if entry is not None else 0
        costs[present] = np.maximum(costs[present], cost)
        # Gait follows the dominant (highest-cost) category; first channel wins ties.
        dominant = present & (cost > best_cost)
        gait[dominant] = gait_bit
        best_cost[dominant] = cost
    if zero_costs:
        costs = np.zeros_like(costs)
    return CostMap(costs=costs, gait=gait, cell_size=smap.cell_size, origin=smap.origin)


def _eikonal_update(a: float, b: float, f: float) -> float:
    """First-order upwind solution through a cell with crossing time f."""
    if math.isinf(a):
        return b + f
    if math.isinf(b):
        return a + f
    if abs(a - b) >= f:
        return min(a, b) + f
    return 0.5 * (a + b + math.sqrt(2.0 * f * f - (a - b) ** 2))


def fmm_solve(costmap: CostMap, goal: tuple,
              speed_floor: float = NavConfig.speed_floor) -> ArrivalField:
    """Fast-marching arrival times from every cell to the goal.

    Obstacle cells (cost >= 1) never enter the queue and stay at +inf.
    """
    obstacles = costmap.obstacle_mask
    gr, gc = goal
    if obstacles[gr, gc]:
        raise ValueError(f"goal cell {goal} is impassable")
    m, n = costmap.costs.shape
    speed = np.clip(1.0 - costmap.costs, speed_floor, 1.0)
    tau = costmap.cell_size / speed
    times = np.full((m, n), np.inf)
    done = np.zeros((m, n), dtype=bool)
    times[gr, gc] = 0.0
    heap = [(0.0, gr, gc)]
    while heap:
        t, r, c = heapq.heappop(heap)
        if done[r, c]:
            continue
        done[r, c] = True
        for dr, dc in _NEIGHBORS_4:
            nr, nc = r + dr, c + dc
            if not (0 <= nr < m and 0 <= nc < n) or done[nr, nc] or obstacles[nr, nc]:
                continue
            a = min(times[nr, nc - 1] if nc > 0 else np.inf,
                    times[nr, nc + 1] if nc < n - 1 else np.inf)
            b = min(times[nr - 1, nc] if nr > 0 else np.inf,
                    times[nr + 1, nc] if nr < m - 1 else np.inf)
            new_t = _eikonal_update(a, b, tau[nr, nc])
            if new_t < times[nr, nc]:
                times[nr, nc] = new_t
                heapq.heappush(heap, (new_t, nr, nc))
    return ArrivalField(times=times, goal=goal, cell_size=costmap.cell_size)


def extract_path(field: ArrivalField, start: tuple, costmap: CostMap,
                 initial_yaw: float = 0.0) -> PathPlan:
    """Steepest descent over 8-neighbors of the arrival field until the goal.

    Arrival time strictly decreases along the path, so it terminates and never
    touches an obstacle cell. Actions are (dx, dy, dyaw) offsets between
    consecutive waypoints with yaw facing the travel direction.
    """
    times = field.times
    m, n = times.shape
    r, c = start
    if not math.isfinite(times[r, c]):
        raise UnreachableError(f"start cell {start} cannot reach the goal")
    cells = [(r, c)]
    while times[r, c] > 0.0:
        best = None
        best_t = times[r, c]
        for dr, dc in _NEIGHBORS_8:
            nr, nc = r + dr, c + dc
            if 0 <= nr < m and 0 <= nc < n and times[nr, nc] < best_t:
                best_t = times[nr, nc]
                best = (nr, nc)
        if best is None:
            raise UnreachableError(f"descent stalled at {(r, c)}")
        r, c = best
        cells.append(best)
    waypoints = [Waypoint(cell=cell, world=cell_to_world(*cell, costmap.m, costmap.cell_size,
                                                         costmap.origin))
                 for cell in cells]
    gait_flags = [int(costmap.gait[cell]) for cell in cells[1:]]
    actions = []
    yaw = initial_yaw
    for prev, cur in zip(waypoints, waypoints[1:]):
        dx = cur.world[0] - prev.world[0]
        dy = cur.world[1] - prev.world[1]
        heading = math.atan2(dy, dx)
        dyaw = math.remainder(heading - yaw, math.tau)
        actions.append((dx, dy, dyaw))
        yaw = heading
    return PathPlan(waypoints=waypoints, gait_flags=gait_flags, actions=actions)


def frontier_cells(smap: SemanticMap, costmap: CostMap) -> list:
    """Explored, passable cells 8-adjacent to unexplored space, in (row, col) order."""
    explored = smap.explored_mask()
    unexplored = ~explored
    near_unknown = ndimage.binary_dilation(unexplored, structure=_EIGHT_CONNECTED)
    frontier = explored & near_unknown & ~costmap.obstacle_mask
    rows, cols = np.where(frontier)
    return list(zip(rows.tolist(), cols.tolist()))


def frontier_goal(smap: SemanticMap, costmap: CostMap, start: tuple,
                  speed_floor: float = NavConfig.speed_floor) -> tuple:
    """Frontier cell with minimum arrival time from the start; ties resolve
    lexicographically by (row, col). Raises ExplorationComplete when no
    reachable frontier remains."""
    frontiers = frontier_cells(smap, costmap)
    if not frontiers:
        raise ExplorationComplete("no frontier cells remain")
    field = fmm_solve(costmap, start, speed_floor)
    best = None
    best_key = None
    for cell in frontiers:
        t = field.times[cell]
        if not math.isfinite(t):
            continue
        key = (t, cell[0], cell[1])
        if best_key is None or key < best_key:
            best_key = key
            best = cell
    if best is None:
        raise ExplorationComplete("no reachable frontier cells remain")
    return best


def snap_to_free(costmap: CostMap, cell: tuple) -> tuple:
    """Nearest passable cell by squared Euclidean distance, then (row, col)."""
    obstacles = costmap.obstacle_mask
    if not obstacles[cell]:
        return cell
    m = costmap.m
    best = None
    best_key = None
    free_rows, free_cols = np.where(~obstacles)
    for r, c in zip(free_rows.tolist(), free_cols.tolist()):
        d2 = (r - cell[0]) ** 2 + (c - cell[1]) ** 2
        key = (d2, r, c)
        if best_key is None or key < best_key:
            best_key = key
            best = (r, c)
    if best is None:
        raise UnreachableError("cost map has no passable cells")
    return best


def instance_centroid(mask: np.ndarray) -> tuple:
    """Rounded mean (row, col) of a region mask, as Python ints for JSON output."""
    rows, cols = np.nonzero(mask)
    return (round(int(rows.sum()) / rows.size), round(int(cols.sum()) / cols.size))


def global_goal(goal, memory: InstanceMemory, smap: SemanticMap, costmap: CostMap,
                start: tuple, speed_floor: float = NavConfig.speed_floor) -> tuple:
    """Memory lookup first: exact category-name match (or a direct instance id)
    returns the instance's centroid snapped to a passable cell; otherwise the
    nearest frontier."""
    if not smap.explored_mask().any():
        raise ValueError("map has no explored cells")
    if isinstance(goal, int):
        if goal not in memory.instances:
            raise ValueError(f"no instance with id {goal}")
        record = memory.instances[goal]
    else:
        record = memory.first_named(smap.categories, goal)
    if record is None:
        return frontier_goal(smap, costmap, start, speed_floor)
    return snap_to_free(costmap, instance_centroid(record.cells))


def plan_to_target(target, memory: InstanceMemory, smap: SemanticMap, costmap: CostMap,
                   start: tuple, initial_yaw: float = 0.0,
                   speed_floor: float = NavConfig.speed_floor) -> tuple:
    """Global goal, its arrival field, and the descent path from ``start``.

    Returns ``(goal, field, plan, error)``. When a step fails, its output and
    those after it are None and ``error`` holds the step's message.
    """
    goal = field = None
    try:
        goal = global_goal(target, memory, smap, costmap, start, speed_floor)
        field = fmm_solve(costmap, goal, speed_floor)
        plan = extract_path(field, start, costmap, initial_yaw=initial_yaw)
    except (ExplorationComplete, UnreachableError, ValueError) as err:
        return goal, field, None, str(err)
    return goal, field, plan, None


def distance_to_instance(memory: InstanceMemory, smap: SemanticMap, name: str,
                         point: tuple) -> float | None:
    """Metres from a world point to the centroid of the lowest-id ``name``
    instance; None when memory holds no such instance."""
    record = memory.first_named(smap.categories, name)
    if record is None:
        return None
    cx, cy = smap.cell_to_world(*instance_centroid(record.cells))
    return math.hypot(point[0] - cx, point[1] - cy)
