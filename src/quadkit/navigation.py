"""Cost-map construction, eikonal arrival fields, and goal selection.

The local policy turns model-assigned per-category costs into an M x M cost
map (cost 1 = impassable), solves |grad T| = 1/F with F = clamp(1 - cost,
speed_floor, 1) by a first-order upwind fast-marching sweep on a 4-neighbor
stencil, and plans paths by steepest descent over 8 neighbors.
The solver keys its heap by (t, k), with k a cell's flat row-major index in
a grid padded with a one-cell obstacle border; k orders ties as (row, col)
does and the update applies the same float operations in the same order, so
its arrival fields equal the per-cell reference's
(``tests/oracles.fmm_solve_reference``) bit for bit. A solve holds one float64
grid, the padded arrival times, and returns its interior as the field (a
view). Beside it are a byte-per-cell frozen-or-blocked flag and a per-cell
level index into a table of crossing times over the map's distinct costs.
Cells freeze in non-decreasing arrival time, so a solve may stop early: given
a ``stop_at`` mask it ends once the first mask cell and every queued cell of
that same time are frozen. Frozen cells then hold their full-solve times and
the cells it did not freeze hold +inf. Frontier choice stops at the first
frontier, and path descent at the start, because neither reads a later cell.
A path is its cells: ``descend_field`` returns the descent's cells, and only
``path_from_cells`` turns cells into world points, gait flags and actions.
The global policy resolves a category name from instance memory and falls
back to the geodesically nearest frontier cell.
"""

from __future__ import annotations

import heapq
import json
import math
from array import array
from dataclasses import dataclass

import numpy as np

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
from .mapping import InstanceMemory, SemanticMap, _square_dilation, cell_to_world
from .terrain import write_pgm

# Rows per block when filling the solver's cost-level index.
_LEVEL_BLOCK_ROWS = 32
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
    """Arrival times toward a goal; unreachable cells, and cells the solve did
    not freeze, hold +inf."""

    times: np.ndarray

    def to_csv(self, path):
        np.savetxt(path, self.times, fmt="%.6f", delimiter=",")


@dataclass
class PathPlan:
    """A path's cells and the world points of their centres, plus one gait
    flag and one (dx, dy, dyaw) action per segment; ``path_from_cells``
    builds it."""

    cells: list  # (row, col) per point
    world: list  # (x, y) per point
    gait_flags: list
    actions: list  # (dx, dy, dyaw) per segment

    def to_jsonl(self, path):
        with open(path, "w") as fh:
            for i, (cell, point) in enumerate(zip(self.cells, self.world)):
                rec = {"cell": list(cell), "world": [round(v, 6) for v in point]}
                if i > 0:
                    rec["gait"] = int(self.gait_flags[i - 1])
                    rec["action"] = [round(v, 6) for v in self.actions[i - 1]]
                fh.write(json.dumps(rec) + "\n")


def cost_map_request(instruction: str) -> ChatRequest:
    """The cost-assignment request for one navigation instruction."""
    user = load_template("cost_map").format(instruction=instruction)
    return ChatRequest("cost_map", "", user, PARSE_TEMPERATURE, 1)


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
    assignment = complete_and_parse(gateway, cost_map_request(instruction),
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
    configured default. ``zero_costs`` is the no-cost ablation.

    A cell's gait follows its dominant (highest-cost) category, the first
    channel winning ties: the categories are visited by (cost descending,
    channel) and each sets the gait of the cells no earlier one settled."""
    costs = np.where(smap.explored, 0.0, unexplored_cost)
    gait = np.zeros((smap.m, smap.m), dtype=np.int8)
    settled = np.zeros((smap.m, smap.m), dtype=bool)
    present = np.empty((smap.m, smap.m), dtype=bool)
    obstacle_names = set(assignment.obstacles)
    visits = []
    for ci, name in enumerate(smap.categories):
        entry = assignment.cost_of(name)
        cost = 1.0 if name in obstacle_names else (
            entry.cost if entry is not None else unexplored_cost)
        visits.append((cost, ci, entry.gait if entry is not None else 0))
    for cost, ci, gait_bit in sorted(visits, key=lambda visit: (-visit[0], visit[1])):
        np.not_equal(smap.grid[ci], 0, out=present)
        np.maximum(costs, cost, out=costs, where=present)
        np.greater(present, settled, out=present)  # present & ~settled, in place
        np.copyto(gait, gait_bit, where=present)
        settled |= present
    if zero_costs:
        costs.fill(0.0)
    return CostMap(costs=costs, gait=gait, cell_size=smap.cell_size, origin=smap.origin)


def _check_cell(cell: tuple, shape: tuple, what: str):
    """Raise ValueError unless ``cell`` indexes the grid without wrapping."""
    r, c = cell
    if not (0 <= r < shape[0] and 0 <= c < shape[1]):
        raise ValueError(f"{what} cell {cell} is outside the {shape[0]}x{shape[1]} grid")


def _check_passable(costmap: CostMap, cell: tuple, what: str):
    """Raise ValueError unless ``cell`` is a passable cell of the grid."""
    _check_cell(cell, costmap.costs.shape, what)
    if costmap.costs[cell[0], cell[1]] >= 1.0:  # as ``obstacle_mask`` has it (NaN passable)
        raise ValueError(f"{what} cell {cell} is impassable")


def _tau_levels(costmap: CostMap, speed_floor: float) -> tuple:
    """Crossing times per distinct cost and each padded cell's level index.

    tau = cell_size / clip(1 - cost, speed_floor, 1) is computed once per
    ``np.unique`` cost (NaN and -0.0 included, each mapping to the tau its
    cells would get) and returned as a list. The index is row-major over the
    grid padded by one cell (the border reads level 0), one byte per cell up
    to 256 levels and wider past that; it is filled in blocks of rows, so no
    full-grid temporary is made."""
    costs = costmap.costs
    m, n = costs.shape
    levels = np.unique(costs)
    taus = (costmap.cell_size / np.clip(1.0 - levels, speed_floor, 1.0)).tolist()
    dtype = np.min_scalar_type(len(taus) - 1)
    level = array(dtype.char, [0]) * ((m + 2) * (n + 2))
    inner = np.frombuffer(level, dtype).reshape(m + 2, n + 2)[1:-1, 1:-1]
    for r in range(0, m, _LEVEL_BLOCK_ROWS):
        inner[r:r + _LEVEL_BLOCK_ROWS] = np.searchsorted(levels, costs[r:r + _LEVEL_BLOCK_ROWS])
    return taus, level


def fmm_solve(costmap: CostMap, goal: tuple,
              speed_floor: float = NavConfig.speed_floor,
              stop_at: np.ndarray | None = None) -> ArrivalField:
    """Fast-marching arrival times from every cell to the goal.

    Obstacle cells (cost >= 1) never enter the queue and stay at +inf. A goal
    outside the grid or on an obstacle raises ValueError.

    ``stop_at`` is an optional boolean mask of the grid's shape. The solve
    then ends once it has frozen the first mask cell and every queued cell of
    that same arrival time; the cells it did not freeze hold +inf. A mask
    with no reachable cell gives the full solve.
    """
    m, n = costmap.costs.shape
    _check_passable(costmap, goal, "goal")
    w = n + 2
    size = (m + 2) * w
    taus, level = _tau_levels(costmap, speed_floor)
    # Index ``size``, one past the padded grid, is the drain sentinel: never
    # blocked and always a stop cell, so popping it ends the solve.
    blocked = bytearray(np.pad(costmap.obstacle_mask, 1, constant_values=True))
    blocked.append(0)
    stop = {size}  # the flat indices of the stop cells
    if stop_at is not None:
        if np.shape(stop_at) != (m, n):
            raise ValueError(f"stop_at has shape {np.shape(stop_at)}, not {(m, n)}")
        rows, cols = np.nonzero(stop_at)
        stop.update(((rows + 1) * w + cols + 1).tolist())
    times = array("d", [math.inf]) * size
    inf = math.inf
    sqrt = math.sqrt
    heappop = heapq.heappop
    heappush = heapq.heappush
    goal_k = (int(goal[0]) + 1) * w + int(goal[1]) + 1
    times[goal_k] = 0.0
    heap = [(0.0, goal_k)]
    while heap:
        k = heappop(heap)[1]
        if blocked[k]:
            continue
        blocked[k] = 1
        if k in stop:
            if k == size:
                break
            # The sentinel's key (t, size) sorts after every other entry of
            # time t, so the cells of this time still freeze before it pops.
            heappush(heap, (times[k], size))
        for nk in (k + w, k - w, k + 1, k - 1):
            if blocked[nk]:
                continue
            # ``y if y < x else x`` is ``min(x, y)`` as CPython evaluates it,
            # ties keeping x, without the cost of a builtin call.
            x, y = times[nk - 1], times[nk + 1]
            a = y if y < x else x
            x, y = times[nk - w], times[nk + w]
            b = y if y < x else x
            f = taus[level[nk]]
            if a == inf:
                new_t = b + f
            elif b == inf:
                new_t = a + f
            elif abs(a - b) >= f:
                new_t = (b if b < a else a) + f
            else:
                new_t = 0.5 * (a + b + sqrt(2.0 * f * f - (a - b) ** 2))
            if new_t < times[nk]:
                times[nk] = new_t
                heappush(heap, (new_t, nk))
    del level  # before the unfrozen-cell mask below is made
    # The field is a view of ``times``. A cell the solve did not freeze may
    # hold a queued time; it reads +inf.
    field = np.frombuffer(times).reshape(m + 2, w)[1:-1, 1:-1]
    frozen = np.frombuffer(blocked, dtype=np.uint8, count=size).reshape(m + 2, w)[1:-1, 1:-1]
    np.copyto(field, inf, where=frozen == 0)
    return ArrivalField(times=field)


def descend_field(field: ArrivalField, start: tuple) -> list:
    """Cells of the steepest descent over 8-neighbors of the arrival field,
    from ``start`` to the goal.

    Arrival time strictly decreases along the cells, so the descent
    terminates and never touches an obstacle cell."""
    times = field.times
    m, n = times.shape
    _check_cell(start, (m, n), "start")
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
    return cells


def path_from_cells(cells: list, costmap: CostMap, initial_yaw: float = 0.0) -> PathPlan:
    """The path through ``cells`` in order: each cell's world centre, and per
    segment the gait bit of the cell it enters and the (dx, dy, dyaw) action,
    the yaw facing the travel direction and starting at ``initial_yaw``."""
    world = [cell_to_world(*cell, costmap.m, costmap.cell_size, costmap.origin)
             for cell in cells]
    gait_flags = [int(costmap.gait[cell]) for cell in cells[1:]]
    actions = []
    yaw = initial_yaw
    for (x0, y0), (x1, y1) in zip(world, world[1:]):
        dx = x1 - x0
        dy = y1 - y0
        heading = math.atan2(dy, dx)
        actions.append((dx, dy, math.remainder(heading - yaw, math.tau)))
        yaw = heading
    return PathPlan(cells=cells, world=world, gait_flags=gait_flags, actions=actions)


def extract_path(field: ArrivalField, start: tuple, costmap: CostMap,
                 initial_yaw: float = 0.0) -> PathPlan:
    """The steepest-descent path from ``start`` to the field's goal."""
    return path_from_cells(descend_field(field, start), costmap, initial_yaw)


def frontier_cells(smap: SemanticMap, costmap: CostMap) -> np.ndarray:
    """Mask of the explored, passable cells 8-adjacent to unexplored space."""
    explored = smap.explored
    near_unknown = _square_dilation(~explored, 1)  # not dilate: its calls count instance matches
    return explored & near_unknown & ~costmap.obstacle_mask


def frontier_goal(smap: SemanticMap, costmap: CostMap, start: tuple,
                  speed_floor: float = NavConfig.speed_floor) -> tuple:
    """Frontier cell with minimum arrival time from the start; ties resolve
    lexicographically by (row, col). Raises ExplorationComplete when no
    reachable frontier remains, and ValueError when the start is off the grid
    or impassable.

    The solve stops at the first frontier it freezes, after the frontiers of
    that same time; later frontiers read +inf. The row-major argmin is the
    (t, row, col) minimum."""
    frontier = frontier_cells(smap, costmap)
    if not frontier.any():
        raise ExplorationComplete("no frontier cells remain")
    _check_passable(costmap, start, "start")
    times = np.where(frontier, fmm_solve(costmap, start, speed_floor, frontier).times, np.inf)
    k = int(np.argmin(times))
    if times.flat[k] == np.inf:
        raise ExplorationComplete("no reachable frontier cells remain")
    return divmod(k, times.shape[1])


def snap_to_free(costmap: CostMap, cell: tuple) -> tuple:
    """Nearest passable cell by squared Euclidean distance, then (row, col).

    Searches the square of radius 1, 2, 4, ... cells around ``cell``. A cell
    outside a square of radius ``radius`` lies more than ``radius`` away, so
    once the square holds a passable cell within ``radius`` it holds the
    minimum and every cell tied with it."""
    costs = costmap.costs
    r, c = cell
    if not costs[r, c] >= 1.0:  # passable as ``obstacle_mask`` has it (NaN too)
        return cell
    m, n = costs.shape
    radius = 1
    while True:
        r0, c0 = max(r - radius, 0), max(c - radius, 0)
        rows, cols = np.nonzero(~(costs[r0:r + radius + 1, c0:c + radius + 1] >= 1.0))
        whole = r0 == c0 == 0 and r + radius >= m - 1 and c + radius >= n - 1
        if rows.size:
            d2 = (rows + r0 - r) ** 2 + (cols + c0 - c) ** 2
            # np.nonzero is row-major, so the first minimum is also the lowest (row, col)
            k = np.argmin(d2)
            if d2[k] <= radius * radius or whole:
                return (int(rows[k]) + r0, int(cols[k]) + c0)
        elif whole:
            raise UnreachableError("cost map has no passable cells")
        radius *= 2


def instance_centroid(mask: np.ndarray) -> tuple:
    """Rounded mean (row, col) of a region mask, as Python ints for JSON output."""
    rows, cols = np.nonzero(mask)
    return (round(int(rows.sum()) / rows.size), round(int(cols.sum()) / cols.size))


def global_goal(goal: str, memory: InstanceMemory, costmap: CostMap, start: tuple,
                speed_floor: float = NavConfig.speed_floor) -> tuple:
    """Memory lookup first: the lowest-id instance of the category named
    ``goal`` gives its centroid snapped to a passable cell; with no such
    instance, the nearest frontier of the memory's map."""
    smap = memory.smap
    if not smap.explored.any():
        raise ValueError("map has no explored cells")
    record = memory.first_named(goal)
    if record is None:
        return frontier_goal(smap, costmap, start, speed_floor)
    return snap_to_free(costmap, instance_centroid(record.cells))


def plan_to_target(target, memory: InstanceMemory, costmap: CostMap, start: tuple,
                   initial_yaw: float = 0.0, speed_floor: float = NavConfig.speed_floor,
                   full_field: bool = False) -> tuple:
    """Global goal, its arrival field, and the descent path from ``start``.

    Returns ``(goal, field, plan, error)``. When a step fails, its output and
    those after it are None and ``error`` holds the step's message. Descent
    reads only cells that arrive before ``start``, so the solve stops once
    ``start`` is frozen and later cells hold +inf; ``full_field`` solves the
    whole grid instead.
    """
    goal = field = None
    try:
        goal = global_goal(target, memory, costmap, start, speed_floor)
        stop_at = None
        if not full_field:
            stop_at = np.zeros(costmap.costs.shape, dtype=bool)
            r, c = start  # a start off the grid stops nothing; descent reports it
            if 0 <= r < stop_at.shape[0] and 0 <= c < stop_at.shape[1]:
                stop_at[r, c] = True
        field = fmm_solve(costmap, goal, speed_floor, stop_at)
        plan = extract_path(field, start, costmap, initial_yaw=initial_yaw)
    except (ExplorationComplete, UnreachableError, ValueError) as err:
        return goal, field, None, str(err)
    return goal, field, plan, None


def distance_to_instance(memory: InstanceMemory, name: str, point: tuple) -> float | None:
    """Metres from a world point to the centroid of the lowest-id ``name``
    instance; None when memory holds no such instance."""
    record = memory.first_named(name)
    if record is None:
        return None
    cx, cy = memory.smap.cell_to_world(*instance_centroid(record.cells))
    return math.hypot(point[0] - cx, point[1] - cy)
