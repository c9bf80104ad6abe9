"""Independent brute-force oracles used by the test suite.

These deliberately re-derive results through a different route than the
library code they check.
"""

import heapq
import itertools
import json
import math

import numpy as np

from quadkit.adaptation import (
    BENCHMARK_COMMAND,
    TERRAIN_DESCRIPTIONS,
    _thin_axes,
    determining_pick,
    direct_params,
    locate_ranges,
    manual_params,
)
from quadkit.config import MappingConfig, NavConfig, derive_seed
from quadkit.locomotion import (
    GAIT_NAMES,
    GAITS,
    GLOBAL_RANGES,
    LEVEL_RANGES,
    PARAMETERS,
    BehaviorParams,
    desired_contact,
    desired_contacts,
    level_range,
    sample_grid,
)
from quadkit.mapping import (
    HEIGHT_BIN,
    Detection,
    SemanticMap,
    _check_category_ids,
    _label_components,
)
from quadkit.navigation import ArrivalField, CostAssignment, CostMap, TerrainCost
from quadkit.rewards import (
    EpisodeReport,
    StepSample,
    _phase_terms,
    episode_percent,
    episode_velocity_percent,
    r_velocity_xy,
    r_velocity_yaw,
)
from quadkit.surrogate import (
    BODY_WEIGHT_N,
    GAIT_MISMATCH_FACTOR,
    RHO,
    SLIP_SCALE,
    SPURIOUS_FORCE_N,
    SWING_SPEED_FACTOR,
    Trajectory,
    ideal_profile,
    simulate,
)
from quadkit.terrain import terrain_by_name


def gait_phase_table(t, offsets):
    """Direct evaluation of the per-foot phase formulas via floor reduction."""
    th1, th2, th3 = offsets
    raw = (t + th2 + th3, t + th1 + th3, t + th1, t + th2)
    return tuple(v - math.floor(v) for v in raw)


def timing_table(t, offsets):
    return tuple(math.sin(2.0 * math.pi * p) for p in gait_phase_table(t, offsets))


def contact_table(t, offsets, duty=0.5):
    return tuple(p < duty for p in gait_phase_table(t, offsets))


def trajectory_of(samples, gait):
    """Trajectory whose per-step arrays hold the given StepSamples' values,
    with the stance flags ``gait`` commands at each sample's phase."""
    samples = list(samples)
    n = len(samples)
    return Trajectory(
        v_xy=np.array([s.v_xy for s in samples], dtype=float).reshape(n, 2),
        w_z=np.array([s.w_z for s in samples], dtype=float),
        foot_force=np.array([s.foot_force for s in samples], dtype=float).reshape(n, 4),
        foot_speed=np.array([s.foot_speed_xy for s in samples], dtype=float).reshape(n, 4),
        contact=np.array([desired_contact(gait, s.phase_t) for s in samples],
                         dtype=bool).reshape(n, 4),
    )


def episode_phase(params, cfg):
    """Gait cycle fraction at each step of a simulated episode."""
    return np.mod(np.arange(cfg.steps) * (params.step_frequency * cfg.dt), 1.0)


def samples_of(traj, phase):
    """One StepSample per row of a trajectory's arrays, at the given phases."""
    return [StepSample(v_xy=tuple(traj.v_xy[k]), w_z=float(traj.w_z[k]),
                       foot_force=tuple(traj.foot_force[k]),
                       foot_speed_xy=tuple(traj.foot_speed[k]), phase_t=float(phase[k]))
            for k in range(len(traj))]


def episode_percent_steps(samples, cmd, gait, cfg):
    """Per-step episode percents (vel_xy, vel_yaw, swing, stance), one
    StepSample at a time through the scalar reward terms."""
    acc = [0.0, 0.0, 0.0, 0.0]
    den = [0.0, 0.0, 0.0, 0.0]
    for s in samples:
        acc[0] += r_velocity_xy(s, cmd, cfg)
        acc[1] += r_velocity_yaw(s, cmd, cfg)
        den[0] += 1.0
        den[1] += 1.0
        sw_sum, sw_n, st_sum, st_n = _phase_terms(s, gait, cfg)
        acc[2] += sw_sum
        acc[3] += st_sum
        den[2] += 4.0 if cfg.flat_phase_max else sw_n
        den[3] += 4.0 if cfg.flat_phase_max else st_n
    return tuple(100.0 * a / d if d > 0 else 100.0 for a, d in zip(acc, den))


def efficiency_reference(params, ideal):
    """``surrogate.efficiency`` one parameter at a time in scalar Python."""
    params.validate()
    e = 1.0
    for name in PARAMETERS:
        lo, hi = LEVEL_RANGES[name][int(ideal.level(name))]
        value = getattr(params, name)
        d = max(lo - value, value - hi, 0.0) / (hi - lo)
        e *= math.exp(-((d / RHO) ** 2))
    if params.gait != ideal.gait:
        e *= GAIT_MISMATCH_FACTOR
    return e


def simulate_reference(terrain, params, cmd, cfg, seed):
    """``surrogate.simulate`` with nothing shared between calls: the seeded
    noise and the gait schedule are recomputed on every call."""
    cfg.validate()
    cmd.validate()
    e = efficiency_reference(params, ideal_profile(terrain))
    n = cfg.steps
    if cfg.noise_scale > 0:
        rng = np.random.default_rng(seed)
        noise_v = rng.normal(0.0, cfg.noise_scale, n)
        noise_w = rng.normal(0.0, cfg.noise_scale, n)
    else:
        noise_v = np.zeros(n)
        noise_w = np.zeros(n)
    mult = np.clip(e + noise_v, -1.0, 1.0)
    contact = desired_contacts(GAITS[params.gait], episode_phase(params, cfg))
    n_stance = contact.sum(axis=1)
    load = np.divide(BODY_WEIGHT_N, n_stance, out=np.zeros(n), where=n_stance > 0)

    spurious = (1.0 - e) * SPURIOUS_FORCE_N
    slip = (1.0 - e) * SLIP_SCALE
    swing_speed = SWING_SPEED_FACTOR * math.hypot(cmd.vx, cmd.vy) * e

    return Trajectory(v_xy=np.stack([cmd.vx * mult, cmd.vy * mult], axis=1),
                      w_z=cmd.wz * e + noise_w,
                      foot_force=np.where(contact, load[:, None], spurious),
                      foot_speed=np.where(contact, slip, swing_speed), contact=contact)


def candidate_grid_params(selection, cap, include_gaits=False, ranges=None):
    """``adaptation.candidate_grid`` as a list with one ``BehaviorParams`` per
    candidate, built by ``itertools.product``."""
    axes = [sample_grid(name, level_range(name, selection.level(name), ranges))
            for name in PARAMETERS]
    gaits = GAIT_NAMES if include_gaits else (selection.gait,)
    axes = _thin_axes(axes, max(1, cap // len(gaits)))
    return [BehaviorParams(gait=g, **dict(zip(PARAMETERS, combo)))
            for combo in itertools.product(*axes) for g in gaits]


def selection_key(percent, cand):
    """``adaptation.select_best``'s total order as one Python sort key."""
    return (-percent, cand.body_height, cand.step_frequency, cand.swing_height,
            cand.body_pitch, cand.stance_width, cand.gait)


def select_best_reference(candidates, terrain, cmd, sim_cfg, reward_cfg=None, seed=0):
    """(best params, percents) of a list of ``BehaviorParams``: one simulated
    episode per candidate, the best by ``min`` over ``selection_key``."""
    percents = [episode_velocity_percent(simulate(terrain, c, cmd, sim_cfg, seed), cmd,
                                         reward_cfg) for c in candidates]
    best = min(range(len(candidates)), key=lambda i: selection_key(percents[i], candidates[i]))
    return candidates[best], percents


def candidates_csv_reference(candidates, percents):
    """The ``candidates_*.csv`` text of a list of ``BehaviorParams``, one
    f-string per candidate."""
    lines = ["body_height,step_frequency,body_pitch,stance_width,swing_height,"
             "gait,velocity_pct\n"]
    for cand, pct in zip(candidates, percents):
        lines.append(f"{cand.body_height:.6f},{cand.step_frequency:.6f},"
                     f"{cand.body_pitch:.6f},{cand.stance_width:.6f},"
                     f"{cand.swing_height:.6f},{cand.gait},{pct:.6f}\n")
    return "".join(lines)


def run_benchmark_reference(variants, terrains, runs, cfg, gateway, root_seed=0):
    """``cmd_adapt``'s ``benchmark.csv`` text and ``candidates_*.csv`` texts
    (keyed by file name), one ``simulate`` per candidate and per evaluation
    episode. The model-facing steps are the library's own."""
    rows = ["terrain,method,r_vxy_pct,r_wz_pct,r_cf_pct,r_cv_pct\n"]
    dumps = {}
    cmd = BENCHMARK_COMMAND
    for terrain_name in terrains:
        terrain = terrain_by_name(terrain_name)
        description = TERRAIN_DESCRIPTIONS[terrain_name]
        for variant in variants:
            seed = derive_seed(root_seed, "adapt", terrain_name, variant.kind)
            if variant.kind == "auto_lss_sampling":
                grid = candidate_grid_params(locate_ranges(description, gateway),
                                             cfg.lss.candidate_cap, cfg.lss.grid_gaits,
                                             cfg.level_ranges)
                params, percents = select_best_reference(grid, terrain, cmd, cfg.sim,
                                                         cfg.reward, seed)
            else:
                if variant.kind == "manual":
                    params = manual_params(variant.params_file)
                elif variant.kind == "auto_lss_determining":
                    params = determining_pick(locate_ranges(description, gateway), gateway,
                                              description, cfg.level_ranges)
                else:
                    params = direct_params(description, gateway, variant.kind == "auto_prior")
                grid, percents = [params], [episode_velocity_percent(
                    simulate(terrain, params, cmd, cfg.sim, seed), cmd, cfg.reward)]
            reports = [episode_percent(simulate(terrain, params, cmd, cfg.sim,
                                                derive_seed(root_seed, "eval", terrain_name, run)),
                                       cmd, cfg.reward) for run in range(runs)]
            avg = EpisodeReport(*[sum(r.as_tuple()[i] for r in reports) / runs
                                  for i in range(4)])
            rows.append(avg.csv_row(terrain_name, variant.kind) + "\n")
            dumps[f"candidates_{terrain_name}_{variant.kind}.csv"] = candidates_csv_reference(
                grid, percents)
    return "".join(rows), dumps


def random_baseline_reference(terrain, n, cfg, root_seed=0):
    """``adaptation.random_baseline_percent`` with one ``simulate`` per
    random parameter set."""
    rng = np.random.default_rng(derive_seed(root_seed, "baseline", terrain.name))
    total = 0.0
    for i in range(n):
        values = {name: float(rng.uniform(*GLOBAL_RANGES[name])) for name in PARAMETERS}
        params = BehaviorParams(gait=GAIT_NAMES[int(rng.integers(len(GAIT_NAMES)))], **values)
        traj = simulate(terrain, params, BENCHMARK_COMMAND, cfg.sim,
                        derive_seed(root_seed, "baseline", terrain.name, i))
        total += episode_velocity_percent(traj, BENCHMARK_COMMAND, cfg.reward)
    return total / n


def chebyshev_dilation(cells, p, m=None):
    """Per-cell square expansion, the slow way."""
    out = set()
    for (r, c) in cells:
        for nr in range(r - p, r + p + 1):
            for nc in range(c - p, c + p + 1):
                if m is None or (0 <= nr < m and 0 <= nc < m):
                    out.add((nr, nc))
    return out


def mask_of(cells, m):
    """(m, m) bool mask with the given (row, col) cells set."""
    mask = np.zeros((m, m), dtype=bool)
    for (r, c) in cells:
        mask[r, c] = True
    return mask


def cells_of(mask):
    """Set of (row, col) int tuples of a mask's set cells; a ``Detection``'s
    ``nonzero`` gives them in map coordinates."""
    return {(int(r), int(c)) for r, c in zip(*np.nonzero(mask))}


def detection_of(cells, class_id=0, frame=0):
    """The detection of a non-empty set of map cells: their bounding box and
    its bool crop."""
    rows = [r for r, _ in cells]
    cols = [c for _, c in cells]
    r0, c0 = min(rows), min(cols)
    crop = np.zeros((max(rows) - r0 + 1, max(cols) - c0 + 1), dtype=bool)
    for r, c in cells:
        crop[r - r0, c - c0] = True
    return Detection(bbox=(frame, (r0, c0, max(rows), max(cols))), class_id=class_id,
                     cells=crop)


def flood_fill_labels(mask):
    """8-connected components of a 2-D bool mask by flood fill from each
    unlabeled set cell in raster order: (int32 labels numbered from 1, one
    (row_slice, col_slice) bounding box per label), as ``ndimage.label`` with
    a 3 x 3 structure and ``ndimage.find_objects`` give them."""
    cells = np.asarray(mask, dtype=bool).tolist()
    h, w = len(cells), len(cells[0])
    labels = [[0] * w for _ in range(h)]
    slices = []
    for r in range(h):
        for c in range(w):
            if not cells[r][c] or labels[r][c]:
                continue
            lab = len(slices) + 1
            labels[r][c] = lab
            r0, r1, c0, c1 = r, r, c, c
            stack = [(r, c)]
            while stack:
                y, x = stack.pop()
                r0, r1, c0, c1 = min(r0, y), max(r1, y), min(c0, x), max(c1, x)
                for ny in range(max(0, y - 1), min(h, y + 2)):
                    for nx in range(max(0, x - 1), min(w, x + 2)):
                        if cells[ny][nx] and not labels[ny][nx]:
                            labels[ny][nx] = lab
                            stack.append((ny, nx))
            slices.append((slice(r0, r1 + 1), slice(c0, c1 + 1)))
    return np.array(labels, dtype=np.int32).reshape(h, w), slices


class UnionFind:
    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, a):
        while self.parent[a] != a:
            self.parent[a] = self.parent[self.parent[a]]
            a = self.parent[a]
        return a

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


def union_find_clusters(detections, p, m):
    """Transitive closure of same-class dilated-overlap matching over a
    detection batch: returns per-class merged cell coverage sets."""
    uf = UnionFind(len(detections))
    cells = [cells_of(d) for d in detections]
    dilated = [chebyshev_dilation(c, p, m) for c in cells]
    for i in range(len(detections)):
        for j in range(i + 1, len(detections)):
            if detections[i].class_id != detections[j].class_id:
                continue
            if dilated[i] & cells[j] or dilated[j] & cells[i]:
                uf.union(i, j)
    clusters = {}
    for i, det in enumerate(detections):
        root = uf.find(i)
        clusters.setdefault(root, (det.class_id, set()))[1].update(cells[i])
    by_class = {}
    for i, det in enumerate(detections):
        by_class.setdefault(det.class_id, set()).update(cells[i])
    return clusters, by_class


class InstanceMemoryOracle:
    """Instance memory as per-instance cell sets, the slow way: a merge or a
    create gives an instance the detection cells no same-class instance owns,
    so a cell keeps its first owner; a match is the same-class instance with
    the most cells under the dilated detection, then the lowest id."""

    def __init__(self, p, m):
        self.p, self.m = p, m
        self.cells, self.classes, self.views = {}, {}, {}

    def match(self, cells, class_id):
        dilated = chebyshev_dilation(cells, self.p, self.m)
        overlaps = {iid: len(dilated & own) for iid, own in self.cells.items()
                    if self.classes[iid] == class_id}
        best = max(overlaps.values(), default=0)
        return min(iid for iid, n in overlaps.items() if n == best) if best else None

    def create(self, cells, class_id, view):
        iid = len(self.cells) + 1
        self.cells[iid], self.classes[iid], self.views[iid] = set(), class_id, set()
        self.merge(iid, cells, view)
        return iid

    def merge(self, iid, cells, view):
        owned = set().union(*(own for other, own in self.cells.items()
                              if self.classes[other] == self.classes[iid]))
        new = set(cells) - owned
        self.cells[iid] |= new
        self.views[iid].add(view)
        return new


def dijkstra_times(costs, source, cell_size=0.05, speed_floor=0.05):
    """8-connected Dijkstra with edge weights cell_size/F averaged over the
    edge endpoints (sqrt(2)-scaled diagonals). Diagonal steps require both
    orthogonal intermediates to be passable, so corner-clipping between
    touching obstacles is excluded."""
    m, n = costs.shape
    obstacles = costs >= 1.0
    speed = np.clip(1.0 - costs, speed_floor, 1.0)
    tau = cell_size / speed
    dist = np.full((m, n), np.inf)
    dist[source] = 0.0
    heap = [(0.0, source[0], source[1])]
    done = np.zeros((m, n), dtype=bool)
    while heap:
        d, r, c = heapq.heappop(heap)
        if done[r, c]:
            continue
        done[r, c] = True
        for dr in (-1, 0, 1):
            for dc in (-1, 0, 1):
                if dr == 0 and dc == 0:
                    continue
                nr, nc = r + dr, c + dc
                if not (0 <= nr < m and 0 <= nc < n):
                    continue
                if obstacles[nr, nc] or done[nr, nc]:
                    continue
                if dr and dc:
                    if obstacles[r, nc] or obstacles[nr, c]:
                        continue
                    step = math.sqrt(2.0)
                else:
                    step = 1.0
                nd = d + step * 0.5 * (tau[r, c] + tau[nr, nc])
                if nd < dist[nr, nc]:
                    dist[nr, nc] = nd
                    heapq.heappush(heap, (nd, nr, nc))
    return dist


def _eikonal_update(a, b, f):
    """First-order upwind solution through a cell with crossing time f."""
    if math.isinf(a):
        return b + f
    if math.isinf(b):
        return a + f
    if abs(a - b) >= f:
        return min(a, b) + f
    return 0.5 * (a + b + math.sqrt(2.0 * f * f - (a - b) ** 2))


def fmm_solve_reference(costmap, goal, speed_floor=NavConfig.speed_floor):
    """Fast marching on the unpadded (M, N) grid, reading numpy scalars, with
    heap key (t, row, col): the kernel ``navigation.fmm_solve`` must match it
    bit for bit."""
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
        for dr, dc in ((1, 0), (-1, 0), (0, 1), (0, -1)):
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
    return ArrivalField(times=times)


def build_cost_map_reference(smap: SemanticMap, assignment: CostAssignment,
                             unexplored_cost: float = NavConfig.unexplored_cost,
                             zero_costs: bool = False) -> CostMap:
    """Cell cost = max over categories present of the category cost; obstacle
    categories force 1. Explored empty cells cost 0, unexplored cells the
    configured default. ``zero_costs`` is the no-cost ablation.

    ``navigation.build_cost_map`` as it was before it worked in place: a
    float64 ``best_cost`` grid picks each cell's dominant category, channel by
    channel. The in-place version must give equal costs and gaits."""
    costs = np.where(smap.explored, 0.0, unexplored_cost)
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


def nearest_free_cell(obstacles, cell):
    """Free cell with the smallest (squared distance, row, col) key, found by
    visiting every cell; None when no cell is free."""
    if not obstacles[cell]:
        return cell
    best = None
    best_key = None
    rows, cols = obstacles.shape
    for r in range(rows):
        for c in range(cols):
            if obstacles[r, c]:
                continue
            key = ((r - cell[0]) ** 2 + (c - cell[1]) ** 2, r, c)
            if best_key is None or key < best_key:
                best_key = key
                best = (r, c)
    return best


def project_frame_reference(smap: SemanticMap, cloud, pose, frame_index=0,
                            sensor_range=MappingConfig.sensor_range,
                            max_height=MappingConfig.max_point_height) -> list:
    """``mapping.project_frame`` as it was before it labeled in the points'
    bounding box: each category is labeled on a full (M, M) mask, and each
    detection is ``(bbox, class_id, full (M, M) bool mask)``. Marks the pose
    and the explored cells on ``smap`` as the library does."""
    x, y, _ = pose
    half = smap.m // 2
    pr = int(math.floor((y - smap.origin[1]) / smap.cell_size)) + half
    pc = int(math.floor((x - smap.origin[0]) / smap.cell_size)) + half
    smap.mark_pose(pr, pc)
    radius = int(sensor_range / smap.cell_size)
    for r in range(max(0, pr - radius), min(smap.m, pr + radius + 1)):
        for c in range(max(0, pc - radius), min(smap.m, pc + radius + 1)):
            if (r - pr) ** 2 + (c - pc) ** 2 <= radius ** 2:
                smap.explored[r, c] = True
    pts = cloud.points
    cats = pts[:, 3].astype(np.int64)
    _check_category_ids(cats, smap.num_categories)
    z_bin = np.floor(pts[:, 2] / HEIGHT_BIN)
    rows = np.floor((pts[:, 1] - smap.origin[1]) / smap.cell_size) + half
    cols = np.floor((pts[:, 0] - smap.origin[0]) / smap.cell_size) + half
    keep = ((0 <= z_bin) & (z_bin < int(max_height / HEIGHT_BIN))
            & (0 <= rows) & (rows < smap.m) & (0 <= cols) & (cols < smap.m))
    rows, cols, cats = rows[keep].astype(np.int64), cols[keep].astype(np.int64), cats[keep]
    smap.explored[rows, cols] = True
    detections = []
    for cat in np.unique(cats).tolist():
        mask = np.zeros((smap.m, smap.m), dtype=bool)
        mask[rows[cats == cat], cols[cats == cat]] = True
        labels, slices = _label_components(mask)
        for lab, (rs, cs) in enumerate(slices, start=1):
            bbox = (frame_index, (rs.start, cs.start, rs.stop - 1, cs.stop - 1))
            detections.append((bbox, cat, labels == lab))
    return detections


def map_image_reference(smap: SemanticMap) -> np.ndarray:
    """The map's canonical (C + 3) x M x M int32 image, built whole: the
    category channels, then the explored, current-position and past-position
    planes of 0/1."""
    image = np.zeros((smap.num_categories + 3, smap.m, smap.m), dtype=np.int32)
    image[:smap.num_categories] = smap.grid
    image[-3][smap.explored] = 1
    if smap.current_cell is not None:
        image[-2][smap.current_cell] = 1
    image[-1][smap.visited] = 1
    return image


def plan_reference(scene, reply: dict, cfg, no_cost: bool = False) -> tuple:
    """``bench.cmd_plan`` composed from the per-layer references: the scene's
    frames through ``project_frame_reference`` and ``InstanceMemoryOracle``,
    the cost reply ``reply`` (the decoded JSON object) through
    ``build_cost_map_reference``, the goal from ``nearest_free_cell`` or a
    full-field frontier search, and the path by a full-field 8-neighbour
    descent of ``fmm_solve_reference``'s field.

    Returns ``(plan_text, result_text, cost_map)``: the text ``plan.jsonl``
    and ``result.json`` must hold (``plan_text`` is None when no path is
    found) and the reference cost map."""
    smap = SemanticMap(scene.categories, scene.m, scene.cell_size, scene.origin)
    m, cell_size, origin = smap.m, smap.cell_size, smap.origin
    half = m // 2

    def world_of(cell):
        return ((cell[1] - half + 0.5) * cell_size + origin[0],
                (cell[0] - half + 0.5) * cell_size + origin[1])

    memory = InstanceMemoryOracle(cfg.mapping.dilation_p, m)
    for frame in scene.frames:
        for bbox, class_id, full in project_frame_reference(
                smap, frame.cloud, frame.pose, frame.index, cfg.mapping.sensor_range,
                cfg.mapping.max_point_height):
            cells = cells_of(full)
            iid = memory.match(cells, class_id)
            if iid is None:
                memory.create(cells, class_id, bbox)
            else:
                memory.merge(iid, cells, bbox)
    for iid, cells in memory.cells.items():
        for cell in cells:
            smap.grid[memory.classes[iid]][cell] = iid

    listed = [TerrainCost(entry["type"], float(entry["cost"]), int(entry["gait"]))
              for entry in reply["terrain"]]
    named = {entry.type for entry in listed}
    listed += [TerrainCost(name, cfg.nav.unexplored_cost, 0) for name in scene.categories
               if name not in named]
    assignment = CostAssignment(reply["target_object"], tuple(reply["obstacles"]),
                                tuple(listed))
    costmap = build_cost_map_reference(smap, assignment, cfg.nav.unexplored_cost, no_cost)
    blocked = costmap.costs >= 1.0
    target = assignment.target_object
    x, y, yaw = scene.start_pose
    start = (int(math.floor((y - origin[1]) / cell_size)) + half,
             int(math.floor((x - origin[0]) / cell_size)) + half)
    class_id = scene.categories.index(target) if target in scene.categories else None
    ids = sorted(iid for iid, cls in memory.classes.items() if cls == class_id)
    centroid = None
    if ids:
        rows, cols = zip(*memory.cells[ids[0]])
        centroid = (round(sum(rows) / len(rows)), round(sum(cols) / len(cols)))

    def plan():
        """(goal, path cells, error), each None when not reached."""
        if centroid is not None:
            goal = nearest_free_cell(blocked, centroid)
            if goal is None:
                return None, None, "cost map has no passable cells"
        else:
            frontier = [(r, c) for r in range(m) for c in range(m)
                        if smap.explored[r, c] and not blocked[r, c]
                        and any(not smap.explored[r + dr, c + dc]
                                for dr in (-1, 0, 1) for dc in (-1, 0, 1)
                                if 0 <= r + dr < m and 0 <= c + dc < m)]
            if not frontier:
                return None, None, "no frontier cells remain"
            if blocked[start]:
                return None, None, f"start cell {start} is impassable"
            from_start = fmm_solve_reference(costmap, start, cfg.nav.speed_floor).times
            t, r, c = min((from_start[cell], *cell) for cell in frontier)
            if t == math.inf:
                return None, None, "no reachable frontier cells remain"
            goal = (r, c)
        times = fmm_solve_reference(costmap, goal, cfg.nav.speed_floor).times
        if not math.isfinite(times[start]):
            return goal, None, f"start cell {start} cannot reach the goal"
        cells = [start]
        while times[cells[-1]] > 0.0:
            r, c = cells[-1]
            step = min((times[r + dr, c + dc], r + dr, c + dc)
                       for dr in (-1, 0, 1) for dc in (-1, 0, 1)
                       if 0 <= r + dr < m and 0 <= c + dc < m)
            assert step[0] < times[r, c], "a full field always descends"
            cells.append(step[1:])
        return goal, cells, None

    goal, cells, error = plan()
    result = {"target": target, "goal_cell": None if goal is None else list(goal),
              "reached": False, "distance_m": None, "no_cost": no_cost}
    if error is not None:
        result["error"] = error
    plan_text = None
    if cells is not None:
        lines = []
        heading = yaw
        for i, cell in enumerate(cells):
            rec = {"cell": list(cell), "world": [round(v, 6) for v in world_of(cell)]}
            if i > 0:
                (x0, y0), (x1, y1) = world_of(cells[i - 1]), world_of(cell)
                dx, dy = x1 - x0, y1 - y0
                turn = math.remainder(math.atan2(dy, dx) - heading, math.tau)
                heading = math.atan2(dy, dx)
                rec["gait"] = int(costmap.gait[cell])
                rec["action"] = [round(v, 6) for v in (dx, dy, turn)]
            lines.append(json.dumps(rec) + "\n")
        plan_text = "".join(lines)
        if centroid is not None:
            cx, cy = world_of(centroid)
            end = world_of(cells[-1])
            distance = math.hypot(end[0] - cx, end[1] - cy)
            result["distance_m"] = round(distance, 6)
            result["reached"] = distance <= cfg.nav.success_radius
    return plan_text, json.dumps(result, indent=2, sort_keys=True) + "\n", costmap
