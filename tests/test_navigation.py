import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from conftest import GRID_480, fixture_text, make_gateway, traced_peak_over_entry
from oracles import (
    build_cost_map_reference,
    cells_of,
    chebyshev_dilation,
    dijkstra_times,
    nearest_free_cell,
)
from quadkit.errors import ExplorationComplete, ParseError, SchemaError, UnreachableError
from quadkit.mapping import InstanceMemory, LabeledPointCloud, SemanticMap, ingest, Frame
from quadkit.navigation import (
    CostAssignment,
    CostMap,
    TerrainCost,
    assign_costs,
    build_cost_map,
    descend_field,
    extract_path,
    fmm_solve,
    frontier_cells,
    frontier_goal,
    global_goal,
    instance_centroid,
    path_from_cells,
    plan_to_target,
    snap_to_free,
)


def uniform_costmap(m=40, cost=0.0):
    return CostMap(costs=np.full((m, m), float(cost)),
                   gait=np.zeros((m, m), np.int8), cell_size=0.05)


def explored_map(categories=("floor",), m=60):
    """Semantic map with everything explored (no frontier)."""
    smap = SemanticMap(categories, m=m, cell_size=0.05)
    smap.explored[:] = 1
    return smap


def test_assign_costs_fills_defaults_for_unlisted_categories():
    gw = make_gateway([("cost_map", fixture_text("cost_reply_kitchen.json"))])
    observed = ["light wooden floor", "gray tiles", "metal steps", "red carpet"]
    assignment = assign_costs("Go to the red cabinet in the kitchen", observed, gw)
    assert assignment.target_object == "red cabinet"
    carpet = assignment.cost_of("red carpet")
    assert carpet.cost == 0.5 and carpet.gait == 0
    assert assignment.cost_of("metal steps").cost == 1


def test_assign_costs_retries_malformed_then_errors():
    good = fixture_text("cost_reply_kitchen.json")
    gw = make_gateway([("cost_map", "not json"), ("cost_map", good)])
    assignment = assign_costs("Go", ["gray tiles"], gw)
    assert assignment.target_object == "red cabinet"
    gw = make_gateway([("cost_map", "not json"), ("cost_map", "still not json")])
    with pytest.raises(ParseError):
        assign_costs("Go", ["gray tiles"], gw)


def test_assign_costs_requires_categories():
    with pytest.raises(ValueError):
        assign_costs("Go", [], make_gateway([]))


def test_build_cost_map_unexplored_default():
    smap = SemanticMap(["floor"], m=40)
    assignment = CostAssignment("x", (), (TerrainCost("floor", 0.0, 0),))
    cm = build_cost_map(smap, assignment)
    assert np.all(cm.costs == 0.5)


def test_build_cost_map_rules():
    smap = explored_map(("floor", "rug", "steps"), m=40)
    # floor everywhere, a rug patch, an impassable steps region
    smap.grid[0][:, :] = 1
    smap.grid[1][10:15, 10:15] = 2
    smap.grid[2][30:35, 5:10] = 3
    assignment = CostAssignment("box", (), (
        TerrainCost("floor", 0.0, 0), TerrainCost("rug", 0.4, 1),
        TerrainCost("steps", 1.0, 1)))
    cm = build_cost_map(smap, assignment)
    assert cm.costs[0, 0] == 0.0
    assert cm.costs[12, 12] == 0.4          # max(floor 0, rug 0.4)
    assert cm.gait[12, 12] == 1             # rug dominates the cell
    assert cm.obstacle_mask[32, 7]
    assert not cm.obstacle_mask[12, 12]


def test_build_cost_map_obstacle_categories_force_one():
    smap = explored_map(("floor", "table"), m=30)
    smap.grid[1][5:8, 5:8] = 1
    assignment = CostAssignment("box", ("table",), (TerrainCost("floor", 0.0, 0),))
    cm = build_cost_map(smap, assignment)
    assert cm.obstacle_mask[6, 6]


def test_build_cost_map_zero_costs_ablation():
    smap = explored_map(("floor", "steps"), m=30)
    smap.grid[1][5:8, 5:8] = 1
    assignment = CostAssignment("box", (), (TerrainCost("steps", 1.0, 1),))
    cm = build_cost_map(smap, assignment, zero_costs=True)
    assert not cm.obstacle_mask.any()
    assert np.all(cm.costs == 0.0)



CATEGORY_NAMES = ("floor", "rug", "box", "steps", "grass")


@st.composite
def cost_scenes(draw):
    """A small semantic map and a cost reply for it. Category regions overlap
    (the channel values are instance ids), a channel may be empty, the costs
    tie often, the reply may omit categories or list ones the map lacks, and
    obstacle names may or may not be on the map."""
    m = draw(st.integers(1, 8))
    categories = list(CATEGORY_NAMES[:draw(st.integers(1, len(CATEGORY_NAMES)))])
    smap = SemanticMap(categories, m=m, cell_size=0.05)
    ids = st.lists(st.sampled_from([0, 0, 1, 2]), min_size=m * m, max_size=m * m)
    for ci in range(len(categories)):
        if draw(st.booleans()):  # otherwise the channel stays empty
            smap.grid[ci] = np.array(draw(ids)).reshape(m, m)
    explored = st.lists(st.booleans(), min_size=m * m, max_size=m * m)
    smap.explored[:] = np.array(draw(explored)).reshape(m, m)
    cost = st.one_of(st.sampled_from([0, 1, 0.0, 0.3, 0.5, 1.0]), st.floats(0.0, 1.0))
    replied = draw(st.lists(st.sampled_from(CATEGORY_NAMES), unique=True))
    terrain = tuple(TerrainCost(name, draw(cost), draw(st.integers(0, 1))) for name in replied)
    obstacles = tuple(draw(st.lists(st.sampled_from(CATEGORY_NAMES + ("chair",)), unique=True)))
    return smap, CostAssignment("x", obstacles, terrain)


@settings(max_examples=300, deadline=None)
@given(scene=cost_scenes(), unexplored_cost=st.floats(0.0, 1.0), zero_costs=st.booleans())
def test_build_cost_map_equals_the_reference(scene, unexplored_cost, zero_costs):
    smap, assignment = scene
    got = build_cost_map(smap, assignment, unexplored_cost, zero_costs)
    want = build_cost_map_reference(smap, assignment, unexplored_cost, zero_costs)
    assert got.costs.dtype == want.costs.dtype and got.gait.dtype == want.gait.dtype
    assert np.array_equal(got.costs, want.costs)
    assert np.array_equal(got.gait, want.gait)


def map_480():
    """A 480 x 480 semantic map: a floor band, an overlapping rug, boxes, and
    an unexplored margin."""
    smap = SemanticMap(["floor", "rug", "box"], m=480, cell_size=0.05)
    smap.explored[40:440, 40:440] = 1
    smap.grid[0][40:440, 40:440] = 1
    smap.grid[1][200:300, 100:400] = 2
    for r in range(60, 420, 90):
        smap.grid[2][r:r + 20, 150:170] = 3
    assignment = CostAssignment("box", ("box",), (
        TerrainCost("floor", 0.0, 0), TerrainCost("rug", 0.3, 1)))
    return smap, assignment


def test_build_cost_map_holds_under_one_and_a_half_grids():
    smap, assignment = map_480()
    cm, peak = traced_peak_over_entry(lambda: build_cost_map(smap, assignment))
    # the costs and the byte-per-cell gait, settled and present masks
    assert peak < 1.5 * GRID_480
    assert np.array_equal(cm.costs, build_cost_map_reference(smap, assignment).costs)


def test_fmm_solve_holds_under_one_and_a_half_grids():
    cm = build_cost_map(*map_480())
    field, peak = traced_peak_over_entry(lambda: fmm_solve(cm, (250, 250)))
    # the padded times, whose view is the field, the byte-per-cell flags and
    # level index, and the heap
    assert peak < 1.5 * GRID_480
    assert np.isfinite(field.times).sum() > 100_000


def test_fmm_axis_distances_at_unit_speed():
    cm = uniform_costmap(m=41, cost=0.0)
    field = fmm_solve(cm, (20, 20))
    for k in (1, 5, 10, 20):
        assert abs(field.times[20, 20 + k] - k * 0.05) < 1e-9
        assert abs(field.times[20 - k, 20] - k * 0.05) < 1e-9
    assert field.times[20, 20] == 0.0


def test_fmm_obstacle_ring_unreachable():
    cm = uniform_costmap(m=21)
    cm.costs[8:13, 8] = 1.0
    cm.costs[8:13, 12] = 1.0
    cm.costs[8, 8:13] = 1.0
    cm.costs[12, 8:13] = 1.0
    field = fmm_solve(cm, (10, 10))
    assert math.isfinite(field.times[10, 10])
    assert math.isfinite(field.times[9, 9])  # inside the ring
    assert not math.isfinite(field.times[0, 0])
    assert not math.isfinite(field.times[10, 8])  # the wall itself


def test_fmm_goal_on_obstacle_rejected():
    cm = uniform_costmap(m=11)
    cm.costs[5, 5] = 1.0
    with pytest.raises(ValueError):
        fmm_solve(cm, (5, 5))


def test_fmm_monotone_in_costs():
    rng = np.random.default_rng(2)
    costs = rng.choice([0.0, 0.3, 0.6], size=(30, 30))
    cm = CostMap(costs=costs.copy(), gait=np.zeros((30, 30), np.int8), cell_size=0.05)
    base = fmm_solve(cm, (15, 15)).times
    costs2 = costs.copy()
    costs2[10, 10] = 0.9
    cm2 = CostMap(costs=costs2, gait=np.zeros((30, 30), np.int8), cell_size=0.05)
    raised = fmm_solve(cm2, (15, 15)).times
    assert np.all(raised >= base - 1e-12)


def test_fmm_within_tolerance_of_dijkstra_oracle():
    rng = np.random.default_rng(99)
    for _ in range(10):
        coarse = rng.choice([0.0, 0.3, 0.6], size=(5, 5))
        costs = np.kron(coarse, np.ones((10, 10)))
        costs[rng.random((50, 50)) < 0.10] = 1.0
        cm = CostMap(costs=costs, gait=np.zeros((50, 50), np.int8), cell_size=0.05)
        free = np.argwhere(~cm.obstacle_mask)
        while True:
            s = free[rng.integers(len(free))]
            g = free[rng.integers(len(free))]
            if abs(s[0] - g[0]) + abs(s[1] - g[1]) >= 40:
                break
        start, goal = tuple(s), tuple(g)
        field = fmm_solve(cm, goal)
        oracle = dijkstra_times(costs, goal)
        fmm_unreachable = not math.isfinite(field.times[start])
        assert fmm_unreachable == (not math.isfinite(oracle[start]))
        if not fmm_unreachable:
            assert abs(field.times[start] - oracle[start]) <= 0.10 * oracle[start]


def test_extract_path_adjacent_start():
    cm = uniform_costmap(m=11)
    field = fmm_solve(cm, (5, 5))
    plan = extract_path(field, (5, 6), cm)
    assert plan.cells == [(5, 6), (5, 5)]
    assert len(plan.actions) == 1


def test_extract_path_corridor_is_straight():
    cm = uniform_costmap(m=9)
    cm.costs[:4, :] = 1.0
    cm.costs[5:, :] = 1.0  # only row 4 is open
    field = fmm_solve(cm, (4, 8))
    plan = extract_path(field, (4, 0), cm, initial_yaw=0.0)
    assert plan.cells == [(4, c) for c in range(9)]
    assert abs(plan.actions[0][2]) < 1e-12  # already heading east
    for (_, _, dyaw) in plan.actions[1:]:
        assert abs(dyaw) < 1e-12


def test_extract_path_descends_strictly_and_avoids_obstacles():
    rng = np.random.default_rng(17)
    costs = rng.choice([0.0, 0.3], size=(40, 40))
    costs[rng.random((40, 40)) < 0.1] = 1.0
    costs[0, 0] = 0.0
    costs[39, 39] = 0.0
    cm = CostMap(costs=costs, gait=np.zeros((40, 40), np.int8), cell_size=0.05)
    field = fmm_solve(cm, (39, 39))
    if math.isfinite(field.times[0, 0]):
        plan = extract_path(field, (0, 0), cm)
        times = [field.times[c] for c in plan.cells]
        assert all(a > b for a, b in zip(times, times[1:]))
        assert not any(cm.obstacle_mask[c] for c in plan.cells)
        assert plan.cells[-1] == (39, 39)
        for (a, b) in zip(plan.cells, plan.cells[1:]):
            assert max(abs(a[0] - b[0]), abs(a[1] - b[1])) == 1


def test_extract_path_gait_flags_follow_cell_bits():
    cm = uniform_costmap(m=9)
    cm.gait[:, 4:7] = 1
    field = fmm_solve(cm, (4, 8))
    plan = extract_path(field, (4, 0), cm)
    flags = plan.gait_flags
    cells = plan.cells[1:]
    for cell, flag in zip(cells, flags):
        assert flag == int(cm.gait[cell])
    assert any(flags) and not all(flags)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 30), yaw=st.floats(-3.2, 3.2),
       origin=st.sampled_from([(0.0, 0.0), (0.3, -0.45)]))
def test_path_from_cells_builds_the_descent_either_way(seed, m, yaw, origin):
    rng = np.random.default_rng(seed)
    costs = rng.choice([0.0, 0.3, 0.8], size=(m, m))
    costs[rng.random((m, m)) < 0.15] = 1.0
    goal = (int(rng.integers(m)), int(rng.integers(m)))
    costs[goal] = 0.0
    cm = CostMap(costs=costs, gait=rng.integers(0, 2, (m, m)).astype(np.int8), cell_size=0.05,
                 origin=origin)
    field = fmm_solve(cm, goal)
    start = divmod(int(np.argmax(np.where(np.isfinite(field.times), field.times, -1.0))), m)
    cells = descend_field(field, start)
    forward = extract_path(field, start, cm, initial_yaw=yaw)
    assert forward == path_from_cells(cells, cm, yaw)
    # reversed: the path from the field's root out to ``start``
    back = path_from_cells(cells[::-1], cm, yaw)
    assert back.cells == cells[::-1] and back.world == forward.world[::-1]
    assert back.gait_flags == [int(cm.gait[cell]) for cell in cells[::-1][1:]]
    assert ([(dx, dy) for dx, dy, _ in back.actions]
            == [(-dx, -dy) for dx, dy, _ in reversed(forward.actions)])
    heading = yaw
    for dx, dy, dyaw in back.actions:
        assert dyaw == math.remainder(math.atan2(dy, dx) - heading, math.tau)
        heading = math.atan2(dy, dx)


def test_extract_path_unreachable_start():
    cm = uniform_costmap(m=11)
    cm.costs[:, 5] = 1.0  # wall splits the map
    field = fmm_solve(cm, (5, 8))
    with pytest.raises(UnreachableError):
        extract_path(field, (5, 2), cm)


def test_frontier_cells_and_goal():
    smap = SemanticMap(["floor"], m=20)
    explored = smap.explored
    explored[5:15, 5:15] = 1
    cm = uniform_costmap(m=20)
    cells = cells_of(frontier_cells(smap, cm))
    # the frontier is the explored boundary band
    assert (5, 5) in cells and (14, 14) in cells
    assert (10, 10) not in cells
    goal = frontier_goal(smap, cm, (10, 10))
    assert goal in cells


def assert_frontier_matches_oracle(explored, obstacles):
    m = len(explored)
    smap = SemanticMap(["floor"], m=m)
    smap.explored[:] = explored
    cm = uniform_costmap(m=m)
    cm.costs[obstacles] = 1.0
    oracle = {cell for cell in chebyshev_dilation(cells_of(~explored), 1, m)
              if explored[cell] and not obstacles[cell]}
    got = frontier_cells(smap, cm)
    assert cells_of(got) == oracle
    near_unknown = ndimage.binary_dilation(~explored, structure=np.ones((3, 3), dtype=bool))
    assert np.array_equal(got, explored & near_unknown & ~obstacles)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_frontier_cells_are_explored_passable_cells_next_to_unexplored_space(data):
    m = data.draw(st.integers(1, 12))
    masks = st.lists(st.booleans(), min_size=m * m, max_size=m * m)
    explored = np.array(data.draw(masks)).reshape(m, m)
    obstacles = np.array(data.draw(masks)).reshape(m, m)
    assert_frontier_matches_oracle(explored, obstacles)


@pytest.mark.parametrize("m", [1, 2])
def test_frontier_cells_match_oracle_on_every_tiny_grid(m):
    for bits in itertools.product((False, True), repeat=2 * m * m):
        grids = np.array(bits).reshape(2, m, m)
        assert_frontier_matches_oracle(grids[0], grids[1])


def test_frontier_goal_single_candidate():
    smap = SemanticMap(["floor"], m=10)
    explored = smap.explored
    explored[:, :] = 1
    explored[0, 0] = 0  # single unexplored corner
    cm = uniform_costmap(m=10)
    goal = frontier_goal(smap, cm, (5, 5))
    assert goal in {(0, 1), (1, 0), (1, 1)}
    # exact: nearest frontier cell by arrival time, ties lexicographic
    field = fmm_solve(cm, (5, 5))
    frontiers = cells_of(frontier_cells(smap, cm))
    oracle = min(frontiers, key=lambda cell: (field.times[cell], cell[0], cell[1]))
    assert goal == oracle


def test_frontier_goal_geodesic_not_euclidean():
    smap = SemanticMap(["floor"], m=21)
    explored = smap.explored
    explored[:, :] = 1
    # two unexplored pockets: one euclidean-near but walled off, one farther but open
    explored[10, 2] = 0
    explored[10, 18] = 0
    cm = uniform_costmap(m=21)
    cm.costs[:20, 5] = 1.0  # wall with a gap only at the top row
    start = (10, 8)
    goal = frontier_goal(smap, cm, start)
    oracle = dijkstra_times(cm.costs, start)
    frontiers = [f for f in cells_of(frontier_cells(smap, cm)) if math.isfinite(oracle[f])]
    nearest = min(frontiers, key=lambda cell: (oracle[cell], cell[0], cell[1]))
    # both the implementation and the oracle prefer the right-hand pocket
    assert abs(goal[1] - 18) <= 1
    assert abs(nearest[1] - 18) <= 1


def test_frontier_exploration_complete():
    smap = explored_map(m=10)
    cm = uniform_costmap(m=10)
    with pytest.raises(ExplorationComplete):
        frontier_goal(smap, cm, (5, 5))


def test_frontier_goal_names_a_bad_start_cell():
    smap = SemanticMap(["floor", "chair"], m=20)
    smap.explored[5:15, 5:15] = 1
    cm = uniform_costmap(m=20)
    cm.costs[10, 10] = 1.0
    with pytest.raises(ValueError, match=r"^start cell \(10, 10\) is impassable$"):
        frontier_goal(smap, cm, (10, 10))
    with pytest.raises(ValueError, match=r"^start cell \(20, 3\) is outside the 20x20 grid$"):
        frontier_goal(smap, cm, (20, 3))
    # plan_to_target reports the frontier step's message as its error
    goal, field, plan, error = plan_to_target("chair", InstanceMemory(smap, p=2), cm, (10, 10))
    assert (goal, field, plan) == (None, None, None)
    assert error == "start cell (10, 10) is impassable"


def test_global_goal_memory_hit_and_snap():
    smap = explored_map(("floor", "chair"), m=40)
    memory = InstanceMemory(smap, p=2)
    frame = Frame(index=0, pose=(0.0, 0.0, 0.0),
                  cloud=LabeledPointCloud(((0.5, 0.5, 0.2, 1), (0.55, 0.5, 0.2, 1))))
    ingest(smap, memory, frame)
    cm = uniform_costmap(m=40)
    rec = next(iter(memory.instances.values()))
    goal = global_goal("chair", memory, cm, (5, 5))
    assert goal == instance_centroid(rec.cells)
    # snapped off an obstacle cell
    cm.costs[goal] = 1.0
    goal2 = global_goal("chair", memory, cm, (5, 5))
    assert goal2 != goal
    assert not cm.obstacle_mask[goal2]
    assert abs(goal2[0] - goal[0]) <= 1 and abs(goal2[1] - goal[1]) <= 1


def test_global_goal_falls_back_to_frontier():
    smap = SemanticMap(["floor", "chair"], m=20)
    smap.explored[5:15, 5:15] = 1
    memory = InstanceMemory(smap, p=2)
    cm = uniform_costmap(m=20)
    goal = global_goal("chair", memory, cm, (10, 10))
    assert goal in cells_of(frontier_cells(smap, cm))


def test_global_goal_requires_explored_cells():
    smap = SemanticMap(["floor"], m=10)
    cm = uniform_costmap(m=10)
    with pytest.raises(ValueError):
        global_goal("floor", InstanceMemory(smap, 2), cm, (5, 5))


def test_snap_to_free_prefers_nearest_then_lexicographic():
    cm = uniform_costmap(m=10)
    assert snap_to_free(cm, (4, 4)) == (4, 4)
    cm.costs[4, 4] = 1.0
    snapped = snap_to_free(cm, (4, 4))
    assert snapped == (3, 4)  # four cells at distance 1; (row, col) order breaks the tie


def obstacle_costmap(obstacles):
    return CostMap(costs=obstacles.astype(float), gait=np.zeros(obstacles.shape, np.int8),
                   cell_size=0.05)


def assert_snaps_like_oracle(obstacles, start):
    expected = nearest_free_cell(obstacles, start)
    if expected is None:
        with pytest.raises(UnreachableError):
            snap_to_free(obstacle_costmap(obstacles), start)
        return
    snapped = snap_to_free(obstacle_costmap(obstacles), start)
    assert snapped == expected
    assert all(type(v) is int for v in snapped)


@pytest.mark.parametrize("seed", range(8))
def test_snap_to_free_matches_oracle_on_random_grids(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 24))
    for density in (0.1, 0.5, 0.9, 0.99, 1.0):
        grid = rng.random((m, m)) < density
        inner = (int(rng.integers(0, m)), int(rng.integers(0, m)))
        for r, c in (inner, (0, inner[1]), (inner[0], m - 1), (m - 1, 0), (0, 0)):
            obstacles = grid.copy()
            half = int(rng.integers(0, 4))  # the nearest free cells lie beyond this block
            obstacles[max(0, r - half):r + half + 1, max(0, c - half):c + half + 1] = True
            assert_snaps_like_oracle(obstacles, (r, c))


@pytest.mark.parametrize("shape", [(1, 1), (1, 9), (2, 2), (6, 3), (17, 17), (40, 23)])
def test_snap_to_free_matches_oracle_on_edges_corners_and_blocked_maps(shape):
    m, n = shape
    corners = [(0, 0), (0, n - 1), (m - 1, 0), (m - 1, n - 1)]
    starts = corners + [(0, n // 2), (m // 2, 0), (m - 1, n // 2), (m // 2, n - 1),
                        (m // 2, n // 2)]
    blocked = np.ones(shape, dtype=bool)
    for start in starts:
        assert_snaps_like_oracle(blocked, start)  # no passable cell at all
        for free in corners:  # a single free cell, in the far corner among others
            obstacles = blocked.copy()
            obstacles[free] = False
            assert_snaps_like_oracle(obstacles, start)
        obstacles = np.zeros(shape, dtype=bool)
        obstacles[start] = True
        assert_snaps_like_oracle(obstacles, start)


@pytest.mark.parametrize("d2", [1, 2, 5, 25, 50, 65])
def test_snap_to_free_breaks_ties_among_equidistant_cells(d2):
    # every cell closer than sqrt(d2) is blocked, so all free cells at squared
    # distance d2 (up to 16 of them for 65) tie for nearest
    m = 21
    rows, cols = np.mgrid[0:m, 0:m]
    for start in ((10, 10), (0, 10), (10, 20), (20, 0)):
        obstacles = (rows - start[0]) ** 2 + (cols - start[1]) ** 2 < d2
        assert_snaps_like_oracle(obstacles, start)


def test_exports(tmp_path):
    cm = uniform_costmap(m=10, cost=0.25)
    cm.to_pgm(tmp_path / "cost.pgm")
    field = fmm_solve(cm, (5, 5))
    field.to_csv(tmp_path / "arrival.csv")
    plan = extract_path(field, (0, 0), cm)
    plan.to_jsonl(tmp_path / "plan.jsonl")
    assert (tmp_path / "cost.pgm").read_text().startswith("P2")
    rows = np.loadtxt(tmp_path / "arrival.csv", delimiter=",")
    assert rows.shape == (10, 10)
    assert len((tmp_path / "plan.jsonl").read_text().splitlines()) == len(plan.cells)


def test_assign_costs_empty_terrain_reply_all_defaults():
    import json as _json
    reply = _json.dumps({"target_object": "mug", "obstacles": [], "terrain": []})
    gw = make_gateway([("cost_map", reply)])
    assignment = assign_costs("Find the mug", ["floor", "rug"], gw)
    assert {t.type for t in assignment.terrain} == {"floor", "rug"}
    assert all(t.cost == 0.5 and t.gait == 0 for t in assignment.terrain)


def test_instance_centroid_returns_python_ints():
    mask = np.zeros((20, 20), dtype=bool)
    mask[3:6, 10:14] = True
    centroid = instance_centroid(mask)
    assert centroid == (4, 12)
    assert all(type(v) is int for v in centroid)
    assert json.loads(json.dumps(centroid)) == [4, 12]


def test_global_goal_takes_the_lowest_id_of_a_duplicated_category():
    smap = explored_map(("floor", "chair"), m=60)
    memory = InstanceMemory(smap, p=2)
    # two chair instances far apart
    ingest(smap, memory, Frame(index=0, pose=(0.0, 0.0, 0.0),
                               cloud=LabeledPointCloud(((1.0, 1.0, 0.2, 1),))))
    ingest(smap, memory, Frame(index=1, pose=(0.0, 0.0, 0.0),
                               cloud=LabeledPointCloud(((-1.0, -1.0, 0.2, 1),))))
    assert len(memory) == 2
    cm = uniform_costmap(m=60)
    first, second = sorted(memory.instances)
    by_name = global_goal("chair", memory, cm, (30, 30))
    assert by_name == instance_centroid(memory.instances[first].cells)
    assert by_name != instance_centroid(memory.instances[second].cells)


def test_plan_to_target_reports_the_failing_step():
    smap = explored_map(("floor", "chair"), m=40)
    memory = InstanceMemory(smap, p=2)
    ingest(smap, memory, Frame(index=0, pose=(0.0, 0.0, 0.0),
                               cloud=LabeledPointCloud(((0.5, 0.5, 0.2, 1),))))
    cm = uniform_costmap(m=40)
    goal, field, plan, error = plan_to_target("chair", memory, cm, (5, 5))
    assert error is None
    assert goal == instance_centroid(next(iter(memory.instances.values())).cells)
    assert plan.cells[0] == (5, 5) and plan.cells[-1] == goal
    assert field.times[goal] == 0.0
    # wall the start in: the field exists, the path does not
    cm.costs[3:8, 3:8] = 1.0
    cm.costs[5, 5] = 0.0
    goal, field, plan, error = plan_to_target("chair", memory, cm, (5, 5))
    assert goal is not None and field is not None and plan is None
    assert "cannot reach" in error
    # a start outside the grid fails at the path step instead of wrapping
    goal, field, plan, error = plan_to_target("chair", memory, cm, (-1, 5))
    assert field is not None and plan is None
    assert error == "start cell (-1, 5) is outside the 40x40 grid"
    # no goal at all: a fully explored map without the category has no frontier
    goal, field, plan, error = plan_to_target("sofa", memory, cm, (5, 5))
    assert (goal, field, plan) == (None, None, None)
    assert "no frontier" in error
