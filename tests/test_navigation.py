import json
import math

import numpy as np
import pytest

from conftest import fixture_text, make_gateway
from oracles import dijkstra_times
from quadkit.errors import ExplorationComplete, ParseError, SchemaError, UnreachableError
from quadkit.mapping import InstanceMemory, LabeledPointCloud, SemanticMap, ingest, Frame
from quadkit.navigation import (
    CostAssignment,
    CostMap,
    TerrainCost,
    assign_costs,
    build_cost_map,
    extract_path,
    fmm_solve,
    frontier_cells,
    frontier_goal,
    global_goal,
    instance_centroid,
    plan_to_target,
    snap_to_free,
)


def uniform_costmap(m=40, cost=0.0):
    return CostMap(costs=np.full((m, m), float(cost)),
                   gait=np.zeros((m, m), np.int8), cell_size=0.05)


def explored_map(categories=("floor",), m=60):
    """Semantic map with everything explored (no frontier)."""
    smap = SemanticMap(categories, m=m, cell_size=0.05)
    smap.grid[smap.explored_channel][:] = 1
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


def test_extract_path_unreachable_start():
    cm = uniform_costmap(m=11)
    cm.costs[:, 5] = 1.0  # wall splits the map
    field = fmm_solve(cm, (5, 8))
    with pytest.raises(UnreachableError):
        extract_path(field, (5, 2), cm)


def test_frontier_cells_and_goal():
    smap = SemanticMap(["floor"], m=20)
    explored = smap.grid[smap.explored_channel]
    explored[5:15, 5:15] = 1
    cm = uniform_costmap(m=20)
    cells = frontier_cells(smap, cm)
    # the frontier is the explored boundary band
    assert (5, 5) in cells and (14, 14) in cells
    assert (10, 10) not in cells
    goal = frontier_goal(smap, cm, (10, 10))
    assert goal in cells


def test_frontier_goal_single_candidate():
    smap = SemanticMap(["floor"], m=10)
    explored = smap.grid[smap.explored_channel]
    explored[:, :] = 1
    explored[0, 0] = 0  # single unexplored corner
    cm = uniform_costmap(m=10)
    goal = frontier_goal(smap, cm, (5, 5))
    assert goal in {(0, 1), (1, 0), (1, 1)}
    # exact: nearest frontier cell by arrival time, ties lexicographic
    field = fmm_solve(cm, (5, 5))
    frontiers = frontier_cells(smap, cm)
    oracle = min(frontiers, key=lambda cell: (field.times[cell], cell[0], cell[1]))
    assert goal == oracle


def test_frontier_goal_geodesic_not_euclidean():
    smap = SemanticMap(["floor"], m=21)
    explored = smap.grid[smap.explored_channel]
    explored[:, :] = 1
    # two unexplored pockets: one euclidean-near but walled off, one farther but open
    explored[10, 2] = 0
    explored[10, 18] = 0
    cm = uniform_costmap(m=21)
    cm.costs[:20, 5] = 1.0  # wall with a gap only at the top row
    start = (10, 8)
    goal = frontier_goal(smap, cm, start)
    oracle = dijkstra_times(cm.costs, start)
    frontiers = [f for f in frontier_cells(smap, cm) if math.isfinite(oracle[f])]
    nearest = min(frontiers, key=lambda cell: (oracle[cell], cell[0], cell[1]))
    # both the implementation and the oracle prefer the right-hand pocket
    assert abs(goal[1] - 18) <= 1
    assert abs(nearest[1] - 18) <= 1


def test_frontier_exploration_complete():
    smap = explored_map(m=10)
    cm = uniform_costmap(m=10)
    with pytest.raises(ExplorationComplete):
        frontier_goal(smap, cm, (5, 5))


def test_global_goal_memory_hit_and_snap():
    smap = explored_map(("floor", "chair"), m=40)
    memory = InstanceMemory(p=2)
    frame = Frame(index=0, pose=(0.0, 0.0, 0.0),
                  cloud=LabeledPointCloud(((0.5, 0.5, 0.2, 1), (0.55, 0.5, 0.2, 1))))
    ingest(smap, memory, frame)
    cm = uniform_costmap(m=40)
    rec = next(iter(memory.instances.values()))
    goal = global_goal("chair", memory, smap, cm, (5, 5))
    assert goal == instance_centroid(rec.cells)
    # snapped off an obstacle cell
    cm.costs[goal] = 1.0
    goal2 = global_goal("chair", memory, smap, cm, (5, 5))
    assert goal2 != goal
    assert not cm.obstacle_mask[goal2]
    assert abs(goal2[0] - goal[0]) <= 1 and abs(goal2[1] - goal[1]) <= 1


def test_global_goal_instance_id_direct():
    smap = explored_map(("floor", "chair"), m=40)
    memory = InstanceMemory(p=2)
    ingest(smap, memory, Frame(index=0, pose=(0.0, 0.0, 0.0),
                               cloud=LabeledPointCloud(((0.5, 0.5, 0.2, 1),))))
    cm = uniform_costmap(m=40)
    iid = next(iter(memory.instances))
    goal = global_goal(iid, memory, smap, cm, (5, 5))
    assert goal == instance_centroid(memory.instances[iid].cells)
    with pytest.raises(ValueError):
        global_goal(999, memory, smap, cm, (5, 5))


def test_global_goal_falls_back_to_frontier():
    smap = SemanticMap(["floor", "chair"], m=20)
    smap.grid[smap.explored_channel][5:15, 5:15] = 1
    memory = InstanceMemory(p=2)
    cm = uniform_costmap(m=20)
    goal = global_goal("chair", memory, smap, cm, (10, 10))
    assert goal in frontier_cells(smap, cm)


def test_global_goal_requires_explored_cells():
    smap = SemanticMap(["floor"], m=10)
    cm = uniform_costmap(m=10)
    with pytest.raises(ValueError):
        global_goal("floor", InstanceMemory(2), smap, cm, (5, 5))


def test_snap_to_free_prefers_nearest_then_lexicographic():
    cm = uniform_costmap(m=10)
    assert snap_to_free(cm, (4, 4)) == (4, 4)
    cm.costs[4, 4] = 1.0
    snapped = snap_to_free(cm, (4, 4))
    assert snapped == (3, 4)  # four cells at distance 1; (row, col) order breaks the tie


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
    assert len((tmp_path / "plan.jsonl").read_text().splitlines()) == len(plan.waypoints)


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


def test_global_goal_id_lookup_ignores_category_duplicates():
    smap = explored_map(("floor", "chair"), m=60)
    memory = InstanceMemory(p=2)
    # two chair instances far apart
    ingest(smap, memory, Frame(index=0, pose=(0.0, 0.0, 0.0),
                               cloud=LabeledPointCloud(((1.0, 1.0, 0.2, 1),))))
    ingest(smap, memory, Frame(index=1, pose=(0.0, 0.0, 0.0),
                               cloud=LabeledPointCloud(((-1.0, -1.0, 0.2, 1),))))
    assert len(memory) == 2
    cm = uniform_costmap(m=60)
    first, second = sorted(memory.instances)
    by_name = global_goal("chair", memory, smap, cm, (30, 30))
    assert by_name == instance_centroid(memory.instances[first].cells)
    by_id = global_goal(second, memory, smap, cm, (30, 30))
    assert by_id == instance_centroid(memory.instances[second].cells)
    assert by_id != by_name


def test_plan_to_target_reports_the_failing_step():
    smap = explored_map(("floor", "chair"), m=40)
    memory = InstanceMemory(p=2)
    ingest(smap, memory, Frame(index=0, pose=(0.0, 0.0, 0.0),
                               cloud=LabeledPointCloud(((0.5, 0.5, 0.2, 1),))))
    cm = uniform_costmap(m=40)
    goal, field, plan, error = plan_to_target("chair", memory, smap, cm, (5, 5))
    assert error is None
    assert goal == instance_centroid(next(iter(memory.instances.values())).cells)
    assert plan.cells[0] == (5, 5) and plan.cells[-1] == goal
    assert field.times[goal] == 0.0
    # wall the start in: the field exists, the path does not
    cm.costs[3:8, 3:8] = 1.0
    cm.costs[5, 5] = 0.0
    goal, field, plan, error = plan_to_target("chair", memory, smap, cm, (5, 5))
    assert goal is not None and field is not None and plan is None
    assert "cannot reach" in error
    # no goal at all: a fully explored map without the category has no frontier
    goal, field, plan, error = plan_to_target("sofa", memory, smap, cm, (5, 5))
    assert (goal, field, plan) == (None, None, None)
    assert "no frontier" in error
