"""The flat-array fast-marching kernel against the per-cell reference solver.

Every comparison is ``np.array_equal``: the kernel must reproduce the
reference's arrival times bit for bit, +inf cells included. A solve that stops
early (``stop_at``) must reproduce them on every cell it froze, freeze exactly
the cells at or below its first stop cell's time, and leave frontier choice
and path descent as the full field gives them.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import cells_of, fmm_solve_reference
from quadkit.bench import asset_path
from quadkit.config import ToolkitConfig
from quadkit.errors import ExplorationComplete, UnreachableError
from quadkit.gateway import Gateway, ScriptedProvider
from quadkit.mapping import SemanticMap, load_scene
from quadkit.navigation import (
    CostMap,
    _tau_levels,
    assign_costs,
    build_cost_map,
    extract_path,
    fmm_solve,
    frontier_cells,
    frontier_goal,
)
from quadkit.tasks import World


def costmap_of(costs, cell_size=0.05):
    costs = np.asarray(costs, dtype=float)
    return CostMap(costs=costs, gait=np.zeros(costs.shape, np.int8), cell_size=cell_size)


def random_costs(rng, shape, obstacle_share=0.15):
    costs = rng.choice([0.0, 0.3, 0.5, 0.8, 0.999], size=shape)
    costs = np.where(rng.random(shape) < 0.5, rng.random(shape), costs)
    costs[rng.random(shape) < obstacle_share] = 1.0
    return costs


def assert_matches_reference(cm, goal, speed_floor=0.05):
    kernel = fmm_solve(cm, goal, speed_floor)
    reference = fmm_solve_reference(cm, goal, speed_floor)
    assert kernel.times.dtype == np.float64
    assert kernel.times.shape == cm.costs.shape
    assert np.array_equal(kernel.times, reference.times)
    return kernel.times


@pytest.mark.parametrize("shape", [(1, 1), (1, 9), (9, 1), (5, 12), (12, 5), (17, 3)])
def test_kernel_matches_reference_on_any_shape(shape):
    rng = np.random.default_rng(sum(shape))
    costs = random_costs(rng, shape)
    goal = (shape[0] // 2, shape[1] // 2)
    costs[goal] = 0.0
    assert_matches_reference(costmap_of(costs), goal)


def test_kernel_matches_reference_with_goal_on_every_edge_and_corner():
    rng = np.random.default_rng(7)
    m, n = 9, 13
    costs = random_costs(rng, (m, n))
    goals = [(0, 0), (0, n - 1), (m - 1, 0), (m - 1, n - 1),
             (0, 6), (m - 1, 6), (4, 0), (4, n - 1)]
    for goal in goals:
        grid = costs.copy()
        grid[goal] = 0.0
        assert_matches_reference(costmap_of(grid), goal)


def test_kernel_leaves_enclosed_pockets_unreachable():
    costs = np.full((15, 15), 0.2)
    costs[4:11, 4] = costs[4:11, 10] = 1.0
    costs[4, 4:11] = costs[10, 4:11] = 1.0
    pocket = np.zeros(costs.shape, dtype=bool)
    pocket[5:10, 5:10] = True
    outside = ~pocket & (costs < 1.0)
    from_outside = assert_matches_reference(costmap_of(costs), (0, 14))
    assert np.all(np.isinf(from_outside[pocket]))
    assert np.all(np.isfinite(from_outside[outside]))
    from_inside = assert_matches_reference(costmap_of(costs), (7, 7))
    assert np.all(np.isinf(from_inside[outside]))
    assert np.all(np.isfinite(from_inside[pocket]))


@pytest.mark.parametrize("cost", [0.0, 0.5, 0.999, 1.0])
def test_kernel_matches_reference_on_each_cost_level(cost):
    rng = np.random.default_rng(int(cost * 1000))
    costs = np.where(rng.random((20, 20)) < 0.4, cost, rng.choice([0.0, 0.5, 0.999, 1.0],
                                                                   size=(20, 20)))
    costs[3, 5] = 0.0
    assert_matches_reference(costmap_of(costs), (3, 5))


@pytest.mark.parametrize("speed_floor", [0.05, 0.2, 0.6])
def test_kernel_matches_reference_where_speed_floor_clamps(speed_floor):
    rng = np.random.default_rng(11)
    costs = rng.uniform(0.7, 0.9999, size=(18, 14))
    costs[9, 7] = 0.0
    assert np.any(1.0 - costs < speed_floor)  # the clamp is exercised
    assert_matches_reference(costmap_of(costs), (9, 7), speed_floor)


@pytest.mark.parametrize("cell_size", [0.05, 0.1, 0.25])
def test_kernel_matches_reference_at_each_cell_size(cell_size):
    rng = np.random.default_rng(23)
    costs = random_costs(rng, (30, 30))
    costs[0, 29] = 0.0
    assert_matches_reference(costmap_of(costs, cell_size), (0, 29))


def test_kernel_matches_reference_on_a_random_160_grid():
    rng = np.random.default_rng(160)
    costs = random_costs(rng, (160, 160), obstacle_share=0.10)
    costs[80, 80] = 0.0
    assert_matches_reference(costmap_of(costs), (80, 80))


def test_kernel_matches_reference_on_bundled_long_horizon_cost_map():
    world = World(load_scene(asset_path("scenes", "long_horizon.jsonl")), ToolkitConfig())
    world.ingest_pending()
    gateway = Gateway(ScriptedProvider.from_file(asset_path("transcripts", "long_horizon.jsonl")))
    # The bundled scenario's config sets cost_mode "continuous".
    assignment = assign_costs("Go to the green grass.", world.smap.categories, gateway,
                              mode="continuous")
    cm = build_cost_map(world.smap, assignment)
    assert cm.m == 160
    times = assert_matches_reference(cm, world.pose_cell())
    assert np.count_nonzero(np.isfinite(times)) > 1000


@settings(max_examples=150, deadline=None)
@given(data=st.data(),
       m=st.integers(1, 10), n=st.integers(1, 10),
       cell_size=st.sampled_from([0.05, 0.1, 0.25, 0.37]),
       speed_floor=st.floats(0.01, 1.0))
def test_kernel_matches_reference_on_small_random_grids(data, m, n, cell_size, speed_floor):
    # NaN is passable (not >= 1) with a NaN crossing time; -0.0 shares 0.0's level.
    level = st.one_of(st.sampled_from([0.0, -0.0, 0.5, 0.999, 1.0, np.nan]),
                      st.floats(0.0, 1.0))
    costs = np.array(data.draw(st.lists(level, min_size=m * n, max_size=m * n))).reshape(m, n)
    goal = (data.draw(st.integers(0, m - 1)), data.draw(st.integers(0, n - 1)))
    costs[goal] = min(costs[goal], 0.999)  # a NaN goal stays NaN
    assert_matches_reference(costmap_of(costs, cell_size), goal, speed_floor)


def test_kernel_matches_reference_past_256_cost_levels():
    rng = np.random.default_rng(257)
    costs = rng.random((40, 40))
    costs[rng.random(costs.shape) < 0.1] = 1.0
    costs[:2] = [[np.nan], [-0.0]]
    costs[20, 20] = 0.0
    assert np.unique(costs).size > 256  # the level index is wider than a byte
    assert_matches_reference(costmap_of(costs), (20, 20))


@pytest.mark.parametrize("side, itemsize", [(30, 1), (40, 2), (260, 4)])
def test_level_index_reads_back_the_reference_crossing_times(side, itemsize):
    rng = np.random.default_rng(side)
    if itemsize == 1:
        costs = rng.choice([0.0, 0.3, 0.5, 0.999, 1.0, 1.5], size=(side, side))
    else:
        costs = rng.random((side, side))
    costs[0, :3] = [np.nan, -0.0, 0.0]
    taus, level = _tau_levels(costmap_of(costs), 0.05)
    assert level.itemsize == itemsize
    index = np.frombuffer(level, np.dtype(level.typecode)).reshape(side + 2, side + 2)
    tau = 0.05 / np.clip(1.0 - costs, 0.05, 1.0)  # the reference's crossing times
    assert np.array_equal(np.array(taus)[index[1:-1, 1:-1]], tau, equal_nan=True)


@pytest.mark.parametrize("goal", [(0, 0), (2, 3)])
def test_kernel_matches_reference_from_a_nan_goal(goal):
    rng = np.random.default_rng(5)
    costs = random_costs(rng, (6, 7))
    costs[goal] = np.nan
    costs[4, 1] = np.nan
    times = assert_matches_reference(costmap_of(costs), goal)
    assert times[goal] == 0.0


@pytest.mark.parametrize("cell", [(-1, 0), (0, -1), (4, 0), (0, 5)])
def test_fmm_solve_rejects_cells_outside_the_grid(cell):
    cm = costmap_of(np.zeros((4, 5)))
    with pytest.raises(ValueError, match=rf"goal cell \({cell[0]}, {cell[1]}\) is outside "
                                         r"the 4x5 grid"):
        fmm_solve(cm, cell)


@pytest.mark.parametrize("cell", [(-1, 0), (0, -1), (4, 0), (0, 5)])
def test_extract_path_rejects_starts_outside_the_grid(cell):
    cm = costmap_of(np.zeros((4, 5)))
    field = fmm_solve(cm, (3, 0))
    with pytest.raises(ValueError, match=rf"start cell \({cell[0]}, {cell[1]}\) is outside "
                                         r"the 4x5 grid"):
        extract_path(field, cell, cm)


@st.composite
def cost_grids(draw, square=False):
    """Random costs, a uniform-cost map with one obstacle wall (gapped or not),
    or a plain uniform-cost map. Uniform costs give exactly tied arrival times."""
    m = draw(st.integers(1, 12))
    n = m if square else draw(st.integers(1, 12))
    kind = draw(st.sampled_from(["random", "wall", "uniform"]))
    if kind == "random":
        level = st.one_of(st.sampled_from([0.0, 0.5, 0.999, 1.0]), st.floats(0.0, 1.0))
        return np.array(draw(st.lists(level, min_size=m * n, max_size=m * n))).reshape(m, n)
    costs = np.full((m, n), draw(st.sampled_from([0.0, 0.3, 0.5, 0.999])))
    if kind == "wall":
        if draw(st.booleans()):
            costs[draw(st.integers(0, m - 1)), :] = 1.0
        else:
            costs[:, draw(st.integers(0, n - 1))] = 1.0
        for cell in draw(st.lists(grid_cells((m, n)), max_size=2)):
            costs[cell] = 0.0
    return costs


def grid_cells(shape):
    return st.tuples(st.integers(0, shape[0] - 1), st.integers(0, shape[1] - 1))


def passable_cell(data, costs):
    cell = data.draw(grid_cells(costs.shape))
    costs[cell] = min(costs[cell], 0.999)
    return cell


def mask_of(shape, cells):
    mask = np.zeros(shape, dtype=bool)
    for cell in cells:
        mask[cell] = True
    return mask


def assert_stops_after_first_stop_cell(cm, goal, stop_at, speed_floor=0.05):
    times = fmm_solve(cm, goal, speed_floor, stop_at).times
    reference = fmm_solve_reference(cm, goal, speed_floor).times
    frozen = np.isfinite(times)
    assert np.array_equal(times[frozen], reference[frozen])
    first = reference[stop_at].min(initial=np.inf)
    # every cell at or below the first stop cell's time, ties included, and no other
    assert np.array_equal(frozen, np.isfinite(reference) & (reference <= first))
    return times


@settings(max_examples=300, deadline=None)
@given(data=st.data(), speed_floor=st.sampled_from([0.05, 0.3]))
def test_stop_at_field_is_the_reference_up_to_the_first_stop_cell(data, speed_floor):
    costs = data.draw(cost_grids())
    goal = passable_cell(data, costs)
    stop_at = mask_of(costs.shape, data.draw(st.lists(grid_cells(costs.shape), max_size=4)))
    assert_stops_after_first_stop_cell(costmap_of(costs), goal, stop_at, speed_floor)


def test_stop_at_freezes_the_stop_cells_equal_time_peers():
    # (4, 3), (4, 5) and (5, 4) tie with the stop cell (3, 4) and pop after it.
    cm = costmap_of(np.zeros((9, 9)))
    times = assert_stops_after_first_stop_cell(cm, (4, 4), mask_of((9, 9), [(3, 4)]))
    assert np.count_nonzero(np.isfinite(times)) == 5


def test_stop_at_must_match_the_grid_shape():
    with pytest.raises(ValueError, match=r"stop_at has shape \(4, 4\), not \(4, 5\)"):
        fmm_solve(costmap_of(np.zeros((4, 5))), (0, 0), stop_at=np.zeros((4, 4), dtype=bool))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_frontier_goal_is_the_full_field_minimum(data):
    costs = data.draw(cost_grids(square=True))
    m = costs.shape[0]
    start = passable_cell(data, costs)
    smap = SemanticMap(["floor"], m=m)
    r0, r1 = sorted(data.draw(st.lists(st.integers(0, m), min_size=2, max_size=2)))
    c0, c1 = sorted(data.draw(st.lists(st.integers(0, m), min_size=2, max_size=2)))
    explored = smap.explored
    explored[r0:r1, c0:c1] = 1
    for cell in data.draw(st.lists(grid_cells((m, m)), max_size=3)):
        explored[cell] = 0
    cm = costmap_of(costs)
    times = fmm_solve_reference(cm, start).times
    reachable = [cell for cell in cells_of(frontier_cells(smap, cm))
                 if np.isfinite(times[cell])]
    if not reachable:
        with pytest.raises(ExplorationComplete):
            frontier_goal(smap, cm, start)
        return
    oracle = min(reachable, key=lambda cell: (times[cell], cell[0], cell[1]))
    assert frontier_goal(smap, cm, start) == oracle


def descend(field, start, cm, yaw):
    try:
        plan = extract_path(field, start, cm, initial_yaw=yaw)
    except UnreachableError as err:
        return str(err)
    return plan.cells, plan.gait_flags, plan.actions


@settings(max_examples=200, deadline=None)
@given(data=st.data(), yaw=st.floats(-3.0, 3.0))
def test_extract_path_on_the_stop_at_start_field_equals_the_full_field(data, yaw):
    costs = data.draw(cost_grids())
    goal = passable_cell(data, costs)
    start = data.draw(grid_cells(costs.shape))
    gait = np.array(data.draw(st.lists(st.integers(0, 1), min_size=costs.size,
                                       max_size=costs.size)), dtype=np.int8)
    cm = CostMap(costs=costs, gait=gait.reshape(costs.shape), cell_size=0.05)
    full = fmm_solve(cm, goal)
    stopped = fmm_solve(cm, goal, stop_at=mask_of(costs.shape, [start]))
    assert descend(stopped, start, cm, yaw) == descend(full, start, cm, yaw)
