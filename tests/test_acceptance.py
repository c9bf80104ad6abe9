"""Acceptance gate: one test per criterion, each printing a PASS line and
enforcing its runtime budget. Run with ``pytest tests/test_acceptance.py -s``
to see the lines as they pass."""

import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import fixture_text, make_gateway
from oracles import (
    cells_of,
    chebyshev_dilation,
    contact_table,
    detection_of,
    dijkstra_times,
    gait_phase_table,
    mask_of,
    timing_table,
    trajectory_of,
    union_find_clusters,
)
from quadkit.adaptation import (
    BENCHMARK_COMMAND,
    MethodVariant,
    candidate_grid,
    locate_ranges,
    random_baseline_percent,
    run_benchmark,
    select_best,
)
from quadkit.bench import asset_path, cmd_plan, cmd_task
from quadkit.config import SimConfig, ToolkitConfig
from quadkit.gateway import parse_cost_json, parse_levels
from quadkit.locomotion import (
    GAIT_NAMES,
    GAITS,
    CommandVector,
    Level,
    desired_contact,
    foot_phases,
    level_range,
    timing_reference,
)
from quadkit.mapping import (
    Frame,
    InstanceMemory,
    LabeledPointCloud,
    SemanticMap,
    dilate,
    ingest,
    load_scene,
    match_detection,
    project_frame,
)
from quadkit.navigation import CostMap, fmm_solve, frontier_cells, frontier_goal
from quadkit.rewards import (
    RewardConfig,
    StepSample,
    episode_percent,
    episode_velocity_percent,
    r_stance_velocity,
    r_swing_force,
    r_velocity_xy,
    r_velocity_yaw,
)
from quadkit.surrogate import simulate
from quadkit.terrain import terrain_by_name


@contextmanager
def criterion(number, name, limit_s):
    start = time.monotonic()
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {number} ({name}): FAIL after {time.monotonic() - start:.2f}s")
        raise
    elapsed = time.monotonic() - start
    assert elapsed < limit_s, f"criterion {number} exceeded {limit_s}s ({elapsed:.2f}s)"
    print(f"ACCEPTANCE {number} ({name}): PASS in {elapsed:.2f}s (limit {limit_s}s)")


def test_criterion_1_gait_mathematics():
    with criterion(1, "gait mathematics vs brute force", 1.0):
        ts = [round(k * 0.01, 2) for k in range(100)]
        for gait_name_ in GAIT_NAMES:
            gait = GAITS[gait_name_]
            offsets = (gait.theta1, gait.theta2, gait.theta3)
            for t in ts:
                phases = foot_phases(t, gait)
                for a, b in zip(phases, gait_phase_table(t, offsets)):
                    assert abs(a - b) < 1e-12
                for a, b in zip(timing_reference(t, gait), timing_table(t, offsets)):
                    assert abs(a - b) < 1e-12
                assert desired_contact(gait, t) == contact_table(t, offsets)
        for t in ts:
            fr, fl, rr, rl = foot_phases(t, GAITS["trotting"])
            assert fr == rl and fl == rr
            fr, fl, rr, rl = foot_phases(t, GAITS["pacing"])
            assert fr == fl and rr == rl


def test_criterion_2_reward_closed_forms():
    with criterion(2, "reward closed forms", 1.0):
        cmd = CommandVector(1.0, 0.0, 0.0)
        cfg = RewardConfig()

        def sample(v=(1.0, 0.0), w=0.0, force=(0.0,) * 4, speed=(0.0,) * 4, t=0.25):
            return StepSample(v, w, force, speed, t)

        assert r_velocity_xy(sample(), cmd, cfg) == 1.0
        assert abs(r_velocity_xy(sample(v=(0.5, 0.0)), cmd, cfg) - math.exp(-1)) < 1e-12
        assert r_velocity_yaw(sample(), cmd, cfg) == 1.0
        assert abs(r_velocity_yaw(sample(w=0.5), cmd, cfg) - math.exp(-1)) < 1e-12
        trot = GAITS["trotting"]
        assert r_swing_force(sample(t=0.75), GAITS["pronking"], cfg) == 4.0
        got = r_swing_force(sample(t=0.25, force=(0.0, 10.0, 0.0, 0.0)), trot, cfg)
        assert abs(got - (math.exp(-1) + 1.0)) < 1e-12
        assert r_stance_velocity(sample(t=0.25), GAITS["pronking"], cfg) == 4.0
        got = r_stance_velocity(sample(t=0.25, speed=(0.5, 0.0, 0.0, 0.0)), trot, cfg)
        assert abs(got - (math.exp(-1) + 1.0)) < 1e-12
        steps = [sample(t=(k * 3.0 * 0.02) % 1.0) for k in range(250)]
        report = episode_percent(trajectory_of(steps, trot), cmd, cfg)
        assert report.as_tuple() == (100.0, 100.0, 100.0, 100.0)


def test_criterion_3_lss_oracle_equivalence():
    with criterion(3, "LSS selection equals exhaustive argmax", 30.0):
        reply = fixture_text("uphill_levels_reply.txt")
        gw = make_gateway([("locate_levels", reply)] * 3)
        selection = locate_ranges("There is an uphill slope.", gw)
        candidates = candidate_grid(selection)
        assert len(candidates) <= 1024
        terrain = terrain_by_name("uphill_slope")
        sim_cfg = SimConfig(noise_scale=0.0)
        result = select_best(candidates, terrain, BENCHMARK_COMMAND, sim_cfg, seed=0)
        scored = []
        for cand in (candidates.params(i) for i in range(len(candidates))):
            traj = simulate(terrain, cand, BENCHMARK_COMMAND, sim_cfg, 0)
            scored.append((episode_velocity_percent(traj, BENCHMARK_COMMAND), cand))
        best_pct = max(p for p, _ in scored)
        pool = [c for p, c in scored if p == best_pct]
        oracle = min(pool, key=lambda c: (c.body_height, c.step_frequency,
                                          c.swing_height, c.body_pitch, c.stance_width))
        assert result.params == oracle
        for name in ("body_height", "step_frequency", "body_pitch",
                     "stance_width", "swing_height"):
            lo, hi = level_range(name, getattr(selection, name))
            assert lo - 1e-9 <= getattr(result.params, name) <= hi + 1e-9


def test_criterion_4_trend_reproduction():
    with criterion(4, "sampling beats determining and random baselines", 300.0):
        cfg = ToolkitConfig()
        terrains = ["uphill_slope", "downhill_slope", "upside_stair", "downside_stair",
                    "uneven_ground"]
        from quadkit.gateway import ScriptedProvider, Gateway
        gateway = Gateway(ScriptedProvider.from_file(
            asset_path("transcripts", "benchmark.jsonl")))
        variants = [MethodVariant("auto"), MethodVariant("auto_lss_sampling"),
                    MethodVariant("auto_lss_determining")]
        rows = run_benchmark(variants, terrains, runs=10, cfg=cfg, gateway=gateway)
        sampling = {r.terrain: r.report.vel_xy_pct for r in rows
                    if r.variant == "auto_lss_sampling"}
        determining = {r.terrain: r.report.vel_xy_pct for r in rows
                       if r.variant == "auto_lss_determining"}
        wins = sum(1 for t in terrains if sampling[t] >= determining[t])
        assert wins >= 4, f"sampling >= determining on only {wins}/5 terrains"
        for t in terrains:
            baseline = random_baseline_percent(terrain_by_name(t), 100, cfg)
            assert sampling[t] >= baseline, (
                f"sampling {sampling[t]:.2f} < random baseline {baseline:.2f} on {t}")


def test_criterion_5_mapping_vs_projection_and_union_find():
    with criterion(5, "mapping coverage and instance merging oracles", 30.0):
        for c in (1, 5, 20):
            smap = SemanticMap([f"cat{i}" for i in range(c)], m=64)
            assert len(list(smap.image_planes())) == c + 3
        rng = np.random.default_rng(42)
        m = 120
        n_classes = 3
        smap = SemanticMap([f"cat{i}" for i in range(n_classes)], m=m)
        memory = InstanceMemory(smap, p=2)
        expected_cells = {cls: set() for cls in range(n_classes)}
        all_detections = []
        for i in range(100):
            pts = []
            for _ in range(int(rng.integers(5, 20))):
                x = float(rng.uniform(-2.5, 2.5))
                y = float(rng.uniform(-2.5, 2.5))
                z = float(rng.uniform(0.0, 2.5))  # some points above the ceiling
                cls = int(rng.integers(0, n_classes))
                pts.append((x, y, z, cls))
                if 0.0 <= z < 2.0:
                    expected_cells[cls].add(smap.world_to_cell(x, y))
            frame = Frame(index=i, pose=(0.0, 0.0, 0.0),
                          cloud=LabeledPointCloud(tuple(pts)))
            probe = SemanticMap([f"cat{k}" for k in range(n_classes)], m=m)
            all_detections.extend(project_frame(probe, frame.cloud, frame.pose, i))
            ingest(smap, memory, frame)
        clusters, by_class = union_find_clusters(all_detections, p=2, m=m)
        for cls in range(n_classes):
            coverage = set().union(*(cells_of(r.cells) for r in memory.instances.values()
                                     if r.class_id == cls))
            assert coverage == expected_cells[cls]
            assert by_class.get(cls, set()) == expected_cells[cls]
            channel_cells = {(int(r), int(cc))
                             for r, cc in zip(*np.nonzero(smap.grid[cls]))}
            assert channel_cells == expected_cells[cls]
        for rec in memory.instances.values():
            containing = [cells for cls, cells in clusters.values()
                          if cls == rec.class_id and cells_of(rec.cells) <= cells]
            assert len(containing) == 1


def test_criterion_6_dilation_and_matching():
    with criterion(6, "dilation and matching oracles", 10.0):
        rng = np.random.default_rng(6)
        for _ in range(1000):
            n = int(rng.integers(1, 12))
            cells = {(int(rng.integers(0, 40)), int(rng.integers(0, 40)))
                     for _ in range(n)}
            p = int(rng.integers(0, 4))
            assert cells_of(dilate(mask_of(cells, 40), p)) == chebyshev_dilation(cells, p, 40)
        for trial in range(200):
            p = int(rng.integers(0, 4))
            memory = InstanceMemory(SemanticMap(["a", "b", "c"], m=40), p=p)
            for _ in range(int(rng.integers(1, 8))):
                r0 = int(rng.integers(0, 35))
                c0 = int(rng.integers(0, 35))
                cells = {(r0 + dr, c0 + dc)
                         for dr in range(int(rng.integers(1, 4)))
                         for dc in range(int(rng.integers(1, 4)))}
                cls = int(rng.integers(0, 3))
                memory.create(detection_of(cells, cls, frame=0))
            pr = int(rng.integers(0, 35))
            pc = int(rng.integers(0, 35))
            probe_cells = {(pr + dr, pc + dc) for dr in range(2) for dc in range(2)}
            probe_cls = int(rng.integers(0, 3))
            got = match_detection(detection_of(probe_cells, probe_cls, frame=1), memory)
            dilated = chebyshev_dilation(probe_cells, p, 40)
            overlaps = {
                iid: len(dilated & cells_of(rec.cells))
                for iid, rec in memory.instances.items()
                if rec.class_id == probe_cls and dilated & cells_of(rec.cells)
            }
            if not overlaps:
                assert got is None
            else:
                best = max(overlaps.values())
                assert got == min(i for i, v in overlaps.items() if v == best)


def test_criterion_7_fmm_vs_dijkstra():
    with criterion(7, "fast marching within 10% of Dijkstra geodesics", 60.0):
        rng = np.random.default_rng(20250811)
        checked = 0
        for _ in range(50):
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
                rel = abs(field.times[start] - oracle[start]) / oracle[start]
                assert rel <= 0.10, f"relative gap {rel:.3f} exceeds 10%"
                checked += 1
        assert checked >= 40  # nearly all sampled pairs must be reachable


def _frontier_map(rng, m=40):
    """Constructed map: random wall segments, partially explored interior."""
    smap = SemanticMap(["floor"], m=m)
    explored = smap.explored
    explored[2:m - 2, 2:m - 2] = 1
    costs = np.zeros((m, m))
    for _ in range(int(rng.integers(2, 6))):
        if rng.random() < 0.5:
            r = int(rng.integers(5, m - 5))
            c0 = int(rng.integers(0, m - 15))
            costs[r, c0:c0 + int(rng.integers(8, 15))] = 1.0
        else:
            c = int(rng.integers(5, m - 5))
            r0 = int(rng.integers(0, m - 15))
            costs[r0:r0 + int(rng.integers(8, 15)), c] = 1.0
    # carve unexplored pockets so frontiers exist away from the border
    for _ in range(int(rng.integers(1, 4))):
        r = int(rng.integers(6, m - 10))
        c = int(rng.integers(6, m - 10))
        explored[r:r + 4, c:c + 4] = 0
    start = (m // 2, m // 2)
    costs[start] = 0.0
    explored[start] = 1
    return smap, CostMap(costs=costs, gait=np.zeros((m, m), np.int8), cell_size=0.05), start


def test_criterion_8_frontier_selection():
    with criterion(8, "frontier selection matches geodesic oracle", 10.0):
        rng = np.random.default_rng(8)
        accepted = 0
        while accepted < 20:
            smap, cm, start = _frontier_map(rng)
            frontiers = cells_of(frontier_cells(smap, cm))
            if not frontiers or cm.obstacle_mask[start]:
                continue
            oracle = dijkstra_times(cm.costs, start)
            reachable = [(oracle[f], f) for f in frontiers if math.isfinite(oracle[f])]
            if not reachable:
                continue
            reachable.sort(key=lambda kv: (kv[0], kv[1][0], kv[1][1]))
            best_d, best_cell = reachable[0]
            # keep maps whose ranking is robust to the metrication gap, plus
            # exact ties (which exercise the lexicographic rule in both routes)
            runners = [d for d, f in reachable[1:] if f != best_cell]
            if runners and best_d > 0 and (min(runners) - best_d) < 0.18 * best_d \
                    and not math.isclose(min(runners), best_d, rel_tol=1e-12):
                continue
            got = frontier_goal(smap, cm, start)
            assert got == best_cell, f"{got} != {best_cell}"
            accepted += 1


def test_criterion_9_cost_ablation_navigation(tmp_path):
    with criterion(9, "cost map forces the detour", 30.0):
        band_scene = asset_path("scenes", "band.jsonl")
        free_scene = asset_path("scenes", "band_free.jsonl")
        transcript = asset_path("transcripts", "plan_band.jsonl")
        result, plan = cmd_plan(band_scene, "Go to the chair", transcript=transcript,
                                out_dir=str(tmp_path / "with_cost"))
        result_nc, plan_nc = cmd_plan(band_scene, "Go to the chair",
                                      transcript=transcript,
                                      out_dir=str(tmp_path / "no_cost"), no_cost=True)
        scene = load_scene(band_scene)
        smap = scene.build_map()
        memory = InstanceMemory(smap, p=3)
        for frame in scene.frames:
            ingest(smap, memory, frame)
        band = {(int(r), int(c))
                for r, c in zip(*np.nonzero(smap.grid[scene.categories.index(
                    "blue mattress")]))}
        assert not (set(plan.cells) & band), "cost-aware plan crossed the band"
        assert set(plan_nc.cells) & band, "ablation plan should cross the band"
        for sub, no_cost in (("ctl_cost", False), ("ctl_nocost", True)):
            res, _ = cmd_plan(free_scene, "Go to the chair", transcript=transcript,
                              out_dir=str(tmp_path / sub), no_cost=no_cost)
            assert res["reached"] and res["distance_m"] <= 0.5


def test_criterion_10_long_horizon_scenario(tmp_path):
    with criterion(10, "long-horizon scenario end to end", 60.0):
        scenario = asset_path("scenarios", "long_horizon.json")
        trace, plan, world = cmd_task(scenario, out_dir=str(tmp_path / "a"))
        assert len(plan) == 6, f"expected 6 subgoals, got {len(plan)}"
        assert trace.task_complete
        assert all(sg.status == "succeeded" for sg in plan)
        assert world.distance_to("blue clothes") <= 0.5
        cmd_task(scenario, out_dir=str(tmp_path / "b"))
        for name in ("trace.jsonl", "verdicts.csv"):
            a = (tmp_path / "a" / name).read_bytes()
            b = (tmp_path / "b" / name).read_bytes()
            assert a == b, f"{name} differs between invocations"


def test_criterion_11_parser_fidelity():
    with criterion(11, "verbatim prompt-example parsing", 1.0):
        levels = parse_levels(fixture_text("uphill_levels_reply.txt"))
        assert levels == {
            "body_height": Level.LOW,
            "step_frequency": Level.HIGH,
            "swing_height": Level.HIGH,
            "body_pitch": Level.HIGH,
            "stance_width": Level.MEDIUM,
            "gait": "trotting",
        }
        assignment = parse_cost_json(fixture_text("cost_reply_kitchen.json"))
        assert assignment.target_object == "red cabinet"
        assert assignment.obstacles == ("white kitchen table", "wooden chair")
        assert [(t.type, t.cost, t.gait) for t in assignment.terrain] == [
            ("light wooden floor", 0.0, 0),
            ("gray tiles", 0.0, 0),
            ("metal steps", 1.0, 1),
        ]
