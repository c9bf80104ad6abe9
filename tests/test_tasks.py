import json
import math

import pytest

from conftest import fixture_text, make_gateway
from quadkit.config import ToolkitConfig
from quadkit.errors import ParseError, SchemaError
from quadkit.locomotion import GAITS
from quadkit.mapping import Frame, LabeledPointCloud, Scene
from quadkit.tasks import (
    Subgoal,
    World,
    decompose,
    default_library,
    evaluate_success,
    execute,
    resolve_terrain,
    retrieve_skill,
)

LIBRARY = default_library()


def cost_reply(target, entries=()):
    return json.dumps({
        "target_object": target,
        "obstacles": [],
        "terrain": [{"type": t, "cost": c, "gait": g} for (t, c, g) in entries],
    })


def simple_scene(extra_points=(), categories=("floor", "blue clothes"), m=120):
    """Small world: a clothes blob east of the start pose, floor around it."""
    points = [(-2.0, 0.0, 0.0, 0), (-1.9, 0.0, 0.0, 0)]
    points += [(1.5, 0.0, 0.05, 1), (1.55, 0.0, 0.05, 1), (1.5, 0.05, 0.05, 1)]
    points += list(extra_points)
    frames = [
        Frame(index=0, pose=(-2.0, 0.0, 0.0), cloud=LabeledPointCloud(tuple(points))),
        Frame(index=1, pose=(0.0, 0.0, 0.0), cloud=LabeledPointCloud(())),
        Frame(index=2, pose=(1.5, 0.0, 0.0), cloud=LabeledPointCloud(())),
    ]
    return Scene(categories=list(categories), m=m, cell_size=0.05, frames=frames,
                 start_pose=(-2.0, 0.0, 0.0))


def make_world(scene=None, **cfg_over):
    cfg = ToolkitConfig()
    cfg.sim.noise_scale = 0.0
    for key, value in cfg_over.items():
        setattr(cfg.nav, key, value)
    return World(scene or simple_scene(), cfg)


def plan_of(*names, args=None):
    return [Subgoal(description=n, skill_name=n, args=(args or {}).get(n, {}))
            for n in names]


def test_default_library_contents():
    names = LIBRARY.names()
    for expected in ("sit_down", "stand_up", "squat_down", "greet", "switch_gait",
                     "navigate_to", "find", "sit_next_to"):
        assert expected in names
    docs = LIBRARY.docs_text()
    assert "navigate_to(target: str)" in docs


def test_decompose_single_skill():
    gw = make_gateway([("decompose", '[{"skill": "sit_down", "args": {}}]')])
    plan = decompose("sit down", LIBRARY, gw)
    assert len(plan) == 1
    assert plan[0].skill_name == "sit_down"
    assert plan[0].status == "pending"


def test_decompose_rejects_empty_instruction():
    with pytest.raises(ValueError):
        decompose("   ", LIBRARY, make_gateway([]))


def test_decompose_reprompts_unknown_skill_then_errors():
    bad = '[{"skill": "backflip", "args": {}}]'
    good = '[{"skill": "sit_down", "args": {}}]'
    gw = make_gateway([("decompose", bad), ("decompose", good)])
    plan = decompose("sit down", LIBRARY, gw)
    assert plan[0].skill_name == "sit_down"
    gw = make_gateway([("decompose", bad), ("decompose", bad)])
    with pytest.raises(ParseError) as err:
        decompose("sit down", LIBRARY, gw)
    assert "backflip" in str(err.value)


def test_retrieve_skill_binds_arguments():
    skill, args = retrieve_skill(
        Subgoal("go", "navigate_to", {"target": "blue clothes"}), LIBRARY)
    assert skill.name == "navigate_to"
    assert args == {"target": "blue clothes"}


def test_retrieve_skill_schema_errors():
    with pytest.raises(SchemaError) as err:
        retrieve_skill(Subgoal("sit", "sit_down", {"extra_arg": 1}), LIBRARY)
    assert "unexpected argument" in str(err.value)
    with pytest.raises(SchemaError):
        retrieve_skill(Subgoal("go", "navigate_to", {}), LIBRARY)
    with pytest.raises(SchemaError):
        retrieve_skill(Subgoal("go", "navigate_to", {"target": 7}), LIBRARY)


def test_posture_plan_executes_in_order():
    world = make_world()
    gw = make_gateway([("evaluate", "SUCCESS")] * 3)
    trace = execute(plan_of("squat_down", "stand_up", "sit_down"), world, gw)
    assert trace.task_complete
    assert [r.status for r in trace.records] == ["succeeded"] * 3
    assert world.state.posture == "sitting"


def test_greet_sets_state_flag():
    world = make_world()
    gw = make_gateway([("evaluate", "SUCCESS")])
    trace = execute(plan_of("greet"), world, gw)
    assert trace.task_complete
    assert world.state.greeted


def test_find_reaches_within_success_radius():
    world = make_world()
    gw = make_gateway([
        ("cost_map", cost_reply("blue clothes", [("floor", 0, 0), ("blue clothes", 0, 0)])),
    ])
    trace = execute(plan_of("find", args={"find": {"target": "blue clothes"}}), world, gw)
    assert trace.task_complete
    assert world.distance_to("blue clothes") <= 0.5
    cells = world.cfg.nav.success_radius / world.smap.cell_size
    assert cells == 10.0


def ring_points(r0, r1, c0, c1, m=120, cat=2, z=0.1):
    """One point at the center of every cell on a rectangle's perimeter."""
    half = m // 2
    cells = set()
    for c in range(c0, c1 + 1):
        cells.update({(r0, c), (r1, c)})
    for r in range(r0, r1 + 1):
        cells.update({(r, c0), (r, c1)})
    return [((c - half + 0.5) * 0.05, (r - half + 0.5) * 0.05, z, cat)
            for (r, c) in sorted(cells)]


def test_navigate_to_unreachable_target_halts_plan():
    # wall of cost-1 "barrier" cells fully enclosing the clothes at cell (60, 90)
    barrier = ring_points(48, 72, 78, 102)
    scene = simple_scene(extra_points=barrier,
                         categories=("floor", "blue clothes", "barrier"))
    world = make_world(scene)
    gw = make_gateway([
        ("cost_map", cost_reply("blue clothes",
                                [("floor", 0, 0), ("barrier", 1, 0),
                                 ("blue clothes", 0, 0)])),
        ("evaluate", "SUCCESS"),
    ])
    plan = plan_of("navigate_to", "greet", args={"navigate_to": {"target": "blue clothes"}})
    trace = execute(plan, world, gw)
    assert not trace.task_complete
    assert plan[0].status == "failed"
    assert plan[1].status == "pending"
    assert len(trace.records) == 1


def test_sit_next_to_sits_after_reaching():
    world = make_world()
    gw = make_gateway([
        ("cost_map", cost_reply("blue clothes", [("floor", 0, 0), ("blue clothes", 0, 0)])),
    ])
    trace = execute(plan_of("sit_next_to", args={"sit_next_to": {"target": "blue clothes"}}),
                    world, gw)
    assert trace.task_complete
    assert world.state.posture == "sitting"


def test_switch_gait_runs_adaptation():
    world = make_world()
    reply = fixture_text("uphill_levels_reply.txt")
    gw = make_gateway([("locate_levels", reply)] * 3 + [("evaluate", "SUCCESS")])
    trace = execute(plan_of("switch_gait",
                            args={"switch_gait": {"terrain_description": "uphill slope"}}),
                    world, gw)
    assert trace.task_complete
    assert world.params is not None
    assert world.params.gait == GAITS["trotting"]
    assert 0.15 <= world.params.body_height <= 0.2


def test_resolve_terrain_keywords():
    assert resolve_terrain("a staircase going up").name == "upside_stair"
    assert resolve_terrain("stairs going down").name == "downside_stair"
    assert resolve_terrain("an uphill slope").name == "uphill_slope"
    assert resolve_terrain("a downhill slope").name == "downhill_slope"
    assert resolve_terrain("grass and mud").name == "uneven_ground"


def test_evaluate_success_geometric_precedence():
    world = make_world()
    sg = Subgoal("go", "navigate_to", {"target": "x"})
    from quadkit.tasks import SkillOutcome
    sg.outcome = SkillOutcome(ok=True, check="geometric", distance=0.2)
    assert evaluate_success(sg, world, make_gateway([])) == "succeeded"
    sg.outcome = SkillOutcome(ok=False, check="geometric", distance=1.2)
    assert evaluate_success(sg, world, make_gateway([])) == "failed"


def test_evaluate_success_gateway_verdicts():
    world = make_world()
    sg = Subgoal("greet", "greet", {})
    from quadkit.tasks import SkillOutcome
    sg.outcome = SkillOutcome(ok=True, check="state")
    assert evaluate_success(sg, world, make_gateway([("evaluate", "SUCCESS")])) == "succeeded"
    sg.outcome = SkillOutcome(ok=True, check="state")
    assert evaluate_success(sg, world, make_gateway([("evaluate", "FAILURE")])) == "failed"
    # exhausted transcript -> conservative failure
    sg.outcome = SkillOutcome(ok=True, check="state")
    assert evaluate_success(sg, world, make_gateway([])) == "failed"


@pytest.mark.parametrize("reply, verdict", [
    ("SUCCESS", "succeeded"),
    (" success.\n", "succeeded"),
    ("Failure.", "failed"),
    ("UNSUCCESSFUL", "failed"),
    ("Not a success.", "failed"),
])
def test_evaluate_success_parses_one_word_verdicts(reply, verdict):
    from quadkit.tasks import SkillOutcome
    world = make_world()
    sg = Subgoal("greet", "greet", {})
    sg.outcome = SkillOutcome(ok=True, check="state")
    # an unparsable reply is retried once; both replies here are the same
    gw = make_gateway([("evaluate", reply)] * 2)
    assert evaluate_success(sg, world, gw) == verdict


def test_evaluate_success_retry_recovers():
    from quadkit.tasks import SkillOutcome
    world = make_world()
    sg = Subgoal("greet", "greet", {})
    sg.outcome = SkillOutcome(ok=True, check="state")
    gw = make_gateway([("evaluate", "Not a success."), ("evaluate", "SUCCESS")])
    assert evaluate_success(sg, world, gw) == "succeeded"


def test_trace_serialization_and_hash_stability(tmp_path):
    world = make_world()
    gw = make_gateway([("evaluate", "SUCCESS")] * 2)
    trace = execute(plan_of("squat_down", "stand_up"), world, gw)
    path = tmp_path / "trace.jsonl"
    trace.to_jsonl(path)
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert lines[-1] == {"task_complete": True}
    assert [r["skill"] for r in lines[:-1]] == ["squat_down", "stand_up"]
    assert all("map_hash" in r for r in lines[:-1])
    # same world state -> same hash
    assert world.snapshot_hash() == world.snapshot_hash()


def test_find_explores_frontiers_then_fails_gracefully():
    # "blue clothes" is a known category with no instances anywhere; find must
    # walk the frontiers until exploration completes, then report failure
    scene = simple_scene(m=140)
    scene = Scene(categories=scene.categories, m=scene.m, cell_size=scene.cell_size,
                  frames=[Frame(index=0, pose=(-2.0, 0.0, 0.0),
                                cloud=LabeledPointCloud(((-2.0, 0.0, 0.0, 0),)))],
                  start_pose=scene.start_pose)
    world = make_world(scene)
    gw = make_gateway([
        ("cost_map", cost_reply("blue clothes", [("floor", 0, 0)])),
    ])
    plan = plan_of("find", args={"find": {"target": "blue clothes"}})
    trace = execute(plan, world, gw)
    assert not trace.task_complete
    assert plan[0].status == "failed"
    assert "blue clothes" in trace.records[0].detail
    assert world.clock > 0  # it actually walked exploration legs
    # exploration observations extended the explored area
    assert world.smap.explored_mask().sum() > 0


def test_execute_replan_hook_replaces_failed_tail():
    world = make_world()
    # navigate_to an unknown category fails; the hook swaps in a posture skill
    gw = make_gateway([
        ("cost_map", cost_reply("sofa", [("floor", 0, 0)])),
        ("evaluate", "SUCCESS"),
    ])

    def hook(plan, index, w):
        return [Subgoal("recover", "stand_up", {})]

    plan = plan_of("navigate_to", "greet", args={"navigate_to": {"target": "sofa"}})
    trace = execute(plan, world, gw, replan_hook=hook)
    assert [r.skill_name for r in trace.records] == ["navigate_to", "stand_up"]
    assert not trace.task_complete  # the failed subgoal still counts


def test_world_walk_updates_pose_and_clock():
    world = make_world()
    gw = make_gateway([
        ("cost_map", cost_reply("blue clothes", [("floor", 0, 0), ("blue clothes", 0, 0)])),
    ])
    start_clock = world.clock
    execute(plan_of("navigate_to", args={"navigate_to": {"target": "blue clothes"}}),
            world, gw)
    assert world.clock > start_clock
    assert world.pose[0] > 0.5  # moved east toward the clothes
    cur = world.smap.grid[world.smap.current_pos_channel]
    assert cur.sum() == 1


def test_snapshot_hash_of_bundled_scene_is_pinned():
    from quadkit.bench import asset_path
    from quadkit.mapping import load_scene
    world = World(load_scene(asset_path("scenes", "long_horizon.jsonl")), ToolkitConfig())
    world.ingest_pending()
    assert world.snapshot_hash() == "afb4b4d2a99999d9"
