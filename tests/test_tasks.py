import hashlib
import json
import math
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fixture_text, make_gateway
from oracles import cells_of, map_image_reference
from quadkit.config import ToolkitConfig
from quadkit.errors import ParseError, SchemaError
from quadkit.mapping import Frame, LabeledPointCloud, Scene
from quadkit.tasks import (
    SKILLS,
    Subgoal,
    World,
    decompose,
    evaluate_success,
    execute,
    resolve_terrain,
    retrieve_skill,
    skill_docs,
)


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


def test_skill_table_holds_the_readme_skills():
    # The README's skill list; a dict key can not repeat, so this also guards
    # against two skills sharing a name.
    readme = ("sit_down", "stand_up", "squat_down", "greet", "switch_gait",
              "navigate_to", "find", "sit_next_to")
    assert sorted(SKILLS) == sorted(readme)
    assert all(name == skill.name for name, skill in SKILLS.items())
    lines = skill_docs(SKILLS).splitlines()
    assert [line.split("(")[0] for line in lines] == [f"- {name}" for name in SKILLS]
    assert "- navigate_to(target: str): " in skill_docs(SKILLS)


def test_decompose_single_skill():
    gw = make_gateway([("decompose", '[{"skill": "sit_down", "args": {}}]')])
    plan = decompose("sit down", SKILLS, gw)
    assert len(plan) == 1
    assert plan[0].skill_name == "sit_down"
    assert plan[0].status == "pending"


def test_decompose_rejects_empty_instruction():
    with pytest.raises(ValueError):
        decompose("   ", SKILLS, make_gateway([]))


def test_decompose_reprompts_unknown_skill_then_errors():
    bad = '[{"skill": "backflip", "args": {}}]'
    good = '[{"skill": "sit_down", "args": {}}]'
    gw = make_gateway([("decompose", bad), ("decompose", good)])
    plan = decompose("sit down", SKILLS, gw)
    assert plan[0].skill_name == "sit_down"
    gw = make_gateway([("decompose", bad), ("decompose", bad)])
    with pytest.raises(ParseError) as err:
        decompose("sit down", SKILLS, gw)
    assert "backflip" in str(err.value)


def test_retrieve_skill_binds_arguments():
    skill, args = retrieve_skill(
        Subgoal("go", "navigate_to", {"target": "blue clothes"}), SKILLS)
    assert skill.name == "navigate_to"
    assert args == {"target": "blue clothes"}


def test_retrieve_skill_schema_errors():
    with pytest.raises(SchemaError) as err:
        retrieve_skill(Subgoal("sit", "sit_down", {"extra_arg": 1}), SKILLS)
    assert "unexpected argument" in str(err.value)
    with pytest.raises(SchemaError):
        retrieve_skill(Subgoal("go", "navigate_to", {}), SKILLS)
    with pytest.raises(SchemaError):
        retrieve_skill(Subgoal("go", "navigate_to", {"target": 7}), SKILLS)


def test_unknown_skill_is_a_failed_subgoal():
    with pytest.raises(SchemaError) as err:
        retrieve_skill(Subgoal("x", "backflip"), SKILLS)
    assert "backflip" in str(err.value) and "navigate_to" in str(err.value)
    plan = [Subgoal("x", "backflip"), Subgoal("sit", "sit_down")]
    trace = execute(plan, make_world(), make_gateway([]))
    assert not trace.task_complete
    assert [r.status for r in trace.records] == ["failed"]
    assert "backflip" in trace.records[0].detail
    assert plan[1].status == "pending"


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
    assert world.params.gait == "trotting"
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
    sg.outcome = SkillOutcome(ok=True, check="geometric")
    assert evaluate_success(sg, world, make_gateway([])) == "succeeded"
    sg.outcome = SkillOutcome(ok=False, check="geometric")
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
    assert world.smap.explored.sum() > 0


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
    assert world.smap.current_cell == world.pose_cell()
    assert map_image_reference(world.smap)[-2].sum() == 1
    assert world.snapshot_hash() == snapshot_hash_reference(world)


def test_snapshot_hash_of_bundled_scene_is_pinned():
    from quadkit.bench import asset_path
    from quadkit.mapping import load_scene
    world = World(load_scene(asset_path("scenes", "long_horizon.jsonl")), ToolkitConfig())
    world.ingest_pending()
    assert world.snapshot_hash() == "afb4b4d2a99999d9"


def snapshot_hash_reference(world) -> str:
    """The map hash from the whole canonical image and each instance's sorted cells."""
    digest = hashlib.sha256(map_image_reference(world.smap).tobytes())
    digest.update(str(sorted((i, r.class_id, tuple(sorted(cells_of(r.cells))))
                             for i, r in world.memory.instances.items())).encode())
    return digest.hexdigest()[:16]


@settings(max_examples=60, deadline=None)
@given(m=st.integers(82, 101), walks=st.lists(
    st.lists(st.tuples(st.integers(0, 100), st.integers(0, 100)), min_size=1, max_size=5),
    max_size=3))
def test_snapshot_hash_equals_the_hash_of_the_canonical_image(m, walks):
    world = make_world(simple_scene(m=m))
    assert world.smap.current_cell is None
    assert world.snapshot_hash() == snapshot_hash_reference(world)
    world.ingest_pending()
    assert world.snapshot_hash() == snapshot_hash_reference(world)
    for walk in walks:
        for r, c in walk:
            world.smap.mark_pose(min(r, m - 1), min(c, m - 1))
        world.observe_here()
        assert world.snapshot_hash() == snapshot_hash_reference(world)


def test_world_frees_each_frame_once_ingested():
    scene = simple_scene()
    points = [weakref.ref(frame.cloud.points) for frame in scene.frames]
    world = make_world(scene)
    del scene
    assert all(ref() is not None for ref in points)
    world.ingest_pending()
    assert all(ref() is None for ref in points)
    assert len(world.memory) == 2
