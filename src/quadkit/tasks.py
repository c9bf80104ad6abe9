"""Long-horizon reasoning: instruction decomposition over a skill library,
sequential execution against the synthetic world, and success evaluation.

The executor halts on the first failed subgoal (remaining subgoals stay
pending) and keeps a replayable trace with logical timestamps, so runs are
byte-reproducible under a scripted provider.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

from .adaptation import BENCHMARK_COMMAND, candidate_grid, locate_ranges, select_best
from .config import ToolkitConfig, derive_seed
from .errors import ParseError, QuadkitError, SchemaError
from .gateway import (
    PARSE_TEMPERATURE,
    ChatRequest,
    Gateway,
    complete_and_parse,
    extract_json_block,
    load_template,
)
from .mapping import Frame, InstanceMemory, LabeledPointCloud, Scene, ingest
from .navigation import assign_costs, build_cost_map, distance_to_instance, plan_to_target
from .surrogate import SimConfig
from .terrain import terrain_by_name

MAX_EXPLORE_LEGS = 50


@dataclass
class AgentState:
    posture: str = "standing"
    greeted: bool = False

    def summary(self) -> str:
        return f"posture={self.posture}, greeted={self.greeted}"


@dataclass
class SkillOutcome:
    ok: bool
    check: str  # "geometric" or "state"
    detail: str = ""
    distance: float | None = None


@dataclass(frozen=True)
class Skill:
    name: str
    params: dict  # argument name -> type
    fn: object
    doc: str


class SkillLibrary:
    """Ordered, uniquely named skills with prompt-ready documentation."""

    def __init__(self):
        self._skills: dict = {}

    def register(self, skill: Skill):
        if skill.name in self._skills:
            raise ValueError(f"duplicate skill name '{skill.name}'")
        self._skills[skill.name] = skill

    def __contains__(self, name: str) -> bool:
        return name in self._skills

    def get(self, name: str) -> Skill:
        if name not in self._skills:
            raise KeyError(f"no skill named '{name}'")
        return self._skills[name]

    def names(self) -> list:
        return list(self._skills)

    def docs_text(self) -> str:
        lines = []
        for skill in self._skills.values():
            args = ", ".join(f"{k}: {t.__name__}" for k, t in skill.params.items())
            lines.append(f"- {skill.name}({args}): {skill.doc}")
        return "\n".join(lines)


@dataclass
class Subgoal:
    description: str
    skill_name: str
    args: dict = field(default_factory=dict)
    status: str = "pending"
    outcome: SkillOutcome | None = None


@dataclass
class SubgoalRecord:
    index: int
    description: str
    skill_name: str
    args: dict
    status: str
    detail: str
    t_start: int
    t_end: int
    map_hash: str


@dataclass
class ExecutionTrace:
    records: list
    task_complete: bool

    def to_jsonl(self, path):
        with open(path, "w") as fh:
            for rec in self.records:
                fh.write(json.dumps({
                    "index": rec.index,
                    "description": rec.description,
                    "skill": rec.skill_name,
                    "args": rec.args,
                    "status": rec.status,
                    "detail": rec.detail,
                    "t_start": rec.t_start,
                    "t_end": rec.t_end,
                    "map_hash": rec.map_hash,
                }) + "\n")
            fh.write(json.dumps({"task_complete": self.task_complete}) + "\n")


class World:
    """Mutable episode state: map, memory, agent pose/state, pending frames."""

    def __init__(self, scene: Scene, cfg: ToolkitConfig | None = None,
                 library: "SkillLibrary | None" = None, root_seed: int = 0):
        self.cfg = cfg or ToolkitConfig()
        self.scene = scene
        self.smap = scene.build_map()
        self.memory = InstanceMemory(p=self.cfg.mapping.dilation_p)
        self.pose = tuple(scene.start_pose)
        self.state = AgentState()
        self.library = library or default_library()
        self.params = None
        self.clock = 0
        self.root_seed = root_seed
        self._next_frame = 0
        self._frame_counter = len(scene.frames)

    def pose_cell(self) -> tuple:
        return self.smap.world_to_cell(self.pose[0], self.pose[1])

    def ingest_pending(self):
        while self._next_frame < len(self.scene.frames):
            frame = self.scene.frames[self._next_frame]
            ingest(self.smap, self.memory, frame,
                   self.cfg.mapping.sensor_range, self.cfg.mapping.max_point_height)
            self._next_frame += 1

    def observe_here(self):
        """Pose-only observation: extends explored space, detects nothing."""
        frame = Frame(self._frame_counter, self.pose, LabeledPointCloud(()))
        self._frame_counter += 1
        ingest(self.smap, self.memory, frame,
               self.cfg.mapping.sensor_range, self.cfg.mapping.max_point_height)

    def walk(self, plan):
        yaw = self.pose[2]
        for wp, action in zip(plan.waypoints[1:], plan.actions):
            yaw = math.atan2(action[1], action[0])
            self.pose = (wp.world[0], wp.world[1], yaw)
            self.smap.mark_pose(*wp.cell)
            self.clock += 1

    def has_instance(self, category_name: str) -> bool:
        return self.memory.first_named(self.smap.categories, category_name) is not None

    def distance_to(self, category_name: str) -> float | None:
        return distance_to_instance(self.memory, self.smap, category_name, self.pose)

    def snapshot_hash(self) -> str:
        digest = hashlib.sha256(self.smap.grid.tobytes())
        # nonzero() is row-major, i.e. sorted; tolist() keeps numpy reprs out of the text.
        digest.update(str(sorted(
            (i, r.class_id, tuple(zip(*(a.tolist() for a in r.cells.nonzero()))))
            for i, r in self.memory.instances.items())).encode())
        return digest.hexdigest()[:16]


# ---------------------------------------------------------------------------
# Skill bodies


def _plan_and_walk(world: World, gateway: Gateway, target: str) -> SkillOutcome:
    world.ingest_pending()
    assignment = assign_costs(f"Go to the {target}.", world.smap.categories, gateway,
                              world.cfg.nav.cost_mode, world.cfg.nav.unexplored_cost)
    error = _walk_toward(world, assignment, target)
    if error is not None:
        return SkillOutcome(ok=False, check="geometric", detail=error)
    distance = world.distance_to(target)
    if distance is None:
        return SkillOutcome(ok=False, check="geometric",
                            detail=f"'{target}' is not in instance memory")
    ok = distance <= world.cfg.nav.success_radius
    return SkillOutcome(ok=ok, check="geometric", distance=distance,
                        detail=f"stopped {distance:.3f} m from the {target}")


def _walk_toward(world: World, assignment, target: str) -> str | None:
    """Plan toward ``target`` on a fresh cost map and walk the path. Returns
    the planning error, or None once the path is walked."""
    costmap = build_cost_map(world.smap, assignment, world.cfg.nav.unexplored_cost)
    _, _, plan, error = plan_to_target(target, world.memory, world.smap, costmap,
                                       world.pose_cell(), world.pose[2],
                                       world.cfg.nav.speed_floor)
    if plan is not None:
        world.walk(plan)
    return error


def _skill_find(world, gateway, target: str) -> SkillOutcome:
    """Navigate if the target is known, otherwise explore frontiers until it is."""
    world.ingest_pending()
    if world.has_instance(target):
        return _plan_and_walk(world, gateway, target)
    assignment = assign_costs(f"Find the {target}.", world.smap.categories, gateway,
                              world.cfg.nav.cost_mode, world.cfg.nav.unexplored_cost)
    for _ in range(MAX_EXPLORE_LEGS):
        world.ingest_pending()
        if world.has_instance(target):
            return _plan_and_walk(world, gateway, target)
        # The target is not in memory, so the leg heads for the nearest frontier.
        error = _walk_toward(world, assignment, target)
        if error is not None:
            return SkillOutcome(ok=False, check="geometric",
                                detail=f"exploration ended without '{target}': {error}")
        world.observe_here()
    return SkillOutcome(ok=False, check="geometric",
                        detail=f"'{target}' not found in {MAX_EXPLORE_LEGS} exploration legs")


def _skill_sit_next_to(world, gateway, target: str) -> SkillOutcome:
    outcome = _plan_and_walk(world, gateway, target)
    if outcome.ok:
        world.state.posture = "sitting"
    return outcome


def _skill_switch_gait(world, gateway, terrain_description: str) -> SkillOutcome:
    selection = locate_ranges(terrain_description, gateway)
    candidates = candidate_grid(selection, world.cfg.lss.candidate_cap,
                                world.cfg.lss.grid_gaits, world.cfg.level_ranges)
    terrain = resolve_terrain(terrain_description)
    sim_cfg = SimConfig(world.cfg.sim.steps, world.cfg.sim.dt, world.cfg.sim.noise_scale,
                        seed=derive_seed(world.root_seed, "switch_gait", terrain.name))
    result = select_best(candidates, terrain, BENCHMARK_COMMAND, sim_cfg, world.cfg.reward)
    world.params = result.params
    return SkillOutcome(ok=True, check="state",
                        detail=f"adapted {len(candidates)} candidates on {terrain.name}")


def _posture_skill(posture: str):
    def fn(world, gateway) -> SkillOutcome:
        world.state.posture = posture
        return SkillOutcome(ok=True, check="state", detail=f"posture set to {posture}")
    return fn


def _skill_greet(world, gateway) -> SkillOutcome:
    world.state.greeted = True
    return SkillOutcome(ok=True, check="state", detail="greeting performed")


def resolve_terrain(description: str):
    """Map a free-text terrain description onto the closest benchmark terrain."""
    text = description.lower()
    if "stair" in text or "step" in text:
        return terrain_by_name("downside_stair" if "down" in text else "upside_stair")
    if "uphill" in text or ("slope" in text and "down" not in text):
        return terrain_by_name("uphill_slope")
    if "downhill" in text or "slope" in text:
        return terrain_by_name("downhill_slope")
    return terrain_by_name("uneven_ground")


def default_library() -> SkillLibrary:
    lib = SkillLibrary()
    lib.register(Skill("sit_down", {}, _posture_skill("sitting"), "sit down on the spot"))
    lib.register(Skill("stand_up", {}, _posture_skill("standing"), "stand up to the neutral posture"))
    lib.register(Skill("squat_down", {}, _posture_skill("squatting"), "crouch into a squat"))
    lib.register(Skill("greet", {}, _skill_greet, "greet the person in front of the robot"))
    lib.register(Skill("switch_gait", {"terrain_description": str}, _skill_switch_gait,
                       "adapt the walking parameters to the described terrain"))
    lib.register(Skill("navigate_to", {"target": str}, _plan_and_walk,
                       "walk to a known object or terrain region"))
    lib.register(Skill("find", {"target": str}, _skill_find,
                       "search the environment for an object and walk to it"))
    lib.register(Skill("sit_next_to", {"target": str}, _skill_sit_next_to,
                       "walk to an object and sit down next to it"))
    return lib


# ---------------------------------------------------------------------------
# Decomposition, retrieval, execution, evaluation


def decompose(instruction: str, library: SkillLibrary, gateway: Gateway) -> list:
    """Split an instruction into ordered subgoals naming library skills.

    Unknown skill names trigger one reprompt listing the valid names, then an
    error naming the offender.
    """
    if not instruction or not instruction.strip():
        raise ValueError("instruction must be non-empty")
    user = load_template("decompose").format(
        skill_docs=library.docs_text(), instruction=instruction)
    request = ChatRequest("decompose", "", user, PARSE_TEMPERATURE, 1)

    def parse(text: str) -> list:
        block = extract_json_block(text, "[", "]")
        try:
            data = json.loads(block)
        except json.JSONDecodeError as err:
            raise ParseError(f"invalid JSON array: {err}", what="json") from None
        subgoals = []
        for i, item in enumerate(data):
            if not isinstance(item, dict) or "skill" not in item:
                raise ParseError(f"subgoal {i} missing 'skill'", what=str(i))
            name = item["skill"]
            if name not in library:
                raise ParseError(f"unknown skill '{name}' in subgoal {i}; valid skill "
                                 f"names: {', '.join(library.names())}", what=name)
            subgoals.append(Subgoal(
                description=item.get("description", name),
                skill_name=name,
                args=dict(item.get("args", {})),
            ))
        if not subgoals:
            raise ParseError("empty subgoal list", what="plan")
        return subgoals

    return complete_and_parse(gateway, request, parse)[0]


def retrieve_skill(subgoal: Subgoal, library: SkillLibrary):
    """Exact-name lookup plus argument schema validation and binding."""
    skill = library.get(subgoal.skill_name)
    expected = skill.params
    issues = []
    for key in subgoal.args:
        if key not in expected:
            issues.append(f"unexpected argument '{key}'")
    for key, typ in expected.items():
        if key not in subgoal.args:
            issues.append(f"missing argument '{key}'")
        elif not isinstance(subgoal.args[key], typ):
            issues.append(f"argument '{key}' must be {typ.__name__}")
    if issues:
        raise SchemaError([f"{subgoal.skill_name}: {msg} "
                           f"(expected: {', '.join(expected) or 'no arguments'})"
                           for msg in issues])
    return skill, dict(subgoal.args)


def evaluate_success(subgoal: Subgoal, world: World, gateway: Gateway) -> str:
    """Geometric checks verdict directly; state-only skills consult the model.

    The model must answer with the single word SUCCESS or FAILURE (any case,
    optional trailing period); anything else gets one retry. A gateway failure
    or a second unparsable reply yields a conservative "failed".
    """
    outcome = subgoal.outcome
    if outcome is None:
        return "failed"
    if outcome.check == "geometric" or not outcome.ok:
        return "succeeded" if outcome.ok else "failed"
    user = load_template("evaluate").format(
        description=subgoal.description, state=world.state.summary())
    request = ChatRequest("evaluate", "", user, PARSE_TEMPERATURE, 1)
    try:
        return complete_and_parse(gateway, request, parse_verdict)[0]
    except QuadkitError as err:
        subgoal.outcome.detail += f" (no evaluator verdict: {err})"
        return "failed"


def parse_verdict(text: str) -> str:
    """Map a one-word SUCCESS / FAILURE reply to "succeeded" / "failed"."""
    word = text.strip().removesuffix(".").strip().upper()
    if word == "SUCCESS":
        return "succeeded"
    if word == "FAILURE":
        return "failed"
    raise ParseError(f"expected SUCCESS or FAILURE, got {text.strip()[:40]!r}", what="verdict")


def execute(plan, world: World, gateway: Gateway, replan_hook=None) -> ExecutionTrace:
    """Run subgoals in order; halt on the first failure, leaving the rest pending.

    ``replan_hook(plan, index, world)`` may return replacement subgoals for the
    failed tail; it is off by default, keeping the executor auditable.
    """
    plan_list = list(plan)
    records = []
    i = 0
    while i < len(plan_list):
        subgoal = plan_list[i]
        subgoal.status = "running"
        t_start = world.clock
        try:
            skill, args = retrieve_skill(subgoal, world.library)
            subgoal.outcome = skill.fn(world, gateway, **args)
        except QuadkitError as err:
            subgoal.outcome = SkillOutcome(ok=False, check="geometric", detail=str(err))
        verdict = evaluate_success(subgoal, world, gateway)
        subgoal.status = verdict
        records.append(SubgoalRecord(
            index=i,
            description=subgoal.description,
            skill_name=subgoal.skill_name,
            args=subgoal.args,
            status=verdict,
            detail=subgoal.outcome.detail if subgoal.outcome else "",
            t_start=t_start,
            t_end=world.clock,
            map_hash=world.snapshot_hash(),
        ))
        if verdict == "failed":
            replacement = replan_hook(plan_list, i, world) if replan_hook else None
            if not replacement:
                break
            plan_list[i + 1:] = list(replacement)
        i += 1
    task_complete = all(sg.status == "succeeded" for sg in plan_list)
    return ExecutionTrace(records=records, task_complete=task_complete)
