"""Long-horizon reasoning: instruction decomposition over the skill table,
sequential execution against the synthetic world, and success evaluation.

``SKILLS`` maps each skill name to its ``Skill``; ``skill_docs`` renders the
table as the decomposition prompt's skill list. The executor halts on the
first failed subgoal (remaining subgoals stay pending). Each executed
``Subgoal`` is one row of the replayable ``ExecutionTrace``, with logical
timestamps, so runs are byte-reproducible under a scripted provider.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import deque
from dataclasses import dataclass, field

from .adaptation import locate_simulate_select
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


@dataclass(frozen=True)
class Skill:
    name: str
    params: dict  # argument name -> type
    fn: object
    doc: str


@dataclass
class Subgoal:
    """One step of a decomposed instruction; ``execute`` fills in its outcome,
    verdict, logical start and end time and the map hash after it."""

    description: str
    skill_name: str
    args: dict = field(default_factory=dict)
    status: str = "pending"
    outcome: SkillOutcome | None = None
    t_start: int | None = field(default=None, init=False)
    t_end: int | None = field(default=None, init=False)
    map_hash: str | None = field(default=None, init=False)

    @property
    def detail(self) -> str:
        return self.outcome.detail if self.outcome else ""


@dataclass
class ExecutionTrace:
    records: list  # the executed subgoals, in order
    task_complete: bool

    def to_jsonl(self, path):
        with open(path, "w") as fh:
            for index, sg in enumerate(self.records):
                fh.write(json.dumps({
                    "index": index,
                    "description": sg.description,
                    "skill": sg.skill_name,
                    "args": sg.args,
                    "status": sg.status,
                    "detail": sg.detail,
                    "t_start": sg.t_start,
                    "t_end": sg.t_end,
                    "map_hash": sg.map_hash,
                }) + "\n")
            fh.write(json.dumps({"task_complete": self.task_complete}) + "\n")


class World:
    """Mutable episode state: map, memory, agent pose/state, pending frames.

    The world keeps only the scene's frames it has not ingested yet, so a
    frame (and its points) is freed once ingested unless the caller still
    holds the scene."""

    def __init__(self, scene: Scene, cfg: ToolkitConfig | None = None, root_seed: int = 0):
        self.cfg = cfg or ToolkitConfig()
        self.smap = scene.build_map()
        self.memory = InstanceMemory(self.smap, p=self.cfg.mapping.dilation_p)
        self.pose = tuple(scene.start_pose)
        self.state = AgentState()
        self.params = None
        self.clock = 0
        self.root_seed = root_seed
        self._pending = deque(scene.frames)
        self._frame_counter = len(scene.frames)

    def pose_cell(self) -> tuple:
        return self.smap.world_to_cell(self.pose[0], self.pose[1])

    def ingest_pending(self):
        while self._pending:
            ingest(self.smap, self.memory, self._pending[0],
                   self.cfg.mapping.sensor_range, self.cfg.mapping.max_point_height)
            self._pending.popleft()

    def observe_here(self):
        """Pose-only observation: extends explored space, detects nothing."""
        frame = Frame(self._frame_counter, self.pose, LabeledPointCloud(()))
        self._frame_counter += 1
        ingest(self.smap, self.memory, frame,
               self.cfg.mapping.sensor_range, self.cfg.mapping.max_point_height)

    def walk(self, plan):
        for cell, (x, y), (dx, dy, _) in zip(plan.cells[1:], plan.world[1:], plan.actions):
            self.pose = (x, y, math.atan2(dy, dx))
            self.smap.mark_pose(*cell)
            self.clock += 1

    def has_instance(self, category_name: str) -> bool:
        return self.memory.first_named(category_name) is not None

    def distance_to(self, category_name: str) -> float | None:
        return distance_to_instance(self.memory, category_name, self.pose)

    def snapshot_hash(self) -> str:
        digest = hashlib.sha256()  # the canonical (C + 3) x M x M int32 map image
        for plane in self.smap.image_planes():
            digest.update(plane)
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
    return SkillOutcome(ok=ok, check="geometric",
                        detail=f"stopped {distance:.3f} m from the {target}")


def _walk_toward(world: World, assignment, target: str) -> str | None:
    """Plan toward ``target`` on a fresh cost map and walk the path. Returns
    the planning error, or None once the path is walked."""
    costmap = build_cost_map(world.smap, assignment, world.cfg.nav.unexplored_cost)
    _, _, plan, error = plan_to_target(target, world.memory, costmap, world.pose_cell(),
                                       world.pose[2], world.cfg.nav.speed_floor)
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
    terrain = resolve_terrain(terrain_description)
    result = locate_simulate_select(terrain_description, terrain, gateway, world.cfg,
                                    derive_seed(world.root_seed, "switch_gait", terrain.name))
    world.params = result.params
    return SkillOutcome(ok=True, check="state",
                        detail=f"adapted {len(result.candidates)} candidates on {terrain.name}")


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


SKILLS = {skill.name: skill for skill in (
    Skill("sit_down", {}, _posture_skill("sitting"), "sit down on the spot"),
    Skill("stand_up", {}, _posture_skill("standing"), "stand up to the neutral posture"),
    Skill("squat_down", {}, _posture_skill("squatting"), "crouch into a squat"),
    Skill("greet", {}, _skill_greet, "greet the person in front of the robot"),
    Skill("switch_gait", {"terrain_description": str}, _skill_switch_gait,
          "adapt the walking parameters to the described terrain"),
    Skill("navigate_to", {"target": str}, _plan_and_walk,
          "walk to a known object or terrain region"),
    Skill("find", {"target": str}, _skill_find,
          "search the environment for an object and walk to it"),
    Skill("sit_next_to", {"target": str}, _skill_sit_next_to,
          "walk to an object and sit down next to it"),
)}


def skill_docs(skills: dict) -> str:
    """One prompt line per skill: its call signature and what it does."""
    lines = []
    for skill in skills.values():
        args = ", ".join(f"{k}: {t.__name__}" for k, t in skill.params.items())
        lines.append(f"- {skill.name}({args}): {skill.doc}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Decomposition, retrieval, execution, evaluation


def decompose(instruction: str, library: dict, gateway: Gateway) -> list:
    """Split an instruction into ordered subgoals naming library skills.

    Unknown skill names trigger one reprompt listing the valid names, then an
    error naming the offender.
    """
    if not instruction or not instruction.strip():
        raise ValueError("instruction must be non-empty")
    return complete_and_parse(gateway, decompose_request(instruction, library),
                              lambda text: parse_subgoals(text, library))[0]


def decompose_request(instruction: str, library: dict) -> ChatRequest:
    """The decomposition request: the library's skill docs plus the instruction."""
    user = load_template("decompose").format(
        skill_docs=skill_docs(library), instruction=instruction)
    return ChatRequest("decompose", "", user, PARSE_TEMPERATURE, 1)


def parse_subgoals(text: str, library: dict) -> list:
    """Parse a decomposition reply: the first JSON array of subgoal objects,
    each naming a library skill."""
    block = extract_json_block(text, "[", "]")
    try:
        data = json.loads(block)
    except (ValueError, RecursionError) as err:
        raise ParseError(f"invalid JSON array: {err}", what="json") from None
    subgoals = []
    for i, item in enumerate(data):
        if not isinstance(item, dict) or "skill" not in item:
            raise ParseError(f"subgoal {i} missing 'skill'", what=str(i))
        name = item["skill"]
        if not isinstance(name, str) or name not in library:
            raise ParseError(f"unknown skill '{name}' in subgoal {i}; valid skill "
                             f"names: {', '.join(library)}", what=str(name))
        args = item.get("args", {})
        if not isinstance(args, dict):
            raise ParseError(f"subgoal {i}: 'args' must be an object", what=str(i))
        subgoals.append(Subgoal(description=item.get("description", name),
                                skill_name=name, args=dict(args)))
    if not subgoals:
        raise ParseError("empty subgoal list", what="plan")
    return subgoals


def retrieve_skill(subgoal: Subgoal, library: dict):
    """Exact-name lookup plus argument schema validation and binding."""
    skill = library.get(subgoal.skill_name)
    if skill is None:
        raise SchemaError([f"unknown skill '{subgoal.skill_name}' "
                           f"(valid: {', '.join(library)})"])
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
    request = evaluate_request(subgoal.description, world.state)
    try:
        return complete_and_parse(gateway, request, parse_verdict)[0]
    except QuadkitError as err:
        subgoal.outcome.detail += f" (no evaluator verdict: {err})"
        return "failed"


def evaluate_request(description: str, state: AgentState) -> ChatRequest:
    """The success-evaluation request for a subgoal and the agent state after it."""
    user = load_template("evaluate").format(description=description, state=state.summary())
    return ChatRequest("evaluate", "", user, PARSE_TEMPERATURE, 1)


def parse_verdict(text: str) -> str:
    """Map a one-word SUCCESS / FAILURE reply to "succeeded" / "failed"."""
    word = text.strip().removesuffix(".").strip().upper()
    if word == "SUCCESS":
        return "succeeded"
    if word == "FAILURE":
        return "failed"
    raise ParseError(f"expected SUCCESS or FAILURE, got {text.strip()[:40]!r}", what="verdict")


def execute(plan, world: World, gateway: Gateway) -> ExecutionTrace:
    """Run subgoals in order; halt on the first failure, leaving the rest pending."""
    plan = list(plan)
    executed = []
    for subgoal in plan:
        subgoal.t_start = world.clock
        try:
            skill, args = retrieve_skill(subgoal, SKILLS)
            subgoal.outcome = skill.fn(world, gateway, **args)
        except QuadkitError as err:
            subgoal.outcome = SkillOutcome(ok=False, check="geometric", detail=str(err))
        subgoal.status = evaluate_success(subgoal, world, gateway)
        subgoal.t_end = world.clock
        subgoal.map_hash = world.snapshot_hash()
        executed.append(subgoal)
        if subgoal.status == "failed":
            break
    task_complete = all(sg.status == "succeeded" for sg in plan)
    return ExecutionTrace(records=executed, task_complete=task_complete)
