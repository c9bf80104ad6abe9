#!/usr/bin/env python3
"""Regenerate the bundled scene, scenario, and transcript assets.

Deterministic: every value is computed from the toolkit's own tables, so
rerunning this script reproduces the committed assets byte for byte.
"""

import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from quadkit.adaptation import (
    PROMPT_LABELS,
    TERRAIN_DESCRIPTIONS,
    _midpoint_options,
    determining_request,
    direct_request,
    locate_request,
)
from quadkit.locomotion import PROMPT_PARAM_ORDER, level_midpoint, level_name
from quadkit.mapping import Frame, LabeledPointCloud, Scene, save_scene
from quadkit.navigation import cost_map_request
from quadkit.surrogate import IDEAL_PROFILES
from quadkit.tasks import SKILLS, AgentState, decompose_request, evaluate_request

ASSETS = os.path.join(os.path.dirname(__file__), "..", "src", "quadkit", "assets")
# The instruction the band-scene plans are run with (README, demo 06, tests).
BAND_INSTRUCTION = "Go to the chair"

LEVEL_QUESTIONS = {
    "body_height": "What is the proper body height for this environment?",
    "step_frequency": "What is the proper stepping frequency for this environment?",
    "swing_height": "What is the proper foot swing height frequency for this environment?",
    "body_pitch": "What is the proper body pitch for this environment?",
    "stance_width": "What is the proper foot stance width for this environment?",
}


def level_reply(profile) -> str:
    """Render a level-location reply in the Q/A answer format."""
    lines = []
    for i, name in enumerate(PROMPT_PARAM_ORDER, start=1):
        choices = ("very positive, positive, neural, negative, very negative"
                   if name == "body_pitch" else "very high, high, medium, low, very low")
        lines.append(f"Q{i}: {LEVEL_QUESTIONS[name]} Choose among {choices}.")
        lines.append(f"A{i}: {level_name(name, profile.level(name)).title()}.")
    lines.append("Q6: What is the proper gait for this environment? Choose among "
                 "pronking, trotting, bounding, pacing.")
    lines.append(f"A6: {profile.gait.title()}.")
    return "\n".join(lines)


def numeric_reply(values: dict, gait: str | None) -> str:
    lines = [f"{PROMPT_LABELS[name]}: {values[name]:g}" for name in PROMPT_PARAM_ORDER]
    if gait is not None:
        lines.append(f"gait: {gait}")
    return "\n".join(lines)


def auto_candidates(terrain: str):
    """Three plausible direct numeric predictions: near the ideal, with one
    parameter drifting slightly outside its ideal interval."""
    profile = IDEAL_PROFILES[terrain]
    mids = {name: level_midpoint(name, profile.level(name)) for name in PROMPT_PARAM_ORDER}
    drift_param = {
        "uphill_slope": "step_frequency",
        "downhill_slope": "stance_width",
        "upside_stair": "body_pitch",
        "downside_stair": "body_pitch",
        "uneven_ground": "body_height",
    }[terrain]
    out = []
    for k, scale in enumerate((0.15, 0.3, 0.45)):
        values = dict(mids)
        lo, hi = _interval(drift_param, profile)
        width = hi - lo
        values[drift_param] = round(hi + scale * width, 6)
        out.append(numeric_reply(values, profile.gait))
    return out


def _interval(name, profile):
    from quadkit.locomotion import level_range
    return level_range(name, profile.level(name))


def determining_reply(terrain: str) -> str:
    """Midpoint picks: exactly ideal on the upside stair, one parameter one
    level off elsewhere (numeric insensitivity of the picker)."""
    profile = IDEAL_PROFILES[terrain]
    picks = {name: level_midpoint(name, profile.level(name)) for name in PROMPT_PARAM_ORDER}
    off = {
        "uphill_slope": ("step_frequency", -1),
        "downhill_slope": ("stance_width", -1),
        "upside_stair": None,
        "downside_stair": ("swing_height", -1),
        "uneven_ground": ("body_pitch", +1),
    }[terrain]
    if off is not None:
        name, delta = off
        picks[name] = level_midpoint(name, int(profile.level(name)) + delta)
    return numeric_reply(picks, None)


def write_transcript(path, entries):
    """One line per (template id, request, response) entry, carrying the digest
    of the request it answers unless the request is None."""
    with open(path, "w") as fh:
        for template_id, request, response in entries:
            line = {"template_id": template_id}
            if request is not None:
                line["request_hash"] = request.digest()
            line["response"] = response
            fh.write(json.dumps(line) + "\n")


def write_benchmark_transcript():
    """Entries for the default benchmark invocation: per terrain, 3 auto
    replies, 6 level-location replies (sampling + determining), 1 pick.
    Each entry carries the digest of the request it answers, so a replay
    that sends another request (say, terrains in another order) fails."""
    entries = []
    for terrain, description in TERRAIN_DESCRIPTIONS.items():
        profile = IDEAL_PROFILES[terrain]
        for reply in auto_candidates(terrain):
            entries.append(("auto", direct_request(description), reply))
        for _ in range(6):
            entries.append(("locate_levels", locate_request(description), level_reply(profile)))
        entries.append(("determining", determining_request(description, _midpoint_options()),
                        determining_reply(terrain)))
    path = os.path.join(ASSETS, "transcripts", "benchmark.jsonl")
    write_transcript(path, entries)
    print(f"wrote {path} ({len(entries)} entries)")


def _cells_in_rect(x0, y0, x1, y1, cell=0.05, m=160):
    """Cell centers of the map cells whose centers fall inside a world rect."""
    half = m // 2
    out = []
    for row in range(m):
        cy = (row - half + 0.5) * cell
        if not (y0 <= cy <= y1):
            continue
        for col in range(m):
            cx = (col - half + 0.5) * cell
            if x0 <= cx <= x1:
                out.append((cx, cy))
    return out


def _points(rect_cells, z, cat):
    return [(round(x, 3), round(y, 3), z, cat) for (x, y) in rect_cells]


def write_band_scenes():
    m = 160
    categories = ["gray floor", "blue mattress", "chair"]
    floor = _points(_cells_in_rect(-3.5, -0.5, -2.5, 0.5), 0.0, 0)
    band = _points(_cells_in_rect(0.0, -2.0, 0.5, 2.0), 0.1, 1)
    chair = _points(_cells_in_rect(2.9, -0.1, 3.1, 0.1), 0.3, 2)
    poses = [(-3.0, 0.0, 0.0), (-1.5, 0.0, 0.0), (0.0, 1.5, 0.0),
             (0.0, -1.5, 0.0), (1.5, 0.0, 0.0), (3.0, 0.5, 0.0)]

    def scene_with(points_first_frame):
        frames = []
        for i, pose in enumerate(poses):
            pts = points_first_frame if i == 0 else []
            frames.append(Frame(index=i, pose=pose,
                                cloud=LabeledPointCloud(points=tuple(pts))))
        return Scene(categories=categories, m=m, cell_size=0.05, frames=frames,
                     start_pose=(-3.0, 0.0, 0.0))

    banded = scene_with(floor + band + chair)
    free = scene_with(floor + chair)
    save_scene(banded, os.path.join(ASSETS, "scenes", "band.jsonl"))
    save_scene(free, os.path.join(ASSETS, "scenes", "band_free.jsonl"))
    print(f"wrote band scenes ({len(floor + band + chair)} / {len(floor + chair)} points)")

    reply = json.dumps({
        "target_object": "chair",
        "obstacles": [],
        "terrain": [
            {"type": "blue mattress", "cost": 1, "gait": 0},
            {"type": "gray floor", "cost": 0, "gait": 0},
        ],
    }, indent=2)
    path = os.path.join(ASSETS, "transcripts", "plan_band.jsonl")
    write_transcript(path, [("cost_map", cost_map_request(BAND_INSTRUCTION), reply)])
    print(f"wrote {path}")


def write_long_horizon():
    m = 160
    categories = ["wood floor", "green grass", "white bed", "blue clothes"]
    floor = _points(_cells_in_rect(-3.5, -0.5, -2.8, 0.5), 0.0, 0)
    bed = _points(_cells_in_rect(-1.5, -3.9, -1.0, 3.9), 0.02, 2)
    grass = _points(_cells_in_rect(0.0, -3.9, 0.5, 3.9), 0.02, 1)
    clothes = _points(_cells_in_rect(2.4, 0.4, 2.6, 0.6), 0.05, 3)
    poses = [(-3.0, 0.0, 0.0), (-1.5, 0.0, 0.0), (0.0, 0.0, 0.0),
             (1.5, 0.0, 0.0), (3.0, 0.0, 0.0)]
    frames = []
    pts_all = floor + bed + grass + clothes
    for i, pose in enumerate(poses):
        pts = pts_all if i == 0 else []
        frames.append(Frame(index=i, pose=pose, cloud=LabeledPointCloud(points=tuple(pts))))
    scene = Scene(categories=categories, m=m, cell_size=0.05, frames=frames,
                  start_pose=(-3.0, 0.0, 0.0))
    save_scene(scene, os.path.join(ASSETS, "scenes", "long_horizon.jsonl"))
    print(f"wrote long-horizon scene ({len(pts_all)} points)")

    instruction = ("squat down, stand up, greet me, then walk through the bed and "
                   "grass, find the blue clothes, and sit next to them")
    subgoals = [
        {"skill": "squat_down", "args": {}, "description": "squat down"},
        {"skill": "stand_up", "args": {}, "description": "stand up"},
        {"skill": "greet", "args": {}, "description": "greet the person"},
        {"skill": "navigate_to", "args": {"target": "green grass"},
         "description": "walk through the bed onto the grass"},
        {"skill": "find", "args": {"target": "blue clothes"},
         "description": "find the blue clothes"},
        {"skill": "sit_next_to", "args": {"target": "blue clothes"},
         "description": "sit next to the blue clothes"},
    ]
    # The first three subgoals are state-checked; each verdict request carries
    # the agent state its skill leaves.
    states = [AgentState(posture="squatting"), AgentState(posture="standing"),
              AgentState(posture="standing", greeted=True)]

    def cost_reply(target):
        return json.dumps({
            "target_object": target,
            "obstacles": [],
            "terrain": [
                {"type": "white bed", "cost": 0.3, "gait": 1},
                {"type": "green grass", "cost": 0.3, "gait": 1},
                {"type": "wood floor", "cost": 0, "gait": 0},
                {"type": "blue clothes", "cost": 0, "gait": 0},
            ],
        }, indent=2)

    entries = [("decompose", decompose_request(instruction, SKILLS),
                json.dumps(subgoals, indent=2))]
    entries += [("evaluate", evaluate_request(sg["description"], state), "SUCCESS")
                for sg, state in zip(subgoals, states)]
    # navigate_to, find (the clothes are in memory by then) and sit_next_to
    # each plan with "Go to the <target>.".
    entries.append(("cost_map", cost_map_request("Go to the green grass."),
                    cost_reply("green grass")))
    entries += [("cost_map", cost_map_request("Go to the blue clothes."),
                 cost_reply("blue clothes"))] * 2
    path = os.path.join(ASSETS, "transcripts", "long_horizon.jsonl")
    write_transcript(path, entries)
    print(f"wrote {path} ({len(entries)} entries)")

    scenario = {
        "instruction": instruction,
        "scene": "../scenes/long_horizon.jsonl",
        "transcript": "../transcripts/long_horizon.jsonl",
        "config": {"nav": {"cost_mode": "continuous"}},
    }
    path = os.path.join(ASSETS, "scenarios", "long_horizon.json")
    with open(path, "w") as fh:
        json.dump(scenario, fh, indent=2)
        fh.write("\n")
    print(f"wrote {path}")


def main():
    for sub in ("transcripts", "scenes", "scenarios"):
        os.makedirs(os.path.join(ASSETS, sub), exist_ok=True)
    write_benchmark_transcript()
    write_band_scenes()
    write_long_horizon()


if __name__ == "__main__":
    main()
