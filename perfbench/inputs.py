"""Seeded input generators for the generated workloads.

Every generator is a pure function of its seed: the same seed writes the same
bytes. The program under test only ever sees the files written here.
"""

from __future__ import annotations

import json
import os
import random

PLAN_M = 480
PLAN_CELL = 0.05
PLAN_FRAMES = 8
# Side lengths, in cells, of the lattice-dense patches written per frame.
FLOOR_SIDE = 70
RUG_SIDE = 40
BOX_SIDE = 20
CHAIR_SIDE = 6
PLAN_CATEGORIES = ["floor", "rug", "box", "chair"]
PLAN_INSTRUCTION = "Go to the chair."

# Categories the bundled long-horizon scene never observes.
UNSEEN_TARGETS = ("red backpack", "yellow umbrella", "black suitcase", "orange ball",
                  "purple pillow", "silver kettle", "brown basket", "pink towel")
# The bundled long-horizon replies' (category, cost, gait) triples.
LONG_HORIZON_COSTS = (("white bed", 0.3, 1), ("green grass", 0.3, 1),
                      ("wood floor", 0, 0), ("blue clothes", 0, 0))


def _patch(row0: int, col0: int, side: int, m: int, cell: float, z: float, cat: int) -> list:
    """Labeled points at the centers of a side x side block of map cells."""
    half = m // 2
    return [[round((c - half + 0.5) * cell, 4), round((r - half + 0.5) * cell, 4), z, cat]
            for r in range(row0, row0 + side) for c in range(col0, col0 + side)]


def write_plan_scene(seed: int, out_dir: str) -> dict:
    """Write an M=480 scene and its cost_map reply; returns the file paths and sizes.

    The robot walks a seeded random route of PLAN_FRAMES poses, each frame
    seeing a floor patch, a rug patch and two boxes beside the route. The last
    frame also sees a small chair, which the reply marks as an obstacle, so the
    goal is the nearest free cell to the chair's centroid.
    """
    rng = random.Random(seed)
    m, cell = PLAN_M, PLAN_CELL
    half = m // 2
    row, col = half + rng.randint(-60, 60), half - 150 + rng.randint(-20, 20)
    route = []
    for _ in range(PLAN_FRAMES):
        route.append((row, col))
        row = min(max(row + rng.randint(-20, 20), 80), m - 80)
        col += rng.randint(35, 45)
    frames = []
    total = 0
    for i, (r, c) in enumerate(route):
        points = _patch(r - FLOOR_SIDE // 2, c - FLOOR_SIDE // 2, FLOOR_SIDE, m, cell, 0.0, 0)
        rug_side = rng.choice((-1, 1))
        points += _patch(r + rug_side * 10 - RUG_SIDE // 2, c - RUG_SIDE // 2, RUG_SIDE,
                         m, cell, 0.01, 1)
        for side in (-1, 1):
            offset = rng.randint(40, 50)
            points += _patch(r + side * offset - BOX_SIDE // 2, c + rng.randint(-15, 5),
                             BOX_SIDE, m, cell, 0.4, 2)
        if i == PLAN_FRAMES - 1:
            points += _patch(r - CHAIR_SIDE // 2, c + 25, CHAIR_SIDE, m, cell, 0.45, 3)
        total += len(points)
        x, y = (c - half + 0.5) * cell, (r - half + 0.5) * cell
        frames.append({"pose": [round(x, 4), round(y, 4), 0.0], "points": points})
    start = frames[0]["pose"]
    header = {"categories": PLAN_CATEGORIES, "M": m, "cell_size": cell,
              "start_pose": start, "origin": [0.0, 0.0]}
    scene_path = os.path.join(out_dir, "scene.jsonl")
    with open(scene_path, "w") as fh:
        fh.write(json.dumps(header) + "\n")
        for frame in frames:
            fh.write(json.dumps(frame) + "\n")
    reply = json.dumps({
        "target_object": "chair",
        "obstacles": ["box", "chair"],
        "terrain": [
            {"type": "floor", "cost": 0, "gait": 0},
            {"type": "rug", "cost": 0, "gait": 1},
        ],
    }, indent=2)
    transcript_path = os.path.join(out_dir, "transcript.jsonl")
    with open(transcript_path, "w") as fh:
        fh.write(json.dumps({"template_id": "cost_map", "response": reply}) + "\n")
    return {"scene": scene_path, "transcript": transcript_path,
            "sizes": {"M": m, "frames": PLAN_FRAMES, "points": total,
                      "categories": len(PLAN_CATEGORIES)}}


def write_explore_scenario(seed: int, out_dir: str, scene_path: str) -> dict:
    """Write a scenario over the bundled long-horizon scene whose only subgoal
    is to find a category no frame contains, plus its two-reply transcript."""
    rng = random.Random(seed)
    target = rng.choice(UNSEEN_TARGETS)
    decomposition = json.dumps([
        {"skill": "find", "args": {"target": target}, "description": f"find the {target}"},
    ], indent=2)
    terrain = [{"type": name, "cost": cost, "gait": gait}
               for name, cost, gait in LONG_HORIZON_COSTS]
    rng.shuffle(terrain)
    reply = json.dumps({"target_object": target, "obstacles": [], "terrain": terrain},
                       indent=2)
    transcript_path = os.path.join(out_dir, "transcript.jsonl")
    with open(transcript_path, "w") as fh:
        for template_id, response in (("decompose", decomposition), ("cost_map", reply)):
            fh.write(json.dumps({"template_id": template_id, "response": response}) + "\n")
    scenario_path = os.path.join(out_dir, "scenario.json")
    with open(scenario_path, "w") as fh:
        json.dump({"instruction": f"find the {target}", "scene": scene_path,
                   "transcript": os.path.basename(transcript_path),
                   "config": {"nav": {"cost_mode": "continuous"}}}, fh, indent=2)
        fh.write("\n")
    return {"scenario": scenario_path, "target": target}
