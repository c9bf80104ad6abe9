"""``quadkit plan`` end to end against ``oracles.plan_reference``, the plan
composed from the per-layer references. On generated scenes ``cmd_plan`` must
write ``plan.jsonl`` and ``result.json`` byte for byte as the reference has
them, and a ``costmap.pgm`` equal to the PGM of the reference costs."""

import json
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import plan_reference
from quadkit.bench import cmd_plan
from quadkit.config import ToolkitConfig, apply_config_data
from quadkit.mapping import Frame, LabeledPointCloud, Scene, save_scene
from quadkit.terrain import write_pgm

NAMES = ("floor", "rug", "chair", "box")
HEIGHTS = (0.1, 0.1, 0.5, 1.99, 2.0, -0.01)  # the 2 m ceiling and the floor, both sides


@st.composite
def plan_cases(draw):
    """(scene, cost reply, config data): M 8-40, 1-4 frames, 1-3 categories,
    points on and off the grid, and targets that may be obstacles or absent."""
    m = draw(st.integers(8, 40))
    cell_size = draw(st.sampled_from([0.05, 0.1]))
    origin = draw(st.sampled_from([(0.0, 0.0), (0.3, -0.45)]))
    categories = draw(st.lists(st.sampled_from(NAMES), min_size=1, max_size=3, unique=True))
    category = st.integers(0, len(categories) - 1)
    cell = st.tuples(st.integers(0, m - 1), st.integers(0, m - 1))

    def world(row, col):  # (x, y) at (row, col) in cells; fractions and off-grid allowed
        return ((col - m // 2) * cell_size + origin[0], (row - m // 2) * cell_size + origin[1])

    def pose():  # a cell centre, so that the pose is on the grid
        r, c = draw(cell)
        return (*world(r + 0.5, c + 0.5), draw(st.floats(-3.2, 3.2)))

    frames = []
    for index in range(draw(st.integers(1, 4))):
        points = []
        for _ in range(draw(st.integers(0, 3))):  # rectangular patches of one category
            r, c = draw(cell)
            h, w, cat = draw(st.integers(1, 8)), draw(st.integers(1, 8)), draw(category)
            points += [(*world(i + 0.5, j + 0.5), draw(st.sampled_from(HEIGHTS)), cat)
                       for i in range(r, r + h) for j in range(c, c + w)]
        loose = st.floats(-2.0, m + 2.0)
        points += [(*world(draw(loose), draw(loose)), draw(st.sampled_from(HEIGHTS)),
                    draw(category)) for _ in range(draw(st.integers(0, 8)))]
        frames.append(Frame(index, pose(), LabeledPointCloud(tuple(points))))
    scene = Scene(categories=categories, frames=frames, m=m, cell_size=cell_size,
                  start_pose=pose(), origin=origin)

    mode = draw(st.sampled_from(["binary", "continuous"]))
    cost = st.sampled_from([0, 0, 1]) if mode == "binary" else st.one_of(
        st.sampled_from([0, 1]), st.floats(0.0, 1.0))
    reply = {
        "target_object": draw(st.sampled_from([*categories, "sofa"])),
        "obstacles": draw(st.lists(st.sampled_from(NAMES), max_size=2, unique=True)),
        "terrain": [{"type": name, "cost": draw(cost), "gait": draw(st.sampled_from([0, 1, 1]))}
                    for name in [*categories, "sofa"] if draw(st.integers(0, 3))],
    }
    config = {
        "mapping": {"dilation_p": draw(st.integers(0, 3)),
                    "sensor_range": draw(st.sampled_from([0.0, 0.1, 0.25, 0.6, 3.0]))},
        "nav": {"cost_mode": mode,
                "unexplored_cost": draw(st.sampled_from([0.0, 0.5, 0.9, 1.0])),
                "speed_floor": draw(st.sampled_from([0.05, 0.3])),
                "success_radius": draw(st.sampled_from([0.5, 0.05]))},
    }
    return scene, reply, config


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


@settings(max_examples=100, deadline=None)
@given(case=plan_cases(), no_cost=st.booleans())
def test_cmd_plan_writes_what_the_composed_reference_writes(case, no_cost):
    scene, reply, config = case
    plan_text, result_text, costmap = plan_reference(
        scene, reply, apply_config_data(ToolkitConfig(), config), no_cost)
    with tempfile.TemporaryDirectory() as tmp:
        scene_path, transcript, config_path, out, want_pgm = (
            os.path.join(tmp, name) for name in
            ("scene.jsonl", "transcript.jsonl", "config.json", "out", "want.pgm"))
        save_scene(scene, scene_path)
        with open(transcript, "w") as fh:
            fh.write(json.dumps({"template_id": "cost_map", "response": json.dumps(reply)}))
        with open(config_path, "w") as fh:
            json.dump(config, fh)
        cmd_plan(scene_path, "Go to the target", config_path=config_path,
                 transcript=transcript, out_dir=out, no_cost=no_cost)
        assert read_bytes(os.path.join(out, "result.json")) == result_text.encode()
        if plan_text is None:
            assert not os.path.exists(os.path.join(out, "plan.jsonl"))
        else:
            assert read_bytes(os.path.join(out, "plan.jsonl")) == plan_text.encode()
        write_pgm(want_pgm, costmap.costs)
        assert read_bytes(os.path.join(out, "costmap.pgm")) == read_bytes(want_pgm)
