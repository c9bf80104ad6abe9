"""Semantic mapping and cost-aware planning on the bundled mattress-band
scene: ingest labeled frames into the instance map, assign per-category
costs, solve the arrival field, and compare the planned path with and
without costs."""

import os
import tempfile

import numpy as np

from quadkit.bench import asset_path, cmd_plan
from quadkit.mapping import InstanceMemory, ingest, load_scene

scene_path = asset_path("scenes", "band.jsonl")
transcript = asset_path("transcripts", "plan_band.jsonl")

# Ingest the scene to look at the instance memory the planner will use.
scene = load_scene(scene_path)
smap = scene.build_map()
memory = InstanceMemory(p=3)
for frame in scene.frames:
    ingest(smap, memory, frame)
print(f"map: {smap.k} channels of {smap.m}x{smap.m} cells "
      f"({smap.m * smap.cell_size:.0f} m per side)")
print(f"explored cells: {int(smap.explored_mask().sum())}")
for iid, rec in memory.instances.items():
    print(f"  instance {iid}: class '{scene.categories[rec.class_id]}', "
          f"{np.count_nonzero(rec.cells)} cells, {len(rec.views)} views")

out = os.path.join(tempfile.gettempdir(), "quadkit_plan_demo")
result, plan = cmd_plan(scene_path, "Go to the chair", transcript=transcript,
                        out_dir=os.path.join(out, "with_cost"))
result_nc, plan_nc = cmd_plan(scene_path, "Go to the chair", transcript=transcript,
                              out_dir=os.path.join(out, "no_cost"), no_cost=True)

band_channel = scene.categories.index("blue mattress")
band = {(int(r), int(c)) for r, c in zip(*np.nonzero(smap.grid[band_channel]))}
print(f"\nwith costs:    {len(plan.waypoints)} waypoints, "
      f"crosses mattress: {bool(set(plan.cells) & band)}, reached: {result['reached']}")
print(f"without costs: {len(plan_nc.waypoints)} waypoints, "
      f"crosses mattress: {bool(set(plan_nc.cells) & band)}, reached: {result_nc['reached']}")
print(f"\ncost-map PGMs and arrival-field CSVs in {out}")
