"""The four benchmark workloads: inputs, one invocation, and its verdict.

Each workload calls one public CLI entry point of ``quadkit.bench`` in
process. ``prepare`` writes the workload's seeded inputs and returns a
``Prepared`` whose ``invoke(out_dir)`` runs one pipeline invocation and
returns its verdict string. Why each workload is in the benchmark, and its
input sizes, are in ``BENCHMARK.json``.

- ``adapt``: the bundled ``quadkit adapt`` defaults. Only the surrogate
  loop runs: the control workload for mapping and navigation.
- ``task``: the bundled long-horizon scenario (M=160, three goal-rooted
  solves). No exploration and no surrogate: the control workload for those.
- ``explore``: the bundled long-horizon scene with a generated transcript
  whose one ``find`` subgoal names a category no frame contains, so the
  robot explores frontiers until none remain (an expected ``failed``).
- ``plan-480``: a generated M=480 scene through ``cmd_plan``; mapping
  dominates, and ``snap_to_free`` scans the full grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import inputs


@dataclass
class Prepared:
    invoke: Callable[[str], str]
    sizes: dict


@dataclass(frozen=True)
class Workload:
    name: str
    # Verdict every invocation must return, at any seed.
    verdict: str
    prepare: Callable[[object, int, str], Prepared]


def _scene_sizes(path) -> dict:
    from quadkit.mapping import load_scene

    scene = load_scene(path)
    return {"M": scene.m, "frames": len(scene.frames),
            "points": sum(len(f.cloud.points) for f in scene.frames),
            "categories": len(scene.categories)}


def _adapt(bench, seed, in_dir):
    def invoke(out_dir):
        rows = bench.cmd_adapt(seed=seed, out_dir=out_dir)
        return f"rows={len(rows)}"

    return Prepared(invoke, {"terrains": len(bench.DEFAULT_TERRAINS),
                             "variants": len(bench.DEFAULT_VARIANTS), "runs": 10})


def _task(bench, seed, in_dir):
    scenario = bench.asset_path("scenarios", "long_horizon.json")

    def invoke(out_dir):
        trace, plan, _ = bench.cmd_task(scenario, seed=seed, out_dir=out_dir)
        return f"task_complete={trace.task_complete}"

    return Prepared(invoke, _scene_sizes(bench.asset_path("scenes", "long_horizon.jsonl")))


def _explore(bench, seed, in_dir):
    scene = bench.asset_path("scenes", "long_horizon.jsonl")
    generated = inputs.write_explore_scenario(seed, in_dir, scene)

    def invoke(out_dir):
        trace, plan, _ = bench.cmd_task(generated["scenario"], seed=seed, out_dir=out_dir)
        first = trace.records[0]
        return f"{first.skill_name}={first.status}: {first.detail.rsplit(': ', 1)[-1]}"

    return Prepared(invoke, dict(_scene_sizes(scene), target=generated["target"]))


def _plan_480(bench, seed, in_dir):
    generated = inputs.write_plan_scene(seed, in_dir)

    def invoke(out_dir):
        result, _ = bench.cmd_plan(generated["scene"], inputs.PLAN_INSTRUCTION,
                                   seed=seed, transcript=generated["transcript"],
                                   out_dir=out_dir)
        return f"reached={result['reached']}"

    return Prepared(invoke, generated["sizes"])


WORKLOADS = {w.name: w for w in (
    Workload("adapt", "rows=15", _adapt),
    Workload("task", "task_complete=True", _task),
    Workload("explore", "find=failed: no frontier cells remain", _explore),
    Workload("plan-480", "reached=True", _plan_480),
)}
