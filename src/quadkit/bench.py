"""Reproducible experiment entry points: adaptation benchmark, path planning,
and long-horizon scenarios. Each command writes its artifacts plus a manifest
sufficient to re-execute the run."""

from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import dataclass
from importlib import resources

from .adaptation import (
    TERRAIN_DESCRIPTIONS,
    MethodVariant,
    rows_to_csv,
    run_benchmark,
)
from .config import apply_config_data, load_config
from .errors import ConfigError
from .gateway import Gateway, LiveProvider, ScriptedProvider
from .locomotion import gait_name
from .mapping import InstanceMemory, ingest, load_scene
from .navigation import assign_costs, build_cost_map, distance_to_instance, plan_to_target
from .tasks import World, decompose, execute
from .terrain import TERRAIN_TYPES

DEFAULT_TERRAINS = tuple(TERRAIN_DESCRIPTIONS)
DEFAULT_VARIANTS = ("auto", "auto_lss_sampling", "auto_lss_determining")


@dataclass
class RunManifest:
    command: str
    seed: int
    provider: str
    transcript: str | None
    out_dir: str
    config_path: str | None
    args: dict
    config: dict

    def write(self):
        path = os.path.join(self.out_dir, "manifest.json")
        with open(path, "w") as fh:
            json.dump(dataclasses.asdict(self), fh, indent=2, sort_keys=True)
            fh.write("\n")
        return path


def asset_path(*parts) -> str:
    return str(resources.files("quadkit.assets").joinpath("/".join(parts)))


def make_gateway(provider: str, transcript=None, log_path=None) -> Gateway:
    if provider == "scripted":
        if not transcript:
            raise ConfigError("scripted provider requires a transcript path")
        return Gateway(ScriptedProvider.from_file(transcript), log_path=log_path)
    if provider == "live":
        return Gateway(LiveProvider.from_env(), log_path=log_path)
    raise ConfigError(f"unknown provider '{provider}' (use scripted or live)")


def _prepare(out_dir):
    os.makedirs(out_dir, exist_ok=True)


def cmd_adapt(terrains=DEFAULT_TERRAINS, variants=DEFAULT_VARIANTS, runs: int = 10,
              config_path=None, seed: int = 0, provider: str = "scripted",
              transcript=None, out_dir: str = "out", noise_scale=None,
              manual_params_file=None):
    """Run the adaptation benchmark and emit a per-(terrain, variant) CSV."""
    cfg = load_config(config_path)
    if noise_scale is not None:
        cfg.sim.noise_scale = noise_scale
    unknown = [t for t in terrains if t not in TERRAIN_TYPES]
    if unknown:
        raise ConfigError(
            f"unknown terrain(s) {', '.join(unknown)}; valid: {', '.join(TERRAIN_TYPES)}")
    variant_objs = []
    for kind in variants:
        if kind == "manual":
            if not manual_params_file:
                raise ConfigError("manual variant requires a params file")
            variant_objs.append(MethodVariant(kind, manual_params_file))
        else:
            variant_objs.append(MethodVariant(kind))
    if transcript is None and provider == "scripted":
        transcript = asset_path("transcripts", "benchmark.jsonl")
    gateway = make_gateway(provider, transcript)

    _prepare(out_dir)
    rows = run_benchmark(variant_objs, list(terrains), runs, cfg, gateway, root_seed=seed)
    csv_path = os.path.join(out_dir, "benchmark.csv")
    rows_to_csv(rows, csv_path)
    for row in rows:
        dump = os.path.join(out_dir, f"candidates_{row.terrain}_{row.variant}.csv")
        with open(dump, "w") as fh:
            fh.write("body_height,step_frequency,body_pitch,stance_width,swing_height,"
                     "gait,velocity_pct\n")
            for cand, pct in zip(row.result.candidates, row.result.candidate_percents):
                fh.write(f"{cand.body_height:.6f},{cand.step_frequency:.6f},"
                         f"{cand.body_pitch:.6f},{cand.stance_width:.6f},"
                         f"{cand.swing_height:.6f},{gait_name(cand.gait)},{pct:.6f}\n")
    RunManifest(
        command="adapt", seed=seed, provider=provider, transcript=transcript,
        out_dir=out_dir, config_path=str(config_path) if config_path else None,
        args={"terrains": list(terrains), "variants": list(variants), "runs": runs,
              "noise_scale": cfg.sim.noise_scale},
        config=cfg.as_dict(),
    ).write()
    return rows


def cmd_plan(scene_path, instruction: str, config_path=None, seed: int = 0,
             provider: str = "scripted", transcript=None, out_dir: str = "out",
             no_cost: bool = False):
    """Ingest a scene, assign costs, and plan toward the instruction's target.

    Writes the cost-map PGM, the arrival-field CSV, the path record, and a
    result summary with the 0.5 m success flag. An unreachable target still
    emits the arrival field for diagnosis.
    """
    cfg = load_config(config_path)
    scene = load_scene(scene_path)
    gateway = make_gateway(provider, transcript)
    _prepare(out_dir)

    smap = scene.build_map()
    memory = InstanceMemory(p=cfg.mapping.dilation_p)
    for frame in scene.frames:
        ingest(smap, memory, frame, cfg.mapping.sensor_range, cfg.mapping.max_point_height)

    assignment = assign_costs(instruction, smap.categories, gateway, cfg.nav.cost_mode,
                              cfg.nav.unexplored_cost)
    costmap = build_cost_map(smap, assignment, cfg.nav.unexplored_cost, zero_costs=no_cost)
    costmap.to_pgm(os.path.join(out_dir, "costmap.pgm"))

    start = smap.world_to_cell(scene.start_pose[0], scene.start_pose[1])
    target = assignment.target_object
    goal, field, plan, error = plan_to_target(target, memory, smap, costmap, start,
                                              scene.start_pose[2], cfg.nav.speed_floor)
    result = {"target": target, "goal_cell": list(goal) if goal is not None else None,
              "reached": False, "distance_m": None, "no_cost": no_cost}
    if error is not None:
        result["error"] = error
    if field is not None:
        field.to_csv(os.path.join(out_dir, "arrival.csv"))
    if plan is not None:
        plan.to_jsonl(os.path.join(out_dir, "plan.jsonl"))
        dist = distance_to_instance(memory, smap, target, plan.waypoints[-1].world)
        if dist is not None:
            result["distance_m"] = round(dist, 6)
            result["reached"] = dist <= cfg.nav.success_radius
    with open(os.path.join(out_dir, "result.json"), "w") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
        fh.write("\n")
    RunManifest(
        command="plan", seed=seed, provider=provider,
        transcript=str(transcript) if transcript else None, out_dir=out_dir,
        config_path=str(config_path) if config_path else None,
        args={"scene": str(scene_path), "instruction": instruction, "no_cost": no_cost},
        config=cfg.as_dict(),
    ).write()
    return result, plan


def cmd_task(scenario_path, config_path=None, seed: int = 0, out_dir: str = "out",
             provider: str = "scripted", transcript=None):
    """Run a bundled scenario: decompose, execute, evaluate, and write the trace."""
    with open(scenario_path) as fh:
        try:
            scenario = json.load(fh)
        except ValueError as err:
            raise ConfigError(f"scenario {scenario_path} is not valid JSON: {err}") from None
    if not isinstance(scenario, dict):
        raise ConfigError(f"scenario {scenario_path} must hold a JSON object")
    base = os.path.dirname(os.path.abspath(scenario_path))
    instruction = scenario.get("instruction", "").strip()
    if not instruction or "scene" not in scenario:
        raise ConfigError(f"scenario {scenario_path} needs 'instruction' and 'scene'")
    scene = load_scene(os.path.join(base, scenario["scene"]))
    cfg = load_config(config_path)
    if "config" in scenario:
        apply_config_data(cfg, scenario["config"], f"scenario {scenario_path} config")
    if transcript is None and provider == "scripted":
        if "transcript" not in scenario:
            raise ConfigError(f"scenario {scenario_path} names no transcript")
        transcript = os.path.join(base, scenario["transcript"])
    gateway = make_gateway(provider, transcript)
    _prepare(out_dir)

    world = World(scene, cfg, root_seed=seed)
    plan = decompose(instruction, world.library, gateway)
    trace = execute(plan, world, gateway)
    trace.to_jsonl(os.path.join(out_dir, "trace.jsonl"))
    with open(os.path.join(out_dir, "verdicts.csv"), "w") as fh:
        fh.write("index,skill,status\n")
        for i, sg in enumerate(plan):
            fh.write(f"{i},{sg.skill_name},{sg.status}\n")
    RunManifest(
        command="task", seed=seed, provider=provider, transcript=str(transcript),
        out_dir=out_dir, config_path=str(config_path) if config_path else None,
        args={"scenario": str(scenario_path), "instruction": instruction},
        config=cfg.as_dict(),
    ).write()
    return trace, plan, world
