"""Reproducible experiment entry points: adaptation benchmark, path planning,
and long-horizon scenarios. Each command writes its artifacts and a
manifest.json: ``cmd_<command>(**args)`` with the manifest's seed, provider,
transcript and config_path re-runs it. This module opens its own files with
the module-level ``open``, so a wrapper bound to that name sees them."""

from __future__ import annotations

import json
import os
from importlib import resources

from .adaptation import (
    TERRAIN_DESCRIPTIONS,
    VARIANT_KINDS,
    MethodVariant,
    rows_to_csv,
    run_benchmark,
    write_candidates,
)
from .config import MAX_EPISODE_STEPS, MAX_RUNS, ToolkitConfig, apply_config_data, load_config
from .errors import ConfigError, json_object, read_json
from .gateway import Gateway, LiveProvider, ScriptedProvider
from .mapping import load_scene
from .navigation import assign_costs, build_cost_map, distance_to_instance, plan_to_target
from .tasks import SKILLS, World, decompose, execute
from .terrain import TERRAIN_TYPES

DEFAULT_TERRAINS = tuple(TERRAIN_DESCRIPTIONS)
DEFAULT_VARIANTS = ("auto", "auto_lss_sampling", "auto_lss_determining")


def asset_path(*parts) -> str:
    return str(resources.files("quadkit.assets").joinpath("/".join(parts)))


def make_gateway(provider: str, transcript=None, log_path=None) -> Gateway:
    if provider == "scripted":
        if not transcript:
            raise ConfigError("scripted provider requires a transcript path (--transcript)")
        return Gateway(ScriptedProvider.from_file(transcript), log_path=log_path)
    if provider == "live":
        return Gateway(LiveProvider.from_env(), log_path=log_path)
    raise ConfigError(f"unknown provider '{provider}' (use scripted or live)")


def _write_json(path, data):
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_manifest(command: str, out_dir, cfg: ToolkitConfig, args: dict, seed: int,
                    provider: str, transcript, config_path):
    """Write ``out_dir/manifest.json``; an absent transcript or config path is null."""
    _write_json(os.path.join(out_dir, "manifest.json"), {
        "command": command, "seed": seed, "provider": provider, "out_dir": str(out_dir),
        "transcript": str(transcript) if transcript else None,
        "config_path": str(config_path) if config_path else None,
        "args": args, "config": cfg.as_dict()})


def cmd_adapt(terrains=DEFAULT_TERRAINS, variants=DEFAULT_VARIANTS, runs: int = 10,
              config_path=None, seed: int = 0, provider: str = "scripted",
              transcript=None, out_dir: str = "out", noise_scale=None,
              manual_params_file=None):
    """Run the adaptation benchmark and emit a per-(terrain, variant) CSV."""
    cfg = load_config(config_path)
    if noise_scale is not None:
        cfg.sim.noise_scale = noise_scale
        try:
            cfg.sim.validate()
        except ValueError as err:
            raise ConfigError(str(err)) from None
    if runs < 1:
        raise ConfigError(f"runs must be >= 1, not {runs}")
    if runs > MAX_RUNS:
        raise ConfigError(f"runs must be <= {MAX_RUNS}, not {runs}")
    if runs * cfg.sim.steps > MAX_EPISODE_STEPS:
        raise ConfigError(f"runs x sim.steps must be <= {MAX_EPISODE_STEPS}, "
                          f"not {runs} x {cfg.sim.steps} = {runs * cfg.sim.steps}")
    if not terrains:
        raise ConfigError(f"no terrain given; valid: {', '.join(TERRAIN_TYPES)}")
    if not variants:
        raise ConfigError(f"no variant given; valid: {', '.join(VARIANT_KINDS)}")
    unknown = [t for t in terrains if t not in TERRAIN_TYPES]
    if unknown:
        raise ConfigError(
            f"unknown terrain(s) {', '.join(unknown)}; valid: {', '.join(TERRAIN_TYPES)}")
    variant_objs = [MethodVariant(kind, manual_params_file if kind == "manual" else None)
                    for kind in variants]
    if transcript is None and provider == "scripted":
        transcript = asset_path("transcripts", "benchmark.jsonl")
    gateway = make_gateway(provider, transcript)

    os.makedirs(out_dir, exist_ok=True)
    rows = run_benchmark(variant_objs, list(terrains), runs, cfg, gateway, root_seed=seed)
    csv_path = os.path.join(out_dir, "benchmark.csv")
    rows_to_csv(rows, csv_path)
    for row in rows:
        dump = os.path.join(out_dir, f"candidates_{row.terrain}_{row.variant}.csv")
        with open(dump, "w") as fh:
            write_candidates(fh, row.result)
    _write_manifest("adapt", out_dir, cfg, {
        "terrains": list(terrains), "variants": list(variants), "runs": runs,
        "noise_scale": cfg.sim.noise_scale,
        "manual_params_file": str(manual_params_file) if manual_params_file else None,
    }, seed, provider, transcript, config_path)
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
    # No reference to the scene is kept, so each frame is freed once ingested.
    world = World(load_scene(scene_path), cfg, root_seed=seed)
    gateway = make_gateway(provider, transcript)
    os.makedirs(out_dir, exist_ok=True)

    world.ingest_pending()
    smap, memory = world.smap, world.memory

    assignment = assign_costs(instruction, smap.categories, gateway, cfg.nav.cost_mode,
                              cfg.nav.unexplored_cost)
    costmap = build_cost_map(smap, assignment, cfg.nav.unexplored_cost, zero_costs=no_cost)
    costmap.to_pgm(os.path.join(out_dir, "costmap.pgm"))

    target = assignment.target_object
    goal, field, plan, error = plan_to_target(target, memory, costmap, world.pose_cell(),
                                              world.pose[2], cfg.nav.speed_floor,
                                              full_field=True)
    result = {"target": target, "goal_cell": list(goal) if goal is not None else None,
              "reached": False, "distance_m": None, "no_cost": no_cost}
    if error is not None:
        result["error"] = error
    if field is not None:
        field.to_csv(os.path.join(out_dir, "arrival.csv"))
    if plan is not None:
        plan.to_jsonl(os.path.join(out_dir, "plan.jsonl"))
        dist = distance_to_instance(memory, target, plan.world[-1])
        if dist is not None:
            result["distance_m"] = round(dist, 6)
            result["reached"] = dist <= cfg.nav.success_radius
    _write_json(os.path.join(out_dir, "result.json"), result)
    _write_manifest("plan", out_dir, cfg, {
        "scene_path": str(scene_path), "instruction": instruction, "no_cost": no_cost,
    }, seed, provider, transcript, config_path)
    return result, plan


SCENARIO_KEYS = ("instruction", "scene", "transcript", "config")


def load_scenario(path, cfg: ToolkitConfig) -> dict:
    """Read a scenario file: a non-blank string ``instruction``, a string
    ``scene``, an optional string ``transcript``, and an optional ``config``
    object, merged onto ``cfg``; a malformed file raises ConfigError."""

    def parse(value):
        scenario = json_object(value, SCENARIO_KEYS)
        for key in ("instruction", "scene", "transcript"):
            if not isinstance(scenario.get(key, ""), str):
                raise ValueError(f"'{key}' must be a string, not {type(scenario[key]).__name__}")
        if not scenario.get("instruction", "").strip() or "scene" not in scenario:
            raise ValueError("needs 'instruction' and 'scene'")
        if "config" in scenario:
            apply_config_data(cfg, scenario["config"], f"scenario {path} config")
        return scenario

    # Opened with this module's ``open``, so a wrapper bound to that name sees it.
    return read_json("scenario", path, parse, opener=open)


def cmd_task(scenario_path, config_path=None, seed: int = 0, out_dir: str = "out",
             provider: str = "scripted", transcript=None):
    """Run a bundled scenario: decompose, execute, evaluate, and write the trace."""
    cfg = load_config(config_path)
    scenario = load_scenario(scenario_path, cfg)
    base = os.path.dirname(os.path.abspath(scenario_path))
    instruction = scenario["instruction"].strip()
    # No reference to the scene is kept, so each frame is freed once ingested.
    world = World(load_scene(os.path.join(base, scenario["scene"])), cfg, root_seed=seed)
    if transcript is None and provider == "scripted":
        if "transcript" not in scenario:
            raise ConfigError(f"scenario {scenario_path} names no transcript")
        transcript = os.path.join(base, scenario["transcript"])
    gateway = make_gateway(provider, transcript)
    os.makedirs(out_dir, exist_ok=True)

    plan = decompose(instruction, SKILLS, gateway)
    trace = execute(plan, world, gateway)
    trace.to_jsonl(os.path.join(out_dir, "trace.jsonl"))
    with open(os.path.join(out_dir, "verdicts.csv"), "w") as fh:
        fh.write("index,skill,status\n")
        for i, sg in enumerate(plan):
            fh.write(f"{i},{sg.skill_name},{sg.status}\n")
    _write_manifest("task", out_dir, cfg, {"scenario_path": str(scenario_path)},
                    seed, provider, transcript, config_path)
    return trace, plan, world
