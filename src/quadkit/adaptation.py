"""Automatic locomotion-parameter adaptation.

Variants:
  manual                 parameters read from a file (human-baseline stand-in)
  auto                   model predicts exact numbers; 3 candidates averaged
  auto_prior             auto with extended parameter explanations
  auto_lss_sampling      model votes level ranges, grid candidates simulated,
                         best by xy-velocity episode percent
  auto_lss_determining   model votes level ranges, then picks directly among
                         the interval midpoints (no simulation)

``select_best`` scores a candidate grid as ``(candidates, steps)`` arrays, a
block of candidates at a time: every candidate shares the episode seed and so
the velocity noise.
``surrogate.simulate`` followed by ``rewards.episode_velocity_percent`` remains
the per-candidate reference, and each grid score equals it exactly.

A candidate's gait is its ``GAITS`` preset name, as in a ``LevelSelection``.
Evaluation episodes are scored by ``rewards.episode_percent`` against the
stance flags their ``Trajectory`` was simulated with.
"""

from __future__ import annotations

import itertools
import json
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .config import LssConfig, ToolkitConfig, derive_seed
from .errors import ConfigError, ParseError
from .gateway import (
    PARSE_TEMPERATURE,
    SAMPLING_TEMPERATURE,
    ChatRequest,
    Gateway,
    complete_and_parse,
    load_template,
    parse_levels,
    parse_numeric_params,
    parse_numeric_values,
)
from .locomotion import (
    GAIT_NAMES,
    GAITS,
    GLOBAL_RANGES,
    PARAMETERS,
    PROMPT_PARAM_ORDER,
    BehaviorParams,
    CommandVector,
    Level,
    LevelSelection,
    level_midpoint,
    level_range,
    sample_grid,
)
from .rewards import EpisodeReport, RewardConfig, episode_percent, episode_velocity_percent
from .surrogate import SimConfig, _episode_noise, grid_efficiency, ideal_profile, simulate
from .terrain import TerrainSpec, terrain_by_name

# Straight-line walk at 1 m/s: the benchmark command.
BENCHMARK_COMMAND = CommandVector(1.0, 0.0, 0.0)

# select_best scores its grid in row blocks of about this many (candidate,
# step) cells, so each of its two float64 temporaries stays near 64 KiB
# whatever the grid size (a 4096-candidate grid would otherwise need 8 MiB each).
_SCORE_BLOCK = 1 << 13

VARIANT_KINDS = ("manual", "auto", "auto_prior", "auto_lss_sampling", "auto_lss_determining")

# Environment descriptions fed to the prompts, one per benchmark terrain.
TERRAIN_DESCRIPTIONS = {
    "uphill_slope": "There is an uphill slope. The slope rises 15 centimeters for every meter.",
    "downhill_slope": "There is a downhill slope. The slope descends 40 centimeters for "
                      "every meter.",
    "upside_stair": "There is a staircase going up here. Each step is 10 centimeters in "
                    "height and 50 centimeters in width.",
    "downside_stair": "There is a staircase going down here. Each step is 10 centimeters in "
                      "height and 50 centimeters in width.",
    "uneven_ground": "There is uneven ground. The ground's maximum height is 20 cm, and the "
                     "minimum height is 0 cm.",
}

PROMPT_LABELS = {
    "body_height": "body height",
    "step_frequency": "stepping frequency",
    "swing_height": "foot swing height",
    "body_pitch": "body pitch",
    "stance_width": "foot stance width",
}


@dataclass(frozen=True)
class MethodVariant:
    """One of the five adaptation strategies; manual carries its params file."""

    kind: str
    params_file: str | None = None

    def __post_init__(self):
        if self.kind not in VARIANT_KINDS:
            raise ConfigError(f"unknown variant '{self.kind}'; valid: {', '.join(VARIANT_KINDS)}")
        if self.kind == "manual" and not self.params_file:
            raise ConfigError("manual variant requires a params file")


@dataclass
class AdaptationResult:
    params: BehaviorParams
    candidate_percents: list
    candidates: list


def _majority(votes):
    """Winner of a 3-candidate vote, or None on a full three-way split."""
    value, count = Counter(votes).most_common(1)[0]
    return value if count >= 2 else None


def locate_request(terrain_description: str) -> ChatRequest:
    """The level-location request: three sampled replies."""
    user = load_template("locate_levels").format(terrain_description=terrain_description)
    return ChatRequest("locate_levels", "", user, SAMPLING_TEMPERATURE, 3)


def direct_request(terrain_description: str, with_prior: bool = False) -> ChatRequest:
    """The direct numeric-prediction request: three sampled replies."""
    template_id = "auto_prior" if with_prior else "auto"
    user = load_template(template_id).format(terrain_description=terrain_description)
    return ChatRequest(template_id, "", user, SAMPLING_TEMPERATURE, 3)


def locate_ranges(terrain_description: str, gateway: Gateway) -> LevelSelection:
    """Vote parameter levels: 3 sampled replies, per-parameter majority.

    A three-way split triggers one re-query; parameters still split take the
    middle ordinal of their three votes (gait falls back to trotting).
    """
    request = locate_request(terrain_description)
    votes = complete_and_parse(gateway, request, parse_levels)
    fields = list(PROMPT_PARAM_ORDER) + ["gait"]
    decided = {}
    tied = []
    for name in fields:
        winner = _majority([v[name] for v in votes])
        if winner is None:
            tied.append(name)
        else:
            decided[name] = winner
    if tied:
        votes = complete_and_parse(gateway, request, parse_levels)
        for name in tied:
            winner = _majority([v[name] for v in votes])
            if winner is not None:
                decided[name] = winner
            elif name == "gait":
                decided[name] = "trotting"
            else:
                ordinals = sorted(int(v[name]) for v in votes)
                decided[name] = Level(ordinals[1])
    return LevelSelection(**decided)


def direct_params(terrain_description: str, gateway: Gateway,
                  with_prior: bool = False) -> BehaviorParams:
    """Average three direct numeric predictions; gait by majority vote.

    Each candidate is clamped into the global ranges before averaging.
    """
    candidates = complete_and_parse(gateway, direct_request(terrain_description, with_prior),
                                    parse_numeric_params)
    means = {
        name: sum(getattr(c, name) for c in candidates) / len(candidates)
        for name in PARAMETERS
    }
    gait = _majority([c.gait for c in candidates]) or "trotting"
    return BehaviorParams(gait=gait, **means).validate()


def _thin_axes(axes, cap: int):
    """Evenly thin the longest axes (keeping endpoints) until the grid fits."""
    axes = [list(a) for a in axes]
    def product_size():
        return math.prod(len(a) for a in axes)
    while product_size() > cap:
        lengths = [len(a) for a in axes]
        idx = lengths.index(max(lengths))
        n = lengths[idx]
        if n <= 2:
            break
        keep = max(2, (n + 1) // 2)
        picks = sorted({round(i * (n - 1) / (keep - 1)) for i in range(keep)})
        axes[idx] = [axes[idx][i] for i in picks]
    return axes


def candidate_grid(selection: LevelSelection, cap: int = LssConfig.candidate_cap,
                   include_gaits: bool = LssConfig.grid_gaits, ranges=None) -> list:
    """Cartesian product of the per-parameter sample grids over the selected
    level intervals. The gait is fixed to the selection unless
    ``include_gaits`` adds all four presets as a grid axis."""
    axes = []
    for name in PARAMETERS:
        interval = level_range(name, selection.level(name), ranges)
        axes.append(sample_grid(name, interval))
    gaits = GAIT_NAMES if include_gaits else (selection.gait,)
    axes = _thin_axes(axes, max(1, cap // len(gaits)))
    out = []
    for combo in itertools.product(*axes):
        values = dict(zip(PARAMETERS, combo))
        for g in gaits:
            out.append(BehaviorParams(gait=g, **values))
    return out


def _selection_key(percent: float, cand: BehaviorParams):
    # Score ties resolve toward lower height, then lower frequency, then the
    # remaining parameters ascending, so selection is a total order.
    return (-percent, cand.body_height, cand.step_frequency, cand.swing_height,
            cand.body_pitch, cand.stance_width, cand.gait)


def select_best(candidates, terrain: TerrainSpec, cmd: CommandVector,
                sim_cfg: SimConfig, reward_cfg: RewardConfig | None = None,
                seed: int = 0) -> AdaptationResult:
    """Score every candidate under one episode ``seed`` and return the
    xy-velocity argmax.

    All candidates share the seed's velocity noise, so the grid is scored as
    ``(candidates, steps)`` arrays, a block of rows at a time, with the same
    float operations, in the same order, as ``simulate`` followed by
    ``episode_velocity_percent``: each percent equals that per-candidate
    reference exactly.
    """
    candidates = list(candidates)
    if not candidates:
        raise ValueError("select_best needs at least one candidate")
    sim_cfg.validate()
    cmd.validate()
    e = grid_efficiency(candidates, ideal_profile(terrain))
    reward_cfg = (reward_cfg or RewardConfig()).validate()
    noise_v, _ = _episode_noise(seed, sim_cfg.noise_scale, sim_cfg.steps)
    rows = max(1, _SCORE_BLOCK // sim_cfg.steps)
    sums = np.empty(len(e))
    for lo in range(0, len(e), rows):
        # The velocity multiplier; ``mult`` then becomes the y error in place.
        mult = np.add.outer(e[lo:lo + rows], noise_v)
        np.clip(mult, -1.0, 1.0, out=mult)
        dx = mult * cmd.vx
        dx -= cmd.vx
        mult *= cmd.vy
        mult -= cmd.vy
        dx *= dx
        mult *= mult
        dx += mult
        np.negative(dx, out=dx)
        dx /= reward_cfg.sigma_vxy
        np.exp(dx, out=dx)
        sums[lo:lo + rows] = dx.sum(axis=1)
    percents = (100.0 * sums / sim_cfg.steps).tolist()
    top = max(percents)
    # _selection_key orders by percent first, so only top scorers can win.
    best = min((i for i, p in enumerate(percents) if p == top),
               key=lambda i: _selection_key(percents[i], candidates[i]))
    return AdaptationResult(params=candidates[best], candidate_percents=percents,
                            candidates=candidates)


def locate_simulate_select(terrain_description: str, terrain: TerrainSpec, gateway: Gateway,
                           cfg: ToolkitConfig, seed: int) -> AdaptationResult:
    """The paper's loop: vote level ranges, grid-sample them, simulate every
    candidate on ``terrain`` under episode ``seed`` and keep the best."""
    selection = locate_ranges(terrain_description, gateway)
    candidates = candidate_grid(selection, cfg.lss.candidate_cap, cfg.lss.grid_gaits,
                                cfg.level_ranges)
    return select_best(candidates, terrain, BENCHMARK_COMMAND, cfg.sim, cfg.reward, seed)


def _midpoint_options(ranges=None) -> dict:
    """The five interval midpoints per parameter that the picker chooses among."""
    return {name: [level_midpoint(name, lvl, ranges) for lvl in range(5)]
            for name in PARAMETERS}


def determining_request(terrain_description: str, ranges=None) -> ChatRequest:
    """The midpoint-picking request: one reply at the parsing temperature."""
    options = _midpoint_options(ranges)
    lines = []
    for name in PROMPT_PARAM_ORDER:
        opts = ", ".join(f"{v:g}" for v in options[name])
        lines.append(f"{PROMPT_LABELS[name]}: {opts}")
    user = load_template("determining").format(
        options_block="\n".join(lines), terrain_description=terrain_description)
    return ChatRequest("determining", "", user, PARSE_TEMPERATURE, 1)


def determining_pick(selection: LevelSelection, gateway: Gateway,
                     terrain_description: str, ranges=None) -> BehaviorParams:
    """Ask the model to choose directly among the five interval midpoints per
    parameter; assembled without any simulation."""
    options = _midpoint_options(ranges)
    request = determining_request(terrain_description, ranges)

    def parse_pick(text):
        values = parse_numeric_values(text)
        for name, v in values.items():
            if not any(abs(v - o) < 1e-9 for o in options[name]):
                raise ParseError(
                    f"{name}: {v} is not one of the offered midpoints", what=name)
        return values

    values = complete_and_parse(gateway, request, parse_pick)[0]
    return BehaviorParams(gait=selection.gait, **values)


def manual_params(path) -> BehaviorParams:
    """Load a human-authored parameter file (strictly validated, no clamping)."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, ValueError) as err:
        raise ConfigError(f"cannot load params file {path}: {err}") from None
    if not isinstance(data, dict):
        raise ConfigError(f"params file {path} must hold a JSON object")
    gait = data.get("gait", "trotting")
    if not isinstance(gait, str) or gait not in GAITS:
        raise ConfigError(f"params file {path}: unknown gait {gait!r}; "
                          f"valid: {', '.join(GAIT_NAMES)}")
    values = {}
    for name in PARAMETERS:
        if name not in data:
            raise ConfigError(f"params file {path}: missing '{name}'")
        if type(data[name]) not in (int, float):
            raise ConfigError(f"params file {path}: {name} must be a number, "
                              f"not {type(data[name]).__name__}")
        values[name] = float(data[name])
    try:
        return BehaviorParams(gait=gait, **values).validate()
    except ValueError as err:
        raise ConfigError(f"params file {path}: {err}") from None


def adapt(variant: MethodVariant, terrain: TerrainSpec, gateway: Gateway,
          cfg: ToolkitConfig, seed: int = 0) -> AdaptationResult:
    """Run one adaptation for (variant, terrain) and return the chosen params."""
    description = TERRAIN_DESCRIPTIONS.get(terrain.name, f"There is {terrain.name}.")
    if variant.kind == "auto_lss_sampling":
        return locate_simulate_select(description, terrain, gateway, cfg, seed)
    if variant.kind == "manual":
        params = manual_params(variant.params_file)
    elif variant.kind == "auto_lss_determining":
        selection = locate_ranges(description, gateway)
        params = determining_pick(selection, gateway, description, cfg.level_ranges)
    else:
        params = direct_params(description, gateway, with_prior=variant.kind == "auto_prior")
    traj = simulate(terrain, params, BENCHMARK_COMMAND, cfg.sim, seed)
    pct = episode_velocity_percent(traj, BENCHMARK_COMMAND, cfg.reward)
    return AdaptationResult(params=params, candidate_percents=[pct], candidates=[params])


@dataclass
class BenchRow:
    terrain: str
    variant: str
    report: EpisodeReport
    result: AdaptationResult

    def csv_row(self) -> str:
        return self.report.csv_row(self.terrain, self.variant)


def run_benchmark(variants, terrains, runs: int, cfg: ToolkitConfig,
                  gateway: Gateway, root_seed: int = 0) -> list:
    """Adapt once per (terrain, variant), then average evaluation episodes over
    ``runs`` seeds. Evaluation seeds are shared across variants so rows are
    paired."""
    if runs < 1:
        raise ValueError("runs must be >= 1")
    rows = []
    for terrain_name in terrains:
        spec = terrain_by_name(terrain_name)
        for variant in variants:
            result = adapt(variant, spec, gateway, cfg,
                           seed=derive_seed(root_seed, "adapt", terrain_name, variant.kind))
            reports = []
            for run in range(runs):
                traj = simulate(spec, result.params, BENCHMARK_COMMAND, cfg.sim,
                                derive_seed(root_seed, "eval", terrain_name, run))
                reports.append(episode_percent(traj, BENCHMARK_COMMAND, cfg.reward))
            avg = EpisodeReport(*[
                sum(r.as_tuple()[i] for r in reports) / len(reports) for i in range(4)
            ])
            rows.append(BenchRow(terrain_name, variant.kind, avg, result))
    return rows


def random_baseline_percent(terrain: TerrainSpec, n: int, cfg: ToolkitConfig,
                            root_seed: int = 0) -> float:
    """Mean xy-velocity episode percent of n uniformly random parameter sets."""
    rng = np.random.default_rng(derive_seed(root_seed, "baseline", terrain.name))
    total = 0.0
    for i in range(n):
        values = {
            name: float(rng.uniform(*GLOBAL_RANGES[name])) for name in PARAMETERS
        }
        gait = GAIT_NAMES[int(rng.integers(len(GAIT_NAMES)))]
        params = BehaviorParams(gait=gait, **values)
        traj = simulate(terrain, params, BENCHMARK_COMMAND, cfg.sim,
                        derive_seed(root_seed, "baseline", terrain.name, i))
        total += episode_velocity_percent(traj, BENCHMARK_COMMAND, cfg.reward)
    return total / n


def rows_to_csv(rows, path):
    with open(path, "w", newline="") as fh:
        fh.write("terrain,method,r_vxy_pct,r_wz_pct,r_cf_pct,r_cv_pct\n")
        for row in rows:
            fh.write(row.csv_row() + "\n")
