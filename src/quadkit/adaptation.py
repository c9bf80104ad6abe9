"""Automatic locomotion-parameter adaptation.

Variants:
  manual                 parameters read from a file (human-baseline stand-in)
  auto                   model predicts exact numbers; 3 candidates averaged
  auto_prior             auto with extended parameter explanations
  auto_lss_sampling      model votes level ranges, grid candidates simulated,
                         best by xy-velocity episode percent
  auto_lss_determining   model votes level ranges, then picks directly among
                         the interval midpoints (no simulation)

A candidate grid is a ``CandidateTable``: an ``(N, 5)`` float array in
``PARAMETERS`` order plus the N gait names. ``select_best`` scores it as
``(candidates, steps)`` arrays, a block of candidates at a time (every
candidate shares the episode seed and so the velocity noise), ranks it with
one ``np.lexsort`` and builds only the winner as a ``BehaviorParams``.
``run_benchmark`` lets every variant pick on a terrain first, in order, and
then scores the terrain's rows in one ``score_terrain`` pass: the direct
variants' adapt-seed episodes and every row's evaluation episodes as one
blocked batch. ``evaluate`` and ``adapt`` are its one-row cases.
``surrogate.simulate`` followed by ``rewards.episode_velocity_percent`` or
``rewards.episode_percent`` remains the per-episode reference, and every score
equals it exactly.

A candidate's gait is its ``GAITS`` preset name, as in a ``LevelSelection``.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .config import LssConfig, RewardConfig, SimConfig, ToolkitConfig, derive_seed
from .errors import ConfigError, ParseError, is_finite, json_object, read_json
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
    CandidateTable,
    CommandVector,
    Level,
    LevelSelection,
    level_midpoint,
    level_range,
    sample_grid,
)
from .rewards import (
    EpisodeReport,
    _phase_percents,
    _yaw_terms,
)
from .surrogate import (
    _episode_noise,
    _foot_arrays,
    _gait_schedule,
    grid_efficiency,
    ideal_profile,
)
from .terrain import TerrainSpec, terrain_by_name

# Straight-line walk at 1 m/s: the benchmark command.
BENCHMARK_COMMAND = CommandVector(1.0, 0.0, 0.0)

# Tie order of select_best after the percent: lower values first, then the
# gait name.
_TIE_ORDER = ("body_height", "step_frequency", "swing_height", "body_pitch", "stance_width")

# select_best and score_terrain score in row blocks of about this many
# (episode, step) cells, so each float64 temporary stays near 64 KiB whatever
# the grid size or run count (a 4096-candidate grid would otherwise need 8 MiB
# each).
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
    candidates: CandidateTable


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
                   include_gaits: bool = LssConfig.grid_gaits, ranges=None) -> CandidateTable:
    """Cartesian product of the per-parameter sample grids over the selected
    level intervals, as a table whose last parameter varies fastest. The gait
    is fixed to the selection unless ``include_gaits`` adds all four presets
    as the fastest-varying axis."""
    axes = []
    for name in PARAMETERS:
        interval = level_range(name, selection.level(name), ranges)
        axes.append(sample_grid(name, interval))
    gaits = GAIT_NAMES if include_gaits else (selection.gait,)
    axes = _thin_axes(axes, max(1, cap // len(gaits)))
    combos = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(PARAMETERS))
    return CandidateTable(np.repeat(combos, len(gaits), axis=0),
                          np.tile(np.array(gaits, dtype=str), len(combos)))


def _velocity_xy_sums(mult: np.ndarray, cmd: CommandVector, sigma_vxy: float) -> np.ndarray:
    """Row sums of the xy-velocity term over ``(rows, steps)`` velocity
    multipliers ``e + noise_v``, with the float operations of ``simulate``
    followed by ``rewards._velocity_xy_terms``. ``mult`` is overwritten."""
    np.clip(mult, -1.0, 1.0, out=mult)
    dx = mult * cmd.vx
    dx -= cmd.vx
    # ``mult`` becomes the y error in place.
    mult *= cmd.vy
    mult -= cmd.vy
    dx *= dx
    mult *= mult
    dx += mult
    np.negative(dx, out=dx)
    dx /= sigma_vxy
    np.exp(dx, out=dx)
    return dx.sum(axis=1)


def _velocity_percents(candidates: CandidateTable, terrain: TerrainSpec, cmd: CommandVector,
                       sim_cfg: SimConfig, reward_cfg: RewardConfig | None,
                       seed: int) -> np.ndarray:
    """xy-velocity episode percent of every candidate under one episode seed.

    All candidates share the seed's velocity noise, so a percent depends on
    the candidate only through its efficiency. Each distinct efficiency is
    scored once, as rows of ``(rows, steps)`` arrays a block at a time, and
    each percent equals ``simulate`` followed by ``episode_velocity_percent``
    exactly.
    """
    sim_cfg.validate()
    cmd.validate()
    e = grid_efficiency(candidates, ideal_profile(terrain))
    reward_cfg = (reward_cfg or RewardConfig()).validate()
    noise_v, _ = _episode_noise(seed, sim_cfg.noise_scale, sim_cfg.steps)
    distinct, index = np.unique(e, return_inverse=True)
    rows = max(1, _SCORE_BLOCK // sim_cfg.steps)
    sums = np.empty(len(distinct))
    for lo in range(0, len(distinct), rows):
        sums[lo:lo + rows] = _velocity_xy_sums(np.add.outer(distinct[lo:lo + rows], noise_v),
                                               cmd, reward_cfg.sigma_vxy)
    return (100.0 * sums / sim_cfg.steps)[index]


def select_best(candidates: CandidateTable, terrain: TerrainSpec, cmd: CommandVector,
                sim_cfg: SimConfig, reward_cfg: RewardConfig | None = None,
                seed: int = 0) -> AdaptationResult:
    """Score every candidate under one episode ``seed`` and return the
    xy-velocity argmax.

    Ties resolve toward lower height, then lower frequency, then swing
    height, pitch, stance width and gait name ascending, so selection is a
    total order; one ``np.lexsort`` ranks the table. Only the winner is built
    as a ``BehaviorParams``.
    """
    if not len(candidates):
        raise ValueError("select_best needs at least one candidate")
    percents = _velocity_percents(candidates, terrain, cmd, sim_cfg, reward_cfg, seed)
    # lexsort's last key is the primary one, and it is stable: among equal
    # keys the first candidate wins.
    ties = [candidates.values[:, PARAMETERS.index(name)] for name in reversed(_TIE_ORDER)]
    best = int(np.lexsort((candidates.gaits, *ties, -percents))[0])
    return AdaptationResult(params=candidates.params(best),
                            candidate_percents=percents.tolist(), candidates=candidates)


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


def determining_request(terrain_description: str, options: dict) -> ChatRequest:
    """The midpoint-picking request over ``_midpoint_options``: one reply at
    the parsing temperature."""
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
    request = determining_request(terrain_description, options)

    def parse_pick(text):
        values = parse_numeric_values(text)
        for name, v in values.items():
            if not any(abs(v - o) < 1e-9 for o in options[name]):
                raise ParseError(
                    f"{name}: {v} is not one of the offered midpoints", what=name)
        return values

    values = complete_and_parse(gateway, request, parse_pick)[0]
    return BehaviorParams(gait=selection.gait, **values)


def _params(value) -> BehaviorParams:
    """The five parameters, each a finite number, and an optional gait preset."""
    data = json_object(value, (*PARAMETERS, "gait"))
    gait = data.get("gait", "trotting")
    if not isinstance(gait, str) or gait not in GAITS:
        raise ValueError(f"unknown gait {gait!r}; valid: {', '.join(GAIT_NAMES)}")
    for name in PARAMETERS:
        if not (type(data[name]) in (int, float) and is_finite(data[name])):
            raise ValueError(f"{name} must be a finite number, not {data[name]!r}")
    return BehaviorParams(gait=gait, **{name: float(data[name]) for name in PARAMETERS}).validate()


def manual_params(path) -> BehaviorParams:
    """Load a human-authored parameter file (strictly validated, no clamping)."""
    return read_json("params file", path, _params)


def _pick(variant: MethodVariant, terrain: TerrainSpec, gateway: Gateway, cfg: ToolkitConfig,
          seed: int):
    """The variant's choice on ``terrain``, with its gateway calls: the
    sampling variant's ``select_best`` result under episode ``seed``, or a
    direct variant's ``BehaviorParams``, not yet scored."""
    description = TERRAIN_DESCRIPTIONS.get(terrain.name, f"There is {terrain.name}.")
    if variant.kind == "auto_lss_sampling":
        return locate_simulate_select(description, terrain, gateway, cfg, seed)
    if variant.kind == "manual":
        return manual_params(variant.params_file)
    if variant.kind == "auto_lss_determining":
        selection = locate_ranges(description, gateway)
        return determining_pick(selection, gateway, description, cfg.level_ranges)
    return direct_params(description, gateway, with_prior=variant.kind == "auto_prior")


def _adapt_terrain(variants, terrain: TerrainSpec, gateway: Gateway, cfg: ToolkitConfig,
                   adapt_seeds, seeds) -> tuple:
    """Every variant's ``AdaptationResult`` on ``terrain`` and its episode
    reports under the evaluation ``seeds``.

    The variants pick in order, each with its gateway calls, and then one
    ``score_terrain`` pass scores the rows: a direct variant's percent under
    its adapt seed and every row's evaluation episodes.
    """
    picks = [_pick(v, terrain, gateway, cfg, seed) for v, seed in zip(variants, adapt_seeds)]
    scored = [isinstance(pick, AdaptationResult) for pick in picks]
    params = [pick.params if done else pick for pick, done in zip(picks, scored)]
    percents, reports = score_terrain(
        terrain, params, BENCHMARK_COMMAND, cfg.sim, cfg.reward, seeds,
        [None if done else seed for seed, done in zip(adapt_seeds, scored)])
    results = [pick if done else AdaptationResult(pick, [pct], CandidateTable.of([pick]))
               for pick, done, pct in zip(picks, scored, percents)]
    return results, reports


def adapt(variant: MethodVariant, terrain: TerrainSpec, gateway: Gateway,
          cfg: ToolkitConfig, seed: int = 0) -> AdaptationResult:
    """Run one adaptation for (variant, terrain) and return the chosen params:
    a benchmark terrain with one variant and no evaluation episode."""
    return _adapt_terrain([variant], terrain, gateway, cfg, [seed], [])[0][0]


@dataclass
class BenchRow:
    terrain: str
    variant: str
    report: EpisodeReport
    result: AdaptationResult

    def csv_row(self) -> str:
        return self.report.csv_row(self.terrain, self.variant)


def score_terrain(terrain: TerrainSpec, params, cmd: CommandVector, sim_cfg: SimConfig,
                  reward_cfg: RewardConfig | None, seeds, adapt_seeds=None) -> tuple:
    """Score a terrain's rows in one pass; row ``i`` is ``params[i]``.

    Returns ``(percents, reports)``. ``reports[i]`` holds row ``i``'s
    ``EpisodeReport`` under each of ``seeds``, in order, and each equals
    ``episode_percent(simulate(terrain, params[i], cmd, sim_cfg, seed), cmd,
    reward_cfg)``. ``percents[i]`` is its xy-velocity percent under
    ``adapt_seeds[i]``, equal to ``episode_velocity_percent`` of that episode,
    or None where there is no adapt seed.

    One ``grid_efficiency`` table gives every row's efficiency, and the
    evaluation seeds' noise is stacked once. Each (row, seed) episode is one
    row of the ``_velocity_xy_sums`` batch and each evaluation episode one row
    of the ``_yaw_terms`` batch, a block of at most ``_SCORE_BLOCK`` (episode,
    step) cells at a time. The phase terms do not depend on the seed and are
    computed once per row, with the same float operations as the reference.
    """
    sim_cfg.validate()
    cmd.validate()
    e = grid_efficiency(CandidateTable.of(params), ideal_profile(terrain))
    reward_cfg = (reward_cfg or RewardConfig()).validate()
    n, rows, runs = sim_cfg.steps, len(params), len(seeds)
    direct = np.flatnonzero([seed is not None for seed in adapt_seeds or ()])
    noise = [_episode_noise(seed, sim_cfg.noise_scale, n)
             for seed in [*seeds, *(adapt_seeds[i] for i in direct)]]
    noise_v = np.reshape([v for v, _ in noise], (len(noise), n))
    noise_w = np.reshape([w for _, w in noise[:runs]], (runs, n))
    # Episode k is row ``row[k]`` under noise ``col[k]``: the evaluation
    # episodes row by row, then the direct rows under their adapt seeds.
    row = np.concatenate([np.repeat(np.arange(rows), runs), direct])
    col = np.concatenate([np.tile(np.arange(runs), rows), runs + np.arange(len(direct))])
    wz_e = cmd.wz * e
    xy = np.empty(len(row))
    yaw = np.empty(rows * runs)
    block = max(1, _SCORE_BLOCK // n)
    for lo in range(0, len(row), block):
        r, c = row[lo:lo + block], col[lo:lo + block]
        mult = noise_v[c]
        mult += e[r, None]
        xy[lo:lo + block] = _velocity_xy_sums(mult, cmd, reward_cfg.sigma_vxy)
        k = len(yaw[lo:lo + block])  # the evaluation episodes of this block
        if k:
            w_z = noise_w[c[:k]]
            w_z += wz_e[r[:k], None]
            yaw[lo:lo + k] = _yaw_terms(w_z, cmd, reward_cfg).sum(axis=1)
    xy = (100.0 * xy / n).tolist()
    yaw = (100.0 * yaw / n).tolist()
    reports = []
    for i, (p, e_i) in enumerate(zip(params, e.tolist())):
        contact, load = _gait_schedule(p.gait, p.step_frequency, sim_cfg.dt, n)
        phase = _phase_percents(contact, *_foot_arrays(e_i, contact, load, cmd), reward_cfg)
        episodes = slice(i * runs, (i + 1) * runs)
        reports.append([EpisodeReport(v, w, *phase) for v, w in zip(xy[episodes], yaw[episodes])])
    percents = [None] * rows
    for k, i in enumerate(direct.tolist()):
        percents[i] = xy[rows * runs + k]
    return percents, reports


def evaluate(terrain: TerrainSpec, params: BehaviorParams, cmd: CommandVector,
             sim_cfg: SimConfig, reward_cfg: RewardConfig | None, seeds) -> list:
    """Episode reports of ``params`` on ``terrain``, one per seed, in order:
    the one-row case of ``score_terrain``."""
    seeds = list(seeds)
    if not seeds:
        raise ValueError("evaluate needs at least one seed")
    return score_terrain(terrain, [params], cmd, sim_cfg, reward_cfg, seeds)[1][0]


def run_benchmark(variants, terrains, runs: int, cfg: ToolkitConfig,
                  gateway: Gateway, root_seed: int = 0) -> list:
    """Adapt once per (terrain, variant), then average evaluation episodes over
    ``runs`` seeds. Evaluation seeds are shared across variants so rows are
    paired, and each terrain's rows are scored in one ``score_terrain`` pass."""
    if runs < 1:
        raise ValueError("runs must be >= 1")
    rows = []
    for terrain_name in terrains:
        spec = terrain_by_name(terrain_name)
        seeds = [derive_seed(root_seed, "eval", terrain_name, run) for run in range(runs)]
        adapt_seeds = [derive_seed(root_seed, "adapt", terrain_name, v.kind) for v in variants]
        results, reports = _adapt_terrain(variants, spec, gateway, cfg, adapt_seeds, seeds)
        for variant, result, row_reports in zip(variants, results, reports):
            avg = EpisodeReport(*[
                sum(r.as_tuple()[i] for r in row_reports) / len(row_reports) for i in range(4)
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
        table = CandidateTable.of([BehaviorParams(gait=gait, **values)])
        total += float(_velocity_percents(table, terrain, BENCHMARK_COMMAND, cfg.sim, cfg.reward,
                                          derive_seed(root_seed, "baseline", terrain.name, i))[0])
    return total / n


def rows_to_csv(rows, path):
    with open(path, "w", newline="") as fh:
        fh.write("terrain,method,r_vxy_pct,r_wz_pct,r_cf_pct,r_cv_pct\n")
        for row in rows:
            fh.write(row.csv_row() + "\n")


def write_candidates(fh, result: AdaptationResult):
    """Write a result's candidate table and percents as CSV text to ``fh``:
    the parameters in ``PARAMETERS`` order, the gait and the percent, every
    number with 6 decimals."""
    table = result.candidates
    fh.write(",".join(PARAMETERS) + ",gait,velocity_pct\n")
    fh.writelines("%.6f,%.6f,%.6f,%.6f,%.6f,%s,%.6f\n" % (*values, gait, pct)
                  for values, gait, pct in zip(table.values.tolist(), table.gaits.tolist(),
                                               result.candidate_percents))
