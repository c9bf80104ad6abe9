import io
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import fixture_text, make_gateway
from oracles import (
    candidate_grid_params,
    candidates_csv_reference,
    random_baseline_reference,
    select_best_reference,
    selection_key,
)
from quadkit import adaptation
from quadkit.adaptation import (
    BENCHMARK_COMMAND,
    TERRAIN_DESCRIPTIONS,
    AdaptationResult,
    LevelSelection,
    MethodVariant,
    adapt,
    candidate_grid,
    determining_pick,
    direct_params,
    evaluate,
    locate_ranges,
    manual_params,
    random_baseline_percent,
    rows_to_csv,
    run_benchmark,
    score_terrain,
    select_best,
    write_candidates,
)
from quadkit.cli import main
from quadkit.config import RewardConfig, SimConfig, ToolkitConfig
from quadkit.errors import ConfigError, ParseError
from quadkit.gateway import parse_levels
from quadkit.locomotion import (
    GAIT_NAMES,
    GAITS,
    GLOBAL_RANGES,
    PARAMETERS,
    BehaviorParams,
    CandidateTable,
    CommandVector,
    Level,
    level_midpoint,
    level_name,
)
from quadkit.rewards import episode_percent, episode_velocity_percent
from quadkit.surrogate import IDEAL_PROFILES, ideal_params, simulate
from quadkit.terrain import UphillSlope, terrain_by_name

UPHILL_SELECTION = LevelSelection(
    body_height=Level.LOW, step_frequency=Level.HIGH, body_pitch=Level.HIGH,
    stance_width=Level.MEDIUM, swing_height=Level.HIGH, gait="trotting")


def levels_reply(body_height="Low", step_frequency="High", swing_height="High",
                 body_pitch="Positive", stance_width="Medium", gait="Trotting"):
    return (f"A1: {body_height}.\nA2: {step_frequency}.\nA3: {swing_height}.\n"
            f"A4: {body_pitch}.\nA5: {stance_width}.\nA6: {gait}.")


def numeric_reply(height=0.2, freq=3.2, swing=0.18, pitch=0.15, stance=0.25,
                  gait="trotting"):
    return (f"body height: {height}, stepping frequency: {freq}, "
            f"foot swing height: {swing}, body pitch: {pitch}, "
            f"foot stance width: {stance}, gait: {gait}")


def test_locate_ranges_uphill_example():
    reply = fixture_text("uphill_levels_reply.txt")
    gw = make_gateway([("locate_levels", reply)] * 3)
    selection = locate_ranges("There is an uphill slope.", gw)
    assert selection == UPHILL_SELECTION


def test_locate_ranges_majority_vote():
    gw = make_gateway([
        ("locate_levels", levels_reply(body_height="Low")),
        ("locate_levels", levels_reply(body_height="Low")),
        ("locate_levels", levels_reply(body_height="Medium")),
    ])
    selection = locate_ranges("desc", gw)
    assert selection.body_height == Level.LOW


def test_locate_ranges_three_way_tie_requeries_then_takes_middle():
    split = [
        ("locate_levels", levels_reply(body_height="Low")),
        ("locate_levels", levels_reply(body_height="Medium")),
        ("locate_levels", levels_reply(body_height="High")),
    ]
    gw = make_gateway(split + split)
    selection = locate_ranges("desc", gw)
    assert selection.body_height == Level.MEDIUM
    # parameters with a clean majority in round one are kept
    assert selection.step_frequency == Level.HIGH


def test_locate_ranges_requery_can_resolve_tie():
    round1 = [
        ("locate_levels", levels_reply(stance_width="Low")),
        ("locate_levels", levels_reply(stance_width="Medium")),
        ("locate_levels", levels_reply(stance_width="High")),
    ]
    round2 = [("locate_levels", levels_reply(stance_width="High"))] * 3
    gw = make_gateway(round1 + round2)
    selection = locate_ranges("desc", gw)
    assert selection.stance_width == Level.HIGH


def test_locate_ranges_retries_then_fails_on_garbage():
    gw = make_gateway([("locate_levels", "nonsense")] * 6)
    with pytest.raises(ParseError):
        locate_ranges("desc", gw)


def test_locate_ranges_parse_retry_recovers():
    good = fixture_text("uphill_levels_reply.txt")
    gw = make_gateway([("locate_levels", "garbage")] * 3
                      + [("locate_levels", good)] * 3)
    selection = locate_ranges("desc", gw)
    assert selection == UPHILL_SELECTION


def test_direct_params_averages_three_candidates():
    gw = make_gateway([
        ("auto", numeric_reply(height=0.2)),
        ("auto", numeric_reply(height=0.3)),
        ("auto", numeric_reply(height=0.25)),
    ])
    params = direct_params("desc", gw)
    assert abs(params.body_height - 0.25) < 1e-12


def test_direct_params_clamps_before_averaging():
    gw = make_gateway([
        ("auto", numeric_reply(height=0.5)),   # clamped to 0.45
        ("auto", numeric_reply(height=0.45)),
        ("auto", numeric_reply(height=0.45)),
    ])
    params = direct_params("desc", gw)
    assert abs(params.body_height - 0.45) < 1e-12


def test_direct_params_gait_majority_and_tie():
    gw = make_gateway([
        ("auto", numeric_reply(gait="trotting")),
        ("auto", numeric_reply(gait="trotting")),
        ("auto", numeric_reply(gait="pacing")),
    ])
    assert direct_params("d", gw).gait == "trotting"
    gw = make_gateway([
        ("auto", numeric_reply(gait="pronking")),
        ("auto", numeric_reply(gait="pacing")),
        ("auto", numeric_reply(gait="bounding")),
    ])
    assert direct_params("d", gw).gait == "trotting"


def test_direct_params_uses_prior_template():
    gw = make_gateway([("auto_prior", numeric_reply())] * 3)
    params = direct_params("desc", gw, with_prior=True)
    assert abs(params.body_height - 0.2) < 1e-12


def rows_of(table):
    """A candidate table's rows as ``BehaviorParams``, in order."""
    return [table.params(i) for i in range(len(table))]


def test_candidate_grid_counts_by_enumeration():
    candidates = candidate_grid(UPHILL_SELECTION)
    # per-axis sample counts over the voted intervals:
    # height [0.15,0.2]/0.05 -> 2, freq [3.0,3.5]/0.2 -> 4,
    # pitch [0.08,0.24]/0.08 -> 3, stance [0.21,0.29]/0.05 -> 3,
    # swing [0.16,0.21]/0.02 -> 4
    assert len(candidates) == 2 * 4 * 3 * 3 * 4
    assert candidates.values.shape == (len(candidates), 5)
    assert candidates.values.dtype == np.float64
    assert len(set(map(tuple, candidates.values.tolist()))) == len(candidates)
    assert set(candidates.gaits.tolist()) == {"trotting"}
    heights = set(candidates.values[:, PARAMETERS.index("body_height")].tolist())
    assert heights == {0.15, 0.2}
    assert rows_of(candidates) == candidate_grid_params(UPHILL_SELECTION, 4096)


def test_candidate_grid_degenerate_intervals():
    ranges = {name: [(v, v)] * 5 for name, v in (
        ("body_height", 0.2), ("step_frequency", 3.0), ("body_pitch", 0.0),
        ("stance_width", 0.25), ("swing_height", 0.1))}
    candidates = candidate_grid(UPHILL_SELECTION, ranges=ranges)
    assert len(candidates) == 1
    assert rows_of(candidates) == candidate_grid_params(UPHILL_SELECTION, 4096, ranges=ranges)


def test_candidate_grid_gait_axis():
    candidates = candidate_grid(UPHILL_SELECTION, include_gaits=True)
    assert len(candidates) == 288 * 4
    assert set(candidates.gaits.tolist()) == set(GAITS)
    assert rows_of(candidates) == candidate_grid_params(UPHILL_SELECTION, 4096, True)


def test_candidate_grid_cap_preserves_endpoints():
    full = {name: [tuple(rng)] * 5 for name, rng in (
        ("body_height", (0.1, 0.45)), ("step_frequency", (1.5, 4.0)),
        ("body_pitch", (-0.4, 0.4)), ("stance_width", (0.05, 0.45)),
        ("swing_height", (0.03, 0.25)))}
    candidates = candidate_grid(UPHILL_SELECTION, cap=4096, ranges=full)
    assert 0 < len(candidates) <= 4096

    def column(name):
        return set(candidates.values[:, PARAMETERS.index(name)].tolist())

    assert column("body_height") >= {0.1, 0.45}
    assert column("step_frequency") >= {1.5, 4.0}
    assert column("body_pitch") >= {-0.4, 0.4}
    assert rows_of(candidates) == candidate_grid_params(UPHILL_SELECTION, 4096, ranges=full)


@settings(max_examples=100, deadline=None)
@given(levels=st.lists(st.sampled_from(list(Level)), min_size=5, max_size=5),
       gait=st.sampled_from(GAIT_NAMES), include_gaits=st.booleans())
def test_candidate_grid_never_exceeds_the_config_floor(levels, gait, include_gaits):
    # The smallest cap LssConfig accepts is one no grid exceeds.
    floor = 32 * (4 if include_gaits else 1)
    selection = LevelSelection(*levels, gait)
    assert len(candidate_grid(selection, floor, include_gaits)) <= floor
    assert len(candidate_grid(selection, floor - 1, include_gaits)) == floor


def test_select_best_single_candidate():
    terrain = UphillSlope()
    cand = ideal_params(terrain)
    result = select_best(CandidateTable.of([cand]), terrain, BENCHMARK_COMMAND,
                         SimConfig(noise_scale=0.0))
    assert result.params == cand
    assert len(result.candidate_percents) == 1


def test_select_best_matches_exhaustive_argmax_oracle():
    terrain = UphillSlope()
    sim_cfg = SimConfig(noise_scale=0.0)
    candidates = candidate_grid(UPHILL_SELECTION)
    result = select_best(candidates, terrain, BENCHMARK_COMMAND, sim_cfg, seed=0)
    # independent exhaustive argmax with the documented tie ordering
    scored = []
    for cand in rows_of(candidates):
        traj = simulate(terrain, cand, BENCHMARK_COMMAND, sim_cfg, 0)
        pct = episode_velocity_percent(traj, BENCHMARK_COMMAND)
        scored.append((pct, cand))
    best_pct = max(p for p, _ in scored)
    pool = [c for p, c in scored if p == best_pct]
    oracle = min(pool, key=lambda c: (c.body_height, c.step_frequency, c.swing_height,
                                      c.body_pitch, c.stance_width))
    assert result.params == oracle
    assert max(result.candidate_percents) == best_pct


def test_select_best_tie_prefers_lower_height_then_frequency():
    terrain = UphillSlope()
    base = ideal_params(terrain)
    values_a = base.continuous()
    values_b = base.continuous()
    values_a["body_height"] = 0.16
    values_b["body_height"] = 0.19  # both inside the ideal interval -> tie
    a = BehaviorParams(gait=base.gait, **values_a)
    b = BehaviorParams(gait=base.gait, **values_b)
    result = select_best(CandidateTable.of([b, a]), terrain, BENCHMARK_COMMAND,
                         SimConfig(noise_scale=0.0))
    assert result.params == a
    values_c = base.continuous()
    values_c["step_frequency"] = 3.1
    c = BehaviorParams(gait=base.gait, **values_c)
    values_d = dict(values_c, step_frequency=3.4)
    d = BehaviorParams(gait=base.gait, **values_d)
    result = select_best(CandidateTable.of([d, c]), terrain, BENCHMARK_COMMAND,
                         SimConfig(noise_scale=0.0))
    assert result.params == c


@settings(max_examples=60, deadline=None)
@given(levels=st.lists(st.sampled_from(list(Level)), min_size=5, max_size=5),
       gait=st.sampled_from(GAIT_NAMES), include_gaits=st.booleans(),
       cap=st.sampled_from([1, 5, 64, 500, 4096]),
       terrain_name=st.sampled_from(sorted(IDEAL_PROFILES)),
       seed=st.integers(0, 2**32 - 1), noise_scale=st.sampled_from([0.0, 0.05, 0.4]),
       steps=st.integers(1, 300), dt=st.sampled_from([0.005, 0.02]),
       sigma_vxy=st.sampled_from([0.01, 0.25, 4.0]),
       cmd=st.sampled_from([BENCHMARK_COMMAND, CommandVector(0.6, -0.35, 0.4)]))
def test_select_best_equals_per_candidate_simulation(levels, gait, include_gaits, cap,
                                                     terrain_name, seed, noise_scale, steps,
                                                     dt, sigma_vxy, cmd):
    # The grid is scored as arrays; each percent must equal the
    # simulate + episode_velocity_percent reference exactly, not approximately.
    selection = LevelSelection(*levels, gait)
    table = candidate_grid(selection, cap, include_gaits)
    candidates = candidate_grid_params(selection, cap, include_gaits)
    assert rows_of(table) == candidates
    terrain = terrain_by_name(terrain_name)
    sim_cfg = SimConfig(steps=steps, dt=dt, noise_scale=noise_scale)
    reward_cfg = RewardConfig(sigma_vxy=sigma_vxy)
    result = select_best(table, terrain, cmd, sim_cfg, reward_cfg, seed)
    oracle = [episode_velocity_percent(simulate(terrain, c, cmd, sim_cfg, seed), cmd,
                                       reward_cfg) for c in candidates]
    assert result.candidate_percents == oracle
    assert result.candidates is table
    best = min(range(len(candidates)), key=lambda i: selection_key(oracle[i], candidates[i]))
    assert result.params == candidates[best]


def assert_table_matches_params_oracle(candidates, terrain, sim_cfg, seed):
    """select_best on the table of ``candidates`` picks the winner, and
    write_candidates writes the CSV text, of the per-candidate oracles."""
    result = select_best(CandidateTable.of(candidates), terrain, BENCHMARK_COMMAND, sim_cfg,
                         seed=seed)
    best, percents = select_best_reference(candidates, terrain, BENCHMARK_COMMAND, sim_cfg,
                                           seed=seed)
    assert result.params == best
    assert result.candidate_percents == percents
    text = io.StringIO()
    write_candidates(text, result)
    assert text.getvalue() == candidates_csv_reference(candidates, percents)
    return result


# Few values per parameter, so that rows tie on the percent and on every key
# after it; -0.0 and 0.0 are equal keys but print differently.
_POOLS = {name: [lo, (lo + hi) / 2, hi] for name, (lo, hi) in GLOBAL_RANGES.items()}
_POOLS["body_pitch"] += [0.0, -0.0]


@settings(max_examples=80, deadline=None)
@given(rows=st.lists(st.fixed_dictionaries(
           {name: st.sampled_from(pool) for name, pool in _POOLS.items()},
           optional={"gait": st.sampled_from(GAIT_NAMES)}), min_size=1, max_size=40),
       terrain_name=st.sampled_from(sorted(IDEAL_PROFILES)),
       noise_scale=st.sampled_from([0.0, 0.05]), seed=st.integers(0, 2**32 - 1))
def test_select_best_table_equals_params_oracle_on_random_tables(rows, terrain_name,
                                                                 noise_scale, seed):
    candidates = [BehaviorParams(**dict({"gait": "trotting"}, **row)) for row in rows]
    assert_table_matches_params_oracle(candidates, terrain_by_name(terrain_name),
                                       SimConfig(noise_scale=noise_scale), seed)


@pytest.mark.parametrize("terrain_name", sorted(IDEAL_PROFILES))
@pytest.mark.parametrize("include_gaits", [False, True])
def test_select_best_table_equals_params_oracle_on_ideal_grids(terrain_name, include_gaits):
    # Every candidate of the ideal selection's grid lies in the ideal
    # intervals: all of them tie on the percent, except the other gaits'.
    selection = IDEAL_PROFILES[terrain_name]
    candidates = candidate_grid_params(selection, 4096, include_gaits)
    result = assert_table_matches_params_oracle(candidates, terrain_by_name(terrain_name),
                                                SimConfig(), 5)
    top = [p for p, c in zip(result.candidate_percents, candidates) if c.gait == selection.gait]
    assert len(top) == len(candidates) // (4 if include_gaits else 1)
    assert set(top) == {max(result.candidate_percents)}


@settings(max_examples=60, deadline=None)
@given(runs=st.integers(1, 12), steps=st.integers(1, 300),
       values=st.fixed_dictionaries({name: st.floats(*GLOBAL_RANGES[name])
                                     for name in PARAMETERS}),
       gait=st.sampled_from(GAIT_NAMES), terrain_name=st.sampled_from(sorted(IDEAL_PROFILES)),
       root=st.integers(0, 2**32 - 1), noise_scale=st.sampled_from([0.0, 0.05, 0.4]),
       dt=st.sampled_from([0.005, 0.02]), swing_selector_on_stance=st.booleans(),
       flat_phase_max=st.booleans(), sigma=st.sampled_from([0.01, 0.25, 100.0]),
       cmd=st.sampled_from([BENCHMARK_COMMAND, CommandVector(0.6, -0.35, 0.4)]))
# pronking at step 0 has every foot in stance: no swing foot is ever selected
@example(runs=2, steps=1, values={"body_height": 0.15, "step_frequency": 3.0,
                                  "body_pitch": 0.1, "stance_width": 0.25,
                                  "swing_height": 0.2},
         gait="pronking", terrain_name="uphill_slope", root=0, noise_scale=0.05, dt=0.02,
         swing_selector_on_stance=False, flat_phase_max=False, sigma=0.25,
         cmd=BENCHMARK_COMMAND)
def test_evaluate_equals_per_episode_reference(runs, steps, values, gait, terrain_name, root,
                                               noise_scale, dt, swing_selector_on_stance,
                                               flat_phase_max, sigma, cmd):
    # Any params: gait-mismatched, outside the ideal intervals or inside them.
    params = BehaviorParams(gait=gait, **values)
    terrain = terrain_by_name(terrain_name)
    sim_cfg = SimConfig(steps=steps, dt=dt, noise_scale=noise_scale)
    reward_cfg = RewardConfig(sigma_vxy=sigma, sigma_wz=sigma, sigma_cf=sigma * 400,
                              sigma_cv=sigma,
                              swing_selector_on_stance=swing_selector_on_stance,
                              flat_phase_max=flat_phase_max)
    seeds = [root + run for run in range(runs)]
    reports = evaluate(terrain, params, cmd, sim_cfg, reward_cfg, seeds)
    expected = [episode_percent(simulate(terrain, params, cmd, sim_cfg, seed), cmd, reward_cfg)
                for seed in seeds]
    assert [r.as_tuple() for r in reports] == [r.as_tuple() for r in expected]


ROW_PARAMS = st.builds(
    lambda gait, values: BehaviorParams(gait=gait, **values), st.sampled_from(GAIT_NAMES),
    st.fixed_dictionaries({name: st.floats(*GLOBAL_RANGES[name]) for name in PARAMETERS}))


@settings(max_examples=60, deadline=None)
@given(params=st.lists(ROW_PARAMS, min_size=1, max_size=4),
       adapt=st.lists(st.one_of(st.none(), st.integers(0, 2**32 - 1)), min_size=4, max_size=4),
       runs=st.integers(1, 12), steps=st.integers(1, 300),
       terrain_name=st.sampled_from(sorted(IDEAL_PROFILES)), root=st.integers(0, 2**32 - 1),
       noise_scale=st.sampled_from([0.0, 0.05, 0.4]), dt=st.sampled_from([0.005, 0.02]),
       cmd=st.sampled_from([BENCHMARK_COMMAND, CommandVector(0.6, -0.35, 0.4)]))
# a pronking row beside a trotting one, and 4 x 12 x 250 cells: two blocks
@example(params=[BehaviorParams(gait="pronking", body_height=0.15, step_frequency=3.0,
                                body_pitch=0.1, stance_width=0.25, swing_height=0.2),
                 ideal_params(UphillSlope()), ideal_params(UphillSlope()),
                 BehaviorParams(gait="bounding", body_height=0.1, step_frequency=4.0,
                                body_pitch=-0.2, stance_width=0.1, swing_height=0.05)],
         adapt=[5, None, 7, 5], runs=12, steps=250, terrain_name="uphill_slope", root=0,
         noise_scale=0.05, dt=0.02, cmd=BENCHMARK_COMMAND)
def test_score_terrain_equals_per_row_evaluate_and_per_episode_reference(
        params, adapt, runs, steps, terrain_name, root, noise_scale, dt, cmd):
    # Rows of any gait and frequency, inside or off the ideal intervals; each
    # row's reports equal its own evaluate and one simulate per episode, and
    # each adapt-seed percent one simulate under that seed.
    terrain = terrain_by_name(terrain_name)
    sim_cfg = SimConfig(steps=steps, dt=dt, noise_scale=noise_scale)
    reward_cfg = RewardConfig()
    seeds = [root + run for run in range(runs)]
    adapt_seeds = adapt[:len(params)]
    percents, reports = score_terrain(terrain, params, cmd, sim_cfg, reward_cfg, seeds,
                                      adapt_seeds)
    for row, seed, percent, row_reports in zip(params, adapt_seeds, percents, reports):
        assert row_reports == evaluate(terrain, row, cmd, sim_cfg, reward_cfg, seeds)
        assert row_reports == [episode_percent(simulate(terrain, row, cmd, sim_cfg, s), cmd,
                                               reward_cfg) for s in seeds]
        assert percent == (None if seed is None else episode_velocity_percent(
            simulate(terrain, row, cmd, sim_cfg, seed), cmd, reward_cfg))


@pytest.mark.parametrize("block", [1, 250, 251, 7 * 250])
def test_score_terrain_is_the_same_in_any_block_size(monkeypatch, block):
    terrain = UphillSlope()
    params = [ideal_params(terrain),
              BehaviorParams(gait="pronking", body_height=0.3, step_frequency=2.0,
                             body_pitch=0.3, stance_width=0.3, swing_height=0.05)]
    args = (terrain, params, BENCHMARK_COMMAND, SimConfig(), RewardConfig(), list(range(5)),
            [None, 11])
    whole = score_terrain(*args)
    monkeypatch.setattr(adaptation, "_SCORE_BLOCK", block)
    assert score_terrain(*args) == whole


def test_evaluate_scores_pronking_no_swing_episode_as_vacuous_100():
    # A single pronking step at phase 0 selects no swing foot.
    terrain = UphillSlope()
    params = BehaviorParams(**dict(ideal_params(terrain).continuous(), gait="pronking"))
    sim_cfg = SimConfig(steps=1)
    reports = evaluate(terrain, params, BENCHMARK_COMMAND, sim_cfg, RewardConfig(), [3, 4])
    assert [r.swing_force_pct for r in reports] == [100.0, 100.0]
    assert reports == [episode_percent(simulate(terrain, params, BENCHMARK_COMMAND, sim_cfg, s),
                                       BENCHMARK_COMMAND) for s in (3, 4)]


def test_evaluate_rejects_what_simulate_rejects():
    terrain = UphillSlope()
    good = ideal_params(terrain)
    bad = BehaviorParams(**dict(good.continuous(), stance_width=0.6, gait=good.gait))
    for params, sim_cfg, cmd, reward_cfg in (
            (bad, SimConfig(), BENCHMARK_COMMAND, None),
            (good, SimConfig(steps=0), BENCHMARK_COMMAND, None),
            (good, SimConfig(), CommandVector(2.5, 0.0, 0.0), None),
            (good, SimConfig(), BENCHMARK_COMMAND, RewardConfig(sigma_cf=0.0))):
        message = _raised(lambda: evaluate(terrain, params, cmd, sim_cfg, reward_cfg, [1]))
        assert message == _raised(lambda: episode_percent(
            simulate(terrain, params, cmd, sim_cfg, 1), cmd, reward_cfg))
    assert "at least one seed" in _raised(
        lambda: evaluate(terrain, good, BENCHMARK_COMMAND, SimConfig(), None, []))


def _raised(call) -> str:
    with pytest.raises(ValueError) as err:
        call()
    return str(err.value)


@pytest.mark.parametrize("value", [0.6, -0.01, math.nan])
def test_select_best_rejects_candidate_outside_global_range(value):
    terrain = UphillSlope()
    good = ideal_params(terrain)
    bad = BehaviorParams(**dict(good.continuous(), stance_width=value, gait=good.gait))
    cfg = SimConfig()
    message = _raised(lambda: select_best(CandidateTable.of([good, good, bad, good]), terrain,
                                          BENCHMARK_COMMAND, cfg))
    assert message.startswith("stance_width=")
    assert message == _raised(lambda: simulate(terrain, bad, BENCHMARK_COMMAND, cfg))


@pytest.mark.parametrize("gait", ["galloping", "Trotting"])
def test_select_best_rejects_candidate_with_unknown_gait(gait):
    terrain = UphillSlope()
    good = ideal_params(terrain)
    bad = BehaviorParams(**dict(good.continuous(), gait=gait))
    cfg = SimConfig()
    message = _raised(lambda: select_best(CandidateTable.of([good, bad, good]), terrain,
                                          BENCHMARK_COMMAND, cfg))
    assert message == f"unknown gait preset '{gait}'"
    assert message == _raised(lambda: simulate(terrain, bad, BENCHMARK_COMMAND, cfg))


def test_select_best_rejects_bad_sim_config():
    terrain = UphillSlope()
    cfg = SimConfig(steps=0)
    message = _raised(lambda: select_best(CandidateTable.of([ideal_params(terrain)]), terrain,
                                          BENCHMARK_COMMAND, cfg))
    assert message == _raised(lambda: simulate(terrain, ideal_params(terrain),
                                               BENCHMARK_COMMAND, cfg))
    assert "steps" in message


def test_select_best_rejects_bad_command():
    terrain = UphillSlope()
    cmd = CommandVector(2.5, 0.0, 0.0)
    message = _raised(lambda: select_best(CandidateTable.of([ideal_params(terrain)]), terrain,
                                          cmd, SimConfig()))
    assert message == _raised(lambda: simulate(terrain, ideal_params(terrain), cmd,
                                               SimConfig()))
    assert "exceeds" in message


def test_select_best_rejects_bad_reward_config():
    terrain = UphillSlope()
    reward_cfg = RewardConfig(sigma_vxy=0.0)
    message = _raised(lambda: select_best(CandidateTable.of([ideal_params(terrain)]), terrain,
                                          BENCHMARK_COMMAND, SimConfig(), reward_cfg))
    traj = simulate(terrain, ideal_params(terrain), BENCHMARK_COMMAND, SimConfig())
    assert message == _raised(lambda: episode_velocity_percent(traj, BENCHMARK_COMMAND,
                                                               reward_cfg))
    assert "sigma_vxy" in message


def test_select_best_rejects_empty_candidates():
    message = _raised(lambda: select_best(CandidateTable.of(iter(())), UphillSlope(),
                                          BENCHMARK_COMMAND, SimConfig()))
    assert "at least one candidate" in message


def test_determining_pick_assembles_midpoints():
    reply = ("body height: 0.35\nstepping frequency: 3.25\nfoot swing height: 0.185\n"
             "body pitch: 0.0\nfoot stance width: 0.25")
    gw = make_gateway([("determining", reply)])
    params = determining_pick(UPHILL_SELECTION, gw, "desc")
    assert params.body_height == 0.35          # "high" midpoint
    assert params.body_pitch == 0.0            # "neutral" midpoint
    assert params.step_frequency == 3.25
    assert params.gait == "trotting"


def test_determining_pick_rejects_non_midpoint_after_retry():
    reply = ("body height: 0.33\nstepping frequency: 3.25\nfoot swing height: 0.185\n"
             "body pitch: 0.0\nfoot stance width: 0.25")
    gw = make_gateway([("determining", reply), ("determining", reply)])
    with pytest.raises(ParseError) as err:
        determining_pick(UPHILL_SELECTION, gw, "desc")
    assert err.value.what == "body_height"


def test_determining_pick_retry_recovers():
    bad = "body height: 0.33"
    good = ("body height: 0.175\nstepping frequency: 3.25\nfoot swing height: 0.185\n"
            "body pitch: 0.16\nfoot stance width: 0.25")
    gw = make_gateway([("determining", bad), ("determining", good)])
    params = determining_pick(UPHILL_SELECTION, gw, "desc")
    assert params.body_height == 0.175


def test_manual_params_roundtrip(tmp_path):
    path = tmp_path / "params.json"
    path.write_text(json.dumps({
        "body_height": 0.2, "step_frequency": 3.0, "body_pitch": 0.1,
        "stance_width": 0.3, "swing_height": 0.15, "gait": "bounding"}))
    params = manual_params(path)
    assert params.gait == "bounding"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "body_height": 0.99, "step_frequency": 3.0, "body_pitch": 0.1,
        "stance_width": 0.3, "swing_height": 0.15, "gait": "trotting"}))
    with pytest.raises(ConfigError):
        manual_params(bad)


GOOD_PARAMS = {"body_height": 0.2, "step_frequency": 3.0, "body_pitch": 0.1,
               "stance_width": 0.3, "swing_height": 0.15}


@pytest.mark.parametrize("text, field", [
    ("not json", None),
    ("[1]", None),
    (json.dumps({k: v for k, v in GOOD_PARAMS.items() if k != "step_frequency"}),
     "step_frequency"),
    (json.dumps(dict(GOOD_PARAMS, gait="galloping")), "galloping"),
    (json.dumps(dict(GOOD_PARAMS, gait=[1])), "gait"),
    (json.dumps(dict(GOOD_PARAMS, body_height=0.9)), "body_height"),
    (json.dumps(dict(GOOD_PARAMS, body_height="0.2")), "body_height"),
], ids=["not-json", "not-object", "missing-field", "unknown-gait", "unhashable-gait",
        "out-of-range", "string-number"])
def test_manual_params_rejects_bad_files(tmp_path, text, field):
    path = tmp_path / "bad_params.json"
    path.write_text(text)
    with pytest.raises(ConfigError, match="bad_params.json") as err:
        manual_params(path)
    assert field is None or field in str(err.value)


def test_manual_params_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="absent.json"):
        manual_params(tmp_path / "absent.json")


def test_cli_bad_manual_params_exits_2(tmp_path, capsys):
    path = tmp_path / "bad_params.json"
    path.write_text(json.dumps(dict(GOOD_PARAMS, gait="galloping")))
    code = main(["adapt", "--runs", "1", "--terrains", "uphill_slope", "--variants", "manual",
                 "--manual-params", str(path), "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert "error:" in err and "bad_params.json" in err and "galloping" in err


def test_adapt_dispatch_manual(tmp_path):
    path = tmp_path / "params.json"
    path.write_text(json.dumps({
        "body_height": 0.175, "step_frequency": 3.25, "body_pitch": 0.16,
        "stance_width": 0.25, "swing_height": 0.185, "gait": "trotting"}))
    cfg = ToolkitConfig()
    cfg.sim.noise_scale = 0.0
    gw = make_gateway([])
    result = adapt(MethodVariant("manual", str(path)), UphillSlope(), gw, cfg)
    assert result.candidate_percents == [100.0]


def test_variant_validation():
    with pytest.raises(ConfigError, match="unknown variant 'magic'"):
        MethodVariant("magic")
    with pytest.raises(ConfigError, match="requires a params file"):
        MethodVariant("manual")


def test_run_benchmark_single_run_equals_average():
    cfg = ToolkitConfig()
    cfg.sim.noise_scale = 0.0
    reply = fixture_text("uphill_levels_reply.txt")
    gw = make_gateway([("locate_levels", reply)] * 3)
    rows = run_benchmark([MethodVariant("auto_lss_sampling")], ["uphill_slope"],
                         runs=1, cfg=cfg, gateway=gw)
    assert len(rows) == 1
    row = rows[0]
    traj = simulate(terrain_by_name("uphill_slope"), row.result.params,
                    BENCHMARK_COMMAND, SimConfig(noise_scale=0.0), 0)
    single = episode_velocity_percent(traj, BENCHMARK_COMMAND)
    assert abs(row.report.vel_xy_pct - single) < 1e-9


def test_run_benchmark_csv_schema(tmp_path):
    cfg = ToolkitConfig()
    cfg.sim.noise_scale = 0.0
    reply = fixture_text("uphill_levels_reply.txt")
    gw = make_gateway([("locate_levels", reply)] * 3)
    rows = run_benchmark([MethodVariant("auto_lss_sampling")], ["uphill_slope"],
                         runs=2, cfg=cfg, gateway=gw)
    path = tmp_path / "bench.csv"
    rows_to_csv(rows, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "terrain,method,r_vxy_pct,r_wz_pct,r_cf_pct,r_cv_pct"
    fields = lines[1].split(",")
    assert fields[0] == "uphill_slope" and fields[1] == "auto_lss_sampling"
    assert len(fields) == 6
    assert all(float(v) >= 0 for v in fields[2:])


def test_random_baseline_is_weak():
    cfg = ToolkitConfig()
    cfg.sim.noise_scale = 0.0
    baseline = random_baseline_percent(UphillSlope(), 25, cfg)
    assert 0.0 < baseline < 60.0


@pytest.mark.parametrize("terrain_name, root_seed", [("uphill_slope", 0), ("uneven_ground", 9)])
def test_random_baseline_equals_per_episode_reference(terrain_name, root_seed):
    cfg = ToolkitConfig()
    terrain = terrain_by_name(terrain_name)
    assert random_baseline_percent(terrain, 40, cfg, root_seed) == random_baseline_reference(
        terrain, 40, cfg, root_seed)


def test_majority_vote_is_permutation_invariant():
    replies = [
        levels_reply(body_height="Low", gait="Trotting"),
        levels_reply(body_height="Low", gait="Pacing"),
        levels_reply(body_height="Medium", gait="Trotting"),
    ]
    import itertools
    selections = set()
    for perm in itertools.permutations(replies):
        gw = make_gateway([("locate_levels", r) for r in perm])
        selections.add(locate_ranges("desc", gw))
    assert len(selections) == 1
    only = selections.pop()
    assert only.body_height == Level.LOW
    assert only.gait == "trotting"
