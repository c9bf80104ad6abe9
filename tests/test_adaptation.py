import json
import math

import pytest

from conftest import fixture_text, make_gateway
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
    locate_ranges,
    manual_params,
    random_baseline_percent,
    rows_to_csv,
    run_benchmark,
    select_best,
)
from quadkit.cli import main
from quadkit.config import ToolkitConfig
from quadkit.errors import ConfigError, ParseError
from quadkit.gateway import parse_levels
from quadkit.locomotion import (
    GAITS,
    BehaviorParams,
    Level,
    level_midpoint,
    level_name,
)
from quadkit.rewards import episode_velocity_percent
from quadkit.surrogate import SimConfig, ideal_params, simulate
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
    assert direct_params("d", gw).gait == GAITS["trotting"]
    gw = make_gateway([
        ("auto", numeric_reply(gait="pronking")),
        ("auto", numeric_reply(gait="pacing")),
        ("auto", numeric_reply(gait="bounding")),
    ])
    assert direct_params("d", gw).gait == GAITS["trotting"]


def test_direct_params_uses_prior_template():
    gw = make_gateway([("auto_prior", numeric_reply())] * 3)
    params = direct_params("desc", gw, with_prior=True)
    assert abs(params.body_height - 0.2) < 1e-12


def test_candidate_grid_counts_by_enumeration():
    candidates = candidate_grid(UPHILL_SELECTION)
    # per-axis sample counts over the voted intervals:
    # height [0.15,0.2]/0.05 -> 2, freq [3.0,3.5]/0.2 -> 4,
    # pitch [0.08,0.24]/0.08 -> 3, stance [0.21,0.29]/0.05 -> 3,
    # swing [0.16,0.21]/0.02 -> 4
    assert len(candidates) == 2 * 4 * 3 * 3 * 4
    assert len(set(candidates)) == len(candidates)
    assert all(c.gait == GAITS["trotting"] for c in candidates)
    heights = {c.body_height for c in candidates}
    assert heights == {0.15, 0.2}


def test_candidate_grid_degenerate_intervals():
    ranges = {name: [(v, v)] * 5 for name, v in (
        ("body_height", 0.2), ("step_frequency", 3.0), ("body_pitch", 0.0),
        ("stance_width", 0.25), ("swing_height", 0.1))}
    candidates = candidate_grid(UPHILL_SELECTION, ranges=ranges)
    assert len(candidates) == 1


def test_candidate_grid_gait_axis():
    candidates = candidate_grid(UPHILL_SELECTION, include_gaits=True)
    assert len(candidates) == 288 * 4
    assert {c.gait for c in candidates} == set(GAITS.values())


def test_candidate_grid_cap_preserves_endpoints():
    full = {name: [tuple(rng)] * 5 for name, rng in (
        ("body_height", (0.1, 0.45)), ("step_frequency", (1.5, 4.0)),
        ("body_pitch", (-0.4, 0.4)), ("stance_width", (0.05, 0.45)),
        ("swing_height", (0.03, 0.25)))}
    candidates = candidate_grid(UPHILL_SELECTION, cap=4096, ranges=full)
    assert 0 < len(candidates) <= 4096
    assert {c.body_height for c in candidates} >= {0.1, 0.45}
    assert {c.step_frequency for c in candidates} >= {1.5, 4.0}
    assert {c.body_pitch for c in candidates} >= {-0.4, 0.4}


def test_select_best_single_candidate():
    terrain = UphillSlope()
    cand = ideal_params(terrain)
    result = select_best([cand], terrain, BENCHMARK_COMMAND, SimConfig(noise_scale=0.0))
    assert result.params == cand
    assert len(result.candidate_percents) == 1


def test_select_best_matches_exhaustive_argmax_oracle():
    terrain = UphillSlope()
    sim_cfg = SimConfig(noise_scale=0.0, seed=0)
    candidates = candidate_grid(UPHILL_SELECTION)
    result = select_best(candidates, terrain, BENCHMARK_COMMAND, sim_cfg)
    # independent exhaustive argmax with the documented tie ordering
    scored = []
    for cand in candidates:
        traj = simulate(terrain, cand, BENCHMARK_COMMAND, sim_cfg)
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
    result = select_best([b, a], terrain, BENCHMARK_COMMAND, SimConfig(noise_scale=0.0))
    assert result.params == a
    values_c = base.continuous()
    values_c["step_frequency"] = 3.1
    c = BehaviorParams(gait=base.gait, **values_c)
    values_d = dict(values_c, step_frequency=3.4)
    d = BehaviorParams(gait=base.gait, **values_d)
    result = select_best([d, c], terrain, BENCHMARK_COMMAND, SimConfig(noise_scale=0.0))
    assert result.params == c


def test_determining_pick_assembles_midpoints():
    reply = ("body height: 0.35\nstepping frequency: 3.25\nfoot swing height: 0.185\n"
             "body pitch: 0.0\nfoot stance width: 0.25")
    gw = make_gateway([("determining", reply)])
    params = determining_pick(UPHILL_SELECTION, gw, "desc")
    assert params.body_height == 0.35          # "high" midpoint
    assert params.body_pitch == 0.0            # "neutral" midpoint
    assert params.step_frequency == 3.25
    assert params.gait == GAITS["trotting"]


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
    assert params.gait == GAITS["bounding"]
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
    assert result.variant == "manual"
    assert result.candidate_percents == [100.0]


def test_variant_validation():
    with pytest.raises(ValueError):
        MethodVariant("magic")
    with pytest.raises(ValueError):
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
                    BENCHMARK_COMMAND, SimConfig(noise_scale=0.0, seed=0))
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
