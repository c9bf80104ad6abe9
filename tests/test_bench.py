import json
import os

import pytest

from quadkit.bench import asset_path, cmd_adapt, cmd_plan, cmd_task, make_gateway
from quadkit.cli import main
from quadkit.errors import ConfigError


def test_cmd_adapt_default_grid_row_count(tmp_path):
    rows = cmd_adapt(runs=1, out_dir=str(tmp_path), seed=0)
    assert len(rows) == 15  # 5 terrains x 3 default variants
    csv_lines = (tmp_path / "benchmark.csv").read_text().splitlines()
    assert len(csv_lines) == 16
    assert csv_lines[0] == "terrain,method,r_vxy_pct,r_wz_pct,r_cf_pct,r_cv_pct"
    assert os.path.exists(tmp_path / "manifest.json")
    dumps = list(tmp_path.glob("candidates_*.csv"))
    assert len(dumps) == 15


def test_cmd_adapt_rerun_is_byte_identical(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    cmd_adapt(terrains=("uphill_slope",), runs=1, out_dir=str(a), seed=7)
    cmd_adapt(terrains=("uphill_slope",), runs=1, out_dir=str(b), seed=7)
    assert (a / "benchmark.csv").read_bytes() == (b / "benchmark.csv").read_bytes()


def test_cmd_adapt_rejects_unknown_terrain(tmp_path):
    with pytest.raises(ConfigError) as err:
        cmd_adapt(terrains=("lava",), runs=1, out_dir=str(tmp_path))
    assert "uphill_slope" in str(err.value)


def test_cmd_adapt_manifest_sufficient_to_reexecute(tmp_path):
    cmd_adapt(terrains=("uphill_slope",), runs=1, out_dir=str(tmp_path), seed=3)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["seed"] == 3
    assert manifest["provider"] == "scripted"
    assert manifest["transcript"].endswith("benchmark.jsonl")
    assert manifest["args"]["runs"] == 1
    assert "sim" in manifest["config"]


def test_cmd_plan_band_scene_detours(tmp_path):
    scene = asset_path("scenes", "band.jsonl")
    transcript = asset_path("transcripts", "plan_band.jsonl")
    result, plan = cmd_plan(scene, "Go to the chair", transcript=transcript,
                            out_dir=str(tmp_path / "cost"))
    assert result["reached"]
    assert os.path.exists(tmp_path / "cost" / "costmap.pgm")
    assert os.path.exists(tmp_path / "cost" / "arrival.csv")
    assert os.path.exists(tmp_path / "cost" / "plan.jsonl")
    result_nc, plan_nc = cmd_plan(scene, "Go to the chair", transcript=transcript,
                                  out_dir=str(tmp_path / "nocost"), no_cost=True)
    assert result_nc["reached"]
    # the with-cost plan avoids the mattress band; the ablation goes through it
    from quadkit.config import load_config
    from quadkit.mapping import InstanceMemory, ingest, load_scene
    sc = load_scene(scene)
    smap = sc.build_map()
    memory = InstanceMemory(3)
    for frame in sc.frames:
        ingest(smap, memory, frame)
    band = {tuple(c) for c in zip(*(smap.grid[1] != 0).nonzero())}
    assert not (set(plan.cells) & band)
    assert set(plan_nc.cells) & band


def test_cmd_plan_unreachable_target_still_writes_field(tmp_path):
    # chair sealed behind a cost-1 box wall
    from quadkit.mapping import Frame, LabeledPointCloud, Scene, save_scene
    half = 60
    points = [(1.5, 0.0, 0.1, 1)]
    ring = set()
    for c in range(84, 97):
        ring.update({(54, c), (66, c)})
    for r in range(54, 67):
        ring.update({(r, 84), (r, 96)})
    points += [((c - half + 0.5) * 0.05, (r - half + 0.5) * 0.05, 0.1, 0)
               for (r, c) in sorted(ring)]
    scene = Scene(categories=["box wall", "chair"], m=120, cell_size=0.05,
                  frames=[Frame(0, (-2.0, 0.0, 0.0), LabeledPointCloud(tuple(points))),
                          Frame(1, (1.0, 0.0, 0.0), LabeledPointCloud(()))],
                  start_pose=(-2.0, 0.0, 0.0))
    scene_path = tmp_path / "walled.jsonl"
    save_scene(scene, scene_path)
    transcript = tmp_path / "transcript.jsonl"
    reply = json.dumps({"target_object": "chair", "obstacles": [],
                        "terrain": [{"type": "box wall", "cost": 1, "gait": 0},
                                    {"type": "chair", "cost": 0, "gait": 0}]})
    transcript.write_text(json.dumps({"template_id": "cost_map", "response": reply}) + "\n")
    result, plan = cmd_plan(str(scene_path), "Go to the chair",
                            transcript=str(transcript), out_dir=str(tmp_path / "out"))
    assert result["reached"] is False
    assert plan is None
    assert "error" in result
    assert os.path.exists(tmp_path / "out" / "arrival.csv")


def test_cmd_task_bundled_scenario(tmp_path):
    scenario = asset_path("scenarios", "long_horizon.json")
    trace, plan, world = cmd_task(scenario, out_dir=str(tmp_path))
    assert trace.task_complete
    assert len(plan) == 6
    assert [sg.status for sg in plan] == ["succeeded"] * 6
    verdicts = (tmp_path / "verdicts.csv").read_text().splitlines()
    assert len(verdicts) == 7
    assert os.path.exists(tmp_path / "trace.jsonl")


def test_cmd_plan_byte_reproducible(tmp_path):
    scene = asset_path("scenes", "band.jsonl")
    transcript = asset_path("transcripts", "plan_band.jsonl")
    for sub in ("a", "b"):
        cmd_plan(scene, "Go to the chair", transcript=transcript,
                 out_dir=str(tmp_path / sub))
    for name in ("costmap.pgm", "arrival.csv", "plan.jsonl", "result.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_cmd_task_byte_reproducible(tmp_path):
    scenario = asset_path("scenarios", "long_horizon.json")
    a = tmp_path / "a"
    b = tmp_path / "b"
    cmd_task(scenario, out_dir=str(a))
    cmd_task(scenario, out_dir=str(b))
    assert (a / "trace.jsonl").read_bytes() == (b / "trace.jsonl").read_bytes()
    assert (a / "verdicts.csv").read_bytes() == (b / "verdicts.csv").read_bytes()


def test_make_gateway_validation():
    with pytest.raises(ConfigError):
        make_gateway("scripted", transcript=None)
    with pytest.raises(ConfigError):
        make_gateway("telepathy")


def test_cli_adapt(tmp_path, capsys):
    code = main(["adapt", "--runs", "1", "--terrains", "uphill_slope",
                 "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "uphill_slope,auto," in out


def test_cli_plan_and_task(tmp_path, capsys):
    code = main(["plan", "--scene", asset_path("scenes", "band_free.jsonl"),
                 "--instruction", "Go to the chair",
                 "--transcript", asset_path("transcripts", "plan_band.jsonl"),
                 "--out", str(tmp_path / "plan")])
    assert code == 0
    code = main(["task", "--scenario", asset_path("scenarios", "long_horizon.json"),
                 "--out", str(tmp_path / "task")])
    assert code == 0
    out = capsys.readouterr().out
    assert "task_complete=True" in out


def test_cli_usage_error_exit_code(tmp_path, capsys):
    code = main(["adapt", "--terrains", "lava", "--out", str(tmp_path)])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_cli_plan_malformed_scene_exits_2(tmp_path, capsys):
    scene = tmp_path / "no_pose.jsonl"
    scene.write_text(json.dumps({"categories": ["floor"], "M": 40}) + "\n"
                     + json.dumps({"points": []}) + "\n")
    code = main(["plan", "--scene", str(scene), "--instruction", "Go to the chair",
                 "--transcript", asset_path("transcripts", "plan_band.jsonl"),
                 "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert "error:" in err
    assert "no_pose.jsonl" in err and "line 2" in err


def test_cmd_task_rejects_bad_scenario_files(tmp_path):
    empty = tmp_path / "empty.json"
    empty.write_text("{}")
    with pytest.raises(ConfigError):
        cmd_task(str(empty), out_dir=str(tmp_path / "out"))
    no_transcript = tmp_path / "nt.json"
    no_transcript.write_text(json.dumps({"instruction": "sit", "scene": "missing.jsonl"}))
    with pytest.raises((ConfigError, OSError)):
        cmd_task(str(no_transcript), out_dir=str(tmp_path / "out2"))


def test_cmd_plan_empty_scene_explores(tmp_path):
    from quadkit.mapping import Frame, LabeledPointCloud, Scene, save_scene
    scene = Scene(categories=["floor"], m=160, cell_size=0.05,
                  frames=[Frame(0, (0.0, 0.0, 0.0), LabeledPointCloud(()))],
                  start_pose=(0.0, 0.0, 0.0))
    scene_path = tmp_path / "empty_scene.jsonl"
    save_scene(scene, scene_path)
    transcript = tmp_path / "t.jsonl"
    reply = json.dumps({"target_object": "chair", "obstacles": [],
                        "terrain": [{"type": "floor", "cost": 0, "gait": 0}]})
    transcript.write_text(json.dumps({"template_id": "cost_map", "response": reply}) + "\n")
    result, plan = cmd_plan(str(scene_path), "Go to the chair",
                            transcript=str(transcript), out_dir=str(tmp_path / "out"))
    # unknown target: the plan heads for the nearest frontier instead
    assert result["reached"] is False
    assert result["distance_m"] is None
    assert plan is not None and len(plan.waypoints) >= 1
    assert os.path.exists(tmp_path / "out" / "plan.jsonl")


def test_cmd_plan_reports_when_no_goal_exists(tmp_path):
    # fully explored map with no matching instance: no frontier, no goal
    from quadkit.mapping import Frame, LabeledPointCloud, Scene, save_scene
    scene = Scene(categories=["floor"], m=80, cell_size=0.05,
                  frames=[Frame(0, (0.0, 0.0, 0.0), LabeledPointCloud(()))],
                  start_pose=(0.0, 0.0, 0.0))
    scene_path = tmp_path / "tiny.jsonl"
    save_scene(scene, scene_path)
    transcript = tmp_path / "t.jsonl"
    reply = json.dumps({"target_object": "chair", "obstacles": [],
                        "terrain": [{"type": "floor", "cost": 0, "gait": 0}]})
    transcript.write_text(json.dumps({"template_id": "cost_map", "response": reply}) + "\n")
    result, plan = cmd_plan(str(scene_path), "Go to the chair",
                            transcript=str(transcript), out_dir=str(tmp_path / "out"))
    assert result["reached"] is False
    assert plan is None
    assert "error" in result
    assert os.path.exists(tmp_path / "out" / "result.json")


@pytest.mark.parametrize("text", ["not json", "[1]"])
def test_cli_task_invalid_scenario_exits_2(tmp_path, capsys, text):
    scenario = tmp_path / "bad_scenario.json"
    scenario.write_text(text)
    code = main(["task", "--scenario", str(scenario), "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert "error:" in err and "bad_scenario.json" in err


def test_cli_plan_malformed_transcript_exits_2(tmp_path, capsys):
    transcript = tmp_path / "t.jsonl"
    transcript.write_text(json.dumps({"template_id": "cost_map"}) + "\n")
    code = main(["plan", "--scene", asset_path("scenes", "band_free.jsonl"),
                 "--instruction", "Go to the chair", "--transcript", str(transcript),
                 "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert "error:" in err and "line 1" in err and "'response'" in err


def test_cmd_plan_pads_costs_with_configured_unexplored_cost(tmp_path, monkeypatch):
    import quadkit.bench as bench
    assignments = []
    build = bench.build_cost_map

    def spy(smap, assignment, *args, **kwargs):
        assignments.append(assignment)
        return build(smap, assignment, *args, **kwargs)

    monkeypatch.setattr(bench, "build_cost_map", spy)
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"nav": {"unexplored_cost": 0.9}}))
    transcript = tmp_path / "t.jsonl"
    reply = json.dumps({"target_object": "chair", "obstacles": [], "terrain": []})
    transcript.write_text(json.dumps({"template_id": "cost_map", "response": reply}) + "\n")
    cmd_plan(asset_path("scenes", "band_free.jsonl"), "Go to the chair",
             config_path=str(config), transcript=str(transcript),
             out_dir=str(tmp_path / "out"))
    (assignment,) = assignments
    assert assignment.terrain
    assert all(t.cost == 0.9 for t in assignment.terrain)
