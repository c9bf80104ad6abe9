import builtins
import json
import os
import sys

import pytest

from oracles import run_benchmark_reference
from quadkit import bench, mapping, rewards, surrogate
from quadkit.adaptation import TERRAIN_DESCRIPTIONS, MethodVariant, direct_request
from quadkit.bench import (
    DEFAULT_TERRAINS,
    DEFAULT_VARIANTS,
    asset_path,
    cmd_adapt,
    cmd_plan,
    cmd_task,
    make_gateway,
)
from quadkit.cli import main
from quadkit.config import MAX_EPISODE_STEPS, MAX_RUNS, MAX_SCENE_CELLS, ToolkitConfig
from quadkit.errors import ConfigError
from quadkit.gateway import Gateway, ScriptedProvider


def test_cmd_adapt_default_grid_row_count(tmp_path):
    rows = cmd_adapt(runs=1, out_dir=str(tmp_path), seed=0)
    assert len(rows) == 15  # 5 terrains x 3 default variants
    csv_lines = (tmp_path / "benchmark.csv").read_text().splitlines()
    assert len(csv_lines) == 16
    assert csv_lines[0] == "terrain,method,r_vxy_pct,r_wz_pct,r_cf_pct,r_cv_pct"
    assert os.path.exists(tmp_path / "manifest.json")
    dumps = list(tmp_path.glob("candidates_*.csv"))
    assert len(dumps) == 15


def count_calls(monkeypatch, function) -> list:
    """Count calls of ``function`` from every quadkit module that holds it."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return function(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("quadkit") and module is not None:
            for key, value in list(vars(module).items()):
                if value is function:
                    monkeypatch.setattr(module, key, counted)
    return calls


def test_cmd_adapt_scores_without_per_episode_calls_and_equals_reference(tmp_path,
                                                                        monkeypatch):
    # The evaluation episodes and the direct variants' episodes run as arrays,
    # not one simulate and episode_percent call per episode.
    simulated = count_calls(monkeypatch, surrogate.simulate)
    scored = count_calls(monkeypatch, rewards.episode_percent)
    cmd_adapt(runs=10, out_dir=str(tmp_path), seed=0)
    assert (len(simulated), len(scored)) == (0, 0)
    monkeypatch.undo()
    gateway = make_gateway("scripted", asset_path("transcripts", "benchmark.jsonl"))
    benchmark, dumps = run_benchmark_reference(
        [MethodVariant(kind) for kind in DEFAULT_VARIANTS], DEFAULT_TERRAINS, 10,
        ToolkitConfig(), gateway)
    assert (tmp_path / "benchmark.csv").read_bytes() == benchmark.encode()
    assert sorted(p.name for p in tmp_path.glob("candidates_*.csv")) == sorted(dumps)
    for name, text in dumps.items():
        assert (tmp_path / name).read_bytes() == text.encode(), name


def test_cmd_adapt_every_variant_in_any_order_equals_reference(tmp_path, monkeypatch):
    # All five variants, not in VARIANT_KINDS order, at a non-default seed:
    # manual reads a params file, auto_prior answers from the transcript.
    params = tmp_path / "params.json"
    params.write_text(json.dumps({"body_height": 0.12, "step_frequency": 2.4,
                                  "swing_height": 0.09, "body_pitch": -0.1,
                                  "stance_width": 0.3, "gait": "bounding"}))
    with open(asset_path("transcripts", "benchmark.jsonl")) as fh:
        entries = [json.loads(line) for line in fh]
    for terrain in DEFAULT_TERRAINS:
        digest = direct_request(TERRAIN_DESCRIPTIONS[terrain], with_prior=True).digest()
        replies = [e["response"] for e in entries if e["template_id"] == "auto"][:3]
        entries += [{"template_id": "auto_prior", "request_hash": digest,
                     "response": reply.replace("trotting", "pronking")} for reply in replies]
    transcript = tmp_path / "transcript.jsonl"
    transcript.write_text("".join(json.dumps(e) + "\n" for e in entries))
    kinds = ("auto_lss_determining", "manual", "auto_prior", "auto_lss_sampling", "auto")
    simulated = count_calls(monkeypatch, surrogate.simulate)
    scored = count_calls(monkeypatch, rewards.episode_percent)
    out = tmp_path / "out"
    cmd_adapt(variants=kinds, runs=4, seed=11, transcript=str(transcript), out_dir=str(out),
              manual_params_file=str(params))
    assert (len(simulated), len(scored)) == (0, 0)
    monkeypatch.undo()
    benchmark, dumps = run_benchmark_reference(
        [MethodVariant(kind, str(params) if kind == "manual" else None) for kind in kinds],
        DEFAULT_TERRAINS, 4, ToolkitConfig(), make_gateway("scripted", str(transcript)),
        root_seed=11)
    assert (out / "benchmark.csv").read_bytes() == benchmark.encode()
    assert sorted(p.name for p in out.glob("candidates_*.csv")) == sorted(dumps)
    for name, text in dumps.items():
        assert (out / name).read_bytes() == text.encode(), name


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
    memory = InstanceMemory(smap, 3)
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


def test_cli_scripted_plan_without_transcript_names_the_flag(tmp_path, capsys):
    code = main(["plan", "--scene", asset_path("scenes", "band_free.jsonl"),
                 "--instruction", "Go to the chair", "--out", str(tmp_path)])
    assert code == 2
    assert "error: scripted provider requires a transcript path (--transcript)" in \
        capsys.readouterr().err


@pytest.mark.parametrize("command, default", [
    ("adapt", "(defaults to the bundled benchmark transcript)"),
    ("plan", "(required with --provider scripted)"),
    ("task", "(defaults to the scenario's transcript)"),
])
def test_cli_transcript_help_states_each_default(capsys, command, default):
    with pytest.raises(SystemExit):
        main([command, "--help"])
    assert f"scripted transcript file {default}" in " ".join(capsys.readouterr().out.split())


def test_cli_usage_error_exit_code(tmp_path, capsys):
    code = main(["adapt", "--terrains", "lava", "--out", str(tmp_path)])
    assert code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("flags, message", [
    (["--noise-scale", "-1"], "noise_scale must be >= 0, not -1.0"),
    (["--runs", "0"], "runs must be >= 1, not 0"),
    (["--noise-scale", "nan"], "noise_scale must be finite, not nan"),
    (["--noise-scale", "inf"], "noise_scale must be finite, not inf"),
    (["--variants", "auto,bogus"], "unknown variant 'bogus'"),
    (["--variants", "manual"], "manual variant requires a params file"),
])
def test_cli_adapt_out_of_range_value_exits_2(tmp_path, capsys, flags, message):
    code = main(["adapt", "--terrains", "uphill_slope", "--out", str(tmp_path)] + flags)
    assert code == 2
    assert f"error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("flags, message", [
    (["--terrains", ""], "no terrain given"),
    (["--terrains", ","], "no terrain given"),
    (["--variants", ""], "no variant given"),
    (["--variants", ","], "no variant given"),
])
def test_cli_adapt_empty_list_exits_2(tmp_path, capsys, flags, message):
    code = main(["adapt", "--terrains", "uphill_slope", "--runs", "1",
                 "--out", str(tmp_path)] + flags)
    assert code == 2
    assert f"error: {message}; valid: " in capsys.readouterr().err
    assert not (tmp_path / "benchmark.csv").exists()


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


def test_cli_plan_scene_over_the_cell_ceiling_exits_2_before_any_map(tmp_path, capsys,
                                                                    monkeypatch):
    def refuse(self, *args, **kwargs):
        raise AssertionError("a SemanticMap was built")

    monkeypatch.setattr(mapping.SemanticMap, "__init__", refuse)
    scene = tmp_path / "huge.jsonl"
    scene.write_text(json.dumps({"categories": ["floor"], "M": 1000000000}) + "\n"
                     + json.dumps({"pose": [0, 0, 0], "points": [[0.1, 0.1, 0.1, 0]]}) + "\n")
    code = main(["plan", "--scene", str(scene), "--instruction", "Go to the chair",
                 "--transcript", asset_path("transcripts", "plan_band.jsonl"),
                 "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err
    assert "huge.jsonl, line 1: M=1000000000" in err
    assert f"ceiling of {MAX_SCENE_CELLS}" in err


def test_cli_plan_transcript_hash_mismatch_exits_2(tmp_path, capsys):
    lines = open(asset_path("transcripts", "plan_band.jsonl")).read().splitlines()
    entries = [json.loads(line) for line in lines if line.strip()]
    entries[0]["request_hash"] = "000000000000"
    transcript = tmp_path / "t.jsonl"
    transcript.write_text("".join(json.dumps(e) + "\n" for e in entries))
    code = main(["plan", "--scene", asset_path("scenes", "band_free.jsonl"),
                 "--instruction", "Go to the chair", "--transcript", str(transcript),
                 "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    template = entries[0]["template_id"]
    assert f"error: scripted transcript entry for template '{template}' at ordinal 0" in err


def test_cli_adapt_reordered_terrains_exit_2(tmp_path, capsys):
    # The bundled transcript's replies are hashed to the requests of the
    # default terrain order; another order must not score others' replies.
    code = main(["adapt", "--terrains", "uneven_ground,uphill_slope", "--runs", "1",
                 "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "error: scripted transcript entry for template 'auto' at ordinal 0" in err
    assert not (tmp_path / "benchmark.csv").exists()


def test_cmd_task_rejects_bad_scenario_files(tmp_path):
    empty = tmp_path / "empty.json"
    empty.write_text("{}")
    with pytest.raises(ConfigError):
        cmd_task(str(empty), out_dir=str(tmp_path / "out"))
    no_transcript = tmp_path / "nt.json"
    no_transcript.write_text(json.dumps({"instruction": "sit", "scene": "missing.jsonl"}))
    with pytest.raises(ConfigError, match="missing.jsonl"):
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
    assert plan is not None and len(plan.cells) >= 1
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


@pytest.mark.parametrize("text, field", [
    pytest.param("not json", "", id="not json"),
    pytest.param("[1]", "", id="[1]"),
    pytest.param('{"instruction": 5, "scene": "s.jsonl"}', "'instruction'", id="instruction-int"),
    pytest.param('{"instruction": "sit", "scene": 7}', "'scene'", id="scene-int"),
    pytest.param('{"instruction": "sit", "scene": "s.jsonl", "transcript": 3}', "'transcript'",
                 id="transcript-int"),
])
def test_cli_task_invalid_scenario_exits_2(tmp_path, capsys, text, field):
    scenario = tmp_path / "bad_scenario.json"
    scenario.write_text(text)
    code = main(["task", "--scenario", str(scenario), "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert "error:" in err and "bad_scenario.json" in err and field in err


@pytest.mark.parametrize("argv", [
    ["plan", "--scene", "{missing}", "--instruction", "Go to the chair",
     "--transcript", asset_path("transcripts", "plan_band.jsonl")],
    ["plan", "--scene", asset_path("scenes", "band.jsonl"), "--instruction",
     "Go to the chair", "--transcript", "{missing}"],
    ["adapt", "--terrains", "uphill_slope", "--transcript", "{missing}"],
    ["task", "--scenario", "{missing}"],
], ids=["plan-scene", "plan-transcript", "adapt-transcript", "task-scenario"])
def test_cli_missing_input_file_exits_2(tmp_path, capsys, argv):
    missing = str(tmp_path / "missing.json")
    code = main([arg.format(missing=missing) for arg in argv]
                + ["--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read") and missing in err


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


def test_cmd_task_opens_its_scenario_through_the_bench_module_open(tmp_path, monkeypatch):
    # A wrapper bound to ``quadkit.bench.open`` (a tracer's) sees the scenario read.
    import quadkit.bench as bench
    opened = []

    def spy(path, *args, **kwargs):
        opened.append(str(path))
        return builtins.open(path, *args, **kwargs)

    monkeypatch.setattr(bench, "open", spy, raising=False)
    scenario = asset_path("scenarios", "long_horizon.json")
    cmd_task(scenario, out_dir=str(tmp_path))
    assert opened[0] == scenario


def assert_reruns_from_manifest(out, rerun):
    """Re-run the command from ``out/manifest.json`` into ``rerun``: every other
    artifact is byte-identical, and the manifest differs only in ``out_dir``."""
    manifest = json.loads((out / "manifest.json").read_text())
    command = getattr(bench, f"cmd_{manifest['command']}")
    command(**manifest["args"], seed=manifest["seed"], provider=manifest["provider"],
            transcript=manifest["transcript"], config_path=manifest["config_path"],
            out_dir=str(rerun))
    names = sorted(p.name for p in out.iterdir())
    assert names == sorted(p.name for p in rerun.iterdir())
    for name in names:
        if name != "manifest.json":
            assert (out / name).read_bytes() == (rerun / name).read_bytes(), name
    assert json.loads((rerun / "manifest.json").read_text()) == {**manifest,
                                                                 "out_dir": str(rerun)}
    return manifest


def test_cmd_adapt_with_manual_params_and_config_reruns_from_its_manifest(tmp_path):
    params = tmp_path / "params.json"
    params.write_text(json.dumps({"body_height": 0.12, "step_frequency": 2.4,
                                  "swing_height": 0.09, "body_pitch": -0.1,
                                  "stance_width": 0.3, "gait": "bounding"}))
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"sim": {"steps": 120}}))
    cmd_adapt(terrains=("uphill_slope",), variants=("auto", "manual"), runs=2, seed=5,
              config_path=config, noise_scale=0.1, manual_params_file=params,
              out_dir=str(tmp_path / "a"))
    manifest = assert_reruns_from_manifest(tmp_path / "a", tmp_path / "b")
    assert manifest["args"]["manual_params_file"] == str(params)
    assert manifest["config_path"] == str(config)
    assert manifest["config"]["sim"] == {"steps": 120, "dt": 0.02, "noise_scale": 0.1}


def test_cmd_plan_reruns_from_its_manifest(tmp_path):
    cmd_plan(asset_path("scenes", "band.jsonl"), "Go to the chair", seed=2,
             transcript=asset_path("transcripts", "plan_band.jsonl"), no_cost=True,
             out_dir=str(tmp_path / "a"))
    manifest = assert_reruns_from_manifest(tmp_path / "a", tmp_path / "b")
    assert manifest["config_path"] is None


def test_cmd_task_reruns_from_its_manifest(tmp_path):
    cmd_task(asset_path("scenarios", "long_horizon.json"), seed=4, out_dir=str(tmp_path / "a"))
    manifest = assert_reruns_from_manifest(tmp_path / "a", tmp_path / "b")
    assert manifest["transcript"] == os.path.join(
        os.path.dirname(asset_path("scenarios", "long_horizon.json")),
        "../transcripts/long_horizon.jsonl")


def test_live_cmd_task_records_no_transcript_and_reruns_from_its_manifest(tmp_path,
                                                                         monkeypatch):
    # A scripted gateway stands in for the live one, so no network is needed.
    def scripted(provider, transcript=None, log_path=None):
        assert (provider, transcript) == ("live", None)
        return Gateway(ScriptedProvider.from_file(
            asset_path("transcripts", "long_horizon.jsonl")))

    monkeypatch.setattr(bench, "make_gateway", scripted)
    cmd_task(asset_path("scenarios", "long_horizon.json"), provider="live",
             out_dir=str(tmp_path / "a"))
    manifest = assert_reruns_from_manifest(tmp_path / "a", tmp_path / "b")
    assert (manifest["provider"], manifest["transcript"]) == ("live", None)


class Reached(Exception):
    pass


@pytest.mark.parametrize("runs, steps, message", [
    (MAX_RUNS, MAX_EPISODE_STEPS // MAX_RUNS, None),
    (MAX_RUNS + 1, 1, f"runs must be <= {MAX_RUNS}, not {MAX_RUNS + 1}"),
    (2, MAX_EPISODE_STEPS // 2, None),
    (3, MAX_EPISODE_STEPS // 3 + 1, f"runs x sim.steps must be <= {MAX_EPISODE_STEPS}, "
     f"not 3 x {MAX_EPISODE_STEPS // 3 + 1} = {MAX_EPISODE_STEPS + 1}"),
    (1, MAX_EPISODE_STEPS, None),
    (1, MAX_EPISODE_STEPS + 1, f"cfg.json: sim.steps must be in [1, {MAX_EPISODE_STEPS}], "
     f"not {MAX_EPISODE_STEPS + 1}"),
], ids=["runs-edge", "runs-past", "episode-steps-edge", "episode-steps-past", "steps-edge",
        "steps-past"])
def test_cli_adapt_run_ceilings_exit_2_before_the_benchmark(tmp_path, capsys, monkeypatch,
                                                            runs, steps, message):
    # At a ceiling the command reaches run_benchmark (stubbed, so nothing is
    # allocated); one past it exits 2 naming the field, its value and the ceiling.
    def refuse(*args, **kwargs):
        raise Reached

    monkeypatch.setattr(bench, "run_benchmark", refuse)
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"sim": {"steps": steps}}))
    argv = ["adapt", "--terrains", "uphill_slope", "--runs", str(runs),
            "--config", str(config), "--out", str(tmp_path / "out")]
    if message is None:
        with pytest.raises(Reached):
            main(argv)
    else:
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, kwargs, count", [
    (cmd_adapt, {"runs": 1}, 16),  # 15 candidates_*.csv and manifest.json
    (cmd_plan, {"scene_path": asset_path("scenes", "band.jsonl"),
                "instruction": "Go to the chair",
                "transcript": asset_path("transcripts", "plan_band.jsonl")}, 2),
    (cmd_task, {"scenario_path": asset_path("scenarios", "long_horizon.json")}, 3),
], ids=["adapt", "plan", "task"])
def test_each_command_opens_its_files_through_the_bench_module_open(tmp_path, monkeypatch,
                                                                    command, kwargs, count):
    # perfbench's tracer binds ``quadkit.bench.open`` and counts these files as
    # ``bench.artifacts.calls`` (with the one artifact each pipeline writes itself).
    opened = []

    def spy(path, *args, **kwargs):
        opened.append(os.path.basename(path))
        return builtins.open(path, *args, **kwargs)

    monkeypatch.setattr(bench, "open", spy, raising=False)
    command(out_dir=str(tmp_path), **kwargs)
    assert len(opened) == count, opened
    assert opened[-1] == "manifest.json"
