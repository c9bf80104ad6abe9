import inspect
import json
import math

import pytest

from quadkit.adaptation import candidate_grid
from quadkit.cli import main
from quadkit.config import ToolkitConfig, apply_config_data, derive_seed, load_config
from quadkit.errors import ConfigError
from quadkit.locomotion import LEVEL_RANGES
from quadkit.mapping import InstanceMemory, ingest, project_frame
from quadkit.navigation import (
    assign_costs,
    build_cost_map,
    fmm_solve,
    frontier_goal,
    global_goal,
    plan_to_target,
)


def test_defaults_mirror_compiled_tables():
    cfg = load_config(None)
    assert cfg.level_ranges["body_height"][3] == (0.3, 0.4)
    assert {k: tuple(v) for k, v in cfg.level_ranges.items()} == \
        {k: tuple(v) for k, v in LEVEL_RANGES.items()}
    assert cfg.sim.steps == 250
    assert cfg.reward.sigma_cf == 100.0
    assert cfg.mapping.dilation_p == 3
    assert cfg.nav.unexplored_cost == 0.5


def test_load_config_merges_sections(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "sim": {"noise_scale": 0.0, "steps": 100},
        "reward": {"sigma_vxy": 0.5},
        "nav": {"cost_mode": "continuous"},
        "level_ranges": {"body_height": [[0.1, 0.2], [0.2, 0.25], [0.25, 0.3],
                                         [0.3, 0.4], [0.4, 0.45]]},
    }))
    cfg = load_config(path)
    assert cfg.sim.noise_scale == 0.0
    assert cfg.sim.steps == 100
    assert cfg.sim.dt == 0.02  # untouched default
    assert cfg.reward.sigma_vxy == 0.5
    assert cfg.nav.cost_mode == "continuous"
    assert cfg.level_ranges["body_height"][1] == (0.2, 0.25)
    assert cfg.level_ranges["step_frequency"] == list(LEVEL_RANGES["step_frequency"])


def test_load_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"simulation": {}}))
    with pytest.raises(ConfigError):
        load_config(path)
    path.write_text(json.dumps({"sim": {"step_count": 5}}))
    with pytest.raises(ConfigError):
        load_config(path)
    # the grid size and cell size come from the scene header, the run count from --runs
    for section, key in (("lss", "runs"), ("mapping", "m"), ("mapping", "cell_size")):
        path.write_text(json.dumps({section: {key: 2}}))
        with pytest.raises(ConfigError, match=f"'{key}'"):
            load_config(path)


def test_keyword_defaults_read_the_config():
    cfg = ToolkitConfig()

    def default(fn, name):
        return inspect.signature(fn).parameters[name].default

    assert default(fmm_solve, "speed_floor") == cfg.nav.speed_floor
    assert default(frontier_goal, "speed_floor") == cfg.nav.speed_floor
    assert default(global_goal, "speed_floor") == cfg.nav.speed_floor
    assert default(plan_to_target, "speed_floor") == cfg.nav.speed_floor
    assert default(build_cost_map, "unexplored_cost") == cfg.nav.unexplored_cost
    assert default(assign_costs, "mode") == cfg.nav.cost_mode
    assert default(assign_costs, "unexplored_cost") == cfg.nav.unexplored_cost
    for fn in (project_frame, ingest):
        assert default(fn, "sensor_range") == cfg.mapping.sensor_range
        assert default(fn, "max_height") == cfg.mapping.max_point_height
    assert default(InstanceMemory, "p") == cfg.mapping.dilation_p
    assert default(candidate_grid, "cap") == cfg.lss.candidate_cap
    assert default(candidate_grid, "include_gaits") == cfg.lss.grid_gaits


@pytest.mark.parametrize("section, key, value", [
    ("sim", "steps", "250"),
    ("sim", "steps", 250.0),
    ("sim", "steps", True),
    ("sim", "dt", True),
    ("sim", "dt", "0.02"),
    ("mapping", "dilation_p", 2.5),
    ("mapping", "dilation_p", "3"),
    ("lss", "grid_gaits", 1),
    ("reward", "sigma_vxy", "0.25"),
    ("reward", "flat_phase_max", 0),
    ("nav", "cost_mode", 1),
])
def test_load_config_rejects_wrong_value_types(tmp_path, section, key, value):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({section: {key: value}}))
    with pytest.raises(ConfigError, match=f"{section}.{key}"):
        load_config(path)


@pytest.mark.parametrize("section, key, value", [
    ("sim", "dt", 1),  # an int is a valid float
    ("sim", "steps", 100),
    ("lss", "grid_gaits", True),
    ("reward", "sigma_cf", 50),
    ("nav", "cost_mode", "continuous"),
    # the closed ends of each checked range
    ("nav", "speed_floor", 1),
    ("nav", "unexplored_cost", 0),
    ("nav", "success_radius", 0),
    ("mapping", "dilation_p", 0),
    ("mapping", "sensor_range", 0),
    ("lss", "candidate_cap", 32),
])
def test_load_config_accepts_matching_value_types(tmp_path, section, key, value):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({section: {key: value}}))
    cfg = load_config(path)
    assert getattr(getattr(cfg, section), key) == value


def test_load_config_accepts_the_candidate_cap_floor_with_grid_gaits(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"lss": {"candidate_cap": 128, "grid_gaits": True}}))
    assert load_config(path).lss.candidate_cap == 128


def test_load_config_rejects_unknown_cost_mode(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"nav": {"cost_mode": "bogus"}}))
    with pytest.raises(ConfigError, match="nav.cost_mode"):
        load_config(path)


def test_load_config_validates_level_ranges(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "level_ranges": {"body_height": [[0.1, 0.2], [0.25, 0.3], [0.3, 0.35],
                                         [0.35, 0.4], [0.4, 0.45]]}}))
    with pytest.raises(ConfigError):
        load_config(path)  # gap between the first two intervals


def test_load_config_missing_file():
    with pytest.raises(ConfigError):
        load_config("/nonexistent/cfg.json")


def test_derive_seed_stable_and_distinct():
    a = derive_seed(0, "eval", "uphill_slope", 0)
    b = derive_seed(0, "eval", "uphill_slope", 0)
    c = derive_seed(0, "eval", "uphill_slope", 1)
    d = derive_seed(1, "eval", "uphill_slope", 0)
    assert a == b
    assert len({a, c, d}) == 3
    assert 0 <= a < 2 ** 63


# terrain_overrides, sim.seed and reward.weights were settings that no command
# read; each is an unknown key now.
MALFORMED_CONFIGS = [
    ([1], "top level"),
    ({"level_ranges": [1]}, "level_ranges"),
    ({"level_ranges": {"bogus": []}}, "'bogus'"),
    ({"level_ranges": {"body_height": [[0.1, 0.2]]}}, "level_ranges.body_height"),
    ({"terrain_overrides": [1]}, "terrain_overrides"),
    ({"sim": {"seed": 12345}}, "'seed'"),
    ({"sim": {"bogus": 1}}, "'bogus'"),
    ({"lava": {}}, "'lava'"),
    ({"reward": {"weights": [9, 9, 9, 9]}}, "'weights'"),
    ({"sim": {"steps": 0}}, "sim.steps"),
    ({"sim": {"dt": 0}}, "sim.dt"),
    ({"reward": {"sigma_vxy": 0}}, "reward.sigma_vxy"),
    ({"terrain_overrides": {"uphill_slope": {"slope": -0.4}}}, "'terrain_overrides'"),
    ({"sim": {"dt": math.nan}}, "sim.dt must be finite"),
    ({"sim": {"noise_scale": math.inf}}, "sim.noise_scale must be finite"),
    ({"reward": {"sigma_vxy": math.nan}}, "reward.sigma_vxy must be finite"),
    ({"reward": {"sigma_cf": math.inf}}, "reward.sigma_cf must be finite"),
    # every comparison with a NaN bound is false, so sampling it would never end
    ({"level_ranges": {"body_height": [[0.1, 0.15], [math.nan, 0.2], [0.2, 0.3],
                                       [0.3, 0.4], [0.4, 0.45]]}}, "level_ranges.body_height"),
    # sample_grid cannot sample an interval outside the parameter's global range
    ({"level_ranges": {"body_height": [[0.0, 0.5], [0.5, 0.6], [0.6, 0.7],
                                       [0.7, 0.8], [0.8, 0.9]]}}, "level_ranges.body_height[0]"),
    ({"level_ranges": {"swing_height": [[0.03, 0.07], [0.07, 0.11], [0.11, 0.16],
                                        [0.16, 0.21], [0.21, 0.3]]}}, "level_ranges.swing_height[4]"),
    ({"nav": {"cost_mode": "bogus"}}, "nav.cost_mode"),
    ({"nav": {"speed_floor": math.nan}}, "nav.speed_floor must be finite"),
    ({"nav": {"speed_floor": 0}}, "nav.speed_floor"),
    ({"nav": {"unexplored_cost": 1.5}}, "nav.unexplored_cost"),
    ({"nav": {"success_radius": -0.5}}, "nav.success_radius"),
    ({"nav": {"success_radius": math.inf}}, "nav.success_radius must be finite"),
    ({"mapping": {"dilation_p": -1}}, "mapping.dilation_p"),
    ({"mapping": {"sensor_range": math.nan}}, "mapping.sensor_range must be finite"),
    ({"mapping": {"sensor_range": -1.0}}, "mapping.sensor_range"),
    ({"mapping": {"max_point_height": 0}}, "mapping.max_point_height"),
    ({"lss": {"candidate_cap": 0}}, "lss.candidate_cap"),
    # a grid keeps 2 values per parameter (x 4 gaits with grid_gaits) whatever the cap
    ({"lss": {"candidate_cap": 31}}, "lss.candidate_cap must be >= 32, not 31"),
    ({"lss": {"candidate_cap": 127, "grid_gaits": True}},
     "lss.candidate_cap must be >= 128, not 127"),
]


@pytest.mark.parametrize("data, key", MALFORMED_CONFIGS)
def test_load_config_rejects_malformed_input(tmp_path, data, key):
    path = tmp_path / "bad_cfg.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ConfigError, match="bad_cfg.json") as err:
        load_config(path)
    assert key in str(err.value)


@pytest.mark.parametrize("data, key", MALFORMED_CONFIGS)
def test_cli_malformed_config_exits_2(tmp_path, capsys, data, key):
    path = tmp_path / "bad_cfg.json"
    path.write_text(json.dumps(data))
    code = main(["adapt", "--runs", "1", "--terrains", "uphill_slope", "--config", str(path),
                 "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert "error:" in err and "bad_cfg.json" in err and key in err


def test_apply_config_data_names_its_source():
    with pytest.raises(ConfigError, match="^scenario s.json config: sim.steps"):
        apply_config_data(ToolkitConfig(), {"sim": {"steps": 0}}, "scenario s.json config")
