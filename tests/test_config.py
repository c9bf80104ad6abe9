import inspect
import json

import pytest

from quadkit.config import ToolkitConfig, derive_seed, load_config
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
        "terrain_overrides": {"uneven_ground": {"seed": 9}},
    }))
    cfg = load_config(path)
    assert cfg.sim.noise_scale == 0.0
    assert cfg.sim.steps == 100
    assert cfg.sim.dt == 0.02  # untouched default
    assert cfg.reward.sigma_vxy == 0.5
    assert cfg.nav.cost_mode == "continuous"
    assert cfg.level_ranges["body_height"][1] == (0.2, 0.25)
    assert cfg.level_ranges["step_frequency"] == list(LEVEL_RANGES["step_frequency"])
    assert cfg.terrain_overrides == {"uneven_ground": {"seed": 9}}


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
    for fn in (project_frame, ingest):
        assert default(fn, "sensor_range") == cfg.mapping.sensor_range
        assert default(fn, "max_height") == cfg.mapping.max_point_height
    assert InstanceMemory().p == cfg.mapping.dilation_p


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
