"""scipy stays off the import path: only projecting a frame loads it."""

import json
import os
import subprocess
import sys

import pytest

from quadkit.bench import asset_path

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# Runs quadkit's CLI in a fresh interpreter and reports its exit code and
# whether scipy was loaded. An empty argv only imports the modules.
PROBE = """
import json, sys
argv = json.loads(sys.argv[1])
import quadkit.cli, quadkit.bench
code = 0
if argv:
    try:
        code = quadkit.cli.main(argv)
    except SystemExit as stop:
        code = stop.code
print(json.dumps({"code": code, "scipy": "scipy" in sys.modules}))
"""

PLAN = ["plan", "--scene", asset_path("scenes", "band.jsonl"), "--instruction", "Go to the chair",
        "--transcript", asset_path("transcripts", "plan_band.jsonl"), "--out", "{out}"]
BAD_CONFIG = ["--config", "{bad_config}"]


@pytest.mark.parametrize("argv, code, scipy", [
    ([], 0, False),
    (["--help"], 0, False),
    (["adapt", "--runs", "1", "--out", "{out}"], 0, False),
    (["adapt", "--runs", "1", "--out", "{out}"] + BAD_CONFIG, 2, False),
    (PLAN + BAD_CONFIG, 2, False),
    (["task", "--scenario", asset_path("scenarios", "long_horizon.json"), "--out", "{out}"]
     + BAD_CONFIG, 2, False),
    # projects frames; also shows the probe can see scipy
    (PLAN, 0, True),
], ids=["import", "help", "adapt", "adapt-bad-config", "plan-bad-config", "task-bad-config",
        "plan"])
def test_only_projecting_a_frame_loads_scipy(tmp_path, argv, code, scipy):
    bad_config = tmp_path / "bad_cfg.json"
    bad_config.write_text(json.dumps({"nav": {"speed_floor": 0.0}}))
    argv = [arg.format(out=tmp_path / "out", bad_config=bad_config) for arg in argv]
    proc = subprocess.run([sys.executable, "-c", PROBE, json.dumps(argv)],
                          env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == {"code": code, "scipy": scipy}
