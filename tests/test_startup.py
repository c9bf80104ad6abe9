"""numpy is quadkit's only third-party import. No command loads scipy or an
HTTP client, and plan and task succeed when scipy cannot be imported at all."""

import ast
import glob
import json
import os
import subprocess
import sys

import pytest

from quadkit.bench import asset_path

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# Runs quadkit's CLI in a fresh interpreter and reports its exit code and
# whether scipy, and an HTTP client ("transport": urllib.request or requests),
# was loaded. An empty argv only imports the modules. "block" makes any import
# of scipy raise ImportError; "load" imports scipy.ndimage and urllib.request
# after quadkit, which shows the probe can see both loaded.
PROBE = """
import json, sys
argv, scipy_mode = json.loads(sys.argv[1])
if scipy_mode == "block":
    sys.modules["scipy"] = None
import quadkit.cli, quadkit.bench
if scipy_mode == "load":
    import scipy.ndimage, urllib.request
code = 0
if argv:
    try:
        code = quadkit.cli.main(argv)
    except SystemExit as stop:
        code = stop.code
transport = any(sys.modules.get(m) is not None for m in ("urllib.request", "requests"))
print(json.dumps({"code": code, "scipy": sys.modules.get("scipy") is not None,
                  "transport": transport}))
"""

PLAN = ["plan", "--scene", asset_path("scenes", "band.jsonl"), "--instruction", "Go to the chair",
        "--transcript", asset_path("transcripts", "plan_band.jsonl"), "--out", "{out}"]
TASK = ["task", "--scenario", asset_path("scenarios", "long_horizon.json"), "--out", "{out}"]
BAD_CONFIG = ["--config", "{bad_config}"]


def run_probe(tmp_path, argv, scipy_mode=None) -> dict:
    bad_config = tmp_path / "bad_cfg.json"
    bad_config.write_text(json.dumps({"nav": {"speed_floor": 0.0}}))
    argv = [arg.format(out=tmp_path / "out", bad_config=bad_config) for arg in argv]
    proc = subprocess.run([sys.executable, "-c", PROBE, json.dumps([argv, scipy_mode])],
                          env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("argv, code", [
    ([], 0),
    (["--help"], 0),
    (["adapt", "--runs", "1", "--out", "{out}"], 0),
    (["adapt", "--runs", "1", "--out", "{out}"] + BAD_CONFIG, 2),
    (PLAN + BAD_CONFIG, 2),
    (TASK + BAD_CONFIG, 2),
    (PLAN, 0),  # projects frames
    (TASK, 0),
], ids=["import", "help", "adapt", "adapt-bad-config", "plan-bad-config", "task-bad-config",
        "plan", "task"])
def test_no_command_loads_scipy(tmp_path, argv, code):
    assert run_probe(tmp_path, argv) == {"code": code, "scipy": False, "transport": False}


def test_probe_sees_a_loaded_scipy(tmp_path):
    assert run_probe(tmp_path, [], scipy_mode="load") == {"code": 0, "scipy": True,
                                                           "transport": True}


@pytest.mark.parametrize("argv", [PLAN, TASK], ids=["plan", "task"])
def test_frame_projecting_commands_run_with_scipy_blocked(tmp_path, argv):
    assert run_probe(tmp_path, argv, scipy_mode="block") == {"code": 0, "scipy": False,
                                                              "transport": False}


def test_every_absolute_import_is_stdlib_numpy_or_quadkit():
    allowed = set(sys.stdlib_module_names) | {"numpy", "quadkit"}
    outside = []
    for path in sorted(glob.glob(os.path.join(SRC, "quadkit", "*.py"))):
        with open(path) as fh:
            tree = ast.parse(fh.read(), path)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [f"{os.path.basename(path)}: {name}" for name in names
                        if name.split(".")[0] not in allowed]
    assert outside == []


# The functions that may decode JSON: the input-file reader, and the parsers of
# a live endpoint's response body and of model replies, which are no files.
JSON_DECODERS = {
    ("errors.py", "_parsed"), ("gateway.py", "_reply_texts"), ("gateway.py", "parse_cost_json"),
    ("tasks.py", "parse_subgoals"),
}


def json_decoding_functions() -> set:
    """(file, innermost enclosing function) of each ``json.load``/``json.loads``
    call in quadkit; ``<module>`` for a call outside any function."""
    found = set()

    def visit(node, path, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            function = getattr(node, "name", "<lambda>")
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("load", "loads") and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "json"):
            found.add((os.path.basename(path), function))
        for child in ast.iter_child_nodes(node):
            visit(child, path, function)

    for path in sorted(glob.glob(os.path.join(SRC, "quadkit", "*.py"))):
        with open(path) as fh:
            tree = ast.parse(fh.read(), path)
        visit(tree, path, "<module>")
        for node in ast.walk(tree):  # no alias can hide a decoder from the search
            if isinstance(node, ast.ImportFrom) and node.module == "json":
                found.add((os.path.basename(path), "from json import"))
    return found


def test_only_the_input_reader_decodes_json_from_files():
    found = json_decoding_functions()
    assert found - JSON_DECODERS == set()
    assert ("errors.py", "_parsed") in found
