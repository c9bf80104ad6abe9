import ast
import glob
import os
import runpy
import tempfile

import pytest

DEMOS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "demos")


def run_demo(name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    runpy.run_path(os.path.join(DEMOS, name), run_name="__main__")
    return capsys.readouterr().out


@pytest.mark.parametrize("name", sorted(os.path.basename(p)
                                        for p in glob.glob(os.path.join(DEMOS, "*.py"))))
def test_demo_runs(name, tmp_path, monkeypatch, capsys):
    assert run_demo(name, tmp_path, monkeypatch, capsys)


def test_reward_demo_episode_matches_expected_percent(tmp_path, monkeypatch, capsys):
    out = run_demo("02_reward_scoring.py", tmp_path, monkeypatch, capsys)
    lines = dict(line.split(": ", 1) for line in out.splitlines() if ": " in line)
    episode = ast.literal_eval(lines["episode percents (vel_xy, vel_yaw, swing, stance)"])
    expected = float(lines["expected vel_xy percent"])
    assert episode[0] == expected == 68.39


def test_mapping_and_planning_demo_runs(tmp_path, monkeypatch, capsys):
    out = run_demo("06_mapping_and_planning.py", tmp_path, monkeypatch, capsys)
    assert "instance 1: class 'gray floor', 400 cells" in out
    assert "crosses mattress: False, reached: True" in out
