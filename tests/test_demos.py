import os
import runpy
import tempfile

DEMOS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "demos")


def test_mapping_and_planning_demo_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    runpy.run_path(os.path.join(DEMOS, "06_mapping_and_planning.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert "instance 1: class 'gray floor', 400 cells" in out
    assert "crosses mattress: False, reached: True" in out
