import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ASSETS = os.path.join(ROOT, "src", "quadkit", "assets")


def load_tool(name, folder="tools"):
    spec = importlib.util.spec_from_file_location(name, os.path.join(ROOT, folder, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def relative_files(root, subdirs):
    return sorted(os.path.relpath(os.path.join(d, f), root)
                  for sub in subdirs for d, _, files in os.walk(os.path.join(root, sub))
                  for f in files)


def test_make_assets_reproduces_bundled_assets(tmp_path, capsys):
    make_assets = load_tool("make_assets")
    make_assets.ASSETS = str(tmp_path)
    make_assets.main()
    written = relative_files(tmp_path, ("scenes", "scenarios", "transcripts"))
    assert written == relative_files(ASSETS, ("scenes", "scenarios", "transcripts"))
    for rel in written:
        with open(tmp_path / rel, "rb") as new, open(os.path.join(ASSETS, rel), "rb") as old:
            assert new.read() == old.read(), rel


def test_every_traced_function_exists():
    # Tracer.install skips a target the program lacks, and its metrics then read 0.
    targets, _ = load_tool("tracing", "perfbench").Tracer()._targets()
    missing = [name for name, owner, attribute, _ in targets
               if not callable(getattr(owner, attribute, None))]
    assert missing == []
