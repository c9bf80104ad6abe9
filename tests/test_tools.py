import ast
import importlib
import importlib.util
import os
import pkgutil

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


def unused_imports(path):
    """Top-level imports of one module that no name in it reads; a name listed
    in ``__all__`` counts as read, since the module exports it."""
    with open(path) as fh:
        tree = ast.parse(fh.read())
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read |= set(ast.literal_eval(node.value))
    return [f"{os.path.relpath(path, ROOT)}:{node.lineno}: {alias.asname or alias.name}"
            for node in tree.body
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
            if (alias.asname or alias.name).split(".")[0] not in read]


def test_no_unused_top_level_imports():
    # No linter ships with the repository; an import nothing reads is dead code.
    package = os.path.join(ROOT, "src", "quadkit")
    unused = [line for rel in relative_files(package, ("",)) if rel.endswith(".py")
              for line in unused_imports(os.path.join(package, rel))]
    assert unused == []


def test_every_exported_name_exists():
    # A name left in ``__all__`` after its definition is gone breaks ``import *``.
    import quadkit
    modules = [quadkit] + [importlib.import_module(f"quadkit.{info.name}")
                           for info in pkgutil.iter_modules(quadkit.__path__)
                           if info.name != "__main__"]  # importing it runs the CLI
    missing = [f"{module.__name__}.{name}" for module in modules
               for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == []
