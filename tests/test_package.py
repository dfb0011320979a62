"""Package metadata and the names the benchmark harness depends on."""

import ast
import importlib
import importlib.util
import re
import sys
from pathlib import Path

import gripsense
import gripsense.models
from gripsense import controller, simulation
from gripsense.materials import material_table
from gripsense.motion import shaking_profile

ROOT = Path(__file__).resolve().parents[1]


def test_version_matches_pyproject():
    # a regex, not tomllib, which Python 3.10 lacks; the first top-level
    # version key is the one in [project]
    text = (ROOT / "pyproject.toml").read_text()
    assert gripsense.__version__ == re.search(r'^version = "([^"]+)"', text,
                                              re.M).group(1)


def test_every_exported_name_resolves():
    for package in (gripsense, gripsense.models):
        missing = [name for name in package.__all__ if not hasattr(package, name)]
        assert not missing, f"{package.__name__}.__all__ names {missing}"


def _unused_imports(path: Path) -> list[str]:
    """Names a module imports and never reads; a name in the module's
    __all__ counts as read."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return [f"{path.relative_to(ROOT)}:{line} {name}"
            for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in used]


def test_no_module_imports_a_name_it_never_uses():
    modules = sorted((ROOT / "src").rglob("*.py"))
    assert modules
    unused = [entry for path in modules for entry in _unused_imports(path)]
    assert not unused, unused


def test_benchmark_wrap_points_exist(monkeypatch):
    # perfbench/spans.py wraps these attributes in every traced run; a name
    # missing from its owner's __dict__ makes each traced run fail
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)
    spec.loader.exec_module(spans)
    for module_name, attr, _, _ in spans.WRAP_POINTS:
        owner = importlib.import_module(module_name)
        *path, last = attr.split(".")
        for part in path:
            owner = owner.__dict__[part]
        assert last in owner.__dict__, f"{module_name}.{attr} is gone"


def test_benchmark_wrap_points_see_every_call(monkeypatch, classifier, registry):
    # the benchmark's per-decision metrics come from spans on these
    # attributes; a loop that bound them at import time would bypass them.
    # A policy-driven trial renders ahead, so `step` sees one call per
    # block of one or more steps, replays included
    calls = {}

    def counting(owner, name, size=lambda args: 1):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls.setdefault(name, []).append(size(args))
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    counting(simulation, "step", size=lambda args: len(args[2]))
    counting(controller, "predict")
    counting(controller, "grip_update")
    profile = shaking_profile(3, 18.0, 2.0)
    log = controller.run_reactive_loop(material_table()["rice"], profile,
                                       classifier, registry, seed=56)
    n = profile.n_steps
    W = registry.default_models["shaking"].cfg.window
    assert log.record.n_steps == n
    assert len(calls["predict"]) == len(calls["grip_update"]) == n - W
    assert len(calls["step"]) >= 1 and sum(calls["step"]) >= n
