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


# Defaulted parameters that no call in src/ or perfbench/ passes, and why
# each keeps its default.
UNPASSED_DEFAULTS_ALLOWED = {
    "main(argv)": "the console script calls main(); tests pass argv",
    "label_slip(threshold)": "acceptance criterion 9 sweeps the slip threshold",
    "label_slip(horizon)": "acceptance criterion 9 sweeps the lookback",
    "predictor_windows(cache)": "the test fixtures share one feature cache",
    "MaterialClassifier(theta)": "serialize.load_model passes it to the class "
                                 "it looks up by kind",
    "SlipPredictor(theta)": "serialize.load_model passes it to the class it "
                            "looks up by kind",
}


def _defaulted_params(path: Path):
    """(callee name, positional index or None, parameter, line) for each
    defaulted parameter of each def in a module. A class's __init__ goes by
    the class name, as its callers write it; self and cls are not counted."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            defs = [(node.name, f) for f in node.body
                    if isinstance(f, ast.FunctionDef) and f.name == "__init__"]
        elif isinstance(node, ast.FunctionDef) and node.name != "__init__":
            defs = [(node.name, node)]
        else:
            continue
        for name, f in defs:
            args = f.args
            positional = args.posonlyargs + args.args
            if positional and positional[0].arg in ("self", "cls"):
                positional = positional[1:]
            first = len(positional) - len(args.defaults)
            for i, arg in enumerate(positional[first:], first):
                yield name, i, arg.arg, f.lineno
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    yield name, None, arg.arg, f.lineno


def _passed_params(paths) -> dict[str, tuple[int, set]]:
    """Callee name -> (most positional arguments of any call, keyword names
    of all calls); an unpacked argument counts as passing every one."""
    passed: dict[str, tuple[int, set]] = {}
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            n_pos, keywords = passed.get(name, (0, set()))
            if any(isinstance(a, ast.Starred) for a in node.args):
                n_pos = sys.maxsize
            keywords |= {k.arg for k in node.keywords}
            passed[name] = (max(n_pos, len(node.args)), keywords)
    return passed


def test_every_defaulted_parameter_is_passed_somewhere():
    # a default that no caller in the program or the benchmark overrides is
    # a knob with one value in use: it belongs in a constant
    sources = sorted((ROOT / "src").rglob("*.py"))
    callers = sources + sorted(p for p in (ROOT / "perfbench").rglob("*.py")
                               if "tests" not in p.relative_to(ROOT).parts)
    passed = _passed_params(callers)
    unset = {}
    for path in sources:
        for name, index, param, line in _defaulted_params(path):
            n_pos, keywords = passed.get(name, (0, set()))
            if not (param in keywords or None in keywords
                    or (index is not None and n_pos > index)):
                unset[f"{name}({param})"] = f"{path.relative_to(ROOT)}:{line}"
    dead = {k: v for k, v in unset.items() if k not in UNPASSED_DEFAULTS_ALLOWED}
    assert not dead, dead
    stale = sorted(set(UNPASSED_DEFAULTS_ALLOWED) - set(unset))
    assert not stale, f"allow-list entries no longer needed: {stale}"


def test_the_rig_clock_is_no_parameter():
    # the step length, audio rate and segment hop are the rig's constants
    # (motion.SIM_DT, simulation.SAMPLE_RATE, dsp.SEGMENT_SAMPLES); a
    # parameter for one would let features run on another clock
    clock = {"dt", "sample_rate", "hop_s"}
    found = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.FunctionDef):
                args = node.args
                names = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
                found += [f"{path.name}:{node.lineno} {node.name}({n})"
                          for n in sorted(names & clock)]
    fields = set(simulation.TrialRecord.__dataclass_fields__)
    found += [f"TrialRecord({n})" for n in sorted(fields & clock)]
    assert not found, found


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
