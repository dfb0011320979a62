"""Package metadata and the names the benchmark harness depends on."""

import ast
import importlib
import importlib.util
import re
import sys
from pathlib import Path

import gripsense
from gripsense import cli, controller, simulation
from gripsense.materials import material_table
from gripsense.motion import shaking_profile

ROOT = Path(__file__).resolve().parents[1]


def test_version_matches_pyproject():
    # a regex, not tomllib, which Python 3.10 lacks; the first top-level
    # version key is the one in [project]
    text = (ROOT / "pyproject.toml").read_text()
    assert gripsense.__version__ == re.search(r'^version = "([^"]+)"', text,
                                              re.M).group(1)


def _unused_imports(path: Path) -> list[str]:
    """Names a module imports and never reads. A package re-export is such
    a name: the package modules export nothing, and callers import each
    name from the module that defines it."""
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
    return [f"{path.relative_to(ROOT)}:{line} {name}"
            for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in used]


def test_no_module_imports_a_name_it_never_uses():
    modules = sorted((ROOT / "src").rglob("*.py"))
    assert modules
    unused = [entry for path in modules for entry in _unused_imports(path)]
    assert not unused, unused


# Defaulted parameters and frozen-dataclass fields that no call in src/ or
# perfbench/ passes, and why each keeps its default.
_CONTROLLER_CONFIG = ("perfbench/workloads.py:425 constructs ControllerConfig() "
                      "to check episode torques; it becomes controller "
                      "constants with ROADMAP item 8")
UNPASSED_DEFAULTS_ALLOWED = {
    "main(argv)": "the console script calls main(); tests pass argv",
    "label_slip(threshold)": "acceptance criterion 9 sweeps the slip threshold",
    "label_slip(horizon)": "acceptance criterion 9 sweeps the lookback",
    "MaterialClassifier(theta)": "serialize.load_model passes it to the class "
                                 "it looks up by kind",
    "SlipPredictor(theta)": "serialize.load_model passes it to the class it "
                            "looks up by kind",
    **{f"ControllerConfig({name})": _CONTROLLER_CONFIG for name in (
        "base_torque", "max_torque", "slip_threshold_prob", "torque_step_up",
        "relax_step", "stable_steps_before_relax", "force_stiffen_threshold",
        "classifier_commit_confidence")},
}


def _is_frozen_dataclass(node: ast.ClassDef) -> bool:
    return any(isinstance(d, ast.Call) and getattr(d.func, "id", None) == "dataclass"
               and any(k.arg == "frozen" and getattr(k.value, "value", None) is True
                       for k in d.keywords)
               for d in node.decorator_list)


def _defaulted_params(path: Path):
    """(callee name, positional index or None, parameter, line) for each
    defaulted parameter of each def in a module, and for each defaulted
    field of a frozen dataclass. A class's __init__ and fields go by the
    class name, as its callers write it; self and cls are not counted."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            if _is_frozen_dataclass(node):
                fields = [f for f in node.body if isinstance(f, ast.AnnAssign)]
                for i, f in enumerate(fields):
                    if f.value is not None:
                        yield node.name, i, f.target.id, f.lineno
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


def _benchmark_modules() -> list[Path]:
    """The benchmark's own modules, its tests left out."""
    return sorted(p for p in (ROOT / "perfbench").rglob("*.py")
                  if "tests" not in p.relative_to(ROOT).parts)


def test_every_defaulted_parameter_is_passed_somewhere():
    # a default that no caller in the program or the benchmark overrides is
    # a knob with one value in use: it belongs in a constant
    sources = sorted((ROOT / "src").rglob("*.py"))
    passed = _passed_params(sources + _benchmark_modules())
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


# Flags of the command line that no benchmark module names, and why each
# stays.
FLAGS_WITHOUT_BENCHMARK_TRAFFIC = {
    "generate --overwrite": "the benchmark generates into fresh directories; "
                            "regenerating a dataset in place needs it",
    "train --epochs": "the benchmark trains each model's own count; the "
                      "tests train fewer epochs to stay fast",
    "episode --policy": "the benchmark runs the reactive policy; the "
                        "fixed-torque baseline (criterion 6's comparison) "
                        "needs it",
    "active --confidence": "the benchmark stops at the default 0.95; the "
                           "tests stop early to stay fast",
}


def test_every_flag_has_benchmark_traffic():
    # a flag that no benchmark run passes is a setting with one value in
    # use: it belongs in a constant, unless a listed use needs it
    literals = {node.value for path in _benchmark_modules()
                for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    parser = cli.build_parser()
    commands = [("gripsense", parser)] + list(parser.command_parsers.items())
    unused = {f"{command} {flag}" for command, sub in commands
              for action in sub._actions for flag in action.option_strings
              if flag.startswith("--") and flag != "--help"
              and flag not in literals}
    dead = sorted(unused - set(FLAGS_WITHOUT_BENCHMARK_TRAFFIC))
    assert not dead, dead
    stale = sorted(set(FLAGS_WITHOUT_BENCHMARK_TRAFFIC) - unused)
    assert not stale, f"allow-list entries no longer needed: {stale}"


# Names defined in src/ that no module of the program or the benchmark
# reads, and why each stays.
UNREAD_NAMES_ALLOWED = {
    "label_slip": "acceptance criterion 9 checks the joint-excursion slip "
                  "labeler",
    "AudioSegment": "perfbench/tests/test_spans.py builds its clip with it",
    **dict.fromkeys(
        ("format_version", "base_seed", "trials_per_cell"),
        "DatasetManifest fields that dataset._manifest_to_json writes to "
        "manifest.json through dataclasses.asdict, which loads no attribute"),
}


def _defined_names(path: Path):
    """(name, line, is_field) for each top-level def, class and assigned
    name of a module, and each method, property and annotated field of its
    top-level classes; dunder methods, which Python calls itself, are not
    counted."""
    for top in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(top, (ast.Assign, ast.AnnAssign)):
            targets = top.targets if isinstance(top, ast.Assign) else [top.target]
            for target in targets:
                for node in ast.walk(target):
                    if isinstance(node, ast.Name):
                        yield node.id, top.lineno, False
        elif isinstance(top, (ast.FunctionDef, ast.ClassDef)):
            yield top.name, top.lineno, False
            if isinstance(top, ast.ClassDef):
                for f in top.body:
                    if (isinstance(f, ast.FunctionDef)
                            and not (f.name.startswith("__")
                                     and f.name.endswith("__"))):
                        yield f.name, f.lineno, False
                    elif (isinstance(f, ast.AnnAssign)
                          and isinstance(f.target, ast.Name)):
                        yield f.target.id, f.lineno, True


def _read_names(paths) -> tuple[set[str], set[str]]:
    """The names the modules load as bare names, and those they load as
    attributes."""
    names, attributes = set(), set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.ctx, ast.Load)):
                attributes.add(node.attr)
    return names, attributes


def test_every_name_in_src_has_a_program_reader():
    # library code that only tests read is code the program does not need;
    # a name counts as read wherever src/ or the benchmark loads that name,
    # and a class's field wherever they load it as an attribute
    modules = [p for p in sorted((ROOT / "src").rglob("*.py"))
               if p.name != "__init__.py"]
    names, attributes = _read_names(modules + _benchmark_modules())
    read = names | attributes
    unread = {name: f"{path.relative_to(ROOT)}:{line}"
              for path in modules for name, line, is_field in _defined_names(path)
              if name not in (attributes if is_field else read)}
    dead = {k: v for k, v in unread.items() if k not in UNREAD_NAMES_ALLOWED}
    assert not dead, dead
    stale = sorted(set(UNREAD_NAMES_ALLOWED) - set(unread))
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


def _calls_step(node) -> bool:
    """Whether `node` calls the simulator's `step`, as `step(...)` or
    `simulation.step(...)`."""
    f = node.func if isinstance(node, ast.Call) else None
    return (isinstance(f, ast.Name) and f.id == "step") or (
        isinstance(f, ast.Attribute) and f.attr == "step"
        and getattr(f.value, "id", None) == "simulation")


def test_one_function_loops_over_step():
    # every trial, at a fixed grip or under a policy, is rendered by one
    # loop; a second loop would be a second copy of the block schedule
    callers = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        for top in ast.parse(path.read_text(), filename=str(path)).body:
            if any(_calls_step(node) for node in ast.walk(top)):
                callers.append(f"{path.name}:{getattr(top, 'name', top.lineno)}")
    assert callers == ["simulation.py:trial_blocks"]


def test_only_the_models_call_forward():
    # a network's forward pass is called only in models/: the rest of the
    # program scores through classify, classify_items, predict and
    # predict_batch, so a second scorer of the same batch would show here
    callers = []
    models = ROOT / "src" / "gripsense" / "models"
    for path in sorted((ROOT / "src").rglob("*.py")):
        if path.parent == models:
            continue
        for top in ast.parse(path.read_text(), filename=str(path)).body:
            if any(isinstance(node, ast.Call)
                   and isinstance(node.func, ast.Attribute)
                   and node.func.attr == "forward" for node in ast.walk(top)):
                callers.append(f"{path.name}:{getattr(top, 'name', top.lineno)}")
    assert callers == []


CONCURRENCY_MODULES = {"multiprocessing", "concurrent", "threading", "subprocess"}


def _starts_workers(node) -> bool:
    """Whether `node` uses a module that starts processes or threads, or
    calls `os.fork`; a plain `import` of such a module only binds its name,
    and its uses are found where they are."""
    if isinstance(node, ast.Name):
        return node.id in CONCURRENCY_MODULES
    if isinstance(node, ast.Attribute):
        return (getattr(node.value, "id", None) == "os"
                and node.attr.startswith(("fork", "spawn", "posix_spawn")))
    if isinstance(node, ast.ImportFrom):
        return (node.module or "").split(".")[0] in CONCURRENCY_MODULES
    if isinstance(node, ast.Import):
        return any(a.name.split(".")[0] in CONCURRENCY_MODULES and a.asname
                   for a in node.names)
    return False


def test_one_function_starts_workers():
    # map_in_workers's pool is the program's one concurrency path, which
    # generate and active share; a second would show here
    users = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        for top in ast.parse(path.read_text(), filename=str(path)).body:
            if any(_starts_workers(node) for node in ast.walk(top)):
                users.append(f"{path.name}:{getattr(top, 'name', top.lineno)}")
    assert users == ["workers.py:map_in_workers"]


def _writes_csv(node) -> bool:
    """Whether `node` calls `csv.writer` or `csv.DictWriter`."""
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("writer", "DictWriter")
            and getattr(node.func.value, "id", None) == "csv")


def _imports_csv(node) -> bool:
    return ((isinstance(node, ast.Import)
             and any(a.name == "csv" for a in node.names))
            or (isinstance(node, ast.ImportFrom) and node.module == "csv"))


def test_one_function_writes_csv():
    # cli.write_csv is the program's one CSV writer, so the run-file format
    # (dialect, floats, None fields) is decided in one place; a second
    # writer, or another module importing csv, would show here
    writers, importers = [], []
    for path in sorted((ROOT / "src").rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for top in tree.body:
            if any(_writes_csv(node) for node in ast.walk(top)):
                writers.append(f"{path.name}:{getattr(top, 'name', top.lineno)}")
        if any(_imports_csv(node) for node in ast.walk(tree)):
            importers.append(path.name)
    assert writers == ["cli.py:write_csv"]
    assert importers == ["cli.py"]


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
    W = registry.default_models["shaking"].window
    assert log.record.n_steps == n
    assert len(calls["predict"]) == len(calls["grip_update"]) == n - W
    assert len(calls["step"]) >= 1 and sum(calls["step"]) >= n
