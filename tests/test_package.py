"""Package metadata and the names the benchmark harness depends on."""

import importlib
import importlib.util
import re
import sys
from pathlib import Path

import gripsense

ROOT = Path(__file__).resolve().parents[1]


def test_version_matches_pyproject():
    # a regex, not tomllib, which Python 3.10 lacks; the first top-level
    # version key is the one in [project]
    text = (ROOT / "pyproject.toml").read_text()
    assert gripsense.__version__ == re.search(r'^version = "([^"]+)"', text,
                                              re.M).group(1)


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
