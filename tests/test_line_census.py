"""``scripts/line_census.py`` refuses a run whose traced files changed."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "line_census.py"


def load_census():
    spec = importlib.util.spec_from_file_location("line_census", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_file_edited_after_its_import_is_named(tmp_path):
    census_module = load_census()
    root = tmp_path / "pkg"
    root.mkdir()
    (root / "kept.py").write_text("def f():\n    return 1\n")
    (root / "edited.py").write_text("def g():\n    return 2\n")
    census = census_module.LineCensus(str(root) + "/")
    previous = sys.gettrace()
    sys.settrace(census._call)
    try:
        for name in ("kept", "edited"):
            code = compile((root / f"{name}.py").read_text(), str(root / f"{name}.py"), "exec")
            namespace: dict = {}
            exec(code, namespace)
    finally:
        sys.settrace(previous)
    assert census.changed() == []
    (root / "edited.py").write_text('"""A docstring moves every line."""\ndef g():\n    return 2\n')
    assert census.changed() == [str(root / "edited.py")]
    assert set(census.hits) == {str(root / "kept.py"), str(root / "edited.py")}
