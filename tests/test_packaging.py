import importlib
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib", reason="tomllib is in the standard library from Python 3.11")

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_declared_console_scripts_import():
    # An entry point whose target does not import fails only when the
    # installed command is run; resolve every one here instead.
    project = tomllib.loads(PYPROJECT.read_text())["project"]
    for name, target in project.get("scripts", {}).items():
        module, _, attr = target.partition(":")
        obj = importlib.import_module(module)
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), f"console script {name!r} -> {target!r} is not callable"
