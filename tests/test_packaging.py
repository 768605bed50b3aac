import ast
import importlib
import sys
from pathlib import Path

import pytest

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"
PACKAGE = PYPROJECT.parent / "src" / "dafss"
# The library runs on numpy and the standard library alone.
ALLOWED_IMPORTS = {"numpy", "dafss", "__future__"} | set(sys.stdlib_module_names)


def test_declared_console_scripts_import():
    # An entry point whose target does not import fails only when the
    # installed command is run; resolve every one here instead.
    tomllib = pytest.importorskip("tomllib",
                                  reason="tomllib is in the standard library from Python 3.11")
    project = tomllib.loads(PYPROJECT.read_text())["project"]
    for name, target in project.get("scripts", {}).items():
        module, _, attr = target.partition(":")
        obj = importlib.import_module(module)
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), f"console script {name!r} -> {target!r} is not callable"


def imported_modules(source: str) -> set:
    """Top-level names of every absolute import in ``source``."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_library_imports_only_numpy_and_the_standard_library():
    files = sorted(PACKAGE.rglob("*.py"))
    assert files, f"no sources under {PACKAGE}"
    foreign = {str(path.relative_to(PACKAGE)): sorted(imported_modules(path.read_text()) - ALLOWED_IMPORTS)
               for path in files}
    assert {name: mods for name, mods in foreign.items() if mods} == {}
