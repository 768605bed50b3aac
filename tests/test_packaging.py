import ast
import importlib
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"
PACKAGE = PYPROJECT.parent / "src" / "dafss"
WORKFLOW = PYPROJECT.parent / ".github" / "workflows" / "tier1.yml"
ROADMAP = PYPROJECT.parent / "ROADMAP.md"
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


def workflow_steps() -> dict:
    """``{step name: its run command}`` of the CI workflow's one-line steps."""
    steps, name = {}, None
    for line in WORKFLOW.read_text().splitlines():
        if m := re.match(r"\s*- name:\s*(.+)", line):
            name = m.group(1).strip()
        elif (m := re.match(r"\s*run:\s*(.+)", line)) and name is not None:
            steps[name] = m.group(1).strip()
    return steps


def requirement_name(requirement: str) -> str:
    """The distribution name a requirement starts with, normalised."""
    return re.sub(r"[-_.]+", "-", re.match(r"[A-Za-z0-9._-]+", requirement).group()).lower()


def test_ci_installs_exactly_the_declared_packages():
    # The workflow names the packages it installs instead of installing the
    # project with its test extra; the two lists must not drift apart.
    tomllib = pytest.importorskip("tomllib",
                                  reason="tomllib is in the standard library from Python 3.11")
    project = tomllib.loads(PYPROJECT.read_text())["project"]
    declared = project["dependencies"] + project["optional-dependencies"]["test"]
    command = workflow_steps()["Install"].split()
    assert command[:4] == ["python", "-m", "pip", "install"], command
    installed = [requirement_name(arg) for arg in command[4:] if not arg.startswith("-")]
    assert sorted(installed) == sorted(requirement_name(r) for r in declared)


def test_ci_runs_the_tier1_command():
    tier1 = re.search(r"\*\*Tier-1 verify:\*\* `([^`]+)`", ROADMAP.read_text()).group(1)
    assert workflow_steps()["Tier-1 tests"] == tier1


def test_ci_runs_the_tier1_command_on_one_cpu():
    # attention runs its heads on one thread where the affinity mask gives
    # one CPU; this step keeps that serial path under the whole suite.
    tier1 = re.search(r"\*\*Tier-1 verify:\*\* `([^`]+)`", ROADMAP.read_text()).group(1)
    assert workflow_steps()["Tier-1 tests on one CPU"] == f"taskset -c 0 bash -c '{tier1}'"


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


def print_calls(source: str) -> list:
    """Line numbers of every call of the builtin name ``print`` in ``source``."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "print"]


def test_library_neither_prints_nor_logs():
    # A run's record comes from one mechanism, not from prints or log lines
    # scattered through the modules.
    found = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        source = path.read_text()
        lines, logs = print_calls(source), "logging" in imported_modules(source)
        if lines or logs:
            found[str(path.relative_to(PACKAGE))] = {"print at lines": lines, "imports logging": logs}
    assert found == {}


FAILING_PROPERTY = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_property_fails(x):
    assert x < 0


def test_after_the_failure():
    pass
"""


def test_failing_hypothesis_example_is_reported_and_the_run_goes_on(tmp_path):
    # Under the repository's pytest settings a falsified property is an
    # ordinary failure: its example is printed and later tests still run.
    shutil.copy(PYPROJECT, tmp_path / "pyproject.toml")
    (tmp_path / "test_probe.py").write_text(FAILING_PROPERTY)
    proc = subprocess.run([sys.executable, "-m", "pytest", "-v", "-p", "no:cacheprovider",
                           "test_probe.py"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "Falsifying example" in proc.stdout
    assert "test_after_the_failure PASSED" in proc.stdout
