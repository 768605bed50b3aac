"""Every public function and class of ``dafss`` has a user in the library or
in ``bench/``; a test alone does not keep code alive.

Uses are matched by name, so a name that something else shares (an
``np.exp`` beside an ``autodiff.exp``) counts as used: the guard misses
such code, it never flags live code."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = ROOT / "src" / "dafss"

# name -> why it stays without a user in src/dafss or bench/
ALLOWED = {
    "read_scene": "scene-file I/O, the input path for externally supplied scenes",
    "write_scene": "scene-file I/O, the output half of read_scene",
    "scenes_equal": "scene-file I/O, the round-trip check for read_scene/write_scene",
    "train_run": "the training loop over an episode list, for the planned end-to-end CLI",
}

DOTTED = re.compile(r"[A-Za-z_][\w.]*")


def _references(tree: ast.AST) -> set:
    """Names used as identifiers, attributes, imports or dotted strings
    (bench/spans.py names what it wraps as "module", "Class.method")."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.split(".")[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if DOTTED.fullmatch(node.value):
                out.update(node.value.split("."))
    return out


def _public_definitions(tree: ast.Module) -> set:
    return {node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")}


def _scan() -> tuple:
    """(public names defined in src/dafss, names referenced in src/dafss or bench/)."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for folder in (LIBRARY, ROOT / "bench") for path in sorted(folder.glob("*.py"))}
    defined = set().union(*(_public_definitions(t) for p, t in trees.items()
                            if p.parent == LIBRARY))
    used = set().union(*(_references(t) for t in trees.values()))
    return defined, used


def test_every_public_definition_has_a_user():
    defined, used = _scan()
    unused = sorted(defined - used - set(ALLOWED))
    assert not unused, f"defined in src/dafss but used nowhere in src/dafss or bench/: {unused}"


def test_allowlist_is_current():
    defined, used = _scan()
    stale = sorted(name for name in ALLOWED if name not in defined or name in used)
    assert not stale, f"allowlisted but gone or now used: {stale}"
