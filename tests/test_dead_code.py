"""Every public function, class and method of ``dafss`` has a user in the
library or in ``bench/``; a test alone does not keep code alive.

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
    """Public top-level functions and classes, and the public methods of
    those classes as "Class.method"."""
    out = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            out.add(node.name)
            if isinstance(node, ast.ClassDef):
                out.update(f"{node.name}.{item.name}" for item in node.body
                           if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"))
    return out


def _is_used(name: str, used: set) -> bool:
    """A method counts as used wherever its bare name is."""
    return name.split(".")[-1] in used


def _scan() -> tuple:
    """(public definitions in src/dafss, names referenced in src/dafss or bench/)."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for folder in (LIBRARY, ROOT / "bench") for path in sorted(folder.glob("*.py"))}
    defined = set().union(*(_public_definitions(t) for p, t in trees.items()
                            if p.parent == LIBRARY))
    used = set().union(*(_references(t) for t in trees.values()))
    return defined, used


def test_every_public_definition_has_a_user():
    defined, used = _scan()
    unused = sorted(name for name in defined - set(ALLOWED) if not _is_used(name, used))
    assert not unused, f"defined in src/dafss but used nowhere in src/dafss or bench/: {unused}"


def test_allowlist_is_current():
    defined, used = _scan()
    stale = sorted(name for name in ALLOWED if name not in defined or _is_used(name, used))
    assert not stale, f"allowlisted but gone or now used: {stale}"
