"""Every setting of ``dafss`` is set by some caller in the library or in
``bench/``; a value that only tests change is a constant, not a setting.

A setting is a parameter with a default of a public function, method or
``__init__``, or a defaulted field of a ``@dataclass`` that is not a
``ClassVar``. It counts as set when a call of the same bare name (the class
name for an ``__init__`` or a dataclass) passes it by keyword or by
position. A call with ``*args`` passes every position and one with
``**kwargs`` every keyword, so the guard misses such a setting; it never
flags a live one."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = ROOT / "src" / "dafss"

# "Callee.setting" -> why it stays with no caller that sets it
ALLOWED = {
    **{f"ModelConfig.{width}": "a width: tier-1's finite-difference checks build tiny models"
       for width in ("d_uf", "uf_hidden", "d_if", "d_geo", "d_sem", "d_arb", "heads")},
    "ModelConfig.n_way": "MM-FSS's 2-way protocol, which tier-1 covers",
    "ModelConfig.sam_layers": "the depth of the arbitration stack, swept by ROADMAP item 8",
    **{f"SceneConfig.{fam}_count": "a family count: tier-1 builds small scenes"
       for fam in ("plane", "box", "cylinder")},
    "AdamW.lr": "the step size, the optimizer's own setting",
    "AdamW.weight_decay": "the decoupled decay, the optimizer's own setting",
    **{f"LossWeights.{weight}": "a loss weight; LossWeights is the one home of every weight"
       for weight in ("lambda_base", "lambda_proto")},
    "OptimizerState.step_count": "a counter that starts at 0, not a setting",
}


def _is_dataclass(node: ast.ClassDef) -> bool:
    """Decorated ``@dataclass``, ``@dataclass(...)`` or ``@dataclasses.dataclass``."""
    return any(ast.unparse(dec.func if isinstance(dec, ast.Call) else dec).split(".")[-1] == "dataclass"
               for dec in node.decorator_list)


def _is_classvar(annotation: ast.expr) -> bool:
    return "ClassVar" in ast.unparse(annotation)


def _function_settings(fn: ast.FunctionDef, callee: str, method: bool) -> dict:
    """{"callee.name": (callee, name, position or None)} for each defaulted
    parameter; a method's positions do not count ``self``."""
    positional = (fn.args.posonlyargs + fn.args.args)[1 if method else 0:]
    first_default = len(positional) - len(fn.args.defaults)
    out = {f"{callee}.{arg.arg}": (callee, arg.arg, i)
           for i, arg in enumerate(positional) if i >= first_default}
    for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
        if default is not None:
            out[f"{callee}.{arg.arg}"] = (callee, arg.arg, None)
    return out


def _settings(tree: ast.Module) -> dict:
    """Settings of the public functions, public classes' public methods and
    ``__init__``, and dataclass fields defined at the top level of ``tree``."""
    out = {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            out.update(_function_settings(node, node.name, method=False))
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            if _is_dataclass(node):
                fields = [item for item in node.body if isinstance(item, ast.AnnAssign)
                          and isinstance(item.target, ast.Name) and not _is_classvar(item.annotation)]
                out.update({f"{node.name}.{item.target.id}": (node.name, item.target.id, i)
                            for i, item in enumerate(fields) if item.value is not None})
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and item.name == "__init__":
                    out.update(_function_settings(item, node.name, method=True))
                elif isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    out.update(_function_settings(item, item.name, method=True))
    return out


def _callee_name(call: ast.Call):
    f = call.func
    return f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else None


def _passed(trees) -> set:
    """(callee, name) and (callee, position) pairs that some call passes;
    (callee, "**") and (callee, "*") for calls that spread a mapping or a
    sequence."""
    out = set()
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call) or (callee := _callee_name(node)) is None:
                continue
            for i, arg in enumerate(node.args):
                out.add((callee, "*" if isinstance(arg, ast.Starred) else i))
            for kw in node.keywords:
                out.add((callee, kw.arg if kw.arg is not None else "**"))
    return out


def _scan() -> tuple:
    """(settings defined in src/dafss, what calls in src/dafss or bench/ pass)."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for folder in (LIBRARY, ROOT / "bench") for path in sorted(folder.glob("*.py"))}
    defined = {}
    for path, tree in trees.items():
        if path.parent == LIBRARY:
            defined.update(_settings(tree))
    return defined, _passed(trees.values())


def _is_set(setting: tuple, passed: set) -> bool:
    callee, name, position = setting
    by_position = position is not None and bool({(callee, position), (callee, "*")} & passed)
    return by_position or bool({(callee, name), (callee, "**")} & passed)


def test_every_setting_is_set_by_a_caller():
    defined, passed = _scan()
    unset = sorted(key for key, setting in defined.items()
                   if key not in ALLOWED and not _is_set(setting, passed))
    assert not unset, f"settings that no call in src/dafss or bench/ passes: {unset}"


def test_allowlist_is_current():
    defined, passed = _scan()
    stale = sorted(key for key in ALLOWED if key not in defined or _is_set(defined[key], passed))
    assert not stale, f"allowlisted but gone or now set by a caller: {stale}"
