"""``bench/spans.py`` names the library callables it spans by string, so a
rename in ``dafss`` would silently drop a span from a ``--trace 1`` run.
These guards load that file unchanged and resolve every name in it."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_spanned_target_resolves_in_dafss():
    spans = load_spans()
    unresolved = []
    for module, attr, _ in spans.SPANNED:
        try:
            importlib.import_module(module)
            _, target = spans._resolve(module, attr)
        except (ImportError, AttributeError, KeyError):
            unresolved.append(f"{module}:{attr}")
            continue
        if not callable(target):
            unresolved.append(f"{module}:{attr}")
    assert unresolved == []


def test_episode_roots_are_spanned():
    spans = load_spans()
    names = {name for _, _, name in spans.SPANNED}
    assert {phase: root for phase, root in spans.EPISODE_ROOTS.items() if root not in names} == {}
