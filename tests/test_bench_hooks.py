"""Every function the benchmark harness hooks still exists in ``src/``.

``perfbench/spans.py`` lists its targets in ``HOOKS`` and reports one it
cannot find as a missing metric instead of failing; ``perfbench/child.py``
wraps ``ChaseEngine.initial_state`` to mark the end of set-up. The files
are read as syntax trees, not imported.
"""
from __future__ import annotations

import ast
import importlib
import inspect
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _hook_targets() -> list:
    tree = ast.parse((ROOT / "perfbench" / "spans.py").read_text(encoding="utf-8"))
    hooks = next(
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["HOOKS"]
    )
    return [ast.literal_eval(entry.elts[0]) for entry in hooks.elts]


def _child_targets() -> list:
    tree = ast.parse((ROOT / "perfbench" / "child.py").read_text(encoding="utf-8"))
    return sorted(
        {
            f"gdlog.chase:ChaseEngine.{node.attr}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "ChaseEngine"
        }
    )


def test_child_wraps_initial_state():
    assert _child_targets() == ["gdlog.chase:ChaseEngine.initial_state"]


@pytest.mark.parametrize("target", dict.fromkeys(_hook_targets() + _child_targets()))
def test_hook_target_resolves(target):
    # resolved the way spans.Tracer._patch does it
    module_name, _, path = target.partition(":")
    module = importlib.import_module(module_name)
    owner_name, _, name = path.rpartition(".")
    owner = getattr(module, owner_name) if owner_name else module
    fn = vars(owner).get(name)
    assert callable(fn), target
    assert Path(inspect.getfile(fn)).resolve().is_relative_to(ROOT / "src"), target
