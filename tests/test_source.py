"""Source hygiene checks on the package modules."""

import ast
import importlib
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "contactflow"


def _unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by module-level imports that the module never loads."""
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in used]


# __init__ imports to re-export, so its imports are exempt
@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")
                                          if p.name != "__init__.py"))
def test_module_level_imports_are_used(module):
    tree = ast.parse((SRC / module).read_text())
    assert _unused_imports(tree) == []


def _trace_layers() -> dict[str, list[str]]:
    """perfbench/tracer.py's LAYERS table, read from its source."""
    tree = ast.parse((SRC.parents[1] / "perfbench" / "tracer.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.AnnAssign) and getattr(node.target, "id", None) == "LAYERS":
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py has no LAYERS table")


def test_perfbench_trace_targets_resolve():
    # a renamed target would leave its per-layer benchmark metrics blank
    missing = []
    for layer, targets in _trace_layers().items():
        for target in targets:
            modname, qualname = target.split(":")
            obj = importlib.import_module(modname)
            for part in qualname.split("."):
                obj = getattr(obj, part, None)
            if obj is None:
                missing.append(f"{layer}: {target}")
    assert missing == []
