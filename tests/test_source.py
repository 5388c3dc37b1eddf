"""Source hygiene checks on the package modules."""

import ast
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
