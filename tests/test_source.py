"""Source hygiene checks on the package modules."""

import ast
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import contactflow

SRC = Path(__file__).resolve().parents[1] / "src" / "contactflow"
README = SRC.parents[1] / "README.md"


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


# definitions that nothing reaches yet, each with the reason it stays
UNREACHED_ALLOWED = {
    "check_transversality": "ROADMAP item 3 wires it into verify",
}


def _is_method(node) -> bool:
    return isinstance(node, ast.FunctionDef) and not node.name.startswith("__")


def _references(node) -> list[str]:
    """Names a definition loads or reads as attributes.  A class's own part
    is its decorators, bases and body without its non-dunder methods, which
    are definitions of their own."""
    parts = [node]
    if isinstance(node, ast.ClassDef):
        parts = [*node.decorator_list, *node.bases,
                 *(stmt for stmt in node.body if not _is_method(stmt))]
    refs = []
    for part in parts:
        for sub in ast.walk(part):
            if isinstance(sub, ast.Name):
                refs.append(sub.id)
            elif isinstance(sub, ast.Attribute):
                refs.append(sub.attr)
    return refs


def _src_definitions() -> tuple[dict[str, list], list[str]]:
    """Bare name -> [("module:qualname", node)] for every top-level function
    and class and every non-dunder method in src, and the names that
    module-level code (the CLI's __main__ block among it) references."""
    defs: dict[str, list] = {}
    refs = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                found = [(node.name, node)]
                if isinstance(node, ast.ClassDef):
                    found += [(f"{node.name}.{stmt.name}", stmt)
                              for stmt in node.body if _is_method(stmt)]
                for qual, d in found:
                    defs.setdefault(d.name, []).append((f"{path.stem}:{qual}", d))
            else:
                refs += _references(node)
    return defs, refs


def _reached_names(roots: set[str]) -> set[str]:
    """Names reachable from src's module-level code and from roots.  A
    reached name reaches what every definition of that name references:
    top-level functions and classes by name, methods by attribute name, in
    any module."""
    defs, todo = _src_definitions()
    todo += roots
    reached = set()
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            for _, node in defs.get(name, []):
                todo += _references(node)
    return reached


def _roots() -> set[str]:
    """Trace targets and the names README's quick-start block uses."""
    traced = {part for targets in _trace_layers().values()
              for target in targets for part in target.split(":")[1].split(".")}
    quick_start = re.findall(r"^```python\n(.*?)^```", README.read_text(),
                             re.MULTILINE | re.DOTALL)
    return traced | {name for block in quick_start
                     for name in _references(ast.parse(block))}


def test_public_names_are_reached():
    # an exported name, function, class or method that no experiment, trace
    # target, README example or kept code reaches is dead code: wire it
    # into a check or delete it
    reached = _reached_names(_roots() | set(UNREACHED_ALLOWED))
    defs, _ = _src_definitions()
    unreached = [qual for name, found in defs.items()
                 if name not in reached for qual, _ in found]
    unreached += [name for name in contactflow.__all__ if name not in reached]
    assert unreached == []
    # an allowance for a name that is now reached anyway is stale
    assert set(UNREACHED_ALLOWED) & _reached_names(_roots()) == set()


# Runs in a fresh interpreter: prints the scipy modules loaded after the
# import, then after each small run.  verify, complexity, normcheck and
# leafstats never call SciPy, so they must not pay for importing it.
_SCIPY_PROBE = """
import json, sys
from contactflow.cli import ExperimentConfig, run
def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
loaded = {"import": scipy_modules()}
for exp, params in json.loads(sys.argv[2]).items():
    run(ExperimentConfig.from_json_dict(
        {"experiment": exp, "out": f"{sys.argv[1]}/{exp}", "parameters": params}))
    loaded[exp] = scipy_modules()
print(json.dumps(loaded))
"""


def test_import_and_scipy_free_experiments_load_no_scipy(tmp_path):
    runs = {"verify": {}, "complexity": {"n_max": 3},
            "normcheck": {"grid_n": 32, "iter_n": 32, "n_per_axis": 9,
                          "parseval_n": 16, "mult_ns": [16, 32]},
            "leafstats": {}}
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC.parent), *filter(None, [os.environ.get("PYTHONPATH")])])}
    out = subprocess.run([sys.executable, "-c", _SCIPY_PROBE, str(tmp_path), json.dumps(runs)],
                         env=env, capture_output=True, text=True, check=True)
    assert json.loads(out.stdout.splitlines()[-1]) == {name: [] for name in ["import", *runs]}
