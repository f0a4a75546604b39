"""Every exported name has a caller outside the tests.

A name in `motionlink.__all__` or in a module's `__all__` must be used
somewhere a user of the package would meet it: in library code other than
its own definition and the package `__init__`, in perfbench's scripts, or
in the README.  In code, only a name or attribute the code evaluates
counts, so an import, a docstring, a comment or an `__all__` entry is no
use.  A public helper that only tests call belongs in the tests.
"""

import ast
import re
from pathlib import Path

import motionlink

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "motionlink"


def _used_names(tree: ast.Module) -> set[str]:
    """The names and attributes `tree` evaluates outside the body of the
    top-level definition that binds each name."""
    used = set()
    for node in tree.body:
        own = node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else None
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                name = sub.id
            elif isinstance(sub, ast.Attribute):
                name = sub.attr
            else:
                continue
            if name != own:
                used.add(name)
    return used


def _scan() -> tuple[dict[str, list[str]], set[str]]:
    """The exported names, {module name: its __all__} for the package and
    each module that has one, and the names the package's modules but
    `__init__` use."""
    exported, used = {"motionlink": list(motionlink.__all__)}, set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if (isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
                    and node.targets[0].id == "__all__"):
                exported[f"motionlink.{path.stem}"] = ast.literal_eval(node.value)
        used |= _used_names(tree)
    return exported, used


def test_every_exported_name_has_a_caller_outside_the_tests():
    exported, used = _scan()
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        used |= _used_names(ast.parse(path.read_text()))
    readme = (ROOT / "README.md").read_text()
    unused = sorted({
        f"{module}.{name}" for module, names in exported.items() for name in names
        if name not in used and not re.search(rf"\b{re.escape(name)}\b", readme)
    })
    assert not unused, f"exported but referenced only by tests: {unused}"
