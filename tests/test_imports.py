"""Every name a ``qwk`` module imports is used somewhere in that module, and
so is every private function, class or constant it defines at module level;
and no private module-level name is defined in two ``qwk`` modules.

No linter runs on this repository, so this test parses each module with
``ast`` and reports the imported names that the module never mentions, the
private helpers that nothing in their module calls or reads, and the private
names that two modules each define for themselves (a constant or helper that
one module should own).
"""

import ast
import os

import pytest

SRC = os.path.join(os.path.dirname(__file__), "..", "src", "qwk")
MODULES = sorted(f for f in os.listdir(SRC) if f.endswith(".py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                imported[bound] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def private_definitions(tree: ast.Module) -> dict[str, int]:
    """Private names defined at module level, with their line."""
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                defined[name] = node.lineno
    return defined


def unreferenced_private_names(source: str) -> list[str]:
    tree = ast.parse(source)
    defined = private_definitions(tree)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(f"{name} (line {line})" for name, line in defined.items() if name not in read)


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_every_import(module):
    with open(os.path.join(SRC, module)) as fh:
        assert unused_imports(fh.read()) == []


def test_checker_flags_an_unused_name():
    source = "from x import used, unused\nimport a.b\nimport c as d\nused(a)\n"
    assert unused_imports(source) == ["d (line 3)", "unused (line 1)"]


@pytest.mark.parametrize("module", MODULES)
def test_module_references_every_private_definition(module):
    with open(os.path.join(SRC, module)) as fh:
        assert unreferenced_private_names(fh.read()) == []


def test_checker_flags_an_unreferenced_private_definition():
    source = ("_CAP = 4\n_seen: set = set()\n__all__ = []\n"
              "def _helper():\n    return _CAP\n"
              "def _orphan():\n    pass\n"
              "class _Unused:\n    pass\n"
              "def public():\n    _seen.add(1)\n    return _helper()\n")
    assert unreferenced_private_names(source) == ["_Unused (line 8)", "_orphan (line 6)"]


def duplicated_private_names(sources: dict[str, str]) -> list[str]:
    """Private module-level names defined in more than one of ``sources``."""
    owners = {}
    for module, source in sorted(sources.items()):
        for name in private_definitions(ast.parse(source)):
            owners.setdefault(name, []).append(module)
    return sorted(f"{name} ({', '.join(mods)})" for name, mods in owners.items() if len(mods) > 1)


def test_no_private_name_is_defined_in_two_modules():
    sources = {}
    for module in MODULES:
        with open(os.path.join(SRC, module)) as fh:
            sources[module] = fh.read()
    assert duplicated_private_names(sources) == []


def test_checker_flags_a_private_name_defined_twice():
    sources = {
        "a.py": "_FLOOR = 1e-12\ndef _h(p):\n    return p\n_only_a = 1\n",
        "b.py": "_FLOOR = 1e-15\n__all__ = []\ndef public():\n    pass\n",
        "c.py": "def _h(p):\n    return -p\n__all__ = []\nimport numpy as _np\n",
    }
    assert duplicated_private_names(sources) == ["_FLOOR (a.py, b.py)", "_h (a.py, c.py)"]
