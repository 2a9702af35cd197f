"""Every name a ``qwk`` module imports is used somewhere in that module, and
so is every private function, class or constant it defines at module level;
no private module-level name is defined in two ``qwk`` modules; every
public module-level function is used by qwk, declared library API, or one of
the few that only the benchmark's tracer calls; and every public method of a
qwk class is named by qwk, by the tracer, or by the library API; and only
``qwk.streams`` names ``counter_rng``, the one-generator-per-key stream.

No linter runs on this repository, so this test parses each module with
``ast`` and reports the imported names that the module never mentions, the
private helpers that nothing in their module calls or reads, the private
names that two modules each define for themselves (a constant or helper that
one module should own), and the public functions and methods that only tests
call.
"""

import ast
import importlib.util
import os

import pytest

TESTS = os.path.dirname(__file__)
SRC = os.path.join(TESTS, "..", "src", "qwk")
MODULES = sorted(f for f in os.listdir(SRC) if f.endswith(".py"))
TRACER = os.path.join(TESTS, "..", "perfbench", "tracer.py")

# Public functions that no qwk code calls, kept for library users: channel
# constructors and conversions, the canonical payload bytes of a report, and
# the CSI two-part protocol.  Each is named by some other test module.
LIBRARY_API = {
    "bsc", "canonical_payload_bytes", "classical_to_cq",
    "complementary_channel", "depolarizing_kraus", "diamond_distance", "identity_kraus",
    "kraus_equivalent", "two_part_protocol",
}

# Public functions that no qwk code calls but the benchmark's tracer wraps, so
# they stay while the benchmark names them.  The set can only shrink: each
# name must be a tracer target without a caller in qwk.
TRACER_ONLY = {"binary_entropy", "conditional_qentropy", "coherent_information", "sandwiched_output"}


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


def read_sources() -> dict[str, str]:
    sources = {}
    for module in MODULES:
        with open(os.path.join(SRC, module)) as fh:
            sources[module] = fh.read()
    return sources


def test_no_private_name_is_defined_in_two_modules():
    assert duplicated_private_names(read_sources()) == []


def test_checker_flags_a_private_name_defined_twice():
    sources = {
        "a.py": "_FLOOR = 1e-12\ndef _h(p):\n    return p\n_only_a = 1\n",
        "b.py": "_FLOOR = 1e-15\n__all__ = []\ndef public():\n    pass\n",
        "c.py": "def _h(p):\n    return -p\n__all__ = []\nimport numpy as _np\n",
    }
    assert duplicated_private_names(sources) == ["_FLOOR (a.py, b.py)", "_h (a.py, c.py)"]


def public_functions(tree: ast.Module) -> dict[str, int]:
    """Public functions defined at module level, with their line."""
    return {node.name: node.lineno for node in tree.body
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}


def unreferenced_public_functions(sources: dict[str, str], exempt: set) -> list[str]:
    """Public module-level functions of ``sources`` that none of them names
    (as a bare name or as an attribute) and that are not ``exempt``."""
    trees = {module: ast.parse(source) for module, source in sorted(sources.items())}
    referenced = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    return [f"{name} ({module}, line {line})" for module, tree in trees.items()
            for name, line in public_functions(tree).items()
            if name not in referenced and name not in exempt]


def tracer_target_names() -> set:
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return {attr for _, _, attr in tracer.TARGETS}


def test_every_public_function_is_used_traced_or_library_api():
    sources = read_sources()
    assert unreferenced_public_functions(sources, TRACER_ONLY | LIBRARY_API) == []
    targets = {attr.rsplit(".", 1)[-1] for attr in tracer_target_names()}
    assert sorted(TRACER_ONLY - targets) == []
    uncalled = {entry.split(" ")[0] for entry in unreferenced_public_functions(sources, LIBRARY_API)}
    assert sorted(TRACER_ONLY - uncalled) == []
    defined = set()
    for source in sources.values():
        defined |= set(public_functions(ast.parse(source)))
    assert sorted(LIBRARY_API - defined) == []


def test_every_library_api_name_is_tested():
    named = set()
    for module in os.listdir(TESTS):
        if module.endswith(".py") and module != os.path.basename(__file__):
            with open(os.path.join(TESTS, module)) as fh:
                named |= {node.id if isinstance(node, ast.Name) else node.attr
                          for node in ast.walk(ast.parse(fh.read()))
                          if isinstance(node, (ast.Name, ast.Attribute))}
    assert sorted(LIBRARY_API - named) == []


def test_checker_flags_a_public_function_only_tests_call():
    sources = {
        "a.py": ("def used(x):\n    return x\n"
                 "def by_attribute():\n    pass\n"
                 "def orphan():\n    pass\n"
                 "def traced():\n    pass\n"
                 "def _private():\n    pass\n"
                 "class Kind:\n    def method(self):\n        pass\n"),
        "b.py": ("import a\nfrom a import used\n"
                 "# orphan() is only named in this comment\n"
                 "TEXT = 'orphan'\n"
                 "def entry():\n    return used(a.by_attribute)\n"),
    }
    assert unreferenced_public_functions(sources, {"traced"}) == [
        "orphan (a.py, line 5)", "entry (b.py, line 5)"]


def public_methods(tree: ast.Module) -> dict[str, int]:
    """Public methods of module-level classes, as Class.method, with their line."""
    return {f"{node.name}.{item.name}": item.lineno for node in tree.body
            if isinstance(node, ast.ClassDef) for item in node.body
            if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")}


def unreferenced_public_methods(sources: dict[str, str], tracer: str, exempt: set) -> list[str]:
    """Public methods of the classes in ``sources`` whose name neither
    ``sources`` nor ``tracer`` reads as an attribute, and that are not
    ``exempt``.  A method is reached through an object, so a bare name of
    the same spelling does not count."""
    trees = {module: ast.parse(source) for module, source in sorted(sources.items())}
    referenced = {node.attr for tree in [*trees.values(), ast.parse(tracer)]
                  for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    return [f"{name} ({module}, line {line})" for module, tree in trees.items()
            for name, line in public_methods(tree).items()
            if name.split(".")[1] not in referenced | exempt]


def test_every_public_method_is_used_traced_or_library_api():
    with open(TRACER) as fh:
        tracer = fh.read()
    assert unreferenced_public_methods(read_sources(), tracer, LIBRARY_API) == []


def test_checker_flags_a_public_method_only_tests_call():
    sources = {
        "a.py": ("class Kind:\n"
                 "    def used(self):\n        pass\n"
                 "    def orphan(self):\n        pass\n"
                 "    def traced(self):\n        pass\n"
                 "    def exempt(self):\n        pass\n"
                 "    def _private(self):\n        pass\n"
                 "    def __len__(self):\n        return 0\n"
                 "def unused_function():\n    pass\n"),
        "b.py": ("from a import Kind\n"
                 "# Kind().orphan() is only named in this comment\n"
                 "orphan = 'orphan'\n"
                 "def entry(kind):\n    return kind.used()\n"),
    }
    tracer = "def wrap(kind):\n    return kind.traced\n"
    assert unreferenced_public_methods(sources, tracer, {"exempt"}) == [
        "Kind.orphan (a.py, line 4)"]


def modules_naming(sources: dict[str, str], name: str) -> list[str]:
    """The modules of ``sources`` whose text contains ``name``."""
    return sorted(module for module, source in sources.items() if name in source)


def test_only_streams_builds_a_keyed_generator():
    # every keyed stream is drawn through counter_draws; a generator per key
    # is built only in streams, for the rows Lemire's method rejects
    assert modules_naming(read_sources(), "counter_rng") == ["streams.py"]


def test_checker_flags_a_module_naming_the_generator():
    sources = {"streams.py": "def counter_rng():\n    pass\n",
               "a.py": "from .streams import counter_draws\n",
               "b.py": "# one counter_rng per key\n"}
    assert modules_naming(sources, "counter_rng") == ["b.py", "streams.py"]
