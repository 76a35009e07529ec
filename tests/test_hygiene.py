"""Every name a library module imports is used in that module, every
module-level private name is used somewhere in the package, and every
module-level public name and every public method of a library class is used
outside the tests or is documented API.

The package's __init__.py is skipped by the import scan: its imports are the
public re-exports.  Names are found with the stdlib ast, so a name that
appears only in a comment or a string does not count as used.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "cliffharm"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
# Public names and methods that only the tests call, kept because README.md
# documents them as API; each must appear there in backticks.
DOCUMENTED_API = {
    "center", "triple_identity", "triple_multiply", "triple_action",
    "gaussian_from_json", "abs2", "is_rational", "is_integer", "is_zero",
    "multiplicity",
}


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}  # bound name -> line
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def _definitions(tree):
    """(name, statement) for each module-level def, class or assignment."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            yield name, node


def _references(node) -> set:
    """Names read in node: loads, attribute names and from-import names."""
    refs = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            refs.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            refs.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            refs.update(alias.name for alias in sub.names)
    return refs


def _unreferenced(sources: dict, wanted, used_elsewhere=frozenset()) -> list:
    """(module, name) for each module-level name with wanted(name) that no
    module references outside the statement that defines it and that is not
    in used_elsewhere."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    statements = [stmt for tree in trees.values() for stmt in tree.body]
    refs = {id(stmt): _references(stmt) for stmt in statements}
    return sorted(
        (module, name)
        for module, tree in trees.items()
        for name, definition in _definitions(tree)
        if wanted(name)
        and name not in used_elsewhere
        and not any(
            name in refs[id(stmt)] for stmt in statements if stmt is not definition
        )
    )


def stranded_private_names(sources: dict) -> list:
    """(module, name) for each private module-level name that no module
    references outside the statement that defines it."""
    return _unreferenced(
        sources, lambda name: name.startswith("_") and not name.startswith("__")
    )


def names_only_tests_use(library: dict, users: list) -> list:
    """(module, name) for each public name of the library modules that no
    other library statement and no user source (demos, benchmark)
    references; re-exports in __init__.py do not count."""
    used = set().union(*(_references(ast.parse(u)) for u in users))
    return _unreferenced(library, lambda name: not name.startswith("_"), used)


def _attributes(node):
    return Counter(sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute))


def methods_only_tests_use(library: dict, users: list) -> list:
    """(module, class, method) for each public method defined in a class
    body of the library modules whose name no attribute access outside its
    own definition uses, in the library or in a user source (demos,
    benchmark)."""
    trees = {module: ast.parse(source) for module, source in library.items()}
    used = sum((_attributes(t) for t in trees.values()), Counter())
    used += sum((_attributes(ast.parse(u)) for u in users), Counter())
    return sorted(
        (module, cls.name, node.name)
        for module, tree in trees.items()
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not node.name.startswith("_")
        and used[node.name] <= _attributes(node)[node.name]
    )


def test_private_name_scanner():
    sources = {
        "a": (
            "def _used():\n    return 1\n"
            "def _recursive(k):\n    return _recursive(k - 1)\n"
            "_TABLE = {}\n_ATTR = 2\n_unused_value = 3\n"
            "class _Stranded:\n    pass\n"
            "def public():\n    return _used()\n"
        ),
        "b": "from .a import _TABLE\nfrom . import a\nx = a._ATTR\n",
    }
    assert stranded_private_names(sources) == [
        ("a", "_Stranded"), ("a", "_recursive"), ("a", "_unused_value")
    ]


def test_no_stranded_private_names():
    sources = {p.stem: p.read_text() for p in SRC.glob("*.py")}
    assert stranded_private_names(sources) == []


def test_public_name_scanner():
    library = {
        "a": (
            "def helper():\n    return 1\n"
            "def api():\n    return helper()\n"
            "def for_tests():\n    return 2\n"
            "class Oracle:\n    pass\n"
            "LIMIT = 3\n_private = 4\n"
        ),
        "b": "from .a import LIMIT\n",
    }
    users = ["import cliffharm\ncliffharm.a.api()\n"]
    assert names_only_tests_use(library, users) == [
        ("a", "Oracle"), ("a", "for_tests")
    ]


def test_public_names_are_used_outside_the_tests():
    library = {p.stem: p.read_text() for p in MODULES}
    users = [
        p.read_text() for d in ("demos", "perfbench") for p in (ROOT / d).glob("*.py")
    ]
    found = {name for _, name in names_only_tests_use(library, users)}
    assert found - DOCUMENTED_API == set()


def test_method_scanner():
    library = {
        "a": (
            "class Num:\n"
            "    def used(self):\n        return 0\n"
            "    def recursive(self):\n        return self.recursive()\n"
            "    def for_tests(self):\n        return 1\n"
            "    def _private(self):\n        return 2\n"
            "    def __eq__(self, other):\n        return True\n"
            "def for_tests():\n    return 3\n"
        ),
        "b": "from .a import Num\nNum().used()\n",
    }
    users = ["import cliffharm\ncliffharm.a.Num().for_tests\n"]
    assert methods_only_tests_use(library, []) == [
        ("a", "Num", "for_tests"), ("a", "Num", "recursive")
    ]
    assert methods_only_tests_use(library, users) == [("a", "Num", "recursive")]


def test_public_methods_are_used_outside_the_tests():
    library = {p.stem: p.read_text() for p in MODULES}
    users = [
        p.read_text() for d in ("demos", "perfbench") for p in (ROOT / d).glob("*.py")
    ]
    found = {name for _, _, name in methods_only_tests_use(library, users)}
    assert found - DOCUMENTED_API == set()


def test_documented_api_is_in_the_readme():
    readme = (ROOT / "README.md").read_text()
    assert [name for name in sorted(DOCUMENTED_API) if f"`{name}`" not in readme] == []


def test_scanner_flags_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import os, re as regex\n"
        "from .x import a, b as c, d\n"
        "print(a, regex, os.sep)\n"
    )
    assert unused_imports(source) == [(3, "c"), (3, "d")]


def test_modules_were_found():
    assert {p.stem for p in MODULES} >= {"exact", "linalg", "matrix_models", "cli"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
