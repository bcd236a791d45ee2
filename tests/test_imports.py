"""Every name a tensorid module imports is used in that module, and every
function, class and method it defines, and every UPPER_CASE constant it
assigns at module level, is referenced somewhere."""

import ast
import pathlib

import pytest

import tensorid

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "tensorid"
# __init__.py imports names to re-export them
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
# the code whose references keep a definition alive
CALLERS = sorted(p for d in ("src", "tests", "perfbench") for p in (ROOT / d).rglob("*.py"))


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_detects_unused_import():
    source = "import os\nfrom math import pi, tau\nprint(os.sep, tau)\n"
    assert unused_imports(source) == [(2, "pi")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_all_lists_exactly_the_reexported_names():
    tree = ast.parse((SRC / "__init__.py").read_text())
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert sorted(tensorid.__all__) == sorted(imported)


def referenced_names(source: str) -> set:
    """Names read as variables, attributes or imported names; assigning a
    name does not reference it."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.asname or node.name.split(".")[-1])
    return names


def dead_definitions(source: str, referenced: set) -> list:
    """Undecorated, non-dunder definitions, and module-level UPPER_CASE
    constants, whose name is not referenced.

    Decorated definitions (click commands, properties, classmethods) are
    reached through their decorator, and dunders through Python itself.
    """
    tree = ast.parse(source)
    defined = [
        (node.lineno, node.name)
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.decorator_list
        and not (node.name.startswith("__") and node.name.endswith("__"))
    ]
    defined += [
        (name.lineno, name.id)
        for node in tree.body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        for name in ast.walk(target)
        if isinstance(name, ast.Name) and name.id.isupper()
    ]
    return sorted((line, name) for line, name in defined if name not in referenced)


def test_detects_dead_definition():
    source = (
        "def used():\n    pass\n\n"
        "def unused():\n    used()\n\n"
        "class C:\n"
        "    def method(self):\n        pass\n\n"
        "    def dead_method(self):\n        pass\n\n"
        "    @property\n    def prop(self):\n        pass\n\n"
        "    def __repr__(self):\n        return ''\n\n"
        "C().method()\n"
    )
    dead = dead_definitions(source, referenced_names(source))
    assert dead == [(4, "unused"), (11, "dead_method")]


def test_detects_dead_constant():
    # a constant that is only assigned, even twice, is dead; lower-case
    # names and constants local to a function are not checked
    source = (
        "USED = 1\n"
        "DEAD, ALSO_USED = 2, 3\n"
        "TYPED: int = 4\n"
        "TYPED = 5\n"
        "lower = 6\n"
        "def f():\n    LOCAL = 7\n    return USED + ALSO_USED\n\n"
        "f()\n"
    )
    dead = dead_definitions(source, referenced_names(source))
    assert dead == [(2, "DEAD"), (3, "TYPED"), (4, "TYPED")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_dead_definitions(path):
    referenced = set().union(*(referenced_names(p.read_text()) for p in CALLERS))
    assert dead_definitions(path.read_text(), referenced) == []
