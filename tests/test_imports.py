"""Every name a tensorid module imports is used in that module, and every
function, class and method it defines, and every UPPER_CASE constant it
assigns at module level, is referenced somewhere: a module-level name by
a read that resolves to its own module."""

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


def imported_modules_and_names(path) -> set:
    """Every module a file imports from, and every name it imports."""
    imported = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    return imported


def test_elliptic_imports_nothing_from_homotopy():
    # plane sections and secant lines are found in closed form
    assert not any("homotopy" in name for name in imported_modules_and_names(SRC / "elliptic.py"))


def test_segre_imports_nothing_from_homotopy():
    # a section is one generalized eigenproblem
    assert not any("homotopy" in name for name in imported_modules_and_names(SRC / "segre.py"))


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


def module_reads(sources) -> set:
    """The (module, name) pairs that the given files read, each resolved
    to the package module that defines the name.

    ``sources`` is a list of (module, source) pairs, module being the
    file's module of the package ("__init__" for the package itself) or
    None for a file outside it.  A module reads its own names; any file
    reads a module's name through ``from .M import NAME``,
    ``from tensorid.M import NAME``, ``from tensorid import NAME`` when
    ``__init__`` re-exports it from M, and ``M.NAME`` on an imported
    module M (``tensorid.NAME`` on the package).
    """
    modules = {m for m, _ in sources if m not in (None, "__init__")}
    exports = {}  # the module each re-exported name comes from
    for module, source in sources:
        if module == "__init__":
            for node in ast.parse(source).body:
                if isinstance(node, ast.ImportFrom) and node.level == 1:
                    exports.update((a.name, node.module) for a in node.names)

    def resolve(package_module, name):
        # NAME read from the package or from one of its modules
        return (exports.get(name), name) if package_module == "__init__" else (package_module, name)

    reads = set()
    for module, source in sources:
        tree = ast.parse(source)
        aliases = {}  # local name -> package module it is bound to
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                if node.level == 1 and module is not None:
                    origin = node.module or "__init__"
                elif node.level == 0 and node.module == "tensorid":
                    origin = "__init__"
                elif node.level == 0 and (node.module or "").startswith("tensorid."):
                    origin = node.module.split(".", 1)[1]
                else:
                    continue
                for a in node.names:
                    if origin == "__init__" and a.name in modules:
                        aliases[a.asname or a.name] = a.name
                    else:
                        reads.add(resolve(origin, a.name))
            elif isinstance(node, ast.Import):
                for a in node.names:
                    parts = a.name.split(".")
                    if parts[0] == "tensorid":
                        target = parts[1] if a.asname and len(parts) > 1 else "__init__"
                        aliases[a.asname or "tensorid"] = target
        if module is not None:
            reads.update(
                (module, node.id)
                for node in ast.walk(tree)
                if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
            )

        def bound(node):
            # the package module an expression names, if any
            if isinstance(node, ast.Name):
                return aliases.get(node.id)
            if isinstance(node, ast.Attribute) and bound(node.value) == "__init__":
                return node.attr if node.attr in modules else None
            return None

        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and (origin := bound(node.value)) is not None:
                reads.add(resolve(origin, node.attr))
    return reads


def dead_definitions(source: str, module: str, reads: set, referenced: set) -> list:
    """Undecorated, non-dunder definitions, and module-level UPPER_CASE
    constants, that nothing reads.

    A module-level function, class or constant is read only through the
    (module, name) pairs of ``module_reads``; a method or nested
    function by any name in ``referenced``.  Decorated definitions
    (click commands, properties, classmethods) are reached through their
    decorator, and dunders through Python itself.
    """
    tree = ast.parse(source)
    top = set(tree.body)
    defined = [
        (node.lineno, node.name, node in top)
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.decorator_list
        and not (node.name.startswith("__") and node.name.endswith("__"))
    ]
    defined += [
        (name.lineno, name.id, True)
        for node in tree.body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        for name in ast.walk(target)
        if isinstance(name, ast.Name) and name.id.isupper()
    ]
    return sorted(
        (line, name)
        for line, name, at_top in defined
        if ((module, name) not in reads if at_top else name not in referenced)
    )


def _dead(source: str) -> list:
    """``dead_definitions`` of one module read only by itself."""
    return dead_definitions(source, "m", module_reads([("m", source)]), referenced_names(source))


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
    assert _dead(source) == [(4, "unused"), (11, "dead_method")]


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
    assert _dead(source) == [(2, "DEAD"), (3, "TYPED"), (4, "TYPED")]


def test_reads_resolve_to_the_defining_module():
    # homotopy reads its own PRUNE_TOL, which keeps poly's alive no more;
    # each other read names poly, through one import form each
    poly = "".join(f"{name} = 1\n" for name in ("PRUNE_TOL", "A", "B", "C", "D", "E", "F"))
    sources = [
        ("poly", poly),
        ("homotopy", "from .poly import A\nPRUNE_TOL = 2\nprint(PRUNE_TOL, A)\n"),
        ("segre", "from . import poly as p\nprint(p.B)\n"),
        ("__init__", "from .poly import C\n"),
        (None, "from tensorid.poly import D\nfrom tensorid import C, poly\nprint(poly.E)\n"),
        (None, "import tensorid\nimport tensorid.poly as tp\nprint(tensorid.poly.F, tp.G)\n"),
    ]
    reads = module_reads(sources)
    names = set().union(*(referenced_names(source) for _, source in sources))
    assert dead_definitions(poly, "poly", reads, names) == [(1, "PRUNE_TOL")]
    assert ("poly", "G") in reads and ("poly", "C") in reads


@pytest.fixture(scope="module")
def callers_read():
    sources = [(p.stem if p.parent == SRC else None, p.read_text()) for p in CALLERS]
    return module_reads(sources), set().union(*(referenced_names(s) for _, s in sources))


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_dead_definitions(path, callers_read):
    assert dead_definitions(path.read_text(), path.stem, *callers_read) == []
