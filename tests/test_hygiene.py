"""Source hygiene checks that need nothing beyond the standard ``ast``."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "twistknots"
SOURCES = sorted(PACKAGE.rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))
# every place that may name a library function or class
CALLERS = [ROOT / d for d in ("src", "tests", "perfbench", "scripts")]
# the places that use the library, as opposed to testing it
USERS = [ROOT / d for d in ("src", "perfbench", "scripts")]
# deliberately public names that only tests call; every other library
# definition must be named where the library is used
PUBLIC_API = {
    "cycle_count",
    "from_ints",
    "linking_number",
    "load_family",
    "mirror_family",
    "monomial",
    "save_family",
    "shift",
    "unknot",
    "unlink_jones",
}


def unused_imports(source: str) -> list[str]:
    """Names an import binds that the module never reads, in line order.

    A name counts as read when it appears as a plain name anywhere,
    including inside a string annotation; ``__future__`` imports bind
    nothing.
    """
    tree = ast.parse(source)
    bound: dict[str, int] = {}
    read: set[str] = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            annotations.append(node.returns)
    for annotation in annotations:
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                text = ast.parse(node.value, mode="eval")
                read.update(n.id for n in ast.walk(text) if isinstance(n, ast.Name))
    return sorted((name for name in bound if name not in read), key=bound.get)


def test_detector():
    source = (
        "from __future__ import annotations\n"
        "import os, os.path\n"
        "import json as j\n"
        "from typing import Any, Sequence\n"
        "def f(x: 'Sequence[int]') -> None:\n"
        "    return os.sep\n"
    )
    assert unused_imports(source) == ["j", "Any"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _scopes(stmt: ast.stmt) -> list[tuple[set[str], str | None, list[ast.AST]]]:
    """A module-level statement as (own names, method, nodes) triples: the
    statement under its own name, or an assignment under the names it
    binds, dunders excluded, except that each method of a class, dunders
    excluded, is a scope of its own under the class's and its own name,
    with its name as ``method``; ``method`` is None elsewhere."""
    if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        bound = {
            n.id
            for target in targets
            for n in ast.walk(target)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store) and not _dunder(n.id)
        }
        return [(bound, None, [stmt])]
    own = getattr(stmt, "name", None)
    if not isinstance(stmt, ast.ClassDef):
        return [({own}, None, [stmt])]
    methods = [
        m
        for m in stmt.body
        if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef)) and not _dunder(m.name)
    ]
    rest = [s for s in stmt.body if s not in methods]
    rest += stmt.bases + stmt.keywords + stmt.decorator_list
    return [({own}, None, rest)] + [({own, m.name}, m.name, [m]) for m in methods]


def _module_name(path: Path, package: Path) -> str | None:
    """The dotted name of a module under ``package``, else None."""
    if not path.is_relative_to(package):
        return None
    return ".".join((package.name, *path.relative_to(package).with_suffix("").parts))


def _import_origins(tree: ast.Module, module: str | None) -> dict[str, tuple]:
    """Each name a ``from ... import`` binds, to the module it comes from
    and its name there; relative imports are resolved within the package."""
    origins = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            source = node.module
            if node.level and module is not None:
                base = module.split(".")[: -node.level]
                source = ".".join(base + [node.module] if node.module else base)
            for alias in node.names:
                origins[alias.asname or alias.name] = (source, alias.name)
    return origins


def unreferenced_definitions(sources: dict[Path, str], package: Path) -> list[str]:
    """Module-level functions, classes and assigned names, and methods of
    those classes, dunders excluded, defined under ``package`` that no
    source names outside their own definition, sorted.

    ``sources`` maps each path to its text.  A definition of module M
    counts as named where M reads it as a plain name, where a source that
    imports it from M reads it, or where any source reads it as an
    attribute.  Being imported is not enough, and neither is a read of
    the same name in a source that does not import it from M.  A method
    counts as named only where a source reads it as an attribute: a
    plain name spelled the same, such as a loop variable, is not a read
    of it.
    """
    defined: set[tuple[str, str]] = set()
    methods: set[tuple[str, str]] = set()
    named: set[tuple[str | None, str]] = set()
    attributes: set[str] = set()
    for path, source in sources.items():
        tree = ast.parse(source)
        module = _module_name(path, package)
        origins = _import_origins(tree, module)
        for stmt in tree.body:
            for own, method, nodes in _scopes(stmt):
                if module is not None and method is not None:
                    methods.add((module, method))
                elif module is not None:
                    defined.update((module, name) for name in own - {None})
                for node in (n for top in nodes for n in ast.walk(top)):
                    if isinstance(node, ast.Name) and node.id not in own:
                        named.add(origins.get(node.id, (module, node.id)))
                    elif isinstance(node, ast.Attribute) and node.attr not in own:
                        attributes.add(node.attr)
    unnamed = [
        name
        for module, name in defined
        if (module, name) not in named and name not in attributes
    ]
    return sorted(unnamed + [name for _, name in methods if name not in attributes])


def test_unreferenced_detector():
    sources = {
        Path("pkg/a.py"): (
            "import os\n"
            "__all__ = ['used']\n"
            "USED_TABLE = {1: 2}\n"
            "DEAD_TABLE = {1: 2}\n"
            "SELF_READ: int = SELF_READ + 1\n"
            "LEFT, RIGHT = 1, 2\n"
            "USED_TABLE[3] = LEFT\n"
            "def used(): return os.sep\n"
            "def recursive(n): return recursive(n - 1)\n"
            "class Dead: pass\n"
            "def method_named(): pass\n"
            "class Live:\n"
            "    def __init__(self): self.from_init()\n"
            "    def from_init(self): pass\n"
            "    def called(self): return Live\n"
            "    def dead_method(self): return self.dead_method()\n"
            # read only as a loop variable of the same spelling
            "    def k(self): return 0\n"
            "def loops(): return [k for k in range(2)]\n"
            "SHADOWED = {2: 0}\n"
            "FROM_SIBLING = 1\n"
            "def renamed(): pass\n"
        ),
        Path("pkg/b.py"): (
            "from .a import FROM_SIBLING\n"
            "LOCAL = FROM_SIBLING + 1\n"
            "def reads_local(): return LOCAL\n"
        ),
        Path("tests/t.py"): (
            "from pkg.a import used, Dead, Live, loops, renamed as r\n"
            "from pkg.b import reads_local\n"
            "used()\n"
            "r()\n"
            "loops()\n"
            "reads_local()\n"
            "os.method_named\n"
            "Live().called()\n"
            "class TestLive:\n"
            "    def helper(self): pass\n"
            # a name of its own: no read of pkg.a's SHADOWED
            "SHADOWED = {2: 0}\n"
            "SHADOWED[3] = 1\n"
        ),
    }
    assert unreferenced_definitions(sources, Path("pkg")) == [
        "DEAD_TABLE", "Dead", "RIGHT", "SELF_READ", "SHADOWED", "dead_method", "k", "recursive",
    ]


def test_every_library_definition_is_named():
    sources = {
        path: path.read_text(encoding="utf-8")
        for root in CALLERS
        for path in sorted(root.rglob("*.py"))
    }
    assert unreferenced_definitions(sources, PACKAGE) == []


def test_only_the_public_api_is_left_to_tests():
    sources = {
        path: path.read_text(encoding="utf-8")
        for root in USERS
        for path in sorted(root.rglob("*.py"))
    }
    assert unreferenced_definitions(sources, PACKAGE) == sorted(PUBLIC_API)


def private_imports(source: str, package: str) -> list[str]:
    """``_``-prefixed names a module takes from ``package``: names a
    ``from`` import binds, and attributes read on a module bound from the
    package, in line order."""
    tree = ast.parse(source)
    modules: set[str] = set()
    found: list[tuple[int, str]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == package:
            for alias in node.names:
                if alias.name.startswith("_"):
                    found.append((node.lineno, alias.name))
                modules.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == package:
                    modules.add(alias.asname or package)
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and node.attr.startswith("_")
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
        ):
            found.append((node.lineno, node.attr))
    return [name for _, name in sorted(found)]


def test_private_import_detector():
    source = (
        "from pkg.a import _hidden, Shown, _other as o\n"
        "from pkg import b\n"
        "import pkg.c\n"
        "import pkg.d as dd\n"
        "from elsewhere import _fine\n"
        "b._deep\n"
        "pkg._top\n"
        "dd._dotted\n"
        "Shown()._slot\n"
        "_fine._x\n"
    )
    assert private_imports(source, "pkg") == [
        "_hidden", "_other", "_deep", "_top", "_dotted",
    ]


def test_oracles_take_no_private_names():
    source = (ROOT / "tests" / "oracles.py").read_text(encoding="utf-8")
    assert private_imports(source, PACKAGE.name) == []


# the placement step and its validating pass: the normal form is decided
# in diagram.py alone, where only the constructor and the one door for
# derived diagrams (``_of_rows``) place rows, and tests may still patch
# it; the relabelling rule is diagram._relabelled, which other modules call
NORMAL_FORM = {"_placed", "_validate"}


def names_read(source: str) -> set[str]:
    """Every name a module reads, binds by import or reads as an attribute."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update((node.name, node.asname))
    return names


def test_names_read_detector():
    source = "from a import _label_map as lm\nimport b\nb.d._placed(x)\n"
    assert names_read(source) >= {"_label_map", "lm", "b", "d", "_placed", "x"}


def test_normal_form_is_decided_in_diagram():
    named = {
        str(path.relative_to(ROOT)): names_read(path.read_text(encoding="utf-8")) & NORMAL_FORM
        for path in sorted((ROOT / "src").rglob("*.py"))
        if path != PACKAGE / "diagram.py"
    }
    assert {path: sorted(names) for path, names in named.items() if names} == {}


def namers(source: str, name: str) -> list[str]:
    """The innermost function around each place that names ``name``, as a
    plain name or an attribute; ``"<module>"`` outside every function."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.Name, ast.Attribute)) and name in (
                getattr(child, "id", None), getattr(child, "attr", None)
            ):
                found.append(owner)
            is_def = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if is_def else owner)

    visit(ast.parse(source), "<module>")
    return found


def test_namers_detector():
    source = (
        "class D:\n"
        "    def _placed(self): pass\n"
        "    def _of_rows(self):\n"
        "        self._placed()\n"
        "        def inner(): return _placed\n"
        "d._placed()\n"
    )
    assert namers(source, "_placed") == ["_of_rows", "inner", "<module>"]


def test_one_way_into_the_index_step():
    # every diagram the library builds is placed once: the constructor
    # places its own rows, every derived diagram comes through the one
    # door, _of_rows, only the placement step runs the validating pass,
    # rows from outside pass one check, _checked, whose only callers are
    # the two doors for them, and the old ways in are gone from every file
    sources = {
        str(path.relative_to(ROOT)): path.read_text(encoding="utf-8")
        for path in sorted((ROOT / "src").rglob("*.py"))
    }
    owners_of = {
        "_placed": ["__post_init__", "_of_rows"],
        "_validate": ["_placed"],
        "_checked": ["__post_init__", "from_raw"],
    }
    for name, owners in owners_of.items():
        named = {path: namers(source, name) for path, source in sources.items()}
        assert {path: found for path, found in named.items() if found} == {
            "src/twistknots/diagram.py": owners
        }, name
    others = [
        path for root in CALLERS for path in sorted(root.rglob("*.py"))
        if path != Path(__file__).resolve()
    ]
    texts = {path: path.read_text(encoding="utf-8") for path in others}
    assert [path for path, text in texts.items() if "_from_dense" in text] == []
    assert [path for path, text in texts.items() if "_index" in names_read(text)] == []
