"""The kernel is dependency-free, as `pyproject.toml` declares
(`dependencies = []`): every absolute import in `src/metalie` is of a
standard-library module. The `test` extra installs sympy, so an import of it
here would pass every other test.

Every Python file of the package, its tests and its benchmark is also
written for the oldest Python that `pyproject.toml` admits
(`requires-python`), which a newer interpreter alone would not show.

A bracket-expression node is checked once, by its constructor (a word's
letters by `LeftNormed`, a sum's pairs by `Sum`), and every walk trusts it
after. Only `metabelian.lift`, which builds words of indices and their sum,
skips the checks, through `LeftNormed._raw` and `Sum._raw`; a scan of the
sources shows that no other path does."""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "metalie").glob("*.py"))
PYTHON_FILES = sorted(
    path
    for part in ("src/metalie", "tests", "bench")
    for path in (ROOT / part).rglob("*.py")
)


def absolute_imports(path: Path) -> list:
    """The modules a source file imports by absolute name."""
    out = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            out += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            out.append(node.module)
    return out


def test_sources_found():
    assert {"__init__.py", "polyring.py", "cli.py"} <= {p.name for p in SOURCES}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_only_the_standard_library(path):
    outside = [
        m for m in absolute_imports(path) if m.split(".")[0] not in sys.stdlib_module_names
    ]
    assert outside == []


def declared_floor() -> tuple:
    """The (major, minor) of `requires-python = ">=X.Y"` in pyproject.toml."""
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    m = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', text, re.M)
    return int(m[1]), int(m[2])


def test_python_files_found():
    names = {path.relative_to(ROOT).as_posix() for path in PYTHON_FILES}
    assert {"src/metalie/cli.py", "tests/conftest.py", "bench/run.py"} <= names


@pytest.mark.parametrize(
    "path", PYTHON_FILES, ids=lambda p: p.relative_to(ROOT).as_posix()
)
def test_parses_at_the_declared_python_floor(path):
    text = path.read_text(encoding="utf-8")
    ast.parse(text, str(path), feature_version=declared_floor())


def scopes_referencing(path: Path, is_reference) -> list:
    """The dotted names of the functions and classes of a source file, "" for
    the module itself, around each node for which is_reference holds."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if is_reference(child):
                found.append(".".join(scope))
            visit(child, scope)

    visit(ast.parse(path.read_text(encoding="utf-8")), ())
    return found


NODE_CLASSES = {"LeftNormed", "Sum"}
NODE_FIELDS = {"letters", "parts"}


def names_a_node_class(node) -> bool:
    """`LeftNormed` or `Sum`, bare or as an attribute."""
    name = getattr(node, "id", None) or getattr(node, "attr", None)
    return name in NODE_CLASSES


def names_raw_node(node) -> bool:
    """`LeftNormed._raw` or `Sum._raw`, through the class or an attribute
    naming it."""
    return (
        isinstance(node, ast.Attribute)
        and node.attr == "_raw"
        and names_a_node_class(node.value)
    )


def sets_a_node_field(node) -> bool:
    """The `letters` or `parts` slot's setter, by name or as
    `<class>.letters.__set__`, or the field named as a string, as
    `object.__setattr__` would need: each makes or changes a node without
    its constructor."""
    if isinstance(node, ast.Attribute) and node.attr == "__set__":
        return getattr(node.value, "attr", None) in NODE_FIELDS
    if isinstance(node, ast.Constant):
        return node.value in NODE_FIELDS
    return isinstance(node, ast.Name) and node.id in ("_set_letters", "_set_parts")


def allocates(node) -> bool:
    """A call of `__new__`, as in `object.__new__(cls)`: an instance made
    without its constructor."""
    return isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "__new__"


def allocates_by_name(node) -> bool:
    """`__new__` of anything but `cls`, the class of the method around it."""
    first = node.args[0] if allocates(node) and node.args else None
    return allocates(node) and getattr(first, "id", None) != "cls"


def references(is_reference) -> set:
    """(module, scope) of every node of the package's sources for which
    is_reference holds."""
    return {(p.stem, s) for p in SOURCES for s in scopes_referencing(p, is_reference)}


def test_raw_words_are_built_by_lift_only():
    raw_makers = {("lieexpr", "LeftNormed._raw"), ("lieexpr", "Sum._raw")}
    assert references(names_raw_node) == {("metabelian", "lift")}
    assert references(sets_a_node_field) == {("lieexpr", "")} | raw_makers
    # each `__new__` makes an instance of the class whose method calls it,
    # and in a node class only `_raw` calls it
    assert references(allocates_by_name) == set()
    in_node_classes = {
        (module, scope)
        for module, scope in references(allocates)
        if scope.split(".")[0] in NODE_CLASSES
    }
    assert in_node_classes == raw_makers
