"""The kernel is dependency-free, as `pyproject.toml` declares
(`dependencies = []`): every absolute import in `src/metalie` is of a
standard-library module. The `test` extra installs sympy, so an import of it
here would pass every other test.

Every Python file of the package, its tests and its benchmark is also
written for the oldest Python that `pyproject.toml` admits
(`requires-python`), which a newer interpreter alone would not show."""

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
