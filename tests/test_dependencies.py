"""The kernel is dependency-free, as `pyproject.toml` declares
(`dependencies = []`): every absolute import in `src/metalie` is of a
standard-library module. The `test` extra installs sympy, so an import of it
here would pass every other test."""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "metalie").glob("*.py"))


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
