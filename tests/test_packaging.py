"""The package has no runtime dependencies (``dependencies = []`` in
pyproject.toml): every module it imports, at the top of a file or inside a
function, is its own or one of the standard library's."""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "toklang").glob("*.py"))


def absolute_imports(path: Path) -> list[str]:
    """The top-level module of each absolute import anywhere in *path*."""
    names = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            names += [alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module.partition(".")[0])
    return names


def test_the_sources_are_found():
    assert {"grammar.py", "cli.py", "__init__.py"} <= {p.name for p in SOURCES}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_absolute_import_is_of_the_standard_library(path):
    assert [n for n in absolute_imports(path) if n not in sys.stdlib_module_names] == []
