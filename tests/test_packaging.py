"""The package has no runtime dependencies (``dependencies = []`` in
pyproject.toml): every module it imports, at the top of a file or inside a
function, is its own or one of the standard library's.  No name that a
module imports at its top goes unused.  And each console script that
pyproject.toml declares resolves and runs."""

import ast
import importlib
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "toklang").glob("*.py"))


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


def unused_imports(path: Path) -> list[str]:
    """Each name that an import at the top level of *path* binds and that
    occurs nowhere in it as a name, the base of an attribute included;
    annotations count, as they are parsed like any expression."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    bound = [(alias.asname or alias.name).partition(".")[0]
             for node in tree.body
             if isinstance(node, (ast.Import, ast.ImportFrom))
             and getattr(node, "module", None) != "__future__"
             for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in used]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_module_level_import_goes_unused(path):
    assert unused_imports(path) == []


def console_scripts() -> dict[str, str]:
    """The ``name = "module:attribute"`` entries of pyproject.toml's
    [project.scripts] table, read with a regex: Python 3.10 has no tomllib."""
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    table = re.search(r"^\[project\.scripts\]$(.*?)(?=^\[|\Z)", text, re.M | re.S)[1]
    return dict(re.findall(r'^([\w.-]+)\s*=\s*"([\w.]+:[\w.]+)"\s*$', table, re.M))


def test_the_console_scripts_are_found():
    assert console_scripts()["toklang"] == "toklang.cli:main"


@pytest.mark.parametrize("name, target", sorted(console_scripts().items()))
def test_each_console_script_runs_its_help(name, target, monkeypatch, capsys):
    # as the installed wrapper does: call the target with no arguments
    module, _, attribute = target.partition(":")
    entry = importlib.import_module(module)
    for part in attribute.split("."):
        entry = getattr(entry, part)
    monkeypatch.setattr(sys, "argv", [name, "--help"])
    with pytest.raises(SystemExit) as e:
        entry()
    assert e.value.code == 0
    assert capsys.readouterr().out.startswith("usage: ")
