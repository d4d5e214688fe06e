import ast
import re
import sys
from pathlib import Path

import pytest

import ctpdse

tomllib = pytest.importorskip("tomllib", reason="tomllib is in the standard library from 3.11")

ROOT = Path(ctpdse.__file__).parents[2]


def package_nodes():
    """(module file name, node) for every syntax node of the package's modules."""
    for path in sorted(Path(ctpdse.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            yield path.name, node


def imported_third_party_modules():
    found = set()
    for _, node in package_nodes():
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found.update(name.split(".")[0] for name in names)
    return found - set(sys.stdlib_module_names) - {"ctpdse"}


def test_runtime_dependencies_are_exactly_the_imported_packages():
    with open(ROOT / "pyproject.toml", "rb") as handle:
        dependencies = tomllib.load(handle)["project"]["dependencies"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", spec).group(0) for spec in dependencies}
    assert imported_third_party_modules() == declared


def test_the_package_has_no_assert_statement():
    # ``python -O`` strips assert statements, so a check written as one would not run there.
    found = [f"{name}:{node.lineno}" for name, node in package_nodes()
             if isinstance(node, ast.Assert)]
    assert found == []
