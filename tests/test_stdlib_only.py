"""The package runs on the standard library alone: every import in
src/spernerlab/*.py is relative or names a standard-library module, and
pyproject.toml declares no runtime dependency."""

import ast
import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_package_imports_only_the_standard_library():
    foreign = []
    for path in sorted((ROOT / "src" / "spernerlab").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            foreign += [f"{path.name}:{node.lineno} {name}" for name in names
                        if name.split(".")[0] not in sys.stdlib_module_names]
    assert not foreign, "imports outside the standard library: " + ", ".join(foreign)


def test_pyproject_declares_no_dependencies():
    project = (ROOT / "pyproject.toml").read_text().split("\n[project]\n", 1)[1].split("\n[", 1)[0]
    assert re.search(r"^dependencies = \[\]$", project, re.M)
