"""Every module-level name the package defines is used somewhere.

A name defined in src/spernerlab/*.py must occur as a whole word at least
once outside its own definition, in src/, tests/ or demos/.  The import
lists of __init__.py are re-exports, not uses, and this file does not
count either, so dead API cannot hide behind either of them.
"""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "spernerlab"


def _definitions(path):
    """(name, first line, last line) of each module-level definition."""
    out = []
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.append((node.name, node.lineno, node.end_lineno))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out += [(t.id, node.lineno, node.end_lineno)
                    for t in targets if isinstance(t, ast.Name)]
    return out


def _corpus():
    """Source lines to search, per file, with the re-export lists blanked."""
    files = [p for d in ("src", "tests", "demos") for p in sorted((ROOT / d).rglob("*.py"))
             if p.resolve() != pathlib.Path(__file__).resolve()]
    out = {}
    for path in files:
        lines = path.read_text().splitlines()
        if path == PACKAGE / "__init__.py":
            for node in ast.parse("\n".join(lines)).body:
                if isinstance(node, ast.ImportFrom):
                    for i in range(node.lineno - 1, node.end_lineno):
                        lines[i] = ""
        out[path] = lines
    return out


def test_every_module_level_name_is_used():
    corpus = _corpus()
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        for name, first, last in _definitions(path):
            word = re.compile(rf"\b{re.escape(name)}\b")
            used = any(word.search(line)
                       for other, lines in corpus.items()
                       for lineno, line in enumerate(lines, 1)
                       if not (other == path and first <= lineno <= last))
            if not used:
                unused.append(f"{path.name}:{first} {name}")
    assert not unused, "defined but never used: " + ", ".join(unused)
