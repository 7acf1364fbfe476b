"""Every module-level name the package defines is used somewhere, and
every parameter default is both overridden and relied on somewhere.

A name defined in src/spernerlab/*.py must occur as a whole word at least
once outside its own definition, in src/ or demos/.  Tests do not count,
so a name only tests call is dead API.

A parameter with a default, in any function or method of the package,
must be passed in at least one call in src/, tests/ or demos/ (this file
aside), and left out of at least one other.  Calls match by callee name
(`__init__` by its class name); a parameter counts as passed by keyword,
by position, or through `*` or `**`.
"""

import ast
import collections
import pathlib
import re
import types

import spernerlab

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


def _files():
    """Python files under src/, tests/ and demos/, except this one."""
    return [p for d in ("src", "tests", "demos") for p in sorted((ROOT / d).rglob("*.py"))
            if p.resolve() != pathlib.Path(__file__).resolve()]


def _corpus():
    """Source lines to search for names, per file under src/ and demos/."""
    return {path: path.read_text().splitlines() for path in _files()
            if path.relative_to(ROOT).parts[0] != "tests"}


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


def test_one_import_path_per_name():
    # each name is imported from the module that defines it
    bound = [name for name, value in vars(spernerlab).items()
             if not name.startswith("_") and not (
                 isinstance(value, types.ModuleType) and value.__name__ == f"spernerlab.{name}")]
    assert not bound, "the package binds: " + ", ".join(bound)


def _calls():
    """Per callee name, one (keywords, positional count, spreads `*` or
    `**`) triple per call."""
    calls = collections.defaultdict(list)
    for path in _files():
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            spread = (any(isinstance(a, ast.Starred) for a in node.args)
                      or any(kw.arg is None for kw in node.keywords))
            calls[name].append(({kw.arg for kw in node.keywords if kw.arg},
                                len(node.args), spread))
    return calls


def _passes(call, param, pos):
    """Whether the call passes the parameter at position pos (None when
    keyword-only)."""
    keywords, nargs, spread = call
    return spread or param in keywords or (pos is not None and nargs > pos)


def _defaulted_params(path):
    """(callee name, line, parameter, position or None) per parameter with a
    default; the position skips the bound `self` or `cls` of a method."""
    tree = ast.parse(path.read_text())
    owner = {id(fn): cls for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
             for fn in cls.body if isinstance(fn, ast.FunctionDef)}
    out = []
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef):
            continue
        cls = owner.get(id(fn))
        bound = cls is not None and "staticmethod" not in [
            getattr(d, "id", None) for d in fn.decorator_list]
        name = cls.name if bound and fn.name == "__init__" else fn.name
        a = fn.args
        positional = a.posonlyargs + a.args
        first = len(positional) - len(a.defaults)
        out += [(name, fn.lineno, arg.arg, i - bound)
                for i, arg in enumerate(positional) if i >= first]
        out += [(name, fn.lineno, arg.arg, None)
                for arg, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
    return out


def test_every_parameter_default_is_overridden():
    calls = _calls()
    never = [f"{path.name}:{lineno} {name}({param}=...)"
             for path in sorted(PACKAGE.glob("*.py"))
             for name, lineno, param, pos in _defaulted_params(path)
             if not any(_passes(call, param, pos) for call in calls[name])]
    assert not never, "parameter default never overridden: " + ", ".join(never)


def test_every_parameter_default_is_relied_on():
    # a default that every call overrides is a dead knob: the parameter
    # should be required
    calls = _calls()
    always = [f"{path.name}:{lineno} {name}({param}=...)"
              for path in sorted(PACKAGE.glob("*.py"))
              for name, lineno, param, pos in _defaulted_params(path)
              if all(_passes(call, param, pos) for call in calls[name])]
    assert not always, "parameter default never relied on: " + ", ".join(always)
