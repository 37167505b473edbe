"""Every name ``src/polyreg/`` defines must have a caller in the program.

A definition is a top-level function, class or module-level assigned name,
or a method, in ``src/polyreg/*.py``.  It is used when ``src/polyreg/``,
``demos/*.py`` or ``perfbench/*.py`` refers to it outside its own
definition: by a name, an attribute, an import whose bound name the
importing module also uses, or a string that is a whole dotted identifier
path (perfbench's hook strings such as ``"PropertyModel.forward"``).
Tests, perfbench's own tests, the package's re-exports, docstrings and
prose strings do not count, so API that only a test calls shows up here.
Only dunder names are exempt.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "polyreg"
IDENTIFIER_PATH = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _definitions(tree: ast.Module):
    """(name, first line, last line) of each definition of a module."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.lineno, node.end_lineno
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        yield item.name, item.lineno, item.end_lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, node.lineno, node.end_lineno


def _references(tree: ast.Module):
    """(name, line) of each reference a module makes.  An import refers
    to what it names only when the module uses the name it binds."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    bare_strings = {
        id(node.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if (alias.asname or alias.name.split(".")[0]) in used:
                    for part in alias.name.split("."):
                        yield part, node.lineno
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and id(node) not in bare_strings
            and IDENTIFIER_PATH.fullmatch(node.value)
        ):
            for part in node.value.split("."):
                yield part, node.lineno


def unused_definitions(sources: dict[str, str], callers: dict[str, str]) -> list[str]:
    """``module:name`` of each definition in ``sources`` (module name to
    source text) that neither ``sources`` nor ``callers`` refer to outside
    its own lines; a module named ``__init__`` only re-exports and refers
    to nothing."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    refs: dict[str, list[tuple[str, int]]] = {}
    for module, tree in trees.items():
        if module != "__init__":
            for name, line in _references(tree):
                refs.setdefault(name, []).append((module, line))
    for text in callers.values():
        for name, _ in _references(ast.parse(text)):
            refs.setdefault(name, []).append((None, 0))
    unused = []
    for module, tree in trees.items():
        for name, first, last in _definitions(tree):
            if _is_dunder(name):
                continue
            if not any(m != module or not first <= line <= last for m, line in refs.get(name, ())):
                unused.append(f"{module}:{name}")
    return unused


def _program():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    caller_paths = sorted(ROOT.glob("demos/*.py")) + [
        p for p in sorted(ROOT.glob("perfbench/*.py")) if not p.name.startswith("test_")
    ]
    callers = {str(p): p.read_text(encoding="utf-8") for p in caller_paths}
    return sources, callers


def test_every_src_definition_has_a_caller_in_the_program():
    sources, callers = _program()
    n_defs = sum(1 for text in sources.values() for _ in _definitions(ast.parse(text)))
    assert n_defs > 100, f"the scan found only {n_defs} definitions"
    unused = unused_definitions(sources, callers)
    assert not unused, "no caller in src/, demos/ or perfbench/: " + ", ".join(unused)


PLANTED = '''
"""A module whose docstring names helper and unused_helper."""

LIMIT = 3


def helper(x):
    return x + LIMIT


def unused_helper(x):
    """Calls itself: unused_helper(x - 1)."""
    if x > 0:
        return unused_helper(x - 1)
    raise ValueError("unused_helper needs a positive x")


class Box:
    def used(self):
        return helper(1)

    def unused(self):
        return self.used()

    def __repr__(self):
        return "Box"
'''


def test_the_checker_flags_an_unused_definition_and_passes_a_used_one():
    # importing unused_helper without using it is no reference
    callers = {"caller.py": "from planted import Box, unused_helper\nBox().used()\n"}
    assert unused_definitions({"planted": PLANTED}, callers) == [
        "planted:unused_helper",
        "planted:unused",
    ]


def test_the_checker_counts_hook_strings_but_not_prose_or_reexports():
    sources = {"planted": PLANTED, "__init__": "from .planted import unused_helper, Box\n"}
    hooks = {"hooks.py": 'HOOKS = [("planted", "unused_helper"), "Box.unused"]\n'}
    assert unused_definitions(sources, hooks) == []
    prose = {"prose.py": 'print("call unused_helper and Box.unused")\n'}
    assert unused_definitions(sources, prose) == [
        "planted:unused_helper",
        "planted:Box",
        "planted:unused",
    ]
