"""Each input format of ``src/polyreg/`` has one reader.

A file read is a call in ``src/polyreg/*.py`` to ``open`` whose mode is
not a constant holding ``w``, ``a`` or ``x``, or to a ``.read_text`` or
``.read_bytes`` method.  Reads may sit only in the functions that own an
input format: ``lines.read_lines`` for every line-oriented text file,
``checkpoint.load_checkpoint`` for checkpoints and ``cli.cmd_extract`` for
the corpus.  A new loader parses rows over ``read_lines``, so every input
gets its ``path:line`` errors and any later per-file work in one place.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "polyreg"
READERS = {"lines.read_lines", "checkpoint.load_checkpoint", "cli.cmd_extract"}


def _is_read(call: ast.Call) -> bool:
    func = call.func
    if isinstance(func, ast.Attribute):
        return func.attr in ("read_text", "read_bytes")
    if not (isinstance(func, ast.Name) and func.id == "open"):
        return False
    mode = call.args[1] if len(call.args) > 1 else next((k.value for k in call.keywords if k.arg == "mode"), None)
    return not (isinstance(mode, ast.Constant) and isinstance(mode.value, str) and set(mode.value) & set("wax"))


def file_reads(module: str, source: str) -> list[str]:
    """``module.function:line`` of each file read in ``source``; the
    function is the chain of definitions around the call, dotted."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if isinstance(child, ast.Call) and _is_read(child):
                found.append(f"{'.'.join([module] + scope)}:{child.lineno}")
            visit(child, scope)

    visit(ast.parse(source), [])
    return found


def test_only_the_format_readers_read_files():
    reads = [r for p in sorted(SRC.glob("*.py")) for r in file_reads(p.stem, p.read_text(encoding="utf-8"))]
    assert {r.split(":")[0] for r in reads} == READERS, reads


PLANTED = '''
def load(path, cfg):
    with open(path) as fh:
        fh.read()
    with open(path, "rb") as fh, open(path, mode="r", encoding="utf-8") as g:
        pass
    open(path, cfg.mode)
    return path.read_text("utf-8") + path.read_bytes().decode()


class Store:
    def save(self, path):
        for mode in ("w", "wb", "a", "x"):
            open(path, mode)
        open(path, "w", encoding="utf-8")
        open(path, mode="ab")
        path.write_text("")
'''


def test_the_checker_flags_reads_and_passes_writes():
    assert file_reads("planted", PLANTED) == [
        "planted.load:3",
        "planted.load:5",
        "planted.load:5",
        "planted.load:7",
        "planted.load:8",
        "planted.load:8",
        "planted.Store.save:14",
    ]
