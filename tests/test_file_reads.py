"""Each input format of ``src/polyreg/`` has one reader, and every file
polyreg makes has one writer.

A file read is a call in ``src/polyreg/*.py`` to ``open`` whose mode is
not a constant holding ``w``, ``a``, ``x`` or ``+``, or to a ``.read_text``
or ``.read_bytes`` method.  Reads may sit only in the functions that own
an input format: ``lines.text_file`` for every text file (the corpus, and
through ``lines.read_lines`` every line-oriented one) and
``checkpoint.load_checkpoint`` for checkpoints.  A new loader parses rows
over ``read_lines``, so every input gets its ``path:line`` errors and any
later per-file work in one place.

A file write is a call to ``open`` whose mode is not a constant free of
``w``, ``a``, ``x`` and ``+``, to ``os.open``, or to a ``.write_text`` or
``.write_bytes`` method.  Only ``lines.replacing`` may write, so every
file polyreg makes is all or nothing, UTF-8 with ``\\n`` line ends.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "polyreg"
READERS = {"lines.text_file", "checkpoint.load_checkpoint"}
WRITERS = {"lines.replacing"}


def _mode_writes(call: ast.Call) -> bool | None:
    """Whether an ``open`` call's mode writes; None when it is not a constant."""
    mode = call.args[1] if len(call.args) > 1 else next((k.value for k in call.keywords if k.arg == "mode"), None)
    if mode is None:
        return False
    if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)):
        return None
    return bool(set(mode.value) & set("wax+"))


def _is_open(func) -> bool:
    return isinstance(func, ast.Name) and func.id == "open"


def _is_read(call: ast.Call) -> bool:
    func = call.func
    if isinstance(func, ast.Attribute):
        return func.attr in ("read_text", "read_bytes")
    return _is_open(func) and not _mode_writes(call)


def _is_write(call: ast.Call) -> bool:
    func = call.func
    if isinstance(func, ast.Attribute):
        os_open = func.attr == "open" and isinstance(func.value, ast.Name) and func.value.id == "os"
        return os_open or func.attr in ("write_text", "write_bytes")
    return _is_open(func) and _mode_writes(call) is not False


def _calls(module: str, source: str, picks) -> list[str]:
    """``module.function:line`` of each call in ``source`` that ``picks``;
    the function is the chain of definitions around the call, dotted."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if isinstance(child, ast.Call) and picks(child):
                found.append(f"{'.'.join([module] + scope)}:{child.lineno}")
            visit(child, scope)

    visit(ast.parse(source), [])
    return found


def file_reads(module: str, source: str) -> list[str]:
    return _calls(module, source, _is_read)


def file_writes(module: str, source: str) -> list[str]:
    return _calls(module, source, _is_write)


def _sources():
    return [(p.stem, p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))]


def test_only_the_format_readers_read_files():
    reads = [r for module, source in _sources() for r in file_reads(module, source)]
    assert {r.split(":")[0] for r in reads} == READERS, reads


def test_only_replacing_writes_files():
    writes = [w for module, source in _sources() for w in file_writes(module, source)]
    assert {w.split(":")[0] for w in writes} == WRITERS, writes


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
        path.write_bytes(b"")
        os.open(path, os.O_WRONLY | os.O_CREAT)
        open(path, "r+")
        os.path.exists(path)
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


def test_the_checker_flags_writes_and_passes_reads():
    # a mode that is not a constant (lines 7 and 14) may write, as may
    # os.open whatever its flags
    assert file_writes("planted", PLANTED) == [
        "planted.load:7",
        "planted.Store.save:14",
        "planted.Store.save:15",
        "planted.Store.save:16",
        "planted.Store.save:17",
        "planted.Store.save:18",
        "planted.Store.save:19",
        "planted.Store.save:20",
    ]
