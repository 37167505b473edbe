"""The one opener of polyreg's text input files, and the one writer of its files."""

import os
import sys
from contextlib import contextmanager


def read_lines(path, parse, header=None, columns=None, key=None) -> list:
    """``parse`` of each non-empty line of the UTF-8 text file at ``path``.

    The file is opened by ``text_file``, and ``parse`` gets each line
    without its end.  Lines are numbered from 1, and a ``ValueError`` a
    line causes is raised again as ``ValueError("path:line: message")``.
    ``header``: the first line must start with it, ignoring case, and is
    not parsed.  ``columns``: ``parse`` gets the line split at tabs into
    exactly that many fields.  ``key``: ``parse`` returns ``(key value,
    result)``, and a key value an earlier line holds is an error naming
    that line.
    """
    results = []
    first_line = {}
    with text_file(path) as fh:
        if header is not None and not fh.readline().lower().startswith(header.lower()):
            raise ValueError(f"{path}:1: expected a header line starting {header!r}")
        for lineno, line in enumerate(fh, 1 + (header is not None)):
            line = line.rstrip("\n")
            if not line:
                continue
            try:
                if columns is not None:
                    line = line.split("\t")
                    if len(line) != columns:
                        raise ValueError(f"expected {columns} columns, got {len(line)}")
                result = parse(line)
                if key is not None:
                    value, result = result
                    if value in first_line:
                        raise ValueError(f"{key} {value!r} repeats line {first_line[value]}")
                    first_line[value] = lineno
                results.append(result)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
    return results


@contextmanager
def text_file(path):
    """The UTF-8 text file at ``path``, open for reading with universal
    newlines, so ``\\r\\n`` and a lone ``\\r`` end a line as ``\\n`` does.  A
    byte that is not UTF-8, met anywhere in the ``with`` block, raises
    ``ValueError("path:line: ...")`` naming it."""
    try:
        with open(path, encoding="utf-8") as fh:
            yield fh
    except UnicodeDecodeError:
        with open(path, "rb") as fh:
            raise ValueError(_utf8_fault(path, fh.read())) from None


def _utf8_fault(path, data: bytes) -> str:
    """``"path:line: ..."`` naming the first byte of ``data``, the bytes of
    the file at ``path``, that is not UTF-8, and its line as universal
    newlines count them."""
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = data[: exc.start].decode("utf-8")
        line = head.replace("\r\n", "\n").replace("\r", "\n").count("\n") + 1
        return f"{path}:{line}: byte {data[exc.start]:#04x} is not UTF-8 ({exc.reason})"
    return f"{path}: not UTF-8"  # the file changed after the read that failed


def _std_stats():
    """``os.fstat`` of this process's stdout and stderr, skipping a stream with no file behind it."""
    for stream in (sys.stdout, sys.stderr):
        try:
            yield os.fstat(stream.fileno())
        except (AttributeError, OSError, ValueError):  # None, a StringIO, a closed stream
            pass


@contextmanager
def replacing(path, binary=False):
    """A new file (UTF-8 with ``\\n`` line ends unless ``binary``; mode 0o666 less the umask)
    beside the file at ``path`` or its symlink's target, that replaces that file, keeping its
    mode, if the ``with`` block ends cleanly, and is removed if not; a non-regular one, or
    the one this process's stdout or stderr writes to, is refused."""
    target = os.path.realpath(path)
    if os.path.exists(path) and not os.path.isfile(path):  # stat follows /dev/stdout to a pipe
        raise ValueError(f"{path}: not a regular file, which polyreg does not replace")
    if os.path.isfile(path) and any(os.path.samestat(os.stat(path), out) for out in _std_stats()):
        raise ValueError(f"{path}: the same file as stdout or stderr, which polyreg does not replace")
    tmp = os.path.join(os.path.dirname(target), f".{os.path.basename(target)}.{os.urandom(6).hex()}.tmp")
    try:
        fh = open(tmp, "xb") if binary else open(tmp, "x", encoding="utf-8", newline="\n")
    except OSError as exc:  # a missing or unwritable directory: name the path given
        raise type(exc)(exc.errno, exc.strerror, path) from None
    try:
        with fh:
            yield fh
        if os.path.exists(target):
            os.chmod(tmp, os.stat(target).st_mode & 0o7777)
        os.replace(tmp, target)
    except BaseException:
        os.unlink(tmp)
        raise
