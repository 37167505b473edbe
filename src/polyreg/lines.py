"""The one reader of polyreg's line-oriented input files."""


def read_lines(path, parse, header=None, columns=None, key=None) -> list:
    """``parse`` of each non-empty line of the UTF-8 text file at ``path``.

    Universal newlines make ``\\r\\n`` and a lone ``\\r`` end a line as
    ``\\n`` does, and ``parse`` gets the line without its end.  Lines are
    numbered from 1, and a ``ValueError`` a line causes is raised again as
    ``ValueError("path:line: message")``, as is a byte that is not UTF-8.
    ``header``: the first line must start with it, ignoring case, and is
    not parsed.  ``columns``: ``parse`` gets the line split at tabs into
    exactly that many fields.  ``key``: ``parse`` returns ``(key value,
    result)``, and a key value an earlier line holds is an error naming
    that line.
    """
    results = []
    first_line = {}
    try:
        with open(path, encoding="utf-8") as fh:
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
    except UnicodeDecodeError:
        with open(path, "rb") as fh:
            raise ValueError(utf8_fault(path, fh.read())) from None
    return results


def utf8_fault(path, data: bytes) -> str:
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
