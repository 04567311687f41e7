"""Every input file is decoded by one reader, ``corpus.iter_lines``.

A loader that opens its input itself grows its own decoder, with its own
line splitting and its own unlocated errors; this test keeps that from
coming back.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "morphtok"
# the functions that open a file to read it: the line reader, and the digest
# of a file's bytes that a manifest records
READERS = {("corpus.py", "iter_lines"), ("cli.py", "_sha256")}
# calls that take a path first, then a mode or os.open flags
PATH_FIRST = {"open", "io.open", "os.open", "codecs.open"}


def calls_by_function(node, scope="<module>"):
    """``(function name, call)`` of every call under `node`, named by the
    innermost function around it."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from calls_by_function(child, child.name)
            continue
        if isinstance(child, ast.Call):
            yield scope, child
        yield from calls_by_function(child, scope)


def opens_to_read(call) -> bool:
    """Whether `call` opens a file and may read it: an open whose mode is not
    "w", "a" or "x" without "+" (or whose os.open flags are not O_WRONLY), or
    a pathlib read."""
    name = ast.unparse(call.func)
    if name.endswith((".read_text", ".read_bytes")):
        return True
    if name in PATH_FIRST:
        positional_mode = 1
    elif name.endswith(".open"):  # pathlib: the mode comes first
        positional_mode = 0
    else:
        return False
    modes = [kw.value for kw in call.keywords if kw.arg in ("mode", "flags")]
    modes += call.args[positional_mode:positional_mode + 1]
    if not modes:
        return True  # the default mode reads
    mode = modes[0]
    if isinstance(mode, ast.Attribute):
        return mode.attr != "O_WRONLY"
    if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
        return "+" in mode.value or set(mode.value).isdisjoint("wax")
    return True  # a mode computed at run time may read


def test_only_the_line_reader_opens_input_files():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 1
    reading = {}
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for scope, call in calls_by_function(tree):
            if opens_to_read(call):
                reading.setdefault((path.name, scope), []).append(f"{path.name}:{call.lineno}")
    others = sorted(line for key, lines in reading.items() if key not in READERS for line in lines)
    assert not others, f"files opened for reading outside corpus.iter_lines: {others}"
    assert reading.keys() == READERS
