"""The package runs on the standard library alone."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "morphtok"


def test_package_imports_only_stdlib():
    allowed = sys.stdlib_module_names | {"morphtok"}
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 1
    outside = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [f"{path.name}:{node.lineno}: {name}" for name in names
                        if name.partition(".")[0] not in allowed]
    assert not outside, outside
