"""The library imports nothing outside the Python standard library."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "hypermult"


def test_every_absolute_import_of_the_library_is_stdlib():
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                found += [(path.name, alias.name) for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                found.append((path.name, node.module))
    assert found, "no imports seen: the source path is wrong"
    outside = [(name, module) for name, module in found
               if module.split(".")[0] not in sys.stdlib_module_names]
    assert outside == []
