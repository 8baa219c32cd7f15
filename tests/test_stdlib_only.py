"""The runtime imports nothing beyond the standard library and itself."""

import ast
import pathlib
import sys

import pwlannulus

PACKAGE = pathlib.Path(pwlannulus.__file__).parent


def _imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom):
            yield "." if node.level else node.module


def test_every_import_is_stdlib_or_the_package():
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) >= 7
    outside = []
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for name in _imported_modules(tree):
            top = name.split(".")[0]
            if name != "." and top != "pwlannulus" and top not in sys.stdlib_module_names:
                outside.append(f"{path.name}: {name}")
    assert outside == []
