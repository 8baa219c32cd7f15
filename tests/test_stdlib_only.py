"""The runtime imports nothing beyond the standard library and itself, and
the test extra covers what the tests and tools import beyond that."""

import ast
import pathlib
import re
import sys

import pwlannulus

PACKAGE = pathlib.Path(pwlannulus.__file__).parent
ROOT = pathlib.Path(__file__).resolve().parents[1]


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


def test_the_test_extra_lists_every_third_party_import_of_tests_and_tools():
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    extra = re.search(r"(?ms)^test = \[(.*?)^\]", pyproject).group(1)
    listed = {m.lower() for m in re.findall(r'"([A-Za-z0-9_.-]+)', extra)}
    sources = sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "tools").glob("*.py"))
    local = {path.stem for path in sources} | {"pwlannulus"}
    unlisted = []
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for name in _imported_modules(tree):
            top = name.split(".")[0]
            if (name != "." and top not in local and top not in sys.stdlib_module_names
                    and top.lower() not in listed):
                unlisted.append(f"{path.name}: {name}")
    assert unlisted == []
