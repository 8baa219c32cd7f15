"""What the benchmark in pwlbench/ relies on of the package.

The names pwlbench/tracing.py wraps, the csv headers pwlbench/workloads.py
checks and every package name pwlbench/*.py imports or reads off an imported
package module are read from their source with ast, so pwlbench is neither
imported nor changed here.
"""

import ast
import importlib
import io
import json
import pathlib
import types

import pytest

from pwlannulus import cli

PWLBENCH = pathlib.Path(__file__).resolve().parents[1] / "pwlbench"


def _literal(filename, name):
    """The literal value the module-level assignment `name = ...` binds."""
    tree = ast.parse((PWLBENCH / filename).read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise LookupError(f"{filename} binds no {name}")


def test_every_wrapped_name_is_an_attribute_of_its_layer():
    # Tracer.install looks each one up with a bare getattr
    wrapped = _literal("tracing.py", "WRAPPED")
    for layer, names in wrapped.items():
        module = importlib.import_module(f"pwlannulus.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"{layer}.{name}"


@pytest.mark.parametrize("command", cli.COMMANDS)
def test_every_csv_header_is_the_pinned_one(command, tmp_path):
    headers = _literal("workloads.py", "CSV_HEADERS")
    assert set(headers) == set(cli.COMMANDS)
    path = tmp_path / "annulus.json"
    path.write_text(json.dumps({"TL": -2.0, "DL": 4.0, "aL": -2.0,
                                "TR": 1.0, "DR": 1.0, "aR": 1.0, "b": 0.0}))
    out = io.StringIO()
    cfg = cli.parse_config(["--input", str(path), "--cmd", command, "--format", "csv",
                            "--grid", "8"])
    assert cli.run(cfg, out) == 0
    assert out.getvalue().splitlines()[0] == ",".join(headers[command])


def _package_uses():
    """(module, name) for each name pwlbench/*.py imports from a pwlannulus
    module, and for each attribute it reads off a pwlannulus module it binds."""
    imported, read = set(), set()
    for path in sorted(PWLBENCH.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        modules = {}   # local name -> the pwlannulus module it is bound to
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("pwlannulus"):
                for alias in node.names:
                    imported.add((node.module, alias.name))
                    value = getattr(importlib.import_module(node.module), alias.name, None)
                    if isinstance(value, types.ModuleType):
                        modules[alias.asname or alias.name] = value.__name__
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "pwlannulus":   # a.b binds a; a.b as c, c
                        modules[alias.asname or "pwlannulus"] = (alias.name if alias.asname
                                                                 else "pwlannulus")
        read |= {(modules[node.value.id], node.attr) for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                 and node.value.id in modules}
    return imported, read


def test_every_package_name_pwlbench_reads_exists():
    imported, read = _package_uses()
    assert ("pwlannulus.cli", "COMMANDS") in imported and ("pwlannulus.cli", "FORMATS") in read
    missing = sorted(f"{module}.{name}" for module, name in imported | read
                     if not hasattr(importlib.import_module(module), name))
    assert missing == []

