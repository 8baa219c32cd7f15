"""What the benchmark in pwlbench/ relies on of the package.

The names pwlbench/tracing.py wraps and the csv headers pwlbench/workloads.py
checks are read from their source with ast.literal_eval, so pwlbench is
neither imported nor changed here.
"""

import ast
import importlib
import io
import json
import pathlib

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
