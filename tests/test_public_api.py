"""The package's public surface: __all__ and the version."""

import pathlib
import re
import types

import pwlannulus

PYPROJECT = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_all_is_exactly_the_public_names():
    # a name deleted from the package cannot stay behind in __all__
    names = pwlannulus.__all__
    bound = {name for name, value in vars(pwlannulus).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert len(names) == len(set(names))
    assert set(names) == bound
    assert len(names) == 43


def test_version_matches_pyproject():
    # tomllib is not in Python 3.10, the oldest version pyproject.toml allows
    match = re.search(r'(?m)^version\s*=\s*"([^"]+)"', PYPROJECT.read_text(encoding="utf-8"))
    assert match is not None
    assert pwlannulus.__version__ == match.group(1) == "0.7.0"
