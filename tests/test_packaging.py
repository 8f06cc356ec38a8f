"""The packaging metadata agrees with the code and with the CI matrix.
CI imports the package from src/ through PYTHONPATH, so nothing else
reads pyproject.toml."""

import re
from importlib import import_module
from pathlib import Path

import pytest

from counternet import cli

tomllib = pytest.importorskip("tomllib")  # in the standard library from 3.11

ROOT = Path(__file__).resolve().parent.parent


def _project():
    return tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]


def _version(text):
    return tuple(int(x) for x in text.split("."))


def test_console_script_resolves_to_cli_main():
    module, _, attr = _project()["scripts"]["counternet"].partition(":")
    assert getattr(import_module(module), attr) is cli.main


def test_ci_matrix_starts_at_requires_python_floor():
    floor = re.fullmatch(r">=\s*([\d.]+)", _project()["requires-python"]).group(1)
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
    matrix = re.search(r"python-version:\s*\[([^\]]*)\]", workflow).group(1)
    versions = [v.strip().strip("'\"") for v in matrix.split(",")]
    assert min(versions, key=_version) == floor
