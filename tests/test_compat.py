"""Every module of the package parses with the grammar of the oldest
Python that ``pyproject.toml`` supports (``requires-python = ">=3.10"``)."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).parent.parent / "src" / "testlens"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_parses_as_python_3_10(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
