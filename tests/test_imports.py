"""Import hygiene: no module of the package (its ``__init__`` aside, which
re-exports) and no module of the tests imports a name it never reads.  An
import on a line marked ``# noqa: F401`` is kept on purpose."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted([p for p in (ROOT / "src" / "suborbit").glob("*.py")
                  if p.name != "__init__.py"] + list((ROOT / "tests").glob("*.py")))


def unused_imports(source: str) -> list:
    """``(line, name)`` of each name ``source`` imports and never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if (not isinstance(node, (ast.Import, ast.ImportFrom))
                or getattr(node, "module", None) == "__future__"):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in read and "# noqa: F401" not in lines[alias.lineno - 1]:
                unused.append((alias.lineno, name))
    return unused


def test_unused_imports_finds_exactly_the_unread_names():
    source = ("from __future__ import annotations\n"
              "import json, os.path\n"
              "from a import (b, c,  # noqa: F401\n"
              "               d)\n"
              "import numpy as np\n"
              "x: b = np.zeros(os.sep)\n")
    assert unused_imports(source) == [(2, "json"), (4, "d")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_module_reads_every_name_it_imports(path):
    assert unused_imports(path.read_text()) == []
