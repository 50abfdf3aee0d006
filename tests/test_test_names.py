"""The test modules themselves: a second top-level definition of a test
name silently replaces the first, so the first never runs."""

import ast
import collections
from pathlib import Path


def test_no_module_defines_a_test_name_twice():
    repeated = {}
    for path in sorted(Path(__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        names = collections.Counter(
            node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name.startswith("test_"))
        twice = sorted(name for name, count in names.items() if count > 1)
        if twice:
            repeated[path.name] = twice
    assert repeated == {}
