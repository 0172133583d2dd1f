"""Each way a command can end has one exception type.

`UsageError` is exit 2 and `SizeCapError` is exit 3, the only two classes
`src/lzl/errors.py` defines.  An engine fault raises `AssertionError`,
which the command line does not catch.  `ValueError` and
`NotImplementedError` guard a Python caller's arguments and abstract
methods, and `AttributeError` is how `Graph` refuses an assignment.  No
other exception type is raised anywhere in `src/lzl`.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "lzl"
SRC = sorted(PACKAGE.glob("*.py"))

ALLOWED = {"UsageError", "SizeCapError", "AssertionError", "ValueError",
           "NotImplementedError", "AttributeError"}


def raised_name(node: ast.Raise) -> str | None:
    """The class a ``raise`` statement names, or None for a bare re-raise."""
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return exc.id if isinstance(exc, ast.Name) else None


def test_every_raise_names_an_allowed_type():
    raises = [
        (path.name, node.lineno, raised_name(node))
        for path in SRC
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Raise)
    ]
    assert raises and [r for r in raises if r[2] not in ALLOWED] == []


def test_errors_defines_one_class_per_exit_code():
    tree = ast.parse((PACKAGE / "errors.py").read_text(encoding="utf-8"))
    classes = [node.name for node in tree.body if isinstance(node, ast.ClassDef)]
    assert sorted(classes) == ["SizeCapError", "UsageError"]

