"""Every module-level name and keyword-only parameter in `src/lzl` is used
by the program itself.

A function, class or assigned name defined at the top of a `src/lzl`
module must be read somewhere in `src/lzl`, `scripts/` or `perfbench/`
(test files aside) outside the statement that defines it.  A name that
only tests read is dead code with a test attached.  A name counts as read
where it occurs as an identifier, an attribute or a string constant
(`perfbench/spans.py` looks entry points up by name); importing it is
not reading it.

Likewise every keyword-only parameter of a `src/lzl` function must be
passed by name somewhere in those files, as a keyword argument or a
string key: a keyword that only tests pass selects a code path that only
tests run.  The same holds for a keyword's value: where a function compares
a keyword-only parameter with a string, some call in those files passes
that keyword with that string.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = sorted((ROOT / "src" / "lzl").glob("*.py"))


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def tool_modules() -> list[ast.Module]:
    """The modules of `scripts/` and `perfbench/`, test files aside."""
    return [
        parse(path)
        for folder in ("scripts", "perfbench")
        for path in sorted((ROOT / folder).glob("*.py"))
        if not path.name.startswith("test_")
    ]


def used_names(node: ast.AST) -> set[str]:
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            out.add(sub.value)
    return out


def defined_names(stmt: ast.stmt) -> set[str]:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {stmt.name}
    targets = stmt.targets if isinstance(stmt, ast.Assign) else (
        [stmt.target] if isinstance(stmt, ast.AnnAssign) else []
    )
    return {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}


def test_every_src_name_has_a_program_reader():
    definitions = []  # (module, name, index of the defining statement)
    uses = []  # (module or None, statement index or None, names read)
    for path in SRC:
        for i, stmt in enumerate(parse(path).body):
            definitions.extend((path.name, name, i) for name in defined_names(stmt))
            uses.append((path.name, i, used_names(stmt)))
    uses.extend((None, None, used_names(tree)) for tree in tool_modules())
    unread = [
        f"{module}:{name}"
        for module, name, i in definitions
        if not any(name in names for m, j, names in uses if (m, j) != (module, i))
    ]
    assert definitions and not unread


def test_every_keyword_only_parameter_is_passed_by_the_program():
    keyword_only = []  # (module, function, parameter)
    passed = set()  # keyword arguments and string constants
    for path in SRC:
        for node in ast.walk(parse(path)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                keyword_only.extend((path.name, node.name, a.arg) for a in node.args.kwonlyargs)
    for tree in [parse(path) for path in SRC] + tool_modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.keyword) and node.arg is not None:
                passed.add(node.arg)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                passed.add(node.value)
    unpassed = [f"{m}:{f}(*, {arg})" for m, f, arg in keyword_only if arg not in passed]
    assert keyword_only and not unpassed


def test_every_compared_keyword_value_is_passed_by_the_program():
    # a keyword-only parameter compared with a string selects a code path by
    # that string, so some call in the program must pass the keyword with it
    compared = []  # (module, function, parameter, string)
    for path in SRC:
        for func in ast.walk(parse(path)):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            keyword_only = {a.arg for a in func.args.kwonlyargs}
            for node in ast.walk(func):
                if not (isinstance(node, ast.Compare) and len(node.ops) == 1
                        and isinstance(node.ops[0], ast.Eq)):
                    continue
                left, right = node.left, node.comparators[0]
                for name, value in ((left, right), (right, left)):
                    if (isinstance(name, ast.Name) and name.id in keyword_only
                            and isinstance(value, ast.Constant) and isinstance(value.value, str)):
                        compared.append((path.name, func.name, name.id, value.value))
    passed = {
        (node.arg, node.value.value)
        for tree in [parse(path) for path in SRC] + tool_modules()
        for node in ast.walk(tree)
        if isinstance(node, ast.keyword) and isinstance(node.value, ast.Constant)
    }
    unpassed = [f"{m}:{f}({arg}={value!r})" for m, f, arg, value in compared
                if (arg, value) not in passed]
    assert compared and not unpassed
