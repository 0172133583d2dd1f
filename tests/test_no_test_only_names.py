"""Every module-level name in `src/lzl` is used by the program itself.

A function, class or assigned name defined at the top of a `src/lzl`
module must be read somewhere in `src/lzl`, `scripts/` or `perfbench/`
(test files aside) outside the statement that defines it.  A name that
only tests read is dead code with a test attached.  A name counts as read
where it occurs as an identifier, an attribute or a string constant
(`perfbench/spans.py` looks entry points up by name); importing it is
not reading it.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


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
    for path in sorted((ROOT / "src" / "lzl").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for i, stmt in enumerate(tree.body):
            definitions.extend((path.name, name, i) for name in defined_names(stmt))
            uses.append((path.name, i, used_names(stmt)))
    for folder in ("scripts", "perfbench"):
        for path in sorted((ROOT / folder).glob("*.py")):
            if not path.name.startswith("test_"):
                uses.append((None, None, used_names(ast.parse(path.read_text(encoding="utf-8")))))
    unread = [
        f"{module}:{name}"
        for module, name, i in definitions
        if not any(name in names for m, j, names in uses if (m, j) != (module, i))
    ]
    assert definitions and not unread
