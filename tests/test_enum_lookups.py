"""The hot modules read enum members as module globals.

On Python 3.11 EnumType defines __getattr__, so every NodeKind.X,
EdgeKind.X or Relation.X lookup costs several times a global lookup. The
rewrite, verify, load and interpret paths run such tests per edge and
per rule attempt, so their modules bind the members they test as module
globals, and no function body looks one up on the class. Module-level
tables may.
"""

import ast
from pathlib import Path

import pytest

import firmfold

HOT_MODULES = ("ir", "cfgfold", "constfold", "isel", "verifier", "interp", "graphio", "arith")
ENUMS = frozenset({"NodeKind", "EdgeKind", "Relation"})


def _lookups_in_function_bodies(tree):
    """(line, "Enum.MEMBER") for each enum attribute read inside a function."""
    found = set()
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            body = fn.body
        elif isinstance(fn, ast.Lambda):
            body = [fn.body]
        else:
            continue
        for stmt in body:
            for node in ast.walk(stmt):
                if (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id in ENUMS
                ):
                    found.add((node.lineno, f"{node.value.id}.{node.attr}"))
    return sorted(found)


def test_the_walker_tells_function_bodies_from_module_level():
    source = (
        "_PHI = NodeKind.PHI\n"
        "STYLE = {EdgeKind.TRUE.value: 1}\n"
        "def f(kind=Relation.LESS):\n"
        "    return kind is NodeKind.PHI or (lambda: EdgeKind.TRUE)\n"
        "class C:\n"
        "    def m(self):\n"
        "        return Relation.EQUAL\n"
    )
    assert _lookups_in_function_bodies(ast.parse(source)) == [
        (4, "EdgeKind.TRUE"),
        (4, "NodeKind.PHI"),
        (7, "Relation.EQUAL"),
    ]


@pytest.mark.parametrize("module", HOT_MODULES)
def test_no_enum_member_lookups_in_function_bodies(module):
    path = Path(firmfold.__file__).with_name(f"{module}.py")
    found = _lookups_in_function_bodies(ast.parse(path.read_text(encoding="utf-8")))
    assert found == [], f"{module}.py reads enum members inside functions: {found}"
