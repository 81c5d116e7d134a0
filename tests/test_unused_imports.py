"""No module under ``src/repro`` imports a name it never uses.

An AST scan, in seconds, of what ``make lint`` (spmdlint) does not look
at.  A name a module imports counts as used when the module reads it
anywhere — code, annotations, decorators, string annotations — or
lists it in ``__all__``.  Every import of an ``__init__.py`` is a
re-export, and ``from __future__`` imports are directives, so neither
is checked.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


def _bound_names(tree):
    """``(name, line)`` for each name an import at any depth binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0]), node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name, node.lineno


def _used_names(tree):
    """Every name the module reads, ``__all__`` entries included."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # a string annotation such as ``"Process"`` or ``"List[int]"``
            try:
                expr = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used.update(n.id for n in ast.walk(expr) if isinstance(n, ast.Name))
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return used


def unused_imports(path):
    """``(line, name)`` of each import ``path`` binds and never reads."""
    if path.name == "__init__.py":
        return []
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used_names(tree)
    return sorted((line, name) for name, line in _bound_names(tree)
                  if name not in used)


def test_no_module_imports_a_name_it_never_uses():
    found = {
        str(path.relative_to(SRC)): unused
        for path in sorted(SRC.rglob("*.py"))
        if (unused := unused_imports(path))
    }
    assert found == {}


def test_the_scan_sees_what_it_must(tmp_path):
    """An unused import is found; a use in an annotation, a string
    annotation, ``__all__`` or an ``__init__.py`` is not one."""
    mod = tmp_path / "mod.py"
    mod.write_text(
        "from __future__ import annotations\n"
        "import os\n"
        "import numpy as np\n"
        "from typing import Dict, List, Tuple\n"
        "from x import helper, exported\n"
        "__all__ = ['exported']\n"
        "def f(a: Dict) -> 'List[int]':\n"
        "    return helper(a)\n"
    )
    assert unused_imports(mod) == [(2, "os"), (3, "np"), (4, "Tuple")]
    init = tmp_path / "__init__.py"
    init.write_text("from x import reexported\n")
    assert unused_imports(init) == []
