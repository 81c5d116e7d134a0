"""The data path's five modules import one way only.

``caches`` (the rank-local chunked caches) sits under ``resolve`` (the
read path), which sits under ``host`` (the one datapath client) and
``write`` (the two write paths); ``reorganize`` (the flips that move
chunked bytes) builds on ``resolve`` and ``write``.  None of them reaches
up into the client classes or the maintenance tier that use them.  The
imports are read from each module's source with ``ast``, without
importing it.
"""

import ast
import importlib.util
from pathlib import Path

import pytest

CORE = Path(__file__).resolve().parents[2] / "src" / "repro" / "core"
LAYERS = ("caches", "host", "resolve", "write", "reorganize")

EDGES = {
    "caches": set(),
    "resolve": {"caches"},
    "host": {"caches", "resolve"},
    "write": {"resolve"},
    "reorganize": {"resolve", "write"},
}

ALL = {
    "caches": ["ChunkedCaches", "IndexBlockCache"],
    "host": ["DatapathHost"],
    "resolve": ["set_instance_view", "locate_instance", "read_instance",
                "acquire_index_blocks", "read_extents"],
    "write": ["write_canonical", "write_chunked"],
    "reorganize": ["execute_reorganize", "compact_chunked_file"],
}


def _tree(name):
    return ast.parse((CORE / f"{name}.py").read_text())


def _core_imports(name):
    """The ``repro.core`` modules one module imports."""
    out = set()
    for node in ast.walk(_tree(name)):
        if isinstance(node, ast.ImportFrom) and node.module:
            names = [node.module]
            if node.module == "repro.core":
                names = [f"repro.core.{a.name}" for a in node.names]
        elif isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        else:
            continue
        out.update(n.split(".")[2] for n in names
                   if n.startswith("repro.core."))
    return out


@pytest.mark.parametrize("name", LAYERS)
def test_imports_run_one_way(name):
    imported = _core_imports(name)
    assert imported & set(LAYERS) == EDGES[name]
    assert not imported & {"api", "catalog", "maintenance"}


@pytest.mark.parametrize("name", LAYERS)
def test_public_names_are_pinned(name):
    (value,) = [
        node.value for node in _tree(name).body
        if isinstance(node, ast.Assign)
        and [t.id for t in node.targets if isinstance(t, ast.Name)]
        == ["__all__"]
    ]
    assert ast.literal_eval(value) == ALL[name]


def test_the_old_module_is_gone():
    assert not (CORE / "datapath.py").exists()
    assert importlib.util.find_spec("repro.core.datapath") is None
