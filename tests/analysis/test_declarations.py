"""The collective catalog is read from ``@collective`` declarations.

The decorator costs nothing at runtime (it returns the function itself),
the reader turns each declaration into a :class:`CollectiveSpec` and
fails loudly on a malformed or conflicting one, and every function under
``src/repro`` whose docstring calls it collective carries a declaration.
"""

import ast
import re
import textwrap
from pathlib import Path

import pytest

import repro
from repro.analysis.catalog import catalog, collective, read_catalog

SRC = Path(repro.__file__).parent


def _f(x):
    return x


def test_decorator_returns_the_function_itself():
    assert collective(_f) is _f
    assert collective(op="f", uniform_result=True, root="x")(_f) is _f


def test_root_resolves_to_its_position_after_self(tmp_path):
    assert catalog()["bcast"].root_arg == (1, "root")
    assert catalog()["barrier"].root_arg is None
    specs = _read(
        tmp_path,
        m="""
        class Comm:
            @collective(root="root")
            def reduce(self, obj, op, root): ...
        """,
    )
    assert specs["reduce"].root_arg == (2, "root")


def _read(tmp_path, **modules):
    for name, src in modules.items():
        (tmp_path / f"{name}.py").write_text(textwrap.dedent(src))
    return read_catalog(tmp_path)


def test_op_defaults_to_the_name_without_leading_underscore(tmp_path):
    specs = _read(
        tmp_path,
        m="""
        @collective
        def _open_cached(self, name): ...

        @collective(op="x.fence", receivers=["x"])
        def fence(comm): ...
        """,
    )
    assert specs["_open_cached"].op == "open_cached"
    assert specs["fence"].op == "x.fence"
    assert specs["fence"].receivers == ("x",)


def test_identical_double_declaration_is_one_entry(tmp_path):
    decl = """
    class A:
        @collective(uniform_result=True, receivers=("f",))
        def close(self): ...
    """
    specs = _read(tmp_path, a=decl, b=decl)
    assert list(specs) == ["close"]


def test_conflicting_double_declaration_names_both_sites(tmp_path):
    with pytest.raises(ValueError) as err:
        _read(
            tmp_path,
            a="""
            @collective(uniform_result=True)
            def sync(comm): ...
            """,
            b="""

            @collective
            def sync(comm): ...
            """,
        )
    assert f"{tmp_path / 'a.py'}:2" in str(err.value)
    assert f"{tmp_path / 'b.py'}:3" in str(err.value)


@pytest.mark.parametrize(
    "decl, complaint",
    [
        ("@collective(uniform_result=FLAG)", "uniform_result= must be a literal"),
        ('@collective(root="leader")', "root='leader' is not a parameter"),
        ('@collective(root="self")', "root='self' is not a parameter"),
        ("@collective(sync=True)", "takes only the keywords"),
        ('@collective("sync")', "takes only the keywords"),
    ],
)
def test_malformed_declaration_raises_with_file_and_line(tmp_path, decl, complaint):
    src = f"""
    class Comm:
        {decl}
        def sync(self, obj, root=0): ...
    """
    with pytest.raises(ValueError) as err:
        _read(tmp_path, m=src)
    assert str(err.value).startswith(f"{tmp_path / 'm.py'}:3: ")
    assert complaint in str(err.value)


# ---------------------------------------------------------------------------
# Drift: documented collectives are declared collectives
# ---------------------------------------------------------------------------

_SAYS_COLLECTIVE = re.compile(
    r"\ACollective(?:ly)?\b(?!-)"  # "Collective open", "Collectively read"
    r"|\bCollective(?:[.;:]|\s+over\b)"  # "... Collective.", "Collective over"
    r"|\(collective\)"
)


@pytest.mark.parametrize(
    "doc, says",
    [
        ("Collective close.", True),
        ("Collectively read a whole dataset instance.", True),
        ("Commit the flip (collective); returns the epoch.", True),
        ("Pack live chunks.  Collective over\n``host.comm``.", True),
        ("Store the metadata.  Collective.", True),
        ("Drop the lease (rank 0 only; no collective inside).", False),
        ("Collective-buffering buffer size per aggregator.", False),
        ("Exiting keeps it idle.  Collective\njobs rendezvous elsewhere.", False),
    ],
)
def test_collective_phrasing(doc, says):
    assert bool(_SAYS_COLLECTIVE.search(doc)) is says


def _declared(fn):
    for deco in fn.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if isinstance(target, ast.Name) and target.id == "collective":
            return True
    return False


def test_every_documented_collective_is_declared():
    documented, undeclared = 0, []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if _SAYS_COLLECTIVE.search(ast.get_docstring(fn) or ""):
                documented += 1
                if not _declared(fn):
                    rel = path.relative_to(SRC)
                    undeclared.append(f"{rel}:{fn.lineno} {fn.name}")
    assert undeclared == []
    assert documented > 20  # the phrasing still finds the convention
