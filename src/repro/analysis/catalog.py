"""The collective entry points spmdlint knows about, declared where they
are defined.

A *collective* here is any call that every rank of a communicator must
make, in the same program order, for the program to be correct: the
``Communicator`` collectives, the ``File`` collective I/O methods, the
two-phase transport ops, and the SDM-layer functions documented
"Collective" (they contain collectives on every path, so a call site is
collective-in-shape).  Each carries its facts on its definition —
``@collective(uniform_result=True, root="root")`` on ``bcast`` — and
:func:`collective` returns the function unchanged, so a declared call
costs nothing.  :func:`catalog` reads the declarations back from the AST
of ``src/repro`` (parsed, never imported), so they cannot drift.

Calls are matched syntactically, by name, with a receiver-text guard for
names too generic to match bare (``reduce`` must be called on something
communicator-ish, ``close`` on a file or host).  One name declared twice
must carry the same facts; a conflict is an error naming both sites.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Dict, Optional, Tuple

__all__ = ["CollectiveSpec", "catalog", "collective", "match_call",
           "read_catalog", "receiver_text"]


@dataclass(frozen=True)
class CollectiveSpec:
    """Static facts about one collective entry point."""

    op: str
    """Canonical op label (what findings and signatures report)."""

    uniform_result: bool = False
    """True when the call returns the same value on every rank (bcast,
    allreduce, allgather, barrier, and the bcast-fronted SDM helpers) —
    assignment from such a call *launders* rank taint."""

    root_arg: Optional[Tuple[int, str]] = None
    """(positional index, keyword name) of the root rank, if any."""

    uniform_shape: bool = False
    """True when all ranks must contribute payloads of identical
    dtype/count (the reduce family); the runtime verifier enforces it."""

    receivers: Optional[Tuple[str, ...]] = None
    """Receiver-text guard for generic names: ``"comm"`` matches a
    receiver named exactly ``comm`` or ending in ``.comm``; an exact
    string such as ``"File"`` matches literally.  None accepts any
    receiver (including bare-name calls)."""


def collective(fn=None, *, op=None, uniform_result=False, root=None,
               uniform_shape=False, receivers=None):
    """Declare a collective: bare, or with :class:`CollectiveSpec`'s facts
    as literal keywords (``op`` defaults to the function name without a
    leading underscore; ``root`` names the root parameter).  Returns the
    function unchanged."""
    return (lambda f: f) if fn is None else fn


_FACTS = ("op", "uniform_result", "root", "uniform_shape", "receivers")


@lru_cache(maxsize=None)
def catalog() -> Dict[str, CollectiveSpec]:
    """Every collective declared under ``src/repro``, by name."""
    return read_catalog(Path(__file__).resolve().parents[1])


def read_catalog(root) -> Dict[str, CollectiveSpec]:
    """The ``@collective`` declarations of the modules under ``root``, by
    function name; a malformed or conflicting one raises ``ValueError``
    naming its ``file:line``."""
    specs: Dict[str, CollectiveSpec] = {}
    sites: Dict[str, str] = {}
    for path in sorted(Path(root).rglob("*.py")):
        source = path.read_text(encoding="utf-8")
        if "@collective" not in source:
            continue
        tree = ast.parse(source, str(path))
        methods = {id(n) for c in ast.walk(tree)
                   if isinstance(c, ast.ClassDef) for n in c.body}
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for deco in fn.decorator_list:
                if getattr(getattr(deco, "func", deco), "id", None) != "collective":
                    continue
                where = f"{path}:{deco.lineno}"
                spec = _spec(fn, deco, id(fn) in methods, where)
                if specs.setdefault(fn.name, spec) != spec:
                    raise ValueError(f"{where}: {fn.name!r} declared with "
                                     f"facts that differ from {sites[fn.name]}")
                sites.setdefault(fn.name, where)
    return specs


def _spec(fn, deco, method: bool, where: str) -> CollectiveSpec:
    """One declaration's facts (a method's ``self``/``cls`` is not a
    position ``root`` can name)."""
    keywords = getattr(deco, "keywords", [])
    if getattr(deco, "args", []) or any(k.arg not in _FACTS for k in keywords):
        raise ValueError(f"{where}: @collective takes only the keywords {_FACTS}")
    facts = {}
    for kw in keywords:
        try:
            facts[kw.arg] = ast.literal_eval(kw.value)
        except (TypeError, ValueError):
            raise ValueError(f"{where}: {kw.arg}= must be a literal") from None
    root = facts.pop("root", None)
    if root is not None:
        params = [a.arg for a in fn.args.posonlyargs + fn.args.args][method:]
        if root not in params:
            raise ValueError(f"{where}: root={root!r} is not a parameter of {fn.name}")
        facts["root_arg"] = (params.index(root), root)
    if facts.get("receivers") is not None:
        facts["receivers"] = tuple(facts["receivers"])
    return CollectiveSpec(facts.pop("op", None) or fn.name.removeprefix("_"), **facts)


def receiver_text(call: ast.Call) -> str:
    """Source text of the receiver (empty for bare-name calls)."""
    func = call.func
    return ast.unparse(func.value) if isinstance(func, ast.Attribute) else ""


def match_call(call: ast.Call) -> Optional[CollectiveSpec]:
    """The declared collective a call matches, or None (a receiver-guarded
    name matches only the receivers its declaration allows)."""
    func = call.func
    spec = catalog().get(getattr(func, "attr", getattr(func, "id", None)))
    if spec is None or spec.receivers is None:
        return spec
    recv = receiver_text(call)
    if any(recv == g or recv.endswith("." + g) for g in spec.receivers):
        return spec
    return None
