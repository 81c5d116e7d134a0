"""The lint rules: where collective sequences can diverge across ranks.

All four rules reduce to one question — *can some ranks reach this
collective while others do not (or reach it with different arguments)?*
The taint pass answers "is this branch/loop/receiver rank-dependent";
the rules turn those facts into findings:

``rank-branch`` (SPMD001)
    A rank-dependent ``if`` whose arms issue *different* collective
    sequences: ranks taking one path enter a collective the others never
    match.  Arms with identical op sequences are fine (both paths
    rendezvous the same way).

``rank-loop`` (SPMD002)
    A collective inside a loop whose trip count is rank-dependent:
    ranks iterate different numbers of times, so the i-th iteration's
    collective has no peer on some rank.

``early-exit`` (SPMD003)
    A ``return``/``raise`` guarded by a rank-dependent condition, with
    collectives later in the function: the exiting rank abandons its
    peers mid-sequence.  Only fires when exactly one arm exits — if both
    arms exit, every rank leaves and no later collective is reached.

``comm-mismatch`` (SPMD004)
    The two arms of a rank-dependent branch issue the *same* op sequence
    on *different* communicators, or a collective's receiver/root
    expression is itself rank-dependent (``comms[rank].bcast``,
    ``bcast(x, root=rank)``): ranks rendezvous on different contexts or
    disagree on the root.

Inter-procedural divergence (a rank-guarded call to an undeclared helper
that contains collectives) is out of scope for the static pass — the
runtime sanitizer (``SPMD_VERIFY=1``) covers it.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Tuple

from repro.analysis.catalog import CollectiveSpec, match_call, receiver_text
from repro.analysis.findings import Finding
from repro.analysis.taint import TaintPass

__all__ = ["RULES", "check_module"]

RULES: Dict[str, Tuple[str, str]] = {
    "rank-branch": (
        "SPMD001",
        "collective under a rank-dependent branch without a matching "
        "call on every path",
    ),
    "rank-loop": (
        "SPMD002",
        "collective inside a loop whose trip count is rank-dependent",
    ),
    "early-exit": (
        "SPMD003",
        "rank-dependent early return/raise skips a later collective",
    ),
    "comm-mismatch": (
        "SPMD004",
        "collective on a rank-dependent communicator or root",
    ),
    "bad-suppression": (
        "SPMD005",
        "spmdlint suppression without a justification",
    ),
}

_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


# ----------------------------------------------------------------------
# Scope-bounded AST walking (never cross into nested def/class bodies —
# those are separate SPMD scopes analyzed on their own)
# ----------------------------------------------------------------------


def _stmts_under(stmts: List[ast.stmt]) -> Iterator[ast.stmt]:
    """Every statement under these, excluding nested function/class bodies."""
    for s in stmts:
        if isinstance(s, _SCOPES):
            continue
        yield s
        for name in ("body", "orelse", "finalbody"):
            blk = getattr(s, name, None)
            if blk:
                yield from _stmts_under(blk)
        for h in getattr(s, "handlers", None) or []:
            yield from _stmts_under(h.body)
        for case in getattr(s, "cases", None) or []:
            yield from _stmts_under(case.body)


class _CallCollector(ast.NodeVisitor):
    def __init__(self) -> None:
        self.calls: List[Tuple[ast.Call, CollectiveSpec]] = []

    def visit_Call(self, node: ast.Call) -> None:
        spec = match_call(node)
        if spec is not None:
            self.calls.append((node, spec))
        self.generic_visit(node)

    def _skip(self, node: ast.AST) -> None:
        pass

    visit_FunctionDef = _skip
    visit_AsyncFunctionDef = _skip
    visit_ClassDef = _skip
    visit_Lambda = _skip


def _calls_in(stmts: List[ast.stmt]) -> List[Tuple[ast.Call, CollectiveSpec]]:
    """Catalogued collective calls under these statements, in source order."""
    c = _CallCollector()
    for s in stmts:
        if not isinstance(s, _SCOPES):
            c.visit(s)
    c.calls.sort(key=lambda t: (t[0].lineno, t[0].col_offset))
    return c.calls


def _first_exit(stmts: List[ast.stmt]) -> Optional[ast.stmt]:
    for s in _stmts_under(stmts):
        if isinstance(s, (ast.Return, ast.Raise)):
            return s
    return None


def _following_calls(
    body: List[ast.stmt],
) -> Dict[int, List[Tuple[ast.Call, CollectiveSpec]]]:
    """For each statement (by id), the collective calls on its
    *continuation* — everything after it in its own block plus the
    continuations of all enclosing blocks.  This is what a rank exiting
    early actually skips; a call in a sibling arm of the same ``if`` is
    NOT on the continuation (only one arm ever runs)."""
    mapping: Dict[int, List[Tuple[ast.Call, CollectiveSpec]]] = {}

    def walk(
        stmts: List[ast.stmt],
        after: List[Tuple[ast.Call, CollectiveSpec]],
    ) -> None:
        for i, s in enumerate(stmts):
            cont = _calls_in(stmts[i + 1:]) + after
            mapping[id(s)] = cont
            if isinstance(s, _SCOPES):
                continue
            for name in ("body", "orelse", "finalbody"):
                blk = getattr(s, name, None)
                if blk:
                    walk(blk, cont)
            for h in getattr(s, "handlers", None) or []:
                walk(h.body, cont)
            for case in getattr(s, "cases", None) or []:
                walk(case.body, cont)

    walk(body, [])
    return mapping


def _root_expr(call: ast.Call, spec: CollectiveSpec) -> Optional[ast.expr]:
    if spec.root_arg is None:
        return None
    idx, kw = spec.root_arg
    for k in call.keywords:
        if k.arg == kw:
            return k.value
    if len(call.args) > idx:
        return call.args[idx]
    return None


# ----------------------------------------------------------------------
# Per-scope checking
# ----------------------------------------------------------------------


def _finding(
    rule: str,
    path: str,
    func: str,
    line: int,
    stmt_line: int,
    op: str,
    message: str,
) -> Finding:
    return Finding(
        rule=rule,
        code=RULES[rule][0],
        path=path,
        line=line,
        stmt_line=stmt_line,
        func=func,
        op=op,
        message=message,
    )


def _check_scope(node: ast.AST, func: str, path: str) -> List[Finding]:
    taint = TaintPass().run(node)
    body: List[ast.stmt] = node.body  # type: ignore[attr-defined]
    all_calls = _calls_in(body)
    following = _following_calls(body)
    findings: List[Finding] = []

    for stmt in _stmts_under(body):
        if not taint.rank_dep.get(stmt, False):
            continue

        if isinstance(stmt, ast.If):
            body_calls = _calls_in(stmt.body)
            else_calls = _calls_in(stmt.orelse)
            body_ops = [s.op for _, s in body_calls]
            else_ops = [s.op for _, s in else_calls]
            if body_ops != else_ops:
                # First position where the arm sequences disagree.
                i = 0
                while (
                    i < len(body_ops)
                    and i < len(else_ops)
                    and body_ops[i] == else_ops[i]
                ):
                    i += 1
                call, spec = (body_calls if i < len(body_ops) else else_calls)[i]
                other = "no collective" if not (else_ops if i < len(body_ops) else body_ops)[i:] else "a different sequence"
                findings.append(
                    _finding(
                        "rank-branch",
                        path,
                        func,
                        call.lineno,
                        stmt.lineno,
                        spec.op,
                        f"`{spec.op}` is reached only under the "
                        f"rank-dependent branch at line {stmt.lineno} "
                        f"(the other path issues {other}); ranks taking "
                        f"the other path never match it",
                    )
                )
            elif body_ops:
                # Same op sequence on both arms — but is it the same
                # communicator?  comm.bcast vs other.bcast rendezvous on
                # different contexts and both sides hang.
                for (bc, bs), (ec, _es) in zip(body_calls, else_calls):
                    if receiver_text(bc) != receiver_text(ec):
                        findings.append(
                            _finding(
                                "comm-mismatch",
                                path,
                                func,
                                bc.lineno,
                                stmt.lineno,
                                bs.op,
                                f"both arms of the rank-dependent branch "
                                f"at line {stmt.lineno} call `{bs.op}`, "
                                f"but on different communicators "
                                f"(`{receiver_text(bc)}` vs "
                                f"`{receiver_text(ec)}`)",
                            )
                        )
            # Early exit: one arm leaves the function, the other stays,
            # and collectives follow the branch.
            body_exit = _first_exit(stmt.body)
            else_exit = _first_exit(stmt.orelse)
            if (body_exit is None) != (else_exit is None):
                exit_stmt = body_exit or else_exit
                later = following.get(id(stmt), [])
                if later:
                    nxt_call, nxt_spec = later[0]
                    kind = (
                        "return"
                        if isinstance(exit_stmt, ast.Return)
                        else "raise"
                    )
                    findings.append(
                        _finding(
                            "early-exit",
                            path,
                            func,
                            exit_stmt.lineno,
                            stmt.lineno,
                            nxt_spec.op,
                            f"rank-dependent `{kind}` exits before the "
                            f"`{nxt_spec.op}` at line {nxt_call.lineno}; "
                            f"remaining ranks wait there forever",
                        )
                    )

        elif isinstance(stmt, (ast.While, ast.For, ast.AsyncFor)):
            what = (
                "condition" if isinstance(stmt, ast.While) else "iterable"
            )
            for call, spec in _calls_in(stmt.body):
                findings.append(
                    _finding(
                        "rank-loop",
                        path,
                        func,
                        call.lineno,
                        stmt.lineno,
                        spec.op,
                        f"`{spec.op}` inside the loop at line "
                        f"{stmt.lineno} whose {what} is rank-dependent; "
                        f"ranks run different iteration counts and the "
                        f"extra iterations' collectives have no peer",
                    )
                )

    # Rank-dependent communicator / root on any call in the scope.
    for call, spec in all_calls:
        recv = (
            call.func.value if isinstance(call.func, ast.Attribute) else None
        )
        if recv is not None and taint.expr_tainted(recv):
            findings.append(
                _finding(
                    "comm-mismatch",
                    path,
                    func,
                    call.lineno,
                    call.lineno,
                    spec.op,
                    f"`{spec.op}` is called on a rank-dependent "
                    f"communicator expression `{receiver_text(call)}`; "
                    f"ranks rendezvous on different contexts",
                )
            )
        root = _root_expr(call, spec)
        if root is not None and taint.expr_tainted(root):
            findings.append(
                _finding(
                    "comm-mismatch",
                    path,
                    func,
                    call.lineno,
                    call.lineno,
                    spec.op,
                    f"`{spec.op}` root argument "
                    f"`{ast.unparse(root)}` is rank-dependent; ranks "
                    f"disagree on who the root is",
                )
            )

    return findings


def check_module(tree: ast.Module, path: str) -> List[Finding]:
    """All findings in one parsed module (before suppression/baseline)."""
    findings = _check_scope(tree, "<module>", path)
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            findings.extend(_check_scope(node, node.name, path))
    seen = set()
    out: List[Finding] = []
    for f in sorted(findings, key=lambda f: (f.line, f.code, f.op)):
        key = (f.rule, f.line, f.op)
        if key not in seen:
            seen.add(key)
            out.append(f)
    return out
