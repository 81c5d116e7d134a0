"""Rank-dependence taint: which values (and branches) differ across ranks.

The pass is a single flow-sensitive forward walk over one function body.
Taint *sources* are the syntactic spellings of "my rank": an attribute
access ``<x>.rank`` / ``<x>._rank``, a bare name ``rank`` (SPMD functions
here pass the rank around under that name), and ``Get_rank()`` calls.
Taint propagates through assignment; it is *laundered* by assignment from
a uniform-result collective (``x = comm.bcast(x, root=0)`` makes ``x``
identical on every rank, however rank-dependent it was before — exactly
the rank-0-computes-then-broadcasts idiom this codebase uses everywhere).
Names assigned under a rank-dependent branch are tainted too (implicit
flow: ``flag`` in ``if comm.rank == 0: flag = True`` differs across
ranks), and per-rank collectives (gather, exscan) taint their results.

The pass records, for every ``if``/``while``/``for`` it sees, whether the
controlling expression was rank-dependent at that point — the facts the
rule checkers in :mod:`repro.analysis.rules` consume.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Set

from repro.analysis.catalog import match_call

__all__ = ["TaintPass", "RANK_ATTRS", "RANK_NAMES"]

RANK_ATTRS = {"rank", "_rank"}
"""Attribute names that read this rank's identity (``comm.rank``,
``ctx.rank``, ``self._rank``)."""

RANK_NAMES = {"rank", "my_rank", "myid"}
"""Bare names conventionally holding this rank's identity."""


class TaintPass:
    """One function's rank-taint facts (run :meth:`run` once)."""

    def __init__(self) -> None:
        self.tainted: Set[str] = set()
        self.static_len: Set[str] = set()
        """Names currently bound to a list/tuple *literal*: their length
        — hence a loop's trip count — is rank-independent even when the
        elements are rank-dependent data."""
        self.rank_dep: Dict[ast.AST, bool] = {}
        """Control statements (If/While/For) -> was the controlling
        expression rank-dependent when execution reached it."""

    # ------------------------------------------------------------------
    # Expression taint
    # ------------------------------------------------------------------

    def expr_tainted(self, node: ast.AST) -> bool:
        """Does evaluating this expression yield a rank-dependent value?"""
        if isinstance(node, ast.Call):
            spec = match_call(node)
            if spec is not None:
                if spec.uniform_result:
                    # The collective's result is identical on all ranks,
                    # whatever its arguments were: taint is laundered.
                    return False
                # Per-rank collective results (gather, exscan, ...)
                # are rank-dependent by construction.
                return True
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr == "Get_rank"
            ):
                return True
            return any(
                self.expr_tainted(c) for c in ast.iter_child_nodes(node)
            )
        if isinstance(node, ast.Attribute) and node.attr in RANK_ATTRS:
            return True
        if isinstance(node, ast.Name):
            return node.id in RANK_NAMES or node.id in self.tainted
        return any(self.expr_tainted(c) for c in ast.iter_child_nodes(node))

    # ------------------------------------------------------------------
    # Statement walk
    # ------------------------------------------------------------------

    def run(self, fn: ast.AST) -> "TaintPass":
        """Analyze one function (or a module treated as one body)."""
        args = getattr(fn, "args", None)
        if args is not None:
            for a in (
                list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
            ):
                if a.arg in RANK_NAMES:
                    self.tainted.add(a.arg)
        self._block(fn.body, implicit=False)
        return self

    def _assign_names(self, target: ast.AST, out: List[str]) -> None:
        if isinstance(target, ast.Name):
            out.append(target.id)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._assign_names(elt, out)
        elif isinstance(target, ast.Starred):
            self._assign_names(target.value, out)
        # Attribute/Subscript targets are not tracked (no object model).

    def _bind(self, targets: List[ast.AST], value_tainted: bool, implicit: bool) -> None:
        names: List[str] = []
        for t in targets:
            self._assign_names(t, names)
        for name in names:
            self.static_len.discard(name)
            if value_tainted or implicit:
                self.tainted.add(name)
            elif name not in RANK_NAMES:
                # A clean unconditional reassignment launders the name.
                self.tainted.discard(name)

    def _block(self, stmts: List[ast.stmt], implicit: bool) -> None:
        for s in stmts:
            if isinstance(s, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                value = s.value
                if value is None:  # bare annotation
                    continue
                if (
                    isinstance(s, ast.Assign)
                    and len(s.targets) == 1
                    and isinstance(s.targets[0], (ast.Tuple, ast.List))
                    and isinstance(value, (ast.Tuple, ast.List))
                    and len(s.targets[0].elts) == len(value.elts)
                    and not any(
                        isinstance(e, ast.Starred) for e in s.targets[0].elts
                    )
                ):
                    # ``rank, size = ctx.rank, ctx.size`` — match
                    # elementwise so the clean elements stay clean.
                    for tgt, val in zip(s.targets[0].elts, value.elts):
                        self._bind([tgt], self.expr_tainted(val), implicit)
                    continue
                vt = self.expr_tainted(value)
                if isinstance(s, ast.Assign):
                    self._bind(list(s.targets), vt, implicit)
                    if (
                        not implicit
                        and len(s.targets) == 1
                        and isinstance(s.targets[0], ast.Name)
                        and isinstance(value, (ast.List, ast.Tuple))
                    ):
                        self.static_len.add(s.targets[0].id)
                elif isinstance(s, ast.AnnAssign):
                    self._bind([s.target], vt, implicit)
                else:  # AugAssign: old value feeds the new one
                    old = self.expr_tainted(s.target)
                    self._bind([s.target], vt or old, implicit)
            elif isinstance(s, ast.If):
                dep = self.expr_tainted(s.test)
                self.rank_dep[s] = dep
                self._block(s.body, implicit or dep)
                self._block(s.orelse, implicit or dep)
            elif isinstance(s, ast.While):
                dep = self.expr_tainted(s.test)
                self.rank_dep[s] = dep
                self._block(s.body, implicit or dep)
                self._block(s.orelse, implicit)
            elif isinstance(s, (ast.For, ast.AsyncFor)):
                if isinstance(s.iter, (ast.List, ast.Tuple)):
                    # Literal sequence: the *trip count* is static even
                    # if the elements are rank-dependent data.
                    dep = False
                    elt_taint = any(
                        self.expr_tainted(e) for e in s.iter.elts
                    )
                elif (
                    isinstance(s.iter, ast.Name)
                    and s.iter.id in self.static_len
                ):
                    dep = False
                    elt_taint = s.iter.id in self.tainted
                else:
                    dep = self.expr_tainted(s.iter)
                    elt_taint = dep
                self.rank_dep[s] = dep
                self._bind([s.target], elt_taint, implicit)
                self._block(s.body, implicit or dep)
                self._block(s.orelse, implicit)
            elif isinstance(s, (ast.With, ast.AsyncWith)):
                for item in s.items:
                    if item.optional_vars is not None:
                        self._bind(
                            [item.optional_vars],
                            self.expr_tainted(item.context_expr),
                            implicit,
                        )
                self._block(s.body, implicit)
            elif isinstance(s, ast.Try):
                self._block(s.body, implicit)
                for h in s.handlers:
                    self._block(h.body, implicit)
                self._block(s.orelse, implicit)
                self._block(s.finalbody, implicit)
            elif isinstance(s, ast.Match):
                subj = self.expr_tainted(s.subject)
                for case in s.cases:
                    self._block(case.body, implicit or subj)
            # Nested function/class definitions are analyzed separately
            # (taint does not cross function boundaries); other statements
            # (Expr, Return, Raise, Pass, ...) neither bind nor branch.
