"""WHERE/SET expression AST and evaluation.

Expressions are small immutable trees evaluated against a row context
(column name → value).  A WHERE is a :class:`Compare` (``=``, ``<``,
``<=``, ``>``, ``>=``) or an :class:`And` of them; its operands are
columns, ``?`` parameters and int, float or string literals.  Every
column is NOT NULL and the engine refuses a None parameter before it
plans, so logic is plain two-valued.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import MetaDBError

__all__ = [
    "Expr",
    "Literal",
    "Param",
    "ColumnRef",
    "Compare",
    "And",
    "COMPARATORS",
    "Conjuncts",
    "conjuncts_of",
]


class Expr:
    """Base expression node."""

    def eval(self, row: Dict[str, Any], params: Sequence[Any]) -> Any:
        raise NotImplementedError


@dataclass(frozen=True)
class Literal(Expr):
    """A constant (int, float or str)."""

    value: Any

    def eval(self, row, params):
        return self.value


@dataclass(frozen=True)
class Param(Expr):
    """A positional ``?`` parameter."""

    index: int

    def eval(self, row, params):
        if self.index >= len(params):
            raise MetaDBError(
                f"statement needs parameter #{self.index + 1}, "
                f"got only {len(params)}"
            )
        return params[self.index]


@dataclass(frozen=True)
class ColumnRef(Expr):
    """A column reference."""

    name: str

    def eval(self, row, params):
        try:
            return row[self.name]
        except KeyError:
            raise MetaDBError(f"unknown column {self.name!r}") from None


COMPARATORS = {
    "=": operator.eq,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}
"""The dialect's comparison operators."""


@dataclass(frozen=True)
class Compare(Expr):
    """Binary comparison."""

    op: str
    left: Expr
    right: Expr

    def eval(self, row, params):
        a = self.left.eval(row, params)
        b = self.right.eval(row, params)
        try:
            return COMPARATORS[self.op](a, b)
        except TypeError:
            raise MetaDBError(
                f"cannot compare {a!r} {self.op} {b!r}"
            ) from None


@dataclass(frozen=True)
class And(Expr):
    """A conjunction of two or more comparisons (short-circuiting); the
    parser flattens parenthesized ANDs into one node."""

    operands: Tuple[Compare, ...]

    def eval(self, row, params):
        return all(o.eval(row, params) for o in self.operands)


# ---------------------------------------------------------------------------
# Conjunct decomposition (what the planner sees)
# ---------------------------------------------------------------------------

_FLIP = {"=": "=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}


@dataclass
class Conjuncts:
    """A WHERE tree decomposed into its AND conjuncts.

    Each entry pairs a column name with a value expression (a
    :class:`Literal` or :class:`Param`); reversed comparisons
    (``? < col``) are normalized so the column is always on the left.
    ``complete`` is True iff *every* comparison was consumed — the
    conjuncts then are not merely necessary for a row to match but
    sufficient, which is what lets the engine answer a query entirely
    from an index without re-evaluating the WHERE expression.
    """

    eq: List[Tuple[str, Expr]] = field(default_factory=list)
    """``col = value`` conjuncts."""
    lower: List[Tuple[str, str, Expr]] = field(default_factory=list)
    """``(col, '>' | '>=', value)`` lower-bound conjuncts."""
    upper: List[Tuple[str, str, Expr]] = field(default_factory=list)
    """``(col, '<' | '<=', value)`` upper-bound conjuncts."""
    complete: bool = True

    @property
    def empty(self) -> bool:
        return not (self.eq or self.lower or self.upper)


def conjuncts_of(where: Optional[Expr]) -> Conjuncts:
    """Decompose a WHERE tree for the planner.

    Takes each comparison with a column ref on one side and a literal or
    parameter on the other.  Any other comparison — column to column,
    value to value — contributes no conjunct and clears ``complete``, but
    does not invalidate its AND siblings.
    """
    out = Conjuncts()
    if where is None:
        return out
    for node in where.operands if isinstance(where, And) else (where,):
        if isinstance(node.left, ColumnRef) and isinstance(
            node.right, (Literal, Param)
        ):
            col, op, value = node.left.name, node.op, node.right
        elif isinstance(node.right, ColumnRef) and isinstance(
            node.left, (Literal, Param)
        ):
            col, op, value = node.right.name, _FLIP[node.op], node.left
        else:
            out.complete = False
            continue
        if op == "=":
            out.eq.append((col, value))
        elif op in (">", ">="):
            out.lower.append((col, op, value))
        else:
            out.upper.append((col, op, value))
    return out
