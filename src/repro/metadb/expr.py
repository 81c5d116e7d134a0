"""WHERE expression AST.

A WHERE is an :class:`And` of one or more :class:`Compare` terms, each
``column op value`` with ``op`` one of ``=``, ``<``, ``<=``, ``>``,
``>=``; a *value* — in WHERE, SET or VALUES — is a ``?``
(:class:`Param`) or an int, float or string :class:`Literal`.  Every
column is NOT NULL and the engine refuses a None parameter before it
plans, so logic is plain two-valued.

The engine resolves the columns once per plan, types the values once
per execution and then only compares row positions with them.
``Compare.eval`` / ``And.eval`` against a row context (column name →
value) are the reference walk the tests and
``benchmarks/perfcheck_metadb.py`` hold that verifier to; the engine
calls ``eval`` only on an INSERT's values.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Any, List, Optional, Tuple

from repro.errors import MetaDBError

__all__ = [
    "Expr",
    "Literal",
    "Param",
    "Compare",
    "And",
    "COMPARATORS",
    "Conjuncts",
    "conjuncts_of",
]


class Expr:
    """Base expression node; every node has ``eval(row, params)``."""


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
    """``column op value``."""

    op: str
    column: str
    value: Expr

    def eval(self, row, params):
        return COMPARATORS[self.op](row[self.column],
                                    self.value.eval(row, params))


@dataclass(frozen=True)
class And(Expr):
    """A WHERE: its comparisons, all of which must hold."""

    operands: Tuple[Compare, ...]

    def eval(self, row, params):
        return all(o.eval(row, params) for o in self.operands)


# ---------------------------------------------------------------------------
# Conjunct decomposition (what the planner sees)
# ---------------------------------------------------------------------------

@dataclass
class Conjuncts:
    """A WHERE split by operator: each entry pairs a column name with its
    value (a :class:`Literal` or :class:`Param`), in WHERE order."""

    eq: List[Tuple[str, Expr]] = field(default_factory=list)
    """``col = value`` conjuncts."""
    lower: List[Tuple[str, str, Expr]] = field(default_factory=list)
    """``(col, '>' | '>=', value)`` lower-bound conjuncts."""
    upper: List[Tuple[str, str, Expr]] = field(default_factory=list)
    """``(col, '<' | '<=', value)`` upper-bound conjuncts."""


def conjuncts_of(where: Optional[And]) -> Conjuncts:
    """Decompose a WHERE for the planner."""
    out = Conjuncts()
    for c in where.operands if where is not None else ():
        if c.op == "=":
            out.eq.append((c.column, c.value))
        elif c.op in (">", ">="):
            out.lower.append((c.column, c.op, c.value))
        else:
            out.upper.append((c.column, c.op, c.value))
    return out
