"""Tokenizer and recursive-descent parser for the mini-SQL dialect.

The dialect is the statements SDM issues, nothing more (keywords
case-insensitive, identifiers preserved):

.. code-block:: sql

    CREATE TABLE [IF NOT EXISTS] t (col TYPE, ...)
    INSERT INTO t VALUES (operand, ...)
    SELECT * | col, ... | COUNT(*) | MAX(col) | SUM(col)
        FROM t [WHERE cond] [ORDER BY col [ASC|DESC], ...] [LIMIT n]
    UPDATE t SET col = operand, ... [WHERE cond]
    DELETE FROM t [WHERE cond]

A ``cond`` is comparisons (``=``, ``<``, ``<=``, ``>``, ``>=``) joined by
AND, with parentheses; an operand is a column, a ``?`` parameter or an
int, float or 'string' literal.  Column types are INTEGER, REAL and TEXT,
and every column is NOT NULL, so ``NULL`` is a reserved word no rule
accepts.  Anything else — OR, NOT, BETWEEN, IS NULL, ``!=``, MIN,
``COUNT(col)``, an INSERT column list, DROP TABLE — is a
:class:`~repro.errors.SQLSyntaxError`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from typing import List, Optional, Tuple

from repro.errors import SQLSyntaxError
from repro.metadb.expr import (
    COMPARATORS,
    And,
    ColumnRef,
    Compare,
    Conjuncts,
    Expr,
    Literal,
    Param,
    conjuncts_of,
)
from repro.metadb.types import ColumnType, type_by_name

__all__ = [
    "parse",
    "CreateTable",
    "Insert",
    "Select",
    "Update",
    "Delete",
]

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<float>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+[eE][+-]?\d+)
  | (?P<int>\d+)
  | (?P<string>'(?:[^']|'')*')
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op><=|>=|=|<|>|\(|\)|,|\?|\*)
    """,
    re.VERBOSE,
)

_KEYWORDS = {
    "CREATE", "TABLE", "IF", "NOT", "EXISTS", "INSERT", "INTO", "VALUES",
    "SELECT", "FROM", "WHERE", "ORDER", "BY", "ASC", "DESC", "LIMIT",
    "UPDATE", "SET", "DELETE", "AND", "COUNT", "MAX", "SUM", "NULL",
}


@dataclass(frozen=True)
class _Token:
    kind: str  # "int" | "float" | "string" | "ident" | "keyword" | "op"
    text: str


def _tokenize(sql: str) -> List[_Token]:
    tokens: List[_Token] = []
    pos = 0
    while pos < len(sql):
        m = _TOKEN_RE.match(sql, pos)
        if m is None:
            raise SQLSyntaxError(f"bad character {sql[pos]!r} at position {pos}")
        pos = m.end()
        kind = m.lastgroup
        if kind == "ws":
            continue
        text = m.group()
        if kind == "ident" and text.upper() in _KEYWORDS:
            tokens.append(_Token("keyword", text.upper()))
        else:
            tokens.append(_Token(kind, text))
    return tokens


# ---------------------------------------------------------------------------
# Statement ASTs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CreateTable:
    name: str
    columns: Tuple[Tuple[str, ColumnType], ...]
    if_not_exists: bool = False


@dataclass(frozen=True)
class Insert:
    table: str
    values: Tuple[Expr, ...]

    @cached_property
    def width(self) -> int:
        """n when the VALUES are exactly ``?1..?n``, so that a parameter
        row of that length is the row; -1 otherwise."""
        direct = self.values == tuple(map(Param, range(len(self.values))))
        return len(self.values) if direct else -1


class _Filtered:
    """The statements that carry a WHERE (SELECT / UPDATE / DELETE)."""

    covered: Tuple[Tuple[str, ...], bool] = ((), True)
    """See :attr:`Select.covered`: no UPDATE or DELETE is answered from
    an index alone."""

    @cached_property
    def conjuncts(self) -> Conjuncts:
        """The planner's decomposition of ``where``.  It depends on the
        AST alone — not on parameters, tables or indexes — so it is worked
        out once per parsed statement and lives and dies with it in the
        ``prepare`` caches, shared by every database that runs the text."""
        return conjuncts_of(self.where)


@dataclass(frozen=True)
class Select(_Filtered):
    table: str
    columns: Optional[Tuple[str, ...]]  # None means '*'
    aggregate: Optional[Tuple[str, Optional[str]]] = None  # (fn, col-or-None)
    where: Optional[Expr] = None
    order_by: Tuple[Tuple[str, bool], ...] = ()  # (col, descending)
    limit: Optional[int] = None

    @cached_property
    def covered(self) -> Tuple[Tuple[str, ...], bool]:
        """``(tail, whole)``: the columns an index must hold right after
        the WHERE's equality columns (in any order) to answer this SELECT
        outright, and whether nothing may follow them; ``()`` when no
        index can.  ``MAX(col)`` without ORDER BY or LIMIT takes
        ``(col,)``; an ORDER BY in one direction takes its columns and
        nothing after them (trailing index columns would break key ties
        where the scan breaks them by rowid).  The WHERE must decompose
        completely into at most one equality conjunct per column plus at
        most one lower and one upper bound on ``tail[0]``: the slice then
        holds exactly the matching rows, tail-ordered with the key and
        rowid tie-break the scan's stable sort uses."""
        cj = self.conjuncts
        eq_cols = [c for c, _ in cj.eq]
        if (not cj.complete or len(set(eq_cols)) != len(eq_cols)
                or len(cj.lower) > 1 or len(cj.upper) > 1):
            return (), True
        if self.aggregate is not None and self.aggregate[0] == "MAX" and not (
            self.order_by or self.limit is not None
        ):
            tail, whole = (self.aggregate[1],), False
        elif len({desc for _, desc in self.order_by}) == 1:
            tail, whole = tuple(c for c, _ in self.order_by), True
        else:
            return (), True
        ranged = {c for c, _, _ in cj.lower + cj.upper}
        return (tail, whole) if ranged <= {tail[0]} else ((), True)


@dataclass(frozen=True)
class Update(_Filtered):
    table: str
    assignments: Tuple[Tuple[str, Expr], ...]
    where: Optional[Expr] = None


@dataclass(frozen=True)
class Delete(_Filtered):
    table: str
    where: Optional[Expr] = None


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

class _Parser:
    def __init__(self, sql: str) -> None:
        self.sql = sql
        self.tokens = _tokenize(sql)
        self.pos = 0
        self.n_params = 0

    # -- token plumbing -------------------------------------------------

    def peek(self) -> Optional[_Token]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> _Token:
        tok = self.peek()
        if tok is None:
            raise SQLSyntaxError(f"unexpected end of statement: {self.sql!r}")
        self.pos += 1
        return tok

    def accept(self, kind: str, text: Optional[str] = None) -> Optional[_Token]:
        tok = self.peek()
        if tok is not None and tok.kind == kind and (text is None or tok.text == text):
            self.pos += 1
            return tok
        return None

    def expect(self, kind: str, text: Optional[str] = None) -> _Token:
        tok = self.accept(kind, text)
        if tok is None:
            got = self.peek()
            want = text or kind
            raise SQLSyntaxError(
                f"expected {want!r}, got {got.text if got else 'end'!r} "
                f"in {self.sql!r}"
            )
        return tok

    def expect_ident(self) -> str:
        tok = self.peek()
        if tok is None or tok.kind != "ident":
            raise SQLSyntaxError(
                f"expected identifier, got "
                f"{tok.text if tok else 'end'!r} in {self.sql!r}"
            )
        self.pos += 1
        return tok.text

    def done(self) -> None:
        if self.peek() is not None:
            raise SQLSyntaxError(
                f"trailing tokens starting at {self.peek().text!r} in {self.sql!r}"
            )

    # -- statements ------------------------------------------------------

    def parse_statement(self):
        tok = self.peek()
        if tok is None:
            raise SQLSyntaxError("empty statement")
        if tok.kind != "keyword":
            raise SQLSyntaxError(f"statement must start with a keyword: {self.sql!r}")
        handler = {
            "CREATE": self._create,
            "INSERT": self._insert,
            "SELECT": self._select,
            "UPDATE": self._update,
            "DELETE": self._delete,
        }.get(tok.text)
        if handler is None:
            raise SQLSyntaxError(f"unsupported statement {tok.text!r}")
        stmt = handler()
        self.done()
        return stmt

    def _create(self) -> CreateTable:
        self.expect("keyword", "CREATE")
        self.expect("keyword", "TABLE")
        if_not_exists = False
        if self.accept("keyword", "IF"):
            self.expect("keyword", "NOT")
            self.expect("keyword", "EXISTS")
            if_not_exists = True
        name = self.expect_ident()
        self.expect("op", "(")
        cols: List[Tuple[str, ColumnType]] = []
        while True:
            col = self.expect_ident()
            type_tok = self.next()
            if type_tok.kind not in ("ident", "keyword"):
                raise SQLSyntaxError(f"expected type after column {col!r}")
            cols.append((col, type_by_name(type_tok.text)))
            if not self.accept("op", ","):
                break
        self.expect("op", ")")
        return CreateTable(name, tuple(cols), if_not_exists)

    def _insert(self) -> Insert:
        self.expect("keyword", "INSERT")
        self.expect("keyword", "INTO")
        table = self.expect_ident()
        self.expect("keyword", "VALUES")
        self.expect("op", "(")
        values = [self._operand()]
        while self.accept("op", ","):
            values.append(self._operand())
        self.expect("op", ")")
        return Insert(table, tuple(values))

    def _select(self) -> Select:
        self.expect("keyword", "SELECT")
        columns: Optional[Tuple[str, ...]] = None
        aggregate = None
        if self.accept("op", "*"):
            pass
        elif self.peek() and self.peek().kind == "keyword" and self.peek().text in (
            "COUNT", "MAX", "SUM"
        ):
            fn = self.next().text
            self.expect("op", "(")
            if fn == "COUNT":
                self.expect("op", "*")
                aggregate = ("COUNT", None)
            else:
                aggregate = (fn, self.expect_ident())
            self.expect("op", ")")
        else:
            names = [self.expect_ident()]
            while self.accept("op", ","):
                names.append(self.expect_ident())
            columns = tuple(names)
        self.expect("keyword", "FROM")
        table = self.expect_ident()
        where = self._where_clause()
        order_by: List[Tuple[str, bool]] = []
        if self.accept("keyword", "ORDER"):
            self.expect("keyword", "BY")
            while True:
                col = self.expect_ident()
                desc = False
                if self.accept("keyword", "DESC"):
                    desc = True
                else:
                    self.accept("keyword", "ASC")
                order_by.append((col, desc))
                if not self.accept("op", ","):
                    break
        limit = None
        if self.accept("keyword", "LIMIT"):
            tok = self.expect("int")
            limit = int(tok.text)
        return Select(table, columns, aggregate, where, tuple(order_by), limit)

    def _update(self) -> Update:
        self.expect("keyword", "UPDATE")
        table = self.expect_ident()
        self.expect("keyword", "SET")
        assignments = []
        while True:
            col = self.expect_ident()
            self.expect("op", "=")
            assignments.append((col, self._operand()))
            if not self.accept("op", ","):
                break
        return Update(table, tuple(assignments), self._where_clause())

    def _delete(self) -> Delete:
        self.expect("keyword", "DELETE")
        self.expect("keyword", "FROM")
        table = self.expect_ident()
        return Delete(table, self._where_clause())

    def _where_clause(self) -> Optional[Expr]:
        if self.accept("keyword", "WHERE"):
            return self._conjunction()
        return None

    # -- conditions ----------------------------------------------------------

    def _conjunction(self) -> Expr:
        """Comparisons joined by AND; a parenthesized conjunction is
        flattened into its parent."""
        operands: List[Compare] = []
        while True:
            if self.accept("op", "("):
                inner = self._conjunction()
                self.expect("op", ")")
            else:
                inner = self._comparison()
            operands.extend(inner.operands if isinstance(inner, And) else (inner,))
            if not self.accept("keyword", "AND"):
                break
        return operands[0] if len(operands) == 1 else And(tuple(operands))

    def _comparison(self) -> Compare:
        left = self._operand()
        tok = self.next()
        if tok.kind != "op" or tok.text not in COMPARATORS:
            raise SQLSyntaxError(
                f"expected a comparison operator, got {tok.text!r} "
                f"in {self.sql!r}"
            )
        return Compare(tok.text, left, self._operand())

    def _operand(self) -> Expr:
        tok = self.next()
        if tok.kind == "op" and tok.text == "?":
            param = Param(self.n_params)
            self.n_params += 1
            return param
        if tok.kind == "int":
            return Literal(int(tok.text))
        if tok.kind == "float":
            return Literal(float(tok.text))
        if tok.kind == "string":
            return Literal(tok.text[1:-1].replace("''", "'"))
        if tok.kind == "ident":
            return ColumnRef(tok.text)
        raise SQLSyntaxError(f"unexpected token {tok.text!r} in {self.sql!r}")


def parse(sql: str):
    """Parse one statement; returns its AST dataclass."""
    return _Parser(sql).parse_statement()
