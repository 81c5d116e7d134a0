"""Tokenizer and recursive-descent parser for the mini-SQL dialect.

Supported statements (keywords case-insensitive, identifiers preserved):

.. code-block:: sql

    CREATE TABLE [IF NOT EXISTS] t (col TYPE, ...)
    DROP TABLE [IF EXISTS] t
    INSERT INTO t [(col, ...)] VALUES (expr, ...)
    SELECT * | col, ... | COUNT(*) | MAX(col) | MIN(col) | SUM(col)
        FROM t [WHERE expr] [ORDER BY col [ASC|DESC], ...] [LIMIT n]
    UPDATE t SET col = expr, ... [WHERE expr]
    DELETE FROM t [WHERE expr]

Expressions: literals (integers, floats, 'strings', NULL), ``?`` parameters,
column refs, comparisons (= != <> < <= > >=), ``x BETWEEN lo AND hi``
(desugared to ``x >= lo AND x <= hi``, so the planner sees two range
conjuncts), IS [NOT] NULL, NOT, AND, OR, parentheses.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, List, Optional, Tuple

from repro.errors import SQLSyntaxError
from repro.metadb.expr import (
    BoolOp,
    ColumnRef,
    Compare,
    Conjuncts,
    Expr,
    IsNull,
    Literal,
    Not,
    Param,
    conjuncts_of,
)
from repro.metadb.types import ColumnType, type_by_name

__all__ = [
    "parse",
    "CreateTable",
    "DropTable",
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
  | (?P<op><>|<=|>=|!=|=|<|>|\(|\)|,|\?|\*)
    """,
    re.VERBOSE,
)

_KEYWORDS = {
    "CREATE", "TABLE", "IF", "NOT", "EXISTS", "DROP", "INSERT", "INTO",
    "VALUES", "SELECT", "FROM", "WHERE", "ORDER", "BY", "ASC", "DESC",
    "LIMIT", "UPDATE", "SET", "DELETE", "AND", "OR", "NULL", "IS",
    "BETWEEN", "COUNT", "MAX", "MIN", "SUM",
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
class DropTable:
    name: str
    if_exists: bool = False


@dataclass(frozen=True)
class Insert:
    table: str
    columns: Optional[Tuple[str, ...]]
    values: Tuple[Expr, ...]


class _Filtered:
    """The statements that carry a WHERE (SELECT / UPDATE / DELETE)."""

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
            "DROP": self._drop,
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

    def _drop(self) -> DropTable:
        self.expect("keyword", "DROP")
        self.expect("keyword", "TABLE")
        if_exists = False
        if self.accept("keyword", "IF"):
            self.expect("keyword", "EXISTS")
            if_exists = True
        return DropTable(self.expect_ident(), if_exists)

    def _insert(self) -> Insert:
        self.expect("keyword", "INSERT")
        self.expect("keyword", "INTO")
        table = self.expect_ident()
        columns = None
        if self.accept("op", "("):
            names = [self.expect_ident()]
            while self.accept("op", ","):
                names.append(self.expect_ident())
            self.expect("op", ")")
            columns = tuple(names)
        self.expect("keyword", "VALUES")
        self.expect("op", "(")
        values = [self._expr()]
        while self.accept("op", ","):
            values.append(self._expr())
        self.expect("op", ")")
        return Insert(table, columns, tuple(values))

    def _select(self) -> Select:
        self.expect("keyword", "SELECT")
        columns: Optional[Tuple[str, ...]] = None
        aggregate = None
        if self.accept("op", "*"):
            pass
        elif self.peek() and self.peek().kind == "keyword" and self.peek().text in (
            "COUNT", "MAX", "MIN", "SUM"
        ):
            fn = self.next().text
            self.expect("op", "(")
            if fn == "COUNT" and self.accept("op", "*"):
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
            assignments.append((col, self._expr()))
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
            return self._expr()
        return None

    # -- expressions -------------------------------------------------------
    # precedence: OR < AND < NOT < comparison < primary

    def _expr(self) -> Expr:
        return self._or()

    def _or(self) -> Expr:
        operands = [self._and()]
        while self.accept("keyword", "OR"):
            operands.append(self._and())
        return operands[0] if len(operands) == 1 else BoolOp("OR", tuple(operands))

    def _and(self) -> Expr:
        operands = [self._not()]
        while self.accept("keyword", "AND"):
            operands.append(self._not())
        return operands[0] if len(operands) == 1 else BoolOp("AND", tuple(operands))

    def _not(self) -> Expr:
        if self.accept("keyword", "NOT"):
            return Not(self._not())
        return self._comparison()

    def _comparison(self) -> Expr:
        left = self._primary()
        tok = self.peek()
        if tok and tok.kind == "op" and tok.text in ("=", "!=", "<>", "<", "<=", ">", ">="):
            self.pos += 1
            op = "!=" if tok.text == "<>" else tok.text
            right = self._primary()
            return Compare(op, left, right)
        if tok and tok.kind == "keyword" and tok.text == "IS":
            self.pos += 1
            negated = bool(self.accept("keyword", "NOT"))
            self.expect("keyword", "NULL")
            return IsNull(left, negated)
        if tok and tok.kind == "keyword" and tok.text == "BETWEEN":
            # BETWEEN binds tighter than AND: the AND here is part of the
            # BETWEEN, and the whole thing desugars to two range conjuncts.
            self.pos += 1
            low = self._primary()
            self.expect("keyword", "AND")
            high = self._primary()
            return BoolOp(
                "AND", (Compare(">=", left, low), Compare("<=", left, high))
            )
        return left

    def _primary(self) -> Expr:
        tok = self.peek()
        if tok is None:
            raise SQLSyntaxError(f"unexpected end of expression in {self.sql!r}")
        if tok.kind == "op" and tok.text == "(":
            self.pos += 1
            inner = self._expr()
            self.expect("op", ")")
            return inner
        if tok.kind == "op" and tok.text == "?":
            self.pos += 1
            param = Param(self.n_params)
            self.n_params += 1
            return param
        if tok.kind == "int":
            self.pos += 1
            return Literal(int(tok.text))
        if tok.kind == "float":
            self.pos += 1
            return Literal(float(tok.text))
        if tok.kind == "string":
            self.pos += 1
            return Literal(tok.text[1:-1].replace("''", "'"))
        if tok.kind == "keyword" and tok.text == "NULL":
            self.pos += 1
            return Literal(None)
        if tok.kind == "ident":
            self.pos += 1
            return ColumnRef(tok.text)
        raise SQLSyntaxError(f"unexpected token {tok.text!r} in {self.sql!r}")


def parse(sql: str):
    """Parse one statement; returns its AST dataclass."""
    return _Parser(sql).parse_statement()
