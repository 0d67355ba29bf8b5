"""Recursive-descent SQL parser for the supported subset.

Grammar (informally)::

    batch      := statement (';' statement)* ';'?
    statement  := [WITH cte (',' cte)*] select
    cte        := ident AS '(' select ')'
    select     := SELECT select_item (',' select_item)*
                  FROM table_item (',' table_item)*
                  [WHERE expr] [GROUP BY column_list] [HAVING expr]
                  [ORDER BY order_item (',' order_item)*]
    expr       := or_expr
    or_expr    := and_expr (OR and_expr)*
    and_expr   := not_expr (AND not_expr)*
    not_expr   := NOT not_expr | predicate
    predicate  := additive [comparison | BETWEEN | IN]
    additive   := multiplicative (('+'|'-') multiplicative)*
    mult       := primary (('*'|'/') primary)*
    primary    := literal | DATE string | aggregate | column | '(' expr ')'
                | '(' select ')'

:func:`parse_batch` is memoized by text, and a :class:`ParsedBatch`
memoizes its own bindings (see :meth:`repro.sql.binder.Binder.bind_batch`).
Both memos hold their values weakly: a parse lives exactly as long as
something references it — in practice the bound batch a plan-cache entry
keeps — so a session without a plan cache retains nothing. The parsed AST
is therefore shared by every caller and must never be mutated.
"""

from __future__ import annotations

import threading
import weakref
from typing import Hashable, List, Optional

from ..errors import ParseError
from .ast import (
    CommonTableExpr,
    OrderItem,
    SelectItem,
    SelectStatement,
    SqlBetween,
    SqlBinary,
    SqlCall,
    SqlColumn,
    SqlExists,
    SqlExpr,
    SqlInList,
    SqlInSubquery,
    SqlJoin,
    SqlLiteral,
    SqlNot,
    SqlStar,
    SqlSubquery,
    TableItem,
)
from .lexer import Token, TokenType, tokenize

_AGG_FUNCS = {"SUM", "COUNT", "MIN", "MAX", "AVG"}
_COMPARISONS = {"=", "<>", "<", "<=", ">", ">="}


class _Parser:
    def __init__(self, tokens: List[Token]) -> None:
        self._tokens = tokens
        self._pos = 0

    # -- token helpers ------------------------------------------------------

    def _peek(self, offset: int = 0) -> Token:
        index = min(self._pos + offset, len(self._tokens) - 1)
        return self._tokens[index]

    def _advance(self) -> Token:
        token = self._tokens[self._pos]
        if token.type is not TokenType.EOF:
            self._pos += 1
        return token

    def _accept_keyword(self, keyword: str) -> bool:
        if self._peek().matches_keyword(keyword):
            self._advance()
            return True
        return False

    def _expect_keyword(self, keyword: str) -> None:
        token = self._advance()
        if not (token.type is TokenType.KEYWORD and token.value == keyword):
            raise ParseError(f"expected {keyword}, got {token!r}")

    def _accept(self, token_type: TokenType) -> Optional[Token]:
        if self._peek().type is token_type:
            return self._advance()
        return None

    def _expect(self, token_type: TokenType) -> Token:
        token = self._advance()
        if token.type is not token_type:
            raise ParseError(f"expected {token_type.value}, got {token!r}")
        return token

    # -- statements -----------------------------------------------------------

    def parse_batch(self) -> List[SelectStatement]:
        """Parse a semicolon-separated statement batch."""
        statements: List[SelectStatement] = []
        while self._peek().type is not TokenType.EOF:
            statements.append(self.parse_statement())
            while self._accept(TokenType.SEMICOLON):
                pass
        if not statements:
            raise ParseError("empty statement batch")
        return statements

    def parse_statement(self) -> SelectStatement:
        """Parse one statement including its WITH prefix."""
        ctes: List[CommonTableExpr] = []
        if self._accept_keyword("WITH"):
            while True:
                name = self._expect(TokenType.IDENT).value
                self._expect_keyword("AS")
                self._expect(TokenType.LPAREN)
                select = self.parse_select()
                self._expect(TokenType.RPAREN)
                ctes.append(CommonTableExpr(name=name, select=select))
                if not self._accept(TokenType.COMMA):
                    break
        statement = self.parse_select()
        statement.ctes = ctes
        return statement

    def parse_select(self) -> SelectStatement:
        """Parse a SELECT ... [ORDER BY] body."""
        self._expect_keyword("SELECT")
        select_items = [self._parse_select_item()]
        while self._accept(TokenType.COMMA):
            select_items.append(self._parse_select_item())
        self._expect_keyword("FROM")
        from_items = [self._parse_table_item()]
        while self._accept(TokenType.COMMA):
            from_items.append(self._parse_table_item())
        joins: List[SqlJoin] = []
        while True:
            join = self._parse_join_clause()
            if join is None:
                break
            joins.append(join)
        where = None
        if self._accept_keyword("WHERE"):
            where = self.parse_expr()
        group_by: List[SqlExpr] = []
        if self._accept_keyword("GROUP"):
            self._expect_keyword("BY")
            group_by.append(self._parse_additive())
            while self._accept(TokenType.COMMA):
                group_by.append(self._parse_additive())
        having = None
        if self._accept_keyword("HAVING"):
            having = self.parse_expr()
        order_by: List[OrderItem] = []
        if self._accept_keyword("ORDER"):
            self._expect_keyword("BY")
            order_by.append(self._parse_order_item())
            while self._accept(TokenType.COMMA):
                order_by.append(self._parse_order_item())
        return SelectStatement(
            select_items=select_items,
            from_items=from_items,
            joins=joins,
            where=where,
            group_by=group_by,
            having=having,
            order_by=order_by,
        )

    def _parse_join_clause(self) -> Optional[SqlJoin]:
        """Parse ``[INNER | LEFT [OUTER] | RIGHT [OUTER]] JOIN t ON expr``."""
        token = self._peek()
        if token.matches_keyword("JOIN"):
            self._advance()
            kind = "inner"
        elif token.matches_keyword("INNER"):
            self._advance()
            self._expect_keyword("JOIN")
            kind = "inner"
        elif token.matches_keyword("LEFT") or token.matches_keyword("RIGHT"):
            kind = "left" if token.value == "LEFT" else "right"
            self._advance()
            self._accept_keyword("OUTER")
            self._expect_keyword("JOIN")
        else:
            return None
        table = self._parse_table_item()
        self._expect_keyword("ON")
        on = self.parse_expr()
        return SqlJoin(kind=kind, table=table, on=on)

    def _parse_select_item(self) -> SelectItem:
        if self._peek().type is TokenType.STAR:
            self._advance()
            return SelectItem(expr=SqlStar())
        # alias.* form
        if (
            self._peek().type is TokenType.IDENT
            and self._peek(1).type is TokenType.DOT
            and self._peek(2).type is TokenType.STAR
        ):
            qualifier = self._advance().value
            self._advance()
            self._advance()
            return SelectItem(expr=SqlStar(qualifier=qualifier))
        expr = self._parse_additive()
        alias = None
        if self._accept_keyword("AS"):
            alias = self._expect(TokenType.IDENT).value
        elif self._peek().type is TokenType.IDENT:
            alias = self._advance().value
        return SelectItem(expr=expr, alias=alias)

    def _parse_table_item(self) -> TableItem:
        name = self._expect(TokenType.IDENT).value
        alias = None
        if self._accept_keyword("AS"):
            alias = self._expect(TokenType.IDENT).value
        elif self._peek().type is TokenType.IDENT:
            alias = self._advance().value
        return TableItem(name=name, alias=alias)

    def _parse_order_item(self) -> OrderItem:
        expr = self._parse_additive()
        descending = False
        if self._accept_keyword("DESC"):
            descending = True
        elif self._accept_keyword("ASC"):
            descending = False
        return OrderItem(expr=expr, descending=descending)

    # -- expressions -----------------------------------------------------------

    def parse_expr(self) -> SqlExpr:
        """Parse a boolean expression (OR precedence root)."""
        return self._parse_or()

    def _parse_or(self) -> SqlExpr:
        left = self._parse_and()
        while self._accept_keyword("OR"):
            right = self._parse_and()
            left = SqlBinary("OR", left, right)
        return left

    def _parse_and(self) -> SqlExpr:
        left = self._parse_not()
        while self._accept_keyword("AND"):
            right = self._parse_not()
            left = SqlBinary("AND", left, right)
        return left

    def _parse_not(self) -> SqlExpr:
        if self._accept_keyword("NOT"):
            return SqlNot(self._parse_not())
        return self._parse_predicate()

    def _parse_predicate(self) -> SqlExpr:
        if self._peek().matches_keyword("EXISTS"):
            self._advance()
            self._expect(TokenType.LPAREN)
            select = self.parse_select()
            self._expect(TokenType.RPAREN)
            return SqlExists(select=select)
        left = self._parse_additive()
        token = self._peek()
        if token.type is TokenType.OPERATOR and token.value in _COMPARISONS:
            op = self._advance().value
            right = self._parse_additive()
            return SqlBinary(op, left, right)
        negated = False
        if token.matches_keyword("NOT"):
            follower = self._peek(1)
            if follower.matches_keyword("BETWEEN") or follower.matches_keyword("IN"):
                self._advance()
                negated = True
                token = self._peek()
        if token.matches_keyword("BETWEEN"):
            self._advance()
            low = self._parse_additive()
            self._expect_keyword("AND")
            high = self._parse_additive()
            return SqlBetween(subject=left, low=low, high=high, negated=negated)
        if token.matches_keyword("IN"):
            self._advance()
            self._expect(TokenType.LPAREN)
            if self._peek().matches_keyword("SELECT"):
                select = self.parse_select()
                self._expect(TokenType.RPAREN)
                return SqlInSubquery(subject=left, select=select, negated=negated)
            options = [self._parse_additive()]
            while self._accept(TokenType.COMMA):
                options.append(self._parse_additive())
            self._expect(TokenType.RPAREN)
            return SqlInList(subject=left, options=options, negated=negated)
        return left

    def _parse_additive(self) -> SqlExpr:
        left = self._parse_multiplicative()
        while True:
            token = self._peek()
            if token.type is TokenType.OPERATOR and token.value in ("+", "-"):
                op = self._advance().value
                right = self._parse_multiplicative()
                left = SqlBinary(op, left, right)
            else:
                return left

    def _parse_multiplicative(self) -> SqlExpr:
        left = self._parse_primary()
        while True:
            token = self._peek()
            if token.type is TokenType.STAR or (
                token.type is TokenType.OPERATOR and token.value == "/"
            ):
                op = "*" if token.type is TokenType.STAR else "/"
                self._advance()
                right = self._parse_primary()
                left = SqlBinary(op, left, right)
            else:
                return left

    def _parse_primary(self) -> SqlExpr:
        token = self._peek()
        if token.type is TokenType.OPERATOR and token.value in ("-", "+"):
            sign = self._advance().value
            inner = self._parse_primary()
            if sign == "+":
                return inner
            if isinstance(inner, SqlLiteral) and isinstance(
                inner.value, (int, float)
            ):
                return SqlLiteral(-inner.value)
            return SqlBinary("-", SqlLiteral(0), inner)
        if token.type is TokenType.NUMBER:
            self._advance()
            return SqlLiteral(token.value)
        if token.type is TokenType.STRING:
            self._advance()
            return SqlLiteral(token.value)
        if token.matches_keyword("DATE"):
            self._advance()
            literal = self._expect(TokenType.STRING)
            return SqlLiteral(literal.value, is_date=True)
        if token.type is TokenType.KEYWORD and token.value in _AGG_FUNCS:
            func = self._advance().value
            self._expect(TokenType.LPAREN)
            distinct = bool(self._accept_keyword("DISTINCT"))
            if self._peek().type is TokenType.STAR:
                self._advance()
                arg: Optional[SqlExpr] = None
            else:
                arg = self._parse_additive()
            self._expect(TokenType.RPAREN)
            return SqlCall(func=func, arg=arg, distinct=distinct)
        if token.type is TokenType.IDENT:
            name = self._advance().value
            if self._accept(TokenType.DOT):
                column = self._expect(TokenType.IDENT).value
                return SqlColumn(qualifier=name, name=column)
            return SqlColumn(qualifier=None, name=name)
        if token.type is TokenType.LPAREN:
            self._advance()
            if self._peek().matches_keyword("SELECT"):
                select = self.parse_select()
                self._expect(TokenType.RPAREN)
                return SqlSubquery(select=select)
            expr = self.parse_expr()
            self._expect(TokenType.RPAREN)
            return expr
        raise ParseError(f"unexpected token {token!r}")


def parse_statement(sql: str) -> SelectStatement:
    """Parse one statement (raises if extra tokens remain)."""
    parser = _Parser(tokenize(sql))
    statement = parser.parse_statement()
    while parser._accept(TokenType.SEMICOLON):
        pass
    trailing = parser._peek()
    if trailing.type is not TokenType.EOF:
        raise ParseError(f"unexpected trailing token {trailing!r}")
    return statement


#: guards both statement memos: :data:`_parsed` and every
#: :attr:`ParsedBatch._bound` (weakref callbacks never take it).
_memo_lock = threading.Lock()


class ParsedBatch(list):
    """The statements of one batch text, shared by every caller parsing it.

    It remembers what it was bound to, per (catalog, catalog version,
    query names), in a dictionary holding those bound batches weakly; each
    bound batch holds its ``ParsedBatch`` strongly. References run one way
    only, so there is no cycle and plain reference counting frees both."""

    def __init__(self, statements: List[SelectStatement]) -> None:
        super().__init__(statements)
        self._bound: "weakref.WeakValueDictionary[Hashable, object]" = (
            weakref.WeakValueDictionary()
        )

    def bound(self, key: Hashable):
        """The live bound batch remembered under ``key``, or None."""
        with _memo_lock:
            return self._bound.get(key)

    def remember(self, key: Hashable, batch):
        """Remember ``batch`` under ``key``; returns the one kept (a batch
        another thread remembered first wins)."""
        with _memo_lock:
            return self._bound.setdefault(key, batch)


#: batch text -> its live parse.
_parsed: "weakref.WeakValueDictionary[str, ParsedBatch]" = (
    weakref.WeakValueDictionary()
)


def parse_batch(sql: str) -> ParsedBatch:
    """Parse a semicolon-separated batch of statements (memoized by text
    while the previous parse is still referenced)."""
    with _memo_lock:
        parsed = _parsed.get(sql)
    if parsed is None:
        parsed = ParsedBatch(_Parser(tokenize(sql)).parse_batch())
        with _memo_lock:
            parsed = _parsed.setdefault(sql, parsed)
    return parsed
