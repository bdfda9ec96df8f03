"""Tokenizer and recursive-descent parser for the query grammar.

    SELECT (* | col (, col)*) FROM rel (alias)?
        (JOIN rel (alias)? ON col = col)*
        (WHERE pred (AND pred)*)? (LIMIT n)?

    pred := col op literal
          | col CONTAINS 'text'
          | DATE_NEAR(col, col, n)
          | DATE_WITHIN(col, 'date', 'date')

Keywords are case-insensitive; identifiers are ``[A-Za-z_][A-Za-z0-9_]*``;
strings are single-quoted with ``''`` escaping a quote.  Error offsets are
byte offsets into the query text.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from ..errors import ParseError
from ..model import (
    Record,
    UncertainDate,
    byte_offset,
    int64,
    nfc,
    parse_uncertain_date,
)
from ..predicates import COMPARE_OPS

KEYWORDS = {"select", "from", "join", "on", "where", "and", "limit", "contains"}
FUNCTIONS = {"date_near", "date_within"}


class Token(Record):
    """``kind`` is ident, int, string, symbol or end; ``offset`` is the
    char offset into the query text."""

    __slots__ = ("kind", "text", "offset")


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<int>[0-9]+)
  | (?P<string>'(?:[^']|'')*')
  | (?P<symbol><=|>=|!=|[*,.()=<>-])
    """,
    re.VERBOSE,
)


def tokenize_query(text: str) -> list[Token]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            if text[pos] == "'":
                raise ParseError("unterminated string", offset=byte_offset(text, pos))
            raise ParseError(
                f"unexpected character {text[pos]!r}", offset=byte_offset(text, pos)
            )
        if m.lastgroup != "ws":
            tokens.append(Token(m.lastgroup, m.group(), pos))
        pos = m.end()
    tokens.append(Token("end", "", pos))
    return tokens


class ColumnRef(Record):
    __slots__ = ("qualifier", "name")

    def text(self) -> str:
        return f"{self.qualifier}.{self.name}" if self.qualifier else self.name


class RelationTerm(Record):
    """``name`` is "view_or_table" or "source.table"."""

    __slots__ = ("name", "alias")

    def display(self) -> str:
        return self.alias or self.name.split(".")[-1]


class JoinSpec(Record):
    __slots__ = ("relation", "left", "right")


class CompareAst(Record):
    """``literal`` is a str only from a quoted literal; ``literal_offset``
    is the char offset of the literal's first character."""

    __slots__ = ("column", "op", "literal", "literal_offset")


class ContainsAst(Record):
    __slots__ = ("column", "needle")


class DateNearAst(Record):
    __slots__ = ("column_a", "column_b", "k_years")


class DateWithinAst(Record):
    __slots__ = ("column", "lo", "hi")


PredicateAst = CompareAst | ContainsAst | DateNearAst | DateWithinAst


# a dataclass still: the benchmark's oracle builds the unlimited AST of a
# join with dataclasses.replace
@dataclass(frozen=True)
class QueryAst:
    select: tuple[ColumnRef, ...] | None  # None = SELECT *
    relation: RelationTerm
    joins: tuple[JoinSpec, ...]
    where: tuple[PredicateAst, ...]
    limit: int | None
    text: str = field(compare=False, default="")


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = tokenize_query(text)
        self.i = 0

    # -- token helpers ----------------------------------------------------
    def peek(self) -> Token:
        return self.tokens[self.i]

    def next(self) -> Token:
        t = self.tokens[self.i]
        self.i += 1
        return t

    def fail(self, message: str, tok: Token | None = None):
        tok = tok or self.peek()
        raise ParseError(message, offset=byte_offset(self.text, tok.offset))

    def at_keyword(self, word: str) -> bool:
        t = self.peek()
        return t.kind == "ident" and t.text.lower() == word

    def expect_keyword(self, word: str):
        if not self.at_keyword(word):
            self.fail(f"expected {word.upper()}")
        self.next()

    def expect_symbol(self, sym: str):
        t = self.peek()
        if t.kind != "symbol" or t.text != sym:
            self.fail(f"expected {sym!r}")
        self.next()

    def ident(self, what: str) -> Token:
        t = self.peek()
        if t.kind != "ident" or t.text.lower() in KEYWORDS or t.text.lower() in FUNCTIONS:
            self.fail(f"expected {what}")
        return self.next()

    def string(self, what: str) -> str:
        t = self.peek()
        if t.kind != "string":
            self.fail(f"expected {what}")
        self.next()
        return nfc(t.text[1:-1].replace("''", "'"))

    def integer(self, what: str) -> int:
        sign = ""
        t = self.peek()
        if t.kind == "symbol" and t.text == "-":
            self.next()
            sign = "-"
            t = self.peek()
        if t.kind != "int":
            self.fail(f"expected {what}")
        self.next()
        text = sign + t.text
        value = int64(text)
        if value is None:
            self.fail(f"integer literal {text} is not an int64", t)
        return value

    # -- grammar ----------------------------------------------------------
    def column(self) -> ColumnRef:
        first = self.ident("a column name")
        if self.peek().kind == "symbol" and self.peek().text == ".":
            self.next()
            second = self.ident("a column name after '.'")
            return ColumnRef(first.text, second.text)
        return ColumnRef(None, first.text)

    def relation(self) -> RelationTerm:
        first = self.ident("a relation name")
        name = first.text
        if self.peek().kind == "symbol" and self.peek().text == ".":
            self.next()
            second = self.ident("a table name after '.'")
            name = f"{first.text}.{second.text}"
        alias = None
        t = self.peek()
        if t.kind == "ident" and t.text.lower() not in KEYWORDS and t.text.lower() not in FUNCTIONS:
            alias = self.next().text
        return RelationTerm(name, alias)

    def predicate(self) -> PredicateAst:
        t = self.peek()
        if t.kind == "ident" and t.text.lower() in FUNCTIONS:
            return self.function_predicate()
        if t.kind == "ident" and self.tokens[self.i + 1].kind == "symbol" \
                and self.tokens[self.i + 1].text == "(":
            self.fail(f"unknown function {t.text!r}", t)
        col = self.column()
        if self.at_keyword("contains"):
            self.next()
            needle = self.string("a quoted string after CONTAINS")
            return ContainsAst(col, needle)
        op_tok = self.peek()
        if op_tok.kind != "symbol" or op_tok.text not in COMPARE_OPS:
            self.fail("expected a comparison operator or CONTAINS")
        self.next()
        lit_tok = self.peek()
        if lit_tok.kind == "string":
            literal: int | str = self.string("a literal")
        else:
            literal = self.integer("a literal")
        return CompareAst(col, op_tok.text, literal, lit_tok.offset)

    def function_predicate(self) -> PredicateAst:
        fn = self.next()
        name = fn.text.lower()
        self.expect_symbol("(")
        if name == "date_near":
            a = self.column()
            self.expect_symbol(",")
            b = self.column()
            self.expect_symbol(",")
            k_tok = self.peek()
            k = self.integer("a year count")
            if k < 0:
                self.fail("DATE_NEAR year count must be >= 0", k_tok)
            self.expect_symbol(")")
            return DateNearAst(a, b, k)
        col = self.column()
        self.expect_symbol(",")
        lo_tok = self.peek()
        lo = self._date_literal(self.string("a quoted date"), lo_tok)
        self.expect_symbol(",")
        hi_tok = self.peek()
        hi = self._date_literal(self.string("a quoted date"), hi_tok)
        if lo.earliest_day > hi.latest_day:
            self.fail("empty DATE_WITHIN range", lo_tok)
        self.expect_symbol(")")
        return DateWithinAst(col, lo, hi)

    def _date_literal(self, text: str, tok: Token) -> UncertainDate:
        try:
            return parse_uncertain_date(text)
        except ParseError as e:
            raise ParseError(
                f"bad date literal {text!r}: {e.message}",
                offset=byte_offset(self.text, tok.offset),
            ) from e

    def query(self) -> QueryAst:
        self.expect_keyword("select")
        select: tuple[ColumnRef, ...] | None
        if self.peek().kind == "symbol" and self.peek().text == "*":
            self.next()
            select = None
        else:
            cols = [self.column()]
            while self.peek().kind == "symbol" and self.peek().text == ",":
                self.next()
                cols.append(self.column())
            select = tuple(cols)
        self.expect_keyword("from")
        relation = self.relation()
        joins = []
        while self.at_keyword("join"):
            self.next()
            rel = self.relation()
            self.expect_keyword("on")
            left = self.column()
            self.expect_symbol("=")
            right = self.column()
            joins.append(JoinSpec(rel, left, right))
        where = []
        if self.at_keyword("where"):
            self.next()
            where.append(self.predicate())
            while self.at_keyword("and"):
                self.next()
                where.append(self.predicate())
        limit = None
        if self.at_keyword("limit"):
            tok = self.peek()
            self.next()
            limit = self.integer("a row count after LIMIT")
            if limit < 1:
                self.fail("LIMIT must be positive", tok)
        if self.peek().kind != "end":
            self.fail(f"unexpected trailing input {self.peek().text!r}")
        return QueryAst(select, relation, tuple(joins), tuple(where), limit, self.text)


def parse_query(text: str) -> QueryAst:
    """Parse a query; raises ParseError with a byte offset on bad syntax."""
    return _Parser(text).query()
