"""Predictive parser and syntax-directed translation to the intermediate form.

Grammar (after the lexer's phrase merging):

    query       := VERB_SELECT select_list [OF TABLE] [where_part]
    select_list := COLUMN (LOGICAL_AND COLUMN)*
    where_part  := WHERE_INTRO condition ((LOGICAL_AND|LOGICAL_OR) condition)*
    condition   := COLUMN COMPARATOR literal
    literal     := NUMBER | STRING_LITERAL

A LOGICAL_AND in select position extends the select list only when the
token after the following COLUMN is not a COMPARATOR; otherwise the
sentence is rejected (conditions may not precede the WHERE introducer).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

from .errors import QueryParseError
from .lexer import TokenKind

COMPARATORS = (">", "<", "=", ">=", "<=", "<>")


@dataclass(frozen=True)
class Comparison:
    column: str
    op: str
    literal: Union[int, float, str]


@dataclass(frozen=True)
class Connective:
    op: str  # "and" | "or"
    left: "Predicate"
    right: "Predicate"


Predicate = Union[Comparison, Connective]


@dataclass(frozen=True)
class QueryIR:
    select_columns: tuple[str, ...]
    scope_table: Optional[str] = None
    predicate: Optional[Predicate] = None


class _TokenCursor:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self, ahead=0):
        i = self.pos + ahead
        return self.tokens[i] if i < len(self.tokens) else None

    def take(self, kind, expected):
        tok = self.peek()
        if tok is None or tok.kind is not kind:
            raise QueryParseError(self.pos, expected, _describe(tok))
        self.pos += 1
        return tok


def _describe(tok):
    if tok is None:
        return "end of query"
    return f"{tok.kind.value}({tok.source_lexeme!r})"


def parse(tokens):
    cur = _TokenCursor(tokens)
    cur.take(TokenKind.VERB_SELECT, "a select verb (get/show/...)")

    select_columns = [cur.take(TokenKind.COLUMN, "a column name").target_lexeme]
    while (
        cur.peek() is not None
        and cur.peek().kind is TokenKind.LOGICAL_AND
        and cur.peek(1) is not None
        and cur.peek(1).kind is TokenKind.COLUMN
        and not (cur.peek(2) is not None and cur.peek(2).kind is TokenKind.COMPARATOR)
    ):
        cur.take(TokenKind.LOGICAL_AND, "'and'")
        select_columns.append(cur.take(TokenKind.COLUMN, "a column name").target_lexeme)
    if len(set(select_columns)) != len(select_columns):
        raise QueryParseError(cur.pos, "distinct select columns", "a duplicate column")

    scope_table = None
    if cur.peek() is not None and cur.peek().kind is TokenKind.OF:
        cur.take(TokenKind.OF, "'of'")
        scope_table = cur.take(TokenKind.TABLE, "a table name").target_lexeme

    predicate = None
    if cur.peek() is not None:
        cur.take(TokenKind.WHERE_INTRO, "a where introducer (whose/where/...)")
        predicate = _parse_condition(cur)
        while cur.peek() is not None and cur.peek().kind in (
            TokenKind.LOGICAL_AND,
            TokenKind.LOGICAL_OR,
        ):
            op = "and" if cur.peek().kind is TokenKind.LOGICAL_AND else "or"
            cur.pos += 1
            predicate = Connective(op, predicate, _parse_condition(cur))

    if cur.peek() is not None:
        raise QueryParseError(cur.pos, "end of query", _describe(cur.peek()))
    return QueryIR(tuple(select_columns), scope_table, predicate)


def _parse_condition(cur):
    column = cur.take(TokenKind.COLUMN, "a column name").target_lexeme
    op = cur.take(TokenKind.COMPARATOR, "a comparator").target_lexeme
    lit = cur.peek()
    if lit is None or lit.kind not in (TokenKind.NUMBER, TokenKind.STRING_LITERAL):
        raise QueryParseError(cur.pos, "a number or quoted string", _describe(lit))
    if lit.kind is TokenKind.NUMBER:
        literal = _parse_number(lit.target_lexeme, cur.pos)
    else:
        literal = lit.target_lexeme
    cur.pos += 1
    return Comparison(column, op, literal)


def _parse_number(text, position):
    """Exact int for an integer or integral decimal; float otherwise.

    An integer longer than `int` converts (4300 digits by default) or a
    decimal beyond float range is rejected at its token position."""
    whole, _, fraction = text.partition(".")
    try:
        if not fraction.strip("0"):
            return int(whole)
        value = float(text)
    except ValueError:
        value = math.inf
    if math.isinf(value):
        raise QueryParseError(
            position, "a number of representable size", f"a {len(text)}-character number"
        )
    return value


def format_literal(literal):
    """Canonical rendering: numbers without leading zeros or trailing
    fractional zeros, strings single-quoted."""
    if isinstance(literal, bool):
        raise TypeError("boolean literal")
    if isinstance(literal, int):
        return str(literal)
    if isinstance(literal, float):
        if literal == int(literal):
            return str(int(literal))
        return repr(literal)
    return "'" + str(literal) + "'"


def fold_predicate(pred, leaf, join):
    """Value of a predicate tree, computed bottom-up: `leaf(c)` runs on
    each comparison from left to right, `join(node, left, right)` on each
    connective with the values of its two children.

    The parser grows the tree's left spine by one connective per
    condition, so the spine is walked in a loop and only right children,
    always comparisons in a parsed tree, recurse."""
    spine = []
    while isinstance(pred, Connective):
        spine.append(pred)
        pred = pred.left
    value = leaf(pred)
    for node in reversed(spine):
        value = join(node, value, fold_predicate(node.right, leaf, join))
    return value


def ir_to_text(ir):
    """Canonical string form: VP[select(...)] or VP[select(...), where(P)]."""
    select = "select(" + ", ".join(ir.select_columns) + ")"
    if ir.predicate is None:
        return f"VP[{select}]"
    where = fold_predicate(
        ir.predicate,
        lambda c: f"{c.op}({c.column}, {format_literal(c.literal)})",
        lambda node, left, right: f"{node.op}({left}, {right})",
    )
    return f"VP[{select}, where({where})]"
