"""Predictive parser and syntax-directed translation to the intermediate form.

Grammar (after the lexer's phrase merging):

    query       := VERB_SELECT select_list [OF TABLE] [where_part]
    select_list := COLUMN (LOGICAL_AND COLUMN)*
    where_part  := WHERE_INTRO condition ((LOGICAL_AND|LOGICAL_OR) condition)*
    condition   := COLUMN COMPARATOR literal
    literal     := NUMBER | STRING_LITERAL

An AND followed by COLUMN COMPARATOR does not extend the select list, so
a condition before the WHERE introducer is rejected; no select column may
repeat, and connectives group to the left. The IR prints as
`VP[select(C, ...), of(T), where(P)]`, `of` and `where` only when present.
A QueryParseError's position is a 0-based token index, with noise words
dropped and a keyword phrase one token (`get the customer_name whose
balance greater than` fails at token 5); a LexError's counts every word.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import NamedTuple, Optional, Union

from .errors import QueryParseError
from .lexer import Token, TokenKind

# what `parse` reads past the last token; its kind is no TokenKind
_END = Token(None, "", "", -1)
_CONNECTIVES = {TokenKind.LOGICAL_AND: "and", TokenKind.LOGICAL_OR: "or"}


class Comparison(NamedTuple):
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


def _describe(tok):
    if tok.kind is None:
        return "end of query"
    return f"{tok.kind.value}({tok.source_lexeme!r})"


def parse(tokens):
    toks = [*tokens, _END, _END]  # the select-list rule looks two tokens ahead
    pos = 0

    def take(kind, expected):
        nonlocal pos
        tok = toks[pos]
        if tok.kind is not kind:
            raise QueryParseError(pos, expected, _describe(tok))
        pos += 1
        return tok.target_lexeme

    take(TokenKind.VERB_SELECT, "a select verb (get/show/...)")
    select_columns = [take(TokenKind.COLUMN, "a column name")]
    while (
        toks[pos].kind is TokenKind.LOGICAL_AND
        and toks[pos + 1].kind is TokenKind.COLUMN
        and toks[pos + 2].kind is not TokenKind.COMPARATOR
    ):
        pos += 1
        if toks[pos].target_lexeme in select_columns:
            raise QueryParseError(pos, "distinct select columns", _describe(toks[pos]))
        select_columns.append(take(TokenKind.COLUMN, "a column name"))

    scope_table = None
    if toks[pos].kind is TokenKind.OF:
        pos += 1
        scope_table = take(TokenKind.TABLE, "a table name")

    predicate = op = None
    if toks[pos].kind is not None:
        take(TokenKind.WHERE_INTRO, "a where introducer (whose/where/...)")
        while True:
            column = take(TokenKind.COLUMN, "a column name")
            comparator = take(TokenKind.COMPARATOR, "a comparator")
            if toks[pos].kind is TokenKind.NUMBER:
                literal = _parse_number(toks[pos].target_lexeme, pos)
                pos += 1
            else:
                literal = take(TokenKind.STRING_LITERAL, "a number or quoted string")
            comparison = Comparison(column, comparator, literal)
            predicate = comparison if op is None else Connective(op, predicate, comparison)
            op = _CONNECTIVES.get(toks[pos].kind)
            if op is None:
                break
            pos += 1
        take(None, "end of query")
    return QueryIR(tuple(select_columns), scope_table, predicate)


def _parse_number(text, position):
    """Exact int for an integer or integral decimal; float otherwise.

    An integer longer than `int` converts (4300 digits by default), a
    decimal beyond float range, and one with a non-zero fraction that
    rounds to 0.0 are rejected at their token position."""
    whole, _, fraction = text.partition(".")
    try:
        if not fraction.strip("0"):
            return int(whole)
        value = float(text)
    except ValueError:
        value = math.inf
    if math.isinf(value) or value == 0:
        raise QueryParseError(
            position, "a number of representable size", f"a {len(text)}-character number"
        )
    return value


def format_literal(literal):
    """Canonical rendering, shared by the IR text and the SQL: numbers
    without leading zeros or trailing fractional zeros, strings
    single-quoted with each inner quote doubled."""
    if isinstance(literal, bool):
        raise TypeError("boolean literal")
    if isinstance(literal, int):
        return str(literal)
    if isinstance(literal, float):
        if literal == int(literal):
            return str(int(literal))
        return repr(literal)
    return "'" + str(literal).replace("'", "''") + "'"


def fold_predicate(pred, leaf, join):
    """Value of a predicate tree, computed bottom-up: `leaf(c)` runs on
    each comparison from left to right, `join(node, left, right)` on each
    connective with the values of its two children.

    The parser grows the tree's left spine by one connective per
    condition, so the spine is walked in a loop. A right child is always
    a comparison in a parsed tree and goes straight to `leaf`; only a
    connective there, as in a hand-built tree, recurses."""
    spine = []
    while isinstance(pred, Connective):
        spine.append(pred)
        pred = pred.left
    value = leaf(pred)
    for node in reversed(spine):
        right = node.right
        value = join(node, value, fold_predicate(right, leaf, join)
                     if isinstance(right, Connective) else leaf(right))
    return value


def ir_to_text(ir):
    """Canonical text: VP[select(C, ...), of(T), where(P)], of and where only when present."""
    def leaf(c):
        return deque([f"{c.op}({c.column}, {format_literal(c.literal)})"])

    def join(node, left, right):  # joined once below, so linear in the text
        left.appendleft(f"{node.op}(")
        left.extend((", ", *right, ")"))
        return left

    parts = ["select(" + ", ".join(ir.select_columns) + ")"]
    if ir.scope_table is not None:
        parts.append(f"of({ir.scope_table})")
    if ir.predicate is not None:
        parts.append(f"where({''.join(fold_predicate(ir.predicate, leaf, join))})")
    return "VP[" + ", ".join(parts) + "]"
