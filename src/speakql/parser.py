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
from dataclasses import dataclass
from typing import NamedTuple, Optional, Union

from .errors import QueryParseError, ResolveError
from .lexer import (
    COLUMN, COMPARATOR, LOGICAL_AND, LOGICAL_OR, NUMBER, OF, STRING_LITERAL, TABLE,
    VERB_SELECT, WHERE_INTRO, Token,
)

# what `parse` reads past the last token; its kind is no TokenKind
_END = Token(None, "", "", -1)
# a Connective's ops: a tuple, so an unhashable op is unknown rather than a TypeError
CONNECTIVES = ("and", "or")
# the integers sqlite stores as INTEGER; it reads an integer literal beyond
# them as a REAL, which the executor would not compare as sqlite does
INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1


class Comparison(NamedTuple):
    column: str
    op: str
    literal: Union[int, float, str]


@dataclass(frozen=True, slots=True)
class Connective:
    op: str  # "and" | "or"
    left: "Predicate"
    right: "Predicate"

    # @dataclass keeps an __init__ defined here. This one stores each field
    # through its slot's descriptor, at half the cost of the generated one,
    # which calls object.__setattr__ once per field.
    def __init__(self, op, left, right):
        if op not in CONNECTIVES:
            raise ResolveError(f"unknown connective {op!r}")
        _set_op(self, op)
        _set_left(self, left)
        _set_right(self, right)


_set_op, _set_left, _set_right = [Connective.__dict__[f].__set__ for f in ("op", "left", "right")]


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

    take(VERB_SELECT, "a select verb (get/show/...)")
    select_columns = [take(COLUMN, "a column name")]
    while (
        toks[pos].kind is LOGICAL_AND
        and toks[pos + 1].kind is COLUMN
        and toks[pos + 2].kind is not COMPARATOR
    ):
        pos += 1
        if toks[pos].target_lexeme in select_columns:
            raise QueryParseError(pos, "distinct select columns", _describe(toks[pos]))
        select_columns.append(take(COLUMN, "a column name"))

    scope_table = None
    if toks[pos].kind is OF:
        pos += 1
        scope_table = take(TABLE, "a table name")

    predicate = op = None
    if toks[pos].kind is not None:
        take(WHERE_INTRO, "a where introducer (whose/where/...)")
        while True:
            column = take(COLUMN, "a column name")
            comparator = take(COMPARATOR, "a comparator")
            if toks[pos].kind is NUMBER:
                literal = _parse_number(toks[pos].target_lexeme, pos)
                pos += 1
            else:
                literal = take(STRING_LITERAL, "a number or quoted string")
            comparison = tuple.__new__(Comparison, (column, comparator, literal))
            predicate = comparison if op is None else Connective(op, predicate, comparison)
            kind = toks[pos].kind
            if kind is LOGICAL_AND:
                op = "and"
            elif kind is LOGICAL_OR:
                op = "or"
            else:
                break
            pos += 1
        take(None, "end of query")
    return QueryIR(tuple(select_columns), scope_table, predicate)


def _parse_number(text, position):
    """Exact int for an integer or integral decimal; float otherwise.

    An integer outside the 64-bit range (see `INT64_MIN`), a decimal
    beyond float range, and one with a non-zero fraction that rounds to
    0.0 are rejected at their token position."""
    whole, _, fraction = text.partition(".")
    try:
        if not fraction.strip("0"):
            value = int(whole)
            if INT64_MIN <= value <= INT64_MAX:
                return value
        elif (value := float(text)) != 0 and not math.isinf(value):
            return value
    except ValueError:  # more digits than `int` converts (4300 by default)
        pass
    raise QueryParseError(
        position, "a number of representable size", f"a {len(text)}-character number"
    )


def int64_error(literal):
    """The ResolveError of an int literal outside [INT64_MIN, INT64_MAX],
    named by its side: the text of a huge int may be more than `str` writes."""
    side = "below -2**63" if literal < 0 else "at or above 2**63"
    return ResolveError(f"integer literal {side} does not fit in 64 bits")


def format_literal(literal):
    """Canonical rendering, shared by the IR text and the SQL: numbers without
    leading zeros or trailing fractional zeros, strings single-quoted with each inner
    quote doubled; any other literal, a bool, a non-finite float or an int
    beyond 64 bits too, raises ResolveError."""
    if isinstance(literal, str):
        return "'" + literal.replace("'", "''") + "'"
    if isinstance(literal, int) and not isinstance(literal, bool):
        if not INT64_MIN <= literal <= INT64_MAX:
            raise int64_error(literal)
        return str(literal)
    if not isinstance(literal, float):
        raise ResolveError(f"literal {literal!r} is neither a number nor a string")
    if not math.isfinite(literal):
        raise ResolveError(f"literal {literal!r} is not a finite number")
    if literal == int(literal):
        return str(int(literal))
    return repr(literal)


def fold_predicate(pred, leaf, join):
    """Value of a predicate tree, computed bottom-up without recursion:
    `leaf(c)` runs on each comparison from left to right, `join(node,
    left, right)` on each connective with the values of its two children.

    A left spine, as the parser grows it, is walked in a loop: its
    connectives wait in `pending` for their left value, and one whose right
    child is a connective too waits there again, paired with that value."""
    pending = []
    while True:
        while isinstance(pred, Connective):
            pending.append(pred)
            pred = pred.left
        value = leaf(pred)
        while pending:
            node = pending.pop()
            if not isinstance(node, Connective):  # a (connective, left value) pair
                value = join(*node, value)
            elif isinstance(pred := node.right, Connective):
                pending.append((node, value))
                break
            else:
                value = join(node, value, leaf(pred))
        else:
            return value


def ir_to_text(ir):
    """Canonical text: VP[select(C, ...), of(T), where(P)], of and where only
    when present, written left to right from a stack of nodes and text: a
    connective writes `op(` and pushes `)`, its right child, `, ` and its left child."""
    parts, stack = ["VP[select(", ", ".join(ir.select_columns), ")"], ["]"]
    if ir.scope_table is not None:
        parts.append(f", of({ir.scope_table})")
    if ir.predicate is not None:
        stack += (")", ir.predicate, ", where(")
    while stack:
        node = stack.pop()
        if type(node) is str:
            parts.append(node)
        elif isinstance(node, Connective):
            parts.append(f"{node.op}(")
            stack += (")", node.right, ", ", node.left)
        else:
            parts.append(f"{node.op}({node.column}, {format_literal(node.literal)})")
    return "".join(parts)
