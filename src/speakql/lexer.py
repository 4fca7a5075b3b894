"""Lexicon generation and tokenization of restricted-English queries.

The lexicon mirrors the schema's column and table names; the keyword and
noise tables are fixed. One compiled scanner with no groups tries, at
each position, a quoted string, a keyword phrase of two or more words
(longest first; its words fold case as ASCII only), then any other unit.
A unit's class is read from its text, in order: its `str.lower()` in the
lexicon's one word table (keywords, phrases single-spaced, then columns,
tables and noise words, each shadowing those after it); a quoted string;
a number; a phrase spaced otherwise, looked up single-spaced; else an
unknown word. Noise words are dropped.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from itertools import repeat
from typing import NamedTuple

from .errors import LexError, LexiconCollisionError


class TokenKind(Enum):
    VERB_SELECT = "VERB_SELECT"
    WHERE_INTRO = "WHERE_INTRO"
    COLUMN = "COLUMN"
    TABLE = "TABLE"
    COMPARATOR = "COMPARATOR"
    LOGICAL_AND = "LOGICAL_AND"
    LOGICAL_OR = "LOGICAL_OR"
    NUMBER = "NUMBER"
    STRING_LITERAL = "STRING_LITERAL"
    OF = "OF"


# each kind as a module global, in definition order: CPython 3.11 reads a
# global several times faster than an Enum member through its class
(VERB_SELECT, WHERE_INTRO, COLUMN, TABLE, COMPARATOR, LOGICAL_AND, LOGICAL_OR,
 NUMBER, STRING_LITERAL, OF) = TokenKind


class Token(NamedTuple):
    kind: TokenKind
    source_lexeme: str
    target_lexeme: str
    position: int  # 0-based word index of the first source word


# phrase -> (kind, target); multi-word phrases matched before shorter ones
KEYWORD_MAP = {
    "greater than or equal to": (TokenKind.COMPARATOR, ">="),
    "less than or equal to": (TokenKind.COMPARATOR, "<="),
    "not equal to": (TokenKind.COMPARATOR, "<>"),
    "greater than": (TokenKind.COMPARATOR, ">"),
    "less than": (TokenKind.COMPARATOR, "<"),
    "equal to": (TokenKind.COMPARATOR, "="),
    "equals": (TokenKind.COMPARATOR, "="),
    "at least": (TokenKind.COMPARATOR, ">="),
    "at most": (TokenKind.COMPARATOR, "<="),
    "get": (TokenKind.VERB_SELECT, "select"),
    "show": (TokenKind.VERB_SELECT, "select"),
    "find": (TokenKind.VERB_SELECT, "select"),
    "list": (TokenKind.VERB_SELECT, "select"),
    "display": (TokenKind.VERB_SELECT, "select"),
    "give": (TokenKind.VERB_SELECT, "select"),
    "whose": (TokenKind.WHERE_INTRO, "where"),
    "where": (TokenKind.WHERE_INTRO, "where"),
    "with": (TokenKind.WHERE_INTRO, "where"),
    "having": (TokenKind.WHERE_INTRO, "where"),
    "and": (TokenKind.LOGICAL_AND, "and"),
    "or": (TokenKind.LOGICAL_OR, "or"),
    "of": (TokenKind.OF, "of"),
}

NOISE_WORDS = frozenset({"the", "all", "is", "are", "a", "an", "please", "me"})

# any word appearing inside a keyword phrase is off-limits as an identifier
RESERVED_WORDS = frozenset(
    w for phrase in KEYWORD_MAP for w in phrase.split()
) | NOISE_WORDS

# lone surrogates stand for query bytes that were not UTF-8 (os.fsdecode)
_SURROGATE_RE = re.compile("[\ud800-\udfff]")
# no groups, so `findall` returns one string per unit; a phrase word is
# `(?ai:...)` since plain IGNORECASE lets `ſ` match `s` and `İ` match `i`,
# and a global ASCII flag would stop NBSP separating words
_SCANNER = re.compile(
    r"""'[^']*'|"[^"]*"|(?:"""
    + "|".join(
        r"\s+".join(f"(?ai:{w})" for w in phrase.split())
        for phrase in sorted(KEYWORD_MAP, key=lambda p: -len(p.split()))
        if " " in phrase
    )
    + r")(?!\S)|\S+"
)
# a unit is a number when this matches all of it; `\d` takes `١٢` too
_is_number = re.compile(r"[+-]?\d+(?:\.\d+)?").fullmatch


@dataclass(frozen=True)
class Lexicon:
    """A schema's column and table spellings and the word table derived
    from them. `tokenize` reads the word table before a unit's shape, so
    a key shaped like a number or a quoted string (`1`, `'x'`) in a
    hand-built lexicon makes that unit a column or table, not a literal;
    `generate_lexicon` takes its keys from schema names and makes none."""

    column_spelling: dict  # lowercase -> schema spelling
    table_spelling: dict
    # lowercase word -> (kind, target), derived from the two above; a
    # noise word's kind is None
    words: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.words.update(dict.fromkeys(NOISE_WORDS, (None, None)))
        self.words.update({w: (TABLE, t) for w, t in self.table_spelling.items()})
        self.words.update({w: (COLUMN, c) for w, c in self.column_spelling.items()})
        self.words.update(KEYWORD_MAP)


def generate_lexicon(schema):
    tables = {name: t.name for name, t in schema.tables_by_name.items()}
    # a shared column is spelt as its first-declared owner spells it
    columns = {name: min(owners)[2].name for name, owners in schema.owners.items()}
    if not (RESERVED_WORDS.isdisjoint(columns) and RESERVED_WORDS.isdisjoint(tables)):
        # `columns` is keyed in binding order; name the first-declared clash
        declared = [name for t in schema.tables for name in t.columns_by_name] + list(tables)
        ident = next(name for name in declared if name in RESERVED_WORDS)
        raise LexiconCollisionError(f"schema identifier {ident!r} collides with a reserved word")
    return Lexicon(column_spelling=columns, table_spelling=tables)


def tokenize(query_text, lexicon):
    """Map the query to a token list; noise words are dropped, multi-word
    keyword phrases are consumed as single tokens (longest match wins)."""
    fields = []  # each token's fields, made into tokens at the end
    words, tables = lexicon.words, lexicon.table_spelling
    i = 0  # word index of the unit in hand
    for unit in _SCANNER.findall(query_text):
        word = unit.lower()
        hit = words.get(word)
        if hit is not None:
            kind, target = hit
            if (kind is COLUMN and fields and fields[-1][0] is OF
                    and word in tables):  # `of` takes only a table
                kind, target = TABLE, tables[word]
            if kind is not None:
                fields.append((kind, unit, target, i))
            i += word.count(" ")  # a single-spaced phrase's later words
        elif len(unit) > 1 and unit[0] in "'\"" and unit[-1] == unit[0]:
            if _SURROGATE_RE.search(unit):
                raise LexError(unit, i)
            fields.append((STRING_LITERAL, unit, unit[1:-1], i))
        elif _is_number(unit):
            fields.append((NUMBER, unit, unit, i))
        else:  # a phrase spaced otherwise; its source is its words joined by one space
            parts = unit.split()
            if len(parts) < 2:
                raise LexError(unit, i)
            unit = " ".join(parts)
            kind, target = words[unit.lower()]
            fields.append((kind, unit, target, i))
            i += len(parts) - 1
        i += 1
    return list(map(tuple.__new__, repeat(Token), fields))
