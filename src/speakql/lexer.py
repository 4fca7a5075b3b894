"""Lexicon generation and tokenization of restricted-English queries.

The lexicon mirrors the schema's column and table names; the keyword and
noise tables are fixed. One compiled scanner tries four rules at each
unit, in order: a quoted string, a keyword phrase of two or more words
(longest first), a number, any other unit. Only phrase words fold case
as ASCII; every other unit is looked up by its `str.lower()` in the
lexicon's one word table, which holds the keywords, then the columns,
then the tables, then the noise words, each shadowing those after it.
Noise words are dropped.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
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
# one group per rule of the module docstring; a phrase word is `(?ai:...)`
# since plain IGNORECASE lets `ſ` match `s` and `İ` match `i`, and a global
# ASCII flag would stop NBSP separating words and `١٢` being a number
_SCANNER = re.compile(
    r"""('[^']*'|"[^"]*")|("""
    + "|".join(
        r"\s+".join(f"(?ai:{w})" for w in phrase.split()) + r"(?!\S)"
        for phrase in sorted(KEYWORD_MAP, key=lambda p: -len(p.split()))
        if " " in phrase
    )
    + r")|([+-]?\d+(?:\.\d+)?(?!\S))|(\S+)"
)


@dataclass(frozen=True)
class Lexicon:
    column_spelling: dict  # lowercase -> schema spelling
    table_spelling: dict
    # lowercase word -> (kind, target), derived from the two above; a
    # noise word's kind is None
    words: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        table, column = TokenKind.TABLE, TokenKind.COLUMN
        self.words.update(dict.fromkeys(NOISE_WORDS, (None, None)))
        self.words.update({w: (table, t) for w, t in self.table_spelling.items()})
        self.words.update({w: (column, c) for w, c in self.column_spelling.items()})
        self.words.update(KEYWORD_MAP)


def generate_lexicon(schema):
    tables = {name: t.name for name, t in schema.tables_by_name.items()}
    # a shared column is spelt as its first-declared owner spells it
    columns = {name: ts[0].column(name).name for name, ts in schema.owners_by_column.items()}
    for ident in list(columns) + list(tables):
        if ident in RESERVED_WORDS:
            raise LexiconCollisionError(
                f"schema identifier {ident!r} collides with a reserved word"
            )
    return Lexicon(column_spelling=columns, table_spelling=tables)


def tokenize(query_text, lexicon):
    """Map the query to a token list; noise words are dropped, multi-word
    keyword phrases are consumed as single tokens (longest match wins)."""
    tokens = []
    words, tables = lexicon.words, lexicon.table_spelling
    i = 0  # word index of the unit in hand
    for quoted, phrase, number, unit in _SCANNER.findall(query_text):
        width = 1
        if phrase:  # its source is its words joined by one space
            parts = phrase.split()
            unit, width = " ".join(parts), len(parts)
        if quoted and not _SURROGATE_RE.search(quoted):  # else an unknown word
            tokens.append(Token(TokenKind.STRING_LITERAL, quoted, quoted[1:-1], i))
        elif number:
            tokens.append(Token(TokenKind.NUMBER, number, number, i))
        else:
            unit = unit or quoted
            word = unit.lower()
            hit = words.get(word)
            if hit is None:
                raise LexError(unit, i)
            kind, target = hit
            if (kind is TokenKind.COLUMN and tokens and tokens[-1].kind is TokenKind.OF
                    and word in tables):  # `of` takes only a table
                kind, target = TokenKind.TABLE, tables[word]
            if kind is not None:
                tokens.append(Token(kind, unit, target, i))
        i += width
    return tokens
