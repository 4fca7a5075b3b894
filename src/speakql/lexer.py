"""Lexicon generation and tokenization of restricted-English queries.

The lexicon mirrors the schema's column and table names; the keyword and
noise tables are fixed. Matching is case-insensitive, multi-word phrases
are matched longest-first, noise words are dropped silently.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum

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


@dataclass(frozen=True)
class Token:
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

_NUMBER_RE = re.compile(r"[+-]?\d+(\.\d+)?\Z")
_UNIT_RE = re.compile(r"'[^']*'|\"[^\"]*\"|\S+")


def _phrases_by_first_word():
    """first word -> [(words, kind, target)], longest phrase first."""
    index = {}
    for phrase in sorted(KEYWORD_MAP, key=lambda p: -len(p.split())):
        words = phrase.split()
        index.setdefault(words[0], []).append((words, *KEYWORD_MAP[phrase]))
    return index


_PHRASES = _phrases_by_first_word()


@dataclass(frozen=True)
class Lexicon:
    column_spelling: dict  # lowercase -> schema spelling
    table_spelling: dict


def generate_lexicon(schema):
    columns, tables = {}, {}
    for t in schema.tables:
        tables[t.name.lower()] = t.name
        for c in t.columns:
            columns.setdefault(c.name.lower(), c.name)
    for ident in list(columns) + list(tables):
        if ident in RESERVED_WORDS:
            raise LexiconCollisionError(
                f"schema identifier {ident!r} collides with a reserved word"
            )
    return Lexicon(column_spelling=columns, table_spelling=tables)


def tokenize(query_text, lexicon):
    """Map the query to a token list; noise words are dropped, multi-word
    keyword phrases are consumed as single tokens (longest match wins)."""
    units = _UNIT_RE.findall(query_text)
    words = [u.lower() for u in units]
    tokens = []
    i = 0
    while i < len(units):
        unit = units[i]
        if len(unit) >= 2 and unit[0] in "'\"" and unit[-1] == unit[0]:
            tokens.append(Token(TokenKind.STRING_LITERAL, unit, unit[1:-1], i))
            i += 1
            continue
        word = words[i]
        for parts, kind, target in _PHRASES.get(word, ()):
            end = i + len(parts)
            if words[i:end] == parts:
                tokens.append(Token(kind, " ".join(units[i:end]), target, i))
                i = end
                break
        else:
            # noise words cannot be numbers or, by the collision check,
            # identifiers
            if _NUMBER_RE.match(word):
                tokens.append(Token(TokenKind.NUMBER, unit, word, i))
            elif word in lexicon.column_spelling:
                tokens.append(
                    Token(TokenKind.COLUMN, unit, lexicon.column_spelling[word], i)
                )
            elif word in lexicon.table_spelling:
                tokens.append(Token(TokenKind.TABLE, unit, lexicon.table_spelling[word], i))
            elif word not in NOISE_WORDS:
                raise LexError(unit, i)
            i += 1
    return tokens
