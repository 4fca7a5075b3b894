"""Query specs, their rendering as restricted English, and schema files.

A spec records what the generator meant: the select list, each
condition with the table its column belongs to, and the connective.
The checks in `checks.py` compare the program's outputs with it, so
nothing here imports the program.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional, Union

VERBS = ("get", "show", "find", "list", "display", "give")
WHERE_INTROS = ("whose", "where", "with", "having")
NOISE_WORDS = ("the", "all", "is", "are", "a", "an", "please", "me")
ORDERING_OPS = (">", "<", ">=", "<=")
EQUALITY_OPS = ("=", "<>")
OP_PHRASES = {
    ">": ("greater than",),
    "<": ("less than",),
    ">=": ("at least", "greater than or equal to"),
    "<=": ("at most", "less than or equal to"),
    "=": ("equals", "equal to"),
    "<>": ("not equal to",),
}
SQL_TYPES = {"integer": "INTEGER", "real": "REAL", "text": "TEXT"}
NOISE_CHANCE = 0.15  # of a noise word before each unit of a rendered query


@dataclass(frozen=True)
class Table:
    name: str
    columns: tuple  # (column name, "text" | "integer" | "real") pairs
    kind: str = "entity"


@dataclass(frozen=True)
class Cond:
    table: str
    column: str
    op: str
    literal: Union[int, float, str]


@dataclass(frozen=True)
class QuerySpec:
    select: tuple  # (table, column) pairs
    conditions: tuple = ()  # Cond
    connective: Optional[str] = None  # "and" | "or" once there are two conditions
    scope: Optional[str] = None

    @property
    def tables(self):
        return {t for t, _ in self.select} | {c.table for c in self.conditions}


def literal_text(literal):
    if isinstance(literal, str):
        return "'" + literal + "'"
    if isinstance(literal, float):
        return repr(literal)
    return str(literal)


def numeric_literal(rng, low, high):
    """An integer in [low, high) or, one time in five, a non-integral
    multiple of 1/4 in the same range."""
    value = rng.randrange(low, high)
    if rng.random() < 0.2:
        return value + rng.choice((0.25, 0.5, 0.75))
    return value


def render(spec, rng):
    """English text for the spec: random verb, where-introducer and
    comparator phrase, and now and then a noise word between units."""
    units = [rng.choice(VERBS)]
    for k, (_, column) in enumerate(spec.select):
        if k:
            units.append("and")
        units.append(column)
    if spec.scope is not None:
        units += ["of", spec.scope]
    for k, cond in enumerate(spec.conditions):
        units.append(spec.connective if k else rng.choice(WHERE_INTROS))
        units += [cond.column, rng.choice(OP_PHRASES[cond.op]), literal_text(cond.literal)]
    words = []
    for unit in units:
        if rng.random() < NOISE_CHANCE:
            words.append(rng.choice(NOISE_WORDS))
        words.append(unit)
    return " ".join(words)


def schema_yaml(tables):
    """Schema config in the block style of the documented format."""
    lines = ["tables:"]
    for t in tables:
        lines += [f"  - name: {t.name}", f"    kind: {t.kind}", "    columns:"]
        lines += [f"      - {{name: {c}, type: {k}}}" for c, k in t.columns]
    return "\n".join(lines) + "\n"


def create_statements(tables):
    return [
        f"CREATE TABLE {t.name} ("
        + ", ".join(f"{c} {SQL_TYPES[k]}" for c, k in t.columns)
        + ")"
        for t in tables
    ]


def yaml_str(text):
    """A double-quoted YAML scalar (JSON string syntax is valid YAML)."""
    return json.dumps(text)
