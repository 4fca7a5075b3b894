"""Random schemas: on every query that translates, the built-in executor
gives the same rows as sqlite gives for the emitted SQL (differential
testing, McKeeman 1998, with sqlite as the reference engine), and every
column binds to the table that the reference binder names."""

import random
import sqlite3
from collections import Counter
from contextlib import closing

from speakql import (
    build_graph,
    execute,
    generate_lexicon,
    generate_sql,
    parse,
    resolve,
    tables_owning,
    tokenize,
)
from speakql.errors import SpeakqlError
from speakql.executor import Dataset, TableData
from speakql.parser import fold_predicate
from speakql.schema import TABLE_KINDS, VALUE_KINDS, Column, Schema, Table

from oracles import reference_binding

# three are SQL keywords, which the SQL must quote
TABLE_NAMES = ("order", "group", "select", "Sale", "item", "Shop", "pay", "batch", "note", "stock")
# each column name's spellings, of which a table takes one; the first
# eight are drawn more often, so that tables share them
COLUMN_NAMES = (
    ("Key", "key", "KEY"), ("id", "Id"), ("order",), ("group",), ("select",),
    ("code", "Code"), ("ref",), ("day", "Day"), ("name",), ("qty",), ("price",), ("val",),
    ("tag",), ("city",), ("score",), ("rank",), ("size",), ("flag",), ("memo",), ("note",),
)
# few values, so that join keys repeat and comparisons go both ways
VALUES = {"integer": (0, 1, 2, 3), "real": (0.5, 1.0, 2.0, 2.5), "text": ("a", "b", "c")}
COMPARATORS = ("equals", "not equal to", "greater than", "less than", "at least", "at most")
LITERALS = {"integer": ("0", "1", "2"), "real": ("1", "2.5"), "text": ("'a'", "'b'")}


def _random_schema(rng):
    """2 to 5 tables, each drawing its kind, its columns' spellings and
    each column's value kind, with 0 to 6 rows of about 15 % nulls."""
    tables, data = [], {}
    for name in rng.sample(TABLE_NAMES, rng.randint(2, 5)):
        drawn = rng.sample(COLUMN_NAMES[:8], rng.randint(1, 2))
        drawn += rng.sample(COLUMN_NAMES[8:], rng.randint(0, 2))
        columns = tuple(Column(rng.choice(spellings), rng.choice(VALUE_KINDS))
                        for spellings in drawn)
        tables.append(Table(name, rng.choice(TABLE_KINDS), columns))
        rows = tuple(
            tuple(None if rng.random() < 0.15 else rng.choice(VALUES[c.value_kind])
                  for c in columns)
            for _ in range(rng.randint(0, 6))
        )
        data[name] = TableData(tuple(c.name for c in columns), rows)
    return Schema(tuple(tables)), Dataset(data)


def _random_query(rng, schema):
    """A query over the schema's column names, each in a case of its own,
    with an `of` scope now and then and up to three conditions. A
    condition's literal mostly has a kind that some owner of its column
    has, and otherwise any kind; a text literal is compared for equality."""
    kinds = {}
    for t in schema.tables:
        for c in t.columns:
            kinds.setdefault(c.name.lower(), set()).add(c.value_kind)
    names = sorted(kinds)

    def respell(name):
        return "".join(ch.upper() if rng.random() < 0.2 else ch for ch in name)

    select = rng.sample(names, min(len(names), rng.randint(1, 2)))
    words = ["get", " and ".join(map(respell, select))]
    if rng.random() < 0.2:
        words += ["of", rng.choice(schema.tables).name]
    if rng.random() < 0.8:
        words.append("whose")
        for k in range(rng.randint(1, 3)):
            name = rng.choice(names)
            kind = rng.choice(sorted(kinds[name]) if rng.random() < 0.8 else VALUE_KINDS)
            words += [rng.choice(("and", "or"))] * (k > 0)
            comparators = COMPARATORS[:2] if kind == "text" else COMPARATORS
            words += [respell(name), rng.choice(comparators), rng.choice(LITERALS[kind])]
    return " ".join(words)


def _sqlite_db(ds):
    """An in-memory sqlite database of the dataset, every name quoted and
    no column typed, so values keep the types the executor sees."""
    db = sqlite3.connect(":memory:")
    for name, data in ds.tables.items():
        columns = ", ".join(f'"{c}"' for c in data.header)
        db.execute(f'CREATE TABLE "{name}" ({columns})')
        slots = ", ".join("?" * len(data.header))
        db.executemany(f'INSERT INTO "{name}" VALUES ({slots})', data.rows)
    return db


def _shapes(schema, graph):
    """The shapes this schema has, of those the test must meet."""
    shapes = set()
    for name in {c.name.lower() for t in schema.tables for c in t.columns}:
        owners = [schema.table(t) for t in tables_owning(schema, name)]
        if len(owners) >= 3:
            shapes.add("a column of three or more tables")
        if len({t.column(name).name for t in owners}) > 1:
            shapes.add("a column spelt differently in two tables")
        if len({t.column(name).value_kind for t in owners}) > 1:
            shapes.add("a column of different value kinds in two tables")
    position = {t.name: i for i, t in enumerate(schema.tables)}
    for a, b in map(sorted, graph.edges):
        kinds = (schema.table(a).kind, schema.table(b).kind)
        if kinds[0] != kinds[1]:
            relationship, entity = (a, b) if kinds[0] == "relationship" else (b, a)
            before = position[relationship] < position[entity]
            shapes.add(f"a relationship table declared {'before' if before else 'after'} an end")
    if len(graph.edges) >= len(schema.tables):  # more edges than a forest has
        shapes.add("a cyclic graph")
    return shapes


def _bindings(rq):
    """(table, column) of every select ref and every bound comparison."""
    bound = list(rq.select_refs)
    if rq.predicate_refs is not None:
        fold_predicate(rq.predicate_refs, lambda c: bound.append((c.table, c.column)),
                       lambda node, left, right: None)
    return bound


def test_executor_agrees_with_sqlite_on_random_schemas():
    rng = random.Random(20261020)
    outcomes, shapes = Counter(), Counter()
    for _ in range(300):
        schema, ds = _random_schema(rng)
        graph, lexicon = build_graph(schema), generate_lexicon(schema)
        shapes.update(_shapes(schema, graph))
        with closing(_sqlite_db(ds)) as db:
            for _ in range(30):
                text = _random_query(rng, schema)
                try:
                    ir = parse(tokenize(text, lexicon))
                    rq = resolve(ir, schema, graph)
                    sql, rows = generate_sql(rq).text, execute(rq, ds).rows
                except SpeakqlError as exc:  # anything else fails the test
                    outcomes[type(exc).__name__] += 1
                    continue
                assert Counter(rows) == Counter(db.execute(sql).fetchall()), (text, sql)
                for table, column in _bindings(rq):
                    expected = reference_binding(schema, column, ir.scope_table)
                    assert table == expected.name, (text, column)
                    outcomes["bindings"] += 1
                outcomes["translated"] += 1
                outcomes["quoted a keyword"] += '"' in sql
    assert outcomes["translated"] > 2000 and outcomes["quoted a keyword"] > 100, outcomes
    assert outcomes["bindings"] > 2 * outcomes["translated"], outcomes
    assert len(shapes) == 6 and min(shapes.values()) > 10, shapes
