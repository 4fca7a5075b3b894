"""Output checks, computed independently of the program.

Each check returns None when the output is right and a one-line reason
when it is not. None of them reuses the program's algorithms: rows come
from stdlib sqlite3 over CSV rows parsed here, join trees from the
benchmark's own parent links, and decoder scores from the model tables
the generator wrote.
"""

from __future__ import annotations

import csv
import math
import sqlite3
from collections import Counter

from queries import create_statements, literal_text


# ------------------------------------------------------------------ the IR

def flatten_predicate(pred):
    """(comparisons in order, connective ops, left-deep?) of an IR predicate."""
    comparisons, ops, left_deep = [], set(), True
    stack = [pred]
    while stack:
        node = stack.pop()
        if hasattr(node, "left"):
            ops.add(node.op)
            left_deep = left_deep and not hasattr(node.right, "left")
            stack += [node.right, node.left]
        else:
            comparisons.append((node.column, node.op, type(node.literal), node.literal))
    return comparisons, ops, left_deep


def check_ir(ir, spec):
    if ir.select_columns != tuple(c for _, c in spec.select):
        return f"select list {ir.select_columns} != {[c for _, c in spec.select]}"
    if ir.scope_table != spec.scope:
        return f"scope {ir.scope_table!r} != {spec.scope!r}"
    expected = [(c.column, c.op, type(c.literal), c.literal) for c in spec.conditions]
    if ir.predicate is None:
        return None if not expected else "predicate missing"
    comparisons, ops, left_deep = flatten_predicate(ir.predicate)
    if comparisons != expected:
        return "comparisons differ from the spec"
    if ops != ({spec.connective} if len(expected) > 1 else set()):
        return f"connectives {sorted(ops)} != {spec.connective!r}"
    if not left_deep:
        return "predicate is not left-associative"
    return None


# ------------------------------------------------------------------ SQL and rows

def read_csv_rows(path, table):
    """Rows of one CSV file, typed by the benchmark's own schema."""
    convert = {"integer": int, "real": float, "text": str}
    kinds = [convert[k] for _, k in table.columns]
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        return [
            tuple(None if raw == "" else f(raw) for f, raw in zip(kinds, row))
            for row in reader
        ]


def sqlite_db(tables, rows_by_table=None):
    """In-memory database with the tables created and, if given, filled."""
    db = sqlite3.connect(":memory:")
    for t, stmt in zip(tables, create_statements(tables)):
        db.execute(stmt)
        rows = (rows_by_table or {}).get(t.name)
        if rows:
            marks = ", ".join("?" * len(t.columns))
            db.executemany(f"INSERT INTO {t.name} VALUES ({marks})", rows)
    return db


def check_sql_accepted(db, sql_text):
    try:
        db.execute(sql_text).fetchall()
    except sqlite3.Error as exc:
        return f"sqlite rejects the SQL: {exc}"
    return None


def reference_sql(spec, join_tables, join_keys):
    """SQL written from the spec and the benchmark's own join keys.

    join_keys holds (left table, column, right table) equalities."""
    multi = len(join_tables) > 1

    def ref(table, column):
        return f"{table}.{column}" if multi else column

    select = ", ".join(ref(t, c) for t, c in spec.select)
    where = []
    if spec.conditions:
        sep = f" {(spec.connective or 'and').upper()} "
        where.append(
            "("
            + sep.join(
                f"{ref(c.table, c.column)} {c.op} {literal_text(c.literal)}"
                for c in spec.conditions
            )
            + ")"
        )
    where += [f"{a}.{col} = {b}.{col}" for a, col, b in join_keys]
    text = f"SELECT {select} FROM {', '.join(join_tables)}"
    return text + (" WHERE " + " AND ".join(where) if where else "")


def check_rows(db, rows, sql_text, ref_text):
    """Executor rows against sqlite on the emitted and on the reference SQL."""
    got = Counter(rows)
    for label, text in (("emitted", sql_text), ("reference", ref_text)):
        try:
            want = Counter(db.execute(text).fetchall())
        except sqlite3.Error as exc:
            return f"sqlite rejects the {label} SQL: {exc}"
        if got != want:
            return f"executor rows differ from sqlite on the {label} SQL"
    return None


# ------------------------------------------------------------------ join plans

def tree_path(parent, a, b):
    """Tables on the tree path between a and b, from parent links."""
    ancestors_a = [a]
    while parent[ancestors_a[-1]] is not None:
        ancestors_a.append(parent[ancestors_a[-1]])
    on_a = set(ancestors_a)
    path_b = [b]
    while path_b[-1] not in on_a:
        path_b.append(parent[path_b[-1]])
    meet = path_b[-1]
    return set(ancestors_a[: ancestors_a.index(meet) + 1]) | set(path_b)


def check_tree_plan(plan, bound_tables, parent, key_of):
    """The plan's tables are the union of tree paths between the bound
    tables, and its conditions are exactly the tree edges inside it."""
    bound = sorted(bound_tables)
    want = {bound[0]}
    for other in bound[1:]:
        want |= tree_path(parent, bound[0], other)
    if set(plan.tables) != want or len(plan.tables) != len(want):
        return f"plan tables {sorted(plan.tables)} != tree paths {sorted(want)}"
    want_edges = {frozenset((t, parent[t])) for t in want if parent[t] in want}
    got_edges = set()
    for lt, lc, rt, rc in plan.conditions:
        edge = frozenset((lt, rt))
        child = lt if parent[lt] == rt else rt
        if edge not in want_edges or lc != rc or lc != key_of[child]:
            return f"join condition {lt}.{lc} = {rt}.{rc} is not a tree edge of the plan"
        got_edges.add(edge)
    if got_edges != want_edges or len(plan.conditions) != len(want_edges):
        return "join conditions do not span the plan's tables"
    return None


# ------------------------------------------------------------------ decoding

def follows_grammar(words, arcs, start, accepting):
    state = start
    for word in words:
        state = arcs.get((state, word))
        if state is None:
            return False
    return state in accepting


def rescore(words, state_path, observations, models):
    """Log probability of a segmented state path under the generator's
    model tables; None when the path does not fit the words."""
    if len(state_path) != len(observations):
        return None
    segments = []
    for (word, idx), symbol in zip(state_path, observations):
        if not segments or segments[-1][0] != word:
            segments.append((word, []))
        segments[-1][1].append((idx, symbol))
    if tuple(w for w, _ in segments) != tuple(words):
        return None
    total = 0.0
    for word, frames in segments:
        m = models[word]
        terms = [m.entry.get(frames[0][0], 0.0), m.exit.get(frames[-1][0], 0.0)]
        for (a, _), (b, _) in zip(frames, frames[1:]):
            terms.append(m.trans.get((a, b), 0.0))
        terms += [m.emit[idx].get(symbol, 0.0) for idx, symbol in frames]
        if min(terms) <= 0.0:
            return None
        total += sum(math.log(p) for p in terms)
    return total


def check_decoding(decoding, item, grammar, models):
    """Grammar path, independent rescoring, and optimality against the
    generating alignment, which is the unique optimum by construction."""
    arcs, start, accepting = grammar
    if not follows_grammar(decoding.words, arcs, start, accepting):
        return "decoded words do not follow the grammar"
    score = rescore(decoding.words, decoding.state_path, item.observations, models)
    if score is None or abs(score - decoding.log_probability) > 1e-9:
        return f"rescored path {score} != log_probability {decoding.log_probability}"
    gen = rescore(item.words, item.state_path, item.observations, models)
    if decoding.log_probability < gen - 1e-9:
        return "log_probability is below the generating alignment's"
    if tuple(decoding.words) != tuple(item.words):
        return "decoded words differ from the unique optimum"
    return None
