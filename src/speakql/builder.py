"""Table resolution, join planning, and SQL rendering."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Union

from .errors import ResolveError
from .parser import (
    INT64_MAX, INT64_MIN, Connective, Predicate, fold_predicate, format_literal, int64_error,
)
from .schema import join_path

NUMERIC_OPS = (">", "<", ">=", "<=")
# tuples, so that an unhashable operator is unknown rather than a TypeError
COMPARATORS = ("=", "<>", *NUMERIC_OPS)

# Keywords that sqlite will not take as a bare table or column name.
# Names spelled as one of them, in any case, are double-quoted in SQL;
# every other name is emitted as it is.
SQL_KEYWORDS = frozenset("""
    add all alter and as autoincrement between case cast check collate commit
    constraint create current_date current_time current_timestamp default
    deferrable delete distinct drop else escape except exists foreign from
    group having in index insert intersect into is isnull join limit not
    nothing notnull null on or order primary raise references returning
    select set table then to transaction union unique update using values
    when where
""".split())

class BoundComparison(NamedTuple):
    table: str
    column: str
    op: str
    literal: Union[int, float, str]


@dataclass(frozen=True)
class ResolvedQuery:
    """Raises ResolveError when built if it selects no column. The stages
    check the tables that its select list, plan and predicate read."""

    select_refs: tuple[tuple[str, str], ...]  # (table, column)
    predicate_refs: Optional[Predicate]  # Connective tree of BoundComparison
    join_plan: "JoinPlan"

    def __post_init__(self):
        if not self.select_refs:
            raise ResolveError("the query selects no column")


@dataclass(frozen=True)
class SqlQuery:
    text: str
    tables: tuple[str, ...]


# cached because they run for every name of every query, and names repeat
@functools.lru_cache(maxsize=1024)
def _quote(name):
    return f'"{name}"' if name.lower() in SQL_KEYWORDS else name


@functools.lru_cache(maxsize=1024)
def _qualified(table, column):
    return f"{_quote(table)}.{_quote(column)}"


def _render_predicate(pred, col_ref, tables):
    """SQL text of a predicate, its columns written by `col_ref`, and
    whether it has an OR connective. It is written left to right, as
    `ir_to_text` writes the IR, with a child connective of the other kind
    in parentheses to keep the IR's grouping: SQL binds AND tighter than OR.
    A comparison on a table outside `tables`, or with a comparator or literal
    that `resolve` rejects, raises its `ResolveError` in that order, as `execute` does."""
    parts, ops, stack = [], set(), [pred]
    while stack:
        node = stack.pop()
        if type(node) is str:
            parts.append(node)
        elif isinstance(node, Connective):
            op = node.op
            ops.add(op)
            for entry in (node.right, f" {op.upper()} ", node.left):
                if isinstance(entry, Connective) and entry.op != op:
                    stack += (")", entry, "(")
                else:
                    stack.append(entry)
        else:
            if node.table not in tables:
                raise ResolveError(f"the plan reads table {node.table!r}, which it does not join")
            if node.op not in COMPARATORS:
                raise ResolveError(f"unknown comparator {node.op!r}")
            literal = format_literal(node.literal)
            parts.append(f"{col_ref(node.table, node.column)} {node.op} {literal}")
    return "".join(parts), "or" in ops


def resolve(ir, schema, graph):
    """Bind every column to its owning table and compute the join plan.

    Each column, as the query spells it, is bound once per query, the
    first time it is seen; every comparison still checks its own literal."""
    if not ir.select_columns:
        raise ResolveError("the query selects no column")
    scope = None if ir.scope_table is None else schema.table(ir.scope_table)
    bindings = {}  # column -> (table name, is numeric, value kind)

    def bind_column(column):
        """The `of` table, or else the first in the column's owner record."""
        if ir.scope_table is not None:
            if scope is None or (col := scope.column(column)) is None:
                raise ResolveError(f"table {ir.scope_table!r} does not own column {column!r}")
            table = scope
        else:
            owners = schema.owners.get(column.lower())
            if not owners:
                raise ResolveError(f"no table owns column {column!r}")
            _, table, col = owners[0]
        binding = bindings[column] = (table.name, col.is_numeric, col.value_kind)
        return binding

    select_refs = tuple([((bindings.get(c) or bind_column(c))[0], c) for c in ir.select_columns])

    def bind(pred):
        column, op, literal = pred
        table, is_numeric, value_kind = bindings.get(column) or bind_column(column)
        if isinstance(literal, float) and not math.isfinite(literal):
            raise ResolveError(f"literal {literal!r} is not a finite number")
        if isinstance(literal, int) and not INT64_MIN <= literal <= INT64_MAX:
            raise int64_error(literal)
        is_number = isinstance(literal, (int, float)) and not isinstance(literal, bool)
        if op in NUMERIC_OPS:
            if not is_numeric or not is_number:
                raise ResolveError(
                    f"comparator {op!r} needs a numeric column and literal; "
                    f"column {column!r} is {value_kind}, "
                    f"literal is {literal!r}"
                )
        elif op != "=" and op != "<>":  # the lexer emits no other comparator
            raise ResolveError(f"unknown comparator {op!r}")
        if is_numeric != is_number:
            raise ResolveError(
                f"literal {literal!r} does not match {value_kind} column {column!r}"
            )
        if not is_number and not isinstance(literal, str):
            raise ResolveError(f"literal {literal!r} is neither a number nor a string")
        return tuple.__new__(BoundComparison, (table, column, op, literal))

    predicate_refs = None
    if ir.predicate is not None:
        predicate_refs = fold_predicate(
            ir.predicate, bind, lambda node, left, right: Connective(node.op, left, right))
    plan = join_path(graph, {table for table, _, _ in bindings.values()})
    return ResolvedQuery(select_refs, predicate_refs, plan)


def generate_sql(rq):
    """Deterministic single-line SQL: user predicate conjuncts first, join
    conditions appended with AND; columns qualified only for multi-table plans.
    A query that `execute` rejects for a table its plan does not join raises
    the same `ResolveError`, for the same read in the same order."""
    plan = rq.join_plan
    tables = plan.tables
    col_ref = _qualified if len(tables) > 1 else lambda table, column: _quote(column)

    select = []
    for t, c in rq.select_refs:
        if t not in tables:
            raise ResolveError(f"the plan reads table {t!r}, which it does not join")
        select.append(col_ref(t, c))
    where_parts = []
    for lt, lc, rt, rc in plan.conditions:
        if (t := lt) not in tables or (t := rt) not in tables:
            raise ResolveError(f"the plan reads table {t!r}, which it does not join")
        where_parts.append(f"{_qualified(lt, lc)} = {_qualified(rt, rc)}")
    if rq.predicate_refs is not None:
        user, has_or = _render_predicate(rq.predicate_refs, col_ref, tables)
        where_parts.insert(0, f"({user})" if has_or and where_parts else user)

    text = f"SELECT {', '.join(select)} FROM {', '.join(map(_quote, tables))}"
    if where_parts:
        text += " WHERE " + " AND ".join(where_parts)
    return SqlQuery(text, tables)
