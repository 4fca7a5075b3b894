"""Table resolution, join planning, and SQL rendering."""

from __future__ import annotations

import functools
from collections import deque
from dataclasses import dataclass
from typing import NamedTuple, Optional, Union

from .errors import ResolveError
from .parser import Connective, Predicate, fold_predicate, format_literal
from .schema import join_path

NUMERIC_OPS = (">", "<", ">=", "<=")

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
    select_refs: tuple[tuple[str, str], ...]  # (table, column)
    predicate_refs: Optional[Predicate]  # Connective tree of BoundComparison
    join_plan: "JoinPlan"


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


def _render_predicate(pred, col_ref):
    """SQL text of a predicate, its columns written by `col_ref`, and
    whether it has an OR connective.

    SQL binds AND tighter than OR, so a child connective of the other
    kind is parenthesised to keep the IR's grouping."""
    ops = set()

    def leaf(c):
        return deque([f"{col_ref(c.table, c.column)} {c.op} {format_literal(c.literal)}"]), None

    def join(node, left, right):  # joined once below, so linear in the text
        ops.add(node.op)
        for parts, op in (left, right):
            if op not in (None, node.op):
                parts.appendleft("(")
                parts.append(")")
        left[0].extend((f" {node.op.upper()} ", *right[0]))
        return left[0], node.op

    parts, _ = fold_predicate(pred, leaf, join)
    return "".join(parts), "or" in ops


def resolve(ir, schema, graph):
    """Bind every column to its owning table and compute the join plan."""
    scope = None if ir.scope_table is None else schema.table(ir.scope_table)

    def owner_of(column):
        """The table the column binds to, and its `Column` there."""
        if ir.scope_table is not None:
            if scope is not None and (col := scope.column(column)) is not None:
                return scope, col
            raise ResolveError(f"table {ir.scope_table!r} does not own column {column!r}")
        owners = schema.binding_owners.get(column.lower())
        if not owners:
            raise ResolveError(f"no table owns column {column!r}")
        return owners[0], owners[0].column(column)

    select_refs = tuple([(owner_of(c)[0].name, c) for c in ir.select_columns])
    required = {t for t, _ in select_refs}

    def bind(pred):
        table, kind = owner_of(pred.column)
        is_number = isinstance(pred.literal, (int, float)) and not isinstance(pred.literal, bool)
        if pred.op in NUMERIC_OPS and (not kind.is_numeric or not is_number):
            raise ResolveError(
                f"comparator {pred.op!r} needs a numeric column and literal; "
                f"column {pred.column!r} is {kind.value_kind}, "
                f"literal is {pred.literal!r}"
            )
        if kind.is_numeric != is_number:
            raise ResolveError(
                f"literal {pred.literal!r} does not match "
                f"{kind.value_kind} column {pred.column!r}"
            )
        required.add(table.name)
        return BoundComparison(table.name, pred.column, pred.op, pred.literal)

    predicate_refs = None
    if ir.predicate is not None:
        predicate_refs = fold_predicate(
            ir.predicate, bind, lambda node, left, right: Connective(node.op, left, right)
        )
    plan = join_path(graph, required)
    return ResolvedQuery(select_refs, predicate_refs, plan)


def generate_sql(rq):
    """Deterministic single-line SQL: user predicate conjuncts first, join
    conditions appended with AND; columns qualified only for multi-table plans."""
    plan = rq.join_plan
    col_ref = _qualified if len(plan.tables) > 1 else lambda table, column: _quote(column)

    select = "SELECT " + ", ".join(col_ref(t, c) for t, c in rq.select_refs)
    from_clause = "FROM " + ", ".join(map(_quote, plan.tables))

    where_parts = []
    if rq.predicate_refs is not None:
        user, has_or = _render_predicate(rq.predicate_refs, col_ref)
        if has_or and plan.conditions:
            user = f"({user})"
        where_parts.append(user)
    for lt, lc, rt, rc in plan.conditions:
        where_parts.append(f"{_qualified(lt, lc)} = {_qualified(rt, rc)}")

    text = f"{select} {from_clause}"
    if where_parts:
        text += " WHERE " + " AND ".join(where_parts)
    return SqlQuery(text, plan.tables)
