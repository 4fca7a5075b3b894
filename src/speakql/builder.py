"""Clause extraction, table resolution, join planning, and SQL rendering."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from .errors import ResolveError
from .parser import Connective, Predicate, fold_predicate, format_literal
from .schema import join_path, tables_owning

NUMERIC_OPS = (">", "<", ">=", "<=")


@dataclass(frozen=True)
class BoundComparison:
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


def extract_clauses(ir):
    """SELECT and WHERE clause strings with unqualified column names."""
    select_clause = "SELECT " + ", ".join(ir.select_columns)
    if ir.predicate is None:
        return select_clause, None
    where, _ = _render_predicate(ir.predicate, qualify=False)
    return select_clause, "WHERE " + where


def _sql_literal(literal):
    if isinstance(literal, str):
        return "'" + literal.replace("'", "''") + "'"
    return format_literal(literal)


def _render_predicate(pred, qualify):
    """SQL text of a predicate, and whether it has an OR connective.

    SQL binds AND tighter than OR, so a child connective of the other
    kind is parenthesised to keep the IR's grouping."""
    ops = set()

    def leaf(c):
        lhs = f"{c.table}.{c.column}" if qualify else c.column
        return f"{lhs} {c.op} {_sql_literal(c.literal)}", None

    def join(node, left, right):
        ops.add(node.op)
        parts = [
            text if op in (None, node.op) else f"({text})" for text, op in (left, right)
        ]
        return f" {node.op.upper()} ".join(parts), node.op

    text, _ = fold_predicate(pred, leaf, join)
    return text, "or" in ops


def resolve(ir, schema, graph):
    """Bind every column to its owning table and compute the join plan."""

    def owner_of(column):
        if ir.scope_table is not None:
            table = schema.table(ir.scope_table)
            if table is not None and table.column(column) is not None:
                return table.name
            raise ResolveError(
                f"table {ir.scope_table!r} does not own column {column!r}"
            )
        owners = tables_owning(schema, column)
        if not owners:
            raise ResolveError(f"no table owns column {column!r}")
        return owners[0]

    select_refs = tuple((owner_of(c), c) for c in ir.select_columns)
    required = {t for t, _ in select_refs}

    def bind(pred):
        table = owner_of(pred.column)
        kind = schema.table(table).column(pred.column)
        is_number = isinstance(pred.literal, (int, float)) and not isinstance(
            pred.literal, bool
        )
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
        required.add(table)
        return BoundComparison(table, pred.column, pred.op, pred.literal)

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
    multi = len(plan.tables) > 1

    def col_ref(table, column):
        return f"{table}.{column}" if multi else column

    select = "SELECT " + ", ".join(col_ref(t, c) for t, c in rq.select_refs)
    from_clause = "FROM " + ", ".join(plan.tables)

    where_parts = []
    if rq.predicate_refs is not None:
        user, has_or = _render_predicate(rq.predicate_refs, qualify=multi)
        if has_or and plan.conditions:
            user = f"({user})"
        where_parts.append(user)
    for lt, lc, rt, rc in plan.conditions:
        where_parts.append(f"{lt}.{lc} = {rt}.{rc}")

    text = f"{select} {from_clause}"
    if where_parts:
        text += " WHERE " + " AND ".join(where_parts)
    return SqlQuery(text, plan.tables)
