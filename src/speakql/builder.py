"""Clause extraction, table resolution, join planning, and SQL rendering."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from .errors import ResolveError
from .parser import Comparison, Connective, format_literal
from .schema import join_path, tables_owning

NUMERIC_OPS = (">", "<", ">=", "<=")


@dataclass(frozen=True)
class BoundComparison:
    table: str
    column: str
    op: str
    literal: Union[int, float, str]


@dataclass(frozen=True)
class BoundConnective:
    op: str
    left: "BoundPredicate"
    right: "BoundPredicate"


BoundPredicate = Union[BoundComparison, BoundConnective]


@dataclass(frozen=True)
class ResolvedQuery:
    select_refs: tuple[tuple[str, str], ...]  # (table, column)
    predicate_refs: Optional[BoundPredicate]
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
    return select_clause, "WHERE " + _render_predicate(ir.predicate, qualify=False)


def _sql_literal(literal):
    if isinstance(literal, str):
        return "'" + literal.replace("'", "''") + "'"
    return format_literal(literal)


def _render_predicate(pred, qualify):
    if isinstance(pred, (Comparison, BoundComparison)):
        if qualify and isinstance(pred, BoundComparison):
            lhs = f"{pred.table}.{pred.column}"
        else:
            lhs = pred.column
        return f"{lhs} {pred.op} {_sql_literal(pred.literal)}"
    left = _render_child(pred.op, pred.left, qualify)
    right = _render_child(pred.op, pred.right, qualify)
    return f"{left} {pred.op.upper()} {right}"


def _render_child(op, child, qualify):
    """SQL binds AND tighter than OR, so a child connective of the other
    kind is parenthesised to keep the IR's grouping."""
    text = _render_predicate(child, qualify)
    if isinstance(child, (Connective, BoundConnective)) and child.op != op:
        return f"({text})"
    return text


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

    def bind(pred):
        if isinstance(pred, Connective):
            return BoundConnective(pred.op, bind(pred.left), bind(pred.right))
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
        return BoundComparison(table, pred.column, pred.op, pred.literal)

    predicate_refs = None if ir.predicate is None else bind(ir.predicate)

    required = {t for t, _ in select_refs}
    required |= _predicate_tables(predicate_refs)
    plan = join_path(graph, required)
    return ResolvedQuery(select_refs, predicate_refs, plan)


def _predicate_tables(pred):
    if pred is None:
        return set()
    if isinstance(pred, BoundComparison):
        return {pred.table}
    return _predicate_tables(pred.left) | _predicate_tables(pred.right)


def _contains_or(pred):
    if pred is None or isinstance(pred, BoundComparison):
        return False
    return pred.op == "or" or _contains_or(pred.left) or _contains_or(pred.right)


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
        user = _render_predicate(rq.predicate_refs, qualify=multi)
        if _contains_or(rq.predicate_refs) and plan.conditions:
            user = f"({user})"
        where_parts.append(user)
    for lt, lc, rt, rc in plan.conditions:
        where_parts.append(f"{lt}.{lc} = {rt}.{rc}")

    text = f"{select} {from_clause}"
    if where_parts:
        text += " WHERE " + " AND ".join(where_parts)
    return SqlQuery(text, plan.tables)
