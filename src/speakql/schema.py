"""Schema loading, the shared-column graph, and join-path inference.

Names are case-insensitive: the schema's name index, built once,
maps lower-cased table names to tables, each table's column names to
columns, and column names to owning tables, both in declaration order
and in the order a column binds to them (entity tables first).

Tables are connected whenever they share a column name; joins are
equalities on those shared names. A graph indexes each table's
neighbours once, sorted by name. `join_path` approximates the Steiner
tree greedily: the required tables are taken in declaration order,
and each one not yet selected attaches by one breadth-first search
outward from the whole selected set. Walking back from the new table,
always to the smallest-named neighbour one step nearer, gives the
shortest attaching path and, among those, the lexicographically
smallest one, so every tie-break is deterministic.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property

from .config import load_yaml, section
from .errors import DisconnectedSchemaError, SchemaConfigError

VALUE_KINDS = ("text", "integer", "real")
TABLE_KINDS = ("entity", "relationship")

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


@dataclass(frozen=True)
class Column:
    name: str
    value_kind: str  # text | integer | real

    def __post_init__(self):
        if not _IDENT_RE.match(self.name):
            raise SchemaConfigError(f"invalid column name {self.name!r}")
        if self.value_kind not in VALUE_KINDS:
            raise SchemaConfigError(
                f"unknown value kind {self.value_kind!r} for column {self.name!r}"
            )

    @property
    def is_numeric(self):
        return self.value_kind in ("integer", "real")


@dataclass(frozen=True)
class Table:
    name: str
    kind: str  # entity | relationship
    columns: tuple[Column, ...]
    columns_by_name: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not _IDENT_RE.match(self.name):
            raise SchemaConfigError(f"invalid table name {self.name!r}")
        if self.kind not in TABLE_KINDS:
            raise SchemaConfigError(f"unknown table kind {self.kind!r} for {self.name!r}")
        if not self.columns:
            raise SchemaConfigError(f"table {self.name!r} has no columns")
        for col in self.columns:
            if col.name.lower() in self.columns_by_name:
                raise SchemaConfigError(f"duplicate column {col.name!r} in table {self.name!r}")
            self.columns_by_name[col.name.lower()] = col

    @property
    def column_names(self):
        return [c.name for c in self.columns]

    def column(self, name):
        return self.columns_by_name.get(name.lower())


@dataclass(frozen=True)
class Schema:
    tables: tuple[Table, ...]
    tables_by_name: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    owners_by_column: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    # the same owners, entity tables first, declaration order within each kind
    binding_owners: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        for t in self.tables:
            if t.name.lower() in self.tables_by_name:
                raise SchemaConfigError(f"duplicate table name {t.name!r}")
            self.tables_by_name[t.name.lower()] = t
            for column_name in t.columns_by_name:
                self.owners_by_column.setdefault(column_name, []).append(t)
        for t in sorted(self.tables, key=lambda t: t.kind != "entity"):
            for column_name in t.columns_by_name:
                self.binding_owners.setdefault(column_name, []).append(t)

    def table(self, name):
        return self.tables_by_name.get(name.lower())


@dataclass(frozen=True)
class SchemaGraph:
    """Undirected graph: one node per table, edges labeled with shared column names."""

    nodes: tuple[str, ...]  # declaration order
    edges: dict[frozenset, frozenset] = field(hash=False)

    def shared_columns(self, a, b):
        return self.edges.get(frozenset((a, b)), frozenset())

    @cached_property
    def adjacency(self):
        """Each table's neighbours, sorted by name."""
        adjacency = {t: [] for t in self.nodes}
        for a, b in self.edges:
            adjacency[a].append(b)
            adjacency[b].append(a)
        return {t: tuple(sorted(neighbours)) for t, neighbours in adjacency.items()}


@dataclass(frozen=True)
class JoinPlan:
    tables: tuple[str, ...]
    # (left table, left column, right table, right column) equalities
    conditions: tuple[tuple[str, str, str, str], ...]


def load_schema(config_text):
    """Parse and validate a schema-config document (YAML, strict keys)."""
    doc = load_yaml(config_text, SchemaConfigError, "schema config")
    doc = section(doc, dict, "schema config", SchemaConfigError, {"tables"})
    raw_tables = section(doc.get("tables"), list, "'tables'", SchemaConfigError)
    if not raw_tables:
        raise SchemaConfigError("'tables' must be nonempty")

    tables = []
    for entry in raw_tables:
        entry = section(entry, dict, "table entry", SchemaConfigError, {"name", "kind", "columns"})
        name = entry.get("name")
        if not isinstance(name, str):
            raise SchemaConfigError(f"table name must be a string, got {name!r}")
        kind = entry.get("kind", "entity")
        where = f"table {name!r}"
        raw_cols = section(entry.get("columns"), list, f"{where} 'columns'", SchemaConfigError)
        columns = []
        for col in raw_cols:
            col = section(col, dict, f"column of {where}", SchemaConfigError, {"name", "type"})
            cname = col.get("name")
            ctype = col.get("type")
            if not isinstance(cname, str) or not isinstance(ctype, str):
                raise SchemaConfigError(f"{where}: column needs string 'name' and 'type'")
            columns.append(Column(cname, ctype))
        tables.append(Table(name, kind, tuple(columns)))
    return Schema(tuple(tables))


def build_graph(schema):
    """Edge between every pair of tables sharing >=1 column name, labelled
    with the earlier-declared table's spellings of the shared names."""
    shared = {}
    for name, owners in schema.owners_by_column.items():
        for i, a in enumerate(owners):
            for b in owners[i + 1 :]:
                shared.setdefault(frozenset((a.name, b.name)), []).append(a.column(name).name)
    edges = {pair: frozenset(names) for pair, names in shared.items()}
    return SchemaGraph(tuple(t.name for t in schema.tables), edges)


def tables_owning(schema, column_name):
    """The names of all tables containing the column, in a new list:
    entity tables first, then relationship tables, declaration order
    within each group."""
    return [t.name for t in schema.binding_owners.get(column_name.lower(), ())]


def _attach(adjacency, selected, table):
    """Shortest path from the `selected` set to `table`, or None if none
    exists. Read from `table` back, it is the lexicographically smallest
    of the shortest paths."""
    dist = dict.fromkeys(selected, 0)
    frontier = deque(selected)
    while table not in dist and frontier:
        cur = frontier.popleft()
        for n in adjacency[cur]:
            if n not in dist:
                dist[n] = dist[cur] + 1
                frontier.append(n)
    if table not in dist:
        return None
    path = [table]
    while dist[path[-1]]:
        nearer = dist[path[-1]] - 1
        path.append(next(n for n in adjacency[path[-1]] if dist.get(n) == nearer))
    return path[::-1]


def join_path(graph, required):
    """JoinPlan connecting all required tables.

    Greedy Steiner approximation (Takahashi and Matsuyama 1980): start
    from the first required table in declaration order; each later one
    not yet selected attaches by its shortest path to the selected set,
    found by one breadth-first search from that whole set. Tables are
    listed in the order they were selected, and each path edge adds one
    equality per shared column, sorted by name.
    """
    required = set(required)
    unknown = required.difference(graph.adjacency)
    if unknown:
        raise ValueError(f"required table {min(unknown)!r} is not in the schema graph")
    order = [t for t in graph.nodes if t in required]
    if not order:
        raise ValueError("required table set is empty")

    selected = dict.fromkeys(order[:1])  # a set kept in selection order
    conditions = []
    for target in order[1:]:
        if target in selected:
            continue
        path = _attach(graph.adjacency, selected, target)
        if path is None:
            raise DisconnectedSchemaError(order[0], target)
        # only path[0] was selected before, so every edge on it is new
        selected.update(dict.fromkeys(path[1:]))
        for left, right in zip(path, path[1:]):
            for col in sorted(graph.shared_columns(left, right)):
                conditions.append((left, col, right, col))

    return JoinPlan(tuple(selected), tuple(conditions))
