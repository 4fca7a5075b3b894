"""Schema loading, the shared-column graph, and join-path inference.

Names are case-insensitive: the schema's name index, built once,
maps lower-cased table names to tables, each table's column names to
columns, and each column name to one record of its owning tables, each
with its declaration index and `Column`, in binding order (entity first).

Tables are connected whenever they share a column name; joins are
equalities on those shared names. A graph indexes each table's
neighbours once, sorted by name. `join_path` approximates the Steiner
tree greedily: the required tables are taken in declaration order,
and each one not yet selected attaches by one breadth-first search
from it, taking neighbours in name order and stopping at the first
selected table it reaches. Each level's tables are reached in the
lexicographic order of their paths from the new table, so its parent
links give the shortest attaching path and, among those, the
lexicographically smallest one: every tie-break is deterministic.
A graph keeps the plan of each required table set it has planned, up
to `PLANS_KEPT` sets, and hands it back when the set is required again;
a `JoinPlan` is immutable, so queries can share it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property

from .config import load_yaml, section
from .errors import DisconnectedSchemaError, SchemaConfigError

VALUE_KINDS = ("text", "integer", "real")
TABLE_KINDS = ("entity", "relationship")

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
# the join plans a graph keeps, bounded as `builder`'s name caches are
PLANS_KEPT = 1024


@dataclass(frozen=True)
class Column:
    name: str
    value_kind: str  # text | integer | real

    def __post_init__(self):
        if not isinstance(self.name, str) or not _IDENT_RE.match(self.name):
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
        if not isinstance(self.name, str) or not _IDENT_RE.match(self.name):
            raise SchemaConfigError(f"invalid table name {self.name!r}")
        if self.kind not in TABLE_KINDS:
            raise SchemaConfigError(f"unknown table kind {self.kind!r} for {self.name!r}")
        if not isinstance(self.columns, tuple) or not all(
                isinstance(c, Column) for c in self.columns):
            raise SchemaConfigError(f"table {self.name!r}: columns must be a tuple of Column")
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
    # lower-cased column name -> [(declaration index, table, column)] per owner,
    # in binding order: entity tables first, declaration order within each kind
    owners: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not isinstance(self.tables, tuple) or not all(isinstance(t, Table) for t in self.tables):
            raise SchemaConfigError("'tables' must be a tuple of Table")
        if not self.tables:
            raise SchemaConfigError("'tables' must be nonempty")
        for t in self.tables:
            if t.name.lower() in self.tables_by_name:
                raise SchemaConfigError(f"duplicate table name {t.name!r}")
            self.tables_by_name[t.name.lower()] = t
        for i, t in sorted(enumerate(self.tables), key=lambda entry: entry[1].kind != "entity"):
            for name, col in t.columns_by_name.items():
                self.owners.setdefault(name, []).append((i, t, col))

    def table(self, name):
        return self.tables_by_name.get(name.lower())


@dataclass(frozen=True)
class SchemaGraph:
    """Undirected graph: one node per table, edges labeled with shared column names."""

    nodes: tuple[str, ...]  # declaration order
    edges: dict[frozenset, frozenset] = field(hash=False)
    # frozenset of required tables -> its JoinPlan, oldest first, filled by `join_path`
    plans: dict = field(default_factory=dict, init=False, repr=False, compare=False, hash=False)

    def shared_columns(self, a, b):
        return self.edges.get(frozenset((a, b)), frozenset())

    @cached_property
    def adjacency(self):
        """Each table's neighbours, sorted by name."""
        adjacency = {t: [] for t in self.nodes}
        if odd := [sorted(pair) for pair in self.edges if len(pair) != 2]:
            raise ValueError(f"edge key {odd[0]} does not join two tables")
        if unknown := {t for pair in self.edges for t in pair}.difference(adjacency):
            raise ValueError(f"edge table {min(unknown)!r} is not in the schema graph")
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
    """Parse a schema-config document (YAML, strict keys). This checks the
    document's shape; `Column`, `Table` and `Schema` check the names, the
    kinds and that no table list or column list is empty."""
    doc = load_yaml(config_text, SchemaConfigError, "schema config")
    doc = section(doc, dict, "schema config", SchemaConfigError, {"tables"})
    tables = []
    for entry in section(doc.get("tables"), list, "'tables'", SchemaConfigError):
        entry = section(entry, dict, "table entry", SchemaConfigError, {"name", "kind", "columns"})
        where = f"table {entry.get('name')!r}"
        raw_cols = section(entry.get("columns"), list, f"{where} 'columns'", SchemaConfigError)
        columns = []
        for col in raw_cols:
            col = section(col, dict, f"column of {where}", SchemaConfigError, {"name", "type"})
            columns.append(Column(col.get("name"), col.get("type")))
        tables.append(Table(entry.get("name"), entry.get("kind", "entity"), tuple(columns)))
    return Schema(tuple(tables))


def build_graph(schema):
    """Edge between every pair of tables sharing >=1 column name, labelled
    with the earlier-declared table's spellings of the shared names."""
    shared = {}
    for owners in schema.owners.values():
        for i, a in enumerate(owners):
            for b in owners[i + 1 :]:
                shared.setdefault(frozenset((a[1].name, b[1].name)), []).append(min(a, b)[2].name)
    edges = {pair: frozenset(names) for pair, names in shared.items()}
    return SchemaGraph(tuple(t.name for t in schema.tables), edges)


def tables_owning(schema, column_name):
    """The names of all tables containing the column, in a new list:
    entity tables first, then relationship tables, declaration order
    within each group."""
    return [t.name for _, t, _ in schema.owners.get(column_name.lower(), ())]


def _attach(adjacency, selected, table):
    """Shortest path from the `selected` set to `table`, or None if none
    exists. Read from `table` back, it is the lexicographically smallest
    of the shortest paths: one breadth-first search from `table`, taking
    neighbours in name order, stops at the first selected table it reaches."""
    parent, frontier = {table: None}, [table]
    for cur in frontier:  # a list read while it grows: a FIFO queue
        for n in adjacency[cur]:
            if n not in parent:
                parent[n] = cur
                if n in selected:
                    path = [n]
                    while n != table:
                        path.append(n := parent[n])
                    return path
                frontier.append(n)
    return None


def join_path(graph, required):
    """JoinPlan connecting all required tables.

    Greedy Steiner approximation (Takahashi and Matsuyama 1980): start
    from the first required table in declaration order; each later one
    not yet selected attaches by its shortest path to the selected set,
    found by one breadth-first search from that table. Tables are
    listed in the order they were selected, and each path edge adds one
    equality per shared column, sorted by name.

    The graph keeps the plan of each required set it has planned, at most
    `PLANS_KEPT` of them, the oldest dropped first, and hands the same
    plan back when the set is required again. A set it cannot plan raises
    on every call.
    """
    required = frozenset(required)
    if (plan := graph.plans.get(required)) is not None:
        return plan
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

    plan = graph.plans[required] = JoinPlan(tuple(selected), tuple(conditions))
    if len(graph.plans) > PLANS_KEPT:
        del graph.plans[next(iter(graph.plans))]
    return plan
