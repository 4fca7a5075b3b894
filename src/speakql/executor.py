"""CSV-backed mini executor: filter, hash join, residual filter, project.

Semantics: the Cartesian product of the plan tables, filtered by the
join conditions and the user predicate and projected to the select
list. Any comparison involving null is false, so null never joins. Rows
come out in the lexicographic order of source-row indices, tables taken
in the plan's order, which is the FROM order of the emitted SQL.

The product is never enumerated. Each top-level AND conjunct of the
predicate that reads one table filters that table's rows first. Each is
folded to an estimate and the sorted-index ranges of the rows it keeps:
a comparison is bisected, an OR sums and joins its children's, an AND
takes its narrower child's; a comparison that cannot be bisected leaves
its subtree none. If the smallest keeps at most a quarter of the table,
only its ranges' rows are read, and it is tested again on them only if
it holds an AND; else every row is (Selinger et al., 1979; Mohan et al., 1990).
Tables are read smallest first, ties in plan order, and the first that
keeps no row ends the query with no rows, so no larger table is read: an
empty input empties the join (the simplest semijoin reduction, Yannakakis,
1981). Each later table in plan order is then hash-joined to the
combinations so far on its columns that join conditions link to placed
tables: one link keys by its value, several by the tuple of their values;
rows with a null there are left out, and a table with no link has the
empty key, so its one bucket crosses it. In a `join_path` plan every later
table links to one already placed, so no table is crossed. Each step keeps
rows in source order, so no sort is needed. The remaining conjuncts, ORs
that span tables, filter the joined rows, and the select list is built one
column at a time over them (late materialisation, Abadi et al., 2007).
"""

from __future__ import annotations

import csv
import io
import math
import operator
from array import array
from bisect import bisect_left, bisect_right
from contextlib import suppress
from dataclasses import dataclass, field
from pathlib import Path

from .builder import COMPARATORS
from .errors import DatasetError, ResolveError
from .parser import Connective, fold_predicate

_COMPARE = {
    "=": operator.eq,
    "<>": operator.ne,
    ">": operator.gt,
    "<": operator.lt,
    ">=": operator.ge,
    "<=": operator.le,
}


@dataclass(frozen=True)
class TableData:
    header: tuple[str, ...]
    rows: tuple  # tuples of text/int/float/None
    # column position -> that column's index (see _index), built on first use
    indexes: dict = field(default_factory=dict, compare=False, repr=False)


@dataclass(frozen=True)
class Dataset:
    tables: dict  # table name -> TableData, schema declaration order


@dataclass(frozen=True)
class ResultSet:
    columns: tuple[tuple[str, str], ...]  # (table, column)
    rows: tuple


def _finite(raw):
    value = float(raw)
    if math.isfinite(value):  # nan would not even equal itself
        return value
    raise ValueError(raw)


_PARSERS = {"text": str, "integer": int, "real": _finite}


def load_dataset(directory, schema):
    """Load `<table>.csv` for every schema table, validating headers and cells."""
    directory = Path(directory)
    tables = {}
    for table in schema.tables:
        path = directory / f"{table.name}.csv"
        if not path.is_file():
            raise DatasetError(f"missing data file {path}")
        try:
            with io.open(path, "r", encoding="utf-8", newline="") as fh:
                reader = csv.reader(fh)
                header = next(reader, None)
                if header is None:
                    raise DatasetError(f"{path} is empty (header row required)")
                if header != table.column_names:
                    raise DatasetError(
                        f"{path}: header {header} does not match schema columns "
                        f"{table.column_names}"
                    )
                parsers = [_PARSERS[col.value_kind] for col in table.columns]
                rows = []
                for row_no, row in enumerate(reader, start=2):
                    if len(row) != len(table.columns):
                        raise DatasetError(
                            f"{path} row {row_no}: expected {len(table.columns)} "
                            f"values, got {len(row)}"
                        )
                    rows.append(tuple([p(raw) if raw else None for p, raw in zip(parsers, row)]))
        except (OSError, UnicodeDecodeError, csv.Error) as exc:
            raise DatasetError(f"cannot read {path}: {exc}") from exc
        except ValueError:  # raised only by a cell parser: name the first cell that fails
            for col, parse, raw in zip(table.columns, parsers, row):
                try:
                    raw and parse(raw)  # empty cells are null
                except ValueError:
                    raise DatasetError(
                        f"{table.name}.csv row {row_no}, column {col.name!r}: "
                        f"cannot parse {raw!r} as {col.value_kind}"
                    ) from None
        tables[table.name] = TableData(tuple(header), tuple(rows))
    return Dataset(tables)


def _conjuncts(pred, see):
    """Top-level AND conjuncts of `pred`, each a comparison or an OR-rooted
    subtree, paired with the names of the tables its comparisons read;
    `see(table, column)` is called on each comparison's column. An
    operator or a literal that `resolve` rejects raises its `ResolveError`."""
    if pred is None:
        return []

    def leaf(c):
        see(c.table, c.column)
        literal = c.literal
        if isinstance(literal, float) and not math.isfinite(literal):
            raise ResolveError(f"literal {literal!r} is not a finite number")
        if c.op not in COMPARATORS:
            raise ResolveError(f"unknown comparator {c.op!r}")
        if isinstance(literal, bool) or not isinstance(literal, (int, float, str)):
            raise ResolveError(f"literal {literal!r} is neither a number nor a string")
        return [(c, {c.table})]

    def join(node, left, right):
        if node.op == "and":
            left += right
            return left
        if node.op != "or":
            raise ResolveError(f"unknown connective {node.op!r}")
        return [(node, set().union(*(tables for _, tables in left + right)))]

    return fold_predicate(pred, leaf, join)


def _filter(items, pred, index_of):
    """The items, in order, for which `pred` holds; `index_of(c)` is where
    comparison c's value sits in an item. Null fails every comparison."""

    def test(c):
        return operator.itemgetter(index_of(c)), _COMPARE[c.op], c.literal

    if not isinstance(pred, Connective):
        get, compare, literal = test(pred)
        return [x for x in items if (v := get(x)) is not None and compare(v, literal)]

    def leaf(c):
        get, compare, literal = test(c)
        return {
            i for i, x in enumerate(items) if (v := get(x)) is not None and compare(v, literal)
        }

    # the tree folds to sets of item positions, so no closure nests as deep as it
    keep = fold_predicate(
        pred, leaf, lambda node, left, right: left & right if node.op == "and" else left | right
    )
    return [x for i, x in enumerate(items) if i in keep]


def _index(data, col):
    """The positions of the rows whose column col is not null, stably sorted
    by value: built on first use, None if the values do not sort together."""
    if col not in data.indexes:
        rows, data.indexes[col] = data.rows, None
        keep = (i for i, r in enumerate(rows) if r[col] is not None)
        with suppress(TypeError):
            data.indexes[col] = array("i", sorted(keep, key=lambda i: rows[i][col]))
    return data.indexes[col]


def _read(data, conjuncts, index_of):
    """The rows of `data` that pass every conjunct, in order, by the access path above."""
    rows = data.rows

    def leaf(c):  # (rows kept, index spans that hold them, exact), or None
        if (index := _index(data, col := index_of(c))) is None:
            return None
        try:
            lo = bisect_left(index, c.literal, key=(key := lambda i: rows[i][col]))
            hi = bisect_right(index, c.literal, lo, key=key)
        except TypeError:  # the literal does not sort with the column's values
            return None
        n = len(index)
        slices = {"=": [(lo, hi)], "<>": [(0, lo), (hi, n)], "<": [(0, lo)], "<=": [(0, hi)],
                  ">": [(hi, n)], ">=": [(lo, n)]}[c.op]
        return sum(stop - start for start, stop in slices), [(index, s) for s in slices], True

    def join(node, left, right):  # OR: both children's rows; AND: the narrower child's
        if left is None or right is None:
            return None
        if node.op == "and":
            return *min(left, right, key=lambda p: p[0])[:2], False
        left[1].extend(right[1])  # in place, so a long OR chain folds in linear time
        return left[0] + right[0], left[1], left[2] and right[2]

    paths = [(p, c) for c in conjuncts if (p := fold_predicate(c, leaf, join)) is not None]
    if paths and 4 * (path := min(paths, key=lambda p: p[0][0]))[0][0] <= len(rows):
        (_, spans, exact), c = path
        rows = [rows[i] for i in sorted({i for index, (start, stop) in spans
                                         for i in index[start:stop]})]
        conjuncts = [x for x in conjuncts if x is not c or not exact]
    for conjunct in conjuncts:
        rows = _filter(rows, conjunct, index_of)
    return rows


def execute(rq, ds):
    """Run the resolved plan against the dataset."""
    plan = rq.join_plan
    if not rq.select_refs:
        raise ResolveError("the query selects no column")
    for name in plan.tables:
        if name not in ds.tables:
            raise DatasetError(f"table {name!r} not present in dataset")
    # case-insensitive, as in SQL: tables may spell a shared column differently
    positions = {t: {c.lower(): i for i, c in enumerate(ds.tables[t].header)} for t in plan.tables}
    # every column the plan reads, looked up once and before any row is
    # read: (table, column as spelled) -> its position in the table's rows
    column = {}

    def see(table, name):
        if (table, name) not in column:
            if table not in positions:
                raise ResolveError(f"the plan reads table {table!r}, which it does not join")
            if (i := positions[table].get(name.lower())) is None:
                raise DatasetError(f"dataset table {table!r} has no column {name!r}")
            column[table, name] = i

    for t, c in rq.select_refs:
        see(t, c)
    for lt, lc, rt, rc in plan.conditions:
        see(lt, lc)
        see(rt, rc)
    local, residual = {t: [] for t in plan.tables}, []
    for conjunct, tables in _conjuncts(rq.predicate_refs, see):
        (local[[*tables][0]] if len(tables) == 1 else residual).append(conjunct)
    rows = {}
    # smallest first, ties in plan order: a table that keeps no row empties
    # the join, and no larger table is read
    for t in sorted(plan.tables, key=lambda t: len(ds.tables[t].rows)):
        rows[t] = _read(ds.tables[t], local[t], lambda c: column[c.table, c.column])
        if not rows[t]:
            return ResultSet(rq.select_refs, ())

    # a combination concatenates its rows, table t's starting at offset[t]
    first, *rest = plan.tables
    combos, offset, width = rows[first], {first: 0}, len(ds.tables[first].header)
    for t in rest:
        links = [
            (offset[other] + column[other, other_col], column[t, own_col])
            for lt, lc, rt, rc in plan.conditions
            for own, own_col, other, other_col in ((lt, lc, rt, rc), (rt, rc, lt, lc))
            if own == t and other in offset
        ]
        # one link keys by its value; else a leading empty slice makes each
        # key a tuple, for zero links or several
        one = len(links) == 1
        lead = [] if one else [slice(0)]
        probe = operator.itemgetter(*lead, *[placed for placed, _ in links])
        key = operator.itemgetter(*lead, *[own for _, own in links])
        matches = {}
        for r in rows[t]:
            if (k := key(r)) is not None and (one or None not in k):
                matches.setdefault(k, []).append(r)
        combos = [c + r for c, k in zip(combos, map(probe, combos)) for r in matches.get(k, ())]
        offset[t] = width
        width += len(ds.tables[t].header)

    for conjunct in residual:
        combos = _filter(combos, conjunct, lambda c: offset[c.table] + column[c.table, c.column])
    select = [operator.itemgetter(offset[t] + column[t, c]) for t, c in rq.select_refs]
    # one column at a time; a tuple built through a list is not over-allocated
    return ResultSet(rq.select_refs, tuple([*zip(*[map(get, combos) for get in select])]))
