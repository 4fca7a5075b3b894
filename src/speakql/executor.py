"""CSV-backed mini executor: nested-loop join, filter, project.

Semantics: Cartesian product of the plan tables filtered by join
conditions and the user predicate, projected to the select list. Any
comparison involving null is false. Loops nest in schema declaration
order, so row order is the lexicographic order of source-row indices.
"""

from __future__ import annotations

import csv
import io
import operator
from dataclasses import dataclass
from itertools import product
from pathlib import Path

from .errors import DatasetError
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


@dataclass(frozen=True)
class Dataset:
    tables: dict  # table name -> TableData, schema declaration order


@dataclass(frozen=True)
class ResultSet:
    columns: tuple[tuple[str, str], ...]  # (table, column)
    rows: tuple


def _parse_cell(raw, column, table_name, row_no):
    if raw == "":
        return None
    if column.value_kind == "text":
        return raw
    try:
        if column.value_kind == "integer":
            return int(raw)
        return float(raw)
    except ValueError:
        raise DatasetError(
            f"{table_name}.csv row {row_no}, column {column.name!r}: "
            f"cannot parse {raw!r} as {column.value_kind}"
        )


def load_dataset(directory, schema):
    """Load `<table>.csv` for every schema table, validating headers and cells."""
    directory = Path(directory)
    tables = {}
    for table in schema.tables:
        path = directory / f"{table.name}.csv"
        if not path.is_file():
            raise DatasetError(f"missing data file {path}")
        with io.open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise DatasetError(f"{path} is empty (header row required)")
            if header != table.column_names:
                raise DatasetError(
                    f"{path}: header {header} does not match schema columns "
                    f"{table.column_names}"
                )
            rows = []
            for row_no, row in enumerate(reader, start=2):
                if len(row) != len(table.columns):
                    raise DatasetError(
                        f"{path} row {row_no}: expected {len(table.columns)} "
                        f"values, got {len(row)}"
                    )
                rows.append(
                    tuple(
                        _parse_cell(raw, col, table.name, row_no)
                        for raw, col in zip(row, table.columns)
                    )
                )
        tables[table.name] = TableData(tuple(header), tuple(rows))
    return Dataset(tables)


def execute(rq, ds):
    """Run the resolved plan against the dataset."""
    plan = rq.join_plan
    for name in plan.tables:
        if name not in ds.tables:
            raise DatasetError(f"table {name!r} not present in dataset")
    # nest loops in dataset (schema declaration) order
    loop_tables = [t for t in ds.tables if t in plan.tables]

    def ref(table, column):
        """(loop position, column index) of a column in a row combination."""
        return loop_tables.index(table), ds.tables[table].header.index(column)

    joins = [ref(lt, lc) + ref(rt, rc) for lt, lc, rt, rc in plan.conditions]
    select = [ref(t, c) for t, c in rq.select_refs]
    # each comparison becomes (loop position, column index, compare, literal)
    pred = rq.predicate_refs
    if pred is not None:
        pred = fold_predicate(
            pred,
            lambda c: ref(c.table, c.column) + (_COMPARE[c.op], c.literal),
            lambda node, left, right: Connective(node.op, left, right),
        )

    def leaf(c):
        """Comparison `c` on the loop's current `combo`; false on null."""
        value = combo[c[0]][c[1]]
        return value is not None and c[2](value, c[3])

    def join(node, left, right):
        return (left and right) if node.op == "and" else (left or right)

    out_rows = []
    for combo in product(*(ds.tables[t].rows for t in loop_tables)):
        for lp, lc, rp, rc in joins:
            value = combo[lp][lc]
            if value is None or value != combo[rp][rc]:
                break
        else:
            if pred is None or fold_predicate(pred, leaf, join):
                out_rows.append(tuple([combo[p][c] for p, c in select]))
    return ResultSet(rq.select_refs, tuple(out_rows))
