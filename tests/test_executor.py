import csv
import io
import random
import sqlite3
import time
from collections import Counter

import pytest

from speakql import executor
from speakql.builder import BoundComparison, ResolvedQuery, generate_sql, resolve
from speakql.cli import main
from speakql.errors import DatasetError, ResolveError
from speakql.executor import Dataset, TableData, execute, load_dataset
from speakql.lexer import generate_lexicon, tokenize
from speakql.parser import Connective, fold_predicate, parse
from speakql.schema import JoinPlan, build_graph, join_path, load_schema

import genqueries
import oracles
from conftest import FIXTURES, UnreadRows


def rq_of(text, bank_schema, bank_graph, bank_lexicon):
    return resolve(parse(tokenize(text, bank_lexicon)), bank_schema, bank_graph)


def test_dataset_loads(bank_dataset, bank_schema):
    assert set(bank_dataset.tables) == {t.name for t in bank_schema.tables}
    assert len(bank_dataset.tables["customer"].rows) == 4
    assert bank_dataset.tables["account"].rows[0] == ("A-101", "Downtown", 500.0)


def test_missing_file(tmp_path, bank_schema):
    with pytest.raises(DatasetError) as exc:
        load_dataset(tmp_path, bank_schema)
    assert "missing data file" in str(exc.value)


def _mini_schema():
    return load_schema(
        "tables:\n"
        "  - name: t\n"
        "    columns: [{name: a, type: text}, {name: n, type: integer}]\n"
    )


def test_header_order_mismatch(tmp_path):
    (tmp_path / "t.csv").write_text("n,a\n1,x\n", encoding="utf-8")
    with pytest.raises(DatasetError) as exc:
        load_dataset(tmp_path, _mini_schema())
    assert "header" in str(exc.value)


def test_unparseable_cell(tmp_path):
    for raw in ("12x", "1.5"):
        (tmp_path / "t.csv").write_text(f"a,n\nx,{raw}\n", encoding="utf-8")
        with pytest.raises(DatasetError) as exc:
            load_dataset(tmp_path, _mini_schema())
        assert str(exc.value) == f"t.csv row 2, column 'n': cannot parse {raw!r} as integer"


@pytest.mark.parametrize("raw", ["nan", "NaN", "inf", "-infinity", "+Infinity", "1e400", "x"])
def test_non_finite_real_cell(tmp_path, raw):
    schema = load_schema(
        "tables:\n"
        "  - name: t\n"
        "    columns: [{name: a, type: text}, {name: r, type: real}]\n"
    )
    (tmp_path / "t.csv").write_text(f"a,r\nx,1.5\ny,{raw}\n", encoding="utf-8")
    with pytest.raises(DatasetError) as exc:
        load_dataset(tmp_path, schema)
    assert str(exc.value) == f"t.csv row 3, column 'r': cannot parse {raw!r} as real"


def test_empty_cell_is_null(tmp_path):
    (tmp_path / "t.csv").write_text("a,n\nx,\n", encoding="utf-8")
    ds = load_dataset(tmp_path, _mini_schema())
    assert ds.tables["t"].rows == (("x", None),)


def test_golden_query_rows(bank_schema, bank_graph, bank_lexicon, bank_dataset):
    rq = rq_of(
        "get customer_name whose balance greater than 3000",
        bank_schema, bank_graph, bank_lexicon,
    )
    result = execute(rq, bank_dataset)
    assert result.columns == (("customer", "customer_name"),)
    assert result.rows == (("Brooks",), ("Davis",))


def test_select_only_full_column(bank_schema, bank_graph, bank_lexicon, bank_dataset):
    rq = rq_of("get the branch_name", bank_schema, bank_graph, bank_lexicon)
    result = execute(rq, bank_dataset)
    assert result.rows == (("Brighton",), ("Downtown",), ("Mianus",))


def test_empty_table_gives_empty_result(tmp_path, bank_schema, bank_graph, bank_lexicon):
    data = FIXTURES / "data"
    for name in ("customer", "branch", "borrower", "depositor", "loan"):
        (tmp_path / f"{name}.csv").write_text(
            (data / f"{name}.csv").read_text(encoding="utf-8"), encoding="utf-8"
        )
    (tmp_path / "account.csv").write_text("account_number,branch_name,balance\n", encoding="utf-8")
    ds = load_dataset(tmp_path, bank_schema)
    rq = rq_of(
        "get customer_name whose balance greater than 3000",
        bank_schema, bank_graph, bank_lexicon,
    )
    assert execute(rq, ds).rows == ()


def test_cartesian_count_without_conditions(bank_dataset):
    rq = ResolvedQuery(
        select_refs=(("customer", "customer_name"), ("branch", "branch_name")),
        predicate_refs=None,
        join_plan=JoinPlan(("customer", "branch"), ()),
    )
    result = execute(rq, bank_dataset)
    assert len(result.rows) == 4 * 3


def test_unlinked_table_crossed_after_pushdown(bank_dataset):
    # no condition links branch, so it is crossed, after its own conjunct
    # has filtered it
    rq = ResolvedQuery(
        select_refs=(("customer", "customer_name"), ("branch", "branch_name")),
        predicate_refs=BoundComparison("branch", "assets", ">", 1_000_000),
        join_plan=JoinPlan(("customer", "branch"), ()),
    )
    want = [(c, b) for c in ("Adams", "Brooks", "Curry", "Davis") for b in ("Brighton", "Downtown")]
    got = list(execute(rq, bank_dataset).rows)
    assert got == oracles.reference_execute(rq, bank_dataset) == want


def test_edge_of_two_shared_columns():
    # ta and tb share k1 and k2, so their one edge gives two conditions;
    # rows have a null in either column, or match on one column only
    schema = load_schema(
        "tables:\n"
        "  - name: ta\n"
        "    columns: [{name: k1, type: integer}, {name: k2, type: text},"
        " {name: aval, type: text}]\n"
        "  - name: tb\n"
        "    columns: [{name: bval, type: text}, {name: k2, type: text},"
        " {name: k1, type: integer}]\n"
    )
    plan = join_path(build_graph(schema), {"ta", "tb"})
    assert len(plan.conditions) == 2
    ta = ((1, "x", "a1"), (None, "x", "a2"), (2, None, "a3"), (1, "y", "a4"), (2, "y", "a5"),
          (1, "x", "a6"))
    tb = (("b1", "x", 1), ("b2", "y", 1), ("b3", None, 2), ("b4", "y", None), ("b5", "x", 1),
          ("b6", "y", 2), ("b7", "x", 2))
    ds = Dataset({"ta": TableData(("k1", "k2", "aval"), ta),
                  "tb": TableData(("bval", "k2", "k1"), tb)})
    rq = ResolvedQuery((("ta", "aval"), ("tb", "bval")), None, plan)
    want = [("a1", "b1"), ("a1", "b5"), ("a4", "b2"), ("a5", "b6"), ("a6", "b1"), ("a6", "b5")]
    assert list(execute(rq, ds).rows) == oracles.reference_execute(rq, ds) == want


def test_later_table_with_two_placed_links(bank_graph):
    # depositor links customer and account; its customer_name matches rows
    # whose account_number then does not
    plan = join_path(bank_graph, {"customer", "account"})
    assert plan.tables == ("customer", "depositor", "account")
    ds = Dataset({
        "customer": TableData(
            ("customer_name", "customer_street", "customer_city"),
            (("Adams", "Main", "Rye"), ("Brooks", "North", "Rye"), ("Curry", "Main", "Rye"),
             (None, "Main", "Rye")),
        ),
        "account": TableData(
            ("account_number", "branch_name", "balance"),
            (("A-1", "Downtown", 500.0), ("A-2", "Mianus", 900.0), ("A-3", "Brighton", 1300.0)),
        ),
        "depositor": TableData(
            ("customer_name", "account_number"),
            (("Adams", "A-1"), ("Adams", "A-9"), ("Brooks", "A-2"), ("Brooks", None),
             ("Curry", "A-3"), (None, "A-3"), ("Davis", "A-1"), ("Curry", "A-1")),
        ),
    })
    select = (("customer", "customer_name"), ("account", "balance"))
    # rows follow the plan's FROM order: customer, then depositor, then account
    rq = ResolvedQuery(select, None, plan)
    want = [("Adams", 500.0), ("Brooks", 900.0), ("Curry", 1300.0), ("Curry", 500.0)]
    assert list(execute(rq, ds).rows) == oracles.reference_execute(rq, ds) == want
    # placed last, depositor is probed through both of its links at once
    hand_built = JoinPlan(("customer", "account", "depositor"), plan.conditions)
    rq = ResolvedQuery(select, None, hand_built)
    want = [("Adams", 500.0), ("Brooks", 900.0), ("Curry", 500.0), ("Curry", 1300.0)]
    assert list(execute(rq, ds).rows) == oracles.reference_execute(rq, ds) == want


def record_reads(monkeypatch):
    """A list that gets (table data, rows kept) for each executor._read call."""
    reads, read = [], executor._read

    def recording(data, conjuncts, index_of):
        rows = read(data, conjuncts, index_of)
        reads.append((data, rows))
        return rows

    monkeypatch.setattr(executor, "_read", recording)
    return reads


def test_empty_input_stops_the_reads(monkeypatch):
    # the small table, later in the plan, keeps no row, so the large one
    # is never read: no call, and no index built for its own conjunct
    big = TableData(("k", "n"), tuple((i % 3, i) for i in range(60)))
    small = TableData(("k", "s"), ((0, "x"), (1, "y"), (2, "z")))
    ds = Dataset({"big": big, "small": small})
    rq = ResolvedQuery(
        (("big", "n"), ("small", "s")),
        Connective("and", BoundComparison("big", "n", "<", 5),
                   BoundComparison("small", "s", "=", "nowhere")),
        JoinPlan(("big", "small"), (("big", "k", "small", "k"),)),
    )
    reads = record_reads(monkeypatch)
    assert execute(rq, ds).rows == () and oracles.reference_execute(rq, ds) == []
    assert [data for data, _ in reads] == [small]
    assert big.indexes == {}


def test_one_link_matches_integer_with_real():
    # an integer key and a real key link by numeric value, as in SQL
    ds = Dataset({"ta": TableData(("k", "a"), ((1, "a1"), (2, "a2"), (3, "a3"))),
                  "tb": TableData(("k", "b"), ((1.0, "b1"), (2.5, "b2"), (3.0, "b3"), (1.0, "b4")))})
    rq = ResolvedQuery((("ta", "a"), ("tb", "b"), ("tb", "k")), None,
                       JoinPlan(("ta", "tb"), (("ta", "k", "tb", "k"),)))
    want = [("a1", "b1", 1.0), ("a1", "b4", 1.0), ("a3", "b3", 3.0)]
    assert list(execute(rq, ds).rows) == oracles.reference_execute(rq, ds) == want
    assert sqlite_rows(ds, generate_sql(rq).text) == want


NO_COLUMN_B = "dataset table 't' has no column 'b'"


LACKING = [
    ((("t", "a"), ("t", "b")), None, JoinPlan(("t",), ()), NO_COLUMN_B),
    ((("t", "a"),), BoundComparison("t", "b", "=", "x"), JoinPlan(("t",), ()), NO_COLUMN_B),
    ((("t", "a"),), None, JoinPlan(("t", "u"), (("t", "b", "u", "k"),)), NO_COLUMN_B),
    ((("v", "a"),), None, JoinPlan(("v",), ()), "table 'v' not present in dataset"),
]


@pytest.mark.parametrize("select, pred, plan, error, rows", [
    *[(*case, (("x",),)) for case in LACKING], *[(*case, ()) for case in LACKING[:3]],
], ids=["select-column", "predicate-column", "join-column", "table",
        "select-column-empty", "predicate-column-empty", "join-column-empty"])
def test_dataset_lacking_what_the_plan_reads(select, pred, plan, error, rows):
    """A dataset not loaded for the plan's schema: a planned table or
    column it lacks is named in a DatasetError, also when a table has no
    rows, which ends the query before any other is read."""
    ds = Dataset({"t": TableData(("a",), rows), "u": TableData(("k",), ((1,),))})
    with pytest.raises(DatasetError) as exc:
        execute(ResolvedQuery(select, pred, plan), ds)
    assert str(exc.value) == error


def _unjoined(table):
    return f"the plan reads table {table!r}, which it does not join"


@pytest.mark.parametrize("select, pred, plan, error", [
    ((("u", "a"),), None, JoinPlan(("t",), ()), _unjoined("u")),
    ((("t", "a"),), BoundComparison("u", "a", "=", 1), JoinPlan(("t",), ()), _unjoined("u")),
    ((("t", "a"),), None, JoinPlan(("t",), (("t", "a", "u", "a"),)), _unjoined("u")),
    ((("t", "a"), ("u", "a")), None, JoinPlan(("t",), (("w", "a", "t", "a"),)), _unjoined("u")),
    ((("t", "a"),), BoundComparison("u", "a", "=", 1), JoinPlan(("t",), (("w", "a", "u", "a"),)),
     _unjoined("w")),
    ((("t", "a"),), Connective("or", BoundComparison("t", "a", "=", 1), Connective(
        "and", BoundComparison("w", "a", "like", 1), BoundComparison("u", "a", "=", 1))),
     JoinPlan(("t",), ()), _unjoined("w")),
    ((("t", "a"),), None, JoinPlan((), ()), _unjoined("t")),
    ((), None, JoinPlan((), ()), "the query selects no column"),
    ((), BoundComparison("u", "a", "=", 1), JoinPlan(("t",), ()), "the query selects no column"),
], ids=["select", "predicate", "join", "select-before-join", "join-before-predicate",
        "predicate-left-to-right", "no-table", "nothing", "no-column"])
def test_plan_reading_a_table_it_does_not_join(select, pred, plan, error):
    """A hand-built query that selects no column, or whose select list,
    join conditions or predicate read a table outside its plan's tables,
    which its SQL's FROM list leaves out: the SQL and the rows get the same
    ResolveError, for the first such read in the select list, the join
    conditions, then the predicate from left to right, before any row is
    read and before the comparison's own operator is checked."""
    ds = Dataset({"t": TableData(("a", "v"), UnreadRows(((1, 5), (2, 7)))),
                  "u": TableData(("a",), ((1,),))})
    rq = ResolvedQuery(select, pred, plan)
    for stage in (generate_sql, lambda rq: execute(rq, ds)):
        with pytest.raises(ResolveError) as exc:
            stage(rq)
        assert str(exc.value) == error


@pytest.mark.parametrize("side", ["probe", "build", "both"])
def test_null_one_link_key_never_joins(side):
    ta = [(1, "a1"), (2, "a2")] + [(None, "a-null")] * (side != "build")
    tb = [(2, "b2"), (1, "b1")] + [(None, "b-null")] * (side != "probe")
    ds = Dataset({"ta": TableData(("k", "a"), tuple(ta)), "tb": TableData(("k", "b"), tuple(tb))})
    rq = ResolvedQuery((("ta", "a"), ("tb", "b")), None,
                       JoinPlan(("ta", "tb"), (("ta", "k", "tb", "k"),)))
    want = [("a1", "b1"), ("a2", "b2")]
    assert list(execute(rq, ds).rows) == oracles.reference_execute(rq, ds) == want


def test_null_comparisons_are_false(tmp_path):
    (tmp_path / "t.csv").write_text("a,n\nx,\ny,5\n", encoding="utf-8")
    ds = load_dataset(tmp_path, _mini_schema())
    rq = ResolvedQuery(
        select_refs=(("t", "a"),),
        predicate_refs=BoundComparison("t", "n", "<>", 99),
        join_plan=JoinPlan(("t",), ()),
    )
    # the null row fails even the <> comparison
    assert execute(rq, ds).rows == (("y",),)


def test_projection_never_invents_values(bank_dataset, bank_schema, bank_graph, bank_lexicon):
    rq = rq_of("get customer_name and balance", bank_schema, bank_graph, bank_lexicon)
    result = execute(rq, bank_dataset)
    names = {r[0] for r in bank_dataset.tables["customer"].rows}
    balances = {r[2] for r in bank_dataset.tables["account"].rows}
    for name, balance in result.rows:
        assert name in names
        assert balance in balances


def test_projection_shapes(bank_dataset):
    """One selected column gives 1-tuples; no rows give the empty tuple,
    with a predicate that keeps none and with a join that matches none."""
    def rows(select, pred, plan):
        return execute(ResolvedQuery(select, pred, plan), bank_dataset).rows

    account = JoinPlan(("account",), ())
    got = rows((("account", "balance"),), BoundComparison("account", "balance", ">", 800), account)
    assert got == tuple((r[2],) for r in bank_dataset.tables["account"].rows if r[2] > 800)
    assert got and all(type(r) is tuple and len(r) == 1 for r in got)
    assert rows((("account", "balance"),), BoundComparison("account", "balance", ">", 1e9),
                account) == ()
    joined = JoinPlan(("account", "depositor"),
                      (("account", "account_number", "depositor", "account_number"),))
    assert rows((("account", "balance"), ("depositor", "customer_name")),
                BoundComparison("depositor", "customer_name", "=", "Nobody"), joined) == ()


def test_matches_reference_on_randomized_plans(bank_schema, bank_graph, bank_dataset,
                                               monkeypatch):
    from speakql.schema import join_path

    rng = random.Random(515)
    numeric = [("account", "balance"), ("branch", "assets"), ("loan", "amount")]
    text = [
        ("customer", "customer_name"), ("account", "branch_name"),
        ("depositor", "account_number"), ("borrower", "loan_number"),
    ]
    reads = record_reads(monkeypatch)
    emptied = Counter()  # joins where a conjunct empties a table: is it the first?
    for _ in range(50):
        refs = rng.sample(numeric + text, rng.randint(1, 3))
        pred = None
        if rng.random() < 0.8:
            table, col = rng.choice(refs)
            is_num = (table, col) in numeric
            # -1, 10**9 and "Nobody" lie outside every table's values
            if is_num:
                pred = BoundComparison(table, col, rng.choice([">", "<", ">=", "<="]),
                                       rng.choice([700, 1300, 5000, -1, 10**9]))
            else:
                pred = BoundComparison(table, col, rng.choice(["=", "<>"]),
                                       rng.choice(["Adams", "A-222", "L-16", "Downtown",
                                                   "Nobody"]))
            if rng.random() < 0.3:
                other = BoundComparison("account", "balance", ">", 600)
                children = rng.choice([(pred, other), (other, pred)])
                pred = Connective(rng.choice(["and", "or"]), *children)
        tables = {t for t, _ in refs}
        if pred is not None:
            tables |= {c.table for c in _comparisons(pred)}
        plan = join_path(bank_graph, tables)
        rq = ResolvedQuery(tuple(refs), pred, plan)
        reads.clear()
        got = execute(rq, bank_dataset)
        want = oracles.reference_execute(rq, bank_dataset)
        assert list(got.rows) == want
        empty = [data for data, rows in reads if not rows]
        if empty and len(plan.tables) > 1:
            emptied[empty[0] is bank_dataset.tables[plan.tables[0]]] += 1
    assert emptied[True] >= 3 and emptied[False] >= 3, emptied


def _comparisons(pred):
    if isinstance(pred, BoundComparison):
        return [pred]
    return _comparisons(pred.left) + _comparisons(pred.right)


@pytest.mark.parametrize(
    "text, want",
    [
        # Read as (balance > 800 or balance < 100) and branch_name = 'Perryridge';
        # no branch is named Perryridge.
        (
            "get account_number whose balance greater than 800 "
            "or balance less than 100 and branch_name equals 'Perryridge'",
            [],
        ),
        (
            "get account_number whose balance greater than 800 "
            "or balance less than 600 and branch_name equals 'Downtown'",
            [("A-101",), ("A-305",)],
        ),
    ],
)
def test_mixed_connectives_agree_with_sqlite(
    text, want, bank_schema, bank_graph, bank_lexicon, bank_dataset
):
    rq = rq_of(text, bank_schema, bank_graph, bank_lexicon)
    from_sqlite = sqlite_rows(bank_dataset, generate_sql(rq).text)
    assert sorted(execute(rq, bank_dataset).rows) == from_sqlite == want


def sqlite_db(ds):
    """An in-memory sqlite database holding the dataset's tables."""
    db = sqlite3.connect(":memory:")
    for name, data in ds.tables.items():
        db.execute(f"CREATE TABLE {name} ({', '.join(data.header)})")
        slots = ", ".join("?" * len(data.header))
        db.executemany(f"INSERT INTO {name} VALUES ({slots})", data.rows)
    return db


def sqlite_rows(ds, sql):
    """Rows sqlite gives for `sql` over the dataset, sorted."""
    db = sqlite_db(ds)
    rows = sorted(db.execute(sql).fetchall())
    db.close()
    return rows


@pytest.mark.parametrize("query", ["get aval and bval", "get bval whose key equals 1"])
def test_case_variant_spellings_of_one_column(tmp_path, capsys, query):
    # `Key` and `key` are one column to the graph and to SQL, which emits
    # ta's spelling for both tables
    (tmp_path / "schema.yaml").write_text(
        "tables:\n"
        "  - name: ta\n"
        "    columns: [{name: Key, type: integer}, {name: aval, type: text}]\n"
        "  - name: tb\n"
        "    columns: [{name: key, type: integer}, {name: bval, type: text}]\n",
        encoding="utf-8",
    )
    (tmp_path / "ta.csv").write_text("Key,aval\n1,x\n2,y\n,z\n", encoding="utf-8")
    (tmp_path / "tb.csv").write_text("key,bval\n1,p\n1,q\n3,r\n,s\n", encoding="utf-8")
    args = ["--schema", str(tmp_path / "schema.yaml"), "--query", query]
    assert main(args) == 0
    sql = capsys.readouterr().out.strip()
    assert "ta.Key = tb.Key" in sql
    assert main(args + ["--data", str(tmp_path), "--emit", "rows", "--format", "csv"]) == 0
    header, *rows = csv.reader(io.StringIO(capsys.readouterr().out))
    schema = load_schema((tmp_path / "schema.yaml").read_text(encoding="utf-8"))
    ds = load_dataset(tmp_path, schema)
    assert sorted(tuple(r) for r in rows) == sqlite_rows(ds, sql)
    assert rows


# Values drawn for generated bank data: few distinct keys, so join keys
# repeat, and numbers on both sides of the literals 700 and 1000.
BANK_VALUES = {
    "customer_name": ("Adams", "Brooks", "Curry"),
    "customer_street": ("Main", "North"),
    "customer_city": ("Harrison", "Rye"),
    "branch_name": ("Brighton", "Downtown", "Mianus"),
    "branch_city": ("Brooklyn", "Horseneck"),
    "account_number": ("A-1", "A-2", "A-3"),
    "loan_number": ("L-1", "L-2", "L-3"),
}
BANK_NUMBERS = (500.0, 700.0, 850.0, 1000.0, 1300.0)


def generated_bank_dataset(rng, schema):
    """0 to 4 rows per bank table; about one cell in seven is empty."""
    tables = {}
    for table in schema.tables:
        rows = tuple(
            tuple(
                None if rng.random() < 0.15
                else rng.choice(BANK_VALUES.get(c.name, BANK_NUMBERS))
                for c in table.columns
            )
            for _ in range(rng.randint(0, 4))
        )
        tables[table.name] = TableData(tuple(table.column_names), rows)
    return Dataset(tables)


def random_comparison(rng, schema):
    """A comparison whose literal is one time in five outside every value
    generated_bank_dataset draws, so that no row may pass it."""
    table = rng.choice(schema.tables)
    column = rng.choice(table.columns)
    outside = rng.random() < 0.2
    if column.is_numeric:
        return BoundComparison(table.name, column.name,
                               rng.choice(["=", "<>", ">", "<", ">=", "<="]),
                               rng.choice([-1, 10**9] if outside else [700, 1000]))
    return BoundComparison(table.name, column.name, rng.choice(["=", "<>"]),
                           "Nobody" if outside else rng.choice(BANK_VALUES[column.name]))


def test_matches_reference_on_generated_data(bank_schema, bank_graph, monkeypatch):
    """Rows and their order equal the nested-loop oracle's, over data with
    nulls and repeated join keys and left-deep AND/OR predicates of 0 to 5
    comparisons that may span tables."""
    rng = random.Random(2024)
    columns = [(t.name, c) for t in bank_schema.tables for c in t.column_names]
    spanning_ors = 0
    reads = record_reads(monkeypatch)
    emptied = Counter()  # joins where a conjunct empties a table: is it the first?
    for _ in range(400):
        ds = generated_bank_dataset(rng, bank_schema)
        select = tuple(rng.sample(columns, rng.randint(1, 3)))
        comparisons = [random_comparison(rng, bank_schema) for _ in range(rng.randint(0, 5))]
        pred = comparisons[0] if comparisons else None
        ops = [rng.choice(["and", "or"]) for _ in comparisons[1:]]
        for op, c in zip(ops, comparisons[1:]):
            pred = Connective(op, pred, c)
        pred_tables = {c.table for c in comparisons}
        spanning_ors += "or" in ops and len(pred_tables) > 1
        plan = join_path(bank_graph, {t for t, _ in select} | pred_tables)
        rq = ResolvedQuery(select, pred, plan)
        reads.clear()
        assert list(execute(rq, ds).rows) == oracles.reference_execute(rq, ds)
        empty = [data for data, rows in reads if not rows and data.rows]
        if empty and len(plan.tables) > 1:
            emptied[empty[0] is ds.tables[plan.tables[0]]] += 1
    assert spanning_ors > 50
    assert emptied[True] >= 10 and emptied[False] >= 10, emptied


def test_hash_join_at_scale():
    """20 000 rows joined to 200 (4 x 10^6 combinations), with a conjunct
    on one table and an OR across both, against rows computed with a dict."""
    schema = load_schema(
        "tables:\n"
        "  - name: sale\n"
        "    columns: [{name: sale_id, type: integer}, {name: store_id, type: integer},"
        " {name: qty, type: integer}]\n"
        "  - name: store\n"
        "    columns: [{name: store_id, type: integer}, {name: city, type: text}]\n"
    )
    rng = random.Random(7)
    cities = ("Rye", "Troy", "Utica")
    stores = [(k, rng.choice(cities)) for k in range(200)]
    # some sales name no store, or a store id that is missing
    sales = [
        (k, None if rng.random() < 0.05 else rng.randrange(210), rng.randrange(100))
        for k in range(20_000)
    ]
    ds = Dataset({"sale": TableData(("sale_id", "store_id", "qty"), tuple(sales)),
                  "store": TableData(("store_id", "city"), tuple(stores))})
    pred = Connective(
        "and",
        BoundComparison("sale", "qty", ">=", 40),
        Connective("or", BoundComparison("store", "city", "=", "Rye"),
                   BoundComparison("sale", "qty", "<", 45)),
    )
    plan = join_path(build_graph(schema), {"sale", "store"})
    rq = ResolvedQuery((("sale", "sale_id"), ("store", "city")), pred, plan)

    city_of = dict(stores)
    want = []
    for sale_id, store_id, qty in sales:
        city = city_of.get(store_id)
        if city is not None and qty >= 40 and (city == "Rye" or qty < 45):
            want.append((sale_id, city))
    got = execute(rq, ds).rows
    assert len(got) > 2000
    assert list(got) == want


def test_golden_shaped_join_at_scale(bank_schema, bank_graph, bank_lexicon):
    """2000 rows a table joined through depositor, which links customer to
    account, against rows computed with dicts in the plan's FROM order;
    crossing customer with the filtered accounts would take seconds."""
    rq = rq_of("get customer_name and balance whose balance greater than 3000",
               bank_schema, bank_graph, bank_lexicon)
    assert rq.join_plan.tables == ("customer", "depositor", "account")
    rng = random.Random(1)
    n = 2000
    names = [None if k % 97 == 0 else f"c{k}" for k in range(n)]
    numbers = [None if k % 89 == 0 else f"A-{k}" for k in range(n)]
    customers = [(name, "Main", "Rye") for name in names]
    accounts = [(number, "Downtown", float(rng.randrange(6000))) for number in numbers]
    depositors = [
        (None if rng.random() < 0.03 else f"c{rng.randrange(n)}",
         None if rng.random() < 0.03 else f"A-{rng.randrange(n)}")
        for _ in range(n)
    ]
    ds = Dataset({
        "customer": TableData(("customer_name", "customer_street", "customer_city"),
                              tuple(customers)),
        "account": TableData(("account_number", "branch_name", "balance"), tuple(accounts)),
        "depositor": TableData(("customer_name", "account_number"), tuple(depositors)),
    })

    linked, balance_of = {}, {}
    for name, number in depositors:
        linked.setdefault(name, []).append(number)
    for number, _, balance in accounts:
        balance_of[number] = balance
    want = [
        (name, balance_of[number])
        for name in names if name is not None
        for number in linked.get(name, ())
        if number is not None and balance_of.get(number, 0) > 3000
    ]
    start = time.perf_counter()
    got = execute(rq, ds).rows
    elapsed = time.perf_counter() - start
    assert len(want) > 500
    assert list(got) == want
    assert elapsed < 0.25


# Text the generated queries compare with ('Adams', 'Rye', 'Main St'),
# beside values they never name; join keys come from small pools, so
# they repeat.
STRADDLE_TEXT = ("Adams", "Rye", "Main St", "Brooks", "North")
BIG_INTEGERS = (2**53 + 1, -(2**53) - 1, 2**62)


def straddling_value(rng, column, literals):
    """A cell for `column`: null, or near one of the queries' numeric
    literals, or for an integer column also an integer past 2^53."""
    if rng.random() < 0.15:
        return None
    if column.value_kind == "text":
        return rng.choice(STRADDLE_TEXT)
    literal = rng.choice(literals)
    if column.value_kind == "integer":
        if rng.random() < 0.2:
            return rng.choice(BIG_INTEGERS)
        return int(literal) + rng.choice((-1, 0, 0, 1))
    return float(literal) + rng.choice((-0.25, 0.0, 0.0, 0.25))


def test_matches_sqlite_on_generated_queries(bank_schema_text):
    """execute's rows equal sqlite's rows for the emitted SQL, as
    multisets, for queries from genqueries over data whose numbers
    straddle the queries' literals."""
    # loan.amount is made an integer column, so it can hold integers past 2^53
    text = bank_schema_text.replace("{name: amount, type: real}", "{name: amount, type: integer}")
    schema = load_schema(text)
    graph, lexicon = build_graph(schema), generate_lexicon(schema)
    rng = random.Random(1)
    compared = multi_table = mixed = nonempty = 0
    for _ in range(40):
        queries = []
        for _ in range(60):
            query = genqueries.render(genqueries.random_query(rng, schema))
            try:
                queries.append(resolve(parse(tokenize(query, lexicon)), schema, graph))
            except ResolveError:
                continue
        literals = [
            literal
            for rq in queries if rq.predicate_refs is not None
            for literal in fold_predicate(rq.predicate_refs, lambda c: [c.literal],
                                          lambda node, left, right: left + right)
            if not isinstance(literal, str)
        ] or [0]
        ds = Dataset({
            t.name: TableData(tuple(t.column_names), tuple(
                tuple(straddling_value(rng, c, literals) for c in t.columns)
                for _ in range(rng.randint(0, 6))
            ))
            for t in schema.tables
        })
        db = sqlite_db(ds)
        for rq in queries:
            sql = generate_sql(rq).text
            got = execute(rq, ds).rows
            assert Counter(got) == Counter(db.execute(sql).fetchall()), sql
            compared += 1
            multi_table += len(rq.join_plan.tables) > 1
            mixed += " AND " in sql and " OR " in sql
            nonempty += bool(got)
        db.close()
    assert compared > 1500 and multi_table > 500 and mixed > 100 and nonempty > 300, (
        compared, multi_table, mixed, nonempty)
