import random
import sqlite3

import pytest

from speakql.builder import BoundComparison, ResolvedQuery, generate_sql, resolve
from speakql.errors import DatasetError
from speakql.executor import execute, load_dataset
from speakql.lexer import tokenize
from speakql.parser import Connective, parse
from speakql.schema import JoinPlan, load_schema

import oracles
from conftest import FIXTURES


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
    (tmp_path / "t.csv").write_text("n,a\n1,x\n")
    with pytest.raises(DatasetError) as exc:
        load_dataset(tmp_path, _mini_schema())
    assert "header" in str(exc.value)


def test_unparseable_cell(tmp_path):
    (tmp_path / "t.csv").write_text("a,n\nx,12x\n")
    with pytest.raises(DatasetError) as exc:
        load_dataset(tmp_path, _mini_schema())
    assert "row 2" in str(exc.value)
    assert "'n'" in str(exc.value)


def test_empty_cell_is_null(tmp_path):
    (tmp_path / "t.csv").write_text("a,n\nx,\n")
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
            (data / f"{name}.csv").read_text(), encoding="utf-8"
        )
    (tmp_path / "account.csv").write_text("account_number,branch_name,balance\n")
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


def test_null_comparisons_are_false(tmp_path):
    (tmp_path / "t.csv").write_text("a,n\nx,\ny,5\n")
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


def test_matches_reference_on_randomized_plans(bank_schema, bank_graph, bank_dataset):
    from speakql.schema import join_path

    rng = random.Random(515)
    numeric = [("account", "balance"), ("branch", "assets"), ("loan", "amount")]
    text = [
        ("customer", "customer_name"), ("account", "branch_name"),
        ("depositor", "account_number"), ("borrower", "loan_number"),
    ]
    for _ in range(50):
        refs = rng.sample(numeric + text, rng.randint(1, 3))
        pred = None
        if rng.random() < 0.8:
            table, col = rng.choice(refs)
            is_num = (table, col) in numeric
            if is_num:
                pred = BoundComparison(table, col, rng.choice([">", "<", ">=", "<="]),
                                       rng.choice([700, 1300, 5000]))
            else:
                pred = BoundComparison(table, col, rng.choice(["=", "<>"]),
                                       rng.choice(["Adams", "A-222", "L-16", "Downtown"]))
            if rng.random() < 0.3:
                other = BoundComparison("account", "balance", ">", 600)
                children = rng.choice([(pred, other), (other, pred)])
                pred = Connective(rng.choice(["and", "or"]), *children)
        tables = {t for t, _ in refs}
        if pred is not None:
            tables |= {c.table for c in _comparisons(pred)}
        plan = join_path(bank_graph, tables)
        rq = ResolvedQuery(tuple(refs), pred, plan)
        got = execute(rq, bank_dataset)
        want = oracles.reference_execute(rq, bank_dataset)
        assert list(got.rows) == want


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
    db = sqlite3.connect(":memory:")
    for name, data in bank_dataset.tables.items():
        db.execute(f"CREATE TABLE {name} ({', '.join(data.header)})")
        slots = ", ".join("?" * len(data.header))
        db.executemany(f"INSERT INTO {name} VALUES ({slots})", data.rows)
    from_sqlite = sorted(db.execute(generate_sql(rq).text).fetchall())
    db.close()
    assert sorted(execute(rq, bank_dataset).rows) == from_sqlite == want
