import os
import random
import re
import sqlite3
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import speakql
from speakql.builder import BoundComparison, ResolvedQuery, generate_sql, resolve
from speakql.errors import ResolveError, SpeakqlError
from speakql.executor import Dataset, TableData, execute, load_dataset
from speakql.lexer import generate_lexicon, tokenize
from speakql.parser import Comparison, Connective, QueryIR, ir_to_text, parse
from speakql.schema import JoinPlan, build_graph, load_schema

import genqueries
from conftest import FIXTURES, UnreadRows

GOLDEN_SQL = (
    "SELECT customer.customer_name FROM customer, depositor, account "
    "WHERE account.balance > 3000 "
    "AND customer.customer_name = depositor.customer_name "
    "AND depositor.account_number = account.account_number"
)


def ir_of(text, lexicon):
    return parse(tokenize(text, lexicon))


def test_resolve_bank_example(bank_schema, bank_graph, bank_lexicon):
    ir = ir_of("get customer_name whose balance greater than 3000", bank_lexicon)
    rq = resolve(ir, bank_schema, bank_graph)
    assert rq.select_refs == (("customer", "customer_name"),)
    assert rq.predicate_refs == BoundComparison("account", "balance", ">", 3000)
    assert rq.join_plan.tables == ("customer", "depositor", "account")


def test_resolve_single_table(bank_schema, bank_graph, bank_lexicon):
    ir = ir_of("get the branch_name", bank_lexicon)
    rq = resolve(ir, bank_schema, bank_graph)
    assert rq.select_refs == (("branch", "branch_name"),)
    assert rq.join_plan.tables == ("branch",)
    assert rq.join_plan.conditions == ()


def test_resolve_scope_table(bank_schema, bank_graph, bank_lexicon):
    ir = ir_of("get branch_name of account", bank_lexicon)
    rq = resolve(ir, bank_schema, bank_graph)
    assert rq.select_refs == (("account", "branch_name"),)


def test_resolve_scope_table_not_owning(bank_schema, bank_graph, bank_lexicon):
    ir = ir_of("get balance of customer", bank_lexicon)
    with pytest.raises(ResolveError):
        resolve(ir, bank_schema, bank_graph)


def test_resolve_unknown_column(bank_schema, bank_graph):
    ir = QueryIR(("no_such",))
    with pytest.raises(ResolveError) as exc:
        resolve(ir, bank_schema, bank_graph)
    assert "no_such" in str(exc.value)


def test_resolve_type_mismatch_numeric_comparator_on_string(bank_schema, bank_graph):
    ir = QueryIR(("customer_name",), None, Comparison("balance", ">", "abc"))
    with pytest.raises(ResolveError):
        resolve(ir, bank_schema, bank_graph)


def test_resolve_type_mismatch_string_column_number_literal(bank_schema, bank_graph):
    ir = QueryIR(("customer_name",), None, Comparison("customer_city", "=", 7))
    with pytest.raises(ResolveError):
        resolve(ir, bank_schema, bank_graph)


def test_resolve_numeric_comparator_on_text_column(bank_schema, bank_graph):
    ir = QueryIR(("customer_name",), None, Comparison("customer_city", ">", 7))
    with pytest.raises(ResolveError):
        resolve(ir, bank_schema, bank_graph)


def test_generate_sql_bank_example(bank_schema, bank_graph, bank_lexicon):
    ir = ir_of("get customer_name whose balance greater than 3000", bank_lexicon)
    sql = generate_sql(resolve(ir, bank_schema, bank_graph))
    assert sql.text == GOLDEN_SQL
    assert sql.tables == ("customer", "depositor", "account")


def test_generate_sql_single_table_unqualified(bank_schema, bank_graph, bank_lexicon):
    ir = ir_of("get the branch_name", bank_lexicon)
    sql = generate_sql(resolve(ir, bank_schema, bank_graph))
    assert sql.text == "SELECT branch_name FROM branch"
    assert "." not in sql.text


def test_generate_sql_joins_without_user_predicate(bank_schema, bank_graph, bank_lexicon):
    ir = ir_of("get customer_name and account_number", bank_lexicon)
    sql = generate_sql(resolve(ir, bank_schema, bank_graph))
    assert sql.text == (
        "SELECT customer.customer_name, account.account_number "
        "FROM customer, depositor, account "
        "WHERE customer.customer_name = depositor.customer_name "
        "AND depositor.account_number = account.account_number"
    )


def test_generate_sql_or_predicate_parenthesized(bank_schema, bank_graph, bank_lexicon):
    ir = ir_of(
        "get customer_name whose balance greater than 3000 or balance less than 100",
        bank_lexicon,
    )
    sql = generate_sql(resolve(ir, bank_schema, bank_graph))
    assert (
        "WHERE (account.balance > 3000 OR account.balance < 100) "
        "AND customer.customer_name = depositor.customer_name" in sql.text
    )


@pytest.mark.parametrize(
    "literal, rendered",
    [
        ("12345678901234567890", "12345678901234567890"),
        ("12345678901234567890.00", "12345678901234567890"),
        ("2.50", "2.5"),
    ],
)
def test_generate_sql_keeps_number_literals_exact(
    literal, rendered, bank_schema, bank_graph, bank_lexicon
):
    ir = ir_of(f"get balance whose balance greater than {literal}", bank_lexicon)
    sql = generate_sql(resolve(ir, bank_schema, bank_graph))
    assert sql.text == f"SELECT balance FROM account WHERE balance > {rendered}"


# literals a hand-built IR may hold and SQL cannot: not finite, or neither
# a number nor a string
UNWRITABLE_LITERALS = [
    True, None, pytest.param(b"x", id="bytes"), pytest.param(("a",), id="tuple"),
]


@pytest.mark.parametrize(
    "literal", [float("inf"), float("-inf"), float("nan"), *UNWRITABLE_LITERALS]
)
def test_resolve_rejects_non_finite_float_literal(bank_schema, bank_graph, literal):
    """A non-finite float, or a literal that is neither a number nor a
    string, is rejected against a numeric and a text column alike."""
    for comparison in (Comparison("balance", ">", literal),
                       Comparison("customer_city", "=", literal)):
        ir = QueryIR(("customer_name",), None, comparison)
        with pytest.raises(ResolveError, match=re.escape(repr(literal))):
            resolve(ir, bank_schema, bank_graph)


def conjunction(*comparisons):
    """The left-grouped AND of the comparisons, as the parser builds it."""
    pred = comparisons[0]
    for c in comparisons[1:]:
        pred = Connective("and", pred, c)
    return pred


# (scope, comparisons whose last one is bad, error text): the bad one's
# column was bound earlier in the query, by the select list or a condition
REPEATED_COLUMN_ERRORS = [
    (None, [("balance", ">", 5), ("balance", "=", "x")],
     "literal 'x' does not match real column 'balance'"),
    (None, [("balance", "=", 5), ("balance", ">", "x")],
     "comparator '>' needs a numeric column and literal; column 'balance' is real, "
     "literal is 'x'"),
    (None, [("branch_name", "=", "x"), ("branch_name", "=", 7)],
     "literal 7 does not match text column 'branch_name'"),
    (None, [("balance", ">", 5), ("balance", "<", float("inf"))],
     "literal inf is not a finite number"),
    (None, [("customer_name", "=", 5)],
     "literal 5 does not match text column 'customer_name'"),
    ("account", [("balance", ">", 5), ("balance", "=", "x")],
     "literal 'x' does not match real column 'balance'"),
    ("account", [("branch_name", "=", "x"), ("balance", "<", 1), ("branch_name", ">", "y")],
     "comparator '>' needs a numeric column and literal; column 'branch_name' is text, "
     "literal is 'y'"),
    ("account", [("balance", ">", 5), ("balance", "<", float("nan"))],
     "literal nan is not a finite number"),
]


@pytest.mark.parametrize("scope, comparisons, error", REPEATED_COLUMN_ERRORS, ids=[
    "kind", "numeric-comparator", "text-kind", "non-finite", "select-column",
    "of-kind", "of-numeric-comparator", "of-non-finite",
])
def test_repeated_column_keeps_its_own_checks(bank_schema, bank_graph, scope, comparisons, error):
    """A column is bound once per query, but each comparison on it still
    checks its own literal and names it in the error."""
    select = ("customer_name",) if scope is None else ("balance",)
    pred = conjunction(*(Comparison(*c) for c in comparisons))
    ir = QueryIR(select, scope, pred)
    with pytest.raises(ResolveError) as exc:
        resolve(ir, bank_schema, bank_graph)
    assert str(exc.value) == error
    if len(comparisons) > 1:  # the same query without the bad comparison resolves
        good = conjunction(*(Comparison(*c) for c in comparisons[:-1]))
        resolve(QueryIR(select, scope, good), bank_schema, bank_graph)


def test_leftmost_bad_comparison_is_reported(bank_schema, bank_graph):
    first, second = Comparison("balance", "=", "first"), Comparison("balance", "=", "second")
    infinite = Comparison("balance", "<", float("inf"))
    first_error = "literal 'first' does not match real column 'balance'"
    for pred, error in (
        (conjunction(Comparison("balance", ">", 1), first, second), first_error),
        (Connective("or", conjunction(first, Comparison("balance", "<", 2)), second), first_error),
        (Connective("and", first, Connective("or", second, infinite)), first_error),
        (conjunction(Comparison("balance", ">", 1), infinite, first),
         "literal inf is not a finite number"),
    ):
        with pytest.raises(ResolveError) as exc:
            resolve(QueryIR(("balance",), None, pred), bank_schema, bank_graph)
        assert str(exc.value) == error


BALANCE_ABOVE_1 = Comparison("balance", ">", 1)


UNKNOWN_OPERATORS = [
    pytest.param(Comparison("balance", "like", 1), "unknown comparator 'like'", id="like"),
    pytest.param(Comparison("balance", "==", 1), "unknown comparator '=='", id="double-equals"),
    pytest.param(Comparison("balance", ["="], 1), "unknown comparator ['=']", id="unhashable"),
    pytest.param(Connective("and", BALANCE_ABOVE_1, Comparison("balance", "!=", 1)),
                 "unknown comparator '!='", id="right-of-and"),
    pytest.param(Connective("xor", BALANCE_ABOVE_1, Comparison("balance", "<", 600)),
                 "unknown connective 'xor'", id="xor"),
    pytest.param(Connective("AND", BALANCE_ABOVE_1, BALANCE_ABOVE_1),
                 "unknown connective 'AND'", id="upper-case"),
    pytest.param(
        Connective("or", BALANCE_ABOVE_1, Connective("nand", BALANCE_ABOVE_1, BALANCE_ABOVE_1)),
        "unknown connective 'nand'", id="nested"),
]


@pytest.mark.parametrize("pred, error", UNKNOWN_OPERATORS)
def test_resolve_rejects_unknown_operators(bank_schema, bank_graph, pred, error):
    """A hand-built IR may hold only the comparators and connectives the
    lexer emits: any other would be written into the SQL as it is, while
    the executor reads no such operator."""
    with pytest.raises(ResolveError) as exc:
        resolve(QueryIR(("balance",), None, pred), bank_schema, bank_graph)
    assert str(exc.value) == error


def test_resolve_rejects_ir_selecting_no_column(bank_schema, bank_graph):
    """A hand-built IR with no select column, which the parser never
    makes, gets a typed error rather than the join planner's for no table."""
    with pytest.raises(ResolveError) as exc:
        resolve(QueryIR(()), bank_schema, bank_graph)
    assert str(exc.value) == "the query selects no column"


def bound_to_account(pred):
    """The IR predicate with each comparison bound to `account`."""
    if isinstance(pred, Connective):
        return Connective(pred.op, bound_to_account(pred.left), bound_to_account(pred.right))
    return BoundComparison("account", pred.column, pred.op, pred.literal)


@pytest.mark.parametrize("pred, error", UNKNOWN_OPERATORS)
def test_sql_and_rows_reject_unknown_operators(bank_dataset, pred, error):
    """A hand-built resolved query gets `resolve`'s error for an operator
    it rejects, else the SQL would write it as it is while the executor
    reads another operator or none."""
    rq = ResolvedQuery((("account", "balance"),), bound_to_account(pred),
                       JoinPlan(("account",), ()))
    for stage in (generate_sql, lambda rq: execute(rq, bank_dataset)):
        with pytest.raises(ResolveError) as exc:
            stage(rq)
        assert str(exc.value) == error


@pytest.mark.parametrize("literal, error", [
    (None, "literal None is neither a number nor a string"),
    (True, "literal True is neither a number nor a string"),
    (b"x", "literal b'x' is neither a number nor a string"),
    (float("inf"), "literal inf is not a finite number"),
    (float("nan"), "literal nan is not a finite number"),
], ids=["none", "bool", "bytes", "inf", "nan"])
def test_execute_rejects_literals_before_reading_rows(literal, error):
    """`execute` rejects a literal that `resolve` rejects before it reads
    a row, else it would compare the rows with it or fail mid-scan."""
    rq = ResolvedQuery((("t", "a"),), BoundComparison("t", "v", ">", literal), JoinPlan(("t",), ()))
    ds = Dataset({"t": TableData(("a", "v"), UnreadRows(((1, 5), (2, 7))))})
    with pytest.raises(ResolveError) as exc:
        execute(rq, ds)
    assert str(exc.value) == error


CASE_VARIANT_SCHEMA = """
tables:
  - name: ta
    columns: [{name: Key, type: integer}, {name: aval, type: text}]
  - name: tb
    columns: [{name: key, type: integer}, {name: bval, type: text}]
"""


@pytest.mark.parametrize("scope, table", [(None, "ta"), ("tb", "tb"), ("TB", "tb")])
def test_case_variants_of_a_column_bind_to_one_table(scope, table):
    """`Key` and `key` are one column: in a hand-built IR that spells it
    both ways, every spelling binds to the same table and keeps its own
    spelling in the bound comparison."""
    schema = load_schema(CASE_VARIANT_SCHEMA)
    pred = conjunction(Comparison("key", "=", 1), Comparison("Key", ">", 0),
                       Comparison("KEY", "<", 9), Comparison("key", "<>", 4))
    rq = resolve(QueryIR(("Key", "key"), scope, pred), schema, build_graph(schema))
    assert rq.select_refs == ((table, "Key"), (table, "key"))
    assert rq.predicate_refs == conjunction(
        BoundComparison(table, "key", "=", 1), BoundComparison(table, "Key", ">", 0),
        BoundComparison(table, "KEY", "<", 9), BoundComparison(table, "key", "<>", 4),
    )
    assert rq.join_plan == JoinPlan((table,), ())


@pytest.mark.parametrize("literal", [float("inf"), float("nan"), *UNWRITABLE_LITERALS])
def test_generate_sql_names_non_finite_float_literal(literal):
    rq = ResolvedQuery((("t", "c"),), BoundComparison("t", "c", ">", literal),
                       JoinPlan(("t",), ()))
    error = ValueError if isinstance(literal, float) else TypeError
    with pytest.raises(error, match=re.escape(repr(literal))):
        generate_sql(rq)


def random_tree(rng, depth, comparison):
    """A hand-built predicate of at most `depth` connective levels, with
    connectives as right children too, which the parser never makes."""
    if depth == 0 or rng.random() < 0.3:
        return comparison(rng.choice(["=", ">"]), rng.randrange(-5, 5))
    return Connective(rng.choice(["and", "or"]), random_tree(rng, depth - 1, comparison),
                      random_tree(rng, depth - 1, comparison))


def reference_sql(pred, parent_op=None):
    if not isinstance(pred, Connective):
        return f"{pred.column} {pred.op} {pred.literal}"
    text = (f"{reference_sql(pred.left, pred.op)} {pred.op.upper()} "
            f"{reference_sql(pred.right, pred.op)}")
    return text if parent_op in (None, pred.op) else f"({text})"


def reference_ir(pred):
    if not isinstance(pred, Connective):
        return f"{pred.op}({pred.column}, {pred.literal})"
    return f"{pred.op}({reference_ir(pred.left)}, {reference_ir(pred.right)})"


def test_hand_built_trees_render_as_by_recursion():
    """SQL and IR text of trees with connectives on both sides equal a
    plain recursive rendering: SQL parenthesises a connective only under
    one of the other kind."""
    rng = random.Random(24)
    for _ in range(300):
        seed = rng.random()
        pred = random_tree(random.Random(seed), 6, lambda op, n: BoundComparison("t", "c", op, n))
        rq = ResolvedQuery((("t", "c"),), pred, JoinPlan(("t",), ()))
        assert generate_sql(rq).text == f"SELECT c FROM t WHERE {reference_sql(pred)}"
        pred = random_tree(random.Random(seed), 6, lambda op, n: Comparison("c", op, n))
        assert ir_to_text(QueryIR(("c",), None, pred)) == (
            f"VP[select(c), where({reference_ir(pred)})]"
        )


def test_generate_sql_string_literal_quote_doubling(bank_schema, bank_graph):
    ir = QueryIR(("customer_name",), None, Comparison("customer_city", "=", "O'Hare"))
    sql = generate_sql(resolve(ir, bank_schema, bank_graph))
    assert "customer_city = 'O''Hare'" in sql.text


def test_sql_whitespace_canon(bank_schema, bank_graph, bank_lexicon):
    ir = ir_of("get customer_name whose balance greater than 3000", bank_lexicon)
    text = generate_sql(resolve(ir, bank_schema, bank_graph)).text
    assert "  " not in text
    assert not text.endswith(" ")
    for kw in ("SELECT", "FROM", "WHERE", "AND"):
        assert kw in text


def test_user_predicate_precedes_join_conditions(bank_schema, bank_graph, bank_lexicon):
    ir = ir_of("get customer_name whose balance greater than 3000", bank_lexicon)
    text = generate_sql(resolve(ir, bank_schema, bank_graph)).text
    assert text.index("account.balance > 3000") < text.index(
        "customer.customer_name = depositor.customer_name"
    )


def test_end_to_end_determinism(bank_schema, bank_graph, bank_lexicon):
    def run():
        ir = ir_of("get customer_name whose balance greater than 3000", bank_lexicon)
        return generate_sql(resolve(ir, bank_schema, bank_graph)).text

    assert len({run() for _ in range(5)}) == 1


def seeded_outputs(count):
    """IR text, SQL and rows of `count` seeded genqueries queries over the
    bank fixture, one line each, or the error a query ends in."""
    schema = load_schema((FIXTURES / "schema.yaml").read_text(encoding="utf-8"))
    graph, lexicon = build_graph(schema), generate_lexicon(schema)
    ds = load_dataset(FIXTURES / "data", schema)
    rng = random.Random(0)
    lines = []
    for _ in range(count):
        query = genqueries.render(genqueries.random_query(rng, schema))
        try:
            ir = parse(tokenize(query, lexicon))
            rq = resolve(ir, schema, graph)
            lines += [ir_to_text(ir), generate_sql(rq).text, repr(execute(rq, ds).rows)]
        except SpeakqlError as exc:
            lines.append(repr(exc))
    return "\n".join(lines)


def test_outputs_do_not_depend_on_hash_seed():
    # string hashing, and so the iteration order of sets of names, changes
    # with PYTHONHASHSEED; no emitted artifact may
    path = [str(Path(speakql.__file__).parents[1]), str(Path(__file__).parent)]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    cmd = [sys.executable, "-c", "import test_builder; print(test_builder.seeded_outputs(1000))"]
    outs = [
        subprocess.run(
            cmd, env=dict(env, PYTHONHASHSEED=seed), capture_output=True, encoding="utf-8",
            check=True, timeout=120,
        ).stdout
        for seed in ("0", "1")
    ]
    assert outs[0] == outs[1]
    assert outs[0].count("\n") > 2000


KEYWORD_SCHEMA = """
tables:
  - name: order
    columns: [{name: from, type: integer}, {name: select, type: text}]
  - name: unique
    columns: [{name: select, type: text}, {name: limit, type: real}]
"""


@pytest.mark.parametrize(
    "text, sql",
    [
        (
            "get select whose from greater than 3",
            'SELECT "select" FROM "order" WHERE "from" > 3',
        ),
        (
            "get from and limit whose from at most 3 or limit less than 2.5",
            'SELECT "order"."from", "unique"."limit" FROM "order", "unique" '
            'WHERE ("order"."from" <= 3 OR "unique"."limit" < 2.5) '
            'AND "order"."select" = "unique"."select"',
        ),
        ("get limit of unique", 'SELECT "limit" FROM "unique"'),
    ],
)
def test_sql_keywords_as_names_are_quoted(tmp_path, text, sql):
    schema = load_schema(KEYWORD_SCHEMA)
    (tmp_path / "order.csv").write_text("from,select\n1,a\n4,b\n5,a\n,c\n", encoding="utf-8")
    (tmp_path / "unique.csv").write_text(
        "select,limit\na,1.5\na,3.0\nb,2.0\n,0.5\n", encoding="utf-8"
    )
    ds = load_dataset(tmp_path, schema)
    rq = resolve(parse(tokenize(text, generate_lexicon(schema))), schema, build_graph(schema))
    assert generate_sql(rq).text == sql
    db = sqlite3.connect(":memory:")
    db.execute('CREATE TABLE "order" ("from" INTEGER, "select" TEXT)')
    db.execute('CREATE TABLE "unique" ("select" TEXT, "limit" REAL)')
    db.executemany('INSERT INTO "order" VALUES (?, ?)', ds.tables["order"].rows)
    db.executemany('INSERT INTO "unique" VALUES (?, ?)', ds.tables["unique"].rows)
    rows = db.execute(sql).fetchall()
    db.close()
    assert Counter(execute(rq, ds).rows) == Counter(rows)
    assert rows
