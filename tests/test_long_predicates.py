"""Queries of thousands of mixed AND/OR conditions.

Every stage must get through them without recursing as deep as the
predicate. Outputs are compared with text and rows built here in plain
loops, never with the trees themselves: dataclass equality and the
oracles recurse.
"""

import operator
import os
import random
import time

import pytest

from speakql.builder import generate_sql, resolve
from speakql.cli import main
from speakql.executor import execute
from speakql.lexer import tokenize
from speakql.parser import Comparison, Connective, QueryIR, ir_to_text, parse

from conftest import FIXTURES

SIZES = (1200, 5000)
PHRASE = {
    ">": "greater than", "<": "less than", ">=": "at least", "<=": "at most",
    "=": "equals", "<>": "not equal to",
}
COMPARE = {
    ">": operator.gt, "<": operator.lt, ">=": operator.ge, "<=": operator.le,
    "=": operator.eq, "<>": operator.ne,
}
JOINS = (
    " AND customer.customer_name = depositor.customer_name"
    " AND depositor.account_number = account.account_number"
)


def literal_text(literal):
    return f"'{literal}'" if isinstance(literal, str) else str(literal)


def long_query(n):
    """Query text selecting customer_name under n conditions on account
    columns, and the conditions as (connective or None, column, op, literal)."""
    rng = random.Random(n)
    conds = []
    for k in range(n):
        connective = rng.choice(["and", "or"]) if k else None
        if rng.random() < 0.5:
            conds.append((connective, "balance", rng.choice([">", "<", ">=", "<="]),
                          rng.choice([500, 700, 750, 1000, 3500, 7000])))
        else:
            conds.append((connective, "account_number", rng.choice(["=", "<>"]),
                          rng.choice(["A-101", "A-215", "A-222", "A-305"])))
    words = ["get customer_name whose"]
    for connective, column, op, literal in conds:
        words += [connective or "", column, PHRASE[op], literal_text(literal)]
    return " ".join(words), conds


# The expected texts are built left to right, each opening parenthesis
# counted and prepended once at the end, so they cost linear time too.

def expected_ir(conds):
    opens, body = [], []
    for connective, column, op, literal in conds:
        leaf = f"{op}({column}, {literal_text(literal)})"
        if connective:
            opens.append(f"{connective}(")
            body.append(f", {leaf})")
        else:
            body.append(leaf)
    text = "".join(reversed(opens)) + "".join(body)
    return f"VP[select(customer_name), where({text})]"


def expected_sql(conds):
    opens, body, top = 0, [], None
    for connective, column, op, literal in conds:
        leaf = f"account.{column} {op} {literal_text(literal)}"
        if connective is None:
            body.append(leaf)
            continue
        if top not in (None, connective):
            opens += 1
            body.append(")")
        body.append(f" {connective.upper()} {leaf}")
        top = connective
    assert any(c == "or" for c, *_ in conds)  # so the predicate is parenthesised
    text = "(" * opens + "".join(body)
    return (
        "SELECT customer.customer_name FROM customer, depositor, account "
        f"WHERE ({text}){JOINS}"
    )


def assert_same_text(got, want):
    """Like `assert got == want`, but pytest's diff of texts this long
    would take minutes."""
    if got != want:
        k = len(os.path.commonprefix([got, want]))
        pytest.fail(f"texts differ at offset {k}: {got[k:k + 60]!r} != {want[k:k + 60]!r}")


def holds(conds, account):
    value = None
    for connective, column, op, literal in conds:
        this = COMPARE[op](account[column], literal)
        if connective is None:
            value = this
        else:
            value = (value and this) if connective == "and" else (value or this)
    return value


def expected_rows(conds, ds, holds=holds):
    """Rows in loop order: customer, account, depositor (declaration order)."""
    def records(name):
        data = ds.tables[name]
        return [dict(zip(data.header, row)) for row in data.rows]

    return [
        (c["customer_name"],)
        for c in records("customer")
        for a in records("account")
        for d in records("depositor")
        if c["customer_name"] == d["customer_name"]
        and d["account_number"] == a["account_number"]
        and holds(conds, a)
    ]


@pytest.mark.parametrize("n", SIZES)
def test_long_predicate_through_every_stage(
    n, bank_schema, bank_graph, bank_lexicon, bank_dataset
):
    text, conds = long_query(n)
    ir = parse(tokenize(text, bank_lexicon))
    assert_same_text(ir_to_text(ir), expected_ir(conds))
    rq = resolve(ir, bank_schema, bank_graph)
    assert_same_text(generate_sql(rq).text, expected_sql(conds))
    rows = expected_rows(conds, bank_dataset)
    assert rows  # the predicate keeps some rows
    assert list(execute(rq, bank_dataset).rows) == rows


# A hand-built predicate nested on its right side, c0 op1 (c1 op2 (c2 ...)),
# which the parser never makes: condition k's connective joins condition
# k - 1 to the tree of the conditions from k on.

def right_nested(conds):
    pred = Comparison(*conds[-1][1:])
    for k in range(len(conds) - 1, 0, -1):
        pred = Connective(conds[k][0], Comparison(*conds[k - 1][1:]), pred)
    return pred


def expected_right_ir(conds):
    heads = [
        f"{connective}({op}({column}, {literal_text(literal)}), "
        for (connective, *_), (_, column, op, literal) in zip(conds[1:], conds)
    ]
    _, column, op, literal = conds[-1]
    text = f"{''.join(heads)}{op}({column}, {literal_text(literal)}){')' * len(heads)}"
    return f"VP[select(customer_name), where({text})]"


def expected_right_sql(conds):
    body, opens = [], 0
    for k in range(1, len(conds)):
        connective, (_, column, op, literal) = conds[k][0], conds[k - 1]
        body.append(f"account.{column} {op} {literal_text(literal)} {connective.upper()} ")
        if k + 1 < len(conds) and conds[k + 1][0] != connective:
            body.append("(")
            opens += 1
    _, column, op, literal = conds[-1]
    body.append(f"account.{column} {op} {literal_text(literal)}" + ")" * opens)
    return (
        "SELECT customer.customer_name FROM customer, depositor, account "
        f"WHERE ({''.join(body)}){JOINS}"
    )


def holds_right(conds, account):
    _, column, op, literal = conds[-1]
    value = COMPARE[op](account[column], literal)
    for k in range(len(conds) - 1, 0, -1):
        _, column, op, literal = conds[k - 1]
        this = COMPARE[op](account[column], literal)
        value = (this and value) if conds[k][0] == "and" else (this or value)
    return value


@pytest.mark.parametrize("n", SIZES)
def test_right_nested_predicate_through_every_stage(n, bank_schema, bank_graph, bank_dataset):
    _, conds = long_query(n)
    ir = QueryIR(("customer_name",), None, right_nested(conds))
    assert_same_text(ir_to_text(ir), expected_right_ir(conds))
    rq = resolve(ir, bank_schema, bank_graph)
    assert_same_text(generate_sql(rq).text, expected_right_sql(conds))
    rows = expected_rows(conds, bank_dataset, holds_right)
    assert rows  # the predicate keeps some rows
    assert list(execute(rq, bank_dataset).rows) == rows


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("emit", ["sql", "ir", "rows"])
def test_long_predicate_cli(n, emit, capsys, bank_dataset):
    text, conds = long_query(n)
    code = main([
        "--schema", str(FIXTURES / "schema.yaml"), "--data", str(FIXTURES / "data"),
        "--query", text, "--emit", emit, "--format", "csv",
    ])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    if emit == "sql":
        want = expected_sql(conds)
    elif emit == "ir":
        want = expected_ir(conds)
    else:
        want = "\n".join(["customer.customer_name"] + [
            name for name, in expected_rows(conds, bank_dataset)
        ])
    assert_same_text(captured.out, want + "\n")


def test_rendering_time_is_linear(bank_schema, bank_graph, bank_lexicon):
    # concatenating at each connective took 1.5 s at this size
    text, conds = long_query(20000)
    ir = parse(tokenize(text, bank_lexicon))
    rq = resolve(ir, bank_schema, bank_graph)
    elapsed = []
    for _ in range(3):
        start = time.perf_counter()
        ir_text, sql = ir_to_text(ir), generate_sql(rq).text
        elapsed.append(time.perf_counter() - start)
    assert_same_text(ir_text, expected_ir(conds))
    assert_same_text(sql, expected_sql(conds))
    assert min(elapsed) < 0.2
