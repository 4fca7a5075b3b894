import random

import pytest

from speakql.errors import QueryParseError
from speakql.lexer import tokenize
from speakql.parser import Comparison, Connective, QueryIR, ir_to_text, parse

import genqueries


def parse_text(text, lexicon):
    return parse(tokenize(text, lexicon))


def test_bank_example_ir(bank_lexicon):
    ir = parse_text("get customer_name whose balance greater than 3000", bank_lexicon)
    assert ir == QueryIR(("customer_name",), None, Comparison("balance", ">", 3000))


def test_select_only(bank_lexicon):
    ir = parse_text("get the branch_name", bank_lexicon)
    assert ir == QueryIR(("branch_name",))


def test_noise_word_is_dropped_before_parse(bank_lexicon):
    a = parse_text("get customer_name whose balance is greater than 3000", bank_lexicon)
    b = parse_text("get customer_name whose balance greater than 3000", bank_lexicon)
    assert a == b


def test_missing_verb(bank_lexicon):
    with pytest.raises(QueryParseError) as exc:
        parse_text("balance", bank_lexicon)
    assert exc.value.position == 0
    assert "select verb" in exc.value.expected


@pytest.mark.parametrize(
    "number",
    [
        "9" * 400 + ".5",  # beyond float range
        "9" * 4301,  # more digits than int() converts
    ],
    ids=["beyond-float-range", "too-many-digits"],
)
def test_unrepresentable_number_literal(bank_lexicon, number):
    with pytest.raises(QueryParseError) as exc:
        parse_text(f"get customer_name whose balance greater than {number}", bank_lexicon)
    assert exc.value.position == 5  # get customer_name whose balance > NUMBER


def test_trailing_garbage(bank_lexicon):
    with pytest.raises(QueryParseError):
        parse_text("get balance account", bank_lexicon)


def test_select_list_and(bank_lexicon):
    ir = parse_text("get customer_name and balance", bank_lexicon)
    assert ir.select_columns == ("customer_name", "balance")
    assert ir.predicate is None


def test_select_list_and_rejects_condition_without_where(bank_lexicon):
    # "and balance greater than 5" cannot start before a where introducer
    with pytest.raises(QueryParseError):
        parse_text("get customer_name and balance greater than 5", bank_lexicon)


def test_duplicate_select_columns_rejected(bank_lexicon):
    with pytest.raises(QueryParseError) as exc:
        parse_text("get balance and balance", bank_lexicon)
    assert "distinct" in exc.value.expected


def test_of_table_scope(bank_lexicon):
    ir = parse_text("get balance of account", bank_lexicon)
    assert ir.scope_table == "account"


def test_where_connectives_left_associative(bank_lexicon):
    ir = parse_text(
        "get customer_name whose balance greater than 1 and assets less than 2 "
        "or amount equals 3",
        bank_lexicon,
    )
    pred = ir.predicate
    assert isinstance(pred, Connective) and pred.op == "or"
    assert isinstance(pred.left, Connective) and pred.left.op == "and"
    assert pred.right == Comparison("amount", "=", 3)


def test_condition_requires_literal(bank_lexicon):
    with pytest.raises(QueryParseError) as exc:
        parse_text("get customer_name whose balance greater than balance", bank_lexicon)
    assert "number or quoted string" in exc.value.expected


def test_ir_to_text_bank_example(bank_lexicon):
    ir = parse_text("get customer_name whose balance greater than 3000", bank_lexicon)
    assert ir_to_text(ir) == "VP[select(customer_name), where(>(balance, 3000))]"


def test_ir_to_text_select_only(bank_lexicon):
    ir = parse_text("get the branch_name", bank_lexicon)
    assert ir_to_text(ir) == "VP[select(branch_name)]"


def test_ir_to_text_connective():
    ir = QueryIR(
        ("x",),
        None,
        Connective("and", Comparison("a", ">", 1), Comparison("b", "<", 2)),
    )
    assert ir_to_text(ir) == "VP[select(x), where(and(>(a, 1), <(b, 2)))]"


def test_ir_to_text_number_canonicalization():
    assert ir_to_text(QueryIR(("x",), None, Comparison("a", "=", 2.0))) == (
        "VP[select(x), where(=(a, 2))]"
    )
    assert ir_to_text(QueryIR(("x",), None, Comparison("a", "=", 2.5))) == (
        "VP[select(x), where(=(a, 2.5))]"
    )


def test_ir_to_text_string_literal():
    assert ir_to_text(QueryIR(("x",), None, Comparison("a", "=", "Rye"))) == (
        "VP[select(x), where(=(a, 'Rye'))]"
    )


def test_grammar_roundtrip_fuzz(bank_schema, bank_lexicon):
    rng = random.Random(4242)
    for _ in range(200):
        text = genqueries.render(genqueries.random_query(rng, bank_schema))
        ir = parse_text(text, bank_lexicon)  # must never raise
        assert ir.select_columns


def test_parse_deterministic(bank_lexicon):
    tokens = tokenize("get customer_name whose balance greater than 3000", bank_lexicon)
    assert parse(tokens) == parse(tokens)
