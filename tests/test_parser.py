import random

import pytest

from speakql.errors import QueryParseError, ResolveError, SpeakqlError
from speakql.lexer import tokenize
from speakql.parser import Comparison, Connective, QueryIR, ir_to_text, parse

import genqueries
import oracles


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
        "0." + "0" * 400 + "1",  # a non-zero fraction that rounds to 0.0
        "9223372036854775808",  # 2**63, which sqlite reads as a REAL
        "9223372036854775808.00",
        "-9223372036854775809",
    ],
    ids=["beyond-float-range", "too-many-digits", "underflows-to-zero", "2**63",
         "2**63-decimal", "below-minus-2**63"],
)
def test_unrepresentable_number_literal(bank_lexicon, number):
    with pytest.raises(QueryParseError) as exc:
        parse_text(f"get customer_name whose balance greater than {number}", bank_lexicon)
    assert exc.value.position == 5  # get customer_name whose balance > NUMBER


@pytest.mark.parametrize(
    "number, value",
    [("0.000", 0), ("0." + "0" * 300 + "1", 1e-301), ("9223372036854775807", 2**63 - 1),
     ("-9223372036854775808", -(2**63)), ("9223372036854775808.5", 9223372036854775808.5)],
    ids=["zero", "tiny", "2**63-1", "minus-2**63", "decimal-beyond-2**63"],
)
def test_small_number_literal_kept(bank_lexicon, number, value):
    ir = parse_text(f"get customer_name whose balance equals {number}", bank_lexicon)
    assert ir.predicate.literal == value


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
    assert ir_to_text(ir) == "VP[select(balance), of(account)]"
    text = "get customer_name of depositor whose account_number equals 'A-101'"
    ir = parse_text(text, bank_lexicon)
    assert ir_to_text(ir) == (
        "VP[select(customer_name), of(depositor), where(=(account_number, 'A-101'))]"
    )


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


@pytest.mark.parametrize("literal", [float("inf"), float("-inf"), float("nan")])
def test_ir_to_text_names_non_finite_float_literal(literal):
    with pytest.raises(ResolveError, match=repr(literal)):
        ir_to_text(QueryIR(("x",), None, Comparison("a", "=", literal)))


def test_ir_to_text_string_literal():
    assert ir_to_text(QueryIR(("x",), None, Comparison("a", "=", "Rye"))) == (
        "VP[select(x), where(=(a, 'Rye'))]"
    )


def test_ir_to_text_doubles_inner_quotes(bank_lexicon):
    ir = parse_text('get customer_name whose customer_city equals "O\'Hare"', bank_lexicon)
    assert ir_to_text(ir) == "VP[select(customer_name), where(=(customer_city, 'O''Hare'))]"


def test_grammar_roundtrip_fuzz(bank_schema, bank_lexicon):
    rng = random.Random(4242)
    for _ in range(200):
        text = genqueries.render(genqueries.random_query(rng, bank_schema))
        ir = parse_text(text, bank_lexicon)  # must never raise
        assert ir.select_columns


def test_parse_deterministic(bank_lexicon):
    tokens = tokenize("get customer_name whose balance greater than 3000", bank_lexicon)
    assert parse(tokens) == parse(tokens)


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "at token 0: expected a select verb (get/show/...), found end of query"),
        ("get", "at token 1: expected a column name, found end of query"),
        ("get customer_name and",
         "at token 2: expected a where introducer (whose/where/...), found LOGICAL_AND('and')"),
        ("get customer_name of", "at token 3: expected a table name, found end of query"),
        ("get customer_name whose balance",
         "at token 4: expected a comparator, found end of query"),
        ("get customer_name whose balance greater than",
         "at token 5: expected a number or quoted string, found end of query"),
        ("get customer_name whose balance greater than 5 and",
         "at token 7: expected a column name, found end of query"),
        ("get customer_name whose balance greater than 5 balance",
         "at token 6: expected end of query, found COLUMN('balance')"),
        ("get balance and balance",
         "at token 3: expected distinct select columns, found COLUMN('balance')"),
        ("get customer_name and balance and customer_name whose balance greater than 5",
         "at token 5: expected distinct select columns, found COLUMN('customer_name')"),
    ],
)
def test_parse_error_messages(bank_lexicon, text, message):
    with pytest.raises(QueryParseError) as exc:
        parse_text(text, bank_lexicon)
    assert str(exc.value) == message


def spoil(rng, tokens, pool):
    """Copy of `tokens` with one to three edits: a token deleted, replaced
    or inserted from `pool`, or a pair such as `and balance` repeated."""
    tokens = list(tokens)
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(tokens) + 1)
        edit = rng.randrange(4)
        if edit == 0:
            del tokens[i : i + 1]
        elif edit == 1:
            tokens[i : i + 1] = [rng.choice(pool)]
        elif edit == 2:
            tokens.insert(i, rng.choice(pool))
        else:
            tokens[i:i] = tokens[i : i + 2]
    return tokens


def parse_outcome(parse_tokens, tokens):
    try:
        return parse_tokens(tokens)
    except SpeakqlError as exc:
        return type(exc), exc.position, str(exc)


def test_parse_matches_reference_parser(bank_schema, bank_lexicon):
    pool = tokenize(
        "get balance customer_name account of whose and or greater than equals 5 2.5 'Rye' "
        + "9" * 400 + ".5",
        bank_lexicon,
    )
    rng = random.Random(18)
    for _ in range(5000):
        query = genqueries.render(genqueries.random_query(rng, bank_schema))
        tokens = tokenize(query, bank_lexicon)
        for case in (tokens, spoil(rng, tokens, pool)):
            assert parse_outcome(parse, case) == parse_outcome(oracles.reference_parse, case), case
