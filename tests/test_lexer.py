import random

import pytest

from speakql.errors import LexError, LexiconCollisionError
from speakql.lexer import TokenKind, generate_lexicon, tokenize
from speakql.schema import load_schema

import genqueries


def kinds(tokens):
    return [t.kind for t in tokens]


def targets(tokens):
    return [t.target_lexeme for t in tokens]


def test_lexicon_mirrors_schema(bank_schema, bank_lexicon):
    expected_cols = {c.name.lower() for t in bank_schema.tables for c in t.columns}
    expected_tabs = {t.name.lower() for t in bank_schema.tables}
    assert set(bank_lexicon.column_spelling) == expected_cols
    assert set(bank_lexicon.table_spelling) == expected_tabs
    assert "balance" in bank_lexicon.column_spelling
    assert "depositor" in bank_lexicon.table_spelling


def test_reserved_identifier_collision():
    schema = load_schema("tables:\n  - name: t\n    columns: [{name: get, type: text}]\n")
    with pytest.raises(LexiconCollisionError):
        generate_lexicon(schema)


def test_get_the_branch_name(bank_lexicon):
    tokens = tokenize("get the branch_name", bank_lexicon)
    assert kinds(tokens) == [TokenKind.VERB_SELECT, TokenKind.COLUMN]
    assert targets(tokens) == ["select", "branch_name"]
    assert tokens[0].source_lexeme == "get"
    assert tokens[1].position == 2  # "the" dropped but still counted


def test_bank_example_query(bank_lexicon):
    tokens = tokenize(
        "get customer_name whose balance is greater than 3000", bank_lexicon
    )
    assert kinds(tokens) == [
        TokenKind.VERB_SELECT,
        TokenKind.COLUMN,
        TokenKind.WHERE_INTRO,
        TokenKind.COLUMN,
        TokenKind.COMPARATOR,
        TokenKind.NUMBER,
    ]
    assert targets(tokens) == ["select", "customer_name", "where", "balance", ">", "3000"]


def test_unknown_word(bank_lexicon):
    with pytest.raises(LexError) as exc:
        tokenize("get frobnicate", bank_lexicon)
    assert exc.value.word == "frobnicate"
    assert exc.value.position == 1


def test_longest_match_comparator(bank_lexicon):
    tokens = tokenize("get balance whose balance greater than or equal to 10", bank_lexicon)
    comparators = [t for t in tokens if t.kind is TokenKind.COMPARATOR]
    assert len(comparators) == 1
    assert comparators[0].target_lexeme == ">="


@pytest.mark.parametrize(
    "phrase,symbol",
    [
        ("greater than", ">"),
        ("less than", "<"),
        ("equal to", "="),
        ("equals", "="),
        ("not equal to", "<>"),
        ("at least", ">="),
        ("at most", "<="),
        ("less than or equal to", "<="),
    ],
)
def test_comparator_phrases(bank_lexicon, phrase, symbol):
    tokens = tokenize(f"get balance whose balance {phrase} 5", bank_lexicon)
    assert [t.target_lexeme for t in tokens if t.kind is TokenKind.COMPARATOR] == [symbol]


def test_case_insensitive_canonical_spelling(bank_lexicon):
    tokens = tokenize("GET Branch_Name", bank_lexicon)
    assert targets(tokens) == ["select", "branch_name"]


def test_string_literals(bank_lexicon):
    tokens = tokenize("get customer_name whose customer_city equal to 'New York'", bank_lexicon)
    assert tokens[-1].kind is TokenKind.STRING_LITERAL
    assert tokens[-1].target_lexeme == "New York"
    tokens = tokenize('get customer_name whose customer_city equals "Rye"', bank_lexicon)
    assert tokens[-1].target_lexeme == "Rye"


def test_numbers(bank_lexicon):
    tokens = tokenize("get balance whose balance equals -12.5", bank_lexicon)
    assert tokens[-1].kind is TokenKind.NUMBER
    assert tokens[-1].target_lexeme == "-12.5"


def test_table_token(bank_lexicon):
    tokens = tokenize("get balance of account", bank_lexicon)
    assert kinds(tokens) == [
        TokenKind.VERB_SELECT, TokenKind.COLUMN, TokenKind.OF, TokenKind.TABLE,
    ]


def test_normalization_idempotence(bank_lexicon):
    text = "  Get   the  Branch_Name   whose  Assets Greater  Than 100 "
    a = tokenize(text, bank_lexicon)
    b = tokenize(" ".join(text.lower().split()), bank_lexicon)
    assert kinds(a) == kinds(b)
    assert targets(a) == targets(b)


def test_noise_insertion_invariance(bank_schema, bank_lexicon):
    rng = random.Random(99)
    for _ in range(50):
        units = genqueries.random_query(rng, bank_schema)
        base = tokenize(genqueries.render(units), bank_lexicon)
        noisy = tokenize(genqueries.render(genqueries.with_noise(rng, units, 3)), bank_lexicon)
        assert kinds(base) == kinds(noisy)
        assert targets(base) == targets(noisy)


def test_empty_is_fine_but_produces_no_tokens(bank_lexicon):
    assert tokenize("the all is", bank_lexicon) == []
