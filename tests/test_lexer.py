import random

import pytest

from speakql.errors import LexError, LexiconCollisionError
from speakql.lexer import Lexicon, TokenKind, generate_lexicon, tokenize
from speakql.schema import load_schema

import genqueries
import oracles


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


def test_hand_built_lexicon_tokenizes():
    """A lexicon built from its two spelling maps alone gets the derived
    word table: keywords shadow columns, columns shadow tables except
    right after `of`, and any of them shadows a noise word."""
    lexicon = Lexicon(
        column_spelling={"amount": "Amount", "sale": "SaleId", "and": "And", "the": "The"},
        table_spelling={"sale": "Sale"},
    )
    tokens = tokenize("get Amount and the of SALE whose sale equals 3", lexicon)
    assert [tuple(t) for t in tokens] == [
        (TokenKind.VERB_SELECT, "get", "select", 0),
        (TokenKind.COLUMN, "Amount", "Amount", 1),
        (TokenKind.LOGICAL_AND, "and", "and", 2),
        (TokenKind.COLUMN, "the", "The", 3),
        (TokenKind.OF, "of", "of", 4),
        (TokenKind.TABLE, "SALE", "Sale", 5),
        (TokenKind.WHERE_INTRO, "whose", "where", 6),
        (TokenKind.COLUMN, "sale", "SaleId", 7),
        (TokenKind.COMPARATOR, "equals", "=", 8),
        (TokenKind.NUMBER, "3", "3", 9),
    ]
    with pytest.raises(LexError) as exc:
        tokenize("get amount of balance", lexicon)
    assert (exc.value.word, exc.value.position) == ("balance", 3)


def test_lexicons_with_equal_spellings_are_equal(bank_schema, bank_lexicon):
    """The derived word table takes no part in equality or repr."""
    by_hand = Lexicon(dict(bank_lexicon.column_spelling), dict(bank_lexicon.table_spelling))
    assert by_hand == bank_lexicon == generate_lexicon(bank_schema)
    assert by_hand != Lexicon(dict(bank_lexicon.column_spelling), {})
    assert repr(by_hand) == (
        f"Lexicon(column_spelling={by_hand.column_spelling!r}, "
        f"table_spelling={by_hand.table_spelling!r})"
    )


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


SAME_NAME_SCHEMA = (
    "tables:\n"
    "  - {name: branch, columns: [{name: branch, type: text}, {name: city, type: text}]}\n"
    "  - {name: loan, columns: [{name: branch, type: text}, {name: amount, type: integer}]}\n"
)


@pytest.mark.parametrize(
    "query, expected",
    [
        # after `of` the grammar takes only a table, so a word naming both is one
        ("get city of branch", ["VERB_SELECT", "COLUMN", "OF", "TABLE"]),
        ("get city of the branch", ["VERB_SELECT", "COLUMN", "OF", "TABLE"]),
        ("get branch of loan", ["VERB_SELECT", "COLUMN", "OF", "TABLE"]),
        ("get branch of branch", ["VERB_SELECT", "COLUMN", "OF", "TABLE"]),
        # elsewhere a column wins, as before
        (
            "get city of branch whose branch equals 'x'",
            ["VERB_SELECT", "COLUMN", "OF", "TABLE", "WHERE_INTRO", "COLUMN", "COMPARATOR",
             "STRING_LITERAL"],
        ),
        ("get branch", ["VERB_SELECT", "COLUMN"]),
    ],
)
def test_table_named_like_a_column_after_of(query, expected):
    lexicon = generate_lexicon(load_schema(SAME_NAME_SCHEMA))
    assert [k.value for k in kinds(tokenize(query, lexicon))] == expected


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


def lexed(text, lexicon):
    """tokenize's tokens as tuples, or the unit it rejects and its position."""
    try:
        return [(t.kind.name, t.source_lexeme, t.target_lexeme, t.position)
                for t in tokenize(text, lexicon)]
    except LexError as exc:
        return exc.word, exc.position


def reference_lexed(text, lexicon):
    try:
        return oracles.reference_tokenize(text, lexicon)
    except oracles.UnknownWord as exc:
        return exc.word, exc.position


SEPARATORS = [" ", "  ", "\t", "\n", "\xa0", " \t\n"]
SPOILERS = ["ſ", "İ", "ı", "\u212a", "'", '"', "7", "\u0663", "\ud800", ".", "-", "greater",
            "than", "or", "equal", "to", "less", "at", "most", "not", "of", "branch", "leſs than",
            "at leaſt", "fİnd", "GİVE", "wıth"]


def spoiled(rng, text):
    chars = list(text)
    for _ in range(rng.randint(1, 2)):
        k = rng.randint(0, len(chars))
        piece = rng.choice(SPOILERS)
        if rng.random() < 0.7:  # a unit of its own
            piece = rng.choice(SEPARATORS) + piece + rng.choice(SEPARATORS)
        if chars and rng.random() < 0.3:
            chars[min(k, len(chars) - 1)] = piece
        else:
            chars.insert(k, piece)
    return "".join(chars)


def test_tokenize_matches_reference_lexer(bank_schema, bank_lexicon):
    """Seeded queries, with noise, upper-cased and with odd whitespace
    between words, and spoiled copies of them, against the brute-force
    lexer: equal tokens, or the same unknown word at the same position."""
    rng = random.Random(17)
    texts = []
    for _ in range(300):
        units = genqueries.with_noise(rng, genqueries.random_query(rng, bank_schema),
                                      rng.randint(0, 3))
        texts += [genqueries.render(units), genqueries.render(units).upper(),
                  "".join(rng.choice(SEPARATORS) + u for u in units)]
    texts += [spoiled(rng, rng.choice(texts)) for _ in range(3000)]
    rejected = 0
    for text in texts:
        want = reference_lexed(text, bank_lexicon)
        assert lexed(text, bank_lexicon) == want, text
        rejected += isinstance(want, tuple)
    assert 1000 < rejected < len(texts) - 1000, rejected  # both outcomes well represented


@pytest.mark.parametrize(
    "query, word, position",
    [
        # phrase words fold case as ASCII only: plain IGNORECASE would
        # take `ſ` for `s`, and `İ` and `ı` for `i`
        ("get balance whose balance leſs than 5", "leſs", 4),
        ("fİnd balance", "fİnd", 0),
        ("fınd balance", "fınd", 0),
        # a unit ends only at whitespace
        ("get balance whose balance equals 5'x'", "5'x'", 5),
        ("get balance whose balance equals 1.", "1.", 5),
        # `than'x'` is one unit, so `greater` starts no phrase
        ("get balance whose balance greater than'x'", "greater", 4),
        # a quoted string holding a lone surrogate is an unknown word, whole
        ("get branch_name whose branch_city equals 'New\udc80 York'", "'New\udc80 York'", 5),
    ],
)
def test_rejected_units(bank_lexicon, query, word, position):
    with pytest.raises(LexError) as exc:
        tokenize(query, bank_lexicon)
    assert (exc.value.word, exc.value.position) == (word, position)


@pytest.mark.parametrize(
    "query, source",
    [
        ("get balance whose balance GREATER\xa0THAN 5", "GREATER THAN"),
        ("get balance whose balance greater\t\nthan 5", "greater than"),
    ],
)
def test_phrase_words_are_separated_by_any_whitespace(bank_lexicon, query, source):
    """NBSP and other Unicode whitespace separate phrase words as they
    separate units; the source is the words joined by one space."""
    tokens = tokenize(query, bank_lexicon)
    assert [(t.kind, t.source_lexeme, t.target_lexeme, t.position) for t in tokens[4:]] == [
        (TokenKind.COMPARATOR, source, ">", 4),
        (TokenKind.NUMBER, "5", "5", 6),
    ]


def test_non_ascii_digits_are_a_number(bank_lexicon):
    tokens = tokenize("get balance whose balance equals \u0661\u0662", bank_lexicon)
    assert (tokens[-1].kind, tokens[-1].target_lexeme) == (TokenKind.NUMBER, "\u0661\u0662")
