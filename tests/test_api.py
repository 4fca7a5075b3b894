import pytest

from speakql import Comparison, Connective, Token, TokenKind, parse, tokenize
from speakql.builder import BoundComparison

# the names the package offers at its top level
PUBLIC_NAMES = [
    "Comparison", "Connective", "Dataset", "Decoding", "GrammarFsa", "JoinPlan",
    "Lexicon", "QueryIR", "ResolvedQuery", "ResultSet", "Schema", "SchemaGraph",
    "SpeakqlError", "SqlQuery", "Token", "TokenKind", "WordHmm", "build_graph",
    "decode_sentence", "execute", "generate_lexicon",
    "generate_sql", "ir_to_text", "join_path", "load_dataset", "load_models",
    "load_schema", "parse", "resolve", "tables_owning", "tokenize", "viterbi_word",
]


@pytest.mark.parametrize("name", PUBLIC_NAMES)
def test_public_name_imports(name):
    namespace = {}
    exec(f"from speakql import {name}", namespace)
    assert namespace[name].__module__.startswith("speakql.")


# the flat records: (class, field names in order, values of one instance)
RECORDS = [
    (Token, ("kind", "source_lexeme", "target_lexeme", "position"),
     (TokenKind.COLUMN, "Balance", "balance", 3)),
    (Comparison, ("column", "op", "literal"), ("balance", ">", 3000)),
    (BoundComparison, ("table", "column", "op", "literal"),
     ("account", "balance", ">", 3000)),
]


@pytest.mark.parametrize("cls, fields, values", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_record_contract(cls, fields, values):
    """Tokens, comparisons and bound comparisons hash, compare by value,
    refuse to be changed and, being named tuples, also equal the plain
    tuple of their values."""
    record, twin = cls(*values), cls(*values)
    assert tuple(getattr(record, f) for f in fields) == values
    assert record == twin and hash(record) == hash(twin)
    assert {record: 1}[twin] == 1
    assert record != cls(*values[:-1], "other")
    assert record == values and hash(record) == hash(values)
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(record, field, None)


def test_comparison_never_equals_connective():
    left, right = Comparison("a", "=", 1), Comparison("b", "=", 2)
    comparison = Comparison("and", left, right)
    connective = Connective("and", left, right)
    assert comparison != connective and connective != comparison


def test_parser_output_is_a_dict_key(bank_lexicon):
    text = "get balance whose balance greater than 5 or branch_name equals 'x' and balance at most 9"
    irs = [parse(tokenize(text, bank_lexicon)) for _ in range(2)]
    assert irs[0] is not irs[1]
    assert {irs[0]: "q"}[irs[1]] == "q"
    assert {irs[0].predicate.right: "c"}[irs[1].predicate.right] == "c"
