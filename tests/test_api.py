import pytest

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
