"""Golden digest of the typed text→SQL path on the bank fixture.

Seeded `genqueries` queries, with noise words, and spoiled copies of
them run through `tokenize`, `parse`, `resolve` and `generate_sql`. For
each text the digest takes the fields of every token, the IR text and
the SQL text, or the class and message of the error that stopped it.
Everything is hashed from field values, never from a `repr`, so a
change to how a record prints or compares leaves the digest alone while
any change to what the path outputs moves it. No bank name is both a
table and a column, so the lexer's rules for such a word are tested in
`test_lexer.py`, not here.
"""

import hashlib
import json
import random
from collections import Counter
from pathlib import Path

from speakql import generate_sql, ir_to_text, parse, resolve, tokenize
from speakql.errors import LexError, QueryParseError, ResolveError, SpeakqlError

import genqueries

DIGEST = Path(__file__).parent / "fixtures" / "pipeline_digest.sha256"
QUERIES = 3000

# units a spoiled copy gains: known names in the wrong place, keywords,
# literals of both kinds, words of no class, and case-folding traps
SPOILERS = [
    "balance", "branch_name", "customer_name", "account", "depositor", "branch", "of",
    "and", "or", "whose", "get", "greater than", "equals", "at most", "7", "-2.50",
    "1.", "'Adams'", '"Rye"', "'", "x", "the", "ſ", "İ", "GREATER THAN", "0.0000001",
]


def spoiled(rng, units):
    out = list(units)
    for _ in range(rng.randint(1, 2)):
        k = rng.randrange(len(out) + 1)
        if out and rng.random() < 0.3:
            del out[min(k, len(out) - 1)]
        else:
            out.insert(k, rng.choice(SPOILERS))
    return out


def texts(schema):
    rng = random.Random(11)
    for _ in range(QUERIES):
        units = genqueries.with_noise(rng, genqueries.random_query(rng, schema),
                                      rng.randint(0, 2))
        yield genqueries.render(units)
        yield genqueries.render(spoiled(rng, units))


def outcome(text, schema, graph, lexicon):
    """The path's output for one text, as JSON-ready field values."""
    try:
        tokens = tokenize(text, lexicon)
        fields = [[t.kind.value, t.source_lexeme, t.target_lexeme, t.position] for t in tokens]
        ir = parse(tokens)
        sql = generate_sql(resolve(ir, schema, graph))
    except SpeakqlError as exc:
        return [type(exc).__name__, str(exc)]
    return [fields, ir_to_text(ir), sql.text, list(sql.tables)]


def test_pipeline_digest_is_unchanged(bank_schema, bank_graph, bank_lexicon):
    digest = hashlib.sha256()
    counts = Counter()
    for text in texts(bank_schema):
        result = outcome(text, bank_schema, bank_graph, bank_lexicon)
        counts[result[0] if isinstance(result[0], str) else "ok"] += 1
        digest.update(json.dumps([text, result]).encode("ascii") + b"\n")
    # every outcome is well represented, so the digest covers each stage
    assert set(counts) == {"ok", LexError.__name__, QueryParseError.__name__,
                           ResolveError.__name__}, counts
    assert min(counts.values()) >= 100, counts
    assert digest.hexdigest() == DIGEST.read_text(encoding="ascii").strip(), counts
