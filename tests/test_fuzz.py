"""Seeded no-traceback fuzz of the CLI, run in process through `cli.main`.

Each case spoils one input of the bank fixture: the schema YAML, the
model YAML, the phoneme file, one CSV file or the query text. The spoiling mixes
byte-level edits (flips, inserts of odd bytes, deletions, repeats) with
edits of whole tokens and lines. Every case must end in exit 0 or in the
documented exit code of a `SpeakqlError`, with one `speakql:` line on
stderr; an exception escaping `main` fails the test.
"""

import os
import random

from speakql.cli import main
from speakql.schema import load_schema

import genqueries
from conftest import FIXTURES

CASES = 300
ERROR_EXITS = {3, 4, 5, 6}

ODD_BYTES = [b"\x00", b"\xff", b"\xe9", b"\xc3", b"\t", b"\r", b"\n", b" ", b"'", b'"',
             b",", b":", b"-", b"[", b"]", b"{", b"}", b"&", b"*", b"!", b"#", b"|", b"%"]
ODD_TOKENS = [b"0", b"-1", b"1e400", b"nan", b".inf", b"null", b"~", b"true", b"[]", b"{}",
              b"''", b"x", b"9" * 40, b"0.0000001", b"[[[]]]", b"{a: b}", b"!!binary AA=="]


def mutate(rng, data):
    """One to three random edits of `data`, a bytes object."""
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(data) + 1)
        j = min(len(data), i + rng.randint(1, 8))
        edit = rng.randrange(7)
        if edit == 0:  # flip one byte to any value
            data = data[:i] + bytes([rng.randrange(256)]) + data[i + 1:]
        elif edit == 1:
            data = data[:i] + rng.choice(ODD_BYTES) + data[i:]
        elif edit == 2:
            data = data[:i] + data[j:]
        elif edit == 3:
            data = data[:j] + data[i:j] * rng.randint(1, 3) + data[j:]
        elif edit == 4:  # replace one whitespace-separated token
            words = data.split(b" ")
            words[rng.randrange(len(words))] = rng.choice(ODD_TOKENS)
            data = b" ".join(words)
        elif edit == 5:  # drop or repeat a line
            lines = data.split(b"\n")
            k = rng.randrange(len(lines))
            lines[k:k + 1] = [] if rng.random() < 0.5 else [lines[k]] * 2
            data = b"\n".join(lines)
        else:
            data = data[:i]
    return data


def test_spoiled_inputs_never_raise(tmp_path, capsys):
    files = {
        path.relative_to(FIXTURES).as_posix(): path.read_bytes()
        for path in sorted(FIXTURES.rglob("*")) if path.is_file()
    }
    tables = [f for f in files if f.endswith(".csv")]
    for name, data in files.items():
        (tmp_path / name).parent.mkdir(exist_ok=True)
        (tmp_path / name).write_bytes(data)
    schema = load_schema(files["schema.yaml"].decode())
    rng = random.Random(8)
    outcomes = {}
    for _ in range(CASES):
        query = genqueries.render(genqueries.random_query(rng, schema)).encode()
        target = rng.choice(["schema.yaml", "models.yaml", "phonemes.txt", "query",
                             rng.choice(tables)])
        spoiled = mutate(rng, query if target == "query" else files[target])
        if target == "query":
            query = spoiled
        else:
            (tmp_path / target).write_bytes(spoiled)
        # argv reaches the program decoded as the OS decodes it
        argv = ["--schema", str(tmp_path / "schema.yaml"), "--data", str(tmp_path / "data")]
        query_text = None
        if target in ("models.yaml", "phonemes.txt") or rng.random() < 0.2:
            argv += ["--models", str(tmp_path / "models.yaml"),
                     "--phonemes", str(tmp_path / "phonemes.txt")]
        else:
            query_text = os.fsdecode(query)
            argv += ["--query", query_text]
        argv += ["--emit", rng.choice(["sql", "ir", "rows"])]

        code = main(argv)
        err = capsys.readouterr().err
        # an empty --query is the usage error of giving no query at all
        usage = code == 2 and query_text == ""
        assert code == 0 or code in ERROR_EXITS or usage, (target, spoiled, argv)
        if code:
            assert [line.startswith("speakql: ") for line in err.splitlines()].count(True) == 1, err
        outcomes[code] = outcomes.get(code, 0) + 1
        if target != "query":
            (tmp_path / target).write_bytes(files[target])
    # the fuzz reaches success and the failures of every stage that can fail
    # from these inputs (a loaded dataset holds every table, so execution cannot)
    assert set(outcomes) >= {0, 3, 4, 5}, outcomes
