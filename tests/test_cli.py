import errno
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

import speakql
from speakql import errors
from speakql.cli import main

from conftest import FIXTURES

SCHEMA = str(FIXTURES / "schema.yaml")
DATA = str(FIXTURES / "data")
MODELS = str(FIXTURES / "models.yaml")
PHONEMES = str(FIXTURES / "phonemes.txt")

GOLDEN_QUERY = "get customer_name whose balance is greater than 3000"
GOLDEN_SQL = (
    "SELECT customer.customer_name FROM customer, depositor, account "
    "WHERE account.balance > 3000 "
    "AND customer.customer_name = depositor.customer_name "
    "AND depositor.account_number = account.account_number"
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_emit_sql(capsys):
    code, out, err = run(capsys, "--schema", SCHEMA, "--query", GOLDEN_QUERY)
    assert code == 0
    assert out == GOLDEN_SQL + "\n"
    assert err == ""


def test_emit_ir(capsys):
    code, out, _ = run(
        capsys, "--schema", SCHEMA, "--query", GOLDEN_QUERY, "--emit", "ir"
    )
    assert code == 0
    assert out == "VP[select(customer_name), where(>(balance, 3000))]\n"


def test_emit_rows_table(capsys):
    code, out, _ = run(
        capsys, "--schema", SCHEMA, "--data", DATA, "--query", GOLDEN_QUERY,
        "--emit", "rows",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "customer.customer_name"
    assert lines[1:] == ["Brooks", "Davis"]


def test_emit_rows_csv(capsys):
    code, out, _ = run(
        capsys, "--schema", SCHEMA, "--data", DATA, "--query", GOLDEN_QUERY,
        "--emit", "rows", "--format", "csv",
    )
    assert code == 0
    assert out == "customer.customer_name\nBrooks\nDavis\n"


def test_usage_error_no_mode(capsys):
    code, out, err = run(capsys, "--schema", SCHEMA)
    assert code == 2
    assert out == ""
    assert "exactly one" in err


def test_usage_error_rows_without_data(capsys):
    code, _, _ = run(capsys, "--schema", SCHEMA, "--query", "x", "--emit", "rows")
    assert code == 2


def test_usage_error_phonemes_without_models(capsys):
    code, _, _ = run(capsys, "--schema", SCHEMA, "--phonemes", PHONEMES)
    assert code == 2


def test_config_error(capsys, tmp_path):
    bad = tmp_path / "schema.yaml"
    bad.write_text("tables: []\n", encoding="utf-8")
    code, out, err = run(capsys, "--schema", str(bad), "--query", "get balance")
    assert code == 3
    assert out == ""
    assert err


# every file given is loaded before the first query, even one it does not need
def test_bad_models_with_query_config_error(capsys, tmp_path):
    models = tmp_path / "models.yaml"
    models.write_text("words: [\n", encoding="utf-8")
    code, out, err = run(
        capsys, "--schema", SCHEMA, "--models", str(models), "--query", GOLDEN_QUERY
    )
    assert code == 3
    assert out == ""
    assert err.startswith("speakql: ") and len(err.splitlines()) == 1


def test_bad_csv_with_emit_sql_config_error(capsys, tmp_path):
    for path in Path(DATA).iterdir():
        (tmp_path / path.name).write_bytes(path.read_bytes())
    (tmp_path / "loan.csv").write_text("wrong,header\n", encoding="utf-8")
    code, out, err = run(
        capsys, "--schema", SCHEMA, "--data", str(tmp_path), "--query", GOLDEN_QUERY,
        "--emit", "sql",
    )
    assert code == 3
    assert out == ""
    assert err.startswith("speakql: ") and "header" in err


def test_translation_error_unknown_word(capsys):
    code, out, err = run(capsys, "--schema", SCHEMA, "--query", "get frobnicate")
    assert code == 4
    assert out == ""
    assert "frobnicate" in err
    assert "position 1" in err


def test_translation_error_parse(capsys):
    code, _, err = run(capsys, "--schema", SCHEMA, "--query", "balance")
    assert code == 4
    assert "expected" in err


@pytest.mark.parametrize(
    "number",
    ["9" * 400 + ".5", "9" * 4301, "0." + "0" * 400 + "1"],
    ids=["beyond-float-range", "too-many-digits", "underflows-to-zero"],
)
def test_translation_error_unrepresentable_number(capsys, number):
    code, out, err = run(
        capsys, "--schema", SCHEMA, "--query", f"get balance whose balance greater than {number}"
    )
    assert code == 4
    assert out == ""
    assert "at token 5" in err  # get balance whose balance > NUMBER


def test_translation_error_disconnected_schema(capsys, tmp_path):
    schema = tmp_path / "schema.yaml"
    schema.write_text(
        "tables:\n"
        "  - {name: city, kind: entity, columns: [{name: city_name, type: text}]}\n"
        "  - {name: river, kind: entity, columns: [{name: river_name, type: text}]}\n",
        encoding="utf-8",
    )
    code, out, err = run(
        capsys, "--schema", str(schema), "--query", "get city_name and river_name",
        "--emit", "sql",
    )
    assert code == 4
    assert out == ""
    assert "not connected" in err


@pytest.mark.parametrize(
    "query, sql",
    [
        ("get city of branch", "SELECT city FROM branch"),
        ("get branch of loan", "SELECT branch FROM loan"),
        ("get city of the branch whose branch equals 'x'",
         "SELECT city FROM branch WHERE branch = 'x'"),
    ],
)
def test_table_named_like_a_column_after_of(capsys, tmp_path, query, sql):
    schema = tmp_path / "schema.yaml"
    schema.write_text(
        "tables:\n"
        "  - {name: branch, columns: [{name: branch, type: text}, {name: city, type: text}]}\n"
        "  - {name: loan, columns: [{name: branch, type: text}, {name: amount, type: integer}]}\n",
        encoding="utf-8",
    )
    assert run(capsys, "--schema", str(schema), "--query", query) == (0, sql + "\n", "")


def test_phoneme_path(capsys):
    code, out, _ = run(
        capsys, "--schema", SCHEMA, "--models", MODELS, "--phonemes", PHONEMES
    )
    assert code == 0
    assert out == "SELECT customer_name FROM customer\n"


def test_decode_error(capsys, tmp_path):
    bad = tmp_path / "phonemes.txt"
    bad.write_text("g eh t\n", encoding="utf-8")  # verb alone is not an accepting sentence
    code, out, err = run(
        capsys, "--schema", SCHEMA, "--models", MODELS, "--phonemes", str(bad)
    )
    assert code == 5
    assert out == ""
    assert err


def test_phonemes_all_decoded_before_output(capsys, tmp_path):
    # the second line fails to decode, so the first line's SQL must not
    # be printed either
    phonemes = tmp_path / "phonemes.txt"
    phonemes.write_text(Path(PHONEMES).read_text(encoding="utf-8") + "g eh t\n", encoding="utf-8")
    code, out, err = run(
        capsys, "--schema", SCHEMA, "--models", MODELS, "--phonemes", str(phonemes)
    )
    assert code == 5
    assert out == ""
    assert len(err.splitlines()) == 1


def test_malformed_models_config_error(capsys, tmp_path):
    models = tmp_path / "models.yaml"
    text = Path(MODELS).read_text(encoding="utf-8")
    assert "arcs:\n" in text
    models.write_text(text.replace("arcs:\n", "arcs:\n    - S0\n", 1), encoding="utf-8")
    code, out, err = run(
        capsys, "--schema", SCHEMA, "--models", str(models), "--phonemes", PHONEMES
    )
    assert code == 3
    assert out == ""
    assert "grammar arc must be a mapping" in err


def test_unreadable_phoneme_file(capsys, tmp_path):
    code, out, err = run(
        capsys, "--schema", SCHEMA, "--models", MODELS,
        "--phonemes", str(tmp_path / "missing.txt"),
    )
    assert code == 3
    assert out == ""
    assert "cannot read" in err


def test_repl(capsys, monkeypatch):
    monkeypatch.setattr(
        "sys.stdin",
        io.StringIO(f"{GOLDEN_QUERY}\nget frobnicate\nget the branch_name\n"),
    )
    code, out, err = run(capsys, "--schema", SCHEMA, "--repl")
    assert code == 0
    assert out.splitlines() == [GOLDEN_SQL, "SELECT branch_name FROM branch"]
    assert "frobnicate" in err  # error reported, REPL continues


def test_repl_line_not_utf8(capsys, monkeypatch):
    # a strict decoder, as Python sets up outside the C/POSIX locale
    raw = b"get \xff\n" + GOLDEN_QUERY.encode() + b"\n"
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8"))
    code, out, err = run(capsys, "--schema", SCHEMA, "--repl")
    assert code == 0
    assert out == GOLDEN_SQL + "\n"
    assert err.startswith("speakql: unknown word") and len(err.splitlines()) == 1


def test_repl_without_stdin(capsys, monkeypatch):
    # Python sets sys.stdin to None when fd 0 is closed at start-up
    monkeypatch.setattr("sys.stdin", None)
    code, out, err = run(capsys, "--schema", SCHEMA, "--repl")
    assert code == 3
    assert out == ""
    assert err.startswith("speakql: ") and len(err.splitlines()) == 1


def unusable_stderr(kind, devnull):
    # Python sets sys.stderr to None when fd 2 is closed at start-up; a
    # file open for reading raises io.UnsupportedOperation on write
    return None if kind == "none" else devnull


@pytest.mark.parametrize("kind", ["none", "read-only"])
def test_unusable_stderr_keeps_exit_code(capsys, monkeypatch, tmp_path, kind):
    with open(os.devnull, encoding="utf-8") as devnull:
        monkeypatch.setattr("sys.stderr", unusable_stderr(kind, devnull))
        code = main(["--schema", str(tmp_path / "missing.yaml"), "--query", "x"])
    assert code == 3
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("kind", ["none", "read-only"])
def test_repl_goes_on_when_stderr_unusable(capsys, monkeypatch, kind):
    monkeypatch.setattr("sys.stdin", io.StringIO(f"get frobnicate\n{GOLDEN_QUERY}\n"))
    with open(os.devnull, encoding="utf-8") as devnull:
        monkeypatch.setattr("sys.stderr", unusable_stderr(kind, devnull))
        code = main(["--schema", SCHEMA, "--repl"])
    assert code == 0
    assert capsys.readouterr().out == GOLDEN_SQL + "\n"


ZURICH_QUERY = "get customer_name whose customer_city equals 'Z\u00fcrich'"


@pytest.mark.parametrize("mode", ["--query", "--repl"])
def test_stdout_cannot_encode(capsys, monkeypatch, mode):
    # a strict ASCII stdout, as PYTHONIOENCODING=ascii sets up
    stdout = io.TextIOWrapper(io.BytesIO(), encoding="ascii")
    monkeypatch.setattr("sys.stdout", stdout)
    lines = f"{GOLDEN_QUERY}\n{ZURICH_QUERY}\n{GOLDEN_QUERY}\n"
    monkeypatch.setattr("sys.stdin", io.StringIO(lines))
    argv = ["--query", ZURICH_QUERY] if mode == "--query" else ["--repl"]
    code = main(["--schema", SCHEMA, *argv])
    err = capsys.readouterr().err
    assert code == 6
    assert err.startswith("speakql: cannot write output") and len(err.splitlines()) == 1
    # the REPL wrote the first query's SQL and stopped at the second
    expected = b"" if mode == "--query" else GOLDEN_SQL.encode() + b"\n"
    assert stdout.buffer.getvalue() == expected


@pytest.mark.parametrize("mode", ["--query", "--repl"])
def test_stdout_none_exits_6(capsys, monkeypatch, mode):
    # Python sets sys.stdout to None when fd 1 is closed at start-up
    monkeypatch.setattr("sys.stdout", None)
    lines = f"get frobnicate\n{GOLDEN_QUERY}\n{GOLDEN_QUERY}\n"
    monkeypatch.setattr("sys.stdin", io.StringIO(lines))
    argv = ["--query", GOLDEN_QUERY] if mode == "--query" else ["--repl"]
    code = main(["--schema", SCHEMA, *argv])
    err = capsys.readouterr().err.splitlines()
    assert code == 6
    # the REPL reported the unknown word, went on and stopped at the first SQL
    assert len(err) == (1 if mode == "--query" else 2)
    assert err[-1] == "speakql: cannot write output: stdout is closed"


USAGE = (
    "usage: speakql [-h] --schema SCHEMA [--data DATA] [--models MODELS]\n"
    "               [--query QUERY] [--phonemes PHONEMES] [--repl]\n"
    "               [--emit {sql,ir,rows}] [--format {table,csv}]\n"
)


def test_usage_error_text_on_stderr(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exit_info:
        main(["--schema", "x", "--bogus"])
    captured = capsys.readouterr()
    assert exit_info.value.code == 2
    assert captured.out == ""
    assert captured.err == USAGE + "speakql: error: unrecognized arguments: --bogus\n"


def test_usage_error_without_stderr(capsys, monkeypatch):
    # argparse prints its usage to stdout when the file it is given is None
    monkeypatch.setattr("sys.stderr", None)
    with pytest.raises(SystemExit) as exit_info:
        main(["--schema", "x", "--bogus"])
    assert exit_info.value.code == 2
    assert capsys.readouterr().out == ""


def test_help_on_stdout(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exit_info:
        main(["--help"])
    captured = capsys.readouterr()
    assert exit_info.value.code == 0
    assert captured.out.startswith(USAGE + "\nTranslate restricted-English")
    assert captured.err == ""


def test_closed_stdout_pipe(tmp_path):
    # far more output than a pipe buffer holds, so a write after the
    # reader has gone fails
    queries = tmp_path / "queries.txt"
    queries.write_text("get customer_name and balance\n" * 20_000, encoding="utf-8")
    path = [str(Path(speakql.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    # a buffered stdout, as by default, still holds bytes for the closed
    # pipe when the interpreter makes its last flush
    env.pop("PYTHONUNBUFFERED", None)
    cmd = [sys.executable, "-m", "speakql.cli", "--schema", SCHEMA, "--repl"]
    with queries.open("rb") as stdin, subprocess.Popen(
        cmd, stdin=stdin, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env
    ) as proc:
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read().decode()
        code = proc.wait(timeout=60)
    assert first.startswith(b"SELECT ")
    assert code == 6
    assert "Traceback" not in err
    assert err.startswith("speakql: cannot write output") and len(err.splitlines()) == 1


# (shell redirection, arguments, stdin text, exit code); fd 0 is closed or
# write-only under --repl, fd 1 closed or read-only, fd 2 closed or read-only
# while an unknown word is reported
FD_STATES = {
    "stdin-closed": ("0<&-", ["--repl"], None, 3),
    "stdin-write-only": ('0>>"$SPARE"', ["--repl"], None, 3),
    "stdout-closed": ("1>&-", ["--query", GOLDEN_QUERY], None, 6),
    "stdout-read-only": ('1<"$SPARE"', ["--query", GOLDEN_QUERY], None, 6),
    "stderr-closed": ("2>&-", ["--query", "get frobnicate"], None, 4),
    "stderr-read-only": ('2<"$SPARE"', ["--query", "get frobnicate"], None, 4),
    "repl-stdout-closed": ("1>&-", ["--repl"], GOLDEN_QUERY + "\n", 6),
}


@pytest.mark.parametrize("case", sorted(FD_STATES))
def test_fd_states_exit_codes(tmp_path, case):
    redirect, argv, stdin, expected = FD_STATES[case]
    spare = tmp_path / "spare"
    spare.write_bytes(b"")
    path = [str(Path(speakql.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)), SPARE=str(spare))
    cmd = ["sh", "-c", f'exec "$@" {redirect}', "sh",
           sys.executable, "-m", "speakql.cli", "--schema", SCHEMA, *argv]
    proc = subprocess.run(
        cmd, input=(stdin or "").encode(), capture_output=True, env=env, timeout=60
    )
    assert proc.returncode == expected
    assert b"Traceback" not in proc.stderr


def test_repl_stdin_read_error_after_first_line(capsys, monkeypatch):
    def stdin():
        yield GOLDEN_QUERY + "\n"
        raise OSError(errno.EIO, os.strerror(errno.EIO))

    monkeypatch.setattr("sys.stdin", stdin())
    code, out, err = run(capsys, "--schema", SCHEMA, "--repl")
    assert code == 3
    assert out == GOLDEN_SQL + "\n"
    assert err == f"speakql: cannot read queries: [Errno {errno.EIO}] {os.strerror(errno.EIO)}\n"


# the CLI's exit status for each error class; a class missing here fails
EXIT_CODES = {
    "SpeakqlError": 3, "SchemaConfigError": 3, "LexiconCollisionError": 3,
    "ModelConfigError": 3, "DatasetError": 3,
    "DisconnectedSchemaError": 4, "LexError": 4, "QueryParseError": 4, "ResolveError": 4,
    "DecodeError": 5,
}


def test_exit_code_table():
    classes = {
        name: value for name, value in vars(errors).items()
        if isinstance(value, type) and issubclass(value, errors.SpeakqlError)
    }
    assert {name: cls.exit_code for name, cls in classes.items()} == EXIT_CODES


def _deep_list(depth):
    return "[" * depth + "]" * depth


DEEP = 100_000


# (file to spoil, how): each spoiled file must give a typed error, exit 3
MALFORMED_INPUTS = {
    "schema-invalid-utf8": ("schema.yaml", lambda b: b + b"# caf\xe9\n"),
    "models-invalid-utf8": ("models.yaml", lambda b: b + b"# caf\xe9\n"),
    "phonemes-invalid-utf8": ("phonemes.txt", lambda b: b"\xff" + b),
    "csv-invalid-utf8": ("data/customer.csv", lambda b: b + b"Caf\xe9,Main,Rye\n"),
    "csv-field-too-long": ("data/customer.csv", lambda b: b + b"x" * 200_000 + b",Main,Rye\n"),
    "schema-deep-list": ("schema.yaml", lambda b: b"tables: " + _deep_list(1000).encode()),
    "models-deep-list": ("models.yaml", lambda b: b + b"extra: " + _deep_list(1000).encode()),
    "schema-deep-flow-list": ("schema.yaml", lambda b: b"tables: " + _deep_list(DEEP).encode()),
    "models-deep-flow-list": ("models.yaml", lambda b: b + b"extra: " + _deep_list(DEEP).encode()),
    "schema-deep-block-list": ("schema.yaml", lambda b: b"- " * DEEP + b"x\n"),
    "models-deep-block-list": ("models.yaml", lambda b: b + b"extra:\n" + b"- " * DEEP + b"x\n"),
    "schema-unclosed-flow": ("schema.yaml", lambda b: b"tables: [\n"),
    "models-unclosed-flow": ("models.yaml", lambda b: b"words: [\n"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_INPUTS))
def test_malformed_input_config_error(capsys, tmp_path, case):
    target, spoil = MALFORMED_INPUTS[case]
    for path in FIXTURES.rglob("*"):
        if path.is_file():
            copy = tmp_path / path.relative_to(FIXTURES)
            copy.parent.mkdir(parents=True, exist_ok=True)
            copy.write_bytes(path.read_bytes())
    (tmp_path / target).write_bytes(spoil((tmp_path / target).read_bytes()))
    code, out, err = run(
        capsys, "--schema", str(tmp_path / "schema.yaml"), "--data", str(tmp_path / "data"),
        "--models", str(tmp_path / "models.yaml"), "--phonemes", str(tmp_path / "phonemes.txt"),
        "--emit", "rows",
    )
    assert code == 3
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("speakql: ")


@pytest.mark.parametrize("emit", ["sql", "ir", "rows"])
def test_query_bytes_not_utf8_translation_error(capsys, emit):
    # argv bytes that are not UTF-8 arrive as lone surrogates, which no
    # output could encode
    query = os.fsdecode(b"get customer_name whose customer_name equals 'Caf\xe9'")
    code, out, err = run(
        capsys, "--schema", SCHEMA, "--data", DATA, "--query", query, "--emit", emit
    )
    assert code == 4
    assert out == ""
    assert err.startswith("speakql: unknown word") and len(err.splitlines()) == 1
