import io

import pytest

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
    bad.write_text("tables: []\n")
    code, out, err = run(capsys, "--schema", str(bad), "--query", "get balance")
    assert code == 3
    assert out == ""
    assert err


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
    "number", ["9" * 400 + ".5", "9" * 4301], ids=["beyond-float-range", "too-many-digits"]
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
        "  - {name: river, kind: entity, columns: [{name: river_name, type: text}]}\n"
    )
    code, out, err = run(
        capsys, "--schema", str(schema), "--query", "get city_name and river_name",
        "--emit", "sql",
    )
    assert code == 4
    assert out == ""
    assert "not connected" in err


def test_phoneme_path(capsys):
    code, out, _ = run(
        capsys, "--schema", SCHEMA, "--models", MODELS, "--phonemes", PHONEMES
    )
    assert code == 0
    assert out == "SELECT customer_name FROM customer\n"


def test_decode_error(capsys, tmp_path):
    bad = tmp_path / "phonemes.txt"
    bad.write_text("g eh t\n")  # verb alone is not an accepting sentence
    code, out, err = run(
        capsys, "--schema", SCHEMA, "--models", MODELS, "--phonemes", str(bad)
    )
    assert code == 5
    assert out == ""
    assert err


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
