from pathlib import Path

import pytest

from speakql import (
    build_graph,
    generate_lexicon,
    load_dataset,
    load_models,
    load_schema,
)

FIXTURES = Path(__file__).parent / "fixtures" / "bank"


class UnreadRows(tuple):
    """Rows that fail the test if the executor reads them."""

    def _read(self, *_):
        raise AssertionError("a row was read")

    __len__ = __iter__ = __getitem__ = _read


@pytest.fixture(scope="session")
def bank_schema_text():
    return (FIXTURES / "schema.yaml").read_text(encoding="utf-8")


@pytest.fixture(scope="session")
def bank_schema(bank_schema_text):
    return load_schema(bank_schema_text)


@pytest.fixture(scope="session")
def bank_graph(bank_schema):
    return build_graph(bank_schema)


@pytest.fixture(scope="session")
def bank_lexicon(bank_schema):
    return generate_lexicon(bank_schema)


@pytest.fixture(scope="session")
def bank_dataset(bank_schema):
    return load_dataset(FIXTURES / "data", bank_schema)


@pytest.fixture(scope="session")
def bank_models():
    return load_models((FIXTURES / "models.yaml").read_text(encoding="utf-8"))
