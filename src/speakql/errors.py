"""Exception hierarchy shared by all pipeline stages."""


class SpeakqlError(Exception):
    """Base class for all errors raised by this package. `exit_code` is the
    CLI's exit status for the error: 3, a configuration or file error,
    unless a subclass sets another."""

    exit_code = 3


class SchemaConfigError(SpeakqlError):
    """Malformed or inconsistent schema configuration document."""


class DisconnectedSchemaError(SpeakqlError):
    """No join path exists between two required tables."""

    exit_code = 4

    def __init__(self, table_a, table_b):
        self.table_a = table_a
        self.table_b = table_b
        super().__init__(
            f"tables {table_a!r} and {table_b!r} are not connected in the schema graph"
        )


class LexError(SpeakqlError):
    """A word of the query could not be mapped to any token."""

    exit_code = 4

    def __init__(self, word, position):
        self.word = word
        self.position = position
        super().__init__(f"unknown word {word!r} at position {position}")


class LexiconCollisionError(SpeakqlError):
    """A schema identifier clashes with a reserved keyword or noise word."""


class QueryParseError(SpeakqlError):
    """Token stream does not conform to the query grammar."""

    exit_code = 4

    def __init__(self, position, expected, found):
        self.position = position
        self.expected = expected
        self.found = found
        super().__init__(f"at token {position}: expected {expected}, found {found}")


class ResolveError(SpeakqlError):
    """Column resolution or semantic check failed."""

    exit_code = 4


class ModelConfigError(SpeakqlError):
    """Malformed or inconsistent acoustic/grammar model document."""


class DecodeError(SpeakqlError):
    """No accepting decoding with positive probability exists."""

    exit_code = 5


class DatasetError(SpeakqlError):
    """CSV dataset missing, malformed, or inconsistent with the schema."""
