"""Command-line entry point wiring the full pipeline.

Exit codes: 0 success, 2 usage, 3 configuration/file, 4 translation
(lex/parse/resolve, including tables with no join path), 5 decode,
6 execution. Only the emitted artifact goes to stdout; diagnostics go
to stderr.
"""

from __future__ import annotations

import argparse
import csv
import io
import sys

from . import builder, decoder, executor, lexer, parser, schema
from .errors import (
    DecodeError,
    DisconnectedSchemaError,
    LexError,
    QueryParseError,
    ResolveError,
    SpeakqlError,
)

EXIT_USAGE = 2
EXIT_CONFIG = 3
EXIT_TRANSLATE = 4
EXIT_DECODE = 5
EXIT_EXECUTE = 6

# Exit code by error class. Any other error exits with the code of the
# stage that raised it: EXIT_CONFIG while loading the session or reading
# the phoneme file, EXIT_EXECUTE while emitting.
EXIT_CODES = {
    LexError: EXIT_TRANSLATE,
    QueryParseError: EXIT_TRANSLATE,
    ResolveError: EXIT_TRANSLATE,
    DisconnectedSchemaError: EXIT_TRANSLATE,
    DecodeError: EXIT_DECODE,
}


def build_arg_parser():
    ap = argparse.ArgumentParser(
        prog="speakql",
        description="Translate restricted-English queries (text or phoneme "
        "streams) to SQL and optionally run them over CSV tables.",
    )
    ap.add_argument("--schema", required=True, help="schema config file (YAML)")
    ap.add_argument("--data", help="directory of <table>.csv files")
    ap.add_argument("--models", help="acoustic/grammar model config file (YAML)")
    ap.add_argument("--query", help="English query text")
    ap.add_argument("--phonemes", help="file of phoneme sequences, one per line")
    ap.add_argument("--repl", action="store_true", help="read queries from stdin")
    ap.add_argument("--emit", choices=("sql", "ir", "rows"), default="sql")
    ap.add_argument("--format", choices=("table", "csv"), default="table")
    return ap


class _Session:
    """Loaded schema/lexicon/graph plus optional dataset and models."""

    def __init__(self, args):
        self.schema = schema.load_schema(_read(args.schema))
        self.graph = schema.build_graph(self.schema)
        self.lexicon = lexer.generate_lexicon(self.schema)
        self.dataset = None
        if args.data:
            self.dataset = executor.load_dataset(args.data, self.schema)
        self.models = None
        if args.models:
            self.models = decoder.load_models(_read(args.models))

    def translate(self, query_text):
        tokens = lexer.tokenize(query_text, self.lexicon)
        return parser.parse(tokens)

    def emit(self, query_text, args, out):
        ir = self.translate(query_text)
        if args.emit == "ir":
            print(parser.ir_to_text(ir), file=out)
            return
        rq = builder.resolve(ir, self.schema, self.graph)
        if args.emit == "sql":
            print(builder.generate_sql(rq).text, file=out)
            return
        result = executor.execute(rq, self.dataset)
        _print_rows(result, args.format, out)

    def decode(self, symbols):
        hmms, fsa = self.models
        decoding = decoder.decode_sentence(symbols, hmms, fsa)
        return " ".join(decoding.words)


def _read(path):
    try:
        with io.open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise SpeakqlError(f"cannot read {path}: {exc}") from exc


def _print_rows(result, fmt, out):
    headers = [f"{t}.{c}" for t, c in result.columns]
    rendered = [["" if v is None else str(v) for v in row] for row in result.rows]
    if fmt == "csv":
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(headers)
        writer.writerows(rendered)
        return
    widths = [len(h) for h in headers]
    for row in rendered:
        widths = [max(w, len(cell)) for w, cell in zip(widths, row)]
    print("  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip(), file=out)
    for row in rendered:
        print("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip(), file=out)


def _fail(code, message):
    print(f"speakql: {message}", file=sys.stderr)
    return code


def main(argv=None):
    ap = build_arg_parser()
    args = ap.parse_args(argv)

    modes = [bool(args.query), bool(args.phonemes), args.repl]
    if sum(modes) != 1:
        return _fail(EXIT_USAGE, "exactly one of --query, --phonemes, --repl is required")
    if args.emit == "rows" and not args.data:
        return _fail(EXIT_USAGE, "--emit rows requires --data")
    if args.phonemes and not args.models:
        return _fail(EXIT_USAGE, "--phonemes requires --models")

    stage_code = EXIT_CONFIG
    try:
        session = _Session(args)
        if args.repl:
            return _run_repl(session, args)
        if args.query:
            queries = [args.query]
        else:
            lines = _read(args.phonemes).splitlines()
            queries = [session.decode(line.split()) for line in lines if line.strip()]
        stage_code = EXIT_EXECUTE
        for query_text in queries:
            session.emit(query_text, args, sys.stdout)
    except SpeakqlError as exc:
        return _fail(EXIT_CODES.get(type(exc), stage_code), str(exc))
    return 0


def _run_repl(session, args):
    for line in sys.stdin:
        line = line.strip()
        if not line:
            continue
        try:
            session.emit(line, args, sys.stdout)
        except SpeakqlError as exc:
            print(f"speakql: {exc}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
