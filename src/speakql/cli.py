"""Command-line entry point wiring the full pipeline.

Exit codes: 0 success, 2 usage, 3 configuration/file, 4 translation
(lex/parse/resolve, including tables with no join path), 5 decode,
6 output that cannot be written. Only the emitted
artifact goes to stdout; diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import os
import sys

from . import builder, decoder, executor, lexer, parser, schema
from .errors import SpeakqlError

EXIT_USAGE = 2
EXIT_OUTPUT = 6


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        if sys.stderr is None:  # print_usage would fall back to stdout
            self.exit(EXIT_USAGE)
        super().error(message)


def build_arg_parser():
    ap = _ArgumentParser(
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


def _read(path):
    try:
        with io.open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise SpeakqlError(f"cannot read {path}: {exc}") from exc


def _format_rows(result, fmt):
    headers = [f"{t}.{c}" for t, c in result.columns]
    rendered = [["" if v is None else str(v) for v in row] for row in result.rows]
    out = io.StringIO()
    if fmt == "csv":
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(headers)
        writer.writerows(rendered)
        return out.getvalue()
    widths = [len(h) for h in headers]
    for row in rendered:
        widths = [max(w, len(cell)) for w, cell in zip(widths, row)]
    print("  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip(), file=out)
    for row in rendered:
        print("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip(), file=out)
    return out.getvalue()


def _fail(code, message):
    """Report `message` as one stderr line, if stderr takes it, and return `code`."""
    lines = filter(None, (line.strip() for line in message.splitlines()))
    if sys.stderr is not None:  # None would send the line to stdout
        with contextlib.suppress(OSError):
            print(f"speakql: {'; '.join(lines)}", file=sys.stderr)
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

    try:
        sch = schema.load_schema(_read(args.schema))
        graph = schema.build_graph(sch)
        lexicon = lexer.generate_lexicon(sch)
        dataset = executor.load_dataset(args.data, sch) if args.data else None
        models = decoder.load_models(_read(args.models)) if args.models else None
        if args.query:
            queries = [args.query]
        elif args.phonemes:
            symbol_lines = [line.split() for line in _read(args.phonemes).splitlines()]
            decoded = [decoder.decode_sentence(s, *models) for s in symbol_lines if s]
            queries = [" ".join(d.words) for d in decoded]
        else:
            if sys.stdin is None:
                raise SpeakqlError("cannot read queries: there is no stdin")
            # bytes that are not text reach the lexer as lone surrogates, as in argv
            if hasattr(sys.stdin, "reconfigure"):
                sys.stdin.reconfigure(errors="surrogateescape")
            queries = filter(None, (line.strip() for line in sys.stdin))
        for query_text in queries:
            try:
                ir = parser.parse(lexer.tokenize(query_text, lexicon))
                if args.emit == "ir":
                    out = parser.ir_to_text(ir) + "\n"
                else:
                    rq = builder.resolve(ir, sch, graph)
                    if args.emit == "sql":
                        out = builder.generate_sql(rq).text + "\n"
                    else:
                        out = _format_rows(executor.execute(rq, dataset), args.format)
                if sys.stdout is None:  # fd 1 was closed at start-up
                    raise OSError("stdout is closed")
                # flushed per query, so that a closed pipe fails in this try
                print(out, end="", flush=True)
            except (OSError, UnicodeEncodeError) as exc:
                # stdout's unflushed bytes would fail again in the
                # interpreter's last flush, so they go nowhere
                with contextlib.suppress(OSError), open(os.devnull, "wb") as devnull:
                    if sys.stdout is not None:
                        os.dup2(devnull.fileno(), sys.stdout.fileno())
                return _fail(EXIT_OUTPUT, f"cannot write output: {exc}")
            except SpeakqlError as exc:
                if not args.repl:
                    raise
                _fail(exc.exit_code, str(exc))
    except SpeakqlError as exc:
        return _fail(exc.exit_code, str(exc))
    except OSError as exc:  # a stdin read: `_read` and `load_dataset` wrap theirs
        return _fail(SpeakqlError.exit_code, f"cannot read queries: {exc}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
