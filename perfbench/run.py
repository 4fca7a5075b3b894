"""speakql benchmark: one workload, one seed, one run.

Run from the root of a speakql checkout; the package is imported from
`src/`, so it need not be installed:

    python3 perfbench/run.py --workload typed-bank --seed 1 --seconds 30 --trace 0

The run generates its inputs from the seed under perfbench/_work/, then
sends the workload's queries one after another (one closed-loop client,
no threads) in whole rounds until the time is up, setting the session
up again now and then between rounds. It then checks every output of
the first round and prints one JSON line as the last line of stdout:
end-to-end metrics with --trace 0; with --trace 1, per-layer metrics
from spans, which go to perfbench/_out/, and from fresh CLI processes.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = Path("src").resolve()
CLI_TIMEOUT_S = 120


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def bound_tables(rq):
    """Tables that resolve bound the query's columns to."""
    tables = {t for t, _ in rq.select_refs}
    stack = [rq.predicate_refs] if rq.predicate_refs is not None else []
    while stack:
        node = stack.pop()
        if hasattr(node, "left"):
            stack += [node.left, node.right]
        else:
            tables.add(node.table)
    return tables


def probe_planning(s, out, tr):
    """Spans that split resolve's time, outside the query's span:
    join_path called directly on the tables resolve bound, and resolve
    run again with the plan it made handed back in place of join_path,
    which times resolve's self time on its own."""
    from speakql import builder, join_path, resolve
    from spans import call

    call(tr, "schema.join_path", join_path, s.graph, bound_tables(out.rq))
    plan = out.rq.join_plan
    builder.join_path = lambda graph, required: plan
    try:
        call(tr, "builder.resolve_self", resolve, out.ir, s.schema, s.graph)
    finally:
        builder.join_path = join_path


def child_env():
    path = [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path))


def wall_time(cmd):
    """Wall time of one fresh process, spawn to exit, and the process."""
    t0 = perf_counter()
    proc = subprocess.run(
        cmd, env=child_env(), capture_output=True, text=True, timeout=CLI_TIMEOUT_S
    )
    return perf_counter() - t0, proc


class Run:
    """One run of a workload: set-ups, rounds of queries and, traced,
    fresh CLI processes."""

    def __init__(self, wl, seconds, tr):
        self.wl, self.seconds, self.tr = wl, seconds, tr
        self.session = None
        self.setup_times, self.cli_times, self.cli_ok = [], [], True
        self.latencies, self.outs = [], [None] * len(wl.items)
        self.cli_index, extra = wl.cli_query()
        self.cli_cmd = [sys.executable, "-m", "speakql.cli",
                        "--schema", str(wl.schema_path), *extra]

    def setup(self):
        if self.tr is not None:
            self.tr.qid = None
        self.session = None  # let the previous session go before the next is built
        t0 = perf_counter()
        self.session = self.wl.setup(self.tr)
        self.setup_times.append(perf_counter() - t0)

    def cli(self):
        """One CLI process; it must print what the in-process pipeline
        produced for the same query."""
        wall, proc = wall_time(self.cli_cmd)
        self.cli_times.append(wall)
        out = self.outs[self.cli_index]
        ok = not isinstance(out, Exception) and proc.returncode == 0
        if not (ok and proc.stdout == self.wl.cli_expected(out)):
            if self.cli_ok:
                print(f"perfbench: CLI output differs: {proc.stderr.strip()}",
                      file=sys.stderr)
            self.cli_ok = False

    def round(self):
        from spans import call

        wl, s, tr = self.wl, self.session, self.tr
        n, first = len(wl.items), not self.latencies
        self.latencies.append([])
        start = perf_counter()
        for i in range(n):
            if tr is not None:
                tr.qid = (len(self.latencies) - 1) * n + i
            t0 = perf_counter()
            try:
                out = call(tr, "query", wl.run, s, i, tr)
            except Exception as exc:  # counted as a failed operation after the run
                out = exc
            self.latencies[-1].append(perf_counter() - t0)
            if tr is not None and not isinstance(out, Exception):
                probe_planning(s, out, tr)
            if first:
                self.outs[i] = out
        return perf_counter() - start

    def loop(self):
        """Whole rounds, as many as end nearest to `seconds` of query time.

        The other set-ups and the CLI processes run between rounds, spread
        evenly over that time, so that they sample the whole run and not
        one moment of it: this machine's speed drifts with its
        neighbours' load."""
        tasks = [(self.setup, self.wl.setup_reps - 1)]
        if self.tr is not None:
            tasks.append((self.cli, self.wl.cli_reps))
        done = [0] * len(tasks)
        self.setup()
        busy = last = 0.0
        while not self.latencies or busy + last / 2 < self.seconds:
            last = self.round()
            busy += last
            for k, (task, reps) in enumerate(tasks):
                while done[k] < reps and busy >= (done[k] + 0.5) * self.seconds / reps:
                    task()
                    done[k] += 1
        for k, (task, reps) in enumerate(tasks):
            for _ in range(reps - done[k]):
                task()


def nearest_rank(sorted_values, q):
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def end_to_end(run, rss_mb):
    """Query metrics come from each query's fastest round. This machine's
    speed drifts by a fifth, over seconds to minutes, with its
    neighbours' load; the fastest of many rounds spread over the run
    filters that out, where a mean or a median does not. setup_s stays
    a median."""
    best = sorted(min(by_round) for by_round in zip(*run.latencies))
    # The highest percentile with ten queries beyond it.
    tail_q = 1 - 10 / len(best)
    return {
        "setup_s": (statistics.median(run.setup_times), "s"),
        "queries_per_s": (len(best) / sum(best), "1/s"),
        "query_p50_ms": (statistics.median(best) * 1e3, "ms"),
        "query_tail_ms": (nearest_rank(best, tail_q) * 1e3, "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def per_layer(wl, run, import_s):
    from checks import flatten_predicate

    s, outs, rounds = run.session, run.outs, len(run.latencies)
    spans = defaultdict(list)
    for name, start, end, _, _ in run.tr.spans:
        spans[name].append(end - start)

    def mean(name):
        v = spans.get(name)
        return sum(v) / len(v) if v else 0.0

    def median(name):
        v = spans.get(name)
        return statistics.median(v) if v else 0.0

    done = [o for o in outs if not isinstance(o, Exception)]
    rows = wl.row_counts()
    executed = [o for o in done if o.result is not None]
    decoded = [o for o in done if o.decoding is not None]
    frames = sum(len(o.decoding.state_path) for o in decoded)
    decode_s = sum(spans.get("decoder.decode_sentence", ()))
    loaded = s.dataset.tables.values() if s.dataset is not None else ()
    counts = {
        "lexer.tokens": sum(len(o.tokens) for o in done),
        "parser.conditions": sum(
            len(flatten_predicate(o.ir.predicate)[0]) for o in done if o.ir.predicate
        ),
        "schema.plan_tables": sum(len(o.rq.join_plan.tables) for o in done),
        "schema.join_conditions": sum(len(o.rq.join_plan.conditions) for o in done),
        "builder.sql_bytes": sum(len(o.sql.text.encode()) for o in done),
        "decoder.frames": frames,
        "executor.rows_loaded": sum(len(t.rows) for t in loaded),
        "executor.rows_out": sum(len(o.result.rows) for o in executed),
        "executor.cross_product": sum(
            math.prod(rows[t] for t in o.rq.join_plan.tables) for o in executed
        ),
    }
    units = {"builder.sql_bytes": "bytes"}
    out = {
        "schema.load_schema_ms": (median("schema.load_schema") * 1e3, "ms"),
        "schema.build_graph_ms": (median("schema.build_graph") * 1e3, "ms"),
        "schema.join_path_ms": (mean("schema.join_path") * 1e3, "ms"),
        "builder.resolve_us": (mean("builder.resolve_self") * 1e6, "us"),
        "builder.generate_sql_us": (mean("builder.generate_sql") * 1e6, "us"),
        "lexer.tokenize_us": (mean("lexer.tokenize") * 1e6, "us"),
        "lexer.generate_lexicon_ms": (median("lexer.generate_lexicon") * 1e3, "ms"),
        "parser.parse_us": (mean("parser.parse") * 1e6, "us"),
        "decoder.load_models_ms": (median("decoder.load_models") * 1e3, "ms"),
        "decoder.decode_ms": (mean("decoder.decode_sentence") * 1e3, "ms"),
        "decoder.frames_per_s": (frames * rounds / decode_s if decode_s else 0.0, "1/s"),
        "executor.load_dataset_ms": (median("executor.load_dataset") * 1e3, "ms"),
        "executor.execute_ms": (mean("executor.execute") * 1e3, "ms"),
        "cli.import_ms": (import_s * 1e3, "ms"),
        "cli.wall_ms": (min(run.cli_times) * 1e3, "ms"),
    }
    out.update({k: (v, units.get(k, "count")) for k, v in counts.items()})
    return out


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "speakql" / "__init__.py").is_file():
        print("perfbench: no src/speakql here; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from spans import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload](args.seed, HERE / "_work" / f"{args.workload}-{args.seed}")
    tr = Tracer() if args.trace else None

    run = Run(wl, args.seconds, tr)
    run.loop()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    s, outs, rounds = run.session, run.outs, len(run.latencies)

    wl.prepare_checks(s)
    bad = {}
    for i, out in enumerate(outs):
        reason = f"raised {out!r}" if isinstance(out, Exception) else wl.check(s, i, out)
        if reason:
            bad[i] = reason
    for i, reason in list(bad.items())[:10]:
        print(f"perfbench: {wl.name} query {i} failed: {reason}", file=sys.stderr)

    if args.trace:
        import_cmd = [sys.executable, "-c", "import speakql.cli"]
        import_s = statistics.median(wall_time(import_cmd)[0] for _ in range(5))
        metrics = per_layer(wl, run, import_s)
        # queries_per_s as the untraced run computes it, from the query
        # spans: the two differ by the cost of tracing.
        query_s = [end - start for name, start, end, _, _ in tr.spans if name == "query"]
        n = len(wl.items)
        traced_qps = n / sum(min(query_s[i::n]) for i in range(n))
        out_dir = HERE / "_out"
        out_dir.mkdir(exist_ok=True)
        with open(out_dir / f"trace-{wl.name}-{args.seed}.json", "w", encoding="utf-8") as fh:
            json.dump({"workload": wl.name, "seed": args.seed, "rounds": rounds,
                       "traced_queries_per_s": traced_qps,
                       "spans": tr.as_dicts()}, fh)
    else:
        metrics = end_to_end(run, rss_mb)

    print(json.dumps({
        "correct": run.cli_ok,
        "attempted": rounds * len(wl.items),
        "failed": rounds * len(bad),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
