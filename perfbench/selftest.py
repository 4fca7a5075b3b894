"""Self-test of the benchmark's output checks.

Each check must pass on the program's real output and fail once one
output of its kind is corrupted. Run from the root of a checkout:

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import sys
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(Path("src").resolve()))

from workloads import WORKLOADS  # noqa: E402

SEED = 7


def first(wl, s, wanted):
    """Index and output of the first query whose spec and output satisfy `wanted`."""
    for i, spec in enumerate(wl.specs):
        out = wl.run(s, i, None)
        if wanted(spec, out):
            return i, out
    raise AssertionError(f"{wl.name}: no query fits the corruption")


def expect_caught(wl, s, i, out, bad_out, label):
    real = wl.check(s, i, out)
    if real is not None:
        raise AssertionError(f"{wl.name} {label}: the real output fails: {real}")
    reason = wl.check(s, i, bad_out)
    if reason is None:
        raise AssertionError(f"{wl.name} {label}: the corrupted output passes")
    print(f"caught  {wl.name:12s} {label:28s} {reason}")


def session(name):
    wl = WORKLOADS[name](SEED, HERE / "_work" / f"selftest-{name}")
    s = wl.setup(None)
    wl.prepare_checks(s)
    return wl, s


def main():
    wl, s = session("typed-bank")
    i, out = first(wl, s, lambda spec, o: len(spec.conditions) >= 2)
    ir, pred = out.ir, out.ir.predicate
    other = "or" if pred.op == "and" else "and"
    for label, bad_ir in (
        ("IR: comparison dropped", replace(ir, predicate=pred.left)),
        ("IR: connective changed", replace(ir, predicate=replace(pred, op=other))),
        ("IR: select list changed", replace(ir, select_columns=ir.select_columns + ("x",))),
    ):
        expect_caught(wl, s, i, out, replace(out, ir=bad_ir), label)
    bad_sql = replace(out.sql, text=out.sql.text.replace("FROM", "FORM"))
    expect_caught(wl, s, i, out, replace(out, sql=bad_sql), "SQL: not valid SQL")

    wl, s = session("csv-join")
    i, out = first(wl, s, lambda spec, o: len(o.result.rows) > 1 and len(o.rq.join_plan.tables) > 1)
    text = out.sql.text
    cut = text.rindex(" AND ")  # the join condition comes last
    expect_caught(wl, s, i, out, replace(out, sql=replace(out.sql, text=text[:cut])),
                  "SQL: join condition dropped")
    rows = out.result.rows
    expect_caught(wl, s, i, out, replace(out, result=replace(out.result, rows=rows[1:])),
                  "rows: one row dropped")
    expect_caught(wl, s, i, out, replace(out, result=replace(out.result, rows=rows + rows[:1])),
                  "rows: one row repeated")

    wl, s = session("wide-schema")
    i, out = first(wl, s, lambda spec, o: len(spec.tables) == 2)
    plan = out.rq.join_plan
    for label, bad_plan in (
        ("plan: table dropped", replace(plan, tables=plan.tables[:-1])),
        ("plan: join condition dropped", replace(plan, conditions=plan.conditions[:-1])),
    ):
        expect_caught(wl, s, i, out, replace(out, rq=replace(out.rq, join_plan=bad_plan)), label)

    wl, s = session("spoken")
    i = min(range(len(wl.items)), key=lambda k: len(wl.items[k].observations))
    out = wl.run(s, i, None)
    d = out.decoding
    path = list(d.state_path)
    word, idx = path[1]
    path[1] = (word, idx + 1 if idx == 0 else idx - 1)
    for label, bad in (
        ("decode: score changed", replace(d, log_probability=d.log_probability + 1e-6)),
        ("decode: word dropped", replace(d, words=d.words[:-1])),
        ("decode: state path changed", replace(d, state_path=tuple(path))),
    ):
        expect_caught(wl, s, i, out, replace(out, decoding=bad), label)
    print("all corruptions caught")
    return 0


if __name__ == "__main__":
    sys.exit(main())
