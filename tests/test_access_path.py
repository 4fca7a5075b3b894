"""The executor's access path: a table is read through a sorted column
index when its narrowest comparison keeps at most a quarter of its rows,
and scanned otherwise. Either way the rows, and their order, must be the
ones a scan of every row gives."""

import gc
import random
import time
import weakref

import pytest

from speakql import executor
from speakql.builder import BoundComparison, ResolvedQuery
from speakql.executor import Dataset, TableData, execute, load_dataset
from speakql.parser import Connective
from speakql.schema import JoinPlan

import oracles
from conftest import FIXTURES

OPS = ("=", "<>", "<", "<=", ">", ">=")
FACT = ("k", "r", "n", "s")  # join key, real, integer, text
DIM = ("k", "name")
TEXT = ("s", "name")


def scanned_sizes(monkeypatch):
    """Record how many items each `_filter` call reads."""
    sizes, real = [], executor._filter

    def counting(items, pred, index_of):
        sizes.append(len(items))
        return real(items, pred, index_of)

    monkeypatch.setattr(executor, "_filter", counting)
    return sizes


def and_all(preds):
    pred = preds[0]
    for p in preds[1:]:
        pred = Connective("and", pred, p)
    return pred


def fact_rows(rng, n):
    """n rows drawn from pools of 1 to 40 values, so ranges come out both
    narrow and wide; about one cell in eight is null. The real column holds
    ints beside floats, and 0.0 beside -0.0."""
    pools = {
        "k": list(range(rng.randint(1, 12))),
        "r": rng.sample([0, 0.0, -0.0, 1, 1.0, 2.5, -3, -3.0, 7, 7.25, 1e6, -1e-3, 42, 3.5,
                         2**53 + 1, 9.75], rng.randint(1, 16)),
        "n": list(range(-5, rng.randint(-4, 35))),
        "s": [f"w{i}" for i in range(rng.randint(1, 40))],
    }
    return tuple(
        tuple(None if rng.random() < 0.125 else rng.choice(pools[c]) for c in FACT)
        for _ in range(n)
    )


def literal_for(rng, values, column):
    """Below the minimum, at either end, on a value, between two values, or
    above the maximum."""
    values = sorted({v for v in values if v is not None})
    if column in TEXT:
        below, above = "", "~"
        between = [a + "\0" for a in values[:-1]]
    else:
        below, above = -1e9, 1e9
        between = [(a + b) / 2 for a, b in zip(values, values[1:]) if a != b]
    choices = [below, above] + values[:1] + values[-1:] + values + between
    return rng.choice(choices)


def random_comparison(rng, table, header, rows, columns):
    column = rng.choice(columns)
    values = [r[header.index(column)] for r in rows]
    ops = OPS if column not in TEXT or rng.random() < 0.5 else ("=", "<>")
    return BoundComparison(table, column, rng.choice(ops), literal_for(rng, values, column))


def kept(rows, header, c):
    """How many rows comparison c keeps, counted by a plain scan."""
    col, compare = header.index(c.column), oracles.COMPARE[c.op]
    return sum(r[col] is not None and compare(r[col], c.literal) for r in rows)


def test_index_path_matches_reference():
    """Seeded single tables of 0 to 300 rows and joins to a 0-to-12-row
    table, with one to three conjuncts per table, OR-rooted ones among them,
    against the nested-loop oracle, row order included."""
    rng = random.Random(16)
    indexed = scanned = joins = ors = 0
    for _ in range(120):
        n = rng.choice((0, 1, 2, 3, 4, 8, 20, 50, 120, 300, rng.randint(0, 300)))
        fact = fact_rows(rng, n)
        dim = tuple(
            (None if rng.random() < 0.1 else rng.randrange(12), f"d{i}")
            for i in range(rng.randint(0, 12))
        )
        ds = Dataset({"f": TableData(FACT, fact), "d": TableData(DIM, dim)})
        for _ in range(8):
            conjuncts = []
            for _ in range(rng.randint(1, 3)):
                c = random_comparison(rng, "f", FACT, fact, FACT)
                if rng.random() < 0.2:
                    c = Connective(rng.choice(("or", "and")), c,
                                   random_comparison(rng, "f", FACT, fact, FACT))
                    ors += 1
                conjuncts.append(c)
            narrowest = min((kept(fact, FACT, c) for c in conjuncts
                             if not isinstance(c, Connective)), default=n + 1)
            indexed += 4 * narrowest <= n
            scanned += 4 * narrowest > n
            if rng.random() < 0.3:
                joins += 1
                conjuncts.append(random_comparison(rng, "d", DIM, dim, ("k",)))
                if rng.random() < 0.3:  # an OR that spans both tables
                    conjuncts.append(Connective(
                        "or", random_comparison(rng, "f", FACT, fact, FACT),
                        random_comparison(rng, "d", DIM, dim, ("name",))))
                plan = JoinPlan(("f", "d"), (("f", "k", "d", "k"),))
                select = (("f", "r"), ("d", "name"), ("f", "s"))
            else:
                plan, select = JoinPlan(("f",), ()), (("f", "s"), ("f", "r"), ("f", "n"))
            rq = ResolvedQuery(select, and_all(conjuncts), plan)
            assert list(execute(rq, ds).rows) == oracles.reference_execute(rq, ds), rq
    assert ors > 100 and joins > 200
    assert indexed > 200 and scanned > 200


@pytest.mark.parametrize("n", [8, 100, 300])
def test_quarter_rule_edges(monkeypatch, n):
    """A range that keeps exactly a quarter of the rows is fetched through
    the index, so the other conjunct alone reads only those rows; one that
    keeps one row more is scanned, so both conjuncts read every row."""
    q = n // 4
    values = [1] * q + [2] * (q + 1) + [3] * (n - 2 * q - 1)
    random.Random(n).shuffle(values)
    # b is 5 except on the quarter of the rows where a is 1
    rows = tuple((i, a, 5 if a != 1 else i) for i, a in enumerate(values))
    ds = Dataset({"t": TableData(("i", "a", "b"), rows)})
    sizes = scanned_sizes(monkeypatch)
    for column, op, literal, fetched in (
        ("a", "=", 1, True), ("a", "<", 2, True), ("a", "<=", 1, True),
        ("b", "<>", 5, True), ("a", "=", 2, False), ("a", "<", 3, False),
        ("a", "<>", 3, False), ("a", ">", 1, False), ("b", "<>", 4, False),
    ):
        pred = and_all([BoundComparison("t", "i", ">=", 0),
                        BoundComparison("t", column, op, literal)])
        rq = ResolvedQuery((("t", "i"),), pred, JoinPlan(("t",), ()))
        sizes.clear()
        assert list(execute(rq, ds).rows) == oracles.reference_execute(rq, ds)
        assert sizes == ([q] if fetched else [n, n]), (column, op, literal)


@pytest.mark.parametrize("literal", [1, "x", 2, "y"])
@pytest.mark.parametrize("op", ["=", "<>"])
def test_column_that_does_not_sort_is_scanned(op, literal):
    """A hand-built column mixing 1 and 'x' cannot be sorted; it is scanned,
    and `=` and `<>` keep the rows a scan keeps."""
    rows = tuple((i, v) for i, v in enumerate([1, "x", None, 2, "x", 1, 3.5] * 6))
    ds = Dataset({"t": TableData(("i", "v"), rows)})
    rq = ResolvedQuery((("t", "i"),), BoundComparison("t", "v", op, literal),
                       JoinPlan(("t",), ()))
    want = oracles.reference_execute(rq, ds)
    assert list(execute(rq, ds).rows) == want
    assert ds.tables["t"].indexes == {1: None}
    assert list(execute(rq, ds).rows) == want


@pytest.mark.parametrize("op", ["=", "<>"])
def test_literal_that_does_not_sort_with_the_column_is_scanned(op):
    # a text literal on an integer column: no row equals it, every non-null
    # row differs from it
    rows = tuple((i, None if i % 5 == 0 else i % 3) for i in range(40))
    ds = Dataset({"t": TableData(("i", "n"), rows)})
    rq = ResolvedQuery((("t", "i"),), BoundComparison("t", "n", op, "x"), JoinPlan(("t",), ()))
    want = [] if op == "=" else [(i,) for i, n in rows if n is not None]
    assert list(execute(rq, ds).rows) == want


def best_of_3(fn):
    times = []
    for _ in range(3):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


@pytest.fixture(scope="module")
def big_table():
    rng = random.Random(5)
    n = 100_000
    rows = tuple(
        (i, rng.randrange(1000), None if i % 50 == 0 else round(rng.uniform(0, 1000), 2))
        for i in range(n)
    )
    return TableData(("i", "a", "b"), rows)


@pytest.mark.parametrize("conjuncts", [
    [("a", "=", 7)],
    [("b", "<", 1.25)],
    [("a", "=", 7), ("i", ">=", 1000)],
    [("i", ">=", 1000), ("b", "<", 1.25)],
], ids=["eq", "range", "eq-and-wide", "wide-and-range"])
def test_selective_scan_at_scale(big_table, conjuncts):
    """On 10^5 rows, a selective `=` or range, alone or ANDed with a wide
    comparison, gives the rows of a full `_filter` pass, and after one
    warm-up query runs in under a fifth of that pass's time."""
    ds = Dataset({"t": TableData(big_table.header, big_table.rows)})
    preds = [BoundComparison("t", *c) for c in conjuncts]
    rq = ResolvedQuery(tuple(("t", c) for c in big_table.header), and_all(preds),
                       JoinPlan(("t",), ()))

    def full_pass():
        rows = big_table.rows
        for p in preds:
            rows = executor._filter(rows, p, lambda c: big_table.header.index(c.column))
        return rows

    want = full_pass()
    assert 50 < len(want) < 1000
    assert list(execute(rq, ds).rows) == want  # the warm-up builds the index
    assert best_of_3(lambda: execute(rq, ds)) < best_of_3(full_pass) / 5


def test_index_is_private_to_its_dataset(bank_schema):
    rq = ResolvedQuery((("account", "account_number"),),
                       BoundComparison("account", "balance", "=", 500),
                       JoinPlan(("account",), ()))
    first = load_dataset(FIXTURES / "data", bank_schema)
    second = load_dataset(FIXTURES / "data", bank_schema)
    fresh = first.tables["account"]
    built = TableData(fresh.header, fresh.rows)
    execute(rq, Dataset({"account": built}))
    assert built.indexes  # filtering on a column builds its index
    assert built == fresh and repr(built) == repr(fresh)
    execute(rq, first)
    assert first.tables["account"].indexes
    assert not second.tables["account"].indexes
    assert first.tables["account"].indexes is not second.tables["account"].indexes
    ref = weakref.ref(first.tables["account"])
    del first, fresh
    gc.collect()
    assert ref() is None
