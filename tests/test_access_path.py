"""The executor's access path: a table is read through its sorted column
indexes when the narrowest of its conjuncts, a comparison or an OR
subtree, is estimated to keep at most a quarter of its rows, and scanned
otherwise. Either way the rows, and their order, must be the ones a
scan of every row gives."""

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
FACT = ("k", "r", "n", "s", "m")  # join key, real, integer, text, integers beside text
DIM = ("k", "name")
TEXT = ("s", "name")
MIXED = ("m",)  # a hand-built column whose values do not sort together


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
    ints beside floats, and 0.0 beside -0.0; the mixed one 1 beside 'x'."""
    pools = {
        "k": list(range(rng.randint(1, 12))),
        "r": rng.sample([0, 0.0, -0.0, 1, 1.0, 2.5, -3, -3.0, 7, 7.25, 1e6, -1e-3, 42, 3.5,
                         2**53 + 1, 9.75], rng.randint(1, 16)),
        "n": list(range(-5, rng.randint(-4, 35))),
        "s": [f"w{i}" for i in range(rng.randint(1, 40))],
        "m": [1, "x", 2, "y", 3.5],
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
    """A comparison; on the mixed column, or one time in twelve with a
    literal of another type than the column's (which does not sort with
    its values), only `=` or `<>`, as ordering them would raise."""
    column = rng.choice(columns)
    values = [r[header.index(column)] for r in rows]
    if column in MIXED:
        return BoundComparison(table, column, rng.choice(("=", "<>")), rng.choice((1, "x", 7)))
    if rng.random() < 1 / 12:
        literal = 3 if column in TEXT else "w1"
        return BoundComparison(table, column, rng.choice(("=", "<>")), literal)
    ops = OPS if column not in TEXT or rng.random() < 0.5 else ("=", "<>")
    return BoundComparison(table, column, rng.choice(ops), literal_for(rng, values, column))


def random_subtree(rng, rows, depth):
    """A comparison on the fact table, or an AND or OR of two subtrees. Two
    comparisons in five are `=` on a value the table holds, so that an AND
    under an OR keeps some rows while its narrower child keeps more."""
    if depth == 0 or rng.random() < 0.4:
        column = rng.choice(("k", "n", "s"))
        held = [v for r in rows if (v := r[FACT.index(column)]) is not None]
        if held and rng.random() < 0.4:
            return BoundComparison("f", column, "=", rng.choice(held))
        return random_comparison(rng, "f", FACT, rows, FACT)
    return Connective(rng.choice(("or", "and")), random_subtree(rng, rows, depth - 1),
                      random_subtree(rng, rows, depth - 1))


def holds(row, header, pred):
    if isinstance(pred, Connective):
        left, right = holds(row, header, pred.left), holds(row, header, pred.right)
        return left and right if pred.op == "and" else left or right
    value = row[header.index(pred.column)]
    return value is not None and oracles.COMPARE[pred.op](value, pred.literal)


def index_path(rows, header, pred):
    """A conjunct's estimate and the positions an index fetch of it reads:
    a comparison's rows, the sum and union over an OR's children, the
    narrower child of an AND; None when one of its comparisons reads a
    column, or a literal, that does not sort."""
    if isinstance(pred, Connective):
        left, right = index_path(rows, header, pred.left), index_path(rows, header, pred.right)
        if left is None or right is None:
            return None
        if pred.op == "and":
            return min(left, right, key=lambda p: p[0])
        return left[0] + right[0], left[1] | right[1]
    col = header.index(pred.column)
    try:
        sorted([r[col] for r in rows if r[col] is not None] + [pred.literal])
    except TypeError:
        return None
    keep = {i for i, r in enumerate(rows) if holds(r, header, pred)}
    return len(keep), keep


def test_index_path_matches_reference():
    """Seeded single tables of 0 to 300 rows and joins to a 0-to-12-row
    table, with one to three conjuncts per table, against the nested-loop
    oracle, row order included. Among the conjuncts are OR subtrees up to
    three levels deep, ANDs inside them, and comparisons on a column or
    with a literal that does not sort, so the subtree has no index path."""
    rng = random.Random(16)
    indexed = scanned = joins = ors = ors_fetched = retested = unsorted = 0
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
                if rng.random() < 0.5:
                    c = Connective("or", random_subtree(rng, fact, 2),
                                   random_subtree(rng, fact, 2))
                    ors += 1
                conjuncts.append(c)
            paths = [(p, c) for c in conjuncts if (p := index_path(fact, FACT, c)) is not None]
            unsorted += len(paths) < len(conjuncts)
            (narrowest, read), chosen = min(paths, default=((n + 1, ()), None),
                                            key=lambda p: p[0][0])
            indexed += 4 * narrowest <= n
            scanned += 4 * narrowest > n
            if 4 * narrowest <= n and isinstance(chosen, Connective):
                ors_fetched += 1
                # an AND's narrower child reads rows the AND rejects
                retested += any(not holds(fact[i], FACT, chosen) for i in read)
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
    assert ors > 400 and joins > 200 and unsorted > 200
    assert indexed > 200 and scanned > 200
    assert ors_fetched > 80 and retested > 15


@pytest.mark.parametrize("n", [8, 100, 300])
def test_quarter_rule_edges(monkeypatch, n):
    """A range, or an OR of ranges whose counts sum to exactly a quarter of
    the rows, is fetched through the index, so the other conjunct alone
    reads only those rows; one that keeps one row more is scanned, so both
    conjuncts read every row. An OR over an AND is estimated by the AND's
    narrower child, so it is fetched too, and tested again on the rows."""
    q = n // 4
    values = [1] * q + [2] * (q + 1) + [3] * (n - 2 * q - 1)
    random.Random(n).shuffle(values)
    # b is 5 except on the quarter of the rows where a is 1
    rows = tuple((i, a, 5 if a != 1 else i) for i, a in enumerate(values))
    ds = Dataset({"t": TableData(("i", "a", "b"), rows)})
    sizes = scanned_sizes(monkeypatch)
    k = q // 2  # an OR's children keep the first k rows and the last q - k

    def t(column, op, literal):
        return BoundComparison("t", column, op, literal)

    for pred, read in (
        (t("a", "=", 1), [q]), (t("a", "<", 2), [q]), (t("a", "<=", 1), [q]),
        (t("b", "<>", 5), [q]), (t("a", "=", 2), [n, n]), (t("a", "<", 3), [n, n]),
        (t("a", "<>", 3), [n, n]), (t("a", ">", 1), [n, n]), (t("b", "<>", 4), [n, n]),
        (Connective("or", t("i", "<", k), t("i", ">=", n - q + k)), [q]),
        (Connective("or", t("i", "<", k + 1), t("i", ">=", n - q + k)), [n, n]),
        (Connective("or", Connective("and", t("i", "<", k), t("a", "=", 1)),
                    t("i", ">=", n - q + k)), [q, q]),
    ):
        rq = ResolvedQuery((("t", "i"),), and_all([t("i", ">=", 0), pred]), JoinPlan(("t",), ()))
        sizes.clear()
        assert list(execute(rq, ds).rows) == oracles.reference_execute(rq, ds)
        assert sizes == read, pred


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


def subtree(spec):
    """("or" or "and", left, right) as a Connective, (column, op, literal)
    as a comparison on table t."""
    if spec[0] in ("or", "and"):
        return Connective(spec[0], subtree(spec[1]), subtree(spec[2]))
    return BoundComparison("t", *spec)


@pytest.mark.parametrize("conjuncts", [
    [("a", "=", 7)],
    [("b", "<", 1.25)],
    [("a", "=", 7), ("i", ">=", 1000)],
    [("i", ">=", 1000), ("b", "<", 1.25)],
    [("or", ("a", "=", 7), ("b", "<", 1.25))],
    [("or", ("and", ("a", "=", 7), ("i", ">=", 1000)), ("b", "<", 1.25))],
], ids=["eq", "range", "eq-and-wide", "wide-and-range", "or", "and-wide-or"])
def test_selective_scan_at_scale(big_table, conjuncts):
    """On 10^5 rows, a selective `=` or range, alone, ANDed with a wide
    comparison, ORed with another, or ORed with an AND that holds a wide
    one, gives the rows of a full `_filter` pass, and after one warm-up
    query runs in under a fifth of that pass's time."""
    ds = Dataset({"t": TableData(big_table.header, big_table.rows)})
    preds = [subtree(c) for c in conjuncts]
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


def test_long_or_folds_in_linear_time():
    """An OR of 20 000 comparisons that keep no row is fetched through the
    index; folding its ranges takes about four times as long as for 5 000
    (joining them by concatenation at each OR made it fourteen)."""
    ds = Dataset({"t": TableData(("i",), tuple((i,) for i in range(1000)))})
    elapsed = {}
    for n in (5000, 20000):
        pred = BoundComparison("t", "i", "=", -1)
        for j in range(2, n + 1):
            pred = Connective("or", pred, BoundComparison("t", "i", "=", -j))
        rq = ResolvedQuery((("t", "i"),), pred, JoinPlan(("t",), ()))
        assert execute(rq, ds).rows == ()
        elapsed[n] = best_of_3(lambda: execute(rq, ds))
    assert elapsed[20000] < 8 * elapsed[5000]


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
