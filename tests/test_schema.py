import random
import time

import pytest

from speakql.errors import DisconnectedSchemaError, SchemaConfigError
from speakql.lexer import generate_lexicon
from speakql.schema import (
    TABLE_KINDS,
    VALUE_KINDS,
    Column,
    Schema,
    SchemaGraph,
    Table,
    build_graph,
    join_path,
    load_schema,
    tables_owning,
)

from oracles import (
    min_connected_superset,
    plan_is_connected,
    reference_graph,
    reference_join_path,
    reference_tables_owning,
)


def test_bank_schema_loads(bank_schema):
    assert len(bank_schema.tables) == 6
    assert {t.name for t in bank_schema.tables} == {
        "customer", "branch", "account", "depositor", "loan", "borrower",
    }


def test_declaration_order_preserved(bank_schema):
    assert [t.name for t in bank_schema.tables][:3] == ["customer", "branch", "account"]
    assert bank_schema.table("account").column_names == [
        "account_number", "branch_name", "balance",
    ]


def test_minimal_schema():
    schema = load_schema("tables:\n  - name: t\n    columns: [{name: c, type: text}]\n")
    assert len(schema.tables) == 1
    assert schema.tables[0].kind == "entity"  # default


@pytest.mark.parametrize(
    "doc,fragment",
    [
        ("tables:\n  - name: customer\n    columns: [{name: a, type: text}]\n"
         "  - name: customer\n    columns: [{name: b, type: text}]\n",
         "duplicate table"),
        ("tables:\n  - name: t\n    columns: [{name: a, type: text}, {name: a, type: text}]\n",
         "duplicate column"),
        ("tables:\n  - name: Customer\n    columns: [{name: a, type: text}]\n"
         "  - name: customer\n    columns: [{name: b, type: text}]\n",
         "duplicate table name 'customer'"),
        ("tables:\n  - name: t\n    columns: [{name: a, type: text}, {name: A, type: text}]\n",
         "duplicate column 'A' in table 't'"),
        ("tables:\n  - name: t\n    columns: [{name: a, type: money}]\n",
         "unknown value kind"),
        ("tables:\n  - name: t\n    colunms: [{name: a, type: text}]\n",
         "unknown field"),
        ("tables:\n  - name: 9t\n    columns: [{name: a, type: text}]\n",
         "invalid table name"),
        ("1: x\nb: y\ntables:\n  - name: t\n    columns: [{name: a, type: text}]\n",
         "unknown field"),
        ("tables:\n  - name: t\n    columns: [{name: a, type: text, 2: z, c: w}]\n",
         "unknown field"),
        ("tables: []\n", "nonempty"),
        ("tables: [\n", "parse error"),
    ],
)
def test_schema_errors(doc, fragment):
    with pytest.raises(SchemaConfigError) as exc:
        load_schema(doc)
    assert fragment in str(exc.value)


def test_bank_graph_edges(bank_graph):
    assert bank_graph.shared_columns("customer", "depositor") == {"customer_name"}
    assert bank_graph.shared_columns("depositor", "account") == {"account_number"}
    # not connected directly
    assert bank_graph.shared_columns("customer", "account") == frozenset()


def test_graph_matches_pairwise_intersection(bank_schema, bank_graph):
    names = {t.name: set(t.column_names) for t in bank_schema.tables}
    for a in names:
        for b in names:
            if a == b:
                continue
            expected = frozenset(names[a] & names[b])
            assert bank_graph.shared_columns(a, b) == expected


def test_graph_symmetry(bank_graph):
    for a in bank_graph.nodes:
        for b in bank_graph.nodes:
            if a != b:
                assert bank_graph.shared_columns(a, b) == bank_graph.shared_columns(b, a)


def test_single_table_graph():
    schema = load_schema("tables:\n  - name: t\n    columns: [{name: c, type: text}]\n")
    graph = build_graph(schema)
    assert graph.nodes == ("t",)
    assert graph.edges == {}


def test_two_shared_columns_one_edge():
    schema = load_schema(
        "tables:\n"
        "  - name: a\n    columns: [{name: k1, type: text}, {name: k2, type: text}]\n"
        "  - name: b\n    columns: [{name: k2, type: text}, {name: k1, type: text}]\n"
    )
    graph = build_graph(schema)
    assert graph.shared_columns("a", "b") == {"k1", "k2"}
    assert len(graph.edges) == 1


def test_tables_owning(bank_schema):
    assert tables_owning(bank_schema, "balance") == ["account"]
    assert tables_owning(bank_schema, "customer_name") == ["customer", "borrower", "depositor"]
    assert tables_owning(bank_schema, "no_such_column") == []


def test_tables_owning_returns_a_fresh_list(bank_schema):
    """A caller that mutates the list does not change later answers."""
    owners = tables_owning(bank_schema, "customer_name")
    owners.reverse()
    owners.append("loan")
    assert tables_owning(bank_schema, "customer_name") == ["customer", "borrower", "depositor"]
    assert tables_owning(bank_schema, "customer_name") is not tables_owning(
        bank_schema, "customer_name"
    )
    assert tables_owning(bank_schema, "no_such_column") is not tables_owning(
        bank_schema, "no_such_column"
    )


def test_entity_tables_precede_relationship_tables(bank_schema):
    for column in {c.name for t in bank_schema.tables for c in t.columns}:
        owners = tables_owning(bank_schema, column)
        kinds = [bank_schema.table(n).kind for n in owners]
        assert kinds == sorted(kinds, key=lambda k: k != "entity")


def _respell(rng, name):
    return "".join(ch.upper() if rng.random() < 0.3 else ch for ch in name)


SHARED = ("key", "ref_id", "code", "k2")


def _random_schema(rng):
    """2 to 8 tables of both kinds, declared out of name order. About half
    the pairs are given one or two shared columns, and every table spells
    each of its names in a case of its own."""
    names = rng.sample(["ta", "tb", "tc", "td", "te", "tf", "tg", "th"], rng.randint(2, 8))
    columns = {n: {f"{n}_own"} for n in names}
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            if rng.random() < 0.5:
                shared = rng.sample(SHARED, rng.randint(1, 2))
                columns[a].update(shared)
                columns[b].update(shared)
    tables = []
    for n in names:
        cols = [Column(_respell(rng, c), rng.choice(VALUE_KINDS)) for c in sorted(columns[n])]
        rng.shuffle(cols)
        tables.append(Table(_respell(rng, n), rng.choice(TABLE_KINDS), tuple(cols)))
    return Schema(tuple(tables))


def test_name_index_matches_reference_scans():
    rng = random.Random(20261018)
    mixed_labels = 0
    for _ in range(300):
        schema = _random_schema(rng)
        graph = build_graph(schema)
        nodes, edges = reference_graph(schema)
        assert graph.nodes == nodes
        assert graph.edges == edges
        for pair, label in edges.items():
            a, b = (schema.table(t) for t in pair)
            mixed_labels += any(a.column(c).name != b.column(c).name for c in label)
        for name in SHARED + ("ta_own", "missing"):
            for spelling in (name, _respell(rng, name)):
                assert tables_owning(schema, spelling) == reference_tables_owning(
                    schema, spelling
                )
        first_spelling = {}
        for t in schema.tables:
            assert schema.table(_respell(rng, t.name.lower())) is t
            for c in t.columns:
                assert t.column(_respell(rng, c.name.lower())) is c
                first_spelling.setdefault(c.name.lower(), c.name)
        assert generate_lexicon(schema).column_spelling == first_spelling
    assert mixed_labels > 100


def test_build_graph_scales_to_long_chain():
    # each table shares one column with the next; comparing every pair of
    # tables took 0.53 s at this size
    n = 800
    schema = Schema(tuple(
        Table(f"t{i:03d}", "entity", (
            Column(f"k{i}", "integer"), Column(f"k{i + 1}", "integer"), Column(f"v{i}", "text"),
        ))
        for i in range(n)
    ))
    elapsed = []
    for _ in range(3):
        start = time.perf_counter()
        graph = build_graph(schema)
        elapsed.append(time.perf_counter() - start)
    assert len(graph.edges) == n - 1
    assert graph.shared_columns("t041", "t042") == {"k42"}
    assert min(elapsed) < 0.05


def test_join_path_golden(bank_graph):
    plan = join_path(bank_graph, {"customer", "account"})
    assert plan.tables == ("customer", "depositor", "account")
    assert plan.conditions == (
        ("customer", "customer_name", "depositor", "customer_name"),
        ("depositor", "account_number", "account", "account_number"),
    )


def test_join_path_singleton(bank_graph):
    plan = join_path(bank_graph, {"account"})
    assert plan.tables == ("account",)
    assert plan.conditions == ()


def _line_graph(names):
    edges = {
        frozenset((a, b)): frozenset({"k"}) for a, b in zip(names, names[1:])
    }
    return SchemaGraph(tuple(names), edges)


def test_join_path_line_graph():
    graph = _line_graph(["A", "B", "C", "D"])
    plan = join_path(graph, {"A", "C"})
    assert set(plan.tables) == {"A", "B", "C"}


def test_join_path_disconnected():
    graph = SchemaGraph(("A", "B"), {})
    with pytest.raises(DisconnectedSchemaError) as exc:
        join_path(graph, {"A", "B"})
    assert exc.value.table_a == "A"
    assert exc.value.table_b == "B"


def test_join_path_names_unknown_table(bank_graph):
    with pytest.raises(ValueError, match="'Z'"):
        join_path(bank_graph, {"Z"})
    with pytest.raises(ValueError, match="empty"):
        join_path(bank_graph, set())


def test_join_path_deterministic(bank_graph):
    plans = [join_path(bank_graph, {"customer", "loan", "account"}) for _ in range(5)]
    assert all(p == plans[0] for p in plans)


def test_join_path_always_connected(bank_graph):
    nodes = bank_graph.nodes
    for a in nodes:
        for b in nodes:
            plan = join_path(bank_graph, {a, b})
            assert plan_is_connected(plan)
            for lt, lc, rt, rc in plan.conditions:
                assert lt != rt
                assert lc == rc
                assert lt in plan.tables and rt in plan.tables


def test_join_path_minimal_on_bank(bank_graph):
    for a in bank_graph.nodes:
        for b in bank_graph.nodes:
            plan = join_path(bank_graph, {a, b})
            oracle = min_connected_superset(bank_graph, {a, b})
            assert len(plan.tables) == len(oracle)


def _random_graph(rng, n_nodes):
    names = [chr(ord("A") + i) for i in range(n_nodes)]
    edges = {}
    for i in range(n_nodes):
        for j in range(i + 1, n_nodes):
            if rng.random() < 0.4:
                edges[frozenset((names[i], names[j]))] = frozenset({"k"})
    return SchemaGraph(tuple(names), edges)


def test_join_path_minimal_on_random_graph_pairs():
    rng = random.Random(20260823)
    for _ in range(100):
        graph = _random_graph(rng, rng.randint(2, 6))
        required = set(rng.sample(graph.nodes, 2))
        oracle = min_connected_superset(graph, required)
        if oracle is None:
            with pytest.raises(DisconnectedSchemaError):
                join_path(graph, required)
            continue
        plan = join_path(graph, required)
        assert plan_is_connected(plan)
        assert set(required) <= set(plan.tables)
        assert len(plan.tables) == len(oracle)


def _random_tree(rng, n_nodes):
    names = [chr(ord("A") + i) for i in range(n_nodes)]
    edges = {}
    for i in range(1, n_nodes):
        parent = rng.randrange(i)
        edges[frozenset((names[i], names[parent]))] = frozenset({"k"})
    return SchemaGraph(tuple(names), edges)


def test_join_path_exact_on_random_trees():
    # nearest-attachment is exact on trees, also for 3 required tables
    rng = random.Random(7)
    for _ in range(100):
        graph = _random_tree(rng, rng.randint(3, 6))
        required = set(rng.sample(graph.nodes, 3))
        plan = join_path(graph, required)
        oracle = min_connected_superset(graph, required)
        assert plan_is_connected(plan)
        assert len(plan.tables) == len(oracle)


def test_join_path_matches_reference_plan():
    # Names are shuffled so that declaration order and name order differ,
    # and edges may carry several columns; about one graph in four leaves
    # some required table unreachable.
    rng = random.Random(20261018)
    disconnected = 0
    for _ in range(1200):
        names = rng.sample("ABCDEFGHIJ", rng.randint(2, 8))
        density = rng.uniform(0.15, 0.7)
        edges = {}
        for i, a in enumerate(names):
            for b in names[i + 1 :]:
                if rng.random() < density:
                    edges[frozenset((a, b))] = frozenset(
                        rng.sample(["k", "a_id", "z"], rng.randint(1, 2))
                    )
        graph = SchemaGraph(tuple(names), edges)
        required = set(rng.sample(names, rng.randint(1, min(4, len(names)))))
        expected = reference_join_path(graph, required)
        if expected is None:
            disconnected += 1
            with pytest.raises(DisconnectedSchemaError):
                join_path(graph, required)
            continue
        plan = join_path(graph, required)
        assert (plan.tables, plan.conditions) == expected
    assert disconnected >= 100


def test_join_path_scales_to_long_chain():
    names = [f"t{i:03d}" for i in range(400)]
    required = {names[0], names[200], names[-1]}
    elapsed = []
    for _ in range(3):
        graph = _line_graph(names)  # fresh graph: timing includes the index
        start = time.perf_counter()
        plan = join_path(graph, required)
        elapsed.append(time.perf_counter() - start)
    assert plan.tables[:1] == (names[0],) and len(plan.tables) == 400
    assert plan_is_connected(plan)
    assert min(elapsed) < 0.1
