"""The four workloads: seeded inputs, the pipeline each one drives, and
the checks that apply to its outputs.

Every workload fixes the structure of its inputs (condition counts,
frame counts, query kinds) by a schedule over the query index, and
draws the content (columns, operators, literals, data, names) from the
seed. Costs then vary little from seed to seed, while every seed gives
other inputs.
"""

from __future__ import annotations

import csv
import random
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Optional

from speakql import (
    build_graph,
    decode_sentence,
    execute,
    generate_lexicon,
    generate_sql,
    load_dataset,
    load_models,
    load_schema,
    parse,
    resolve,
    tokenize,
)

import checks
from queries import (
    EQUALITY_OPS,
    ORDERING_OPS,
    Cond,
    QuerySpec,
    Table,
    numeric_literal,
    render,
    schema_yaml,
    yaml_str,
)
from spans import call


@dataclass
class Out:
    """What one query produced, kept from the first round for the checks."""

    text: str
    tokens: Any = None
    ir: Any = None
    rq: Any = None
    sql: Any = None
    result: Any = None
    decoding: Any = None


def translate(s, text, tr):
    out = Out(text)
    out.tokens = call(tr, "lexer.tokenize", tokenize, text, s.lexicon)
    out.ir = call(tr, "parser.parse", parse, out.tokens)
    out.rq = call(tr, "builder.resolve", resolve, out.ir, s.schema, s.graph)
    out.sql = call(tr, "builder.generate_sql", generate_sql, out.rq)
    return out


def write_csv(path, table, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([c for c, _ in table.columns])
        for row in rows:
            writer.writerow(["" if v is None else v for v in row])


class Workload:
    name = ""
    setup_reps = 9  # set-ups per run; setup_s is their median
    cli_reps = 15  # CLI processes per traced run; cli.wall_ms is the fastest
    tables = ()
    data_dir: Optional[Path] = None
    models_path: Optional[Path] = None

    def __init__(self, seed, workdir):
        self.rng = random.Random(f"{self.name}:{seed}")
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.schema_path = self.workdir / "schema.yaml"
        self.items = []  # one input per query of a round
        self.specs = []  # what each input means
        self.generate()
        self.schema_path.write_text(schema_yaml(self.tables), encoding="utf-8")
        lines = [self.input_line(item) for item in self.items]
        (self.workdir / "inputs.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")

    @staticmethod
    def input_line(item):
        """One query as a line of inputs.txt: its text."""
        return item

    def setup(self, tr):
        """Session set-up as the CLI does it, from the files on disk."""
        text = self.schema_path.read_text(encoding="utf-8")
        schema = call(tr, "schema.load_schema", load_schema, text)
        s = SimpleNamespace(schema=schema, dataset=None, models=None)
        s.graph = call(tr, "schema.build_graph", build_graph, schema)
        s.lexicon = call(tr, "lexer.generate_lexicon", generate_lexicon, schema)
        if self.data_dir is not None:
            s.dataset = call(
                tr, "executor.load_dataset", load_dataset, self.data_dir, schema
            )
        if self.models_path is not None:
            text = self.models_path.read_text(encoding="utf-8")
            s.models = call(tr, "decoder.load_models", load_models, text)
        return s

    def run(self, s, i, tr):
        return translate(s, self.items[i], tr)

    def prepare_checks(self, s):
        """State the checks share, built once after the timed loop."""
        self.db = checks.sqlite_db(self.tables)

    def check(self, s, i, out):
        spec = self.specs[i]
        return checks.check_ir(out.ir, spec) or checks.check_sql_accepted(
            self.db, out.sql.text
        )

    def cli_query(self):
        """(index of the query the CLI answers, extra CLI arguments)."""
        raise NotImplementedError

    def cli_expected(self, out):
        return out.sql.text + "\n"

    def row_counts(self):
        return {}


# ---------------------------------------------------------------- bank schema

BANK = (
    Table("customer", (("customer_name", "text"), ("customer_street", "text"),
                       ("customer_city", "text"))),
    Table("branch", (("branch_name", "text"), ("branch_city", "text"), ("assets", "real"))),
    Table("account", (("account_number", "text"), ("branch_name", "text"), ("balance", "real"))),
    Table("borrower", (("customer_name", "text"), ("loan_number", "text")), "relationship"),
    Table("depositor", (("customer_name", "text"), ("account_number", "text")), "relationship"),
    Table("loan", (("loan_number", "text"), ("branch_name", "text"), ("amount", "real"))),
)
# The table an unscoped column names: the first entity table declaring it.
BANK_HOME = {
    "customer_name": "customer", "customer_street": "customer", "customer_city": "customer",
    "branch_name": "branch", "branch_city": "branch", "assets": "branch",
    "account_number": "account", "balance": "account",
    "loan_number": "loan", "amount": "loan",
}
# Table sets whose smallest join tree in the bank graph is unique, with
# that tree: (FROM tables, (left table, shared column, right table) keys).
# Others, such as {customer, branch}, have two equally short trees.
BANK_JOINS = {
    frozenset({"customer", "account"}): (
        ("customer", "depositor", "account"),
        (("customer", "customer_name", "depositor"), ("depositor", "account_number", "account")),
    ),
    frozenset({"customer", "loan"}): (
        ("customer", "borrower", "loan"),
        (("customer", "customer_name", "borrower"), ("borrower", "loan_number", "loan")),
    ),
    frozenset({"account", "branch"}): (
        ("account", "branch"), (("account", "branch_name", "branch"),)
    ),
    frozenset({"loan", "branch"}): (("loan", "branch"), (("loan", "branch_name", "branch"),)),
    frozenset({"account", "loan"}): (("account", "loan"), (("account", "branch_name", "loan"),)),
}
BANK_GROUPS = [frozenset({t}) for t in ("customer", "branch", "account", "loan")] + list(BANK_JOINS)
BANK_TEXT = {
    "customer_name": ("Adams", "Brooks", "Curry", "Glenn", "Green", "Hayes", "Jackson",
                      "Johnson", "Jones", "Lindsay", "Smith", "Turner", "Williams"),
    "customer_street": ("Main", "North", "Park", "Putnam", "Nassau", "Spring", "Alma",
                        "Sand Hill", "Senator", "Walnut"),
    "customer_city": ("Harrison", "Rye", "Pittsfield", "Stamford", "Princeton",
                      "Woodside", "Brooklyn", "Palo Alto"),
    "branch_name": ("Brighton", "Downtown", "Mianus", "North Town", "Perryridge",
                    "Pownal", "Redwood", "Round Hill"),
    "branch_city": ("Brooklyn", "Bennington", "Horseneck", "Palo Alto", "Rye"),
    "account_number": tuple(f"A-{n}" for n in range(101, 131)),
    "loan_number": tuple(f"L-{n}" for n in range(11, 41)),
}


def bank_join(spec):
    if spec.scope is not None or len(spec.tables) == 1:
        return tuple(spec.tables), ()
    return BANK_JOINS[frozenset(spec.tables)]


def money(rng):
    return round(rng.uniform(0, 10000), 2)


class TypedBank(Workload):
    """Typed queries on the bank schema, 0 to 40 conditions each."""

    name = "typed-bank"
    setup_reps = 15
    tables = BANK
    max_conditions = 40
    per_count = 6  # queries per condition count in a round

    def generate(self):
        rng = self.rng
        n = (self.max_conditions + 1) * self.per_count
        for i in range(n):
            spec = self.spec(rng, (i * 17) % (self.max_conditions + 1), 1 + i % 3)
            self.specs.append(spec)
            self.items.append(render(spec, rng))
        self.check_dir = self.workdir / "data"
        self.check_dir.mkdir(exist_ok=True)
        self.write_data(rng)

    @staticmethod
    def spec(rng, n_cond, n_select):
        if rng.random() < 0.2:
            table = rng.choice(BANK)
            scope = table.name
            pool = [(table.name, c, k) for c, k in table.columns]
        else:
            group = rng.choice(BANK_GROUPS)
            scope = None
            pool = [
                (t.name, c, k)
                for t in BANK
                if t.name in group
                for c, k in t.columns
                if BANK_HOME[c] == t.name
            ]
        select = rng.sample(pool, min(n_select, len(pool)))
        conds = []
        for _ in range(n_cond):
            table, column, kind = rng.choice(pool)
            if kind == "text":
                op = rng.choice(EQUALITY_OPS)
                conds.append(Cond(table, column, op, rng.choice(BANK_TEXT[column])))
            else:
                op = rng.choice(ORDERING_OPS + EQUALITY_OPS)
                conds.append(Cond(table, column, op, numeric_literal(rng, 0, 10000)))
        connective = rng.choice(("and", "or")) if n_cond > 1 else None
        return QuerySpec(tuple((t, c) for t, c, _ in select), tuple(conds), connective, scope)

    def write_data(self, rng):
        """A small bank dataset for the row checks: few rows, so the
        executor's Cartesian product stays small, with values drawn from
        the same ranges and pools as the query literals."""
        text = BANK_TEXT
        customers = rng.sample(BANK_TEXT["customer_name"], 6)
        branches = rng.sample(BANK_TEXT["branch_name"], 4)
        accounts = rng.sample(BANK_TEXT["account_number"], 6)
        loans = rng.sample(BANK_TEXT["loan_number"], 5)
        rows = {
            "customer": [
                (c, rng.choice(text["customer_street"]), rng.choice(text["customer_city"]))
                for c in customers
            ],
            "branch": [(b, rng.choice(BANK_TEXT["branch_city"]), money(rng)) for b in branches],
            "account": [(a, rng.choice(branches), money(rng)) for a in accounts],
            "borrower": [(rng.choice(customers), rng.choice(loans)) for _ in range(6)],
            "depositor": [(rng.choice(customers), rng.choice(accounts)) for _ in range(8)],
            "loan": [(ln, rng.choice(branches), money(rng)) for ln in loans],
        }
        for t in BANK:
            write_csv(self.check_dir / f"{t.name}.csv", t, rows[t.name])

    def prepare_checks(self, s):
        rows = {t.name: checks.read_csv_rows(self.check_dir / f"{t.name}.csv", t) for t in BANK}
        self.db = checks.sqlite_db(BANK, rows)
        self.check_data = load_dataset(self.check_dir, s.schema)

    def check(self, s, i, out):
        spec = self.specs[i]
        bad = checks.check_ir(out.ir, spec)
        if bad:
            return bad
        rows = execute(out.rq, self.check_data).rows
        ref = checks.reference_sql(spec, *bank_join(spec))
        return checks.check_rows(self.db, rows, out.sql.text, ref)

    def cli_query(self):
        i = next(i for i, s in enumerate(self.specs) if len(s.conditions) == 20)
        return i, ["--query", self.items[i]]


# ---------------------------------------------------------------- spoken

SPOKEN_VERBS = ("get", "show", "find", "list")
SPOKEN_NUMERIC = ("assets", "balance", "amount")
SPOKEN_TEXT = ("customer_name", "customer_city", "branch_name", "branch_city")
SPOKEN_OPS = {
    ">": ("greater", "than"),
    "<": ("less", "than"),
    ">=": ("at", "least"),
    "<=": ("at", "most"),
    "=": ("equals",),
    "<>": ("not", "equal", "to"),
}
BODY_PHONEMES = 12
P_CANONICAL, P_LOOP, CONFUSABLE = 0.85, 0.5, 3


class Spoken(Workload):
    """Phoneme streams of 24 to 80 frames, decoded, then translated on
    the bank schema.

    Each word model is left to right with a self-loop on every state.
    Its first phoneme is an onset symbol used by no other word and by no
    other position; its other phonemes come from a shared body set, with
    no phoneme repeated next to itself. Each state emits its own symbol
    with 0.85 and three neighbouring symbols of its class with 0.05.
    Streams emit only the canonical symbol of each state. So the stream
    splits into words at its onsets in exactly one way, that alignment
    is the only one without a 0.05 emission, and every path pays 0.5
    per frame in transitions: the generating sentence is the unique
    optimum, and the decoded words must equal it.

    The models are the same for every seed, since which words confuse
    with which sets the decoder's cost for a whole run. The seed picks
    the number and string words, the sentences and the state durations.
    """

    name = "spoken"
    tables = BANK
    n_streams = 48
    min_frames, max_frames = 24, 80

    def generate(self):
        rng = self.rng
        self.numbers = [str(n) for n in rng.sample(range(100, 10000), 7)]
        one_word = [v for c in SPOKEN_TEXT for v in BANK_TEXT[c] if " " not in v]
        self.strings = ["'" + v + "'" for v in rng.sample(sorted(set(one_word)), 5)]
        vocab = list(SPOKEN_VERBS + SPOKEN_NUMERIC + SPOKEN_TEXT) + ["and", "or", "whose"]
        vocab += sorted({w for words in SPOKEN_OPS.values() for w in words})
        vocab += self.numbers + self.strings
        self.build_models(vocab)
        self.build_grammar()
        self.models_path = self.workdir / "models.yaml"
        self.models_path.write_text(self.models_yaml(vocab), encoding="utf-8")

        n = self.n_streams
        for i in range(n):
            frames = self.min_frames + round(
                (self.max_frames - self.min_frames) * ((i * 29) % n) / (n - 1)
            )
            words, spec = self.sentence(rng, int(0.6 * frames))
            self.specs.append(spec)
            self.items.append(self.stream(rng, words, frames))

    def build_models(self, vocab):
        onsets = [f"o{k}" for k in range(len(vocab))]
        body = [f"b{k}" for k in range(BODY_PHONEMES)]
        self.alphabet = onsets + body

        def emissions(cls, k):
            out = {cls[k]: P_CANONICAL}
            for step in range(1, CONFUSABLE + 1):
                out[cls[(k + step) % len(cls)]] = (1 - P_CANONICAL) / CONFUSABLE
            return out

        self.phonemes, self.models = {}, {}
        for k, word in enumerate(vocab):
            seq = [onsets[k]]
            seq += [body[(5 * k + 7 * j) % len(body)] for j in range(1 + k % 4)]
            last = len(seq) - 1
            self.phonemes[word] = seq
            trans = {(j, j): P_LOOP for j in range(len(seq))}
            trans.update({(j, j + 1): 1 - P_LOOP for j in range(last)})
            emit = [emissions(onsets, k)]
            emit += [emissions(body, body.index(p)) for p in seq[1:]]
            self.models[word] = SimpleNamespace(
                entry={0: 1.0}, exit={last: 1 - P_LOOP}, trans=trans, emit=emit
            )

    def build_grammar(self):
        """A deterministic automaton over the query grammar; no word can
        follow itself, so a state path splits into words where the word
        changes."""
        arcs = {}
        for v in SPOKEN_VERBS:
            arcs[("S", v)] = "V"
        for c in SPOKEN_NUMERIC + SPOKEN_TEXT:
            arcs[("V", c)] = "L"
        arcs[("L", "and")] = "V"
        arcs[("L", "whose")] = "W"
        for c in SPOKEN_NUMERIC:
            arcs[("W", c)] = "N"
        for c in SPOKEN_TEXT:
            arcs[("W", c)] = "T"
        for start, end, ops in (("N", "NL", ORDERING_OPS + ("=",)), ("T", "TL", EQUALITY_OPS)):
            for op in ops:
                words = SPOKEN_OPS[op]
                state = start
                for k, w in enumerate(words):
                    nxt = end if k == len(words) - 1 else f"{start}.{'.'.join(words[: k + 1])}"
                    arcs[(state, w)] = nxt
                    state = nxt
        for w in self.numbers:
            arcs[("NL", w)] = "C"
        for w in self.strings:
            arcs[("TL", w)] = "C"
        arcs[("C", "and")] = "W"
        arcs[("C", "or")] = "W"
        self.grammar = (arcs, "S", {"L", "C"})

    def models_yaml(self, vocab):
        lines = ["phoneme_alphabet: [" + ", ".join(self.alphabet) + "]", "words:"]
        for word in vocab:
            m, seq = self.models[word], self.phonemes[word]
            lines.append(f"  - name: {yaml_str(word)}")
            lines.append("    states:")
            for p, emit in zip(seq, m.emit):
                probs = ", ".join(f"{s}: {q}" for s, q in emit.items())
                lines.append(f"      - {{phoneme: {p}, emissions: {{{probs}}}}}")
            lines.append("    entry: {0: 1.0}")
            lines.append("    transitions:")
            for j in range(len(seq)):
                row = ", ".join(f"{b}: {q}" for (a, b), q in sorted(m.trans.items()) if a == j)
                lines.append(f"      {j}: {{{row}}}")
            (last, p_exit), = m.exit.items()
            lines.append(f"    exit: {{{last}: {p_exit}}}")
        arcs, start, accepting = self.grammar
        states = sorted({a for a, _ in arcs} | set(arcs.values()))
        lines += ["grammar:", "  states: [" + ", ".join(yaml_str(s) for s in states) + "]"]
        lines += [f"  start: {start}", "  accepting: [" + ", ".join(sorted(accepting)) + "]"]
        lines.append("  arcs:")
        for (src, word), dst in arcs.items():
            src, word, dst = (yaml_str(x) for x in (src, word, dst))
            lines.append(f"    - {{from: {src}, word: {word}, to: {dst}}}")
        return "\n".join(lines) + "\n"

    def sentence(self, rng, budget):
        """Words and spec of a query whose phoneme count fits the budget."""

        def size(words):
            return sum(len(self.phonemes[w]) for w in words)

        cols = rng.sample(SPOKEN_NUMERIC + SPOKEN_TEXT, 2)
        words = [rng.choice(SPOKEN_VERBS), cols[0], "and", cols[1]]
        if size(words) > budget:
            words, cols = words[:2], cols[:1]
        connective = rng.choice(("and", "or"))
        conds = []
        while True:
            column = rng.choice(SPOKEN_NUMERIC + SPOKEN_TEXT)
            if column in SPOKEN_NUMERIC:
                op, word = rng.choice(ORDERING_OPS + ("=",)), rng.choice(self.numbers)
                literal = int(word)
            else:
                op, word = rng.choice(EQUALITY_OPS), rng.choice(self.strings)
                literal = word[1:-1]
            more = [connective if conds else "whose", column, *SPOKEN_OPS[op], word]
            if size(words + more) > budget:
                break
            words += more
            conds.append(Cond(BANK_HOME[column], column, op, literal))
        spec = QuerySpec(
            tuple((BANK_HOME[c], c) for c in cols),
            tuple(conds),
            connective if len(conds) > 1 else None,
        )
        return words, spec

    def stream(self, rng, words, frames):
        """Canonical observations with random state durations, and the
        generating alignment."""
        states = [(w, j) for w in words for j in range(len(self.phonemes[w]))]
        durations = [1] * len(states)
        for _ in range(frames - len(states)):
            durations[rng.randrange(len(states))] += 1
        path = [st for st, d in zip(states, durations) for _ in range(d)]
        observations = [self.phonemes[w][j] for w, j in path]
        return SimpleNamespace(
            words=tuple(words), state_path=tuple(path), observations=observations
        )

    @staticmethod
    def input_line(item):
        return " ".join(item.observations)

    def run(self, s, i, tr):
        hmms, fsa = s.models
        item = self.items[i]
        decoding = call(
            tr, "decoder.decode_sentence", decode_sentence, item.observations, hmms, fsa
        )
        out = translate(s, " ".join(decoding.words), tr)
        out.decoding = decoding
        return out

    def check(self, s, i, out):
        return checks.check_decoding(
            out.decoding, self.items[i], self.grammar, self.models
        ) or super().check(s, i, out)

    def cli_query(self):
        # The shortest stream: its decode takes a few milliseconds, so the
        # CLI's time is start-up and model loading, not decoding.
        i = min(range(len(self.items)), key=lambda k: len(self.items[k].observations))
        path = self.workdir / "cli_phonemes.txt"
        path.write_text(" ".join(self.items[i].observations) + "\n", encoding="utf-8")
        return i, ["--models", str(self.models_path), "--phonemes", str(path)]


# ---------------------------------------------------------------- wide schema

WIDE_FANOUT = (5, 5, 5)  # 1 + 5 + 25 + 125 = 156 tables
WIDE_WORDS = ("red", "green", "blue", "north", "south", "east", "west")


class WideSchema(Workload):
    """A snowflake of 156 tables whose graph is a tree; each query names
    columns of 2 or 3 leaf tables under different children of the root,
    so every join path runs through the root. Two queries in three name
    2 tables, the third names 3, which costs join_path about 5 times as
    much; the tail percentile falls among the latter."""

    name = "wide-schema"
    setup_reps, cli_reps = 7, 11  # each is a YAML load of the whole schema
    n_queries = 40

    def generate(self):
        rng = self.rng
        parent, level = [None], [0]
        for fan in WIDE_FANOUT:
            nxt = []
            for p in level:
                for _ in range(fan):
                    nxt.append(len(parent))
                    parent.append(p)
            level = nxt
        names = [f"t{n}" for n in rng.sample(range(100, 1000), len(parent))]
        children = {k: [] for k in range(len(parent))}
        for k, p in enumerate(parent):
            if p is not None:
                children[p].append(k)
        self.parent = {names[k]: (None if p is None else names[p]) for k, p in enumerate(parent)}
        self.key_of = {n: f"{n}_key" for n in names}
        self.attrs = {}
        tables = []
        for k in rng.sample(range(len(parent)), len(parent)):  # declaration order
            n = names[k]
            attrs = [(f"{n}_n", "integer"), (f"{n}_s", "text")]
            if rng.random() < 0.5:
                attrs.append((f"{n}_r", "real"))
            self.attrs[n] = attrs
            cols = [(self.key_of[n], "integer")]
            cols += [(self.key_of[names[c]], "integer") for c in children[k]]
            tables.append(Table(n, tuple(cols + attrs)))
        self.tables = tuple(tables)

        subtrees = children[0]
        leaves = {
            top: [names[c] for mid in children[top] for c in children[mid]] for top in subtrees
        }
        for i in range(self.n_queries):
            tops = rng.sample(subtrees, 3 if i % 3 == 2 else 2)
            spec = self.spec(rng, [rng.choice(leaves[t]) for t in tops])
            self.specs.append(spec)
            self.items.append(render(spec, rng))

    def spec(self, rng, required):
        n_select = (len(required) + 1) // 2
        select = [(t, rng.choice(self.attrs[t])) for t in required[:n_select]]
        cond_tables = required[n_select:] + [rng.choice(required) for _ in range(rng.randint(0, 2))]
        conds = []
        for t in cond_tables:
            column, kind = rng.choice(self.attrs[t])
            if kind == "text":
                conds.append(Cond(t, column, rng.choice(EQUALITY_OPS), rng.choice(WIDE_WORDS)))
            else:
                op = rng.choice(ORDERING_OPS + EQUALITY_OPS)
                conds.append(Cond(t, column, op, numeric_literal(rng, 0, 1000)))
        connective = rng.choice(("and", "or")) if len(conds) > 1 else None
        return QuerySpec(tuple((t, c) for t, (c, _) in select), tuple(conds), connective)

    def check(self, s, i, out):
        spec = self.specs[i]
        return (
            checks.check_ir(out.ir, spec)
            or checks.check_tree_plan(out.rq.join_plan, spec.tables, self.parent, self.key_of)
            or checks.check_sql_accepted(self.db, out.sql.text)
        )

    def cli_query(self):
        i = next(i for i, s in enumerate(self.specs) if len(s.tables) == 3)
        return i, ["--query", self.items[i]]


# ---------------------------------------------------------------- CSV tables

CSV_TABLES = (
    Table("sale", (("sale_id", "integer"), ("store_id", "integer"), ("item_id", "integer"),
                   ("qty", "integer"), ("price", "real"), ("sale_day", "integer"))),
    Table("store", (("store_id", "integer"), ("store_size", "integer"), ("store_city", "text"))),
    Table("item", (("item_id", "integer"), ("cat_id", "integer"), ("weight", "real"),
                   ("item_name", "text"))),
    Table("category", (("cat_id", "integer"), ("cat_name", "text"), ("cat_rank", "integer"))),
)
CSV_ROWS = {"sale": 10000, "store": 2, "item": 100, "category": 20}
# The graph is a tree: sale-store, sale-item, item-category. Sale-item
# joins (a million combinations) are left out; the two below are sized
# so the nested loop finishes.
CSV_JOINS = {
    frozenset({"sale", "store"}): (("sale", "store"), (("sale", "store_id", "store"),)),
    frozenset({"item", "category"}): (("item", "category"), (("item", "cat_id", "category"),)),
}
CSV_RANGES = {"qty": (1, 101), "price": (1, 1000), "sale_day": (1, 366),
              "store_size": (10, 100), "weight": (1, 50), "cat_rank": (1, 21)}
CSV_TEXT = {
    "store_city": ("Oslo", "Rye", "Troy", "Lima", "Kiev", "Nice", "Bern", "Pune"),
    "item_name": tuple(f"{a} {b}" for a in ("red", "big", "old", "new", "tiny")
                       for b in ("lamp", "desk", "mug", "rug", "fan", "pen")),
    "cat_name": tuple(f"cat{k}" for k in range(20)),
}
CSV_HOME = {c: t.name for t in CSV_TABLES for c, _ in t.columns if not c.endswith("_id")}
CSV_HOME["sale_id"] = "sale"
# (kind, queries per round). From cheap to dear: item scans, item-category
# joins, sale scans (the median falls among them), sale-store joins (the
# top quarter). The cheap ones keep a round short, so that each query
# runs in many rounds. Sale scans and joins carry exactly two conditions,
# so each kind costs about the same whatever the seed.
CSV_MIX = (("item", 8), ("dim", 8), ("scan", 12), ("fact", 12))


class CsvJoin(Workload):
    """Generated CSV tables: selective scans of a 10 000-row fact table,
    fact-to-store joins (20 000 combinations), item-to-category joins
    (2 000 combinations) and scans of the 100-row item table, run by the
    executor."""

    name = "csv-join"

    def generate(self):
        rng = self.rng
        self.tables = CSV_TABLES
        self.data_dir = self.workdir / "data"
        self.data_dir.mkdir(exist_ok=True)
        self.write_data(rng)
        kinds = [k for k, n in CSV_MIX for _ in range(n)]
        rng.shuffle(kinds)
        for kind in kinds:
            spec = getattr(self, f"{kind}_spec")(rng)
            self.specs.append(spec)
            self.items.append(render(spec, rng))

    def write_data(self, rng):
        r, text = CSV_RANGES, CSV_TEXT

        def sale(k):
            store, item = rng.randrange(CSV_ROWS["store"]), rng.randrange(CSV_ROWS["item"])
            qty, price = rng.randrange(*r["qty"]), round(rng.uniform(*r["price"]), 2)
            return k, store, item, qty, price, rng.randrange(*r["sale_day"])

        def item(k):
            cat, weight = rng.randrange(CSV_ROWS["category"]), round(rng.uniform(*r["weight"]), 2)
            return k, cat, weight, rng.choice(text["item_name"])

        rows = {
            "sale": sale,
            "store": lambda k: (k, rng.randrange(*r["store_size"]), text["store_city"][k]),
            "item": item,
            "category": lambda k: (k, text["cat_name"][k], rng.randrange(*r["cat_rank"])),
        }
        for t in CSV_TABLES:
            n = CSV_ROWS[t.name]
            write_csv(self.data_dir / f"{t.name}.csv", t, (rows[t.name](k) for k in range(n)))

    def row_counts(self):
        return CSV_ROWS

    @staticmethod
    def cond(rng, column):
        table = CSV_HOME[column]
        if column in CSV_TEXT:
            return Cond(table, column, rng.choice(EQUALITY_OPS), rng.choice(CSV_TEXT[column]))
        op = rng.choice(ORDERING_OPS + EQUALITY_OPS)
        return Cond(table, column, op, numeric_literal(rng, *CSV_RANGES[column]))

    @staticmethod
    def selective(rng):
        """A sale condition that about 1 row in 20 or fewer passes."""
        column, op, literal = rng.choice((
            ("qty", ">=", rng.randrange(96, 100)),
            ("qty", "<", rng.randrange(2, 6)),
            ("price", "<", numeric_literal(rng, 5, 50)),
            ("price", ">", numeric_literal(rng, 950, 995)),
            ("sale_day", "=", rng.randrange(1, 366)),
        ))
        return Cond("sale", column, op, literal)

    def scan_spec(self, rng):
        cols = rng.sample(("sale_id", "qty", "price", "sale_day"), rng.randint(1, 2))
        connective = rng.choice(("and", "or"))
        second = (self.selective(rng) if connective == "or"
                  else self.cond(rng, rng.choice(("qty", "price", "sale_day"))))
        return QuerySpec(tuple(("sale", c) for c in cols), (self.selective(rng), second),
                         connective)

    def fact_spec(self, rng):
        select = (("sale", rng.choice(("sale_id", "qty", "price"))),
                  ("store", rng.choice(("store_city", "store_size"))))
        conds = (self.selective(rng), self.cond(rng, rng.choice(("store_city", "store_size"))))
        return QuerySpec(select, conds, "and")

    def item_spec(self, rng):
        select = (("item", rng.choice(("item_name", "weight"))),)
        conds = [self.cond(rng, rng.choice(("weight", "item_name")))
                 for _ in range(rng.randint(1, 3))]
        connective = rng.choice(("and", "or")) if len(conds) > 1 else None
        return QuerySpec(select, tuple(conds), connective)

    def dim_spec(self, rng):
        select = (("item", rng.choice(("item_name", "weight"))),
                  ("category", rng.choice(("cat_name", "cat_rank"))))
        conds = [self.cond(rng, rng.choice(("weight", "item_name", "cat_name", "cat_rank")))
                 for _ in range(rng.randint(1, 2))]
        connective = rng.choice(("and", "or")) if len(conds) > 1 else None
        return QuerySpec(select, tuple(conds), connective)

    def run(self, s, i, tr):
        out = translate(s, self.items[i], tr)
        out.result = call(tr, "executor.execute", execute, out.rq, s.dataset)
        return out

    def prepare_checks(self, s):
        rows = {t.name: checks.read_csv_rows(self.data_dir / f"{t.name}.csv", t)
                for t in CSV_TABLES}
        self.db = checks.sqlite_db(CSV_TABLES, rows)

    def check(self, s, i, out):
        spec = self.specs[i]
        bad = checks.check_ir(out.ir, spec)
        if bad:
            return bad
        join = CSV_JOINS.get(frozenset(spec.tables), (tuple(spec.tables), ()))
        return checks.check_rows(
            self.db, out.result.rows, out.sql.text, checks.reference_sql(spec, *join)
        )

    def cli_query(self):
        i = next(i for i, s in enumerate(self.specs) if s.tables == {"sale"})
        return i, ["--data", str(self.data_dir), "--query", self.items[i],
                   "--emit", "rows", "--format", "csv"]

    def cli_expected(self, out):
        lines = [",".join(f"{t}.{c}" for t, c in out.result.columns)]
        lines += [",".join("" if v is None else str(v) for v in row) for row in out.result.rows]
        return "\n".join(lines) + "\n"


WORKLOADS = {w.name: w for w in (TypedBank, WideSchema, Spoken, CsvJoin)}
