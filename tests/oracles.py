"""Independent brute-force reference implementations used as test oracles.

These deliberately share no code with the package internals: a
character walk and a try-every-phrase loop for tokenizing, a walk over
an explicit state table for parsing, scans of every table and column
for name lookups and column bindings, subset and simple-path
enumeration for join planning, exhaustive path enumeration for HMM
decoding, and a literal triple-loop executor.
"""

import math
import operator
from fractions import Fraction
from itertools import combinations, product

from speakql.errors import QueryParseError
from speakql.lexer import KEYWORD_MAP, NOISE_WORDS
from speakql.parser import Comparison, Connective, QueryIR

NEG_INF = float("-inf")


# -------------------------------------------------------------------- lexer

class UnknownWord(Exception):
    def __init__(self, word, position):
        super().__init__(word, position)
        self.word, self.position = word, position


def _units(text):
    """(unit, quoted) pairs by a walk over the characters: a quote that
    appears again later opens a string through that next quote, anything
    else runs to the next whitespace."""
    units, k = [], 0
    while k < len(text):
        if text[k].isspace():
            k += 1
            continue
        end = text.find(text[k], k + 1) if text[k] in "'\"" else -1
        quoted = end >= 0
        if not quoted:
            end = k
            while end + 1 < len(text) and not text[end + 1].isspace():
                end += 1
        units.append((text[k : end + 1], quoted))
        k = end + 1
    return units


def _ascii_lower(word):
    return "".join(chr(ord(c) + 32) if "A" <= c <= "Z" else c for c in word)


def _is_number(unit):
    whole, dot, fraction = (unit[1:] if unit[:1] in "+-" else unit).partition(".")
    return whole.isdecimal() and (not dot or fraction.isdecimal())


def reference_tokenize(text, lexicon):
    """(kind name, source, target, position) tuples, or UnknownWord.

    At each unit: a quoted string without a lone surrogate; else every
    keyword phrase of two or more words, longest first, its words
    compared ASCII-lower-cased; else a number; else the unit's
    `str.lower()` as a one-word keyword, a column (a table right after
    `of`), a table or a noise word."""
    units = _units(text)
    folded = [_ascii_lower(u) for u, _ in units]
    phrases = sorted((p.split() for p in KEYWORD_MAP if " " in p), key=len, reverse=True)
    tokens, i = [], 0
    while i < len(units):
        unit, quoted = units[i]
        if quoted and not any("\ud800" <= c <= "\udfff" for c in unit):
            tokens.append(("STRING_LITERAL", unit, unit[1:-1], i))
            i += 1
            continue
        for words in phrases:
            if folded[i : i + len(words)] == words:
                kind, target = KEYWORD_MAP[" ".join(words)]
                source = " ".join(u for u, _ in units[i : i + len(words)])
                tokens.append((kind.name, source, target, i))
                i += len(words)
                break
        else:
            word = unit.lower()
            after_of = bool(tokens) and tokens[-1][0] == "OF"
            if _is_number(unit):
                tokens.append(("NUMBER", unit, unit, i))
            elif word in KEYWORD_MAP:
                tokens.append((KEYWORD_MAP[word][0].name, unit, KEYWORD_MAP[word][1], i))
            elif word in lexicon.column_spelling and not (
                after_of and word in lexicon.table_spelling
            ):
                tokens.append(("COLUMN", unit, lexicon.column_spelling[word], i))
            elif word in lexicon.table_spelling:
                tokens.append(("TABLE", unit, lexicon.table_spelling[word], i))
            elif word not in NOISE_WORDS:
                raise UnknownWord(unit, i)
            i += 1
    return tokens


# ------------------------------------------------------------------- parser

# state -> (what the state expects, {token kind name: next state}). None is
# the end of the token list; "AND COLUMN" is a LOGICAL_AND that continues
# the select list, one followed by a COLUMN that no COMPARATOR follows.
PARSE_TABLE = {
    "verb": ("a select verb (get/show/...)", {"VERB_SELECT": "select column"}),
    "select column": ("a column name", {"COLUMN": "select list"}),
    "select list": (
        "a where introducer (whose/where/...)",
        {"AND COLUMN": "select column", "OF": "table", "WHERE_INTRO": "column", None: "done"},
    ),
    "table": ("a table name", {"TABLE": "scoped"}),
    "scoped": ("a where introducer (whose/where/...)", {"WHERE_INTRO": "column", None: "done"}),
    "column": ("a column name", {"COLUMN": "comparator"}),
    "comparator": ("a comparator", {"COMPARATOR": "literal"}),
    "literal": (
        "a number or quoted string", {"NUMBER": "condition", "STRING_LITERAL": "condition"}
    ),
    "condition": ("end of query", {"LOGICAL_AND": "column", "LOGICAL_OR": "column", None: "done"}),
}


def reference_parse(tokens):
    """QueryIR of a token list by a walk over PARSE_TABLE, or the
    QueryParseError of the first token it has no move for, or of a
    select column read a second time."""
    kinds = [t.kind.name for t in tokens] + [None, None]
    select, scope, predicate, condition, connective = [], None, None, [], None
    state, i = "verb", 0
    while state != "done":
        kind = kinds[i]
        if state == "select list" and kinds[i : i + 2] == ["LOGICAL_AND", "COLUMN"]:
            if kinds[i + 2] != "COMPARATOR":
                kind = "AND COLUMN"
        found = "end of query" if kind is None else f"{kinds[i]}({tokens[i].source_lexeme!r})"
        expected, moves = PARSE_TABLE[state]
        if kind not in moves:
            raise QueryParseError(i, expected, found)
        target = None if kind is None else tokens[i].target_lexeme
        if state == "select column":
            if target in select:
                raise QueryParseError(i, "distinct select columns", found)
            select.append(target)
        elif state == "table":
            scope = target
        elif state in ("column", "comparator"):
            condition.append(target)
        elif state == "literal":
            literal = target if kind == "STRING_LITERAL" else _reference_number(target, i)
            comparison = Comparison(*condition, literal)
            if predicate is not None:
                comparison = Connective(connective, predicate, comparison)
            predicate, condition = comparison, []
        elif state == "condition" and kind is not None:
            connective = "and" if kind == "LOGICAL_AND" else "or"
        state = moves[kind]
        i += 1
    return QueryIR(tuple(select), scope, predicate)


def _reference_number(text, position):
    """The exact value, as an int when it is whole; rejected when int()
    cannot convert it, it is whole and outside [-2**63, 2**63), a float
    cannot hold it, or it rounds to 0.0."""
    try:
        exact = Fraction(text)
        value = int(exact) if exact.denominator == 1 else float(exact)
    except (ValueError, OverflowError):
        value = None
    if value is None or (value == 0) != (exact == 0) or (
            exact.denominator == 1 and not -(2**63) <= value < 2**63):
        raise QueryParseError(
            position, "a number of representable size", f"a {len(text)}-character number"
        )
    return value


# ------------------------------------------------------------- name lookups

def reference_graph(schema):
    """(nodes, edges) of the shared-column graph, by comparing every pair
    of tables. Each edge is labelled with the earlier-declared table's
    spellings of the names the two share, compared case-insensitively."""
    edges = {}
    for i, a in enumerate(schema.tables):
        a_cols = {c.name.lower(): c.name for c in a.columns}
        for b in schema.tables[i + 1 :]:
            shared = [a_cols[c.name.lower()] for c in b.columns if c.name.lower() in a_cols]
            if shared:
                edges[frozenset((a.name, b.name))] = frozenset(shared)
    return tuple(t.name for t in schema.tables), edges


def reference_tables_owning(schema, column_name):
    """Names of the tables with the column, by scanning every column of
    every table: entity tables first, declaration order within a kind."""
    owners = {"entity": [], "relationship": []}
    for t in schema.tables:
        if any(c.name.lower() == column_name.lower() for c in t.columns):
            owners[t.kind].append(t.name)
    return owners["entity"] + owners["relationship"]


def reference_binding(schema, column, scope=None):
    """The table a column binds to, or None, by scanning every table in
    declaration order: the table named `scope` if it has the column;
    with no scope, the first entity table that has it, or else the first
    table that has it."""
    owners = [t for t in schema.tables if any(c.name.lower() == column.lower() for c in t.columns)]
    if scope is not None:
        return next((t for t in owners if t.name.lower() == scope.lower()), None)
    return next((t for t in owners if t.kind == "entity"), owners[0] if owners else None)


# ---------------------------------------------------------------- join paths

def min_connected_superset(graph, required):
    """Smallest connected table subset containing `required`, by exhaustive
    enumeration over all subsets. Returns a set, or None if disconnected."""
    nodes = list(graph.nodes)
    required = set(required)
    for size in range(len(required), len(nodes) + 1):
        for combo in combinations(nodes, size):
            subset = set(combo)
            if required <= subset and _connected(graph, subset):
                return subset
    return None


def _connected(graph, subset):
    subset = set(subset)
    if not subset:
        return False
    seen = {next(iter(sorted(subset)))}
    frontier = list(seen)
    while frontier:
        cur = frontier.pop()
        for other in subset:
            if other not in seen and graph.shared_columns(cur, other):
                seen.add(other)
                frontier.append(other)
    return seen == subset


def reference_join_path(graph, required):
    """The greedy plan join_path should make, by exhaustive path search.

    Required tables attach in declaration order. Each one not yet
    selected takes, over every simple path from it to every selected
    table, the shortest path and then the lexicographically smallest.
    Returns (tables, conditions), or None if some table cannot attach."""
    order = [t for t in graph.nodes if t in set(required)]
    tables = order[:1]
    conditions = []
    used = set()
    for target in order[1:]:
        if target in tables:
            continue
        paths = [p for p in _simple_paths(graph, target) if p[-1] in tables]
        if not paths:
            return None
        path = min(paths, key=lambda p: (len(p), p))
        path.reverse()
        for left, right in zip(path, path[1:]):
            if right not in tables:
                tables.append(right)
            if frozenset((left, right)) not in used:
                used.add(frozenset((left, right)))
                for col in sorted(graph.shared_columns(left, right)):
                    conditions.append((left, col, right, col))
    return tuple(tables), tuple(conditions)


def _simple_paths(graph, start):
    """Every simple path that begins at `start`, as lists."""
    out = []
    stack = [[start]]
    while stack:
        path = stack.pop()
        out.append(path)
        for other in graph.nodes:
            if other not in path and graph.shared_columns(path[-1], other):
                stack.append(path + [other])
    return out


def plan_is_connected(plan):
    """Connectivity of plan.tables using only plan.conditions as edges."""
    tables = set(plan.tables)
    adj = {t: set() for t in tables}
    for lt, _, rt, _ in plan.conditions:
        adj[lt].add(rt)
        adj[rt].add(lt)
    if len(tables) == 1:
        return True
    seen = {plan.tables[0]}
    frontier = [plan.tables[0]]
    while frontier:
        for n in adj[frontier.pop()]:
            if n not in seen:
                seen.add(n)
                frontier.append(n)
    return seen == tables


# ------------------------------------------------------------------ viterbi

def _logp(p):
    return math.log(p) if p > 0.0 else NEG_INF


def enumerate_word_paths(observations, hmm):
    """All (log probability, state path) pairs with positive probability."""
    results = []

    def extend(t, state, score, path):
        score = score + _logp(hmm.states[state].emissions.get(observations[t], 0.0))
        if score == NEG_INF:
            return
        path = path + (state,)
        if t == len(observations) - 1:
            total = score + _logp(hmm.exit.get(state, 0.0))
            if total > NEG_INF:
                results.append((total, path))
            return
        for nxt, p in hmm.transitions.get(state, ()):
            if p > 0.0:
                extend(t + 1, nxt, score + _logp(p), path)

    for state, p in hmm.entry:
        if p > 0.0:
            extend(0, state, _logp(p), ())
    return results


def best_word_path(observations, hmm):
    """Max-probability path; ties pick the smallest state path."""
    results = enumerate_word_paths(observations, hmm)
    if not results:
        return NEG_INF, ()
    return min(results, key=lambda r: (-r[0], r[1]))


def best_sentence(observations, hmms, fsa):
    """Exhaustive max over segmentations x grammar paths x state paths.

    Returns (logp, words, state_path) or None.
    """
    by_name = {h.word: h for h in hmms}
    n = len(observations)
    results = []

    def extend(pos, state, score, words, spath):
        if pos == n and state in fsa.accepting:
            results.append((score, words, spath))
        for src, word, dst in fsa.arcs:
            if src != state:
                continue
            for j in range(pos + 1, n + 1):
                for wscore, wpath in enumerate_word_paths(
                    observations[pos:j], by_name[word]
                ):
                    extend(
                        j,
                        dst,
                        score + wscore,
                        words + (word,),
                        spath + tuple((word, s) for s in wpath),
                    )

    extend(0, fsa.start, 0.0, (), ())
    if not results:
        return None
    return min(results, key=lambda r: (-r[0], r[1], r[2]))


# ----------------------------------------------------------------- executor

def reference_execute(rq, ds):
    """Literal nested-loop evaluation, independent of executor.execute."""
    order = rq.join_plan.tables
    rows_out = []
    for combo in product(*(range(len(ds.tables[t].rows)) for t in order)):
        env = {}
        for t, ridx in zip(order, combo):
            data = ds.tables[t]
            for col, val in zip(data.header, data.rows[ridx]):
                env[(t, col)] = val
        if all(
            env[(lt, lc)] is not None
            and env[(rt, rc)] is not None
            and env[(lt, lc)] == env[(rt, rc)]
            for lt, lc, rt, rc in rq.join_plan.conditions
        ) and _ref_pred(rq.predicate_refs, env):
            rows_out.append(tuple(env[(t, c)] for t, c in rq.select_refs))
    return rows_out


COMPARE = {
    "=": operator.eq, "<>": operator.ne, ">": operator.gt,
    "<": operator.lt, ">=": operator.ge, "<=": operator.le,
}


def _ref_pred(pred, env):
    if pred is None:
        return True
    if hasattr(pred, "literal"):
        val = env[(pred.table, pred.column)]
        if val is None or pred.literal is None:
            return False
        return COMPARE[pred.op](val, pred.literal)
    left = _ref_pred(pred.left, env)
    right = _ref_pred(pred.right, env)
    return left and right if pred.op == "and" else left or right
