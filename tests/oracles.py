"""Independent brute-force reference implementations used as test oracles.

These deliberately share no code with the package internals: scans of
every table and column for name lookups, subset and simple-path
enumeration for join planning, exhaustive path enumeration for HMM
decoding, and a literal triple-loop executor.
"""

import math
from itertools import combinations, product

NEG_INF = float("-inf")


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


def _ref_pred(pred, env):
    if pred is None:
        return True
    if hasattr(pred, "literal"):
        val = env[(pred.table, pred.column)]
        if val is None or pred.literal is None:
            return False
        return {
            "=": val == pred.literal,
            "<>": val != pred.literal,
            ">": val > pred.literal,
            "<": val < pred.literal,
            ">=": val >= pred.literal,
            "<=": val <= pred.literal,
        }[pred.op]
    left = _ref_pred(pred.left, env)
    right = _ref_pred(pred.right, env)
    return left and right if pred.op == "and" else left or right
