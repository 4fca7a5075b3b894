"""Word-level phoneme HMMs composed with a grammar automaton, decoded by
exact Viterbi search over symbolic phoneme observations.

All scoring is done in the natural-log domain. Ties are broken by the
lexicographically smallest word sequence, then the smallest state path,
so decoding is fully deterministic and comparable against exhaustive
enumeration oracles.

`decode_sentence` walks observation positions in order. From each
position that some grammar state has reached, it runs one Viterbi pass
per word on the arcs leaving those states, shared by every such arc, and
ends the pass at the frame where no state of the word survives. The cost
is linear in the frames times the span a word survives; a model whose
words never die decodes in time quadratic in the frames. `viterbi_word` reads one span of the same pass.

Tie contract: every score is the float sum the exhaustive enumeration
computes, in the same order, and two decodings tie when those sums are
equal. A (position, grammar state) cell keeps its best score and, for
each word count, the smallest prefix reaching it, which is exact for
ties of equal prefix scores. Prefixes whose scores differ but round to
the same total after an extension are not treated as tied.
"""

from __future__ import annotations

import math
from collections.abc import Hashable
from dataclasses import dataclass

from .config import load_yaml
from .errors import DecodeError, ModelConfigError

_SUM_TOL = 1e-9

NEG_INF = float("-inf")


@dataclass(frozen=True)
class PhonemeState:
    phoneme: str
    emissions: dict  # observation symbol -> probability


@dataclass(frozen=True)
class WordHmm:
    word: str
    states: tuple[PhonemeState, ...]
    transitions: dict  # state index -> tuple of (state index, probability)
    entry: tuple  # (state index, probability) pairs
    exit: dict  # state index -> probability


@dataclass(frozen=True)
class GrammarFsa:
    states: frozenset
    start: str
    accepting: frozenset
    arcs: tuple  # (from state, word, to state)


@dataclass(frozen=True)
class Decoding:
    words: tuple[str, ...]
    log_probability: float
    state_path: tuple  # (word, state index) pairs


def _check_prob(p, where):
    if not isinstance(p, (int, float)) or isinstance(p, bool) or not 0.0 <= p <= 1.0:
        raise ModelConfigError(f"probability out of range at {where}: {p!r}")
    return float(p)


def _section(value, kind, where):
    """`value` if it is a `kind` (dict or list), an empty one if absent."""
    if value is None:
        return kind()
    if not isinstance(value, kind):
        shape = "mapping" if kind is dict else "list"
        raise ModelConfigError(f"{where} must be a {shape}, got {value!r}")
    return value


def _names(value, where):
    """The state names listed in `value`, as a frozenset."""
    names = _section(value, list, where)
    if not all(isinstance(n, Hashable) for n in names):
        raise ModelConfigError(f"{where} must list state names, got {value!r}")
    return frozenset(names)


def load_models(model_text):
    """Parse and validate a model-config document (YAML)."""
    doc = load_yaml(model_text, ModelConfigError, "model config")
    if not isinstance(doc, dict):
        raise ModelConfigError("model config must be a mapping")
    alphabet = doc.get("phoneme_alphabet")
    if not isinstance(alphabet, list) or not all(isinstance(s, str) for s in alphabet):
        raise ModelConfigError("'phoneme_alphabet' must be a list of symbols")
    alphabet = set(alphabet)

    hmms = []
    for raw in _section(doc.get("words"), list, "'words'"):
        hmms.append(_load_word(raw, alphabet))
    if not hmms:
        raise ModelConfigError("'words' must declare at least one word model")

    raw_fsa = doc.get("grammar")
    if not isinstance(raw_fsa, dict):
        raise ModelConfigError("'grammar' section missing")
    states = _names(raw_fsa.get("states"), "grammar 'states'")
    start = raw_fsa.get("start")
    accepting = _names(raw_fsa.get("accepting"), "grammar 'accepting'")
    if not isinstance(start, Hashable) or start not in states or not accepting <= states:
        raise ModelConfigError("grammar start/accepting states must be members of 'states'")
    known_words = {h.word for h in hmms}
    arcs = []
    for arc in _section(raw_fsa.get("arcs"), list, "grammar 'arcs'"):
        arc = _section(arc, dict, "a grammar arc")
        src, word, dst = arc.get("from"), arc.get("word"), arc.get("to")
        if not all(isinstance(v, Hashable) for v in (src, word, dst)):
            raise ModelConfigError(f"arc fields must be names: {arc!r}")
        if src not in states or dst not in states:
            raise ModelConfigError(f"arc references unknown grammar state: {arc!r}")
        if word not in known_words:
            raise ModelConfigError(f"arc references unknown word {word!r}")
        arcs.append((src, word, dst))
    fsa = GrammarFsa(states, start, accepting, tuple(arcs))
    return hmms, fsa


def _load_word(raw, alphabet):
    raw = _section(raw, dict, "a word model")
    name = raw.get("name")
    if not isinstance(name, str) or not name:
        raise ModelConfigError(f"word model needs a 'name': {raw!r}")
    raw_states = raw.get("states")
    if not isinstance(raw_states, list) or not raw_states:
        raise ModelConfigError(f"word {name!r}: 'states' must be a nonempty list")

    states = []
    for i, rs in enumerate(raw_states):
        where = f"word {name!r} state {i}"
        rs = _section(rs, dict, where)
        emissions = {}
        total = 0.0
        for sym, p in _section(rs.get("emissions"), dict, f"{where} 'emissions'").items():
            if sym not in alphabet:
                raise ModelConfigError(f"{where}: emission symbol {sym!r} not in alphabet")
            emissions[sym] = _check_prob(p, f"{where} emission {sym!r}")
            total += emissions[sym]
        if abs(total - 1.0) > _SUM_TOL:
            raise ModelConfigError(f"{where}: emission probabilities sum to {total}")
        states.append(PhonemeState(rs.get("phoneme", ""), emissions))

    n = len(states)

    entry = []
    total = 0.0
    for idx, p in _section(raw.get("entry"), dict, f"word {name!r} 'entry'").items():
        idx = _state_index(idx, n, name, "entry")
        p = _check_prob(p, f"word {name!r} entry state {idx}")
        entry.append((idx, p))
        total += p
    if abs(total - 1.0) > _SUM_TOL:
        raise ModelConfigError(f"word {name!r}: entry probabilities sum to {total}")

    exit_probs = {}
    for idx, p in _section(raw.get("exit"), dict, f"word {name!r} 'exit'").items():
        idx = _state_index(idx, n, name, "exit")
        exit_probs[idx] = _check_prob(p, f"word {name!r} exit state {idx}")

    transitions = {}
    for src, row in _section(raw.get("transitions"), dict, f"word {name!r} 'transitions'").items():
        src = _state_index(src, n, name, "transitions")
        out = []
        for dst, p in _section(row, dict, f"word {name!r} transitions from {src}").items():
            dst = _state_index(dst, n, name, f"transitions from {src}")
            if dst < src:
                raise ModelConfigError(
                    f"word {name!r}: transition {src}->{dst} decreases the state index"
                )
            out.append((dst, _check_prob(p, f"word {name!r} transition {src}->{dst}")))
        transitions[src] = tuple(out)
    for src in range(n):
        total = sum(p for _, p in transitions.get(src, ())) + exit_probs.get(src, 0.0)
        if abs(total - 1.0) > _SUM_TOL:
            raise ModelConfigError(
                f"word {name!r} state {src}: outgoing + exit mass sums to {total}"
            )

    return WordHmm(name, tuple(states), transitions, tuple(entry), exit_probs)


def _state_index(value, n, word, where):
    try:
        idx = int(value)
    except (TypeError, ValueError):
        raise ModelConfigError(f"word {word!r} {where}: bad state index {value!r}")
    if not 0 <= idx < n:
        raise ModelConfigError(f"word {word!r} {where}: state index {idx} out of range")
    return idx


class _WordPass:
    """One Viterbi recursion of a word model entered at frame `start`.

    It runs until no state survives or the observations end. `ends` holds
    (end, log probability, offset, last state) for every end frame at
    which the word can exit, where `offset` is end - start - 1. `back[k]`
    maps each state alive at frame start+k to its predecessor, so a state
    path is rebuilt only to break an exact tie and for a winner. Scores
    are the float sums of exhaustive enumeration, added in the same
    order.
    """

    __slots__ = ("back", "ends")

    def __init__(self, observations, start, hmm):
        states, transitions, exits = hmm.states, hmm.transitions, hmm.exit
        log = math.log
        self.back = back = [None]
        self.ends = ends = []
        symbol = observations[start]
        cells = {}  # state -> best log probability at the current frame
        for idx, p in hmm.entry:
            e = states[idx].emissions.get(symbol, 0.0)
            if p > 0.0 and e > 0.0:
                score = log(p) + log(e)
                if score > cells.get(idx, NEG_INF):
                    cells[idx] = score
        end, n = start + 1, len(observations)
        while cells:
            offset = end - start - 1
            best, last = NEG_INF, None
            for idx, score in cells.items():
                p = exits.get(idx, 0.0)
                if p > 0.0:
                    total = score + log(p)
                    if total > best or (
                        total == best
                        and self.path(offset, idx) < self.path(offset, last)
                    ):
                        best, last = total, idx
            if last is not None:
                ends.append((end, best, offset, last))
            if end == n:
                break
            symbol = observations[end]
            nxt, links = {}, {}
            for src, score in cells.items():
                for dst, p in transitions.get(src, ()):
                    e = states[dst].emissions.get(symbol, 0.0)
                    if p > 0.0 and e > 0.0:
                        step = score + log(p) + log(e)
                        old = nxt.get(dst)
                        if old is None or step > old:
                            nxt[dst], links[dst] = step, src
                        elif step == old and self.path(offset, src) < self.path(
                            offset, links[dst]
                        ):
                            links[dst] = src
            back.append(links)
            cells = nxt
            end += 1

    def path(self, offset, state):
        """State indices of the best path ending in `state` at frame
        start+offset, as a list."""
        back = self.back
        path = [state]
        for k in range(offset, 0, -1):
            state = back[k][state]
            path.append(state)
        path.reverse()
        return path


def viterbi_word(observations, hmm):
    """Best entry->...->exit state path emitting the observations.

    Returns (log probability, state index path); (-inf, ()) when no path
    has positive probability. Ties pick the smallest state path.
    """
    if not observations:
        raise ValueError("observations must be nonempty")
    run = _WordPass(observations, 0, hmm)
    if not run.ends or run.ends[-1][0] != len(observations):
        return NEG_INF, ()
    _, score, offset, last = run.ends[-1]
    return score, tuple(run.path(offset, last))


# A candidate sentence prefix: (words, previous candidate, word pass,
# offset of its end frame in that pass, last state of the word).
_ROOT = ((), None, None, 0, None)


def decode_sentence(observations, hmms, fsa):
    """Joint best segmentation + grammar path + per-word state paths.

    Exact dynamic program over (observation position, grammar state); the
    grammar is unweighted so only acoustic likelihoods rank decodings.
    Each word is scored by one `_WordPass` per start position, shared by
    every arc that uses it. A (position, grammar state) cell keeps its
    best score and, among the prefixes that reach it, the smallest one
    per word count: lexicographic order survives a common extension only
    between word sequences of equal length.
    """
    if not observations:
        raise ValueError("observations must be nonempty")
    by_name = {h.word: h for h in hmms}
    arcs_from = {}
    for src, word, dst in fsa.arcs:
        arcs_from.setdefault(src, []).append((word, dst))
    n = len(observations)

    # cells[pos][grammar state] = (score, {word count: candidate})
    cells = [{} for _ in range(n + 1)]
    cells[0][fsa.start] = (0.0, {0: _ROOT})
    for i in range(n):
        passes = {}
        for state, (score, cands) in cells[i].items():
            for word, dst in arcs_from.get(state, ()):
                run = passes.get(word)
                if run is None:
                    run = passes[word] = _WordPass(observations, i, by_name[word])
                for end, wscore, offset, last in run.ends:
                    total = score + wscore
                    _extend(cells[end], dst, total, cands, word, run, offset, last)
        cells[i] = None

    winner, best = None, NEG_INF
    for state in fsa.accepting:
        score, cands = cells[n].get(state, (NEG_INF, {}))
        for cand in cands.values():
            if score > best or (score == best and _before(cand, winner)):
                winner, best = cand, score
    if winner is None:
        raise DecodeError("no accepting decoding with positive probability")
    return Decoding(winner[0], best, tuple(_state_path(winner)))


def _extend(cell_map, dst, score, cands, word, run, offset, last):
    """Offer every candidate of a cell, extended by one word, to (end, dst)."""
    cell = cell_map.get(dst)
    if cell is None or score > cell[0]:
        cell = cell_map[dst] = (score, {})
    elif score < cell[0]:
        return
    kept = cell[1]
    for k, prev in cands.items():
        cand = (prev[0] + (word,), prev, run, offset, last)
        old = kept.get(k + 1)
        if old is None or _before(cand, old):
            kept[k + 1] = cand


def _before(a, b):
    """Whether candidate a sorts before b: smaller words, then smaller
    state path."""
    if a[0] != b[0]:
        return a[0] < b[0]
    return _state_path(a) < _state_path(b)


def _state_path(cand):
    """The (word, state index) pairs of a candidate, as a list."""
    segments = []
    while cand[1] is not None:
        words, cand, run, offset, last = cand
        segments.append([(words[-1], s) for s in run.path(offset, last)])
    return [pair for segment in reversed(segments) for pair in segment]
