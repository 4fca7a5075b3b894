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
words never die decodes in time quadratic in the frames. `viterbi_word`
reads one span of the same pass.

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

from .config import load_yaml, section
from .errors import DecodeError, ModelConfigError

_SUM_TOL = 1e-9

_MODEL_KEYS = {"phoneme_alphabet", "words", "grammar"}
_WORD_KEYS = {"name", "states", "entry", "transitions", "exit"}
_STATE_KEYS = {"phoneme", "emissions"}
_GRAMMAR_KEYS = {"states", "start", "accepting", "arcs"}
_ARC_KEYS = {"from", "word", "to"}

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


def _probs(pairs, where, sums_to_one=True):
    """The (key, probability) `pairs` as a list, each probability a float
    in [0, 1]. With `sums_to_one`, the probabilities, added left to right
    from 0.0, must sum to 1 within `_SUM_TOL`."""
    checked, total = [], 0.0
    for key, p in pairs:
        if not isinstance(p, (int, float)) or isinstance(p, bool) or not 0.0 <= p <= 1.0:
            raise ModelConfigError(f"{where}: probability {p!r} of {key!r} out of range")
        p = float(p)
        checked.append((key, p))
        total += p
    if sums_to_one and abs(total - 1.0) > _SUM_TOL:
        raise ModelConfigError(f"{where}: probabilities sum to {total}")
    return checked


def _names(value, where):
    """The state names listed in `value`, as a frozenset."""
    names = section(value, list, where, ModelConfigError)
    if not all(isinstance(n, Hashable) for n in names):
        raise ModelConfigError(f"{where} must list state names, got {value!r}")
    return frozenset(names)


def load_models(model_text):
    """Parse and validate a model-config document (YAML, strict keys)."""
    doc = load_yaml(model_text, ModelConfigError, "model config")
    doc = section(doc, dict, "model config", ModelConfigError, _MODEL_KEYS)
    alphabet = section(doc.get("phoneme_alphabet"), list, "'phoneme_alphabet'", ModelConfigError)
    if not all(isinstance(s, str) for s in alphabet):
        raise ModelConfigError("'phoneme_alphabet' must list symbols")
    alphabet = set(alphabet)

    hmms = []
    for raw in section(doc.get("words"), list, "'words'", ModelConfigError):
        hmms.append(_load_word(raw, alphabet))
    if not hmms:
        raise ModelConfigError("'words' must declare at least one word model")

    raw_fsa = section(doc.get("grammar"), dict, "'grammar'", ModelConfigError, _GRAMMAR_KEYS)
    states = _names(raw_fsa.get("states"), "grammar 'states'")
    start = raw_fsa.get("start")
    accepting = _names(raw_fsa.get("accepting"), "grammar 'accepting'")
    if not isinstance(start, Hashable) or start not in states or not accepting <= states:
        raise ModelConfigError("grammar start/accepting states must be members of 'states'")
    known_words = {h.word for h in hmms}
    arcs = []
    for arc in section(raw_fsa.get("arcs"), list, "grammar 'arcs'", ModelConfigError):
        arc = section(arc, dict, "a grammar arc", ModelConfigError, _ARC_KEYS)
        src, word, dst = arc.get("from"), arc.get("word"), arc.get("to")
        if not all(isinstance(v, Hashable) for v in (src, word, dst)):
            raise ModelConfigError(f"arc fields must be names: {arc!r}")
        if src not in states or dst not in states:
            raise ModelConfigError(f"arc references unknown grammar state: {arc!r}")
        if word not in known_words:
            raise ModelConfigError(f"arc references unknown word {word!r}")
        arcs.append((src, word, dst))
    return hmms, GrammarFsa(states, start, accepting, tuple(arcs))


def _load_word(raw, alphabet):
    raw = section(raw, dict, "a word model", ModelConfigError, _WORD_KEYS)
    name = raw.get("name")
    if not isinstance(name, str) or not name:
        raise ModelConfigError(f"word model needs a 'name': {raw!r}")
    word = f"word {name!r}"
    raw_states = section(raw.get("states"), list, f"{word} 'states'", ModelConfigError)
    if not raw_states:
        raise ModelConfigError(f"{word}: 'states' must be nonempty")

    states = []
    for i, rs in enumerate(raw_states):
        where = f"{word} state {i}"
        rs = section(rs, dict, where, ModelConfigError, _STATE_KEYS)
        raw_emissions = section(rs.get("emissions"), dict, f"{where} emissions", ModelConfigError)
        for sym in raw_emissions:
            if sym not in alphabet:
                raise ModelConfigError(f"{where}: emission symbol {sym!r} not in alphabet")
        emissions = dict(_probs(raw_emissions.items(), f"{where} emissions"))
        states.append(PhonemeState(rs.get("phoneme", ""), emissions))

    n = len(states)
    entry = _probs(_indexed(raw.get("entry"), n, f"{word} entry"), f"{word} entry")
    exit_probs = dict(_probs(_indexed(raw.get("exit"), n, f"{word} exit"), f"{word} exit", False))
    transitions = {}
    for src, row in _indexed(raw.get("transitions"), n, f"{word} transitions"):
        where = f"{word} transitions from {src}"
        out = _probs(_indexed(row, n, where), where, False)
        for dst, _ in out:
            if dst < src:
                raise ModelConfigError(f"{where}: a move to {dst} decreases the state index")
        transitions[src] = tuple(out)
    for src in range(n):
        mass = [*transitions.get(src, ()), ("exit", exit_probs.get(src, 0.0))]
        _probs(mass, f"{word} state {src} outgoing + exit mass")

    return WordHmm(name, tuple(states), transitions, tuple(entry), exit_probs)


def _indexed(value, n, where):
    """The (state index, value) pairs of the mapping `value`, whose keys
    must be state indices below `n`: ints, or text that `int` reads."""
    pairs = []
    for key, v in section(value, dict, where, ModelConfigError).items():
        try:
            idx = int(key) if isinstance(key, str) else key
        except ValueError:
            idx = None
        if not isinstance(idx, int) or isinstance(idx, bool) or not 0 <= idx < n:
            raise ModelConfigError(f"{where}: bad state index {key!r}")
        pairs.append((idx, v))
    return pairs


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
