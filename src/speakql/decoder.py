"""Word-level phoneme HMMs composed with a grammar automaton, decoded by
exact Viterbi search over symbolic phoneme observations.

All scoring is done in the natural-log domain. Ties are broken by the
lexicographically smallest word sequence, then the smallest state path,
so decoding is fully deterministic and comparable against exhaustive
enumeration oracles.

Each `WordHmm` derives its log tables when it is made: its entry and
emission logs by symbol, its moves with their logs, its exit logs, each
holding only probabilities > 0. Each `GrammarFsa` derives its arcs by
source state. Decoding reads only these and calls no `math.log`.

`decode_sentence` walks observation positions in order. From each
position that some grammar state has reached, it runs one Viterbi pass
per word on the arcs leaving those states, shared by every such arc, and
ends the pass at the frame where no state of the word survives. A word
none of whose entry states can emit the position's symbol starts no
pass there, since that pass could end nowhere.

Dead-cell rule: a word end at a position before the last, whose symbol
no word's entry can emit, gets no cell at that position (the word-end
rule of token passing, Young, Russell & Thornton, 1989). Such
a cell would be read only to start passes at its position, and none can
start there, so it could offer nothing to any later cell. The cells
after the last frame are always kept, since the accept step reads them,
and positions left with no cell are passed over. Every kept cell gets
the same offers in the same order as when every end has a cell, so
scores, decodings and ties are unchanged.

Every state path is held as a value, a tuple compared with `<`. The
steps are linear in the frames times the span a word survives; each step
copies a path of up to that span, and each kept prefix one of up to its
frames. A model whose words never die takes steps quadratic, and copies
cubic, in the frames, and each word count that reaches a position's
cells makes offers of its own. `viterbi_word` reads one span of a pass.

Tie contract: every score is the float sum the exhaustive enumeration
computes, in the same order, and two decodings tie when those sums are
equal. A (position, grammar state, word count) cell keeps the
highest-scoring prefix (words, state path) reaching it, and of equal
scores the smallest, compared as tuples. Two prefixes of one cell have
words and state paths of equal lengths, so that order survives any
common extension, and ties across word counts are exact. Prefixes of
one word count whose scores differ but round to the same total after
an extension are not tied: the cell kept only the higher.
"""

from __future__ import annotations

import math
from collections.abc import Hashable
from dataclasses import dataclass, field

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
    # log tables derived from the above, holding only probabilities > 0:
    # symbol -> {entry state: log entry + log emission}
    log_entry: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    # state -> tuple of (state, log transition, its {symbol: log emission})
    log_moves: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    # state -> log exit
    log_exit: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        log = math.log
        emits = [{s: log(e) for s, e in st.emissions.items() if e > 0.0} for st in self.states]
        for idx, p in self.entry:
            if p > 0.0:
                for symbol, e in emits[idx].items():
                    score, cell = log(p) + e, self.log_entry.setdefault(symbol, {})
                    if score > cell.get(idx, NEG_INF):
                        cell[idx] = score
        self.log_moves.update(
            (src, tuple([(dst, log(p), emits[dst]) for dst, p in row if p > 0.0]))
            for src, row in self.transitions.items()
        )
        self.log_exit.update((idx, log(p)) for idx, p in self.exit.items() if p > 0.0)


@dataclass(frozen=True)
class GrammarFsa:
    states: frozenset
    start: str
    accepting: frozenset
    arcs: tuple  # (from state, word, to state)
    # from state -> list of (word, to state), derived from `arcs`
    arcs_from: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        for src, word, dst in self.arcs:
            self.arcs_from.setdefault(src, []).append((word, dst))


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

    raw_words = section(doc.get("words"), list, "'words'", ModelConfigError)
    hmms = [_load_word(raw, alphabet) for raw in raw_words]
    known_words = _by_name(hmms)
    if not hmms:
        raise ModelConfigError("'words' must declare at least one word model")

    raw_fsa = section(doc.get("grammar"), dict, "'grammar'", ModelConfigError, _GRAMMAR_KEYS)
    states = _names(raw_fsa.get("states"), "grammar 'states'")
    start = raw_fsa.get("start")
    accepting = _names(raw_fsa.get("accepting"), "grammar 'accepting'")
    if not isinstance(start, Hashable) or start not in states or not accepting <= states:
        raise ModelConfigError("grammar start/accepting states must be members of 'states'")
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


def _by_name(hmms):
    """The word models by name; a repeated name is a `ModelConfigError`."""
    by_name = {}
    for hmm in hmms:
        if hmm.word in by_name:
            raise ModelConfigError(f"duplicate word name {hmm.word!r}")
        by_name[hmm.word] = hmm
    return by_name


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


def _word_ends(observations, start, hmm):
    """One Viterbi pass of a word model entered at frame `start`: the
    (end, log probability, state path) of every frame at which the word
    can exit, until no state survives or the observations end. A live
    state holds (score, path), the path a tuple of state indices, and
    scores are the float sums of exhaustive enumeration, in its order."""
    moves, exits = hmm.log_moves, hmm.log_exit
    ends = []
    # state -> (best log probability, its state path) at this frame
    cells = {idx: (score, (idx,))
             for idx, score in hmm.log_entry.get(observations[start], {}).items()}
    end, n = start + 1, len(observations)
    while cells:
        if end < n:
            symbol = observations[end]
        else:  # the last frame: exits only
            moves = {}
        best, best_path, nxt = NEG_INF, None, {}
        for src, (score, path) in cells.items():
            if src in exits:
                total = score + exits[src]
                if total > best or (total == best and path < best_path):
                    best, best_path = total, path
            for dst, p, emits in moves.get(src, ()):
                e = emits.get(symbol)
                if e is not None:
                    step = score + p + e
                    old = nxt.get(dst)
                    if old is None or step > old[0] or (step == old[0] and path < old[1][:-1]):
                        nxt[dst] = (step, path + (dst,))
        if best_path is not None:
            ends.append((end, best, best_path))
        if end == n:
            break
        cells = nxt
        end += 1
    return ends


def viterbi_word(observations, hmm):
    """Best entry->...->exit state path emitting the observations.

    Returns (log probability, state index path); (-inf, ()) when no path
    has positive probability. Ties pick the smallest state path.
    """
    if not observations:
        raise ValueError("observations must be nonempty")
    ends = _word_ends(observations, 0, hmm)
    if not ends or ends[-1][0] != len(observations):
        return NEG_INF, ()
    return ends[-1][1:]


def decode_sentence(observations, hmms, fsa):
    """Joint best segmentation + grammar path + per-word state paths.

    Exact dynamic program over (observation position, grammar state,
    word count); the grammar is unweighted so only acoustic likelihoods
    rank decodings. Each word is scored by one `_word_ends` pass per
    start position, shared by every arc that uses it, over the log tables
    the models built when they were made; a word whose entry cannot emit
    the position's symbol gets no pass there, and a position before the
    last whose symbol no word's entry can emit gets no cells (the
    dead-cell rule above). Each cell keeps its best prefix by the tie
    contract above, and so does the accept step over the accepting cells
    after the last frame. A repeated word name raises `ModelConfigError`,
    and so does an arc whose word has no model, when its pass is first needed.
    """
    if not observations:
        raise ValueError("observations must be nonempty")
    by_name = _by_name(hmms)
    arcs_from = fsa.arcs_from
    n = len(observations)
    startable = {symbol for h in by_name.values() for symbol in h.log_entry}

    # cells[pos][(grammar state, word count)] = (score, (words, state path)),
    # None at a position before n whose symbol no word can start with
    cells = [{} if symbol in startable else None for symbol in observations] + [{}]
    cells[0] = {(fsa.start, 0): (0.0, ((), ()))}
    for i in range(n):
        if not cells[i]:
            continue
        symbol = observations[i]
        passes = {}
        for (state, k), (score, (words, spath)) in cells[i].items():
            for word, dst in arcs_from.get(state, ()):
                ends = passes.get(word)
                if ends is None:
                    if (hmm := by_name.get(word)) is None:
                        raise ModelConfigError(f"arc references unknown word {word!r}")
                    ends = passes[word] = (
                        _word_ends(observations, i, hmm) if symbol in hmm.log_entry else ())
                for end, wscore, path in ends:
                    if (cell_map := cells[end]) is None:
                        continue
                    total, key = score + wscore, (dst, k + 1)
                    best, kept = cell_map.get(key, (NEG_INF, None))
                    if total >= best:
                        # of a list: tuple() of a generator fills the runtime's freed-tuple caches
                        prefix = (words + (word,), spath + tuple([(word, idx) for idx in path]))
                        if total > best or prefix < kept:
                            cell_map[key] = (total, prefix)
        cells[i] = None

    winner, best = None, NEG_INF
    for (state, _), (score, prefix) in cells[n].items():
        if state in fsa.accepting and (score > best or (score == best and prefix < winner)):
            winner, best = prefix, score
    if winner is None:
        raise DecodeError("no accepting decoding with positive probability")
    return Decoding(winner[0], best, winner[1])
