import itertools
import math
import random

import pytest

from speakql import decoder
from speakql.decoder import (
    NEG_INF,
    GrammarFsa,
    PhonemeState,
    WordHmm,
    decode_sentence,
    load_models,
    viterbi_word,
)
from speakql.errors import DecodeError, ModelConfigError

import oracles


def hmm_by_name(bank_models, name):
    hmms, _ = bank_models
    return next(h for h in hmms if h.word == name)


def test_fixture_loads(bank_models):
    hmms, fsa = bank_models
    assert {h.word for h in hmms} == {"get", "list", "customer_name", "branch_name"}
    assert fsa.start == "S0"
    assert fsa.accepting == {"S2"}


def test_empty_observations_are_rejected(bank_models):
    hmms, fsa = bank_models
    with pytest.raises(ValueError, match="observations must be nonempty"):
        viterbi_word([], hmms[0])
    with pytest.raises(ValueError, match="observations must be nonempty"):
        decode_sentence([], hmms, fsa)


def test_emission_sum_violation():
    doc = """
phoneme_alphabet: [a, b]
words:
  - name: w
    states:
      - {phoneme: a, emissions: {a: 0.5, b: 0.4}}
    entry: {0: 1.0}
    exit: {0: 1.0}
grammar: {states: [q], start: q, accepting: [q], arcs: [{from: q, word: w, to: q}]}
"""
    with pytest.raises(ModelConfigError) as exc:
        load_models(doc)
    assert "sum" in str(exc.value)


def test_unknown_arc_word():
    doc = """
phoneme_alphabet: [a]
words:
  - name: w
    states:
      - {phoneme: a, emissions: {a: 1.0}}
    entry: {0: 1.0}
    exit: {0: 1.0}
grammar: {states: [q], start: q, accepting: [q], arcs: [{from: q, word: nope, to: q}]}
"""
    with pytest.raises(ModelConfigError) as exc:
        load_models(doc)
    assert "nope" in str(exc.value)


def test_duplicate_word_name():
    # else decoding would read only the last model of the name
    doc = MINIMAL_MODELS.replace("words:\n", """words:
  - name: w
    states:
      - {phoneme: a, emissions: {a: 1.0}}
    entry: {0: 1.0}
    exit: {0: 1.0}
""", 1)
    with pytest.raises(ModelConfigError) as exc:
        load_models(doc)
    assert str(exc.value) == "duplicate word name 'w'"


def test_duplicate_word_name_in_a_model_list():
    # else decoding would read only the last model of the name, which
    # cannot emit a
    first = WordHmm("w", (PhonemeState("w", {"a": 1.0}),), {}, ((0, 1.0),), {0: 1.0})
    second = WordHmm("w", (PhonemeState("w", {"b": 1.0}),), {}, ((0, 1.0),), {0: 1.0})
    fsa = GrammarFsa(frozenset("q"), "q", frozenset("q"), (("q", "w", "q"),))
    assert decode_sentence(["a"], [first], fsa).words == ("w",)
    with pytest.raises(ModelConfigError) as exc:
        decode_sentence(["a"], [first, second], fsa)
    assert str(exc.value) == "duplicate word name 'w'"


def test_arc_word_missing_from_a_model_list():
    # a hand-built grammar may name a word that load_models would reject
    w = WordHmm("w", (PhonemeState("w", {"a": 1.0}),), {}, ((0, 1.0),), {0: 1.0})
    fsa = GrammarFsa(frozenset("q"), "q", frozenset("q"), (("q", "v", "q"),))
    with pytest.raises(ModelConfigError) as exc:
        decode_sentence(["a"], [w], fsa)
    assert str(exc.value) == "arc references unknown word 'v'"


def test_transition_mass_violation():
    doc = """
phoneme_alphabet: [a]
words:
  - name: w
    states:
      - {phoneme: a, emissions: {a: 1.0}}
      - {phoneme: a, emissions: {a: 1.0}}
    entry: {0: 1.0}
    transitions: {0: {1: 0.5}}
    exit: {1: 1.0}
grammar: {states: [q], start: q, accepting: [q], arcs: [{from: q, word: w, to: q}]}
"""
    with pytest.raises(ModelConfigError):
        load_models(doc)


def test_left_to_right_enforced():
    doc = """
phoneme_alphabet: [a]
words:
  - name: w
    states:
      - {phoneme: a, emissions: {a: 1.0}}
      - {phoneme: a, emissions: {a: 1.0}}
    entry: {0: 1.0}
    transitions: {0: {1: 1.0}, 1: {0: 1.0}}
    exit: {}
grammar: {states: [q], start: q, accepting: [q], arcs: [{from: q, word: w, to: q}]}
"""
    with pytest.raises(ModelConfigError) as exc:
        load_models(doc)
    assert "decreases" in str(exc.value)


MINIMAL_MODELS = """
phoneme_alphabet: [a]
words:
  - name: w
    states:
      - {phoneme: a, emissions: {a: 1.0}}
    entry: {0: 1.0}
    transitions: {0: {}}
    exit: {0: 1.0}
grammar: {states: [q], start: q, accepting: [q], arcs: [{from: q, word: w, to: q}]}
"""


@pytest.mark.parametrize(
    "old, new",
    [
        ("words:\n  - name: w", "words:\n  - w\n  - name: w"),
        ("words:\n  - name: w", "words:\n    name: w"),
        ("- {phoneme: a, emissions: {a: 1.0}}", "- a"),
        ("emissions: {a: 1.0}", "emissions: [a]"),
        ("entry: {0: 1.0}", "entry: [0]"),
        ("exit: {0: 1.0}", "exit: [0]"),
        ("transitions: {0: {}}", "transitions: [0]"),
        ("transitions: {0: {}}", "transitions: {0: [0]}"),
        ("states: [q], start", "states: q, start"),
        ("states: [q], start", "states: [[q]], start"),
        ("start: q", "start: [q]"),
        ("accepting: [q]", "accepting: q"),
        ("arcs: [{from: q, word: w, to: q}]", "arcs: q"),
        ("arcs: [{from: q, word: w, to: q}]", "arcs: [q]"),
        ("{from: q, word: w, to: q}", "{from: [q], word: w, to: q}"),
        ("{from: q, word: w, to: q}", "{from: q, word: {w: 1}, to: q}"),
        ("entry: {0: 1.0}", "entry: {.inf: 1.0}"),
        ("entry: {0: 1.0}", "entry: {.nan: 1.0}"),
        ("entry: {0: 1.0}", "entry: {0.7: 1.0}"),
        ("entry: {0: 1.0}", "entry: {true: 1.0}"),
        ("phoneme_alphabet: [a]\n", "phoneme_alphabet: [a]\nphoneme_alpabet: [a]\n"),
        ("transitions: {0: {}}", "transitons: {0: {}}"),
        ("{phoneme: a, emissions", "{phonme: a, emissions"),
        ("accepting: [q]", "acepting: [q]"),
        ("{from: q, word: w, to: q}", "{from: q, word: w, to: q, weight: 1}"),
    ],
    ids=[
        "word-not-mapping", "words-not-list", "state-not-mapping",
        "emissions-not-mapping", "entry-not-mapping", "exit-not-mapping",
        "transitions-not-mapping", "transition-row-not-mapping",
        "grammar-states-not-list", "grammar-state-not-name", "start-not-name",
        "accepting-not-list", "arcs-not-list", "arc-not-mapping",
        "arc-state-not-name", "arc-word-not-name",
        "state-index-inf", "state-index-nan", "state-index-float", "state-index-bool",
        "top-level-unknown-key", "word-unknown-key", "state-unknown-key",
        "grammar-unknown-key", "arc-unknown-key",
    ],
)
def test_malformed_model_shape(old, new):
    load_models(MINIMAL_MODELS)
    assert old in MINIMAL_MODELS
    with pytest.raises(ModelConfigError):
        load_models(MINIMAL_MODELS.replace(old, new, 1))


def test_list_model_prefers_ih_branch(bank_models):
    hmm = hmm_by_name(bank_models, "list")
    logp, path = viterbi_word(["l", "ih", "s", "t"], hmm)
    assert path == (0, 1, 3, 4)  # state 1 is the 'ih' state
    # entry 1.0 * branch 0.5 * emissions 1*0.9*1*1
    assert logp == pytest.approx(math.log(0.5 * 0.9), abs=1e-12)


def test_too_short_observation_is_impossible(bank_models):
    hmm = hmm_by_name(bank_models, "list")
    logp, path = viterbi_word(["t"], hmm)
    assert logp == NEG_INF
    assert path == ()


def _self_loop_hmm(loop_p=0.5):
    return WordHmm(
        word="a",
        states=(PhonemeState("a", {"a": 1.0}),),
        transitions={0: ((0, loop_p),)},
        entry=((0, 1.0),),
        exit={0: 1.0 - loop_p},
    )


def test_self_loop_closed_form():
    hmm = _self_loop_hmm(0.5)
    logp, path = viterbi_word(["a", "a", "a"], hmm)
    assert path == (0, 0, 0)
    assert logp == pytest.approx(3 * math.log(0.5), abs=1e-12)
    oracle_logp, oracle_path = oracles.best_word_path(["a", "a", "a"], hmm)
    assert logp == pytest.approx(oracle_logp, abs=1e-9)
    assert path == oracle_path


def test_viterbi_matches_enumeration_on_fixture_words(bank_models):
    hmms, _ = bank_models
    symbols = ["l", "ih", "iy", "s", "t", "g", "eh", "k"]
    streams = [
        ["l", "ih", "s", "t"],
        ["l", "iy", "s", "t"],
        ["g", "eh", "t"],
        ["l", "ih", "s"],
        ["t", "t"],
        symbols[:6],
    ]
    for hmm in hmms:
        if len(hmm.states) > 8:
            continue
        for obs in streams:
            got_logp, got_path = viterbi_word(obs, hmm)
            want_logp, want_path = oracles.best_word_path(obs, hmm)
            if want_logp == NEG_INF:
                assert got_logp == NEG_INF
            else:
                assert got_logp == pytest.approx(want_logp, abs=1e-9)
                assert got_path == want_path


def test_no_underflow_64_steps():
    hmm = _self_loop_hmm(0.5)
    obs = ["a"] * 64
    logp, path = viterbi_word(obs, hmm)
    assert logp == pytest.approx(64 * math.log(0.5), abs=1e-9)
    assert len(path) == 64
    assert logp > NEG_INF


def test_monotone_damage(bank_models):
    hmm = hmm_by_name(bank_models, "list")
    base, _ = viterbi_word(["l", "ih", "s", "t"], hmm)
    for i in range(4):
        damaged = ["l", "ih", "s", "t"]
        damaged[i] = "eh"  # zero emission probability in every 'list' state
        hurt, _ = viterbi_word(damaged, hmm)
        assert hurt <= base


def test_decode_sentence_golden(bank_models):
    hmms, fsa = bank_models
    obs = "g eh t k uh s n ey m".split()
    decoding = decode_sentence(obs, hmms, fsa)
    assert decoding.words == ("get", "customer_name")
    assert decoding.log_probability <= 0.0


def test_decode_sentence_matches_enumeration(bank_models):
    hmms, fsa = bank_models
    streams = [
        "g eh t k uh s n ey m".split(),
        "g eh t b r ae n ey m".split(),
        "l ih s t b r ae n ey m".split(),
        "l iy s t k uh s n ey m".split(),
    ]
    for obs in streams:
        assert len(obs) <= 12
        got = decode_sentence(obs, hmms, fsa)
        want = oracles.best_sentence(obs, hmms, fsa)
        assert want is not None
        assert got.log_probability == pytest.approx(want[0], abs=1e-9)
        assert got.words == want[1]
        assert got.state_path == want[2]


def test_decode_sentence_no_parse(bank_models):
    hmms, fsa = bank_models
    with pytest.raises(DecodeError):
        decode_sentence(["g", "eh", "t"], hmms, fsa)  # verb alone is not accepting


def test_single_word_fsa_equals_viterbi_word(bank_models):
    hmm = hmm_by_name(bank_models, "get")
    fsa = GrammarFsa(
        frozenset({"q0", "q1"}), "q0", frozenset({"q1"}), (("q0", "get", "q1"),)
    )
    obs = ["g", "eh", "t"]
    decoding = decode_sentence(obs, [hmm], fsa)
    logp, path = viterbi_word(obs, hmm)
    assert decoding.log_probability == pytest.approx(logp, abs=1e-9)
    assert decoding.words == ("get",)
    assert decoding.state_path == tuple(("get", s) for s in path)


def test_decoding_words_spell_accepting_path(bank_models):
    hmms, fsa = bank_models
    decoding = decode_sentence("l ih s t b r ae n ey m".split(), hmms, fsa)
    state = fsa.start
    for word in decoding.words:
        nexts = [dst for src, w, dst in fsa.arcs if src == state and w == word]
        assert nexts
        state = nexts[0]
    assert state in fsa.accepting


def _one_state_word(word, symbol, loop_p):
    transitions = {0: ((0, loop_p),)} if loop_p else {}
    return WordHmm(
        word=word,
        states=(PhonemeState(symbol, {symbol: 1.0}),),
        transitions=transitions,
        entry=((0, 1.0),),
        exit={0: 1.0 - loop_p},
    )


def test_tie_between_word_counts_matches_enumeration():
    # (a, c) and (a, b, c) both score 2 log 0.5; the smaller word
    # sequence is the longer one.
    hmms = [
        _one_state_word("a", "x", 0.5),
        _one_state_word("b", "x", 0.5),
        _one_state_word("c", "z", 0.0),
    ]
    fsa = GrammarFsa(
        frozenset("SMTF"),
        "S",
        frozenset({"F"}),
        (("S", "a", "T"), ("S", "a", "M"), ("M", "b", "T"), ("T", "c", "F")),
    )
    obs = ["x", "x", "z"]
    got = decode_sentence(obs, hmms, fsa)
    want = oracles.best_sentence(obs, hmms, fsa)
    assert (got.log_probability, got.words, got.state_path) == want
    assert got.words == ("a", "b", "c")


def _random_models(rng, prob=lambda: 1.0):
    """Random words and grammar over the symbols x and y, each
    probability drawn by `prob`. With the default every probability is
    1.0, so every decoding scores 0.0 and only the tie-break ranks them."""
    symbols = ("x", "y")
    hmms = []
    for word in ("a", "b", "c")[: rng.randint(1, 3)]:
        n = rng.randint(1, 3)
        states = tuple(
            PhonemeState(word, {s: prob() for s in rng.sample(symbols, rng.randint(1, 2))})
            for _ in range(n)
        )
        transitions = {
            i: tuple((j, prob()) for j in range(i, n) if rng.random() < 0.5)
            for i in range(n)
        }
        entry = tuple((i, prob()) for i in range(n) if i == 0 or rng.random() < 0.3)
        exits = {i: prob() for i in range(n) if i == n - 1 or rng.random() < 0.3}
        hmms.append(WordHmm(word, states, transitions, entry, exits))
    grammar_states = ("q0", "q1", "q2")
    arcs = tuple(
        (src, h.word, dst)
        for src in grammar_states
        for h in hmms
        for dst in grammar_states
        if rng.random() < 0.3
    )
    accepting = frozenset(s for s in grammar_states if rng.random() < 0.5) or {"q2"}
    fsa = GrammarFsa(frozenset(grammar_states), "q0", frozenset(accepting), arcs)
    return hmms, fsa


def test_decode_sentence_matches_enumeration_on_all_tie_models():
    rng = random.Random(20131)
    decodable = 0
    for _ in range(2000):
        hmms, fsa = _random_models(rng)
        obs = [rng.choice(("x", "y")) for _ in range(rng.randint(1, 5))]
        want = oracles.best_sentence(obs, hmms, fsa)
        if want is None:
            with pytest.raises(DecodeError):
                decode_sentence(obs, hmms, fsa)
            continue
        decodable += 1
        got = decode_sentence(obs, hmms, fsa)
        got = (got.log_probability, got.words, got.state_path)
        assert got == want, (obs, hmms, fsa)
    assert decodable >= 500


def test_decode_sentence_matches_enumeration_on_random_log_models():
    # distinct logs, so a table that reads another state's or symbol's
    # probability changes the score
    rng = random.Random(2213)
    decodable = 0
    for case in range(1000):
        hmms, fsa = _random_models(rng, lambda: rng.choice((0.25, 0.5, 0.75, 1.0)))
        obs = [rng.choice(("x", "y")) for _ in range(rng.randint(1, 5))]
        want = oracles.best_sentence(obs, hmms, fsa)
        if want is None:
            with pytest.raises(DecodeError):
                decode_sentence(obs, hmms, fsa)
            continue
        decodable += 1
        got = decode_sentence(obs, hmms, fsa)
        assert (got.log_probability, got.words, got.state_path) == want, (case, obs, hmms, fsa)
    assert decodable >= 300


def test_rounding_tie_between_word_counts():
    # case 624 of the sweep above: the prefixes (b) and (a, b) reach
    # (frame 2, q2) with sums -2.3671236141316165 and -2.367123614131617,
    # and after the common extension by c both round to -5.427394408823179,
    # where the tie-break picks (a, b, c)
    hmms = [
        WordHmm("a", (PhonemeState("a", {"x": 0.5}),), {0: ((0, 0.75),)}, ((0, 0.5),), {0: 1.0}),
        WordHmm(
            "b",
            (PhonemeState("b", {"y": 1.0, "x": 0.25}), PhonemeState("b", {"y": 0.75}),
             PhonemeState("b", {"y": 1.0, "x": 0.75})),
            {0: ((0, 1.0),), 1: ((1, 0.5),), 2: ()},
            ((0, 0.5), (1, 1.0)),
            {0: 0.75, 2: 0.75},
        ),
        WordHmm(
            "c",
            (PhonemeState("c", {"y": 0.5, "x": 1.0}), PhonemeState("c", {"x": 0.5}),
             PhonemeState("c", {"x": 0.5, "y": 0.5})),
            {0: ((0, 0.75), (2, 1.0)), 1: (), 2: ((2, 1.0),)},
            ((0, 0.5), (1, 0.75)),
            {2: 0.25},
        ),
    ]
    arcs = (("q0", "a", "q0"), ("q0", "a", "q2"), ("q0", "b", "q2"), ("q1", "a", "q2"),
            ("q1", "c", "q2"), ("q2", "a", "q1"), ("q2", "c", "q1"))
    fsa = GrammarFsa(frozenset({"q0", "q1", "q2"}), "q0", frozenset({"q1"}), arcs)
    obs = list("xyxxy")
    got = decode_sentence(obs, hmms, fsa)
    assert (got.log_probability, got.words, got.state_path) == oracles.best_sentence(obs, hmms, fsa)
    assert got.words == ("a", "b", "c")
    assert got.log_probability == -5.427394408823179


def test_zero_probabilities_decode_as_enumeration():
    # every kind of probability is 0.0 somewhere: entry to state 1,
    # the move 0 -> 1, state 2 emitting x, and exit from state 0
    zeroed = WordHmm(
        word="a",
        states=(
            PhonemeState("a", {"x": 0.5, "y": 0.5}),
            PhonemeState("a", {"x": 1.0, "y": 0.0}),
            PhonemeState("a", {"x": 0.0, "y": 1.0}),
        ),
        transitions={0: ((0, 0.5), (1, 0.0), (2, 0.5)), 1: ((1, 0.25), (2, 0.75)), 2: ((2, 0.5),)},
        entry=((0, 0.75), (1, 0.0), (2, 0.25)),
        exit={0: 0.0, 1: 0.0, 2: 0.5},
    )
    hmms = [zeroed, _one_state_word("b", "x", 0.5)]
    arcs = (("S", "a", "S"), ("S", "b", "F"), ("F", "a", "F"))
    fsa = GrammarFsa(frozenset("SF"), "S", frozenset("SF"), arcs)
    for n in range(1, 5):
        for obs in itertools.product("xy", repeat=n):
            want = oracles.best_sentence(list(obs), hmms, fsa)
            if want is None:
                with pytest.raises(DecodeError):
                    decode_sentence(list(obs), hmms, fsa)
                continue
            got = decode_sentence(list(obs), hmms, fsa)
            assert (got.log_probability, got.words, got.state_path) == want, obs


def test_models_compare_and_print_by_their_fields():
    def word():
        return WordHmm("a", (PhonemeState("a", {"a": 1.0}),), {0: ((0, 0.5),)}, ((0, 1.0),), {0: 0.5})

    assert word() == word()
    assert repr(word()) == (
        "WordHmm(word='a', states=(PhonemeState(phoneme='a', emissions={'a': 1.0}),), "
        "transitions={0: ((0, 0.5),)}, entry=((0, 1.0),), exit={0: 0.5})"
    )
    assert word() != WordHmm("a", word().states, {0: ((0, 0.25),)}, ((0, 1.0),), {0: 0.75})

    def fsa():
        return GrammarFsa(frozenset({"q"}), "q", frozenset({"q"}), (("q", "a", "q"),))

    assert fsa() == fsa() and hash(fsa()) == hash(fsa())
    assert repr(fsa()) == (
        "GrammarFsa(states=frozenset({'q'}), start='q', accepting=frozenset({'q'}), "
        "arcs=(('q', 'a', 'q'),))"
    )
    assert fsa() != GrammarFsa(frozenset({"q"}), "q", frozenset({"q"}), ())


def _onset_word(word, onset, entries=((0, 1.0),)):
    """An onset state emitting only `onset`, then a self-looped state
    emitting m or any onset."""
    return WordHmm(
        word=word,
        states=(PhonemeState(word, {onset: 1.0}), PhonemeState(word, dict.fromkeys("xyzm", 0.25))),
        transitions={0: ((1, 1.0),), 1: ((1, 0.5),)},
        entry=entries,
        exit={1: 0.5},
    )


def test_word_pass_runs_only_where_its_entry_emits_the_frame(monkeypatch):
    # d's second state emits every onset, but d enters it with
    # probability 0.0, so d can start only at u, which never occurs
    hmms = [
        _onset_word("a", "x"),
        _onset_word("b", "y"),
        _onset_word("c", "z"),
        _onset_word("d", "u", entries=((0, 1.0), (1, 0.0))),
    ]
    fsa = GrammarFsa(frozenset("q"), "q", frozenset("q"), tuple(("q", h.word, "q") for h in hmms))
    obs = list("xmmymzmmxm")
    passes = []
    word_ends = decoder._word_ends

    def counted(observations, start, hmm):
        passes.append((start, hmm.word))
        return word_ends(observations, start, hmm)

    monkeypatch.setattr(decoder, "_word_ends", counted)
    got = decode_sentence(obs, hmms, fsa)
    # each onset frame starts one pass, of its own word; every other frame
    # the grammar reaches (2, 4, 6, 7 and 9) starts none
    assert passes == [(0, "a"), (3, "b"), (5, "c"), (8, "a")]
    assert (got.log_probability, got.words, got.state_path) == oracles.best_sentence(obs, hmms, fsa)
    assert got.words == ("a", "b", "c", "a")


def _flat_left_to_right_word(rng, p):
    """A left-to-right word whose every probability is `p`: every path
    over the same frames adds the same terms in the same order, so all
    of them tie exactly."""
    n = rng.randint(2, 4)
    states = tuple(PhonemeState("w", {"x": p, "y": p}) for _ in range(n))
    transitions = {
        i: tuple((j, p) for j in range(i, min(i + 3, n)) if j <= i + 1 or rng.random() < 0.5)
        for i in range(n)
    }
    entry = tuple((i, p) for i in range(n) if i == 0 or rng.random() < 0.3)
    exits = {i: p for i in range(n) if i == n - 1 or rng.random() < 0.3}
    return WordHmm("w", states, transitions, entry, exits)


def test_viterbi_word_ties_over_long_spans():
    rng = random.Random(1989)
    for _ in range(20):
        hmm = _flat_left_to_right_word(rng, rng.choice((0.5, 1.0)))
        obs = [rng.choice(("x", "y")) for _ in range(rng.randint(8, 20))]
        paths = oracles.enumerate_word_paths(obs, hmm)
        assert len(paths) > 1 and len({score for score, _ in paths}) == 1
        assert viterbi_word(obs, hmm) == oracles.best_word_path(obs, hmm)


def _flat_word(word, n, symbols):
    """A left-to-right word of `n` self-looped states, entered at the
    first and left from the last, with every probability 1.0."""
    states = tuple(PhonemeState(word, {s: 1.0 for s in symbols}) for _ in range(n))
    transitions = {i: tuple((j, 1.0) for j in (i, i + 1) if j < n) for i in range(n)}
    return WordHmm(word, states, transitions, ((0, 1.0),), {n - 1: 1.0})


def _looped_word(rng, word):
    """Three self-looped states emitting x and y, entered at the first and
    left from the last, each probability 0.5 or 1.0: their logs add up
    exactly in any order, so every tie is one of equal scores."""
    def p():
        return rng.choice((0.5, 1.0))

    states = tuple(PhonemeState(word, {"x": p(), "y": p()}) for _ in range(3))
    transitions = {i: tuple((j, p()) for j in (i, i + 1) if j < 3) for i in range(3)}
    return WordHmm(word, states, transitions, ((0, p()),), {2: p()})


def test_looping_grammar_over_long_lived_words_matches_enumeration():
    # no word dies before the stream ends, and one grammar state loops
    # over every word, so a late frame is reached with one word and with
    # two, each count in a cell of its own
    rng = random.Random(1984)
    for _ in range(30):
        hmms = [_looped_word(rng, word) for word in "abcd"[: rng.randint(3, 4)]]
        fsa = GrammarFsa(frozenset("q"), "q", frozenset("q"), tuple(("q", h.word, "q") for h in hmms))
        obs = [rng.choice("xy") for _ in range(rng.randint(7, 8))]
        got = decode_sentence(obs, hmms, fsa)
        want = oracles.best_sentence(obs, hmms, fsa)
        assert (got.log_probability, got.words, got.state_path) == want, (obs, hmms)


@pytest.mark.parametrize("obs", ["xyxyxyxyxy", "xxxxxxxxxy", "yyyyyyyyy", "xxyxxyxxyxx"])
def test_decode_sentence_ties_over_ten_frames(obs):
    # every decoding scores 0.0, so segmentations, word counts and state
    # paths are ranked by the tie-break alone
    hmms = [_flat_word("a", 2, "xy"), _flat_word("b", 3, "xy"), _flat_word("c", 1, "y")]
    arcs = (
        ("S", "a", "M"), ("S", "b", "M"), ("M", "b", "N"),
        ("M", "c", "F"), ("N", "c", "F"), ("N", "a", "F"),
    )
    fsa = GrammarFsa(frozenset("SMNF"), "S", frozenset("F"), arcs)
    got = decode_sentence(list(obs), hmms, fsa)
    want = oracles.best_sentence(list(obs), hmms, fsa)
    assert (got.log_probability, got.words, got.state_path) == want


# No word's entry emits m, so an end at a frame of m before the last gets
# no cell: nothing could start from it.
ONSET_WORDS = [_onset_word("a", "x"), _onset_word("b", "y")]
ONSET_GRAMMAR = GrammarFsa(frozenset("SF"), "S", frozenset("F"), tuple(
    (src, h.word, "F") for src in "SF" for h in ONSET_WORDS))


@pytest.mark.parametrize(
    "obs", ["xmmmymm", "xmxmmym", "ymmmmxmmxm", "xxmyxm", "xmmmm", "mxm", "xmyx"])
def test_ends_where_no_word_starts_decode_as_enumeration(obs):
    # words end inside runs of m, and every stream but one ends on m
    want = oracles.best_sentence(list(obs), ONSET_WORDS, ONSET_GRAMMAR)
    if want is None:
        with pytest.raises(DecodeError):
            decode_sentence(list(obs), ONSET_WORDS, ONSET_GRAMMAR)
        return
    got = decode_sentence(list(obs), ONSET_WORDS, ONSET_GRAMMAR)
    assert (got.log_probability, got.words, got.state_path) == want


def test_word_that_ends_only_at_the_last_frame():
    # e reads exactly y m m, so after a on x m it can end only after the
    # last frame, whose symbol m starts no word: that end keeps its cell
    e = WordHmm(
        word="e",
        states=(PhonemeState("e", {"y": 1.0}), PhonemeState("e", {"m": 1.0}),
                PhonemeState("e", {"m": 1.0})),
        transitions={0: ((1, 1.0),), 1: ((2, 1.0),)},
        entry=((0, 1.0),),
        exit={2: 1.0},
    )
    hmms = [_onset_word("a", "x"), e]
    fsa = GrammarFsa(frozenset("SMF"), "S", frozenset("F"), (("S", "a", "M"), ("M", "e", "F")))
    obs = list("xmymm")
    got = decode_sentence(obs, hmms, fsa)
    want = oracles.best_sentence(obs, hmms, fsa)
    assert (got.log_probability, got.words, got.state_path) == want
    assert got.words == ("a", "e")
