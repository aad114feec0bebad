import gc
import random
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from toklang import (
    Grammar,
    GrammarError,
    GrammarParseError,
    Production,
    RecognitionSession,
    add_leading_space,
    format_grammar,
    parse_grammar,
    recognize,
    reduce_grammar,
    sample,
)
from toklang.toys import DYCK_GRAMMAR_TEXT, dyck_grammar, dyck_letters_grammar

from oracles import (
    balanced_brackets,
    bracket_prefix_viable,
    members_cut_at,
    prefixes_of,
    strings_up_to,
)


# --- parsing -----------------------------------------------------------------


def test_parse_dyck():
    g = parse_grammar('S -> "" | "[" S "]" S ;')
    assert g.nonterminals == frozenset({"S"})
    assert g.start == "S"
    assert g.productions == (
        Production("S", ()),
        Production("S", (0x5B, "S", 0x5D, "S")),
    )


def test_parse_undefined_nonterminal():
    with pytest.raises(GrammarParseError, match="undefined nonterminal A"):
        parse_grammar("S -> A ;")


def test_parse_error_positions():
    with pytest.raises(GrammarParseError) as e:
        parse_grammar('S -> "a"\nT :')
    assert e.value.line == 2


def test_parse_unicode_terminal():
    g = parse_grammar('S -> "你" ;', "unicode")
    assert g.productions == (Production("S", (0x4F60,)),)


def test_parse_byte_mode_literals():
    g = parse_grammar(r'S -> "\xe4\xbd\xa0" | \x00 ;', "byte")
    assert g.productions == (
        Production("S", (0xE4, 0xBD, 0xA0)),
        Production("S", (0x00,)),
    )


def test_parse_bare_byte_rejected_in_unicode_mode():
    with pytest.raises(GrammarParseError, match="byte alphabet"):
        parse_grammar(r"S -> \x41 ;", "unicode")


@pytest.mark.parametrize("text, message, line, column", [
    (r'S -> "\x4" ;', "two hex digits", 1, 7),
    (r'S -> "\xg0" ;', "two hex digits", 1, 7),
    ('S -> "a"\n  | "\\x" ;', "two hex digits", 2, 6),
    (r"S -> \x4 ;", "two hex digits", 1, 6),
    (r"S -> \xZZ ;", "two hex digits", 1, 6),
    ("S -> \\x", "two hex digits", 1, 6),
    (r"S -> \y ;", "stray backslash", 1, 6),
    ('S -> "a"\n\n  \\ ;', "stray backslash", 3, 3),
])
def test_parse_backslash_errors_point_at_the_backslash(text, message, line, column):
    with pytest.raises(GrammarParseError, match=message) as e:
        parse_grammar(text, "byte")
    assert (e.value.line, e.value.column) == (line, column)


def test_parse_multichar_literal_expands():
    g = parse_grammar('S -> "aaabb" ;')
    assert g.productions == (Production("S", (97, 97, 97, 98, 98)),)


def test_parse_dedupes_and_allows_multiline():
    g = parse_grammar('S -> "a"\n  | "a"   # same thing twice\n  ;')
    assert len(g.productions) == 1


def test_parse_empty_alternative_is_an_error():
    with pytest.raises(GrammarParseError, match="epsilon"):
        parse_grammar('S -> | "a" ;')


def test_grammar_validation():
    with pytest.raises(GrammarError, match="start"):
        Grammar(frozenset({"S"}), "unicode", (), "T")
    with pytest.raises(GrammarError, match="alphabet"):
        Grammar(frozenset({"S"}), "byte", (Production("S", (300,)),), "S")
    with pytest.raises(GrammarError, match="undefined"):
        Grammar(frozenset({"S"}), "byte", (Production("S", ("A",)),), "S")


# --- reduction ---------------------------------------------------------------


def test_reduce_keeps_a_reduced_grammar():
    g = reduce_grammar(parse_grammar(DYCK_GRAMMAR_TEXT, "byte"))
    assert set(reduce_grammar(g).productions) == set(g.productions)


def test_reduce_drops_nongenerating():
    g = reduce_grammar(parse_grammar('S -> "a" | A ; A -> A "b" ;'))
    assert g.productions == (Production("S", (97,)),)
    assert g.nonterminals == frozenset({"S"})


def test_reduce_drops_unreachable():
    g = reduce_grammar(parse_grammar('S -> "a" ; B -> "b" ;'))
    assert g.nonterminals == frozenset({"S"})


def test_reduce_empty_language_flagged():
    g = reduce_grammar(parse_grammar("S -> S ;"))
    assert g.is_empty_language
    assert g.productions == ()


@pytest.mark.parametrize("text,alphabet,max_len", [
    ('S -> "a" | A ; A -> A "b" | "c" A ;', "unicode", 6),
    ('S -> "" | "[" S "]" S ;', "byte", 6),
    ('S -> A B ; A -> "" | "a" A ; B -> "b" | B "b" ;', "unicode", 6),
])
def test_reduce_preserves_membership(text, alphabet, max_len):
    g = parse_grammar(text, alphabet)
    # brute-force every short string over the used terminals, before/after
    reduced = reduce_grammar(g)
    want = strings_up_to(g, max_len)
    alphabet_terms = sorted(
        {s for _, body in g.productions for s in body if isinstance(s, int)})
    import itertools
    for n in range(max_len + 1):
        for w in itertools.product(alphabet_terms, repeat=n):
            assert recognize(reduced, w) == (w in want)


# --- recognition -------------------------------------------------------------


def test_recognize_dyck_basics(dyck):
    assert recognize(dyck, "")
    assert recognize(dyck, "[[]]")
    assert not recognize(dyck, "[[")


def test_recognize_literal_string_grammar():
    g = reduce_grammar(parse_grammar('S -> "aaabb" ;'))
    assert recognize(g, "aaabb")
    assert not recognize(g, "aaab")
    assert not recognize(g, "aaabbb")


def test_recognize_requires_reduced():
    g = parse_grammar('S -> "a" ;')
    with pytest.raises(GrammarError, match="reduced"):
        recognize(g, "a")


def test_recognize_rejects_foreign_terminal(dyck):
    with pytest.raises(GrammarError, match="alphabet"):
        recognize(dyck, [999])


def test_recognize_matches_brute_force(dyck):
    want = strings_up_to(dyck, 8)
    import itertools
    for n in range(9):
        for w in itertools.product((0x5B, 0x5D), repeat=n):
            assert recognize(dyck, w) == (w in want)


@given(st.text(alphabet="[]", max_size=16))
def test_recognize_dyck_against_counter_scan(s):
    assert recognize(dyck_grammar(), s) == balanced_brackets(s)


def test_recognize_nullable_heavy():
    g = reduce_grammar(parse_grammar('S -> A A ; A -> "" | "a" ;'))
    assert [recognize(g, "a" * n) for n in range(4)] == [True, True, True, False]


def test_recognize_left_recursion_with_epsilon():
    g = reduce_grammar(parse_grammar('E -> E E | "a" | "" ;'))
    assert recognize(g, "")
    assert recognize(g, "aaaa")
    assert not recognize(g, "b")
    g2 = reduce_grammar(parse_grammar('E -> E "+" E | "n" ;'))
    assert recognize(g2, "n+n+n")
    assert not recognize(g2, "n+")
    assert not recognize(g2, "+n")


# --- sessions ----------------------------------------------------------------


def test_fresh_session_state(dyck):
    s = RecognitionSession(dyck)
    assert s.live and s.accepts() and s.consumed == 0


def test_session_on_finite_language():
    g = reduce_grammar(parse_grammar('S -> "ab" ;'))
    s = RecognitionSession(g)
    assert s.live and not s.accepts()
    s.feed(ord("a"))
    assert s.live and not s.accepts()
    s.feed(ord("b"))
    assert s.accepts()
    s.feed(ord("a"))
    assert not s.live and s.died_at == 2


def test_empty_language_session_starts_dead():
    g = reduce_grammar(parse_grammar("S -> S ;"))
    s = RecognitionSession(g)
    assert not s.live and not s.accepts()


def test_dead_sessions_absorb(dyck):
    s = RecognitionSession(dyck).feed(0x5D)
    assert not s.live and s.died_at == 0
    s.feed(0x5B).feed(0x5D)
    assert not s.live and s.died_at == 0 and s.consumed == 3


def test_session_clone_is_independent(dyck):
    parent = RecognitionSession(dyck).feed(0x5B)
    child = parent.clone()
    parent.feed(0x5D)
    assert parent.accepts()
    assert child.consumed == 1 and not child.accepts()
    child.feed(0x5B).feed(0x5D).feed(0x5D)
    assert child.accepts()
    assert parent.consumed == 2


@given(st.text(alphabet="[]", max_size=12))
def test_batch_streaming_agreement(s):
    g = dyck_grammar()
    session = RecognitionSession(g)
    for b in s.encode():
        session.feed(b)
    assert session.accepts() == recognize(g, s)


def test_prefix_viability_exhaustive(dyck):
    # any balanced-bracket prefix of length <= 6 completes within length 12
    viable = prefixes_of(strings_up_to(dyck, 12))
    import itertools
    for n in range(7):
        for p in itertools.product((0x5B, 0x5D), repeat=n):
            session = RecognitionSession(dyck)
            for t in p:
                session.feed(t)
            assert session.live == (p in viable) == bracket_prefix_viable(
                "".join(map(chr, p)))


def test_prefix_viability_on_finite_language():
    g = reduce_grammar(parse_grammar('S -> "ab" | "ac" A ; A -> "d" ;'))
    viable = prefixes_of(strings_up_to(g, 6))
    import itertools
    for n in range(5):
        for p in itertools.product((97, 98, 99, 100), repeat=n):
            session = RecognitionSession(g)
            for t in p:
                session.feed(t)
            assert session.live == (p in viable), p


# --- the chart on generated grammars ----------------------------------------------

_NAMES = ("S", "A", "B")
_A, _B = 0x61, 0x62


@st.composite
def small_grammars(draw):
    """Reduced byte grammars: up to 3 nonterminals, bodies of up to 3 symbols
    over a, b and the nonterminals, epsilon allowed."""
    names = _NAMES[:draw(st.integers(1, 3))]
    symbol = st.sampled_from((_A, _B) + names)
    rules = draw(st.lists(
        st.builds(Production, st.sampled_from(names), st.lists(symbol, max_size=3).map(tuple)),
        min_size=1, max_size=7))
    return reduce_grammar(Grammar(frozenset(names), "byte", tuple(rules), "S"))


def _grammar(text):
    return reduce_grammar(parse_grammar(text, "byte"))


@settings(max_examples=200)
@given(small_grammars())
@example(_grammar('S -> S "a" | "" ;'))                         # left recursion
@example(_grammar('S -> "a" S | "b" ;'))                        # right recursion
@example(_grammar('S -> A A "b" ; A -> "" | "a" ;'))            # nullables
@example(_grammar('S -> A | "a" ; A -> B | "b" ; B -> S ;'))    # unit cycle
@example(_grammar('S -> "a" A ; A -> "b" B B ; B -> "a" "b" "b" ;'))  # long completions
@example(_grammar("S -> S ;"))                                   # empty language
def test_chart_matches_oracles_on_generated_grammars(g):
    members = strings_up_to(g, 5)
    viable = prefixes_of(members_cut_at(g, 5))

    def check(prefix, session):
        # the first cut of the prefix that is not viable: died_at is the byte
        # that ended it, or 0 for an empty language, where () is not viable
        cut = next((i for i in range(len(prefix) + 1) if prefix[:i] not in viable), None)
        assert session.consumed == len(prefix)
        assert session.live == (prefix in viable)
        assert session.died_at == (None if cut is None else max(cut - 1, 0))
        assert session.accepts() == (prefix in members) == recognize(g, prefix)

    def walk(prefix, session):
        check(prefix, session)
        if len(prefix) < 5:
            for t in (_A, _B):
                walk(prefix + (t,), session.clone().feed(t))
            check(prefix, session)  # its clones took other suffixes; it did not move

    walk((), RecognitionSession(g))


def _retained_bytes(g, data: bytes) -> int:
    """Memory still held by a session after it was fed *data*."""
    gc.collect()
    tracemalloc.start()
    try:
        session = RecognitionSession(g)
        for b in data:
            session.feed(b)
        gc.collect()
        return tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


def test_session_frees_positions_of_closed_groups():
    g = dyck_letters_grammar()
    assert recognize(g, b"[a]")  # builds the grammar's cached tables first
    groups = _retained_bytes(g, (b"[" + b"a" * 60 + b"]") * 40)
    flat = _retained_bytes(g, b"[]" * 40)
    assert groups <= 2 * flat, (groups, flat)


# --- sampling ----------------------------------------------------------------


def test_sample_outputs_are_members(dyck):
    for seed in range(20):
        w = sample(dyck, 80, seed)
        if w is not None:
            assert recognize(dyck, w)


def test_sample_unique_string_grammar():
    g = reduce_grammar(parse_grammar('S -> "ab" ;'))
    assert sample(g, 10, 0) == "ab"
    assert sample(g, 10, 12345) == "ab"


def test_sample_empty_language_returns_none():
    g = reduce_grammar(parse_grammar("S -> S ;"))
    assert sample(g, 100, 0) is None


def test_sample_budget_exhaustion_returns_none():
    g = reduce_grammar(parse_grammar('S -> "[" S "]" S | "" ;'))
    assert sample(g, 0, 0) is None


def test_sample_deterministic(dyck):
    assert sample(dyck, 100, 9) == sample(dyck, 100, 9)
    rng1, rng2 = random.Random(3), random.Random(3)
    assert sample(dyck, 100, rng1) == sample(dyck, 100, rng2)


# --- leading space -----------------------------------------------------------


def test_leading_space_finite():
    g = reduce_grammar(parse_grammar('S -> "ab" ;'))
    gs = add_leading_space(g)
    assert recognize(gs, " ab")
    assert not recognize(gs, "ab")
    assert not recognize(gs, " a")


def test_leading_space_dyck(dyck):
    gs = add_leading_space(dyck)
    assert recognize(gs, " []")
    assert recognize(gs, " ")  # epsilon member gains a bare space
    assert not recognize(gs, "[]")
    for seed in range(10):
        w = sample(dyck, 80, seed)
        if w is not None:
            assert recognize(gs, b" " + w) == recognize(dyck, w)


def test_leading_space_start_name_does_not_collide():
    g = reduce_grammar(parse_grammar("S -> S' ; S' -> \"x\" ;"))
    gs = add_leading_space(g)
    assert gs.start not in g.nonterminals
    assert recognize(gs, " x")


# --- file format round trip ---------------------------------------------------


@pytest.mark.parametrize("text,alphabet", [
    (DYCK_GRAMMAR_TEXT, "byte"),
    ('S -> "" | "a" S "你" | "é" ;', "unicode"),
    (r'S -> "\x00\xff" A | "" ; A -> "\x22\x5c" ;', "byte"),
])
def test_format_parse_round_trip(text, alphabet):
    g = parse_grammar(text, alphabet)
    back = parse_grammar(format_grammar(g), alphabet)
    assert set(back.productions) == set(g.productions)
    assert back.start == g.start
    assert back.alphabet == g.alphabet


def test_format_empty_grammar_raises():
    g = reduce_grammar(parse_grammar("S -> S ;"))
    with pytest.raises(GrammarError):
        format_grammar(g)
