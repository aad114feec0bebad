import gc
import random
import sys
import threading
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

import toklang.grammar

from toklang import (
    Grammar,
    GrammarError,
    GrammarParseError,
    Production,
    RecognitionSession,
    TokenRecognizer,
    Tokenizer,
    UTF8,
    add_leading_space,
    as_terminals,
    encode_grammar,
    format_grammar,
    parse_grammar,
    recognize,
    reduce_grammar,
    sample,
    train,
)
from toklang.toys import (
    DYCK_GRAMMAR_TEXT,
    dyck_grammar,
    dyck_letters_grammar,
    letter_bracket_tokenizer,
    unicode_mix_grammar,
)

from oracles import (
    advance,
    all_strings,
    allowed_by_trial,
    balanced_brackets,
    bracket_prefix_viable,
    deriving_by_fixpoint,
    initial_position,
    leaves_by_reach,
    members_cut_at,
    outcome,
    parse_grammar_by_scan,
    prefixes_of,
    sample_by_uniform_choice,
    strings_up_to,
    terminal_classes_by_slices,
    wait_sets,
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


@pytest.mark.parametrize("text, message, line, column", [
    # a misplaced token is quoted as written in the source
    ('S -> "a" ; "b" -> S ;', """unexpected '"b"', expected NAME""", 1, 12),
    # a rule cut off by the end of the text
    ('S -> "a"', "unexpected end of input in rule body", 1, 9),
    ("S -> A ;\nA", "unexpected end of input, expected ARROW", 2, 2),
    # no rule at all: the error sits where the text ends
    ("# a comment\n  # and another", "expected at least one rule", 2, 16),
])
def test_parse_error_messages_quote_the_source(text, message, line, column):
    with pytest.raises(GrammarParseError) as e:
        parse_grammar(text)
    assert str(e.value) == f"line {line}, column {column}: {message}"


# The reader against the one it replaced: lexical pieces in any order, and
# well-formed rule groups with one character inserted, replaced or deleted.

_PIECES = ("->", "-", "|", ";", '"', "\\", "\\x", "\\x4", "\\x41", "\\q", "#", "\n", "\r",
           "\xa0", " ", "S", "A", "b_1'", "你")
_SYMBOLS = ("S", "A", "b_1'", '""', '"a"', '"\\x41\\n"', '"你\\""', "\\xff", "# note\n")


def _rule_groups():
    """One group for each name in _SYMBOLS, so that none is undefined."""
    alternative = st.lists(st.sampled_from(_SYMBOLS), min_size=1, max_size=3).map(" ".join)
    alternatives = st.lists(alternative, min_size=1, max_size=3).map(" | ".join)
    return st.tuples(alternatives, alternatives, alternatives).map(lambda groups: "\n".join(
        f"{head} -> {alts} ;" for head, alts in zip(("S", "A", "b_1'"), groups)))


@st.composite
def _edited_rule_groups(draw):
    text = draw(_rule_groups())
    at = draw(st.integers(0, len(text)))
    char = draw(st.sampled_from(sorted(set("".join(_PIECES)))))
    return draw(st.sampled_from(
        [text[:at] + char + text[at:], text[:at] + char + text[at + 1:], text[:at] + text[at + 1:]]))


@settings(max_examples=500)
@given(st.one_of(st.lists(st.sampled_from(_PIECES), max_size=12).map("".join),
                 _edited_rule_groups()))
@example('S -> "a\\')                          # dangling escape
@example('S -> "a\\\n" ;')                    # a backslash before a newline
@example('S -> A ;\nA -> "\\x4" | \\x4 ;')     # \x4 in and out of a literal
@example('S -> "a\udcff" ;')                   # a lone surrogate in a literal
def test_parse_matches_the_scanning_reader(text):
    for alphabet in ("unicode", "byte"):
        assert outcome(parse_grammar, text, alphabet) == \
            outcome(parse_grammar_by_scan, text, alphabet)


@pytest.mark.parametrize("alphabet", ["unicode", "byte"])
def test_parse_refuses_a_lone_surrogate_in_a_literal(alphabet):
    # no character and no UTF-8 bytes; the error points at the surrogate
    with pytest.raises(GrammarParseError, match="lone surrogate") as e:
        parse_grammar('S -> "a" ;\nA -> "b\udcff" ;', alphabet)
    assert (e.value.line, e.value.column) == (2, 8)


def test_grammar_validation():
    with pytest.raises(GrammarError, match="start"):
        Grammar(frozenset({"S"}), "unicode", (), "T")
    with pytest.raises(GrammarError, match="alphabet"):
        Grammar(frozenset({"S"}), "byte", (Production("S", (300,)),), "S")
    with pytest.raises(GrammarError, match="undefined"):
        Grammar(frozenset({"S"}), "byte", (Production("S", ("A",)),), "S")
    with pytest.raises(GrammarError, match="production head 'A' is not a declared"):
        Grammar(frozenset({"S"}), "byte", (Production("A", ()),), "S")
    with pytest.raises(GrammarError, match="unknown alphabet mode 'latin1'"):
        parse_grammar('S -> "a" ;', "latin1")


# --- reduction ---------------------------------------------------------------


def test_reduce_keeps_a_reduced_grammar():
    g = reduce_grammar(parse_grammar(DYCK_GRAMMAR_TEXT, "byte"))
    assert set(reduce_grammar(g).productions) == set(g.productions)


def test_a_reduced_grammar_is_its_own_reduced_form():
    # so recognition builds its chart tables on the grammar it was given
    for text in (DYCK_GRAMMAR_TEXT, "S -> S ;"):
        g = reduce_grammar(parse_grammar(text, "byte"))
        assert reduce_grammar(g) is g
        RecognitionSession(g)
        assert "_chart" in vars(g)
    junk = parse_grammar('S -> "a" ; B -> "b" ;')
    assert reduce_grammar(junk) is not junk and recognize(junk, "a")
    assert "_chart" not in vars(junk)


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


class _CountedBody(tuple):
    """A production body that counts the times it is iterated."""
    iterations = 0

    def __iter__(self):
        self.iterations += 1
        return super().__iter__()


@pytest.mark.parametrize("last", [(0x61,), ()], ids=["generating", "nullable"])
def test_reduction_reads_each_body_a_bounded_number_of_times(last):
    # the chain A0 -> A1 ; ... ; A999 -> last, written top down, where a
    # rescan of every production until nothing changed read each body 1,005
    # times, or 2,005 when all are nullable; building the grammar, reducing
    # it and its nullable set now read each body 6 times
    n = 1000
    bodies = [_CountedBody((f"A{i + 1}",)) for i in range(n - 1)] + [_CountedBody(last)]
    g = Grammar(frozenset(f"A{i}" for i in range(n)), "byte",
                tuple(Production(f"A{i}", body) for i, body in enumerate(bodies)), "A0")
    assert reduce_grammar(g) is g
    assert len(g._nullable) == (0 if last else n)
    assert max(body.iterations for body in bodies) <= 8


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


def test_recognize_takes_an_unreduced_grammar():
    g = parse_grammar('S -> "a" ;')
    assert [recognize(g, w) for w in ("a", "", "aa")] == [True, False, False]
    assert not g.is_empty_language
    # B derives no string, so "b" must not keep a session live
    g = parse_grammar('S -> "a" | "b" B ; B -> B "b" ;')
    assert not recognize(g, "b") and not RecognitionSession(g).feed(ord("b")).live
    empty = parse_grammar("S -> S ;")
    assert empty.is_empty_language and not RecognitionSession(empty).live
    assert sample(empty, 100, 0) is None


def test_recognize_rejects_foreign_terminal(dyck):
    with pytest.raises(GrammarError, match="alphabet"):
        recognize(dyck, [999])


def test_as_terminals_checks_all_but_bytes_on_a_byte_grammar(dyck):
    assert as_terminals(dyck, bytearray(b"[]")) == as_terminals(dyck, [0x5B, 0x5D]) == (0x5B, 0x5D)
    for ints in ([256], [-1], [0x5B, 0.5]):
        with pytest.raises(GrammarError, match="outside the byte alphabet"):
            as_terminals(dyck, ints)
    unicode = reduce_grammar(parse_grammar('S -> "[" "]" ;'))
    for data in (b"[]", bytearray(b"[]")):
        with pytest.raises(GrammarError, match="byte input"):
            as_terminals(unicode, data)
    with pytest.raises(GrammarError, match="outside the unicode alphabet"):
        as_terminals(unicode, [0xD800])


@pytest.mark.parametrize("alphabet", ["byte", "unicode"])
def test_feed_and_as_terminals_refuse_the_same_values_alike(alphabet):
    # feed checks its terminal through as_terminals, so one path refuses both
    g = reduce_grammar(parse_grammar('S -> "a" ;', alphabet))
    refused = [True, "a", b"a", -1, 0xD800, 0x110000] + [0x100] * (alphabet == "byte")
    for x in refused:
        with pytest.raises(GrammarError) as by_terms:
            as_terminals(g, (x,))
        with pytest.raises(GrammarError) as by_feed:
            RecognitionSession(g).feed(x)
        assert str(by_feed.value) == str(by_terms.value) == (
            f"terminal {x!r} outside the {alphabet} alphabet")
    assert RecognitionSession(g).feed(0x61).accepts()


def test_as_terminals_refuses_a_lone_surrogate_on_a_byte_grammar(dyck):
    # str on a byte grammar is UTF-8 encoded, which a lone surrogate is not
    with pytest.raises(GrammarError, match="no UTF-8 encoding"):
        recognize(dyck, "[\udcff]")


@pytest.mark.parametrize("entry", [
    lambda g: recognize(g, [True]),
    lambda g: RecognitionSession(g).feed(True),
    lambda g: Grammar(g.nonterminals, "byte", (Production("S", (True,)),), "S"),
], ids=["recognize", "feed", "Grammar"])
def test_bool_is_not_a_terminal(entry):
    # bool is an int subclass; True would read as the terminal 1
    g = reduce_grammar(parse_grammar(r"S -> \x01 ;", "byte"))
    with pytest.raises(GrammarError, match="terminal True outside the byte alphabet"):
        entry(g)


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


def test_recognize_deep_right_recursion():
    # 5000 nested completions, followed by a loop rather than by recursion
    g = reduce_grammar(parse_grammar('S -> "a" S | "b" ;', "byte"))
    assert recognize(g, b"a" * 5000 + b"b")
    assert not recognize(g, b"a" * 5000)


def kernel_items(monkeypatch) -> list[int]:
    """Record, from now on, how many kernel items each chart position took."""
    counts: list[int] = []
    close = toklang.grammar._close

    def counted(g, pos, seeds):
        counts.append(close(g, pos, seeds))
        return counts[-1]

    monkeypatch.setattr(toklang.grammar, "_close", counted)
    return counts


def test_dyck_chart_work_per_byte_is_flat(monkeypatch):
    # completing a "]" jumps to the top of the open spine instead of walking it
    counts = kernel_items(monkeypatch)
    per_advance = []
    for n in (100, 1000):
        counts.clear()
        assert recognize(dyck_grammar(), b"[]" * n)
        per_advance.append((max(counts), counts[-2:]))
    assert per_advance[0] == per_advance[1]


def _left_corner_chain(n: int) -> Grammar:
    return _grammar(" ".join(f'A{i} -> A{i + 1} "x" | "y" ;' for i in range(n))
                    + f' A{n} -> "z" ;')


def test_prediction_closures_are_built_on_demand():
    # a left-corner chain of 2000 nonterminals is finite, so A0 is a leaf and
    # is scanned: two tables are built, the start's, which holds the start of
    # A0's words, and the empty set's, of the positions inside them
    n = 2000
    g = _left_corner_chain(n)
    assert recognize(g, b"y" + b"x" * 5)
    assert recognize(g, b"z" + b"x" * n)
    assert list(g._reduced._chart) == [frozenset({"A0"}), frozenset()]
    assert g._reduced._chart.leaves == {f"A{i}" for i in range(n + 1)}


def test_the_scan_of_a_left_corner_chain_is_linear():
    # the DFA's stacks are interned cons pairs, so a step costs no stack depth:
    # the stacks and states built grow with n, and z x^n builds all of them
    built = []
    for n in (500, 1000, 2000):
        g = _left_corner_chain(n)
        assert recognize(g, b"z" + b"x" * n) and not recognize(g, b"z" + b"x" * (n - 1))
        chart = g._reduced._chart
        built.append((len(chart.frames), len(chart.states)))
        assert recognize(g, b"y" + b"x" * 5)
        assert len(chart.frames) == built[-1][0]
    assert built == [(5 * n + 3, n + 2) for n in (500, 1000, 2000)]


def test_a_word_costs_no_closure_per_byte(monkeypatch):
    # inside a word of the document grammar a byte takes a DFA step, and the
    # word's completion is closed once, not once per byte
    g = _doc_grammar()
    assert g._reduced._chart.leaves == {"Word", "Ch"}
    counts = kernel_items(monkeypatch)
    for word in ("a", "aé你" * 3, "aé你" * 3334):
        counts.clear()
        session = RecognitionSession(g).feed(0x5B)._feed_checked(word.encode())
        assert session.live and not session.accepts()
        assert len(counts) <= 3, len(counts)
        assert session._last.scans and not any(
            head in ("Word", "Ch") for head in chart_heads(session._last, g._reduced._chart))
        assert session._feed_checked(b"]\n").accepts()
    assert len(word.encode()) > 10_000


def chart_heads(pos, chart) -> set[str]:
    """The heads of the rules of the items that *pos* holds."""
    return {chart.heads[lr] for items in pos.wait.values() for lr, _ in items} | {
        chart.heads[lr] for ids in pos.pred.values() for lr in ids}


def test_dyck_letters_has_no_leaf_and_never_scans(monkeypatch):
    # the decoding grammar is self-embedding throughout: no position has a
    # word under way, and no DFA state, stack or scan is built
    def scan(*args):
        raise AssertionError("a chart with no leaf built a scan state")

    monkeypatch.setattr(toklang.grammar._Chart, "scan", scan)
    g = dyck_letters_grammar()
    tokenizer = letter_bracket_tokenizer()
    session = TokenRecognizer(g, tokenizer).open_session()
    for tid in tokenizer.tokenize(b"[a[b]ab][[ab]a]" * 10):
        assert session.allowed_next_tokens()
        session.feed(tid)
    chart = g._reduced._chart
    assert not chart.leaves and not chart.states and not chart.frames
    assert all(table.start is None for table in chart.values())
    assert all(pos.scans == () for pos in _positions_behind(session.inner._last))


def test_a_position_with_no_word_under_way_holds_no_list():
    # every word dies at some bytes that still have chart items: the
    # position there holds (), as a chart with no leaf does, not []
    g = _doc_grammar()
    session = RecognitionSession(g)
    positions = [session.feed(b)._last for b in "[aé,b]\n[]\n".encode()]
    assert session.accepts() and len(positions) == 11
    assert all(pos.scans == () or (type(pos.scans) is list and pos.scans) for pos in positions)
    assert any(pos.scans == () for pos in positions) and any(pos.scans for pos in positions)


def test_positions_that_hold_only_words_share_one_closed_position():
    # inside a multi-byte character no word ends and no chart item steps:
    # each position there shares the wait and leo of the chart's one empty
    # position rather than holding empty ones of its own
    g = _doc_grammar()
    data = "[a你好éb,ü]\n".encode()
    session = RecognitionSession(g)
    positions = [session.feed(b)._last for b in data]
    assert session.accepts() and len(positions) == 16
    inside = [pos for pos, b in zip(positions, data[1:]) if b & 0xC0 == 0x80]
    assert len(inside) == 6
    assert all(pos.scans and not pos.wait and not pos.pred and not pos.leo for pos in inside)
    assert len({id(pos.wait) for pos in inside}) == len({id(pos.leo) for pos in inside}) == 1
    empty = g._reduced._chart.empty
    assert inside[0].wait is empty.wait and inside[0].leo is empty.leo


def test_threads_sharing_a_fresh_grammar_build_its_scanner_alike():
    # the tables, scan states and stacks are built on first use; threads that
    # race to build them must each read a whole, consistent one
    docs = [_doc(random.Random(seed), 300) for seed in range(4)]
    cases = [(_doc_grammar, [*docs, *(d[:-1] + b"]" for d in docs), *(d[:150] for d in docs)]),
             (lambda: _left_corner_chain(150),
              [b"y" + b"x" * k for k in range(0, 160, 7)] + [b"z" + b"x" * k for k in (149, 150)])]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for grammar, inputs in cases * 2:
            want = [recognize(grammar(), w) for w in inputs]
            g, got = grammar(), [None] * 8

            def run(i):
                got[i] = [recognize(g, w) for w in inputs[i:] + inputs[:i]]

            threads = [threading.Thread(target=run, args=(i,)) for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert got == [want[i:] + want[:i] for i in range(8)]
    finally:
        sys.setswitchinterval(interval)


def test_expected_and_died_at_inside_a_word():
    g = _doc_grammar()
    session = RecognitionSession(g).feed(0x5B).feed(0x61).feed(0xC3)  # "[a" and half an é
    assert session.expected() == {0xA9, 0xBC, 0x9F}  # é, ü, ß
    assert session.feed(0x61).died_at == 3
    session = RecognitionSession(g).feed(0x5B).feed(0x61)
    assert session.expected() == set(b"abcxy,]\xc3\xe4\xe5")  # more letters, or after the word
    assert not session.accepts() and session.feed(0x5D).feed(0x0A).accepts()


def test_positions_hold_no_reference_cycles():
    # reference counting alone frees every position a session, its clones
    # and its masks made, words under way and their templates included
    for g, data in [(dyck_grammar(), b"[[][[]]]" * 40),
                    (_grammar('S -> W "a" | "b" S "b" ; W -> "a" W | "a" ;'),
                     b"b" * 30 + b"a" * 40 + b"b" * 30),
                    (_doc_grammar(), _doc(random.Random(6), 1024))]:
        tokenizer = train([data], 20)
        assert recognize(g, data)  # builds the grammar's cached tables first
        TokenRecognizer(g, tokenizer).open_session().allowed_next_tokens()
        gc.collect()
        enabled = gc.isenabled()
        gc.disable()
        try:
            session = TokenRecognizer(g, tokenizer).open_session()
            for tid in tokenizer.tokenize(data):
                session.clone().allowed_next_tokens()
                session.feed(tid)
            assert session.accepts()
            del session
            assert gc.collect() == 0
        finally:
            if enabled:
                gc.enable()


# A copy of the grammar of the validate_docs benchmark: lines of bracketed
# lists of words, whose characters take one to three UTF-8 bytes.
_DOC_GRAMMAR = r"""
Doc -> "" | Line Doc ;
Line -> Value "\n" ;
Value -> Word | "[" Elems "]" ;
Elems -> "" | Value More ;
More -> "" | "," Value More ;
Word -> Ch | Ch Word ;
Ch -> "a" | "b" | "c" | "x" | "y" | "é" | "ü" | "ß" | "你" | "好" ;
"""


def _doc_grammar() -> Grammar:
    return encode_grammar(UTF8, reduce_grammar(parse_grammar(_DOC_GRAMMAR)))


def _doc(rng: random.Random, n: int) -> bytes:
    """A member of _DOC_GRAMMAR of at least *n* bytes."""
    def value(depth):
        if depth == 3 or rng.random() < 0.5:
            return "".join(rng.choices("abcxyéüß你好", k=rng.randint(1, 5)))
        return "[" + ",".join(value(depth + 1) for _ in range(rng.randrange(4))) + "]"

    out = b""
    while len(out) < n:
        out += (value(0) + "\n").encode()
    return out


def test_prediction_tables_are_shared_and_built_on_demand():
    g = _doc_grammar()
    data = _doc(random.Random(1), 2048)
    session = RecognitionSession(g)
    tables = [session._last.pred]
    for b in data:
        tables.append(session.feed(b)._last.pred)
    assert session.accepts()
    # every position points at a cached table of the grammar the chart runs
    # on, and every cached table is used
    chart = g._reduced._chart
    assert {id(t) for t in tables} == {id(t) for t in chart.values()}
    assert len(chart) <= 8  # for 2,116 positions


def test_kernel_items_alone_are_stored_in_wait(monkeypatch):
    # a predicted item (a bare id, no origin) lives only in the shared tables
    stored = []
    close = toklang.grammar._close

    def counted(g, pos, seeds):
        kernel = close(g, pos, seeds)
        stored.extend(o for items in pos.wait.values() for _, o in items)
        return kernel

    monkeypatch.setattr(toklang.grammar, "_close", counted)
    cases = [(dyck_grammar(), b"[[][[]]]" * 20), (dyck_letters_grammar(), b"[a[b]ab]" * 20),
             (_grammar('S -> A A "b" S | "" ; A -> "" | "a" ;'), b"aabb" * 20),
             (_grammar('S -> S "a" | "a" S | "" ;'), b"a" * 40),
             (_doc_grammar(), _doc(random.Random(2), 512))]
    for g, data in cases:
        assert recognize(g, data)
        assert not g._reduced._chart.initial.wait
    assert len(stored) > 1000
    assert stored.count(None) == 0


def _positions_behind(*lasts) -> list:
    """Every chart position reachable from *lasts* through the origins of
    kernel items (a Leo item's origin is one of them)."""
    found = set(lasts)
    stack = list(lasts)
    while stack:
        for items in stack.pop().wait.values():
            for _, origin in items:
                if origin not in found:
                    found.add(origin)
                    stack.append(origin)
    return sorted(found, key=lambda pos: pos.index)


def _state(pos) -> tuple:
    return (pos.index, {sym: tuple(items) for sym, items in pos.wait.items()}, id(pos.pred),
            pos.accepting, dict(pos.leo))


def _reduction_path_top(chart, pos, head: str):
    """The topmost item of the deterministic reduction path that completing
    *head* into *pos* starts, walked step by step, or None: each step needs
    exactly one item at the position waiting on the head, a kernel item (no
    predicted one waits on it), with the head as the last symbol of its
    body."""
    syms, heads = chart.syms, chart.heads
    top = None
    while len(pos.wait.get(head, ())) == 1 and head not in pos.pred:
        [(lr, origin)] = pos.wait[head]
        if syms[lr + 1] is not None:
            break
        top = (lr + 1, origin)
        pos, head = origin, heads[lr]
    return top


@pytest.mark.parametrize("g, tokenizer, prefix, more", [
    (dyck_grammar(), letter_bracket_tokenizer(), b"[[][[]][" * 6, b"[]]][[]]" * 4),
    (_doc_grammar(), train([_doc(random.Random(3), 1024)], 40),
     _doc(random.Random(4), 300), _doc(random.Random(5), 100)),
], ids=["dyck", "doc"])
def test_positions_never_change_once_built(g, tokenizer, prefix, more):
    # masks and clones fed further share the positions of a session; none of
    # them writes to a position, and the Leo items each holds are those of
    # its deterministic reduction paths
    session = TokenRecognizer(g, tokenizer).open_session()
    for tid in tokenizer.tokenize(prefix):
        session.feed(tid)
    positions = _positions_behind(session.inner._last, g._reduced._chart.initial)
    before = [_state(pos) for pos in positions]

    assert TokenRecognizer(g, tokenizer).open_session().allowed_next_tokens()
    allowed = session.allowed_next_tokens()
    assert allowed
    clones = [session.clone().feed(tid) for tid in sorted(allowed)]
    ahead = session.clone()
    for tid in tokenizer.tokenize(more):
        ahead.feed(tid)
    assert ahead.live and all(clone.live for clone in clones)
    assert [clone.allowed_next_tokens() for clone in clones]

    assert [_state(pos) for pos in positions] == before
    lasts = [s.inner._last for s in [session, ahead, *clones]]
    reached = _positions_behind(*lasts)
    assert sum(len(pos.leo) for pos in reached) > 10
    chart = g._reduced._chart  # whose item ids the positions hold
    for pos in reached:
        assert pos.leo == {head: top for head in g.nonterminals
                           if (top := _reduction_path_top(chart, pos, head)) is not None}


# --- sessions ----------------------------------------------------------------


def test_fresh_session_state(dyck):
    s = RecognitionSession(dyck)
    assert s.live and s.accepts() and s.consumed == 0


def test_one_chart_per_grammar_and_one_position_0(monkeypatch, brackets):
    # an unreduced grammar: its reduced form builds the one chart, and
    # sessions, clones, masks and recognize all start from its position 0
    built = []
    build = toklang.grammar._Chart.__init__

    def counted(chart, g):
        built.append(g)
        build(chart, g)

    monkeypatch.setattr(toklang.grammar._Chart, "__init__", counted)
    g = parse_grammar('S -> "[" S "]" S | "" ; B -> "b" ;', "byte")
    initial = g._reduced._chart.initial
    assert RecognitionSession(g)._last is initial
    assert RecognitionSession(g).feed(0x5B).clone()._last is not initial
    assert RecognitionSession(g).clone()._last is initial
    assert TokenRecognizer(g, brackets).open_session().allowed_next_tokens()
    lasts = []
    advance = toklang.grammar._advance

    def recorded(chart, last, terminal):
        lasts.append(last)
        return advance(chart, last, terminal)

    monkeypatch.setattr(toklang.grammar, "_advance", recorded)
    assert recognize(g, b"[]") and recognize(g, b"[[]]")
    assert lasts[0] is lasts[2] is initial
    assert built == [g._reduced]


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


def test_expected_terminals(dyck):
    s = RecognitionSession(dyck)
    assert s.expected() == {0x5B}
    assert s.feed(0x5B).expected() == {0x5B, 0x5D}
    dead = RecognitionSession(dyck).feed(0x5D).feed(0x5B)
    assert dead.died_at == 0 and dead.expected() == {0x5B}
    empty = RecognitionSession(reduce_grammar(parse_grammar("S -> S ;", "byte")))
    assert empty.expected() == frozenset()


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
def unreduced_small_grammars(draw):
    """Byte grammars: up to 3 nonterminals, bodies of up to 3 symbols over a,
    b and the nonterminals, epsilon allowed."""
    names = _NAMES[:draw(st.integers(1, 3))]
    symbol = st.sampled_from((_A, _B) + names)
    rules = draw(st.lists(
        st.builds(Production, st.sampled_from(names), st.lists(symbol, max_size=3).map(tuple)),
        min_size=1, max_size=7))
    return Grammar(frozenset(names), "byte", tuple(rules), "S")


def small_grammars():
    """The same grammars, reduced."""
    return unreduced_small_grammars().map(reduce_grammar)


@settings(max_examples=300)
@given(unreduced_small_grammars())
def test_deriving_matches_the_fixpoint(g):
    for terminals in (True, False):
        assert (toklang.grammar._deriving(g.productions, terminals)
                == deriving_by_fixpoint(g.productions, terminals))


def test_terminal_classes_take_space_linear_in_the_body():
    # contexts keyed by body slices, two copies of the body per terminal,
    # peaked at 129 MB here
    g = parse_grammar('S -> "' + "ab" * 2000 + '" ;', "byte")
    tracemalloc.start()
    try:
        assert recognize(g, b"ab" * 2000) and not recognize(g, b"ab" * 1999 + b"aa")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16_000_000


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
@example(_grammar('S -> "a" S | "" ;'))         # the accept sits on a Leo top at origin 0
@example(_grammar('S -> A ; A -> "a" A | B ; B -> "b" B | "" ;'))  # chained right recursion
@example(_grammar('S -> "a" S | "b" S | "" ;'))  # one terminal class, ab
# leaves, scanned rather than predicted into: W overlaps the "a" after it
@example(_grammar('S -> W "a" ; W -> "a" W | "a" ;'))
@example(_grammar('S -> W "a" | "b" S "b" ; W -> "a" W | "a" ;'))
@example(_grammar('S -> "b" W S "b" | "" ; W -> "a" W | "" ;'))  # a nullable leaf
@example(_grammar('S -> "a" S | "b" "a" S | "b" ;'))             # the start is a leaf
@example(_grammar('S -> "b" S "b" | A B ; A -> "a" A | "a" ; B -> "b" B | "" ;'))  # in a row
@example(_grammar('S -> "b" S "b" | A ; A -> "a" B ; B -> "b" A | "a" ;'))  # one calling another
@example(_grammar('S -> W S | "b" S "b" | "" ; W -> "a" W | "a" ;'))  # two words end at once
def test_chart_matches_oracles_on_generated_grammars(g):
    members = strings_up_to(g, 5)
    viable = prefixes_of(members_cut_at(g, 5))
    # the chart runs on the chart grammar, fed the class of each terminal
    chart = g._reduced._chart
    heads = [head for head, _ in chart.grammar.productions]

    def outside_leaves(sets):
        # a position holds no item of a leaf's rules: the words of the
        # leaves are scanned, so only the other items compare
        return {sym: kept for sym, items in sets.items()
                if (kept := {item for item in items if heads[item[0]] not in chart.leaves})}

    def step(ref, t, consumed):
        # a reference walk is its last position and died_at, as in a session
        last, died = ref
        if died is not None:
            return ref
        nxt = advance(chart.grammar, last, chart.of.get(t, t))
        return (last, consumed) if nxt is None else (nxt, None)

    def check_reference(session, ref):
        # the reference chart: the same verdicts and the same items
        ref_last, ref_died = ref
        assert session.live == (ref_died is None)
        assert session.died_at == ref_died
        assert session.accepts() == (ref_died is None and ref_last.accepting)
        assert session.expected() == {t for k in ref_last.wait if isinstance(k, int)
                                      for t in chart.members[k]}
        assert session._last.accepting == ref_last.accepting
        assert (outside_leaves(wait_sets(session._last, chart))
                == outside_leaves(wait_sets(ref_last)))

    def check(prefix, session):
        # the first cut of the prefix that is not viable: died_at is the byte
        # that ended it, or 0 for an empty language, where () is not viable
        cut = next((i for i in range(len(prefix) + 1) if prefix[:i] not in viable), None)
        assert session.consumed == len(prefix)
        assert session.live == (prefix in viable)
        assert session.died_at == (None if cut is None else max(cut - 1, 0))
        assert session.accepts() == (prefix in members) == recognize(g, prefix)
        # expected(): the terminals after the last live prefix that stay viable
        live = prefix if session.live else prefix[:session.died_at]
        if len(live) < 5:
            assert session.expected() == {t for t in (_A, _B) if live + (t,) in viable}
        # no position refers to itself: wait holds kernel items, each with an
        # earlier origin, and the predicted items sit in the shared table as
        # bare item ids, with no origin
        last = session._last
        assert all(o is not None and o.index < last.index
                   for items in last.wait.values() for _, o in items)
        assert all(type(lr) is int for ids in last.pred.values() for lr in ids)

    def walk(prefix, session, ref):
        check(prefix, session)
        check_reference(session, ref)
        if len(prefix) < 5:
            for t in (_A, _B):
                walk(prefix + (t,), session.clone().feed(t), step(ref, t, len(prefix)))
            check(prefix, session)  # its clones took other suffixes; it did not move
            check_reference(session, ref)

    walk((), RecognitionSession(g),
         (initial_position(chart.grammar), 0 if g.is_empty_language else None))


# a word's bytes fed as a run
_RUN_DOC = _doc_grammar()
# W's last "a" may be X's first, so where a word of W ends, one of X starts
_RUN_WORDS = _grammar('S -> "[" S "]" | W X ; W -> "a" W | "a" ; X -> "a" X | "b" X | "b" ;')
_DOC_PIECES = [b"a", b"b", "é".encode(), "你".encode(), b"[", b"]", b",", b"\n",
               b"\xc3", b"\xe4\xbd", b"z"]  # half characters, and a byte no rule takes
_RUN_TOKENIZER = Tokenizer(tuple(bytes([b]) for b in range(256)) + (
    b"aa", b"ab", b"ba", b"aaa", "é".encode(), "你".encode(), b"a\xc3", b"\xa9a", b"a,", b"]\n"))


@st.composite
def _grammars_and_inputs(draw):
    """A small grammar over a and b, the document grammar or the one above,
    and bytes to feed it: for the document grammar, pieces of members with
    cut characters and a foreign byte among them."""
    kind = draw(st.sampled_from(["small", "doc", "words"]))
    if kind == "small":
        return draw(small_grammars()), bytes(draw(st.lists(st.sampled_from((_A, _B)), max_size=8)))
    if kind == "doc":
        return _RUN_DOC, b"".join(draw(st.lists(st.sampled_from(_DOC_PIECES), max_size=10)))
    return _RUN_WORDS, bytes(draw(st.lists(st.sampled_from(b"[]ab"), max_size=10)))


def _by_index(chart, pos) -> tuple:
    """A position with each origin read as its index, the scan states by
    identity: what two walks of one chart compare."""
    return (pos.index, wait_sets(pos, chart), id(pos.pred), pos.accepting,
            {head: (lr, o.index) for head, (lr, o) in pos.leo.items()},
            [(id(state), base.index) for state, base, _ in pos.scans])


@settings(max_examples=300, deadline=None)
@given(_grammars_and_inputs())
@example((_RUN_DOC, "[aé你,b]\n".encode()))
@example((_RUN_DOC, b"[abz"))              # a death inside a word
@example((_RUN_DOC, b"[a\xc3a"))          # and inside a character
@example((_RUN_DOC, "[你好]\nab\n".encode()))
@example((_RUN_WORDS, b"[[aaab]]"))
@example((_RUN_WORDS, b"[aaaa]"))          # the end of input inside two words
# where W ends inside a run, the chart waits on or predicts a class W takes
@example((_grammar('S -> W "a" "c" | "c" S "c" ; W -> "a" W | "b" W | "a" ;'), b"abaac"))
@example((_grammar('S -> W B ; W -> "a" W | "b" W | "a" ; B -> "a" B "c" | "c" ;'), b"abaacc"))
def test_a_word_fed_as_a_run_equals_the_chart_byte_by_byte(case):
    # at every prefix, one call, a call per byte, _advance per byte and the
    # reference chart agree; so does the mask after one call
    g, data = case
    chart = g._reduced._chart
    stepped, pos = RecognitionSession(g), chart.initial
    ref, died = initial_position(chart.grammar), 0 if g.is_empty_language else None
    for k in range(len(data) + 1):
        whole = RecognitionSession(g)._feed_checked(data[:k])
        verdicts = (whole.live, whole.died_at, whole.accepts(), whole.expected())
        assert verdicts == (stepped.live, stepped.died_at, stepped.accepts(), stepped.expected())
        assert verdicts == (died is None, died, died is None and ref.accepting,
                            {t for c in ref.wait if isinstance(c, int) for t in chart.members[c]})
        assert _by_index(chart, whole._last) == _by_index(chart, stepped._last) \
            == _by_index(chart, pos)
        if k < len(data):
            stepped.feed(data[k])
            if died is None:
                c = chart.of.get(data[k], data[k])
                nxt, ref_nxt = toklang.grammar._advance(chart, pos, c), advance(chart.grammar, ref, c)
                assert (nxt is None) == (ref_nxt is None)
                if nxt is None:
                    died = k
                else:
                    pos, ref = nxt, ref_nxt
    session = TokenRecognizer(g, _RUN_TOKENIZER).open_session()
    session.inner._feed_checked(data if died is None else data[:died])
    clone = session.clone()
    assert session.live != g.is_empty_language
    assert clone.allowed_next_tokens() == allowed_by_trial(clone)


def test_a_line_of_words_takes_advances_by_words_not_bytes(monkeypatch):
    # a line of k words: _advance steps the brackets, commas and newline and
    # each word's first byte, 2k + 2 calls, however long the words are
    g, calls = _doc_grammar(), []
    advance = toklang.grammar._advance
    monkeypatch.setattr(toklang.grammar, "_advance",
                        lambda *args: calls.append(args[2]) or advance(*args))
    for k in (3, 30):
        for word in ("a", "aé你", "aé你" * 10):  # 1, 6 and 60 bytes
            line = ("[" + ",".join([word] * k) + "]\n").encode()
            calls.clear()
            assert recognize(g, line)
            assert len(calls) == 2 * k + 2, (k, word, len(calls))


@settings(max_examples=300)
@given(small_grammars())
@example(_grammar('S -> W S | "b" S "b" | "" ; W -> "a" W | "a" ;'))
@example(_grammar('S -> A | "a" ; A -> B | "b" ; B -> S ;'))    # a unit cycle is a leaf
@example(_grammar('S -> S "a" | "" ;'))                         # left recursion is not
def test_leaves_match_their_definition(g):
    # Tarjan's components, against every reach walked on its own; the chart
    # grammar's classes leave the nonterminals' occurrences as they are
    assert toklang.grammar._leaves(g) == leaves_by_reach(g) == g._chart.leaves


@settings(max_examples=200)
@given(unreduced_small_grammars(), st.lists(st.sampled_from((_A, _B)), max_size=8))
def test_recognize_matches_the_reference_chart(g, w):
    # the plain chart of tests/oracles.py, on the grammar as given: no
    # reduction, no terminal classes, no session
    pos = initial_position(g)
    for t in w:
        pos = pos and advance(g, pos, t)
    assert recognize(g, w) == (pos is not None and pos.accepting)


@settings(max_examples=200)
@given(small_grammars())
@example(_grammar('S -> "a" S | "b" S | "" ;'))  # one class, ab
@example(_grammar('S -> "a" "b" | "b" "a" ;'))   # symmetric under a swap, yet two classes
@example(_grammar('S -> "a" "a" | "b" "b" ;'))
def test_terminal_classes_are_interchangeable(g):
    # replacing one occurrence of a terminal in a member by another member
    # of its class gives a member, so the chart grammar decides membership
    members = strings_up_to(g, 5)
    chart = g._reduced._chart
    assert chart.of.keys() == g.terminals_used
    assert chart.of == terminal_classes_by_slices(g)
    for w in members:
        for i, t in enumerate(w):
            for u in chart.members[chart.of[t]]:
                assert w[:i] + (u,) + w[i + 1:] in members
    for w in all_strings((_A, _B), 5):
        assert recognize(g, w) == (w in members)
    assert reduce_grammar(chart.grammar) is chart.grammar
    assert strings_up_to(chart.grammar, 5) == {tuple(chart.of[t] for t in w) for w in members}


def _retained_bytes(g, data: bytes, collect: bool = True) -> int:
    """Memory still held by a session after it was fed *data*; with *collect*
    false the cycle collector stays off, so only reference counting frees."""
    gc.collect()
    enabled = gc.isenabled()
    if not collect:
        gc.disable()
    tracemalloc.start()
    try:
        session = RecognitionSession(g)
        for b in data:
            session.feed(b)
        if collect:
            gc.collect()
        return tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
        if enabled:
            gc.enable()


def test_session_frees_positions_of_closed_groups():
    # 40 more closed groups hold no more memory when each is 60 bytes wide
    # than when it is empty.  Each side is a difference of two runs with
    # groups of one width, so what CPython's free lists keep cancels out: it
    # grows with the widest group, not with the number of groups
    g = dyck_letters_grammar()
    assert recognize(g, b"[a]")  # builds the grammar's cached tables first
    for collect in (True, False):
        def forty_more(width: int) -> int:
            group = b"[" + b"a" * width + b"]"
            return (_retained_bytes(g, group * 80, collect)
                    - _retained_bytes(g, group * 40, collect))

        wide, flat = forty_more(60), forty_more(0)
        assert wide <= 2 * flat, (collect, wide, flat)


# --- sampling ----------------------------------------------------------------


def test_sample_outputs_are_members(dyck):
    # on both alphabets, and through the scanner of a leaf
    leaf = _grammar('S -> "[" S "]" | W ; W -> "a" W | "a" ;')
    for g in (dyck, unicode_mix_grammar(), leaf):
        members = [w for seed in range(20) if (w := sample(g, 80, seed)) is not None]
        assert len(members) > 10 and all(recognize(g, w) for w in members)
    assert leaf._reduced._chart.leaves == {"W"}


def test_sample_unique_string_grammar():
    g = reduce_grammar(parse_grammar('S -> "ab" ;'))
    assert sample(g, 10, 0) == "ab"
    assert sample(g, 10, 12345) == "ab"


def test_sample_empty_language_returns_none():
    g = reduce_grammar(parse_grammar("S -> S ;"))
    assert sample(g, 100, 0) is None


@pytest.mark.parametrize("budget", [True, False, 1.0, "1", -1])
def test_sample_refuses_a_budget_that_is_no_int_or_negative(dyck, budget):
    with pytest.raises(GrammarError, match="max_expansions must be an int >= 0"):
        sample(dyck, budget, 0)


def test_sample_budget_exhaustion_returns_none():
    g = reduce_grammar(parse_grammar('S -> "[" S "]" S | "" ;'))
    assert sample(g, 0, 0) is None


def test_sample_fits_a_grammar_whose_productions_open_two_nonterminals():
    # a uniform choice among the 27 productions opens two more 26 times in
    # 27, so it returned None in 188 of these 200 draws and b"" in the rest
    alts = "".join(f' | "{c}" S "{c.upper()}" S' for c in "abcdefghijklmnopqrstuvwxyz")
    g = parse_grammar(f'S -> ""{alts} ;', "byte")
    rng = random.Random(7)
    draws = [sample(g, 40, rng) for _ in range(200)]
    assert all(w is not None and recognize(g, w) for w in draws)
    assert sum(len(w) > 20 for w in draws) > 100


@settings(max_examples=200)
@given(unreduced_small_grammars(), st.integers(0, 12), st.integers(0, 2 ** 32))
@example(_grammar('S -> "a" S S | "" ;'), 7, 3)
@example(_grammar('S -> A ; A -> "a" ;'), 1, 0)
def test_sample_draws_a_member_whenever_the_budget_fits(g, budget, seed):
    # a member whenever the budget covers the start's least derivation, and
    # where the uniform choice alone ended within the budget, the same
    # member from the same random numbers
    least = g._reduced._least.get(g.start)
    rng, uniform_rng = random.Random(seed), random.Random(seed)
    w = sample(g, budget, rng)
    assert (w is not None) == (least is not None and least <= budget)
    assert w is None or recognize(g, w)
    uniform = sample_by_uniform_choice(g, budget, uniform_rng)
    if uniform is not None:
        assert w == uniform and rng.getstate() == uniform_rng.getstate()


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
    # not printable and above U+00FF, so no \xHH escape can spell them
    ('S -> "a\u200bb" ;', "unicode"),
    ('S -> "\u2028" | "" ;', "unicode"),
])
def test_format_parse_round_trip(text, alphabet):
    g = parse_grammar(text, alphabet)
    back = parse_grammar(format_grammar(g), alphabet)
    assert set(back.productions) == set(g.productions)
    assert back.start == g.start
    assert back.alphabet == g.alphabet


@pytest.mark.parametrize("g", [
    Grammar(frozenset({"S", "A"}), "unicode", (Production("A", (0x61,)),), "S"),
    reduce_grammar(parse_grammar("S -> S ;")),
], ids=["start-without-rules", "no-rules"])
def test_format_writes_a_start_without_rules_as_deriving_nothing(g):
    # skipping the start would read back with another start and language
    text = format_grammar(g)
    assert text.startswith("S -> S ;\n")
    assert reduce_grammar(parse_grammar(text, g.alphabet)) == reduce_grammar(g)


@settings(max_examples=300)
@given(unreduced_small_grammars())
def test_format_reads_back_with_the_same_reduced_form(g):
    # start and body names without rules included; productions may come back reordered
    back, want = reduce_grammar(parse_grammar(format_grammar(g), "byte")), reduce_grammar(g)
    assert (back.start, back.nonterminals, set(back.productions)) == \
        (want.start, want.nonterminals, set(want.productions))
