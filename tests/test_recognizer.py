import itertools
import random
import string

import pytest
from hypothesis import given, settings, strategies as st

import toklang.grammar
import toklang.recognizer

from toklang import (
    Grammar,
    GrammarError,
    Kind,
    Production,
    RecognitionSession,
    TokenRecognizer,
    Tokenizer,
    TokenizerError,
    classify,
    parse_grammar,
    recognize,
    reduce_grammar,
    relevant_token_ids,
    sample,
    train,
)
from toklang.toys import (
    aab_tokenizer,
    bracket_tokenizer,
    dyck_grammar,
    dyck_letters_grammar,
    letter_bracket_tokenizer,
)

from oracles import (
    accepts_proper_by_retokenize,
    allowed_by_trial,
    members_cut_at,
    prefixes_of,
    strings_up_to,
)
from test_grammar import (
    _doc,
    _doc_grammar,
    kernel_items,
    small_grammars,
    unreduced_small_grammars,
)

toy_ids = st.lists(st.sampled_from([1, 2, 3, 4, 5]), max_size=6)


@pytest.fixture(scope="module")
def rec():
    return TokenRecognizer(dyck_grammar(), bracket_tokenizer())


def streamed(rec: TokenRecognizer, ids) -> bool:
    """Whether a session fed *ids* token by token, until it dies, accepts."""
    session = rec.open_session()
    for tid in ids:
        if not session.feed(tid).live:
            break
    return session.accepts()


# --- construction ---------------------------------------------------------------


def test_build_rejects_unicode_grammar(brackets):
    g = reduce_grammar(parse_grammar('S -> "[]" ;', "unicode"))
    with pytest.raises(GrammarError, match="byte-alphabet"):
        TokenRecognizer(g, brackets)


def test_build_takes_an_unreduced_grammar(brackets):
    r = TokenRecognizer(parse_grammar('S -> "[]" ;', "byte"), brackets)
    assert r.accepts_tokens([3]) and r.accepts_tokens([1, 2]) and r.accepts_proper([3])
    assert not r.accepts_tokens([1]) and not r.accepts_proper([1, 2])
    assert r.open_session().allowed_next_tokens() == {1, 3}


def test_build_rejects_non_byte_base_tokenizer(dyck):
    with pytest.raises(TokenizerError, match="byte-base"):
        TokenRecognizer(dyck, aab_tokenizer())


def test_build_empty_language(brackets):
    g = reduce_grammar(parse_grammar("S -> S ;", "byte"))
    r = TokenRecognizer(g, brackets)
    assert not r.accepts_tokens([])
    assert not r.accepts_tokens([3])
    assert r.open_session().allowed_next_tokens() == set()


# --- feeding --------------------------------------------------------------------


def test_feed_token_examples(rec):
    s = rec.open_session()
    s.feed(3)  # "[]"
    assert s.live and s.accepts() and s.tokens_consumed == 1

    s = rec.open_session().feed(2)  # "]"
    assert not s.live and s.died_at == 0

    s = rec.open_session().feed(4)  # "[["
    assert s.live and not s.accepts()


def test_feed_tracks_detokenized_bytes(rec):
    s = rec.open_session()
    s.feed(4).feed(3).feed(5)  # "[[" + "[]" + "]]"
    assert s.inner.consumed == 6
    assert s.tokens_consumed == 3
    assert s.accepts()


def test_a_token_drains_its_bytes_in_one_call(monkeypatch):
    # the bytes of a token are checked once, with the tokenizer: no byte
    # of it passes through RecognitionSession.feed or its terminal check
    calls = {"feed": 0, "_valid_terminal": 0}
    feed, valid = toklang.grammar.RecognitionSession.feed, toklang.grammar._valid_terminal

    def counted_feed(session, terminal):
        calls["feed"] += 1
        return feed(session, terminal)

    def counted_valid(terminal, alphabet):
        calls["_valid_terminal"] += 1
        return valid(terminal, alphabet)

    vocab = tuple(bytes([b]) for b in range(256)) + (b"[[][]]",)
    session = TokenRecognizer(dyck_grammar(), Tokenizer(vocab)).open_session()
    monkeypatch.setattr(toklang.grammar.RecognitionSession, "feed", counted_feed)
    monkeypatch.setattr(toklang.grammar, "_valid_terminal", counted_valid)
    session.feed(256)
    assert calls == {"feed": 0, "_valid_terminal": 0}
    assert session.accepts() and session.inner.consumed == 6


_DEATH_BYTES = 6  # the longest detokenized prefix the death test walks


@settings(max_examples=150)
@given(st.data())
def test_a_token_session_dies_where_its_bytes_stop_being_viable(data):
    """At every token prefix, the byte offset of the death is the first
    byte whose prefix is not viable, inside a token too, and the session
    agrees with a byte session fed the same bytes one at a time."""
    rec = data.draw(grammars_with_vocab())
    vocab = rec.tokenizer.vocab
    # the tokens over the grammar's terminals, the longer ones, and one byte
    # outside them; a long token's prefix may be viable and it not
    candidates = sorted({*relevant_token_ids(rec), *range(256, len(vocab)), _OUTSIDE})
    viable = prefixes_of(members_cut_at(rec.grammar, _DEATH_BYTES))
    session, by_byte, prefix = rec.open_session(), RecognitionSession(rec.grammar), b""
    for k in range(data.draw(st.integers(0, 4))):
        options = [t for t in candidates if len(prefix) + len(vocab[t]) <= _DEATH_BYTES]
        if not options:
            break
        tid = data.draw(st.sampled_from(options))
        session.feed(tid)
        for b in vocab[tid]:
            by_byte.feed(b)
        prefix += vocab[tid]
        cut = next((i for i in range(len(prefix) + 1) if tuple(prefix[:i]) not in viable),
                   None)
        # the byte that ended the last viable prefix, or 0 for an empty language
        assert session.died_at == (None if cut is None else max(cut - 1, 0))
        assert session.died_at == by_byte.died_at
        assert (session.live, session.accepts(), session.inner.consumed) == (
            by_byte.live, by_byte.accepts(), by_byte.consumed)
        assert session.inner.consumed == len(prefix) and session.tokens_consumed == k + 1


def test_feed_unknown_id(rec):
    with pytest.raises(TokenizerError):
        rec.open_session().feed(999)


def test_feed_splits_multibyte_characters():
    # a token may cover only part of a UTF-8 character; bytes are bytes
    from toklang import UTF8, Tokenizer, encode_grammar
    g = encode_grammar(UTF8, reduce_grammar(parse_grammar('S -> "你" ;', "unicode")))
    vocab = [bytes([b]) for b in range(256)] + [b"\xe4\xbd"]
    t = TokenRecognizer(g, Tokenizer(tuple(vocab), ((0xE4, 0xBD, 256),)))
    assert t.accepts_tokens([256, 0xA0])
    assert not t.accepts_tokens([256])
    assert t.accepts_proper(t.tokenizer.tokenize("你".encode()))


# --- acceptance -------------------------------------------------------------------


def test_accepts_tokens_examples(rec):
    assert rec.accepts_tokens([4, 5])       # "[[]]"
    assert rec.accepts_tokens([3])
    assert not rec.accepts_tokens([1])
    assert rec.accepts_tokens([])           # epsilon is a member


def test_accepts_tokens_validates_all_ids_first(rec):
    with pytest.raises(TokenizerError):
        rec.accepts_tokens([2, 999])  # prefix already dead, id still checked


def test_accepts_tokens_checks_ids_once(rec, monkeypatch):
    # one check of the whole list, and no id checked again on its own: a
    # list that passes calls no check_id, and one that fails walks its ids
    # once, up to the first bad one
    lists, ids = [], []
    check_ids, check_id = Tokenizer.check_ids, Tokenizer.check_id

    def counted_ids(self, seq):
        lists.append(list(seq))
        return check_ids(self, lists[-1])

    def counted_id(self, t):
        ids.append(t)
        return check_id(self, t)

    monkeypatch.setattr(Tokenizer, "check_ids", counted_ids)
    monkeypatch.setattr(Tokenizer, "check_id", counted_id)
    assert rec.accepts_tokens([4, 5])
    assert lists == [[4, 5]] and ids == []
    lists.clear()
    with pytest.raises(TokenizerError):
        rec.accepts_tokens([2, 999, 3])
    assert lists == [[2, 999, 3]] and ids == [2, 999]


@pytest.mark.parametrize("entry", [
    lambda r: r.accepts_tokens([True, 2]),
    lambda r: r.accepts_proper([True, 2]),
    lambda r: r.open_session().feed(True),
], ids=["accepts_tokens", "accepts_proper", "feed"])
def test_bool_is_not_a_token_id(rec, entry):
    # True would read as id 1, "[", and [1, 2] is the member "[]"
    with pytest.raises(TokenizerError, match="unknown token id True"):
        entry(rec)


def test_accepts_proper_checks_ids_once(rec, monkeypatch):
    calls = []
    check_ids = Tokenizer.check_ids

    def counted(self, ids):
        calls.append(ids)
        return check_ids(self, ids)

    monkeypatch.setattr(Tokenizer, "check_ids", counted)
    # proper member, improper member, non-member, empty
    for ids in ([3, 3], [1, 3, 2], [1], []):
        calls.clear()
        rec.accepts_proper(ids)
        assert len(calls) == 1, ids
    with pytest.raises(TokenizerError):
        rec.accepts_proper([2, 999])  # prefix already dead, id still checked


def test_accepts_proper_examples(rec):
    assert rec.accepts_proper(rec.tokenizer.tokenize(b"[[]]"))
    assert rec.accepts_tokens([1, 3, 2]) and not rec.accepts_proper([1, 3, 2])
    assert not rec.accepts_proper([1])


@given(toy_ids)
def test_proper_implies_extended(ids):
    r = TokenRecognizer(dyck_grammar(), bracket_tokenizer())
    if r.accepts_proper(ids):
        assert r.accepts_tokens(ids)


@given(toy_ids)
def test_proper_is_extended_and_classified_proper(ids):
    r = TokenRecognizer(dyck_grammar(), bracket_tokenizer())
    assert r.accepts_proper(ids) == (
        r.accepts_tokens(ids) and classify(r.tokenizer, ids).kind is Kind.PROPER)


_TOY_RECOGNIZERS = {  # name: (recognizer, the bytes of its grammar)
    "brackets": (TokenRecognizer(dyck_grammar(), bracket_tokenizer()), b"[]"),
    "letter-brackets": (TokenRecognizer(dyck_letters_grammar(), letter_bracket_tokenizer()),
                        b"[]ab"),
}


@pytest.mark.parametrize("name", list(_TOY_RECOGNIZERS))
@settings(max_examples=300)
@given(data=st.data())
def test_accepts_proper_matches_the_retokenize_oracle(name, data):
    r, alphabet = _TOY_RECOGNIZERS[name]
    # any sequence of grammar tokens, or the proper tokenization of a string
    ids = data.draw(st.one_of(
        st.lists(st.sampled_from(relevant_token_ids(r)), max_size=8),
        st.lists(st.sampled_from(alphabet), max_size=12).map(
            lambda s: r.tokenizer.tokenize(bytes(s)))))
    assert r.accepts_proper(ids) == accepts_proper_by_retokenize(r, ids)


def test_accepts_proper_retokenizes_before_the_chart(rec, monkeypatch):
    steps = []
    advance = toklang.grammar._advance

    def counted(g, last, terminal):
        steps.append(terminal)
        return advance(g, last, terminal)

    monkeypatch.setattr(toklang.grammar, "_advance", counted)
    assert not rec.accepts_proper([1, 3, 2])  # "[[]]", tokenized as [4, 5]
    assert steps == []
    assert rec.accepts_proper([4, 5])
    assert steps == list(b"[[]]")


@given(toy_ids)
def test_streaming_matches_batch(ids):
    r = TokenRecognizer(dyck_grammar(), bracket_tokenizer())
    s = r.open_session()
    for t in ids:
        s.feed(t)
    assert s.accepts() == r.accepts_tokens(ids)


@given(toy_ids)
def test_accepts_tokens_equals_character_oracle(ids):
    r = TokenRecognizer(dyck_grammar(), bracket_tokenizer())
    assert r.accepts_tokens(ids) == recognize(
        r.grammar, r.tokenizer.detokenize(ids)) == streamed(r, ids)


def test_exhaustive_oracle_agreement_short(rec):
    for n in range(4):
        for seq in itertools.product([1, 2, 3, 4, 5], repeat=n):
            assert rec.accepts_tokens(seq) == recognize(
                rec.grammar, rec.tokenizer.detokenize(seq)) == streamed(rec, seq)


def test_membership_decidable_through_token_space(rec):
    members = strings_up_to(rec.grammar, 8)
    for n in range(9):
        for combo in itertools.product((0x5B, 0x5D), repeat=n):
            w = bytes(combo)
            assert rec.accepts_tokens(rec.tokenizer.tokenize(w)) == (combo in members)


# --- next-token sets ----------------------------------------------------------------


def test_allowed_next_tokens_fresh(rec):
    assert rec.open_session().allowed_next_tokens() == {1, 3, 4}


def test_allowed_next_tokens_after_open_bracket(rec):
    s = rec.open_session().feed(1)
    assert s.allowed_next_tokens() == {1, 2, 3, 4}


def test_allowed_next_tokens_dead_session(rec):
    assert rec.open_session().feed(2).allowed_next_tokens() == set()


def test_allowed_next_tokens_does_not_mutate_parent(rec):
    s = rec.open_session().feed(1)
    before = (s.tokens_consumed, s.inner.consumed, s.live)
    s.allowed_next_tokens()
    assert (s.tokens_consumed, s.inner.consumed, s.live) == before
    s.feed(2)
    assert s.accepts()


def test_allowed_next_tokens_equals_per_token_trials(rec):
    rng = random.Random(0)
    vocab_size = len(rec.tokenizer.vocab)
    for _ in range(30):
        s = rec.open_session()
        for _ in range(rng.randrange(6)):
            options = sorted(s.allowed_next_tokens())
            if not options:
                break
            s.feed(rng.choice(options))
        brute = {tid for tid in range(vocab_size) if s.clone().feed(tid).live}
        assert s.allowed_next_tokens() == brute


_WALK_BYTES = 3  # the longest prefix a walk reaches
_OUTSIDE = 0x63   # a byte no generated grammar uses


@st.composite
def grammars_with_vocab(draw):
    """A generated grammar and a byte-base tokenizer: the 256 single bytes plus
    1-12 tokens of 2-5 bytes over its terminals and one byte outside them,
    each with a prefix of at least 2 bytes that is a token too."""
    g = draw(small_grammars())
    alphabet = sorted(g.terminals_used | {_OUTSIDE})
    words = draw(st.lists(
        st.lists(st.sampled_from(alphabet), min_size=2, max_size=5).map(bytes),
        min_size=1, max_size=6))
    extra = [w[:draw(st.integers(2, len(w)))] for w in words] + words
    vocab = [bytes([b]) for b in range(256)] + list(dict.fromkeys(extra))
    return TokenRecognizer(g, Tokenizer(tuple(vocab)))


@settings(max_examples=150)
@given(grammars_with_vocab(), st.lists(st.integers(0, 2**16), max_size=6))
def test_allowed_next_tokens_matches_trials_and_viable_prefixes(rec, picks):
    vocab = rec.tokenizer.vocab
    cuts = {}

    def viable(data: bytes) -> bool:
        if len(data) not in cuts:
            cuts[len(data)] = members_cut_at(rec.grammar, len(data))
        return tuple(data) in cuts[len(data)]  # a cut of full length is a prefix

    def check(prefix: bytes, session):
        mask, trial = session.allowed_next_tokens(), allowed_by_trial(session)
        if session.live:  # the ids that the position's table allows alone are allowed here
            assert rec._masks[id(session.inner._last.pred)][0] <= trial
        assert mask == trial
        assert mask == {t for t, bs in enumerate(vocab) if viable(prefix + bs)}

    prefix, session = b"", rec.open_session()
    check(prefix, session)
    for pick in picks:
        options = [t for t in sorted(session.allowed_next_tokens())
                   if len(prefix) + len(vocab[t]) <= _WALK_BYTES]
        if not options:
            break
        tid = options[pick % len(options)]
        prefix += vocab[tid]
        check(prefix, session.feed(tid))
    dead = session.feed(_OUTSIDE)  # the single-byte token of a byte no grammar uses
    assert not dead.live
    assert dead.allowed_next_tokens() == allowed_by_trial(dead) == set()


def _mask_with_advances(monkeypatch, g, longer, prefix):
    """The mask of a session over the byte vocabulary plus *longer*, after
    the bytes of *prefix*, and the terminal of each chart advance it took."""
    vocab = [bytes([b]) for b in range(256)] + longer
    session = TokenRecognizer(g, Tokenizer(tuple(vocab))).open_session()
    for b in prefix:
        session.feed(b)
    steps = []
    advance = toklang.grammar._advance

    def counted(g, last, terminal):
        steps.append(terminal)
        return advance(g, last, terminal)

    monkeypatch.setattr(toklang.grammar, "_advance", counted)
    mask = session.allowed_next_tokens()
    monkeypatch.undo()
    assert mask == allowed_by_trial(session)
    return mask, bytes(steps)


def test_mask_advances_each_shared_prefix_once(monkeypatch):
    # "[" * k for k = 2..32: the trie has 31 internal nodes, "[" to "[" * 31
    mask, steps = _mask_with_advances(
        monkeypatch, dyck_grammar(), [b"[" * k for k in range(2, 33)], b"")
    assert steps == b"[" * 31  # trying each token's bytes took 783
    assert mask == {0x5B} | set(range(256, 287))


def test_mask_advances_a_byte_awaited_twice_once(monkeypatch):
    # after "a", "b" is awaited by the kernel item S -> "a" . "b" and by the
    # predicted item B -> . "b"; the node "b" is advanced once
    g = parse_grammar('S -> "a" "b" | "a" B ; B -> "b" ;', "byte")
    mask, steps = _mask_with_advances(monkeypatch, g, [b"bb"], b"a")
    assert steps == b"b"
    assert mask == {0x62}


def test_mask_advances_each_class_prefix_once(monkeypatch):
    # "a" and "b" are one class, so "ab" and "ba" share the class prefix
    # "aa" and "aab" and "bab" share "aaa": two advances, where walking the
    # bytes took four ("a", "b", "aa" and "ba")
    g = parse_grammar('S -> "a" S | "b" S | "" ;', "byte")
    mask, steps = _mask_with_advances(monkeypatch, g, [b"ab", b"ba", b"aab", b"bab"], b"")
    assert steps == b"aa"
    assert mask == {0x61, 0x62} | set(range(256, 260))


def _class_nodes_advanced(inner, trie) -> int:
    """How many nodes of the class *trie* a walk from the byte session
    *inner* advances: those with children whose class path keeps it live,
    found by feeding clones."""
    count, stack = 0, [(inner, trie)]
    while stack:
        inner, node = stack.pop()
        for c, (_, children) in node.items():
            if children:
                nxt = inner.clone().feed(c)
                if nxt.live:
                    count += 1
                    stack.append((nxt, children))
    return count


def _bare(session):
    """A byte session at the bare position of *session*'s prediction table:
    the table alone, with no kernel item, Leo entry or word under way."""
    bare = RecognitionSession(session.recognizer.grammar)
    bare._last = toklang.grammar._Position(0)
    bare._last.pred = session.inner._last.pred
    return bare


_DYCK_LETTERS_TOKENIZER = train([b"[a[b]ab]" * 8, b"[[ab]]ba[]" * 8], 30)
_DOC_TOKENIZER = train([_doc(random.Random(3), 1024)], 40)


@pytest.mark.parametrize("g, tokenizer, prefix, nodes", [
    (dyck_letters_grammar(), _DYCK_LETTERS_TOKENIZER, b"", (70, 1)),
    (dyck_letters_grammar(), _DYCK_LETTERS_TOKENIZER, b"[a[[b]", (70, 1)),
    (_doc_grammar(), _DOC_TOKENIZER, b"[ab", (2, 20)),
    (_doc_grammar(), _DOC_TOKENIZER, b"[a\xc3", (0, 0)),  # inside é no longer token goes on
    (_doc_grammar(), _DOC_TOKENIZER, b"[ab,", (15, 3)),
], ids=["dyck-letters-empty", "dyck-letters-open", "doc-mid-word", "doc-mid-character",
        "doc-after-separator"])
def test_a_mask_tests_classes_against_the_position(monkeypatch, g, tokenizer, prefix,
                                                     nodes):
    # the walk tests each child class of a trie node against the position's
    # own maps: it builds no list of expected classes.  A cold table pays the
    # bare walk of the whole class trie, once per node with children whose
    # class keeps the bare position live, and then the walk of the rest from
    # the position; a warm table pays the second alone
    rec = TokenRecognizer(g, tokenizer)
    session = rec.open_session()
    for tid in tokenizer.tokenize(prefix):
        session.feed(tid)
    table = session.inner._last.pred
    assert id(table) not in rec._masks
    want, bare = allowed_by_trial(session), _class_nodes_advanced(_bare(session), rec._class_trie)
    steps = []
    advance = toklang.grammar._advance

    def counted(chart, last, terminal):
        steps.append(terminal)
        return advance(chart, last, terminal)

    def refused(*_):
        raise AssertionError("a mask asked for a list of expected classes")

    monkeypatch.setattr(toklang.grammar, "_advance", counted)
    # a position has no list of its expected classes to give, and a walk
    # that asked for one, of a position or of the session, would meet this
    monkeypatch.setattr(toklang.grammar._Position, "expected", refused, raising=False)
    monkeypatch.setattr(toklang.grammar.RecognitionSession, "expected", refused)
    cold = session.allowed_next_tokens()
    cold_steps, steps[:] = len(steps), []
    warm = session.allowed_next_tokens()
    monkeypatch.undo()
    assert cold == warm == want and len(want) > 1
    rest = _class_nodes_advanced(session.inner, rec._masks[id(table)][1])
    assert (bare, rest) == nodes
    assert (cold_steps, len(steps)) == (bare + rest, rest)


def _paired_letters_grammar() -> Grammar:
    """52 terminal classes: each lower-case letter opens a pair that its
    capital closes, so no two letters share a context."""
    alts = "".join(f' | "{c}" S "{c.upper()}" S' for c in string.ascii_lowercase)
    return parse_grammar(f'S -> ""{alts} ;', "byte")


def _paired_letters(rng: random.Random, pairs: int) -> bytes:
    """A member of ``_paired_letters_grammar`` of *pairs* random pairs."""
    out, open_ = [], []
    while pairs or open_:
        if open_ and (not pairs or rng.random() < 0.5):
            out.append(open_.pop().upper())
        else:
            pairs -= 1
            open_.append(rng.choice(string.ascii_lowercase))
            out.append(open_[-1])
    return "".join(out).encode()


def test_masks_on_a_grammar_of_many_classes():
    # a position expects every opening letter and one closing one
    g = _paired_letters_grammar()
    assert len(g._reduced._chart.members) == 52
    rng = random.Random(7)
    tokenizer = train([_paired_letters(rng, 100) for _ in range(20)], 80)
    assert len(tokenizer.vocab) == 256 + 80
    session = TokenRecognizer(g, tokenizer).open_session()
    for _ in range(30):
        mask = session.allowed_next_tokens()
        assert mask == allowed_by_trial(session)
        session.feed(rng.choice(sorted(mask)))


def test_mask_chart_work_is_flat_in_the_prefix(rec, monkeypatch):
    # "]" and "]]" close the last "[": each advance costs the same at any depth
    costs = []
    for n in (2000, 8000):
        session = rec.open_session()
        for tid in [1, 2] * n + [1]:  # "[" and "]"
            session.feed(tid)
        counts = kernel_items(monkeypatch)
        assert session.allowed_next_tokens() == {1, 2, 3, 4}  # not "]]"
        costs.append(sum(counts))
        monkeypatch.undo()
    assert costs[0] == costs[1]


@pytest.mark.parametrize("g, tokenizer", [
    (dyck_letters_grammar(), _DYCK_LETTERS_TOKENIZER),
    (_doc_grammar(), _DOC_TOKENIZER),
], ids=["dyck-letters", "doc"])
def test_mask_cache_holds_one_entry_per_table(g, tokenizer):
    # the cached parts of masks are keyed by prediction table, and a chart
    # has finitely many: a long decode fills the cache early, then never grows it
    rec = TokenRecognizer(g, tokenizer)
    chart, session, rng = rec.grammar._reduced._chart, rec.open_session(), random.Random(11)
    sizes = []
    for _ in range(2000):
        mask = session.allowed_next_tokens()
        assert mask and len(rec._masks) <= len(chart)
        sizes.append(len(rec._masks))
        session.feed(rng.choice(sorted(mask)))
    assert session.live and sizes[500] == sizes[-1]


def test_mask_skips_a_branch_that_derives_nothing(brackets):
    # "]" is only the start of "]" B, and B derives no string
    g = parse_grammar('S -> "[" | "]" B ; B -> B "[" ;', "byte")
    session = TokenRecognizer(g, brackets).open_session()
    assert session.allowed_next_tokens() == allowed_by_trial(session) == {1}
    assert not session.clone().feed(2).live


# --- grammars that are not reduced ------------------------------------------------

_JUNK = 0x63  # "c": a byte that only the junk rules use
_JUNK_TOKENIZER = Tokenizer(tuple(bytes([b]) for b in range(256)) + tuple(
    bytes(w) for n in (2, 3) for w in itertools.product(b"abc", repeat=n)))


@st.composite
def grammars_with_junk(draw):
    """A generated grammar before reduction, and the same grammar with junk
    rules after its own: U is unreachable, N derives no string, and S and
    some drawn heads get alternatives that go on into N."""
    g = draw(unreduced_small_grammars())
    names = sorted(g.nonterminals)
    heads = ["S"] + draw(st.lists(st.sampled_from(names), max_size=2))
    into_n = [Production(h, (draw(st.sampled_from(names + [_JUNK])), "N")) for h in heads]
    junk = [Production("U", (_JUNK,)), Production("U", ("S", "U")),
            Production("N", (_JUNK, "N")), Production("N", ("S", "N"))] + into_n
    return g, Grammar(g.nonterminals | {"U", "N"}, "byte",
                      g.productions + tuple(dict.fromkeys(junk)), "S")


@settings(max_examples=100)
@given(grammars_with_junk())
def test_junk_rules_change_nothing(pair):
    base, g = pair
    reduced = reduce_grammar(base)
    assert reduce_grammar(g) == reduced
    assert g.is_empty_language == reduced.is_empty_language
    for seed in range(3):
        w = sample(g, 30, seed)
        assert w == sample(reduced, 30, seed)
        assert w is None or recognize(reduced, w)
    members = strings_up_to(base, 3)
    viable = prefixes_of(members_cut_at(base, 6))
    recs = TokenRecognizer(g, _JUNK_TOKENIZER), TokenRecognizer(reduced, _JUNK_TOKENIZER)
    assert relevant_token_ids(recs[0]) == relevant_token_ids(recs[1])
    vocab = _JUNK_TOKENIZER.vocab

    def walk(prefix, sessions):
        junk, clean = sessions
        assert junk.live == clean.live == (prefix in viable)
        assert junk.accepts() == clean.accepts() == (prefix in members)
        assert recognize(g, prefix) == recognize(reduced, prefix) == (prefix in members)
        assert junk.inner.expected() == clean.inner.expected()
        if junk.live:
            assert junk.inner.expected() == {t for t in b"abc" if prefix + (t,) in viable}
        mask = junk.allowed_next_tokens()
        assert mask == clean.allowed_next_tokens() == allowed_by_trial(junk)
        assert mask == {t for t, bs in enumerate(vocab)
                        if junk.live and prefix + tuple(bs) in viable}
        if len(prefix) < 3:
            for t in b"abc":
                walk(prefix + (t,), (junk.clone().feed(t), clean.clone().feed(t)))

    walk((), tuple(r.open_session() for r in recs))


def test_session_clone_forks(rec):
    a = rec.open_session().feed(4)
    b = a.clone()
    a.feed(5)
    assert a.accepts() and not b.accepts()
    assert b.tokens_consumed == 1


def test_relevant_token_ids(rec):
    assert relevant_token_ids(rec) == [1, 2, 3, 4, 5]
