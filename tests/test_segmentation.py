import itertools
import tracemalloc

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from toklang import (
    Classification,
    Kind,
    TokenRecognizer,
    Tokenizer,
    TokenizerError,
    classify,
    count_tokenizations,
    enumerate_tokenizations,
    find_mergeable_pair,
    loads_tokenizer,
    train,
    unmerge,
)
from toklang.bpe import _PairVerdicts, _longest
from toklang.toys import (
    aab_tokenizer,
    byte_identity_tokenizer,
    dyck_letters_grammar,
    letter_bracket_tokenizer,
)

from oracles import (
    classify_by_retokenize,
    count_by_suffix_dp,
    outcome,
    segmentations,
    tokenize_by_rescan,
)
from test_bpe_oracles import A_BC_ABC, merge_lists

ab_bytes = st.lists(st.sampled_from([97, 98]), max_size=10).map(bytes)


# --- enumeration ----------------------------------------------------------------


def test_enumerate_aaaa_order_and_count(aab):
    # longest-first cut order; ids: a=0 aa=2 aaa=4
    assert list(enumerate_tokenizations(aab, b"aaaa")) == [
        [4, 0], [2, 2], [2, 0, 0], [0, 4], [0, 2, 0], [0, 0, 2], [0, 0, 0, 0],
    ]


def test_enumerate_empty_string(aab):
    assert list(enumerate_tokenizations(aab, b"")) == [[]]


def test_enumerate_unsegmentable():
    t = Tokenizer((b"aa",))
    assert list(enumerate_tokenizations(t, b"aaa")) == []
    assert count_tokenizations(t, b"aaa") == 0
    assert count_tokenizations(t, b"aaaa") == 1


def test_enumerate_limit(aab):
    assert len(list(enumerate_tokenizations(aab, b"aaabb", limit=3))) == 3
    with pytest.raises(ValueError):
        enumerate_tokenizations(aab, b"a", limit=0)


@pytest.mark.parametrize("limit", [True, False, 2.0, "2", -1])
def test_enumerate_refuses_a_limit_that_is_no_int_or_negative(aab, limit):
    with pytest.raises(TokenizerError, match="limit must be an int >= 1 or None"):
        enumerate_tokenizations(aab, b"aaa", limit=limit)


def test_enumerate_is_lazy(aab):
    gen = enumerate_tokenizations(aab, b"a" * 400)  # astronomically many items
    first = next(iter(gen))
    assert aab.detokenize(first) == b"a" * 400


@pytest.mark.parametrize("make, n, first", [
    (aab_tokenizer, 3000, [4] * 1000),  # aaa = 4, aa = 2
    (aab_tokenizer, 8192, [4] * 2730 + [2]),
    (byte_identity_tokenizer, 3000, [97] * 3000),
    (byte_identity_tokenizer, 8192, [97] * 8192),
])
def test_enumerate_long_input_with_limit(make, n, first):
    t = make()
    data = b"a" * n
    got = list(enumerate_tokenizations(t, data, limit=16))
    assert got[0] == first
    assert len(got) == min(16, count_tokenizations(t, data))
    assert len(set(map(tuple, got))) == len(got)
    assert all(t.detokenize(ids) == data for ids in got)


def _dead_ends_tokenizer() -> Tokenizer:
    # a first cut "ba" leaves an odd run of a's, which no token covers
    return Tokenizer((b"b", b"ba", b"aa", b"aaaa", b"c"))


class _Counted(dict):
    """A dict that counts its ``get`` calls in one shared one-element list."""

    def __init__(self, items, calls):
        super().__init__(items)
        self.calls = calls

    def get(self, key, default=None):
        self.calls[0] += 1
        return super().get(key, default)


@pytest.mark.parametrize("make, data, total", [
    (aab_tokenizer, b"a" * 24 + b"c", 0),
    (_dead_ends_tokenizer, b"b" + b"a" * 60 + b"c", 1_346_269),
], ids=["no_segmentation", "late_first_item"])
def test_enumerate_skips_dead_ends(make, data, total):
    t = make()
    lookups = [0]
    children = t._trie[0]  # the one tree's, which the automaton shares
    children[:] = [_Counted(c, lookups) for c in children]
    bound = (len(data) + 1) * max(map(len, t.vocab))
    first = next(enumerate_tokenizations(t, data), None)
    # each position's cuts are tried at most once before the first item
    assert lookups[0] <= bound
    lookups[0] = 0  # now lookups of a child, after a failure step or not
    # the count takes one transition per byte, and at most one failure step
    # per byte before it
    assert count_tokenizations(t, data) == total
    assert t._automaton[0] is children and lookups[0] <= 2 * len(data) + 1
    assert (first is None) == (total == 0)
    assert first is None or t.detokenize(first) == data


@st.composite
def _vocab_sets(draw) -> Tokenizer:
    """A vocabulary of 1 to 5 strings over a, b and c, with or without the
    single bytes: a token's prefixes in the vocabulary may skip lengths,
    as aaaa's skip aaa in ``_dead_ends_tokenizer``."""
    words = draw(st.sets(st.lists(st.sampled_from(b"abc"), min_size=1, max_size=4).map(bytes),
                         min_size=1, max_size=5))
    if draw(st.booleans()):
        words |= {b"a", b"b", b"c"}
    return Tokenizer(tuple(sorted(words)))


@pytest.mark.parametrize("tokenizers", [
    st.builds(aab_tokenizer), st.builds(_dead_ends_tokenizer), _vocab_sets(), merge_lists(),
], ids=["aab_tokenizer", "_dead_ends_tokenizer", "vocab_sets", "merge_lists"])
@given(data=st.data())
def test_enumeration_with_dead_ends_matches_brute_force(tokenizers, data):
    t = data.draw(tokenizers)
    text = data.draw(st.lists(st.sampled_from(b"abc"), max_size=10).map(bytes))
    got = [tuple(t.vocab[i] for i in ids) for ids in enumerate_tokenizations(t, text)]
    assert got == list(reversed(segmentations(set(t.vocab), text)))
    assert count_tokenizations(t, text) == len(got)


def test_count_examples(aab):
    assert count_tokenizations(aab, b"aaaa") == 7
    assert count_tokenizations(aab, b"aaabb") == 10
    assert count_tokenizations(aab, b"") == 1
    # only the failure links find bc: no token goes on from ab with c, so
    # the scan falls from ab to b, which does
    t = Tokenizer((b"a", b"b", b"c", b"d", b"abd", b"bc"))
    assert count_tokenizations(t, b"abc") == 2
    # a second build, as two threads' first counts may make, runs over the
    # shared tree whose root already maps every byte
    del t.__dict__["_automaton"]
    assert count_tokenizations(t, b"abc") == 2


@st.composite
def _lacking_single_bytes(draw) -> Tokenizer:
    """The vocabulary of a ``merge_lists`` tokenizer without one to three of
    its single bytes, so some inputs have no segmentation."""
    vocab = draw(merge_lists()).vocab
    keep = draw(st.sets(st.sampled_from(b"abc"), max_size=2))
    vocab = tuple(bs for bs in vocab if len(bs) > 1 or bs[0] in keep)
    assume(vocab)
    return Tokenizer(vocab)


@pytest.mark.parametrize("tokenizers", [
    _vocab_sets(), merge_lists(), _lacking_single_bytes(),
], ids=["vocab_sets", "merge_lists", "lacking_single_bytes"])
@given(data=st.data())
def test_count_matches_the_suffix_dp(tokenizers, data):
    t = data.draw(tokenizers)
    text = data.draw(st.one_of(
        st.lists(st.sampled_from(b"abc"), max_size=300).map(bytes),
        st.lists(st.sampled_from(t.vocab), max_size=75).map(b"".join)))
    assert count_tokenizations(t, text) == count_by_suffix_dp(t, text)


@pytest.mark.parametrize("tokenizers", [
    _vocab_sets(), merge_lists(), _lacking_single_bytes(),
], ids=["vocab_sets", "merge_lists", "lacking_single_bytes"])
@given(data=st.data())
def test_longest_and_its_shorter_chain_list_every_match(tokenizers, data):
    # d starts no token, so the walk must stop at the root's self-loops
    # once the automaton has added them
    t = data.draw(tokenizers)
    text = data.draw(st.lists(st.sampled_from(b"abcd"), max_size=12).map(bytes))
    want = [sorted((bs for bs in t.vocab if text.startswith(bs, pos)), key=len, reverse=True)
            for pos in range(len(text) + 1)]

    def matches() -> list[list[bytes]]:
        children, token, shorter, longest = t._trie
        got = []
        for pos in range(len(text) + 1):
            at, tid = [], _longest(children, token, text, pos, longest)
            while tid >= 0:
                at.append(t.vocab[tid])
                tid = shorter[tid]
            got.append(at)
        return got

    assert "_automaton" not in vars(t)
    assert matches() == want
    assert t._automaton[0] is t._trie[0] and len(t._trie[0][0]) == 256
    assert matches() == want


def test_count_keeps_only_the_last_counts():
    t = letter_bracket_tokenizer()
    count_tokenizations(t, b"a")  # builds the cached automaton
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        count_tokenizations(t, b"a" * 16384)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    # every suffix count at once would take about 16 MB
    assert peak < 256 * 1024


@given(ab_bytes)
def test_enumeration_matches_brute_force(data):
    t = aab_tokenizer()
    got = [tuple(t.vocab[i] for i in ids) for ids in enumerate_tokenizations(t, data)]
    want = segmentations(set(t.vocab), data)
    assert got == list(reversed(want))  # longest first cut, depth first
    assert len(got) == len(set(map(tuple, got)))  # each exactly once
    assert count_tokenizations(t, data) == len(got)


@given(ab_bytes)
def test_proper_tokenization_is_enumerated(data):
    t = aab_tokenizer()
    assert t.tokenize(data) in list(enumerate_tokenizations(t, data))


# --- mergeable pairs / unmerge -----------------------------------------------------


def test_find_mergeable_pair_examples(aab):
    assert find_mergeable_pair(aab, [0, 0, 0, 1, 1]) == 0
    assert find_mergeable_pair(aab, [2, 3, 1]) is None
    assert find_mergeable_pair(aab, [4, 5]) is None
    assert find_mergeable_pair(aab, [3, 0, 0]) == 1
    assert find_mergeable_pair(aab, []) is None


def test_unmerge_examples(aab):
    assert unmerge(aab, [4, 5]) == [0, 0, 0, 1, 1]
    assert unmerge(aab, [2, 3, 1]) == [0, 0, 0, 1, 1]
    assert unmerge(aab, [0, 1, 0]) == [0, 1, 0]
    assert unmerge(aab, []) == []


@given(st.lists(st.integers(0, 5), max_size=10))
def test_unmerge_preserves_detokenization(ids):
    t = aab_tokenizer()
    assert t.detokenize(unmerge(t, ids)) == t.detokenize(ids)


def test_unmerge_indecomposable_token():
    t = Tokenizer((b"ab",))
    with pytest.raises(TokenizerError, match="no single-byte token for byte 0x61"):
        unmerge(t, [0])


def test_a_byte_with_no_single_byte_token_has_one_error():
    # the tokenizer of the CI step's abc.json: no single-byte token for b or c
    t = loads_tokenizer('{"version": 1, "vocab": {"a": 0, "bc": 1, "abc": 2}, '
                        '"merges": [["a", "bc"]]}')
    for call in (lambda: t.tokenize(b"abc"), lambda: classify(t, [0, 1]),
                 lambda: t.is_proper([0, 1]), lambda: unmerge(t, [0, 1])):
        with pytest.raises(TokenizerError) as e:
            call()
        assert str(e.value) == "no single-byte token for byte 0x62"


# --- classification -----------------------------------------------------------------


def test_classify_worked_examples(aab):
    assert classify(aab, [4, 5]).kind is Kind.PROPER
    c = classify(aab, [2, 3, 1])
    assert c.kind is Kind.WRONG_MERGE_ORDER and c.proper_form == (4, 5)
    c = classify(aab, [0, 0, 0, 1, 1])
    assert c.kind is Kind.MERGEABLE and c.mergeable_at == 0


def test_classify_empty_sequence(aab):
    assert classify(aab, []).kind is Kind.PROPER


def test_kind_is_one_class_wherever_it_is_named():
    import toklang.bpe
    import toklang.segmentation
    assert Kind is toklang.bpe.Kind is toklang.segmentation.Kind


def test_classify_mixed_defects_prefers_mergeable(aab):
    # [aa, ab, b, a, a] has wrong order up front AND a mergeable tail pair
    c = classify(aab, [2, 3, 1, 0, 0])
    assert c.kind is Kind.MERGEABLE and c.mergeable_at == 3


def test_classify_rejects_unknown_ids(aab):
    with pytest.raises(TokenizerError):
        classify(aab, [0, 99])


def test_classify_checks_ids_once(aab, monkeypatch):
    calls = []
    check_ids = Tokenizer.check_ids

    def counted(self, ids):
        calls.append(ids)
        return check_ids(self, ids)

    monkeypatch.setattr(Tokenizer, "check_ids", counted)
    # one sequence of each kind, and the empty one
    for ids in ([4, 5], [0, 0, 0, 1, 1], [2, 3, 1], []):
        calls.clear()
        classify(aab, ids)
        assert len(calls) == 1, ids


@pytest.mark.parametrize("check", [
    lambda t, ids: t.detokenize(ids),
    lambda t, ids: t.is_proper(ids),
    find_mergeable_pair,
    unmerge,
], ids=["detokenize", "is_proper", "find_mergeable_pair", "unmerge"])
def test_direct_calls_reject_unknown_ids(aab, check):
    with pytest.raises(TokenizerError, match="unknown token id 99"):
        check(aab, [0, 99])


@given(ab_bytes)
def test_tokenizer_output_classifies_proper(data):
    t = aab_tokenizer()
    assert classify(t, t.tokenize(data)).kind is Kind.PROPER


def test_partition_small_exhaustive(aab):
    # every segmentation of every short string lands in exactly one kind,
    # and exactly one segmentation per string is Proper
    for n in range(7):
        for combo in itertools.product(b"ab", repeat=n):
            s = bytes(combo)
            items = list(enumerate_tokenizations(aab, s))
            assert len(items) == count_tokenizations(aab, s)
            kinds = [classify(aab, item).kind for item in items]
            assert sum(k is Kind.PROPER for k in kinds) == 1
            assert all(
                k in (Kind.PROPER, Kind.MERGEABLE, Kind.WRONG_MERGE_ORDER)
                for k in kinds)


@pytest.mark.parametrize("call", [
    lambda t: count_tokenizations(t, "aab"),
    lambda t: enumerate_tokenizations(t, "aab"),
    lambda t: count_tokenizations(t, [97, 97]),
    lambda t: enumerate_tokenizations(t, [97, 97], limit=1),
], ids=["count-str", "enumerate-str", "count-list", "enumerate-list"])
def test_segmentation_refuses_input_that_is_no_bytes(aab, call):
    with pytest.raises(TokenizerError, match="data must be bytes, got (str|list)"):
        call(aab)
    assert count_tokenizations(aab, bytearray(b"aab")) == count_tokenizations(aab, b"aab")
    assert list(enumerate_tokenizations(aab, bytearray(b"aa"))) == [[2], [0, 0]]


# --- properness as a local property ---------------------------------------------------
#
# A sequence is Proper exactly when (a) every token tokenizes to itself and
# (b) every adjacent pair (a, b) tokenizes to [a, b]; Tokenizer.is_proper
# proves it and decides properness that way.  Checked here against the
# whole-string retokenize of tests/oracles.py.


def _bigram_proper(t: Tokenizer, seq: list[int]) -> tuple[bool, bool]:
    """(every token is its own tokenization, every adjacent pair is).  Every
    token is tokenized, in order, so an error names the first byte of the
    sequence that has no single-byte token, as the whole-string one does."""
    own = all([t.tokenize(t.vocab[a]) == [a] for a in seq])
    pairs = all([t.tokenize(t.vocab[a] + t.vocab[b]) == [a, b] for a, b in zip(seq, seq[1:])])
    return own, pairs


@st.composite
def _with_an_uncovered_byte(draw) -> Tokenizer:
    """A merge list of ``merge_lists`` plus a token with the byte d, which
    has no single-byte token, and maybe a merge that joins that token with
    another, drawn into any rank: a tokenizer that is not decomposable."""
    t = draw(merge_lists())
    vocab, merges = list(t.vocab), list(t.merges)
    d = len(vocab)
    vocab.append(draw(st.sampled_from([b"d", b"dd"])) + draw(st.sampled_from(vocab)))
    if draw(st.booleans()):
        other = draw(st.integers(0, d))
        left, right = draw(st.sampled_from([(other, d), (d, other)]))
        vocab.append(vocab[left] + vocab[right])
        merges.insert(draw(st.integers(0, len(merges))), (left, right, len(vocab) - 1))
    t = Tokenizer(tuple(vocab), tuple(merges))
    assert not t._decomposable
    return t


_trained = st.builds(
    train,
    st.lists(st.lists(st.sampled_from(b"abc"), max_size=16).map(bytes), max_size=4),
    st.integers(0, 10))


@st.composite
def _tokenizer_and_sequence(draw):
    t = draw(st.one_of(_trained, merge_lists(), _with_an_uncovered_byte()))
    pool = [i for i, bs in enumerate(t.vocab) if set(bs) <= set(b"abcd")]
    seq = draw(st.one_of(
        st.lists(st.sampled_from(pool), max_size=6),
        st.lists(st.sampled_from(b"abc"), max_size=12).map(lambda s: t.tokenize(bytes(s)))))
    return t, seq


ABAA = Tokenizer((b"a", b"b", b"ab", b"aba", b"aa", b"abaa"),
                 ((0, 1, 2), (2, 0, 3), (0, 0, 4), (2, 4, 5)))
# no token d: not decomposable, yet every sequence over a and b is covered
AB_DD = Tokenizer((b"a", b"b", b"ab", b"dd"), ((0, 1, 2),))


def _not_decomposable_examples(test):
    """*test* with examples of tokenizers that are not decomposable: the
    empty and one-token sequences, and sequences each with and without an
    uncovered byte."""
    for case in [(A_BC_ABC, []), (A_BC_ABC, [0]), (A_BC_ABC, [0, 1]), (A_BC_ABC, [1, 0]),
                 (AB_DD, [2]), (AB_DD, [3]), (AB_DD, [2, 2, 0]), (AB_DD, [0, 1, 3])]:
        test = example(case=case)(test)
    return test


@settings(max_examples=400)
@given(_tokenizer_and_sequence())
@_not_decomposable_examples
def test_proper_iff_every_token_and_every_pair_is_its_own_tokenization(case):
    t, seq = case
    proper = outcome(lambda: classify_by_retokenize(t, seq).kind is Kind.PROPER)
    assert outcome(lambda: all(_bigram_proper(t, seq))) == proper
    assert outcome(t.is_proper, seq) == proper
    assert outcome(t.is_proper, seq) == proper  # again, from the memo


@settings(max_examples=400)
@given(_tokenizer_and_sequence())
@_not_decomposable_examples
def test_classify_matches_the_retokenize_oracle(case):
    t, seq = case
    assert outcome(classify, t, seq) == outcome(classify_by_retokenize, t, seq)


def test_a_merge_may_join_a_token_only_a_later_merge_makes():
    # ab+c, b+c, a+b: b+c wins on "abc", so the first merge never applies
    t = Tokenizer((b"a", b"b", b"c", b"ab", b"abc", b"bc"), ((3, 2, 4), (1, 2, 5), (0, 1, 3)))
    assert t.tokenize(b"abc") == [0, 5]
    assert t.is_proper([0, 5]) and not t.is_proper([4]) and not t.is_proper([3, 2])
    assert classify(t, [4]) == Classification(Kind.WRONG_MERGE_ORDER, proper_form=(0, 5))
    assert classify(t, [3, 2]) == Classification(Kind.MERGEABLE, mergeable_at=0)


def test_a_byte_without_a_single_byte_token_raises_as_the_retokenize_does():
    # no token "a": the detokenization of [ab, c] cannot be tokenized,
    # though its one pair is joined by a merge rule
    t = Tokenizer((b"ab", b"c", b"abc"), ((0, 1, 2),))
    for check in (classify, classify_by_retokenize, Tokenizer.is_proper):
        with pytest.raises(TokenizerError, match="no single-byte token for byte 0x61"):
            check(t, [0, 1])


def _counting_tokenize(monkeypatch) -> list[bytes]:
    calls = []
    tokenize = Tokenizer.tokenize

    def counted(self, data):
        calls.append(data)
        return tokenize(self, data)

    monkeypatch.setattr(Tokenizer, "tokenize", counted)
    return calls


@pytest.mark.parametrize("t, proper, mergeable", [
    (aab_tokenizer(), [[], [4], [4, 5, 0]], [[0, 0, 1]]),
    (AB_DD, [[], [2], [2, 2, 0]], [[2, 0, 1]]),
    (letter_bracket_tokenizer(), [[], [257], [257, 259, 97]], [[97, 97, 98]]),
], ids=["aab", "not_decomposable", "byte_base"])
def test_properness_never_tokenizes(monkeypatch, t, proper, mergeable):
    # accepts_proper needs a byte-base tokenizer, so only the last case has it
    rec = TokenRecognizer(dyck_letters_grammar(), t) if t.byte_base else None
    calls = _counting_tokenize(monkeypatch)
    for seq in proper:
        assert t.is_proper(seq), seq
        assert classify(t, seq) == Classification(Kind.PROPER), seq
        assert rec is None or rec.accepts_proper(seq), seq
    for seq in mergeable:
        assert not t.is_proper(seq), seq
        assert classify(t, seq).kind is Kind.MERGEABLE, seq
        assert rec is None or not rec.accepts_proper(seq), seq
    assert calls == []


def test_classify_of_a_mergeable_sequence_does_not_tokenize(monkeypatch):
    t = aab_tokenizer()
    calls = _counting_tokenize(monkeypatch)
    assert classify(t, [0, 0, 0, 1, 1]) == Classification(Kind.MERGEABLE, mergeable_at=0)
    assert classify(t, [2, 3, 1, 0, 0]) == Classification(Kind.MERGEABLE, mergeable_at=3)
    assert calls == []
    assert classify(t, [2, 3, 1]).kind is Kind.WRONG_MERGE_ORDER  # needs the proper form
    assert calls == [b"aaabb"]  # the proper form only: a pair verdict runs no tokenize


def test_classify_of_a_mergeable_sequence_scans_its_pairs_once(monkeypatch):
    t = aab_tokenizer()
    scans = []
    mergeable_at = Tokenizer._mergeable_at

    def counted(self, seq):
        scans.append(list(seq))
        return mergeable_at(self, seq)

    monkeypatch.setattr(Tokenizer, "_mergeable_at", counted)
    assert classify(t, [2, 3, 1, 0, 0]) == Classification(Kind.MERGEABLE, mergeable_at=3)
    assert scans == [[2, 3, 1, 0, 0]]


def _counting_misses(monkeypatch) -> list[tuple[int, int]]:
    """The pairs whose verdict is decided, not read from the memo."""
    misses = []
    missing = _PairVerdicts.__missing__

    def counted(self, pair):
        misses.append(pair)
        return missing(self, pair)

    monkeypatch.setattr(_PairVerdicts, "__missing__", counted)
    return misses


def test_is_proper_tokenizes_each_distinct_pair_once(monkeypatch):
    # [aaa, bb, aaa, bb, aaa, b], written out: tokenize would fill the memo
    seq = [4, 5, 4, 5, 4, 1]
    assert aab_tokenizer().tokenize(b"aaabbaaabbaaab") == seq
    misses = _counting_misses(monkeypatch)
    calls = _counting_tokenize(monkeypatch)
    # classify decides Proper by the same pair test, so it never retokenizes
    # a proper sequence whole
    for proper in (Tokenizer.is_proper, lambda t, ids: classify(t, ids).kind is Kind.PROPER):
        t = aab_tokenizer()
        misses.clear()
        assert proper(t, seq)
        assert misses == [(4, 5), (5, 4), (4, 1)]
        misses.clear()
        assert proper(t, seq) and proper(t, seq[:4])
        assert misses == []
        assert calls == []


@settings(max_examples=200)
@given(st.data())
def test_the_memo_holds_only_non_mergeable_pairs_checked(data):
    t = data.draw(st.one_of(_trained, merge_lists()))
    pool = [i for i, bs in enumerate(t.vocab) if set(bs) <= set(b"abc")]
    for seq in data.draw(st.lists(st.lists(st.sampled_from(pool), max_size=6), max_size=8)):
        assert t.is_proper(seq) == (t.tokenize(t.detokenize(seq)) == seq)
    # filled by is_proper and by tokenize's search alike
    memo = t._pair_verdicts
    assert memo.keys().isdisjoint(t.merge_ranks)
    for (a, b), ok in memo.items():
        assert ok == (tokenize_by_rescan(t, t.vocab[a] + t.vocab[b]) == [a, b])


@settings(max_examples=200)
@given(st.one_of(_trained, merge_lists()))
def test_every_pair_verdict_matches_the_rescan_of_its_bytes(t):
    # every pair of tokens over a, b and c, mergeable ones included
    pool = [i for i, bs in enumerate(t.vocab) if set(bs) <= set(b"abc")]
    for a, b in itertools.product(pool, repeat=2):
        want = tokenize_by_rescan(t, t.vocab[a] + t.vocab[b]) == [a, b]
        assert t._pair_verdicts[a, b] == want
    assert t._pair_verdicts.keys().isdisjoint(t.merge_ranks)


def test_the_pair_condition_alone_is_not_enough():
    # merges a+b, ab+a, a+a, ab+aa: abaa tokenizes to [aba, a], so the
    # one-token sequence [abaa] has no pair to fail and is still improper
    assert ABAA.tokenize(b"abaa") == [3, 0]
    assert _bigram_proper(ABAA, [5]) == (False, True)
    assert not ABAA.is_proper([5])
    assert classify(ABAA, [5]) == Classification(Kind.WRONG_MERGE_ORDER, proper_form=(3, 0))
