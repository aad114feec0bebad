import itertools

import pytest
from hypothesis import given, strategies as st

from toklang import (
    Kind,
    Tokenizer,
    TokenizerError,
    classify,
    count_tokenizations,
    enumerate_tokenizations,
    find_mergeable_pair,
    unmerge,
)
from toklang.toys import aab_tokenizer, byte_identity_tokenizer

from oracles import segmentations

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


class _CountedTrie(dict):
    """A copy of a vocabulary trie whose nodes count their lookups in one
    shared one-element list."""

    def __init__(self, node, lookups):
        super().__init__((b, [tid, _CountedTrie(children, lookups)])
                         for b, (tid, children) in node.items())
        self.lookups = lookups

    def get(self, key, default=None):
        self.lookups[0] += 1
        return super().get(key, default)


@pytest.mark.parametrize("make, data, total", [
    (aab_tokenizer, b"a" * 24 + b"c", 0),
    (_dead_ends_tokenizer, b"b" + b"a" * 60 + b"c", 1_346_269),
], ids=["no_segmentation", "late_first_item"])
def test_enumerate_skips_dead_ends(make, data, total):
    t = make()
    lookups = [0]
    t.__dict__["trie"] = _CountedTrie(t.trie, lookups)  # the cached trie
    first = next(enumerate_tokenizations(t, data), None)
    # each position's cuts are tried at most once before the first item
    assert lookups[0] <= (len(data) + 1) * t.max_token_len
    assert count_tokenizations(t, data) == total
    assert (first is None) == (total == 0)
    assert first is None or t.detokenize(first) == data


@pytest.mark.parametrize("make", [aab_tokenizer, _dead_ends_tokenizer])
@given(data=st.lists(st.sampled_from(b"abc"), max_size=10).map(bytes))
def test_enumeration_with_dead_ends_matches_brute_force(make, data):
    t = make()
    got = [tuple(t.vocab[i] for i in ids) for ids in enumerate_tokenizations(t, data)]
    assert got == list(reversed(segmentations(set(t.vocab), data)))


def test_count_examples(aab):
    assert count_tokenizations(aab, b"aaaa") == 7
    assert count_tokenizations(aab, b"aaabb") == 10
    assert count_tokenizations(aab, b"") == 1


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
    with pytest.raises(TokenizerError, match="decomposable"):
        unmerge(t, [0])


# --- classification -----------------------------------------------------------------


def test_classify_worked_examples(aab):
    assert classify(aab, [4, 5]).kind is Kind.PROPER
    c = classify(aab, [2, 3, 1])
    assert c.kind is Kind.WRONG_MERGE_ORDER and c.proper_form == (4, 5)
    c = classify(aab, [0, 0, 0, 1, 1])
    assert c.kind is Kind.MERGEABLE and c.mergeable_at == 0


def test_classify_empty_sequence(aab):
    assert classify(aab, []).kind is Kind.PROPER


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
    find_mergeable_pair,
    unmerge,
], ids=["detokenize", "find_mergeable_pair", "unmerge"])
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
