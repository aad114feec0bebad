"""The heap-merge ``tokenize`` and the incremental ``train`` against the
rescanning loops they replaced, ``tokenize_by_rescan`` and
``train_by_recount`` in ``tests/oracles.py``: equal output, always."""

import random

import pytest
from hypothesis import example, given, settings, strategies as st

from toklang import Tokenizer, TokenizerError, train
from toklang.toys import (
    aab_tokenizer,
    bracket_tokenizer,
    byte_identity_tokenizer,
    letter_bracket_tokenizer,
)

from oracles import tokenize_by_rescan, train_by_recount


def texts(alphabet: bytes, max_size: int) -> st.SearchStrategy[bytes]:
    """Byte strings over *alphabet*: mixed ones, and runs of repeated
    bytes, where the occurrences of a pair overlap."""
    symbols = st.sampled_from(alphabet)
    return st.one_of(
        st.lists(symbols, max_size=max_size).map(bytes),
        st.builds(lambda b, k: bytes([b]) * k, symbols, st.integers(0, max_size)),
        st.lists(st.tuples(symbols, st.integers(1, 40)), max_size=8).map(
            lambda runs: b"".join(bytes([b]) * k for b, k in runs)[:max_size]),
    )


@st.composite
def corpora(draw, max_samples: int = 8, max_size: int = 30) -> list[bytes]:
    """Small corpora over a small alphabet, so counts tie often; samples may
    be empty, one byte long or repeated."""
    alphabet = draw(st.sampled_from([b"a", b"ab", b"abc", b"[]ab "]))
    samples = draw(st.lists(texts(alphabet, max_size), max_size=max_samples))
    if samples:
        samples += draw(st.lists(st.sampled_from(samples), max_size=4))
    return draw(st.permutations(samples))


@st.composite
def merge_lists(draw) -> Tokenizer:
    """A valid tokenizer over a, b, c: each merge joins any two tokens, and
    merged bytes that spell an existing token reuse it; pairs may repeat."""
    vocab = [b"a", b"b", b"c"]
    ids = {bs: i for i, bs in enumerate(vocab)}
    merges = []
    for _ in range(draw(st.integers(0, 12))):
        left = draw(st.integers(0, len(vocab) - 1))
        right = draw(st.integers(0, len(vocab) - 1))
        bs = vocab[left] + vocab[right]
        if bs not in ids:
            ids[bs] = len(vocab)
            vocab.append(bs)
        merges.append((left, right, ids[bs]))
    return Tokenizer(tuple(vocab), tuple(merges))


_TOYS = [(aab_tokenizer(), b"ab"), (bracket_tokenizer(), b"[]a"),
         (letter_bracket_tokenizer(), b"[]ab"), (byte_identity_tokenizer(), b"ab\x00\xff")]


@st.composite
def tokenizers(draw) -> tuple[Tokenizer, bytes]:
    """(tokenizer, the bytes its inputs are drawn from): a toy, a trained or
    a generated one."""
    kind = draw(st.sampled_from(["toy", "trained", "generated"]))
    if kind == "toy":
        return draw(st.sampled_from(_TOYS))
    if kind == "generated":
        return draw(merge_lists()), b"abc"
    corpus = draw(corpora())
    alphabet = bytes(sorted(set(b"".join(corpus)))) or b"a"
    return train(corpus, draw(st.integers(0, 40))), alphabet


@settings(max_examples=200)
@given(data=st.data())
def test_tokenize_matches_rescan(data):
    t, alphabet = data.draw(tokenizers())
    text = data.draw(texts(alphabet, 300))
    assert t.tokenize(text) == tokenize_by_rescan(t, text)


@pytest.mark.parametrize("text", [b"abc", b"cab", b"a\x00b"])
def test_tokenize_rejects_the_same_byte_as_rescan(text):
    t = aab_tokenizer()
    with pytest.raises(TokenizerError) as want:
        tokenize_by_rescan(t, text)
    with pytest.raises(TokenizerError, match=str(want.value)):
        t.tokenize(text)


@settings(max_examples=200)
@given(corpus=corpora(), num_merges=st.integers(0, 60))
@example(corpus=[], num_merges=3)
@example(corpus=[b"", b"a", b""], num_merges=3)
@example(corpus=[b"bab", b"bab"], num_merges=1)        # tied counts
@example(corpus=[b"ab", b"ba", b"ab", b"ba"], num_merges=4)
@example(corpus=[b"a" * 7, b"aa"], num_merges=5)        # overlapping pairs
@example(corpus=[b"abcabc", b"bcab"], num_merges=60)    # runs out of pairs
def test_train_matches_recount(corpus, num_merges):
    assert train(corpus, num_merges) == train_by_recount(corpus, num_merges)


class _CountedRanks(dict):
    """A ``merge_ranks`` map that counts its lookups."""

    def __init__(self, ranks):
        super().__init__(ranks)
        self.lookups = 0

    def get(self, key, default=None):
        self.lookups += 1
        return super().get(key, default)

    def __getitem__(self, key):
        self.lookups += 1
        return super().__getitem__(key)

    def __contains__(self, key):
        self.lookups += 1
        return super().__contains__(key)


def test_tokenize_lookups_grow_linearly():
    rng = random.Random(6)

    def text(n):
        return bytes(rng.choice(b"[]ab ") for _ in range(n))

    t = train([text(200) for _ in range(50)], 150)
    lookups = {}
    for n in (1024, 8192):
        ranks = t.__dict__["merge_ranks"] = _CountedRanks(t.merge_ranks)  # the cached map
        t.tokenize(text(n))
        lookups[n] = ranks.lookups
    assert lookups[8192] <= 8 * 1.25 * lookups[1024], lookups
