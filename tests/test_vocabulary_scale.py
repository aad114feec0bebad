"""The fast paths against their oracles on a tokenizer of a thousand merges.

The other oracle tests draw toy tokenizers of a few dozen merges over a few
letters.  A trained vocabulary differs in kind: its tokens run to 20 bytes,
its merge runs take many steps and its automaton has thousands of states.
The corpus is drawn here, with no file: lines of 12 words, picked by Zipf
weights from 30,000 random words of 2 to 10 letters.
"""

import itertools
import random
import string
from collections import Counter

import pytest

from toklang import (
    Kind,
    Tokenizer,
    classify,
    count_tokenizations,
    dumps_tokenizer,
    loads_tokenizer,
    train,
)

from oracles import classify_by_retokenize, count_by_suffix_dp, tokenize_by_rescan

TRAIN_LINES = 4000


@pytest.fixture(scope="module")
def corpus() -> list[bytes]:
    rng = random.Random(1)
    words = ["".join(rng.choices(string.ascii_lowercase, k=rng.randint(2, 10)))
             for _ in range(30_000)]
    # cum_weights, since plain weights make choices sum them on every call
    cum = list(itertools.accumulate(1 / rank for rank in range(1, len(words) + 1)))
    return [" ".join(rng.choices(words, cum_weights=cum, k=12)).encode()
            for _ in range(TRAIN_LINES + 100)]


def _held_out(corpus: list[bytes], size: int) -> bytes:
    """The first *size* bytes of the lines after the training lines."""
    data = b"\n".join(corpus[TRAIN_LINES:])[:size]
    assert len(data) == size
    return data


@pytest.fixture(scope="module")
def trained(corpus) -> Tokenizer:
    return train(corpus[:TRAIN_LINES], 1000)


@pytest.fixture(scope="module", params=["trained", "shuffled"])
def tokenizer(request, trained) -> Tokenizer:
    """The trained tokenizer, and one with the same vocabulary and its merge
    list shuffled: a merge list in any order makes a tokenizer."""
    if request.param == "trained":
        return trained
    merges = list(trained.merges)
    random.Random(2).shuffle(merges)
    return Tokenizer(trained.vocab, tuple(merges))


def test_the_trained_vocabulary_is_at_scale(trained):
    assert len(trained.merges) == 1000
    assert max(map(len, trained.vocab)) >= 12


def test_tokenize_matches_the_rescan(tokenizer, corpus):
    data = _held_out(corpus, 3300)
    assert tokenizer.tokenize(data) == tokenize_by_rescan(tokenizer, data)


def test_count_matches_the_suffix_dp(tokenizer, corpus):
    data = _held_out(corpus, 2000)
    assert count_tokenizations(tokenizer, data) == count_by_suffix_dp(tokenizer, data)


def test_a_file_round_trip_gives_the_same_tokenizer(tokenizer):
    assert loads_tokenizer(dumps_tokenizer(tokenizer)) == tokenizer


def _perturbed(t: Tokenizer, proper: list[int], width: int, rng: random.Random) -> list[list[int]]:
    """Windows of *width* tokens of the proper tokenization *proper*, each
    as it is, with one token split into its merge's two sides, and with one
    boundary between two tokens moved by a byte where both new sides are
    tokens: the same bytes each time."""
    ids = {bs: tid for tid, bs in enumerate(t.vocab)}
    sides = {merged: [left, right] for left, right, merged in t.merges}
    cases = []
    for start in range(0, len(proper) - width, width // 2):
        window = proper[start:start + width]
        i = rng.choice([k for k, tid in enumerate(window) if tid in sides])
        cases += [window, window[:i] + sides[window[i]] + window[i + 1:]]
        moves = []
        for k in range(width - 1):
            joined, cut = t.vocab[window[k]] + t.vocab[window[k + 1]], len(t.vocab[window[k]])
            moves += [(k, [ids[joined[:c]], ids[joined[c:]]]) for c in (cut - 1, cut + 1)
                      if joined[:c] in ids and joined[c:] in ids]
        if moves:
            k, pair = rng.choice(moves)
            cases.append(window[:k] + pair + window[k + 2:])
    return cases


def test_classify_matches_the_retokenize_on_perturbed_sequences(tokenizer, corpus):
    # a split token or a moved boundary makes a Mergeable or WrongMergeOrder
    # sequence; then every pair verdict met, in a fresh tokenizer's memo,
    # and every one-token verdict equal the rescan of their bytes
    t = Tokenizer(tokenizer.vocab, tokenizer.merges)
    proper = tokenizer.tokenize(_held_out(corpus, 3300))
    kinds = Counter()
    for seq in _perturbed(t, proper, 24, random.Random(3)):
        got = classify(t, seq)
        assert got == classify_by_retokenize(t, seq)
        if got.kind is Kind.WRONG_MERGE_ORDER:
            assert list(got.proper_form) == tokenize_by_rescan(t, t.detokenize(seq))
        kinds[got.kind] += 1
    assert len(kinds) == 3 and min(kinds.values()) >= 20, kinds
    verdicts = t._pair_verdicts
    assert len(verdicts) > 500
    for (a, b), ok in verdicts.items():
        assert ok == (tokenize_by_rescan(t, t.vocab[a] + t.vocab[b]) == [a, b])
    for tid in verdicts.runs:
        assert verdicts.alone(tid) == (tokenize_by_rescan(t, t.vocab[tid]) == [tid])
