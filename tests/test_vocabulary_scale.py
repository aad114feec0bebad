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

import pytest

from toklang import Tokenizer, count_tokenizations, dumps_tokenizer, loads_tokenizer, train

from oracles import count_by_suffix_dp, tokenize_by_rescan

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
