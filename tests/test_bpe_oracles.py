"""The pair-test search ``tokenize`` and the incremental ``train`` against
the rescanning loops that define them, ``tokenize_by_rescan`` and
``train_by_recount`` in ``tests/oracles.py``: equal output, always."""

import inspect
import itertools
import random
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from toklang import Tokenizer, TokenizerError, train
from toklang.bpe import _PairVerdicts
from toklang.toys import (
    aab_tokenizer,
    bracket_tokenizer,
    byte_identity_tokenizer,
    letter_bracket_tokenizer,
)

from oracles import outcome, tokenize_by_rescan, train_by_recount


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
    # byte 0 is token 0, never train's sentinel or merged-away marker
    alphabet = draw(st.sampled_from([b"a", b"ab", b"abc", b"[]ab ", b"\x00ab"]))
    samples = draw(st.lists(texts(alphabet, max_size), max_size=max_samples))
    if samples:
        samples += draw(st.lists(st.sampled_from(samples), max_size=4))
    return draw(st.permutations(samples))


@st.composite
def merge_lists(draw) -> Tokenizer:
    """A valid tokenizer over a, b, c, with its merge list in any order.
    The list is drawn in build order: each merge joins any two tokens made
    so far, merged bytes that spell an existing token reuse it, and pairs
    may repeat.  Then it is shuffled, so a merge may join a token that only
    a later merge produces."""
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
    return Tokenizer(tuple(vocab), tuple(draw(st.permutations(merges))))


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


@st.composite
def tokenizers_and_texts(draw) -> tuple[Tokenizer, bytes]:
    t, alphabet = draw(tokenizers())
    return t, draw(texts(alphabet, 300))


# merges a+b, ab+a, a+a, ab+aa: abaa tokenizes to [aba, a], though the
# token abaa matches all of it and has no pair to fail
ABAA = Tokenizer((b"a", b"b", b"ab", b"aba", b"aa", b"abaa"),
                 ((0, 1, 2), (2, 0, 3), (0, 0, 4), (2, 4, 5)))
# no token b: abc is in the trie, yet no input may tokenize to it
A_BC_ABC = Tokenizer((b"a", b"bc", b"abc"), ((0, 1, 2),))


@settings(max_examples=200)
@given(case=tokenizers_and_texts())
@example(case=(ABAA, b"abaa"))
@example(case=(A_BC_ABC, b"abc"))
@example(case=(A_BC_ABC, b"a\x00b"))  # the error names 0x00, the first bad byte
def test_tokenize_matches_rescan(case):
    t, text = case
    assert outcome(Tokenizer.tokenize, t, text) == outcome(tokenize_by_rescan, t, text)


class _CountedVerdicts(_PairVerdicts):
    """Pair verdicts that count their lookups."""

    def __init__(self, tok):
        super().__init__(tok)
        self.lookups = 0

    def __getitem__(self, pair):
        self.lookups += 1
        return super().__getitem__(pair)


def _counted(t: Tokenizer) -> _CountedVerdicts:
    t.__dict__["_pair_verdicts"] = verdicts = _CountedVerdicts(t)
    return verdicts


def test_tokenize_of_a_long_run_makes_a_lookup_per_token():
    # a, aa, aaaa, aaaaaaaa by nested merges: one lookup per token taken,
    # 1/8 per byte, and no recursion however long the input
    t = Tokenizer((b"a", b"aa", b"aaaa", b"a" * 8), ((0, 0, 1), (1, 1, 2), (2, 2, 3)))
    verdicts = _counted(t)
    n = 100_000
    assert t.tokenize(b"a" * n) == [3] * (n // 8)
    assert verdicts.lookups <= n // 4


def test_tokenize_backtracks_within_its_bound():
    # abaa, the longest match at each block, is in no proper pair, and aa
    # is followed by b, with which it is improper: the search steps back
    # past both, to aba and a
    t = Tokenizer(ABAA.vocab, ABAA.merges)
    verdicts = _counted(t)
    data = b"abaa" * 500
    want = tokenize_by_rescan(t, data)
    assert t.tokenize(data) == want
    longest = max(map(len, t.vocab))
    assert len(want) < verdicts.lookups <= len(data) * longest ** 2


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
# distinct pairs, each twice, in shuffled samples: the top bucket holds
# several pairs for many rounds, and the first occurrence breaks each tie
@example(corpus=[b"gh", b"ab", b"ef", b"cd", b"ef", b"gh", b"cd", b"ab"], num_merges=8)
@example(corpus=[b"ca", b"bd", b"ac", b"db", b"bc", b"ab", b"cb", b"ba", b"ad", b"dc",
                 b"da", b"cd", b"ad", b"ba", b"cd", b"ab", b"ca", b"db", b"bc", b"dc",
                 b"cb", b"ac", b"bd", b"da"], num_merges=20)
@example(corpus=[b"KLMNOPQRST", b"ABCDEFGHIJ", b"ABCDEFGHIJ", b"KLMNOPQRST"], num_merges=30)
# token 0 is the byte 0: before, after and inside merged pairs
@example(corpus=[b"\x00a\x00a\x00", b"a\x00\x00b\x00", b"\x00\x00\x00", b"b\x00a\x00"],
         num_merges=8)
def test_train_matches_recount(corpus, num_merges):
    assert train(corpus, num_merges) == train_by_recount(corpus, num_merges)


@settings(max_examples=200)
@given(corpus=corpora(), num_merges=st.integers(0, 60))
# bc before ab: "abc" is only ever a, bc, so abc is never also ab + c
@example(corpus=[b"abc", b"abc", b"bcx", b"bcx", b"bcx", b"abx", b"abx"], num_merges=6)
def test_every_merge_makes_a_new_token(corpus, num_merges):
    """Merge r makes token 256 + r, as proved in ``train``: no corpus
    spells one byte string with two merges, such as a + bc and ab + c."""
    t = train(corpus, num_merges)
    assert [merged for _, _, merged in t.merges] == list(range(256, 256 + len(t.merges)))


def _rounds_in_any_order(samples: tuple) -> bool:
    """Whether some order of rounds spells one byte string with two merges
    on *samples* (tuples of byte strings, one token each).  A round merges
    every left-to-right occurrence of one pair that occurs and was never
    merged; other samples can steer ``train`` into any such order."""
    seen = set()

    def search(samples, made: dict, ruled: frozenset) -> bool:
        if (samples, ruled) in seen:
            return False
        seen.add((samples, ruled))
        pairs = {pair for s in samples for pair in zip(s, s[1:])} - ruled
        for pair in pairs:
            bs = pair[0] + pair[1]
            if made.get(bs, pair) != pair:
                return True
            out = []
            for s in samples:
                merged, i = [], 0
                while i < len(s):
                    if s[i:i + 2] == pair:
                        merged.append(bs)
                        i += 2
                    else:
                        merged.append(s[i])
                        i += 1
                out.append(tuple(merged))
            if search(tuple(out), {**made, bs: pair}, ruled | {pair}):
                return True
        return False

    return search(samples, {}, frozenset())


@pytest.mark.parametrize("alphabet,size", [(b"ab", 7), (b"abc", 5)])
def test_no_order_of_rounds_spells_a_token_twice(alphabet, size):
    """The premise of ``train``'s proof, exhaustively at toy scale: every
    string up to *size* bytes, whole or cut in two samples."""
    for n in range(2, size + 1):
        for text in itertools.product([bytes([b]) for b in alphabet], repeat=n):
            for cut in range(n):
                parts = (text[:cut], text[cut:]) if cut else (text,)
                assert not _rounds_in_any_order(parts), parts


def _round_lines(corpus, num_merges: int) -> int:
    """The line events of ``train``'s code from its first round on: the
    rounds, their tie-breaks and the final ``Tokenizer``."""
    code = train.__code__
    lines, _ = inspect.getsourcelines(train)
    start = code.co_firstlineno + next(
        k for k, line in enumerate(lines) if "for _ in range(num_merges):" in line)
    events = [0, False]  # line events since the first round; begun?

    def local(frame, event, arg):
        if event == "line":
            if frame.f_code is code and frame.f_lineno == start:
                events[1] = True
            events[0] += events[1]
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename == code.co_filename else None

    outer = sys.gettrace()
    sys.settrace(tracer)
    try:
        train(corpus, num_merges)
    finally:
        sys.settrace(outer)
    return events[0]


def test_a_round_examines_no_pair_counted_once():
    """Pairs that occur once, a few thousand of them, cost the rounds
    nothing: after the initial count, ``train`` runs exactly the same lines
    with them as without them."""
    rng = random.Random(16)
    corpus = [bytes(rng.choice(b"[]ab ") for _ in range(60)) for _ in range(20)]
    once = [bytes(pair) for pair in itertools.product(range(0x80, 0xB0), repeat=2)]
    assert len(once) == 2304
    assert train(corpus + once, 40) == train(corpus, 40)
    assert _round_lines(corpus + once, 40) == _round_lines(corpus, 40)


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
