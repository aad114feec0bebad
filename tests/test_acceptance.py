"""End-to-end acceptance checks.

Each test covers one exit criterion at its stated tolerance (exact unless
noted) and prints one pass line with its runtime; the stated time budget
is asserted too.
"""

import itertools
import random
import time

import pytest

from toklang import (
    UTF8,
    Kind,
    TokenRecognizer,
    Tokenizer,
    add_leading_space,
    classify,
    count_tokenizations,
    encode_grammar,
    encode_string,
    enumerate_tokenizations,
    find_tokenize_witness,
    recognize,
    sample,
    train,
)
from toklang.toys import (
    aab_tokenizer,
    bracket_tokenizer,
    dyck_grammar,
    dyck_letters_grammar,
    letter_bracket_tokenizer,
    unicode_mix_grammar,
)

from test_recognizer import streamed


class _Budget:
    def __init__(self, name: str, seconds: float):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        if exc_type is not None:
            print(f"FAIL {self.name} ({elapsed:.2f}s)")
            return False
        if elapsed >= self.seconds:
            print(f"FAIL {self.name}: {elapsed:.2f}s over the {self.seconds:.0f}s budget")
            raise AssertionError(f"{self.name} exceeded its {self.seconds}s budget")
        print(f"PASS {self.name} ({elapsed:.2f}s, budget {self.seconds:.0f}s)")
        return False


@pytest.fixture(scope="module")
def trained_300():
    rng = random.Random(2024)
    words = ["alpha", "beta", "gamma", "delta", "omega", "token", "bracket",
             "merge", "vocab", "stream", "byte", "chart", "parser", "prefix",
             "suffix", "[[", "]]", "[]", "aa", "bb", "ab", "aaa", "grammar",
             "session", "proper", "extended", "language", "nested", "deep"]
    corpus = [" ".join(rng.choice(words) for _ in range(20)).encode()
              for _ in range(400)]
    t = train(corpus, 300)
    assert len(t.merges) == 300
    return t


def test_criterion_1_merge_worked_example():
    """Tokenize and classify the aaabb example, exactly."""
    with _Budget("1 merge worked example", 1.0):
        t = aab_tokenizer()
        aaa, bb, aa, ab, b = map(t.vocab.index, (b"aaa", b"bb", b"aa", b"ab", b"b"))
        assert t.tokenize(b"aaabb") == [aaa, bb]
        c = classify(t, [aa, ab, b])
        assert c.kind is Kind.WRONG_MERGE_ORDER
        assert c.proper_form == (aaa, bb)
        assert classify(t, [aaa, bb]).kind is Kind.PROPER


def test_criterion_2_multibyte_split():
    """UTF-8 bytes of 你, and detokenization across a character boundary."""
    with _Budget("2 multi-byte character split", 1.0):
        assert encode_string(UTF8, "你") == bytes([0xE4, 0xBD, 0xA0])
        vocab = (b"\xe4", b"\xbd", b"\xa0", b"\xe4\xbd")
        t = Tokenizer(vocab, ((0, 1, 3),))
        t1, t2 = t.vocab.index(b"\xe4\xbd"), t.vocab.index(b"\xa0")
        assert t.detokenize([t1]) + t.detokenize([t2]) == encode_string(UTF8, "你")
        assert t.detokenize([t1, t2]) == encode_string(UTF8, "你")


def test_criterion_3_detokenize_homomorphism(trained_300):
    """10,000 random pairs each, on the toy and a 300-merge tokenizer."""
    with _Budget("3 detokenize homomorphism x10000", 10.0):
        rng = random.Random(99)
        for t in (aab_tokenizer(), trained_300):
            n = len(t.vocab)
            for _ in range(10000):
                u = [rng.randrange(n) for _ in range(rng.randrange(9))]
                v = [rng.randrange(n) for _ in range(rng.randrange(9))]
                assert t.detokenize(u + v) == t.detokenize(u) + t.detokenize(v)


def test_criterion_4_tokenize_witness(trained_300):
    """A concrete non-homomorphism witness exists whenever merges do."""
    with _Budget("4 tokenize non-homomorphism witness", 1.0):
        t = aab_tokenizer()
        assert t.tokenize(b"a") + t.tokenize(b"a") != t.tokenize(b"aa")
        assert find_tokenize_witness(t) == (b"a", b"a")
        for tok in (t, bracket_tokenizer(), letter_bracket_tokenizer(), trained_300):
            assert tok.merges
            x, y = find_tokenize_witness(tok)
            assert tok.tokenize(x) + tok.tokenize(y) != tok.tokenize(x + y)


def test_criterion_5_oracle_equivalence_exhaustive():
    """All 3,906 bracket-token sequences of length <= 5 agree with the
    character-level recognizer, checked at once and fed token by token."""
    with _Budget("5 oracle equivalence x3906", 30.0):
        g = dyck_grammar()
        t = bracket_tokenizer()
        rec = TokenRecognizer(g, t)
        checked = 0
        for length in range(6):
            for seq in itertools.product([1, 2, 3, 4, 5], repeat=length):
                assert rec.accepts_tokens(seq) == recognize(
                    g, t.detokenize(seq)) == streamed(rec, seq)
                checked += 1
        assert checked == 3906


def test_criterion_6_membership_through_token_space():
    """String membership is decidable through token space, at once and
    token by token: all strings over {a, b, [, ]} up to length 8."""
    with _Budget("6 membership through tokens x87381", 60.0):
        g = dyck_letters_grammar()
        t = letter_bracket_tokenizer()
        rec = TokenRecognizer(g, t)
        checked = 0
        for length in range(9):
            for combo in itertools.product(b"ab[]", repeat=length):
                w = bytes(combo)
                ids = t.tokenize(w)
                assert recognize(g, w) == rec.accepts_tokens(ids) == streamed(rec, ids)
                checked += 1
        assert checked == 87381


def test_criterion_7_partition_and_uniqueness():
    """Enumeration size equals the DP count, with exactly one Proper item
    and a total classification, for every {a,b} string up to length 8."""
    with _Budget("7 partition and uniqueness x511", 60.0):
        t = aab_tokenizer()
        assert count_tokenizations(t, b"aaaa") == 7
        assert count_tokenizations(t, b"aaabb") == 10
        for length in range(9):
            for combo in itertools.product(b"ab", repeat=length):
                s = bytes(combo)
                items = list(enumerate_tokenizations(t, s))
                assert len(items) == count_tokenizations(t, s)
                kinds = [classify(t, ids).kind for ids in items]
                assert sum(k is Kind.PROPER for k in kinds) == 1
                assert all(k in (Kind.PROPER, Kind.MERGEABLE,
                                 Kind.WRONG_MERGE_ORDER) for k in kinds)


def test_criterion_8_encoding_preserves_membership():
    """Byte-encoding the grammar preserves membership for every string of
    up to 6 mixed-width characters."""
    with _Budget("8 encoding preserves membership x1093", 30.0):
        g = unicode_mix_grammar()
        gb = encode_grammar(UTF8, g)
        alphabet = [ord("a"), ord("é"), ord("你")]
        checked = 0
        for length in range(7):
            for w in itertools.product(alphabet, repeat=length):
                assert recognize(g, w) == recognize(gb, encode_string(UTF8, w))
                checked += 1
        assert checked == 1093


def test_criterion_9_leading_space_transform():
    """The leading-space language accepts exactly space + member, checked
    on 1,000 sampled members; nothing without the space gets in."""
    with _Budget("9 leading-space transform x1000", 10.0):
        g = dyck_grammar()
        gs = add_leading_space(g)
        rng = random.Random(7)
        drawn = 0
        while drawn < 1000:
            w = sample(g, 120, rng)
            if w is None:
                continue
            drawn += 1
            assert recognize(gs, b" " + w) == recognize(g, w) is True
            assert not recognize(gs, w)  # members never start with a space
        assert not recognize(gs, b"")
        assert not recognize(gs, b"[]")
        assert recognize(gs, b" ")


def test_criterion_10_next_token_sets_exact():
    """allowed_next_tokens equals the brute-force per-token trial set on
    1,000 random live sessions."""
    with _Budget("10 next-token sets x1000", 30.0):
        rec = TokenRecognizer(dyck_grammar(), bracket_tokenizer())
        vocab_size = len(rec.tokenizer.vocab)
        rng = random.Random(1234)
        for _ in range(1000):
            session = rec.open_session()
            for _ in range(rng.randrange(7)):
                live_ids = sorted(
                    tid for tid in (1, 2, 3, 4, 5)
                    if session.clone().feed(tid).live)
                if not live_ids:
                    break
                session.feed(rng.choice(live_ids))
            assert session.live
            brute = {tid for tid in range(vocab_size)
                     if session.clone().feed(tid).live}
            assert session.allowed_next_tokens() == brute
