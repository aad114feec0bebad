import itertools

import pytest
from hypothesis import given, strategies as st

from toklang import (
    UTF8,
    EncodingError,
    GrammarError,
    RecognitionSession,
    encode_grammar,
    encode_string,
    parse_grammar,
    recognize,
    reduce_grammar,
)
from toklang.toys import unicode_mix_grammar

from oracles import strings_up_to


def test_encode_cjk_char():
    assert encode_string(UTF8, "你") == b"\xe4\xbd\xa0"


def test_encode_ascii_and_empty():
    assert encode_string(UTF8, "a") == b"\x61"
    assert encode_string(UTF8, "") == b""


def test_encode_accepts_code_points():
    assert encode_string(UTF8, [0x4F60, 0x61]) == b"\xe4\xbd\xa0a"


def test_encode_rejects_surrogates():
    with pytest.raises(EncodingError):
        encode_string(UTF8, [0xD800])
    with pytest.raises(EncodingError):
        encode_string(UTF8, [0x110000])


def test_encode_rejects_bool():
    # bool is an int subclass; True would encode as b"\x01"
    with pytest.raises(EncodingError, match="scalar value True"):
        encode_string(UTF8, [True])


@given(st.text())
def test_encode_matches_standard_utf8(s):
    assert encode_string(UTF8, s) == s.encode("utf-8")


@given(st.text(), st.text())
def test_encode_is_a_homomorphism(u, v):
    assert encode_string(UTF8, u + v) == encode_string(UTF8, u) + encode_string(UTF8, v)


def test_encode_grammar_single_cjk():
    g = reduce_grammar(parse_grammar('S -> "你" ;', "unicode"))
    gb = encode_grammar(UTF8, g)
    assert gb.alphabet == "byte"
    assert recognize(gb, b"\xe4\xbd\xa0")
    assert not recognize(gb, b"\xe4\xbd")


def test_encode_grammar_ascii_is_identity_on_terminals():
    g = reduce_grammar(parse_grammar('S -> "" | "[" S "]" S ;', "unicode"))
    gb = encode_grammar(UTF8, g)
    assert gb.terminals_used == frozenset({0x5B, 0x5D})
    assert recognize(gb, b"[[]]") == recognize(g, "[[]]") is True


def test_encode_grammar_epsilon_language():
    g = reduce_grammar(parse_grammar('S -> "" ;', "unicode"))
    gb = encode_grammar(UTF8, g)
    assert recognize(gb, b"") and not recognize(gb, b"a")


def test_encode_grammar_requires_unicode_alphabet():
    g = parse_grammar('S -> "a" ;', "byte")
    with pytest.raises(GrammarError):
        encode_grammar(UTF8, g)


def test_membership_preservation_short_strings():
    # exhaustive over 1-, 2-, and 3-byte characters, strings of <= 4 chars
    g = unicode_mix_grammar()
    gb = encode_grammar(UTF8, g)
    alphabet = [ord("a"), ord("é"), ord("你")]
    for n in range(5):
        for w in itertools.product(alphabet, repeat=n):
            assert recognize(g, w) == recognize(gb, encode_string(UTF8, w))


def test_byte_grammar_accepts_exactly_the_encoded_members():
    # walk the byte trie (pruned by liveness) and collect accepted strings
    g = unicode_mix_grammar()
    gb = encode_grammar(UTF8, g)
    max_bytes = 6
    accepted = set()

    def walk(session, prefix):
        if session.accepts():
            accepted.add(bytes(prefix))
        if len(prefix) == max_bytes:
            return
        for b in sorted(gb.terminals_used):
            child = session.clone().feed(b)
            if child.live:
                walk(child, prefix + [b])

    walk(RecognitionSession(gb), [])

    members = strings_up_to(g, max_bytes)  # chars <= bytes, so this covers all
    expected = {
        encode_string(UTF8, w) for w in members
        if len(encode_string(UTF8, w)) <= max_bytes
    }
    assert accepted == expected
