"""Small grammars and tokenizers shared by the test suite, the property
suites, and the docs.  They are deliberately tiny so exhaustive checks
stay cheap."""

from __future__ import annotations

from .bpe import Tokenizer, _tokenizer_from, loads_tokenizer
from .grammar import Grammar, parse_grammar

DYCK_GRAMMAR_TEXT = """\
# Balanced square brackets, empty string included.
S -> "" | "[" S "]" S ;
"""

DYCK_LETTERS_GRAMMAR_TEXT = """\
# Balanced square brackets with letters a/b sprinkled anywhere.
S -> "" | "[" S "]" S | "a" S | "b" S ;
"""

UNICODE_MIX_GRAMMAR_TEXT = """\
# Terminals of one, two, and three UTF-8 bytes: a, é, 你.
S -> "" | "a" S "你" | "é" ;
"""

# Vocabulary {a, b, aa, ab, aaa, bb} with merges, in order:
# a+a->aa, aa+a->aaa, a+b->ab, b+b->bb.  Proper tokenization of "aaabb"
# is [aaa, bb] = [4, 5]; swapping merges 2 and 3 turns it into
# [aa, ab, b] instead (the classic wrong-merge-order demo).
AAB_TOKENIZER_JSON = """\
{
  "version": 1,
  "vocab": {"a": 0, "b": 1, "aa": 2, "ab": 3, "aaa": 4, "bb": 5},
  "merges": [["a", "a"], ["aa", "a"], ["a", "b"], ["b", "b"]]
}
"""


def dyck_grammar(alphabet: str = "byte") -> Grammar:
    return parse_grammar(DYCK_GRAMMAR_TEXT, alphabet)


def dyck_letters_grammar() -> Grammar:
    return parse_grammar(DYCK_LETTERS_GRAMMAR_TEXT, "byte")


def unicode_mix_grammar() -> Grammar:
    return parse_grammar(UNICODE_MIX_GRAMMAR_TEXT, "unicode")


def aab_tokenizer() -> Tokenizer:
    return loads_tokenizer(AAB_TOKENIZER_JSON)


def byte_identity_tokenizer() -> Tokenizer:
    """All 256 single-byte tokens, no merges: one token per byte."""
    return Tokenizer(tuple(bytes([b]) for b in range(256)))


def bracket_tokenizer() -> Tokenizer:
    """Byte-base tokenizer whose interesting IDs are the bracket pieces.

    IDs 1..5 are [  ]  []  [[  ]]; every other byte keeps a single-byte
    token at some higher ID.  Merge order puts [+[ first, so the proper
    tokenization of "[[]]" is [4, 5], not [1, 3, 2].
    """
    vocab = [b"\x00", b"[", b"]", b"[]", b"[[", b"]]"]
    vocab += [bytes([b]) for b in range(256) if b not in (0x00, 0x5B, 0x5D)]
    merges = [(b"[", b"["), (b"]", b"]"), (b"[", b"]")]
    return _tokenizer_from(vocab, [(a, b, a + b) for a, b in merges], "merge {!r}")


def letter_bracket_tokenizer() -> Tokenizer:
    """Byte-identity base plus merges over both letters and brackets."""
    vocab = [bytes([b]) for b in range(256)]
    vocab += [b"aa", b"aaa", b"ab", b"bb", b"[[", b"]]", b"[]"]
    merges = [(b"a", b"a"), (b"aa", b"a"), (b"a", b"b"), (b"b", b"b"),
              (b"[", b"["), (b"]", b"]"), (b"[", b"]")]
    return _tokenizer_from(vocab, [(a, b, a + b) for a, b in merges], "merge {!r}")
