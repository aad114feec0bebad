"""Character encoding schemes and the character→byte grammar transform.

A grammar over Unicode characters becomes an equivalent grammar over bytes
by splicing each character terminal into its encoded byte sequence; the
byte grammar accepts exactly the encodings of the original language's
members.
"""

from __future__ import annotations

from typing import Callable

from ._value import DataError, Frozen
from .grammar import Grammar, GrammarError, Production, _valid_terminal


class EncodingError(DataError):
    """A scalar value the scheme cannot encode, or a malformed scheme."""


def _utf8_char(cp: int) -> bytes:
    if not _valid_terminal(cp, "unicode"):
        raise EncodingError(f"cannot UTF-8 encode scalar value {cp!r}")
    return chr(cp).encode("utf-8")


class EncodingScheme(Frozen):
    """Injective map from Unicode scalar values to nonempty byte sequences.

    Prefix-decodability is assumed, not verified; UTF-8 has it by design.
    ``encode_char`` takes a code point and returns its bytes.
    """

    name: str
    encode_char: Callable[[int], bytes]
    _fields = ("name", "encode_char")

    def __init__(self, name, encode_char):
        self.__dict__.update(name=name, encode_char=encode_char)
        if not isinstance(name, str):
            raise EncodingError(f"name must be a str, got {type(name).__name__}")
        if not callable(encode_char):
            raise EncodingError(
                f"encode_char must be callable, got {type(encode_char).__name__}")


UTF8 = EncodingScheme("utf8", _utf8_char)


def encode_string(scheme: EncodingScheme, s) -> bytes:
    """Concatenate per-character encodings: a string homomorphism.

    *s* may be a str or an iterable of code points.
    """
    cps = map(ord, s) if isinstance(s, str) else s
    return b"".join(scheme.encode_char(cp) for cp in cps)


def encode_grammar(scheme: EncodingScheme, g: Grammar) -> Grammar:
    """Replace every character terminal by its byte sequence, in place in
    each production body.  Nonterminal structure is untouched."""
    if g.alphabet != "unicode":
        raise GrammarError("encode_grammar expects a unicode-alphabet grammar")
    productions = []
    for head, body in g.productions:
        spliced: list[str | int] = []
        for sym in body:
            if isinstance(sym, int):
                spliced.extend(scheme.encode_char(sym))
            else:
                spliced.append(sym)
        productions.append(Production(head, tuple(spliced)))
    return Grammar(
        g.nonterminals,
        "byte",
        tuple(dict.fromkeys(productions)),
        g.start,
    )
