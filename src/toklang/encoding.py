"""Character encoding schemes and the character→byte grammar transform.

A grammar over Unicode characters becomes an equivalent grammar over bytes
by splicing each character terminal into its encoded byte sequence; the
byte grammar accepts exactly the encodings of the original language's
members.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .grammar import Grammar, GrammarError, Production


class EncodingError(ValueError):
    """A scalar value the scheme cannot encode."""


def _utf8_char(cp: int) -> bytes:
    if type(cp) is not int or not 0 <= cp <= 0x10FFFF or 0xD800 <= cp <= 0xDFFF:
        raise EncodingError(f"cannot UTF-8 encode scalar value {cp!r}")
    return chr(cp).encode("utf-8")


@dataclass(frozen=True)
class EncodingScheme:
    """Injective map from Unicode scalar values to nonempty byte sequences.

    Prefix-decodability is assumed, not verified; UTF-8 has it by design.
    ``encode_char`` takes a code point and returns its bytes.
    """

    name: str
    encode_char: Callable[[int], bytes]


UTF8 = EncodingScheme("utf8", _utf8_char)


def encode_string(scheme: EncodingScheme, s) -> bytes:
    """Concatenate per-character encodings: a string homomorphism.

    *s* may be a str or an iterable of code points.
    """
    cps = map(ord, s) if isinstance(s, str) else s
    return b"".join(scheme.encode_char(cp) for cp in cps)


def encode_grammar(scheme: EncodingScheme, g: Grammar) -> Grammar:
    """Replace every character terminal by its byte sequence, in place in
    each production body.  Nonterminal structure is untouched, so a reduced
    input stays reduced."""
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
        reduced=g.reduced,
    )
