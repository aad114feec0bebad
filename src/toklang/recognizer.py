"""Recognition of token-ID sequences against a byte grammar.

Detokenization is a homomorphism from token IDs to bytes, so a token
sequence belongs to the token image of a language exactly when its
detokenization belongs to the language.  The batch checks decide just
that, by ``recognize`` of ``detokenize``.  For decoding, a ``TokenSession``
drains each token's bytes, in order, into an incremental byte-level
session, so its next-token mask is read off the chart.  Tokens may split
multi-byte characters; bytes are bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .bpe import Tokenizer, TokenizerError
from .grammar import Grammar, GrammarError, RecognitionSession, recognize


@dataclass(frozen=True)
class TokenRecognizer:
    """A reduced byte-alphabet grammar paired with a byte-base tokenizer.

    Immutable and shareable.  Decides membership in the extended token
    language (any segmentation of a member string) and, with the
    classification check, in the proper token language (the tokenizer's
    own segmentations only).
    """

    grammar: Grammar
    tokenizer: Tokenizer

    def __post_init__(self):
        if self.grammar.alphabet != "byte":
            raise GrammarError(
                "token recognition needs a byte-alphabet grammar; encode it first")
        if not self.grammar.reduced:
            raise GrammarError("token recognition needs a reduced grammar")
        if not self.tokenizer.byte_base:
            raise TokenizerError("token recognition needs a byte-base tokenizer")

    def open_session(self) -> "TokenSession":
        return TokenSession(self)

    def accepts_tokens(self, ids: Iterable[int]) -> bool:
        """True iff detokenize(ids), the one check of the ids, is a member."""
        return recognize(self.grammar, self.tokenizer.detokenize(ids))

    def accepts_proper(self, ids: Iterable[int]) -> bool:
        """accepts_tokens, and the sequence is a proper tokenization.

        Membership in the intersection of the extended token language with
        the tokenizer's image: the sequence must both detokenize into the
        language and be exactly what the tokenizer returns for that string.
        The retokenize comes first: it costs a fraction of the chart pass
        per byte, so a sequence that is not proper never runs the chart.
        """
        seq = list(ids)
        data = self.tokenizer.detokenize(seq)  # the one check of the ids
        return self.tokenizer.tokenize(data) == seq and recognize(self.grammar, data)


class TokenSession:
    """Token-by-token recognition state.

    Wraps a byte-level session; feeding a token drains its bytes into it
    immediately, so the inner session has always consumed exactly the
    detokenization of the tokens fed.  Single-owner; ``clone`` forks for
    speculative exploration.
    """

    __slots__ = ("recognizer", "inner", "tokens_consumed")

    def __init__(self, recognizer: TokenRecognizer):
        self.recognizer = recognizer
        self.inner = RecognitionSession(recognizer.grammar)
        self.tokens_consumed = 0

    @property
    def live(self) -> bool:
        return self.inner.live

    @property
    def died_at(self) -> int | None:
        """Byte offset (in the detokenized stream) where the session died."""
        return self.inner.died_at

    def accepts(self) -> bool:
        return self.inner.accepts()

    def feed(self, token_id: int) -> "TokenSession":
        tokenizer = self.recognizer.tokenizer
        for b in tokenizer.vocab[tokenizer.check_id(token_id)]:
            self.inner.feed(b)
        self.tokens_consumed += 1
        return self

    def clone(self) -> "TokenSession":
        s = object.__new__(TokenSession)
        s.recognizer = self.recognizer
        s.inner = self.inner.clone()
        s.tokens_consumed = self.tokens_consumed
        return s

    def allowed_next_tokens(self) -> set[int]:
        """Exactly the token IDs that keep this session live.

        Walks the vocabulary's byte trie depth first, entering only the
        bytes the chart expects.  A token whose last byte is expected is
        allowed without advancing (a reduced grammar's chart never dies on
        an expected byte); a prefix shared by longer tokens is advanced
        once, on a clone, for all of them.  The parent session is never
        touched.  A dead session allows nothing.
        """
        if not self.live:
            return set()
        allowed: set[int] = set()
        stack = [(self.inner, self.recognizer.tokenizer.trie)]
        while stack:
            session, node = stack.pop()
            for b in session.expected():
                tid, children = node.get(b, (None, None))
                if tid is not None:
                    allowed.add(tid)
                if children:
                    stack.append((session.clone().feed(b), children))
        return allowed


def relevant_token_ids(rec: TokenRecognizer) -> list[int]:
    """IDs whose token bytes all occur as grammar terminals.

    Any other token contains a byte no member string can contain, so it
    kills every session instantly; exhaustive suites only need to range
    over these.
    """
    terms = rec.grammar.terminals_used
    return [i for i, bs in enumerate(rec.tokenizer.vocab)
            if all(b in terms for b in bs)]
