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

from functools import cached_property
from typing import Iterable

from ._value import Frozen
from .bpe import Tokenizer, TokenizerError
from .grammar import Grammar, GrammarError, RecognitionSession, _advance, _expected, recognize


class TokenRecognizer(Frozen):
    """A byte-alphabet grammar paired with a byte-base tokenizer.

    Immutable and shareable.  Decides membership in the extended token
    language (any segmentation of a member string) and, with
    ``Tokenizer.is_proper``, in the proper token language (the
    tokenizer's own segmentations only).  Recognition runs on the
    grammar's reduced form, so any grammar may be given.
    """

    grammar: Grammar
    tokenizer: Tokenizer
    _fields = ("grammar", "tokenizer")

    def __init__(self, grammar, tokenizer):
        self.__dict__.update(grammar=grammar, tokenizer=tokenizer)
        if self.grammar.alphabet != "byte":
            raise GrammarError(
                "token recognition needs a byte-alphabet grammar; encode it first")
        if not self.tokenizer.byte_base:
            raise TokenizerError("token recognition needs a byte-base tokenizer")

    def open_session(self) -> "TokenSession":
        return TokenSession(self)

    @cached_property
    def _class_trie(self) -> dict[int, list]:
        """The relevant tokens by the classes of their bytes (see the
        grammar's ``_Chart``): class -> [the IDs of the tokens that end
        there, children], where children is a dict of the same shape."""
        of = self.grammar._reduced._chart.of
        vocab = self.tokenizer.vocab
        root: dict[int, list] = {}
        for tid in relevant_token_ids(self):
            node = root
            for b in vocab[tid][:-1]:
                node = node.setdefault(of[b], [[], {}])[1]
            node.setdefault(of[vocab[tid][-1]], [[], {}])[0].append(tid)
        return root

    def accepts_tokens(self, ids: Iterable[int]) -> bool:
        """True iff detokenize(ids), the one check of the ids, is a member."""
        return recognize(self.grammar, self.tokenizer.detokenize(ids))

    def accepts_proper(self, ids: Iterable[int]) -> bool:
        """accepts_tokens, and the sequence is a proper tokenization.

        Membership in the intersection of the extended token language with
        the tokenizer's image: the sequence must both detokenize into the
        language and be exactly what the tokenizer returns for that string.
        ``Tokenizer.is_proper`` decides the latter pair by pair, from its
        memo for pairs seen before, and comes first: a sequence that is not
        proper never runs the chart.
        """
        tokenizer = self.tokenizer
        seq = tokenizer.check_ids(ids)  # the one check of the ids
        return (tokenizer._is_proper(seq, tokenizer._mergeable_at(seq))
                and recognize(self.grammar, tokenizer._join(seq)))


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

        Walks the recognizer's class trie depth first, paired with chart
        positions, entering only the classes a position expects.  The
        tokens whose last byte is in an expected class are allowed without
        advancing (the chart runs on the reduced grammar, where an expected
        class always leaves it live); a class prefix shared by longer
        tokens is advanced once, from its parent's position, for all of
        them, whatever bytes they spell it with.  Positions are immutable,
        so the session is never touched.  A dead session allows nothing.
        """
        if not self.live:
            return set()
        chart = self.inner._chart
        allowed: set[int] = set()
        stack = [(self.inner._last, self.recognizer._class_trie)]
        while stack:
            pos, node = stack.pop()
            for c in _expected(pos):
                hit = node.get(c)
                if hit is not None:
                    ids, children = hit
                    if ids:
                        allowed.update(ids)
                    if children:
                        stack.append((_advance(chart, pos, c), children))
        return allowed


def relevant_token_ids(rec: TokenRecognizer) -> list[int]:
    """IDs whose token bytes all occur as grammar terminals.

    Any other token contains a byte no member string can contain, so it
    kills every session instantly; exhaustive suites only need to range
    over these.
    """
    terms = rec.grammar._reduced.terminals_used
    return [i for i, bs in enumerate(rec.tokenizer.vocab)
            if all(b in terms for b in bs)]
