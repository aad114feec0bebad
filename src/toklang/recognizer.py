"""Recognition of token-ID sequences against a byte grammar.

Detokenization is a homomorphism from token IDs to bytes, so a token
sequence belongs to the token image of a language exactly when its
detokenization belongs to the language.  The batch checks decide just
that, by ``recognize`` of ``detokenize``.  For decoding, and for the
command line's token modes, a ``TokenSession`` drains each token's bytes
into a byte-level session in one call, and the byte session walks its
chart for the next-token mask.  This module only maps tokens to bytes;
chart positions are the grammar's, properness the tokenizer's.  Tokens
may split multi-byte characters; bytes are bytes.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable

from ._value import Frozen
from .bpe import Kind, Tokenizer, TokenizerError
from .grammar import Grammar, GrammarError, RecognitionSession, _allowed, recognize


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
        if not isinstance(grammar, Grammar):
            raise GrammarError(f"grammar must be a Grammar, got {type(grammar).__name__}")
        if self.grammar.alphabet != "byte":
            raise GrammarError(
                "token recognition needs a byte-alphabet grammar; encode it first")
        if not isinstance(tokenizer, Tokenizer):
            raise TokenizerError(f"tokenizer must be a Tokenizer, got {type(tokenizer).__name__}")
        if not self.tokenizer.byte_base:
            raise TokenizerError("token recognition needs a byte-base tokenizer")

    def open_session(self) -> "TokenSession":
        return TokenSession(self)

    @cached_property
    def _class_trie(self) -> dict[int, list]:
        """The relevant tokens by the classes of their bytes."""
        vocab = self.tokenizer.vocab
        return self.grammar._reduced._chart.class_trie(
            (tid, vocab[tid]) for tid in relevant_token_ids(self))

    @cached_property
    def _masks(self) -> dict[int, tuple[frozenset[int], dict]]:
        """Per prediction table, by its id, its ``_Chart.split`` of the class trie."""
        return {}

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
        t = self.tokenizer
        seq = t.check_ids(ids)  # the one check of the ids
        return t._properness(seq)[0] is Kind.PROPER and recognize(self.grammar, t._join(seq))


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
        """Check *token_id* and drain its bytes in one call, unchecked: a
        byte-base tokenizer's bytes are all byte terminals.  The session
        may die inside the token; ``died_at`` is then that byte's offset,
        and the token still counts in ``tokens_consumed``."""
        tokenizer = self.recognizer.tokenizer
        self.inner._feed_checked(tokenizer.vocab[tokenizer.check_id(token_id)])
        self.tokens_consumed += 1
        return self

    def clone(self) -> "TokenSession":
        s = object.__new__(TokenSession)
        s.recognizer = self.recognizer
        s.inner = self.inner.clone()
        s.tokens_consumed = self.tokens_consumed
        return s

    def allowed_next_tokens(self) -> set[int]:
        """Exactly the token IDs that keep this session live, in two parts
        keyed by the chart position's prediction table, as XGrammar (Dong et
        al., 2024) parts the tokens that need no context from the others.
        First the ids that the table alone allows, ``_Chart.split`` of the
        class trie, cached per table: the position holds the table's items
        and more, so they are allowed here too.  Then the others, by a walk
        of their class trie from the position, one chart advance per
        expected class prefix.  A dead session allows nothing."""
        if not self.inner.live:
            return set()
        chart, pos, masks = self.inner.grammar._chart, self.inner._last, self.recognizer._masks
        if id(pos.pred) not in masks:  # a table lives as long as its chart
            masks[id(pos.pred)] = chart.split(pos.pred, self.recognizer._class_trie)
        sure, rest = masks[id(pos.pred)]
        return _allowed(chart, pos, rest) | sure


def relevant_token_ids(rec: TokenRecognizer) -> list[int]:
    """IDs whose token bytes all occur as grammar terminals.

    Any other token contains a byte no member string can contain, so it
    kills every session instantly; exhaustive suites only need to range
    over these.
    """
    terms = rec.grammar._reduced.terminals_used
    return [i for i, bs in enumerate(rec.tokenizer.vocab)
            if all(b in terms for b in bs)]
