"""The full tokenization space of a string, and where each point falls.

A byte string usually has many segmentations into vocabulary tokens; the
tokenizer returns exactly one of them.  This module enumerates and counts
all of them, and sorts any given token sequence into one of the three
``Kind``s that ``Tokenizer._properness`` tells apart, adding the proper
form to a WrongMergeOrder one.

Properness is 2-local (see ``Tokenizer.is_proper``): a sequence is proper
exactly when each adjacent pair is, or, for one token, when that token is.
So the proper sequences form a regular set, and so do the Mergeable ones
(some pair is a merge rule) and the WrongMergeOrder ones (the rest).
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Iterable, Iterator

from ._value import Frozen
from .bpe import Kind, Tokenizer, TokenizerError, _longest, check_bytes


class Classification(Frozen):
    kind: Kind
    mergeable_at: int | None             # Mergeable: first mergeable pair
    proper_form: tuple[int, ...] | None  # WrongMergeOrder: what it should be
    _fields = ("kind", "mergeable_at", "proper_form")

    def __init__(self, kind, mergeable_at=None, proper_form=None):
        self.__dict__.update(kind=kind, mergeable_at=mergeable_at, proper_form=proper_form)

    def __str__(self) -> str:
        if self.kind is Kind.MERGEABLE:
            return f"Mergeable at {self.mergeable_at}"
        if self.kind is Kind.WRONG_MERGE_ORDER:
            return "WrongMergeOrder; proper = " + " ".join(map(str, self.proper_form))
        return "Proper"


def enumerate_tokenizations(t: Tokenizer, data: bytes,
                            limit: int | None = None) -> Iterator[list[int]]:
    """Lazily yield every segmentation of *data* into vocabulary tokens.

    Longest token first at each cut, depth first, so the all-single-byte
    segmentation (when it exists) comes last.  Each segmentation appears
    exactly once; an unsegmentable input yields nothing.  ``limit`` caps
    the number of items.  The tokens at an offset are its ``_longest``
    match, then the ``shorter`` chain of ``Tokenizer._trie``, the order
    ``tokenize`` tries them in; a step back resumes at the next shorter
    token, so the walk keeps only its path and the input length is not
    bounded by the recursion limit.  A position is dead when no item was
    yielded while it was on the path: every walk from it has been tried
    and none reached the end.  Cuts into dead positions are skipped, so
    the time to each next item is polynomial.
    """
    if limit is not None and (type(limit) is not int or limit < 1):  # bool is no count
        raise TokenizerError(f"limit must be an int >= 1 or None, got {limit!r}")
    n = len(check_bytes(data, "data"))

    def walk() -> Iterator[list[int]]:
        if n == 0:
            yield []
            return
        children, token, shorter, longest = t._trie
        vocab = t.vocab
        path: list[int] = []
        before: list[int] = []  # before[k]: items yielded when path[k] was taken
        dead: set[int] = set()  # positions from which no walk reaches the end
        items, pos = 0, 0
        tid = _longest(children, token, data, 0, longest)
        while True:
            while tid >= 0:
                end = pos + len(vocab[tid])
                if end == n:
                    items += 1
                    yield path + [tid]
                elif end not in dead:
                    break
                tid = shorter[tid]
            if tid >= 0:  # take tid and go on from end
                path.append(tid)
                before.append(items)
                pos, tid = end, _longest(children, token, data, end, longest)
            elif path:  # every token at pos is tried: step back
                if items == before.pop():
                    dead.add(pos)
                tid = path.pop()
                pos -= len(vocab[tid])
                tid = shorter[tid]
            else:
                return

    gen = walk()
    return gen if limit is None else itertools.islice(gen, limit)


def count_tokenizations(t: Tokenizer, data: bytes) -> int:
    """Number of segmentations, by one forward pass of
    ``Tokenizer._automaton``: the count up to an offset is the sum of the
    counts up to the start of each token that ends there.

    Per byte: one transition, amortized (a failure step makes the state
    shallower, a byte deepens it by one at most), and one big-integer
    addition fewer than the tokens that end there, each O(n) as the counts
    grow exponentially.  Only the last L counts are kept, for the longest
    token length L.
    """
    check_bytes(data, "data")
    children, failure, ends, longest = t._automaton
    last = deque([1], maxlen=longest)  # the counts up to the last L offsets, latest last
    state = 0
    for b in data:
        nxt = children[state].get(b)
        while nxt is None:
            state = failure[state]
            nxt = children[state].get(b)
        state = nxt
        total = 0
        for k in ends[state]:
            total = total + last[k] if total else last[k]
        last.append(total)
    return last[-1]


def find_mergeable_pair(t: Tokenizer, ids: Iterable[int]) -> int | None:
    """Index of the first adjacent pair matching a merge rule, else None."""
    return t._mergeable_at(t.check_ids(ids))


def unmerge(t: Tokenizer, ids: Iterable[int]) -> list[int]:
    """Expand every token down to single-byte tokens.

    Because every merge output is the concatenation of its inputs, undoing
    merges all the way down lands on the token's byte string, so this maps
    each byte straight to its single-byte token.  Detokenization is
    unchanged: detokenize(unmerge(ids)) == detokenize(ids).
    """
    data = t.detokenize(ids)  # the one check of the ids
    t._check_covered(data)
    return list(map(t.single_byte_ids.__getitem__, data))


def classify(t: Tokenizer, ids: Iterable[int]) -> Classification:
    """Sort a token sequence into Proper / Mergeable / WrongMergeOrder.

    The kind, and where Mergeable the first pair a merge rule joins, is
    ``Tokenizer._properness``'s, which raises where ``is_proper`` does and
    runs no ``tokenize``.  Only WrongMergeOrder is retokenized, as
    tokenize(detokenize(ids)), because it carries the proper form.
    """
    seq = t.check_ids(ids)  # the one check of the ids
    kind, at = t._properness(seq)
    if kind is Kind.WRONG_MERGE_ORDER:
        return Classification(kind, proper_form=tuple(t.tokenize(t._join(seq))))
    return Classification(kind, mergeable_at=at)
