"""The full tokenization space of a string, and where each point falls.

A byte string usually has many segmentations into vocabulary tokens; the
tokenizer returns exactly one of them.  This module enumerates and counts
all of them, and sorts any given token sequence into one of three kinds:

* Proper — equal to what the tokenizer returns for its own detokenization;
* Mergeable — some adjacent pair matches a merge rule;
* WrongMergeOrder — no pair merges, yet it is not the proper form.

A sequence with both defects counts as Mergeable: the pair scan runs first.
Properness is 2-local (see ``Tokenizer.is_proper``): a sequence is proper
exactly when each adjacent pair is, or, for one token, when that token is.
So the proper sequences form a regular set, and so do the Mergeable ones
(some pair is a merge rule) and the WrongMergeOrder ones (the rest).
"""

from __future__ import annotations

import enum
import itertools
from typing import Iterable, Iterator

from ._value import Frozen
from .bpe import Tokenizer, TokenizerError, check_bytes


class Kind(enum.Enum):
    PROPER = "Proper"
    MERGEABLE = "Mergeable"
    WRONG_MERGE_ORDER = "WrongMergeOrder"


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
    the number of items.  The walk keeps an explicit stack, so the input
    length is not bounded by the recursion limit.  A position is dead when
    no item was yielded while it was on the stack: every walk from it has
    been tried and none reached the end.  Cuts into dead positions are
    skipped, so the time to each next item is polynomial.
    """
    if limit is not None and (type(limit) is not int or limit < 1):  # bool is no count
        raise TokenizerError(f"limit must be an int >= 1 or None, got {limit!r}")
    n = len(check_bytes(data, "data"))

    def walk() -> Iterator[list[int]]:
        if n == 0:
            yield []
            return
        # stack[k] is (start, cuts from start, items yielded before it was
        # pushed) after path[:k], so len(stack) == len(path) + 1
        path: list[int] = []
        stack = [(0, _cuts(t, data, 0), 0)]
        dead: set[int] = set()  # positions from which no walk reaches the end
        items = 0
        while stack:
            step = next(stack[-1][1], None)
            if step is None:
                start, _, before = stack.pop()
                if items == before:
                    dead.add(start)
                if path:
                    path.pop()
                continue
            tid, end = step
            if end in dead:
                continue
            path.append(tid)
            if end == n:
                items += 1
                yield list(path)
                path.pop()
            else:
                stack.append((end, _cuts(t, data, end), items))

    gen = walk()
    return gen if limit is None else itertools.islice(gen, limit)


def count_tokenizations(t: Tokenizer, data: bytes) -> int:
    """Number of segmentations, by suffix DP in O(len · max token length)."""
    n = len(check_bytes(data, "data"))
    counts = [0] * (n + 1)
    counts[n] = 1
    trie = t.trie
    for pos in range(n - 1, -1, -1):
        # the walk of _cuts, inlined: this loop is all the DP costs
        total = 0
        node = trie
        for end in range(pos + 1, n + 1):
            hit = node.get(data[end - 1])
            if hit is None:
                break
            tid, node = hit
            if tid is not None:
                total += counts[end]
        counts[pos] = total
    return counts[0]


def _cuts(t: Tokenizer, data: bytes, pos: int) -> Iterator[tuple[int, int]]:
    """(token ID, end) for each vocabulary token *data* has at *pos*,
    longest first, by one walk down the vocabulary trie."""
    found = []
    node = t.trie
    for end in range(pos + 1, len(data) + 1):
        hit = node.get(data[end - 1])
        if hit is None:
            break
        tid, node = hit
        if tid is not None:
            found.append((tid, end))
        if not node:
            break
    return reversed(found)


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
    seq = t.check_ids(ids)
    sb = t.single_byte_ids
    out: list[int] = []
    for tid in seq:
        for b in t.vocab[tid]:
            base = sb.get(b)
            if base is None:
                raise TokenizerError(
                    f"token {tid} is not decomposable: no single-byte token "
                    f"for byte 0x{b:02x}")
            out.append(base)
    return out


def classify(t: Tokenizer, ids: Iterable[int]) -> Classification:
    """Sort a token sequence into Proper / Mergeable / WrongMergeOrder.

    Properness is ``Tokenizer.is_proper``'s pair test, so a proper
    sequence is never retokenized whole.  An improper one is Mergeable at
    its first pair that a merge rule joins, if it has one.  Only the rest
    are retokenized, as tokenize(detokenize(ids)), because WrongMergeOrder
    carries the proper form.  A tokenizer with a vocabulary byte that has
    no single-byte token raises where ``tokenize`` does, as ``is_proper``
    does.
    """
    seq = t.check_ids(ids)  # the one check of the ids
    proper, at = t._properness(seq)
    if proper:
        return Classification(Kind.PROPER)
    if at is not None:
        return Classification(Kind.MERGEABLE, mergeable_at=at)
    return Classification(Kind.WRONG_MERGE_ORDER, proper_form=tuple(t.tokenize(t._join(seq))))
