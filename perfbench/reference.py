"""Answers known by construction, computed without calling the code under test.

Every function here reads only plain data (a tokenizer's ``vocab`` and
``merges`` tuples, byte strings) and reimplements what it needs with a
different algorithm from the library's, so a defect in the library cannot
make its own checker agree with it.
"""

from __future__ import annotations

import heapq


class MergeTable:
    """A tokenizer's merge rules, rebuilt from its raw tuples."""

    def __init__(self, vocab: tuple[bytes, ...], merges: tuple[tuple[int, int, int], ...]):
        self.vocab = vocab
        self.ranks: dict[tuple[int, int], tuple[int, int]] = {}
        for rank, (left, right, merged) in enumerate(merges):
            self.ranks.setdefault((left, right), (rank, merged))
        self.single = {bs[0]: i for i, bs in enumerate(vocab) if len(bs) == 1}
        # merged id -> its lowest-ranked (left, right) inputs
        self.inputs: dict[int, tuple[int, int]] = {}
        for left, right, merged in merges:
            self.inputs.setdefault(merged, (left, right))

    def tokenize(self, data: bytes) -> list[int]:
        """Lowest-ranked pair first, leftmost among equals: a heap over
        pair positions on a linked list, not the library's rescan loop."""
        ids = [self.single[b] for b in data]
        n = len(ids)
        nxt = list(range(1, n + 1))
        prv = list(range(-1, n - 1))
        alive = [True] * n
        ranks = self.ranks
        heap = [(ranks[(ids[i], ids[i + 1])][0], i)
                for i in range(n - 1) if (ids[i], ids[i + 1]) in ranks]
        heapq.heapify(heap)
        while heap:
            rank, i = heapq.heappop(heap)
            j = nxt[i]
            if not alive[i] or j >= n:
                continue
            hit = ranks.get((ids[i], ids[j]))
            if hit is None or hit[0] != rank:
                continue  # stale entry: a neighbour merged since it was pushed
            ids[i] = hit[1]
            alive[j] = False
            k = nxt[i] = nxt[j]
            if k < n:
                prv[k] = i
                hit = ranks.get((ids[i], ids[k]))
                if hit is not None:
                    heapq.heappush(heap, (hit[0], i))
            p = prv[i]
            if p >= 0:
                hit = ranks.get((ids[p], ids[i]))
                if hit is not None:
                    heapq.heappush(heap, (hit[0], p))
        return [ids[i] for i in range(n) if alive[i]]

    def split_one(self, ids: list[int], rng) -> tuple[list[int], int] | None:
        """Replace one merged token by its merge inputs.

        Returns the new sequence and the index of its first adjacent pair
        that is a merge rule (the split pair itself is one, so there always
        is such an index), or None when no token is a merge output.
        """
        merged_at = [i for i, t in enumerate(ids) if t in self.inputs]
        if not merged_at:
            return None
        i = rng.choice(merged_at)
        out = ids[:i] + list(self.inputs[ids[i]]) + ids[i + 1:]
        return out, self.first_mergeable(out)

    def first_mergeable(self, ids: list[int]) -> int | None:
        for i in range(len(ids) - 1):
            if (ids[i], ids[i + 1]) in self.ranks:
                return i
        return None

    def join(self, ids) -> bytes:
        return b"".join(self.vocab[t] for t in ids)

    def kind(self, ids: list[int], proper: list[int]) -> str:
        """Proper / Mergeable / WrongMergeOrder, given the proper form."""
        if ids == proper:
            return "Proper"
        if self.first_mergeable(ids) is not None:
            return "Mergeable"
        return "WrongMergeOrder"


def count_segmentations(vocab: tuple[bytes, ...], data: bytes) -> int:
    """Segmentations of *data* into vocabulary strings: a forward DP that
    walks a byte trie of the vocabulary from each reachable position."""
    trie: dict = {}
    for bs in vocab:
        node = trie
        for b in bs:
            node = node.setdefault(b, {})
        node[None] = True
    n = len(data)
    ways = [0] * (n + 1)
    ways[0] = 1
    for i in range(n):
        w = ways[i]
        if not w:
            continue
        node = trie
        j = i
        while j < n:
            node = node.get(data[j])
            if node is None:
                break
            j += 1
            if None in node:
                ways[j] += w
    return ways[n]


class DyckLetters:
    """Viable prefixes of ``S -> "" | "[" S "]" S | "a" S | "b" S``, or of
    the plain Dyck toy when *letters* is empty.

    A prefix is viable iff every byte is a bracket or one of *letters* and
    the bracket depth never goes below zero, so a token is allowed after a
    prefix of depth d iff its bytes are in that set and its lowest running
    depth is at least -d.
    """

    def __init__(self, vocab: tuple[bytes, ...], letters: bytes = b"ab"):
        self.delta: list[int] = []
        low: list[tuple[int, int]] = []  # (lowest running depth, id) of valid tokens
        for tid, bs in enumerate(vocab):
            depth = lowest = 0
            valid = True
            for b in bs:
                if b == 0x5B:
                    depth += 1
                elif b == 0x5D:
                    depth -= 1
                    lowest = min(lowest, depth)
                elif b not in letters:
                    valid = False
                    break
            self.delta.append(depth)
            if valid:
                low.append((lowest, tid))
        low.sort(reverse=True)
        self._low = low

    def allowed(self, depth: int) -> list[int]:
        """Sorted ids of the tokens allowed at *depth*."""
        out = []
        for lowest, tid in self._low:
            if lowest < -depth:
                break
            out.append(tid)
        out.sort()
        return out
