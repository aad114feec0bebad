"""Brute-force reference implementations, deliberately independent of the
package's chart recognizer and DP routines.  Only usable at toy scale."""

from __future__ import annotations

import itertools


def strings_up_to(g, max_len: int) -> set[tuple[int, ...]]:
    """All members of L(g) with at most *max_len* terminals, by a set
    fixed-point over the productions (no charts involved)."""
    return _fixed_point(g, lambda s: s if len(s) <= max_len else None)


def members_cut_at(g, max_len: int) -> set[tuple[int, ...]]:
    """{w[:max_len] : w in L(g)}, by the same fixed point, cutting instead of
    dropping (cutting commutes with concatenation).  Its ``prefixes_of`` are
    exactly the viable prefixes of at most *max_len* terminals."""
    return _fixed_point(g, lambda s: s[:max_len])


def _fixed_point(g, fit) -> set[tuple[int, ...]]:
    """Least sets of fitted yields per nonterminal; *fit* maps a string to
    the string kept in its place, or to None to drop it."""
    derivable: dict[str, set[tuple[int, ...]]] = {n: set() for n in g.nonterminals}
    changed = True
    while changed:
        changed = False
        for head, body in g.productions:
            partials: set[tuple[int, ...]] = {()}
            for sym in body:
                choices = ((sym,),) if isinstance(sym, int) else derivable[sym]
                partials = {fit(p + c) for p in partials for c in choices} - {None}
                if not partials:
                    break
            for s in partials:
                if s not in derivable[head]:
                    derivable[head].add(s)
                    changed = True
    return derivable[g.start]


def prefixes_of(strings) -> set[tuple[int, ...]]:
    return {s[:i] for s in strings for i in range(len(s) + 1)}


def balanced_brackets(s: str) -> bool:
    """Membership in the square-bracket balanced-string language."""
    depth = 0
    for c in s:
        if c == "[":
            depth += 1
        elif c == "]":
            depth -= 1
            if depth < 0:
                return False
        else:
            return False
    return depth == 0


def bracket_prefix_viable(s: str) -> bool:
    """True iff *s* extends to some balanced-bracket string."""
    depth = 0
    for c in s:
        if c == "[":
            depth += 1
        elif c == "]":
            depth -= 1
            if depth < 0:
                return False
        else:
            return False
    return True


def brackets_with_letters(data: bytes) -> bool:
    """Membership for the Dyck-with-letters toy: any string over a, b, [, ]
    whose bracket projection is balanced."""
    depth = 0
    for b in data:
        if b == 0x5B:
            depth += 1
        elif b == 0x5D:
            depth -= 1
            if depth < 0:
                return False
        elif b not in (0x61, 0x62):
            return False
    return depth == 0


def segmentations(vocab: set[bytes], data: bytes) -> list[tuple[bytes, ...]]:
    """All ways to cut *data* into pieces drawn from *vocab*."""
    if not data:
        return [()]
    out = []
    for ln in range(1, len(data) + 1):
        head = data[:ln]
        if head in vocab:
            out.extend((head,) + rest for rest in segmentations(vocab, data[ln:]))
    return out


def all_strings(alphabet, max_len: int):
    """Every tuple over *alphabet* of length 0..max_len."""
    for length in range(max_len + 1):
        yield from itertools.product(alphabet, repeat=length)
