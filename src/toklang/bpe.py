"""Byte-pair-encoding tokenizers: training, tokenizing, detokenizing, files.

No pre-tokenization and no special tokens: tokenizers here operate on raw
byte sequences, so ``detokenize`` is an exact concatenation homomorphism
and ``detokenize(tokenize(s)) == s`` holds for every input.  Real-world
tokenizers that add regex splitting or decode-time fixups may produce
different token sequences for the same text.
"""

from __future__ import annotations

import codecs
import enum
import json
import re
from array import array
from collections import defaultdict
from functools import cached_property, partial
from itertools import islice
from typing import Iterable

from ._value import DataError, Frozen


class TokenizerError(DataError):
    """Malformed tokenizer data or invalid token input."""


class Kind(enum.Enum):
    """Where a token sequence falls, told apart only by
    ``Tokenizer._properness``; one with both defects is Mergeable."""
    PROPER = "Proper"  # what the tokenizer returns for its own detokenization
    MERGEABLE = "Mergeable"  # some adjacent pair matches a merge rule
    WRONG_MERGE_ORDER = "WrongMergeOrder"  # no pair merges, yet it is not proper


def check_bytes(data, what: str):
    """*data*, if it is bytes or a bytearray; else TokenizerError naming *what*
    and the type given.  Once per input, so no loop over bytes checks them."""
    if not isinstance(data, (bytes, bytearray)):
        raise TokenizerError(f"{what} must be bytes, got {type(data).__name__}")
    return data


def escape_bytes(data: bytes) -> str:
    """Printable-ASCII rendering of a byte string; everything else \\xHH."""
    return "".join(
        chr(b) if 0x20 <= b <= 0x7E and b != 0x5C else f"\\x{b:02x}" for b in data)


_ESCAPED = re.compile(r"(?:[\x20-\x5b\x5d-\x7e]|\\x[0-9a-fA-F]{2})*")  # escape_bytes's output


def unescape_bytes(text: str) -> bytes:
    """Inverse of :func:`escape_bytes`.  The error names what ends the
    longest well-formed prefix: a bad escape, or a non-printable character."""
    end = _ESCAPED.match(text).end()
    if end < len(text):
        if text[end] == "\\":
            raise TokenizerError(f"bad escape in token string {text!r}")
        raise TokenizerError(f"unescaped non-ASCII character in {text!r}")
    return codecs.escape_decode(text)[0]  # only \xHH escapes are left to decode


class Tokenizer(Frozen):
    """An ordered merge list over a byte-string vocabulary.

    ``vocab[i]`` is token i's byte string; token IDs are exactly
    0..len(vocab)-1 and no two tokens share a byte string.  Each merge is a
    (left, right, merged) ID triple whose merged byte string is the
    concatenation of the two inputs; its list position is its rank, and
    lower ranks apply first.  Immutable and shareable; ``tokenize``,
    ``detokenize`` and ``is_proper`` are pure (``tokenize`` and
    ``is_proper`` share a memo of pair verdicts, which changes no result).
    """

    vocab: tuple[bytes, ...]
    merges: tuple[tuple[int, int, int], ...]
    _fields = ("vocab", "merges")

    def __init__(self, vocab, merges=()):
        self.__dict__.update(vocab=vocab, merges=merges)
        if not isinstance(vocab, tuple):
            raise TokenizerError(f"vocab must be a tuple, got {type(vocab).__name__}")
        if not self.vocab:
            raise TokenizerError("vocabulary must not be empty")
        seen: dict[bytes, int] = {}
        for i, bs in enumerate(self.vocab):
            if not isinstance(bs, bytes) or not bs:
                raise TokenizerError(f"token {i} must be a nonempty byte string")
            if bs in seen:
                raise TokenizerError(
                    f"tokens {seen[bs]} and {i} share byte string {escape_bytes(bs)!r}")
            seen[bs] = i
        if not isinstance(merges, tuple):
            raise TokenizerError(f"merges must be a tuple, got {type(merges).__name__}")
        n = len(self.vocab)
        for rank, merge in enumerate(self.merges):
            if not isinstance(merge, tuple) or len(merge) != 3:
                raise TokenizerError(
                    f"merge {rank} must be a (left, right, merged) tuple, got {merge!r}")
            left, right, merged = merge
            for t in merge:
                if type(t) is not int or not 0 <= t < n:
                    raise TokenizerError(f"merge {rank} references unknown token {t}")
            if self.vocab[merged] != self.vocab[left] + self.vocab[right]:
                raise TokenizerError(
                    f"merge {rank} output {escape_bytes(self.vocab[merged])!r} is not "
                    f"{escape_bytes(self.vocab[left])!r} + {escape_bytes(self.vocab[right])!r}")

    @cached_property
    def merge_ranks(self) -> dict[tuple[int, int], tuple[int, int]]:
        """(left, right) → (rank, merged) for the lowest-ranked such merge."""
        ranks: dict[tuple[int, int], tuple[int, int]] = {}
        for rank, (left, right, merged) in enumerate(self.merges):
            ranks.setdefault((left, right), (rank, merged))
        return ranks

    @cached_property
    def single_byte_ids(self) -> dict[int, int]:
        """Byte value → ID of its single-byte token, where one exists."""
        return {bs[0]: i for i, bs in enumerate(self.vocab) if len(bs) == 1}

    @property
    def byte_base(self) -> bool:
        """True iff all 256 single-byte tokens are present."""
        return len(self.single_byte_ids) == 256

    @cached_property
    def trie(self) -> dict[int, list]:
        """The vocabulary by bytes: byte -> [token ID or None, children],
        where children is a dict of the same shape."""
        root: dict[int, list] = {}
        for tid, bs in enumerate(self.vocab):
            node = root
            for b in bs[:-1]:
                node = node.setdefault(b, [None, {}])[1]
            node.setdefault(bs[-1], [None, {}])[0] = tid
        return root

    @cached_property
    def _shorter(self) -> tuple[list[int], int]:
        """(token ID -> the ID of its longest proper prefix in the
        vocabulary, or -1; the longest token's length): from the longest
        match ``_longest`` finds at an offset, this chain steps through
        every shorter one, longest first."""
        shorter = []
        for bs in self.vocab:
            prefix, level = -1, self.trie
            for b in bs[:-1]:
                tid, level = level[b]
                if tid is not None:
                    prefix = tid
            shorter.append(prefix)
        return shorter, max(map(len, self.vocab))

    @cached_property
    def _decomposable(self) -> bool:
        """True iff every vocabulary byte has a single-byte token: then no
        detokenization fails ``_check_covered``, so ``_properness`` skips it."""
        return set(b"".join(self.vocab)) <= self.single_byte_ids.keys()

    @cached_property
    def _pair_verdicts(self) -> _PairVerdicts:
        """(a, b) -> whether [a, b] is proper, read by ``tokenize`` and
        ``is_proper`` alike; a lookup of a pair not yet stored decides it
        from the two tokens' own merge runs (see ``_PairVerdicts``)."""
        return _PairVerdicts(self)

    def check_id(self, t: int) -> int:
        """*t*, if it is a token ID of this tokenizer; else TokenizerError."""
        if type(t) is not int or not 0 <= t < len(self.vocab):  # bool is no id
            raise TokenizerError(f"unknown token id {t!r}")
        return t

    def check_ids(self, ids: Iterable[int]) -> list[int]:
        return [self.check_id(t) for t in ids]

    def _join(self, seq: list[int]) -> bytes:
        """detokenize of IDs already checked."""
        return b"".join([self.vocab[t] for t in seq])

    def _check_covered(self, data: bytes) -> None:
        """``tokenize``'s error on the first byte of *data* with no single-byte token."""
        sb = self.single_byte_ids
        if not sb.keys() >= set(data):
            bad = next(b for b in data if b not in sb)
            raise TokenizerError(f"no single-byte token for byte 0x{bad:02x}")

    def tokenize(self, data: bytes) -> list[int]:
        """The tokenization the tokenizer actually returns for *data*.

        Starting from single-byte tokens, repeatedly merge the leftmost
        occurrence of the lowest-ranked applicable pair until nothing
        applies.  Deterministic; empty input gives empty output.

        Computed as a search, not by merging.  By ``is_proper``, that
        tokenization is the one segmentation of *data* whose adjacent pairs
        are all proper, or, of one token, whose token is proper on its own.
        From each offset the search tries the tokens that match there,
        longest first: ``_longest``, then the ``_shorter`` chain.  It takes
        the first whose pair with the previous token is proper, read from
        ``_pair_verdicts``; when none is left it steps back and tries the
        previous token's next shorter match.  By ``is_proper``, two or more
        tokens taken, each in a proper pair with the one before, are the
        tokenization of their bytes: no (offset, last token) is reached
        twice.  At most L tokens end at an offset and at most L start there,
        for the longest token length L, so the search makes O(n·L²) verdict
        lookups on n bytes; on usual text, one or two per token.  The input's
        bytes are checked first, so the error names the first byte with no
        single-byte token, and no token with such a byte is ever matched.
        """
        self._check_covered(check_bytes(data, "tokenize input"))
        n = len(data)
        trie, vocab, verdicts = self.trie, self.vocab, self._pair_verdicts
        shorter, longest = self._shorter
        out: list[int] = []
        pos, last = 0, -1
        t = _longest(trie, data, 0, longest)  # below n, its first byte always matches
        while pos < n:
            while t >= 0:
                end = pos + len(vocab[t])
                if verdicts[last, t] if last >= 0 else end < n or verdicts.alone(t):
                    break
                t = shorter[t]
            if t >= 0:
                out.append(t)
                pos, last, t = end, t, _longest(trie, data, end, longest)
            else:  # no match at pos follows last: step back
                t = out.pop()
                pos -= len(vocab[t])
                last, t = out[-1] if out else -1, shorter[t]
        return out

    def detokenize(self, ids: Iterable[int]) -> bytes:
        """Concatenate token byte strings, nothing else.

        This is the concatenation homomorphism; there is deliberately no
        post-processing of any kind.
        """
        return self._join(self.check_ids(ids))

    def is_proper(self, ids: Iterable[int]) -> bool:
        """True iff ``tokenize(detokenize(ids)) == ids``, with the same
        errors, decided pair by pair.

        A sequence of two or more tokens is proper iff no adjacent pair is
        joined by a merge rule (tokenize's output has no such pair: its loop
        runs until none is left) and every adjacent pair (a, b) is proper:
        ``tokenize(vocab[a] + vocab[b]) == [a, b]``.  A pair's verdict is
        read from ``_pair_verdicts``, the memo ``tokenize`` reads too, so a
        pair seen before by either costs one lookup.  Here ``tokenize`` is
        its merge loop; its search rests on this proof.  Sound for any
        order of the merge list:

        * ``tokenize`` always merges the least applicable pair by (rank,
          offset), and within a window of adjacent tokens that is the
          window's own least pair; so until a merge crosses a window's edge,
          the window runs exactly its own ``tokenize``.
        * (only if) In a proper sequence no merge crosses a token boundary,
          so each window of two tokens runs its own ``tokenize`` to the
          end and stops at those two tokens: every pair is proper.  By the
          same argument, both tokens of a proper pair are each proper, so
          only a one-token sequence needs its token checked on its own.
        * (if) Let every pair be proper.  If no merge crossed a token
          boundary, each token would run its own ``tokenize`` and stay
          itself, so the sequence would be proper.  Otherwise take the
          first merge that crosses one, between tokens i and i + 1: the
          ``tokenize`` of those two tokens' bytes passes through the same
          state and makes that same merge next, so that pair is improper,
          against the assumption.

        So no ``tokenize`` runs: the empty sequence is proper, one token
        reads ``_pair_verdicts.alone`` and a longer one its pairs.  Where a
        vocabulary byte has no single-byte token, the bytes are checked
        first, with ``tokenize``'s error.  One call of ``_properness``
        decides it here, and names the kind for ``classify`` and the CLI.
        """
        return self._properness(self.check_ids(ids))[0] is Kind.PROPER

    def _properness(self, seq: list[int]) -> tuple[Kind, int | None]:
        """(kind, ``_mergeable_at``) of IDs already checked, from one scan
        of the pairs: ``is_proper``'s rule, Mergeable checked first."""
        if not self._decomposable:
            self._check_covered(self._join(seq))
        at = self._mergeable_at(seq)
        if at is not None:
            return Kind.MERGEABLE, at  # the O(1) verdict first
        if len(seq) == 1:
            proper = self._pair_verdicts.alone(seq[0])
        else:
            proper = all(map(self._pair_verdicts.__getitem__, zip(seq, seq[1:])))
        return (Kind.PROPER if proper else Kind.WRONG_MERGE_ORDER), None

    def _mergeable_at(self, seq: list[int]) -> int | None:
        """Index of the first adjacent pair of checked IDs that a merge rule
        joins, else None.  The common answer, None, is one set test."""
        ranks = self.merge_ranks
        if ranks.keys().isdisjoint(zip(seq, seq[1:])):
            return None
        return next(i for i, pair in enumerate(zip(seq, seq[1:])) if pair in ranks)


def _longest(trie: dict[int, list], data: bytes, pos: int, longest: int) -> int:
    """The ID of the longest token that *data* has at *pos*, or -1, by one
    walk of ``Tokenizer.trie`` of at most *longest* bytes, the longest
    token's length.  ``Tokenizer._shorter`` leads from it to the shorter
    ones.  A function, not a method: the callers' loops hold the trie."""
    t, level = -1, trie
    for b in data[pos:pos + longest]:
        node = level.get(b)
        if node is None:
            break
        if node[0] is not None:
            t = node[0]
        level = node[1]
    return t


class _PairVerdicts(dict):
    """A memo of pair verdicts that decides a missing pair on lookup.

    ``self[a, b]`` is whether ``tokenize(vocab[a] + vocab[b]) == [a, b]``,
    for tokens whose bytes all have single-byte tokens.  A pair a merge
    rule joins is False and is not stored, so the keys are the other
    pairs looked up.  It grows with the distinct pairs looked up and never
    changes what a method returns.  A pair's verdict is fixed, so threads
    that share a tokenizer and write the same entry need no lock.

    A miss runs no merge loop on the pair's bytes.  For each token t,
    ``run(t)`` keeps ``tokenize(vocab[t])`` as its steps: per state, the
    rank of the next merge (``none`` once no merge is left) and the first
    and last token.  [a, b] is proper iff both runs end at their own
    token and, stepping the two runs together, the cross pair (a's last
    token, b's first) never wins:

    * ``tokenize`` of the pair's bytes always makes the least applicable
      merge by (rank, offset).  Until a merge crosses the boundary, a's
      bytes and b's bytes are two windows, each running its own
      ``tokenize`` (the window argument of ``is_proper``).  So the next
      merge is the least of a's next merge, the cross pair and b's next
      merge by (rank, offset), which on equal ranks is that order: an
      equal rank names one pair, and a's window lies left of the cross
      pair, which lies left of b's window.
    * If the cross pair wins at some step, a merge crosses the boundary
      and no later merge splits a token, so the result is not [a, b].
    * If it never wins, no merge crosses the boundary, so the result is
      a's run followed by b's run, which is [a, b] iff each run ends at
      its own token.
    """

    __slots__ = ("vocab", "singles", "ranks", "none", "runs")

    def __init__(self, tok: Tokenizer):
        self.vocab, self.singles, self.ranks = tok.vocab, tok.single_byte_ids, tok.merge_ranks
        self.none = len(tok.merges)  # past every rank: no merge is left
        self.runs: dict[int, list[tuple[int, int, int]]] = {}

    def run(self, t: int) -> list[tuple[int, int, int]]:
        """``tokenize(vocab[t])`` as (rank of the next merge, first token,
        last token) per state, from the single-byte tokens to the last
        state, whose next rank is ``none``.  Built on first use by merging
        the least pair by (rank, offset) until none is left, O(L²) for a
        token of L bytes."""
        steps = self.runs.get(t)
        if steps is None:
            get, ids = self.ranks.get, [self.singles[b] for b in self.vocab[t]]
            steps = []
            while True:
                least = (self.none, None)  # (rank, merged) of the least pair so far
                for i, hit in enumerate(map(get, zip(ids, ids[1:]))):
                    if hit is not None and hit < least:  # an equal rank names one pair
                        least, at = hit, i
                steps.append((least[0], ids[0], ids[-1]))
                if least[1] is None:
                    break
                ids[at:at + 2] = [least[1]]
            self.runs[t] = steps
        return steps

    def alone(self, t: int) -> bool:
        """Whether ``tokenize(vocab[t]) == [t]``: t's run ends at t."""
        return self.run(t)[-1][1] == t

    def __missing__(self, pair: tuple[int, int]) -> bool:
        ranks = self.ranks
        if pair in ranks:
            return False
        a, b = pair
        left, right = self.run(a), self.run(b)
        ok = left[-1][1] == a and right[-1][1] == b
        if ok:
            none, i, j = self.none, 0, 0
            next_a, _, last = left[0]
            next_b, first, _ = right[0]
            while True:
                cross = ranks.get((last, first))
                if cross is not None and cross[0] < next_a and cross[0] <= next_b:
                    ok = False
                    break
                if next_a <= next_b:
                    if next_a == none:
                        break  # both runs are done
                    i += 1
                    next_a, _, last = left[i]
                else:
                    j += 1
                    next_b, first, _ = right[j]
        self[pair] = ok
        return ok


def train(corpus: Iterable[bytes], num_merges: int) -> Tokenizer:
    """Learn a BPE tokenizer from scratch on a byte corpus.

    Starts from the 256 byte tokens.  Each round takes the adjacent token
    pair with the most occurrences across the corpus (overlapping ones
    included), records it as the next merge, and applies it left to right
    in every sample; stops early once no pair occurs twice.  Merge r
    makes the new token 256 + r, and a pair once merged never occurs
    again (both proved in a comment below).  Among pairs with equal
    counts, the one whose first occurrence comes earliest (sample index,
    then position in the sample) wins; no two pairs share a first
    occurrence, so training is deterministic.

    The counts are kept exactly and updated only around merged positions,
    as in the reference code of Sennrich et al. (2016).  All samples lie
    in one array, each after a sentinel, with a linked list over the live
    tokens; each pair keeps the array offsets of its left tokens, stale
    ones included, so a merge visits only the occurrences of its pair.  A
    bucket queue finds the most frequent pair: bucket c holds the pairs
    counted c >= 2 times, a round moves each changed pair once, by its net
    change, and the top pointer only falls.  So after one pass over the
    corpus and one over its distinct pairs, a round costs what it merges,
    the empty buckets it passes, and on a tie, for each tied pair, the
    stale offsets stored before its first live one; a pair counted once is
    never looked at again until it recurs.
    """
    if type(num_merges) is not int or num_merges < 0:  # bool is no count
        raise TokenizerError(f"num_merges must be an int >= 0, got {num_merges!r}")
    vocab: list[bytes] = [bytes([i]) for i in range(256)]
    merges: list[tuple[int, int, int]] = []
    # A token keeps its offset for life, and offsets order the tokens as
    # (sample, position) does.  -1 marks a sentinel or a merged-away token.
    seq = array("i", [-1])
    for sample in corpus:
        seq.extend(check_bytes(sample, "a corpus sample"))
        seq.append(-1)
    n = len(seq)
    nxt = array("i", range(1, n + 1))
    prv = array("i", range(-1, n - 1))
    where = defaultdict(partial(array, "i"))  # pair -> offsets, stale ones too
    for i, pair in enumerate(zip(seq, islice(seq, 1, None))):
        where[pair].append(i)
    for pair in [pair for pair in where if -1 in pair]:  # across a sentinel
        del where[pair]
    counts = {pair: len(offsets) for pair, offsets in where.items()}
    top = max(counts.values(), default=0)
    # buckets[c]: the pairs counted c >= 2 times.  A pair that moves may
    # leave an empty set behind; the top pointer drops each empty set it
    # passes, so they do not pile up.
    buckets: defaultdict[int, set[tuple[int, int]]] = defaultdict(set)
    for pair, c in counts.items():
        if c > 1:
            buckets[c].add(pair)

    def first(pair):
        left, right = pair
        return next(i for i in where[pair] if seq[i] == left and seq[nxt[i]] == right)

    # Every merge makes a new token.  Take a span of a sample whose ends are
    # token boundaries at some round.  They were boundaries at every round
    # before it, as tokens only grow, so no merge crossed them; and each
    # left-to-right pass entered the span with its first token free and
    # left it with no pair across its end.  So the span's tokens are those
    # of training on its bytes alone with the same merge list.  Now let a
    # round join L and R, and let an earlier round have joined L' and R'
    # into the same bytes b.  Trained alone, b is L', R' at the earlier
    # round and one token from then on, never L, R: a contradiction.
    #   So a merge makes pairs only with its new token, and a merged pair
    # never occurs again: its round breaks every occurrence, left to right,
    # each once, as the occurrence merged or as (right, after) in a run such
    # as a a a, so its count falls to 0.  And an occurrence adds at most one
    # to a new pair (the new token lies only left of it), so no count passes
    # the top.  A pair's offsets are noted in one left-to-right pass, the
    # initial count or the round that makes its newer token, so in order.
    for _ in range(num_merges):
        while top > 1 and not buckets.get(top):
            buckets.pop(top, None)
            top -= 1
        if top < 2:
            break
        tied = buckets[top]
        pair = min(tied, key=first) if len(tied) > 1 else next(iter(tied))
        left, right = pair
        merged = len(vocab)
        vocab.append(vocab[left] + vocab[right])
        merges.append((left, right, merged))
        # Note the pairs an occurrence breaks, its own among them, and the
        # two it makes: at most four entries per occurrence, plus the pair.
        delta = defaultdict(int)
        for i in where[pair]:
            j = nxt[i]
            if seq[i] != left or seq[j] != right:
                continue  # stale, or consumed by the merge just left of it
            p, k = prv[i], nxt[j]
            before, after = seq[p], seq[k]
            seq[i] = merged
            seq[j] = -1
            nxt[i], prv[k] = k, i
            if before >= 0:
                delta[before, left] -= 1
                other = (before, merged)  # one tuple for delta, where and counts: less memory
                delta[other] += 1
                where[other].append(p)
            delta[pair] -= 1
            if after >= 0:
                delta[right, after] -= 1
                other = (merged, after)
                delta[other] += 1
                where[other].append(i)
        # Then move each changed pair once, by its net change.
        for other, d in delta.items():
            c = counts.get(other, 0)
            if c > 1:
                buckets[c].remove(other)
            c += d
            if c > 1:
                buckets[c].add(other)
            if c:
                counts[other] = c
            else:
                counts.pop(other, None)  # made and broken in this round
                del where[other]

    return Tokenizer(tuple(vocab), tuple(merges))


# --- Native file format ------------------------------------------------------
#
#   { "version": 1,
#     "vocab":  { "<escaped token bytes>": <id>, ... },
#     "merges": [ ["<left>", "<right>"], ... ] }
#
# Token byte strings use \xHH escapes for anything outside printable ASCII.
# A merge entry may carry an explicit third element (the merged token); it
# must equal the concatenation of the first two.

FORMAT_VERSION = 1


def dumps_tokenizer(t: Tokenizer) -> str:
    data = {
        "version": FORMAT_VERSION,
        "vocab": {escape_bytes(bs): i for i, bs in enumerate(t.vocab)},
        "merges": [
            [escape_bytes(t.vocab[left]), escape_bytes(t.vocab[right])]
            for left, right, _ in t.merges
        ],
    }
    return json.dumps(data, indent=2)


def _vocab_from_map(vocab_map: dict, decode) -> list[bytes]:
    """The vocabulary of a {token string: id} map whose ids are 0..len-1.

    Distinct byte strings are left to ``Tokenizer`` to check.
    """
    n = len(vocab_map)
    vocab: list[bytes | None] = [None] * n
    for key, tid in vocab_map.items():
        # JSON true and false load as bool, a subclass of int
        if type(tid) is not int or not 0 <= tid < n:
            raise TokenizerError(f"token id {tid!r} outside 0..{n - 1}")
        if vocab[tid] is not None:
            raise TokenizerError(f"duplicate token id {tid}")
        vocab[tid] = decode(key)
    return vocab


def _tokenizer_from(vocab: list[bytes], merges, source: str) -> Tokenizer:
    """The tokenizer of *vocab* and its (left bytes, right bytes, origin) merges;
    ``source.format(origin)`` names a merge whose tokens are not in *vocab*."""
    ids = {bs: i for i, bs in enumerate(vocab)}
    resolved = []
    for left, right, origin in merges:
        try:
            resolved.append((ids[left], ids[right], ids[left + right]))
        except KeyError as e:
            raise TokenizerError(
                f"{source.format(origin)} references a token not in the "
                f"vocabulary: {escape_bytes(e.args[0])!r}") from None
    return Tokenizer(tuple(vocab), tuple(resolved))


def _json_value(text: str, name: str):
    """The JSON value of *text*; an error names the file as *name*."""
    try:
        return json.loads(text)
    except ValueError as e:  # JSONDecodeError, or a number past the digit limit
        raise TokenizerError(f"{name} is not valid JSON: {e}") from None
    except RecursionError:
        raise TokenizerError(f"{name} is nested too deeply") from None


def loads_tokenizer(text: str) -> Tokenizer:
    data = _json_value(text, "tokenizer file")
    if not isinstance(data, dict):
        raise TokenizerError("tokenizer file must be a JSON object")
    version = data.get("version")
    if type(version) is not int or version != FORMAT_VERSION:
        raise TokenizerError(f"unsupported tokenizer format version {version!r}")
    vocab_map = data.get("vocab")
    merge_list = data.get("merges", [])
    if not isinstance(vocab_map, dict) or not isinstance(merge_list, list):
        raise TokenizerError("tokenizer file needs a vocab object and a merges array")

    vocab = _vocab_from_map(vocab_map, unescape_bytes)
    merges = []
    for entry in merge_list:
        if not isinstance(entry, list) or len(entry) not in (2, 3) \
                or not all(isinstance(x, str) for x in entry):
            raise TokenizerError(f"bad merge entry {entry!r}")
        left_bytes = unescape_bytes(entry[0])
        right_bytes = unescape_bytes(entry[1])
        if len(entry) == 3 and unescape_bytes(entry[2]) != left_bytes + right_bytes:
            raise TokenizerError(
                f"merge output {entry[2]!r} is not the concatenation of "
                f"{entry[0]!r} and {entry[1]!r}")
        merges.append((left_bytes, right_bytes, entry))
    return _tokenizer_from(vocab, merges, "merge {!r}")


def load_tokenizer(path) -> Tokenizer:
    with open(path, encoding="utf-8") as fh:
        return loads_tokenizer(fh.read())


def save_tokenizer(t: Tokenizer, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_tokenizer(t) + "\n")


# --- GPT-2-compatible format --------------------------------------------------


def _gpt2_byte_table() -> dict[int, str]:
    # The fixed 256-entry byte -> printable-codepoint table used by GPT-2
    # style byte-level BPE vocabulary files (a published constant).
    bs = (list(range(0x21, 0x7F)) + list(range(0xA1, 0xAD)) + list(range(0xAE, 0x100)))
    cs = bs[:]
    n = 0
    for b in range(256):
        if b not in bs:
            bs.append(b)
            cs.append(256 + n)
            n += 1
    return {b: chr(c) for b, c in zip(bs, cs)}


_GPT2_DECODER: dict[str, int] = {c: b for b, c in _gpt2_byte_table().items()}


def _gpt2_str_to_bytes(token: str) -> bytes:
    try:
        return bytes(_GPT2_DECODER[ch] for ch in token)
    except KeyError as e:
        raise TokenizerError(
            f"character {e.args[0]!r} is not in the byte-level codepoint table") from None


def load_gpt2_tokenizer(vocab_path, merges_path) -> Tokenizer:
    """Load a GPT-2-style vocab.json + merges.txt pair.

    Token strings are decoded to raw bytes through the byte-level
    codepoint table.  No pre-tokenizer or added special tokens: the result
    tokenizes raw byte sequences directly, which can differ from the
    original tokenizer's output on inputs its regex would have split.
    """
    with open(vocab_path, encoding="utf-8") as fh:
        raw_vocab = _json_value(fh.read(), "vocab file")
    if not isinstance(raw_vocab, dict):
        raise TokenizerError("vocab file must map token strings to ids")
    vocab = _vocab_from_map(raw_vocab, _gpt2_str_to_bytes)

    merges = []
    with open(merges_path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if not line or (lineno == 1 and line.startswith("#")):
                continue
            fields = line.split(" ")
            if len(fields) != 2:
                raise TokenizerError(f"merges line {lineno}: expected two fields")
            merges.append(
                (_gpt2_str_to_bytes(fields[0]), _gpt2_str_to_bytes(fields[1]), lineno))
    return _tokenizer_from(vocab, merges, "merges line {}")
