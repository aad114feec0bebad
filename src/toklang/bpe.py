"""Byte-pair-encoding tokenizers: training, tokenizing, detokenizing, files.

No pre-tokenization and no special tokens: tokenizers here operate on raw
byte sequences, so ``detokenize`` is an exact concatenation homomorphism
and ``detokenize(tokenize(s)) == s`` holds for every input.  Real-world
tokenizers that add regex splitting or decode-time fixups may produce
different token sequences for the same text.
"""

from __future__ import annotations

import json
import re
from array import array
from dataclasses import dataclass
from functools import cached_property
from heapq import heapify, heappop, heappush
from typing import Iterable, Sequence


class TokenizerError(ValueError):
    """Malformed tokenizer data or invalid token input."""


def escape_bytes(data: bytes) -> str:
    """Printable-ASCII rendering of a byte string; everything else \\xHH."""
    return "".join(
        chr(b) if 0x20 <= b <= 0x7E and b != 0x5C else f"\\x{b:02x}" for b in data)


_HEX_ESCAPE = re.compile(r"\\x([0-9a-fA-F]{2})")


def unescape_bytes(text: str) -> bytes:
    """Inverse of :func:`escape_bytes`."""
    out = bytearray()
    i = 0
    while i < len(text):
        c = text[i]
        if c == "\\":
            m = _HEX_ESCAPE.match(text, i)
            if m is None:
                raise TokenizerError(f"bad escape in token string {text!r}")
            out.append(int(m[1], 16))
            i += 4
        else:
            o = ord(c)
            if not 0x20 <= o <= 0x7E:
                raise TokenizerError(f"unescaped non-ASCII character in {text!r}")
            out.append(o)
            i += 1
    return bytes(out)


@dataclass(frozen=True)
class Tokenizer:
    """An ordered merge list over a byte-string vocabulary.

    ``vocab[i]`` is token i's byte string; token IDs are exactly
    0..len(vocab)-1 and no two tokens share a byte string.  Each merge is a
    (left, right, merged) ID triple whose merged byte string is the
    concatenation of the two inputs; its list position is its rank, and
    lower ranks apply first.  Immutable and shareable; ``tokenize`` and
    ``detokenize`` are pure.
    """

    vocab: tuple[bytes, ...]
    merges: tuple[tuple[int, int, int], ...] = ()

    def __post_init__(self):
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
        n = len(self.vocab)
        for rank, (left, right, merged) in enumerate(self.merges):
            for t in (left, right, merged):
                if type(t) is not int or not 0 <= t < n:
                    raise TokenizerError(f"merge {rank} references unknown token {t}")
            if self.vocab[merged] != self.vocab[left] + self.vocab[right]:
                raise TokenizerError(
                    f"merge {rank} output {escape_bytes(self.vocab[merged])!r} is not "
                    f"{escape_bytes(self.vocab[left])!r} + {escape_bytes(self.vocab[right])!r}")

    @cached_property
    def token_ids(self) -> dict[bytes, int]:
        """Byte string → token ID (inverse of ``vocab``)."""
        return {bs: i for i, bs in enumerate(self.vocab)}

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
    def max_token_len(self) -> int:
        return max(len(bs) for bs in self.vocab)

    def check_id(self, t: int) -> int:
        """*t*, if it is a token ID of this tokenizer; else TokenizerError."""
        if type(t) is not int or not 0 <= t < len(self.vocab):  # bool is no id
            raise TokenizerError(f"unknown token id {t!r}")
        return t

    def check_ids(self, ids: Iterable[int]) -> list[int]:
        return [self.check_id(t) for t in ids]

    def tokenize(self, data: bytes) -> list[int]:
        """The tokenization the tokenizer actually returns for *data*.

        Starting from single-byte tokens, repeatedly merge the leftmost
        occurrence of the lowest-ranked applicable pair until nothing
        applies.  Deterministic; empty input gives empty output.

        The tokens form a linked list, and a heap holds (rank, offset) for
        each mergeable pair, *offset* being the original byte offset of the
        pair's left token: that offset orders the live tokens as their
        current positions do, so the heap's minimum is the leftmost
        occurrence of the lowest-ranked pair.  A merge pushes only the two
        pairs it creates; entries it invalidated are skipped when popped.
        O(n log n) for n bytes.
        """
        sb = self.single_byte_ids
        try:
            ids = [sb[b] for b in data]
        except KeyError as e:
            raise TokenizerError(f"no single-byte token for byte 0x{e.args[0]:02x}") from None
        n = len(ids)
        get = self.merge_ranks.get
        heap = [(hit[0], i) for i, hit in enumerate(map(get, zip(ids, ids[1:])))
                if hit is not None]
        if not heap:
            return ids
        heapify(heap)
        # lists, not arrays: the input is short-lived and lists index faster
        nxt = list(range(1, n + 1))  # n: no right neighbour
        prv = list(range(-1, n - 1))  # -1: no left neighbour
        while heap:
            rank, i = heappop(heap)
            left = ids[i]
            j = nxt[i]
            if left < 0 or j == n:
                continue  # the left token was merged away, or is now last
            hit = get((left, ids[j]))
            # a rank names one pair, so an equal rank means the same pair
            if hit is None or hit[0] != rank:
                continue
            ids[i] = merged = hit[1]
            ids[j] = -1
            k = nxt[i] = nxt[j]
            if k < n:
                prv[k] = i
                hit = get((merged, ids[k]))
                if hit is not None:
                    heappush(heap, (hit[0], i))
            p = prv[i]
            if p >= 0:
                hit = get((ids[p], merged))
                if hit is not None:
                    heappush(heap, (hit[0], p))
        return [t for t in ids if t >= 0]

    def detokenize(self, ids: Iterable[int]) -> bytes:
        """Concatenate token byte strings, nothing else.

        This is the concatenation homomorphism; there is deliberately no
        post-processing of any kind.
        """
        vocab = self.vocab
        return b"".join(vocab[t] for t in self.check_ids(ids))


def train(corpus: Iterable[bytes], num_merges: int) -> Tokenizer:
    """Learn a BPE tokenizer from scratch on a byte corpus.

    Starts from the 256 byte tokens.  Each round takes the adjacent token
    pair with the most occurrences across the corpus (overlapping ones
    included), records it as the next merge, and applies it left to right
    in every sample; stops early once no pair occurs twice.  A pair is
    chosen at most once: one whose merge already exists is not counted
    again, and merged bytes that spell an existing token reuse its ID.
    Among pairs with equal counts, the one whose first occurrence comes
    earliest (sample index, then position in the sample) wins; no two
    pairs share a first occurrence, so training is deterministic.

    The counts are kept exactly and updated only around merged positions,
    as in the reference code of Sennrich et al. (2016).  All samples lie
    in one array, each after a sentinel, with a linked list over the live
    tokens; each pair keeps the array offsets of its left tokens, stale
    ones included, so a merge visits only the occurrences of its pair.
    """
    if num_merges < 0:
        raise TokenizerError("num_merges must be >= 0")
    vocab: list[bytes] = [bytes([i]) for i in range(256)]
    index: dict[bytes, int] = {bs: i for i, bs in enumerate(vocab)}
    merges: list[tuple[int, int, int]] = []
    ruled: set[tuple[int, int]] = set()
    # A token keeps its offset for life, and offsets order the tokens as
    # (sample, position) does.  -1 marks a sentinel or a merged-away token.
    seq = array("i", [-1])
    for sample in corpus:
        seq.extend(sample)
        seq.append(-1)
    n = len(seq)
    nxt = array("i", range(1, n + 1))
    prv = array("i", range(-1, n - 1))
    counts: dict[tuple[int, int], int] = {}
    where: dict[tuple[int, int], array] = {}  # pair -> offsets, stale ones too

    def add(pair, i):
        if pair not in ruled:
            counts[pair] = counts.get(pair, 0) + 1
            if pair in where:
                where[pair].append(i)
            else:
                where[pair] = array("i", (i,))

    def drop(pair):
        if pair not in ruled:
            c = counts[pair] - 1
            if c:
                counts[pair] = c
            else:
                del counts[pair], where[pair]

    def first(pair):
        left, right = pair
        return min(i for i in where[pair] if seq[i] == left and seq[nxt[i]] == right)

    for i in range(1, n - 1):
        if seq[i] >= 0 and seq[i + 1] >= 0:
            add((seq[i], seq[i + 1]), i)

    for _ in range(num_merges):
        top = max(counts.values(), default=0)
        if top < 2:
            break
        tied = [pair for pair, c in counts.items() if c == top]
        pair = tied[0] if len(tied) == 1 else min(tied, key=first)
        left, right = pair
        new_bytes = vocab[left] + vocab[right]
        merged = index.get(new_bytes)
        if merged is None:
            merged = len(vocab)
            vocab.append(new_bytes)
            index[new_bytes] = merged
        merges.append((left, right, merged))
        ruled.add(pair)
        del counts[pair]
        for i in sorted(where.pop(pair)):
            j = nxt[i]
            if seq[i] != left or seq[j] != right:
                continue  # stale, or consumed by the merge just left of it
            p, k = prv[i], nxt[j]
            before, after = seq[p], seq[k]
            if before >= 0:
                drop((before, left))
            if after >= 0:
                drop((right, after))
            seq[i] = merged
            seq[j] = -1
            nxt[i], prv[k] = k, i
            if before >= 0:
                add((before, merged), p)
            if after >= 0:
                add((merged, after), i)

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


def loads_tokenizer(text: str) -> Tokenizer:
    try:
        data = json.loads(text)
    except ValueError as e:  # JSONDecodeError, or a number past the digit limit
        raise TokenizerError(f"tokenizer file is not valid JSON: {e}") from None
    except RecursionError:
        raise TokenizerError("tokenizer file is nested too deeply") from None
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
        text = fh.read()
    try:
        raw_vocab = json.loads(text)
    except ValueError as e:  # JSONDecodeError, or a number past the digit limit
        raise TokenizerError(f"vocab file is not valid JSON: {e}") from None
    except RecursionError:
        raise TokenizerError("vocab file is nested too deeply") from None
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
