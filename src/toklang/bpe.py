"""Byte-pair-encoding tokenizers: training, tokenizing, detokenizing, files.

No pre-tokenization and no special tokens: tokenizers here operate on raw
byte sequences, so ``detokenize`` is an exact concatenation homomorphism
and ``detokenize(tokenize(s)) == s`` holds for every input.  Real-world
tokenizers that add regex splitting or decode-time fixups may produce
different token sequences for the same text.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence


class TokenizerError(ValueError):
    """Malformed tokenizer data or invalid token input."""


def escape_bytes(data: bytes) -> str:
    """Printable-ASCII rendering of a byte string; everything else \\xHH."""
    return "".join(
        chr(b) if 0x20 <= b <= 0x7E and b != 0x5C else f"\\x{b:02x}" for b in data)


def unescape_bytes(text: str) -> bytes:
    """Inverse of :func:`escape_bytes`."""
    out = bytearray()
    i = 0
    while i < len(text):
        c = text[i]
        if c == "\\":
            if text[i + 1:i + 2] != "x" or len(text) < i + 4:
                raise TokenizerError(f"bad escape in token string {text!r}")
            try:
                out.append(int(text[i + 2:i + 4], 16))
            except ValueError:
                raise TokenizerError(f"bad escape in token string {text!r}") from None
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
                if not isinstance(t, int) or not 0 <= t < n:
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
    def max_token_len(self) -> int:
        return max(len(bs) for bs in self.vocab)

    def check_id(self, t: int) -> int:
        """*t*, if it is a token ID of this tokenizer; else TokenizerError."""
        if not isinstance(t, int) or not 0 <= t < len(self.vocab):
            raise TokenizerError(f"unknown token id {t!r}")
        return t

    def check_ids(self, ids: Iterable[int]) -> list[int]:
        return [self.check_id(t) for t in ids]

    def tokenize(self, data: bytes) -> list[int]:
        """The tokenization the tokenizer actually returns for *data*.

        Starting from single-byte tokens, repeatedly merge the leftmost
        occurrence of the lowest-ranked applicable pair until nothing
        applies.  Deterministic; empty input gives empty output.
        """
        sb = self.single_byte_ids
        ids = []
        for b in data:
            tid = sb.get(b)
            if tid is None:
                raise TokenizerError(f"no single-byte token for byte 0x{b:02x}")
            ids.append(tid)
        ranks = self.merge_ranks
        while len(ids) > 1:
            best = None
            best_i = best_m = -1
            prev = ids[0]
            for i in range(len(ids) - 1):
                cur = ids[i + 1]
                hit = ranks.get((prev, cur))
                if hit is not None and (best is None or hit[0] < best):
                    best, best_i, best_m = hit[0], i, hit[1]
                prev = cur
            if best is None:
                break
            ids[best_i:best_i + 2] = [best_m]
        return ids

    def detokenize(self, ids: Iterable[int]) -> bytes:
        """Concatenate token byte strings, nothing else.

        This is the concatenation homomorphism; there is deliberately no
        post-processing of any kind.
        """
        vocab = self.vocab
        return b"".join(vocab[t] for t in self.check_ids(ids))


def train(corpus: Iterable[bytes], num_merges: int) -> Tokenizer:
    """Learn a BPE tokenizer from scratch on a byte corpus.

    Starts from the 256 byte tokens.  Each round finds the most frequent
    adjacent token pair across the corpus, records it as the next merge,
    and applies it everywhere; stops early once no pair occurs twice.
    Ties break on earliest first occurrence (sample index, then offset),
    then left ID, then right ID, so training is deterministic.
    """
    if num_merges < 0:
        raise TokenizerError("num_merges must be >= 0")
    vocab: list[bytes] = [bytes([i]) for i in range(256)]
    index: dict[bytes, int] = {bs: i for i, bs in enumerate(vocab)}
    seqs = [list(sample) for sample in corpus]
    merges: list[tuple[int, int, int]] = []
    ruled: set[tuple[int, int]] = set()

    for _ in range(num_merges):
        counts: Counter[tuple[int, int]] = Counter()
        first: dict[tuple[int, int], tuple[int, int]] = {}
        for si, seq in enumerate(seqs):
            for i in range(len(seq) - 1):
                pair = (seq[i], seq[i + 1])
                if pair in ruled:
                    continue
                counts[pair] += 1
                if pair not in first:
                    first[pair] = (si, i)
        if not counts:
            break
        left, right = min(
            counts, key=lambda p: (-counts[p], first[p], p[0], p[1]))
        if counts[(left, right)] < 2:
            break
        new_bytes = vocab[left] + vocab[right]
        merged = index.get(new_bytes)
        if merged is None:
            merged = len(vocab)
            vocab.append(new_bytes)
            index[new_bytes] = merged
        merges.append((left, right, merged))
        ruled.add((left, right))
        for seq in seqs:
            out = []
            i = 0
            while i < len(seq):
                if i + 1 < len(seq) and seq[i] == left and seq[i + 1] == right:
                    out.append(merged)
                    i += 2
                else:
                    out.append(seq[i])
                    i += 1
            seq[:] = out

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
        if not isinstance(tid, int) or not 0 <= tid < n:
            raise TokenizerError(f"token id {tid!r} outside 0..{n - 1}")
        if vocab[tid] is not None:
            raise TokenizerError(f"duplicate token id {tid}")
        vocab[tid] = decode(key)
    return vocab


def loads_tokenizer(text: str) -> Tokenizer:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise TokenizerError(f"tokenizer file is not valid JSON: {e}") from None
    if not isinstance(data, dict):
        raise TokenizerError("tokenizer file must be a JSON object")
    if data.get("version") != FORMAT_VERSION:
        raise TokenizerError(f"unsupported tokenizer format version {data.get('version')!r}")
    vocab_map = data.get("vocab")
    merge_list = data.get("merges", [])
    if not isinstance(vocab_map, dict) or not isinstance(merge_list, list):
        raise TokenizerError("tokenizer file needs a vocab object and a merges array")

    vocab = _vocab_from_map(vocab_map, unescape_bytes)
    ids = {bs: i for i, bs in enumerate(vocab)}

    merges: list[tuple[int, int, int]] = []
    for entry in merge_list:
        if not isinstance(entry, list) or len(entry) not in (2, 3) \
                or not all(isinstance(x, str) for x in entry):
            raise TokenizerError(f"bad merge entry {entry!r}")
        left_bytes = unescape_bytes(entry[0])
        right_bytes = unescape_bytes(entry[1])
        concat = left_bytes + right_bytes
        if len(entry) == 3 and unescape_bytes(entry[2]) != concat:
            raise TokenizerError(
                f"merge output {entry[2]!r} is not the concatenation of "
                f"{entry[0]!r} and {entry[1]!r}")
        try:
            merges.append((ids[left_bytes], ids[right_bytes], ids[concat]))
        except KeyError as e:
            raise TokenizerError(
                f"merge {entry!r} references a token not in the vocabulary: "
                f"{escape_bytes(e.args[0])!r}") from None

    return Tokenizer(tuple(vocab), tuple(merges))


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
        try:
            raw_vocab = json.load(fh)
        except json.JSONDecodeError as e:
            raise TokenizerError(f"vocab file is not valid JSON: {e}") from None
    if not isinstance(raw_vocab, dict):
        raise TokenizerError("vocab file must map token strings to ids")
    vocab = _vocab_from_map(raw_vocab, _gpt2_str_to_bytes)
    ids = {bs: i for i, bs in enumerate(vocab)}

    merges: list[tuple[int, int, int]] = []
    with open(merges_path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if not line or (lineno == 1 and line.startswith("#")):
                continue
            fields = line.split(" ")
            if len(fields) != 2:
                raise TokenizerError(f"merges line {lineno}: expected two fields")
            left_bytes = _gpt2_str_to_bytes(fields[0])
            right_bytes = _gpt2_str_to_bytes(fields[1])
            try:
                merges.append(
                    (ids[left_bytes], ids[right_bytes], ids[left_bytes + right_bytes]))
            except KeyError as e:
                raise TokenizerError(
                    f"merges line {lineno} references a token not in the "
                    f"vocabulary: {escape_bytes(e.args[0])!r}") from None

    return Tokenizer(tuple(vocab), tuple(merges))
