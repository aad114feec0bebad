"""The four closed-loop workloads.

One client issues one op at a time.  ``setup`` builds what the program
needs (grammar, trained tokenizer, warm caches) and is what ``setup_s``
times.  ``passes`` then draws the run's inputs and their expected answers
once, untimed, and yields the same list of ops again and again: every pass
of a run has the same inputs in the same order, so the harness can take,
for each op, the median of its latencies over the passes.  Inputs come from
``--seed`` through ``random.Random``; every expected answer comes from
``reference.py`` or from how the input was built, never from the code
under test.
"""

from __future__ import annotations

import operator
import os
import random
import resource
import subprocess
import sys
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable, Iterator

from toklang import bpe, encoding, grammar, recognizer, segmentation, toys

from reference import DyckLetters, MergeTable, count_segmentations


@dataclass
class Op:
    label: str                      # span name of the op in a traced run
    nbytes: int                     # input bytes the op processes
    call: Callable[[], object]      # the timed part
    check: Callable[[object], bool]  # the known answer, applied untimed
    prepare: Callable[[], None] | None = None  # untimed, just before call


def _ladder(lo: int, hi: int, factor: float) -> list[int]:
    sizes = []
    s = float(lo)
    while s <= hi * 1.0001:
        sizes.append(round(s))
        s *= factor
    return sizes


def dyck_member(rng: random.Random, n: int) -> bytes:
    """A member of the Dyck-with-letters toy of about *n* bytes: a random
    walk over ``[]ab`` that never closes below depth 0, closed at the end."""
    out = bytearray()
    depth = 0
    while len(out) < n:
        r = rng.random()
        if r < 0.3:
            out.append(0x5B)
            depth += 1
        elif r < 0.6 and depth:
            out.append(0x5D)
            depth -= 1
        else:
            out.append(rng.choice(b"ab"))
    out += b"]" * depth
    return bytes(out)


class Workload:
    name = ""
    rusage = resource.RUSAGE_SELF  # whose peak memory the workload reports

    def setup(self, seed: int, scale: float, workdir: Path):
        raise NotImplementedError

    def passes(self, state) -> Iterator[list[Op]]:
        """The same ops, with the same inputs, on every iteration."""
        raise NotImplementedError


# --- decode_mask ---------------------------------------------------------------


class _Replay:
    """One decoding session replayed along a fixed token sequence."""

    __slots__ = ("rec", "seq", "session", "pos")

    def __init__(self, rec, seq: list[int]):
        self.rec = rec
        self.seq = seq
        self.session = None
        self.pos = 0

    def advance(self, step: int) -> None:
        """Bring the session to *step* tokens consumed, feeding the ones
        between measured steps."""
        if self.session is None:
            self.session = self.rec.open_session()
        while self.pos < step:
            self.session.feed(self.seq[self.pos])
            self.pos += 1

    def step(self):
        """One decoding step: the mask, then the chosen token."""
        mask = self.session.allowed_next_tokens()
        self.session.feed(self.seq[self.pos])
        self.pos += 1
        return mask


def _same_ids(want: list[int], mask) -> bool:
    return sorted(mask) == want


class DecodeMask(Workload):
    """Grammar-constrained generation: mask, choose, feed.

    Each pass decodes ``SESSIONS`` token sequences, drawn from the seed, of
    ``RESTART_TOKENS`` tokens (a few KB) from an empty prefix.  Every
    ``STRIDE``-th step is an op, so the ops see consumed prefixes from
    empty to the full length; the tokens between them are fed untimed.  The
    tokens are drawn from the oracle's mask, so the path taken never
    depends on the code under test.
    """

    name = "decode_mask"
    MERGES = 200
    SESSIONS = 8
    RESTART_TOKENS = 600
    STRIDE = 24

    def setup(self, seed, scale, workdir):
        # Like the grammar, the tokenizer is the same in every run: its
        # vocabulary sets the cost of every mask, and one trained on a
        # sample drawn from the seed moved the figures by up to 20%.
        sample = random.Random(f"{self.name}/tokenizer")
        corpus = [dyck_member(sample, 200) for _ in range(max(4, round(80 * scale)))]
        tok = bpe.train(corpus, self.MERGES)
        rec = recognizer.TokenRecognizer(toys.dyck_letters_grammar(), tok)
        rec.open_session().allowed_next_tokens()  # fill the cached properties
        return rec, random.Random(f"{self.name}/{seed}"), scale

    def passes(self, state):
        rec, rng, scale = state
        vocab = rec.tokenizer.vocab
        oracle = DyckLetters(vocab)
        length = max(self.STRIDE, round(self.RESTART_TOKENS * scale))
        plan = []  # per session: its tokens, and the mask at each measured step
        for _ in range(self.SESSIONS):
            seq: list[int] = []
            masks: dict[int, list[int]] = {}
            depth = 0
            for i in range(length):
                allowed = oracle.allowed(depth)
                if i % self.STRIDE == 0:
                    masks[i] = allowed
                tid = rng.choice(allowed)
                seq.append(tid)
                depth += oracle.delta[tid]
            plan.append((seq, masks))
        while True:
            ops = []
            for seq, masks in plan:
                replay = _Replay(rec, seq)
                for i, allowed in masks.items():
                    ops.append(Op("op.mask", len(vocab[seq[i]]), replay.step,
                                  partial(_same_ids, allowed), partial(replay.advance, i)))
            yield ops


# --- validate_docs ---------------------------------------------------------------

# Lines of bracketed lists of words.  Terminals take one to three UTF-8
# bytes, and Doc, Word and More are right-recursive lists.
DOC_GRAMMAR = r"""
Doc -> "" | Line Doc ;
Line -> Value "\n" ;
Value -> Word | "[" Elems "]" ;
Elems -> "" | Value More ;
More -> "" | "," Value More ;
Word -> Ch | Ch Word ;
Ch -> "a" | "b" | "c" | "x" | "y" | "é" | "ü" | "ß" | "你" | "好" ;
"""
DOC_CHARS = "abcxyéüß你好"


def _doc_value(rng: random.Random, depth: int) -> str:
    if depth >= 3 or rng.random() < 0.55:
        return "".join(rng.choice(DOC_CHARS) for _ in range(rng.randint(1, 6)))
    return "[" + ",".join(_doc_value(rng, depth + 1) for _ in range(rng.randrange(4))) + "]"


def doc_member(rng: random.Random, n: int) -> bytes:
    """A member of DOC_GRAMMAR of at least *n* UTF-8 bytes, built line by line."""
    out = bytearray()
    while len(out) < n:
        out += (_doc_value(rng, 0) + "\n").encode("utf-8")
    return bytes(out)


def _validate(rec, data: bytes, ids: list[int]):
    return (grammar.recognize(rec.grammar, data), rec.accepts_tokens(ids),
            rec.accepts_proper(ids))


class ValidateDocs(Workload):
    """Checking model output against a Unicode grammar.

    Each document of a pass comes in three variants: its proper
    tokenization, the same with one token split into its merge inputs (a
    member that is not proper), and the proper form plus an unmatched
    ``]`` (a non-member).  One op runs ``recognize``, ``accepts_tokens``
    and ``accepts_proper`` on one variant.
    """

    name = "validate_docs"
    MERGES = 200
    # The sizes up to 512 B twice: the median op falls among them, and two
    # documents of each size keep it from following one document's shape.
    SIZES = sorted(_ladder(32, 2048, 2 ** 0.5) + _ladder(32, 512, 2 ** 0.5))

    def setup(self, seed, scale, workdir):
        rng = random.Random(f"{self.name}/{seed}")
        g = grammar.reduce_grammar(grammar.parse_grammar(DOC_GRAMMAR, "unicode"))
        byte_grammar = encoding.encode_grammar(encoding.UTF8, g)
        corpus = [doc_member(rng, 200) for _ in range(max(4, round(80 * scale)))]
        tok = bpe.train(corpus, self.MERGES)
        rec = recognizer.TokenRecognizer(byte_grammar, tok)
        table = MergeTable(tok.vocab, tok.merges)
        sizes = [max(8, round(s * scale)) for s in self.SIZES]
        warm = doc_member(rng, 8)
        _validate(rec, warm, table.tokenize(warm))  # fill the cached properties
        return rec, table, sizes, rng

    def passes(self, state):
        rec, table, sizes, rng = state
        close = table.single[0x5D]
        ops = []
        for size in sizes:
            split = None
            while split is None:
                data = doc_member(rng, size)
                proper = table.tokenize(data)
                split = table.split_one(proper, rng)
            for ids, blob, want in (
                    (proper, data, (True, True, True)),
                    (split[0], data, (True, True, False)),
                    (proper + [close], data + b"]", (False, False, False))):
                ops.append(Op("op.validate", len(blob), partial(_validate, rec, blob, ids),
                              partial(operator.eq, want)))
        rng.shuffle(ops)
        while True:
            yield ops


# --- tokenizer_corpus --------------------------------------------------------------


def random_text(rng: random.Random, n: int, alphabet: bytes = b"[]ab ") -> bytes:
    return bytes(rng.choice(alphabet) for _ in range(n))


def _is_proper(c) -> bool:
    return c.kind.value == "Proper" and c.mergeable_at is None and c.proper_form is None


def _is_mergeable_at(at: int, c) -> bool:
    return c.kind.value == "Mergeable" and c.mergeable_at == at


def first_segmentations(tok, data: bytes, limit: int) -> list[list[int]]:
    return list(segmentation.enumerate_tokenizations(tok, data, limit=limit))


def _segmentations_ok(table: MergeTable, data: bytes, want: int, items) -> bool:
    n = len(table.vocab)
    return (len(items) == want
            and len({tuple(ids) for ids in items}) == want
            and all(all(isinstance(t, int) and 0 <= t < n for t in ids)
                    and table.join(ids) == data for ids in items))


class TokenizerCorpus(Workload):
    """BPE and segmentation with no grammar.

    ``tokenize`` and ``classify`` run on texts from 32 B to 2 KB; counting
    and enumeration on texts up to 8 KB.  The 8 KB texts lie past the
    depth at which the recursive ``enumerate_tokenizations`` raises
    ``RecursionError``; those ops count as failed and stay in the mix.
    """

    name = "tokenizer_corpus"
    MERGES = 300
    CORPUS = (200, 200)  # samples x bytes: the 40 KB training baseline
    SIZES = _ladder(32, 2048, 2 ** 0.5)
    SEGMENT_SIZES = _ladder(32, 8192, 4)
    LIMIT = 16

    def setup(self, seed, scale, workdir):
        rng = random.Random(f"{self.name}/{seed}")
        samples, width = self.CORPUS
        corpus = [random_text(rng, width) for _ in range(max(4, round(samples * scale)))]
        tok = bpe.train(corpus, self.MERGES)
        table = MergeTable(tok.vocab, tok.merges)
        sizes = [max(8, round(s * scale)) for s in self.SIZES]
        segment_sizes = [max(8, round(s * scale)) for s in self.SEGMENT_SIZES]
        warm = random_text(rng, 8)
        segmentation.classify(tok, tok.tokenize(warm))  # fill the cached properties
        segmentation.count_tokenizations(tok, warm)
        return tok, table, sizes, segment_sizes, rng

    def passes(self, state):
        tok, table, sizes, segment_sizes, rng = state
        ops = []
        for size in sizes:
            split = None
            while split is None:
                data = random_text(rng, size)
                proper = table.tokenize(data)
                split = table.split_one(proper, rng)
            ops.append(Op("op.tokenize", len(data), partial(tok.tokenize, data),
                          partial(operator.eq, proper)))
            ops.append(Op("op.classify", len(data),
                          partial(segmentation.classify, tok, proper), _is_proper))
            ops.append(Op("op.classify", len(data),
                          partial(segmentation.classify, tok, split[0]),
                          partial(_is_mergeable_at, split[1])))
        for size in segment_sizes:
            data = random_text(rng, size)
            count = count_segmentations(tok.vocab, data)
            ops.append(Op("op.count", len(data),
                          partial(segmentation.count_tokenizations, tok, data),
                          partial(operator.eq, count)))
            ops.append(Op("op.enumerate", len(data),
                          partial(first_segmentations, tok, data, self.LIMIT),
                          partial(_segmentations_ok, table, data,
                                  min(self.LIMIT, count))))
        rng.shuffle(ops)
        while True:
            yield ops


# --- cli_oneshot -------------------------------------------------------------------


def _cli_ok(code: int, stdout: str, proc) -> bool:
    return proc.returncode == code and proc.stdout.rstrip("\n") == stdout


def _cli_enumerate_ok(table: MergeTable, data: bytes, proper: list[int], total: int,
                      limit: int, proc) -> bool:
    if proc.returncode != 0:
        return False
    lines = proc.stdout.rstrip("\n").split("\n")
    if lines[-1] != f"total: {total}" or len(lines) - 1 != min(limit, total):
        return False
    items = []
    for line in lines[:-1]:
        ids_text, _, kind = line.partition("\t")
        ids = [int(x) for x in ids_text.split()]
        if table.kind(ids, proper) != kind:
            return False
        items.append(ids)
    return _segmentations_ok(table, data, len(items), items)


class CliOneshot(Workload):
    """One ``python -m toklang.cli`` process per op, on small inputs.

    Interpreter start, imports and loading the grammar and tokenizer files
    dominate each op.  The peak memory reported is that of the largest
    child process.
    """

    name = "cli_oneshot"
    rusage = resource.RUSAGE_CHILDREN
    MERGES = 60
    SIZES = _ladder(16, 256, 16)
    LIMIT = 4
    BUDGET = 20

    def setup(self, seed, scale, workdir):
        rng = random.Random(f"{self.name}/{seed}")
        tok = bpe.train([dyck_member(rng, 200) for _ in range(20)], self.MERGES)
        table = MergeTable(tok.vocab, tok.merges)
        art = workdir / f"cli-{seed}"
        art.mkdir(parents=True, exist_ok=True)
        (art / "dyck.g").write_text(toys.DYCK_LETTERS_GRAMMAR_TEXT, encoding="utf-8")
        (art / "tok.json").write_text(bpe.dumps_tokenizer(tok) + "\n", encoding="utf-8")
        src = str(Path(grammar.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        state = art, env, table, rng
        proc = _cli(state, "tokenize", "--tokenizer", "tok.json", "ab")  # compile bytecode
        if proc.returncode != 0:
            raise RuntimeError(f"toklang CLI does not start: {proc.stderr.strip()}")
        return state

    def passes(self, state):
        _, _, table, rng = state
        tok_flags = ("--tokenizer", "tok.json")
        rec_flags = ("--grammar", "dyck.g", "--alphabet", "byte") + tok_flags
        ops = []
        for size in self.SIZES:
            split = None
            while split is None:
                data = dyck_member(rng, size)
                proper = table.tokenize(data)
                split = table.split_one(proper, rng)
            text = data.decode("ascii")
            ids = " ".join(map(str, proper))
            split_ids = " ".join(map(str, split[0]))
            bad_ids = ids + f" {table.single[0x5D]}"
            total = count_segmentations(table.vocab, data)
            n = len(data)

            def op(label, nbytes, check, *argv):
                return Op(f"cli.{label}", nbytes, partial(_cli, state, *argv), check)

            ops += [
                op("tokenize", n, partial(_cli_ok, 0, ids), "tokenize", *tok_flags, text),
                op("recognize_tokens", n, partial(_cli_ok, 0, "accept"),
                   "recognize", *rec_flags, "--mode", "tokens", split_ids),
                op("recognize_tokens", n + 1, partial(_cli_ok, 1, "reject"),
                   "recognize", *rec_flags, "--mode", "tokens", bad_ids),
                op("recognize_proper", n, partial(_cli_ok, 0, "accept"),
                   "recognize", *rec_flags, "--mode", "proper", ids),
                op("recognize_proper", n, partial(_cli_ok, 1, "reject: improper: Mergeable"),
                   "recognize", *rec_flags, "--mode", "proper", split_ids),
                op("classify", n, partial(_cli_ok, 0, f"Mergeable at {split[1]}"),
                   "classify", *tok_flags, split_ids),
                op("enumerate", n,
                   partial(_cli_enumerate_ok, table, data, proper, total, self.LIMIT),
                   "enumerate", *tok_flags, "--limit", str(self.LIMIT), text),
                op("verify", 0,
                   partial(_cli_ok, 0, f"homomorphism: pass ({self.BUDGET + 1} cases checked)"),
                   "verify", *tok_flags, "--suite", "homomorphism",
                   "--budget", str(self.BUDGET), "--seed", str(rng.randrange(1000))),
            ]
        rng.shuffle(ops)
        while True:
            yield ops


def _cli(state, *argv) -> subprocess.CompletedProcess:
    art, env, _, _ = state
    return subprocess.run([sys.executable, "-m", "toklang.cli", *argv], cwd=art, env=env,
                          capture_output=True, text=True, timeout=60)


WORKLOADS = {w.name: w for w in (DecodeMask(), ValidateDocs(), TokenizerCorpus(), CliOneshot())}
