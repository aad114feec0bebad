"""Scaling probes: each layer timed at two or more input sizes, untraced.

They reproduce the baselines listed under ROADMAP item 1 and report the
log-log slope of time against input bytes (against consumed bytes for the
mask).  An exponent near 1 is linear, near 2 quadratic.  Every probe
checks its answer like a workload op does.
"""

from __future__ import annotations

import math
import random
import statistics
import subprocess
import sys
from time import perf_counter

from toklang import bpe, grammar, recognizer, segmentation, toys

from reference import DyckLetters, MergeTable, count_segmentations
from workloads import dyck_member, first_segmentations, random_text

TRAIN_MERGES = 300
TRAIN_SAMPLES = (50, 200)     # x 200 B: 10 KB and 40 KB corpora
TOKENIZE_SIZES = (1024, 4096)
DYCK_PAIRS = (1000, 4000)     # "[]" * n
ACCEPTS_SIZES = (1024, 4096)
MASK_PREFIXES = (10, 1000, 4000, 16000)
COUNT_SIZES = (2048, 8192)
ENUMERATE_SIZES = (512, 2048)  # below the recursion depth of enumerate
INTERPRETER_RUNS = 11


def loglog_slope(points: list[tuple[float, float]]) -> float:
    """Least-squares slope of log(time) against log(size)."""
    xs = [math.log(n) for n, _ in points]
    ys = [math.log(t) for _, t in points]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) ** 2 for x in xs))


def _timed(fn, *args, **kwargs):
    t0 = perf_counter()
    result = fn(*args, **kwargs)
    return perf_counter() - t0, result


def _best_of(reps, fn, *args):
    times = []
    for _ in range(reps):
        dt, result = _timed(fn, *args)
        times.append(dt)
    return min(times), result


def run_probes(seed: int) -> tuple[dict[str, tuple[float, str]], list[str]]:
    """Metric name -> (value, unit), and the probes whose answer was wrong."""
    rng = random.Random(f"probes/{seed}")
    out: dict[str, tuple[float, str]] = {}
    wrong: list[str] = []

    def expect(name, ok):
        if not ok:
            wrong.append(name)

    # bpe.train: 300 merges on 10 KB and on 40 KB
    points = []
    for samples in TRAIN_SAMPLES:
        corpus = [random_text(rng, 200) for _ in range(samples)]
        dt, tok = _timed(bpe.train, corpus, TRAIN_MERGES)
        expect("train", len(tok.merges) == TRAIN_MERGES)
        points.append((samples * 200, dt))
        out[f"probe.train.{samples * 200 // 1000}k_s"] = (dt, "s")
    out["bpe.train.exponent"] = (loglog_slope(points), "slope")
    table = MergeTable(tok.vocab, tok.merges)

    # bpe.tokenize with the 40 KB tokenizer at 1 KB and 4 KB
    points = []
    for n in TOKENIZE_SIZES:
        data = random_text(rng, n)
        dt, ids = _timed(tok.tokenize, data)
        expect("tokenize", ids == table.tokenize(data))
        points.append((n, dt))
        out[f"probe.tokenize.{n // 1024}k_ms"] = (dt * 1e3, "ms")
    out["bpe.tokenize.exponent"] = (loglog_slope(points), "slope")

    # grammar.recognize on the Dyck toy: "[]" * 1000 and "[]" * 4000
    dyck = toys.dyck_grammar()
    points = []
    for pairs in DYCK_PAIRS:
        dt, ok = _timed(grammar.recognize, dyck, b"[]" * pairs)
        expect("recognize", ok is True)
        points.append((2 * pairs, dt))
        out[f"probe.recognize.dyck_{2 * pairs}b_s"] = (dt, "s")
    out["grammar.recognize.exponent"] = (loglog_slope(points), "slope")

    # accepts_tokens against recognize on the same bytes
    letters = toys.dyck_letters_grammar()
    rec = recognizer.TokenRecognizer(letters, toys.letter_bracket_tokenizer())
    ltable = MergeTable(rec.tokenizer.vocab, rec.tokenizer.merges)
    points = []
    for n in ACCEPTS_SIZES:
        data = dyck_member(rng, n)
        ids = ltable.tokenize(data)
        t_rec, ok_rec = _best_of(3, grammar.recognize, letters, data)
        t_tok, ok_tok = _best_of(3, rec.accepts_tokens, ids)
        expect("accepts_tokens", ok_rec is True and ok_tok is True)
        points.append((len(data), t_tok))
        k = n // 1024
        out[f"probe.accepts_tokens.{k}k_ms"] = (t_tok * 1e3, "ms")
        out[f"probe.recognize.letters_{k}k_ms"] = (t_rec * 1e3, "ms")
    out["recognizer.accepts_tokens.exponent"] = (loglog_slope(points), "slope")
    out["probe.token_overhead_ratio"] = (t_tok / t_rec, "ratio")

    # allowed_next_tokens after short and long prefixes of "["
    brackets = recognizer.TokenRecognizer(dyck, toys.bracket_tokenizer())
    oracle = DyckLetters(brackets.tokenizer.vocab, letters=b"")
    session = brackets.open_session()
    points = []
    for n in MASK_PREFIXES:
        while session.inner.consumed < n:
            session.inner.feed(0x5B)
        dt, mask = _best_of(3, session.allowed_next_tokens)
        expect("allowed_next_tokens", sorted(mask) == oracle.allowed(n))
        points.append((n, dt))
        out[f"probe.allowed_next_tokens.{n}b_ms"] = (dt * 1e3, "ms")
    out["recognizer.allowed_next_tokens.exponent"] = (loglog_slope(points), "slope")

    # count_tokenizations and enumerate_tokenizations with the 40 KB tokenizer
    points = []
    for n in COUNT_SIZES:
        data = random_text(rng, n)
        dt, count = _best_of(3, segmentation.count_tokenizations, tok, data)
        expect("count_tokenizations", count == count_segmentations(tok.vocab, data))
        points.append((n, dt))
    out["segmentation.count_tokenizations.exponent"] = (loglog_slope(points), "slope")
    points = []
    for n in ENUMERATE_SIZES:
        data = random_text(rng, n)
        dt, items = _best_of(3, first_segmentations, tok, data, 16)
        expect("enumerate_tokenizations",
               len(items) == 16 and all(table.join(ids) == data for ids in items))
        points.append((n, dt))
    out["segmentation.enumerate_tokenizations.exponent"] = (loglog_slope(points), "slope")

    # the floor under every CLI op: a bare interpreter
    runs = [_timed(subprocess.run, [sys.executable, "-c", "pass"], check=True)[0]
            for _ in range(INTERPRETER_RUNS)]
    out["cli.interpreter_ms_p50"] = (statistics.median(runs) * 1e3, "ms")
    return out, wrong
