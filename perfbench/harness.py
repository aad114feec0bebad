"""Running a workload: the closed loop, its end-to-end metrics, and the
traced run that gives the per-layer metrics.

An untraced run issues passes of ops (the same inputs in every pass)
until the passes have taken ``seconds`` of wall time and at least
``MIN_PASSES`` of them are done.

Timings are calibrated.  The host this runs on is shared: for spells of
milliseconds to minutes a neighbour's load slows all code here by up to
about 1.8x, and how much of a run such spells cover changes from run to
run.  So right after every op the harness times a fixed kernel of the
benchmark's own (``calibrate``: a counting DP from ``reference.py`` on
fixed data, with the garbage collector off), and divides the op's latency
by the mean of the kernel times just before and after it.  Multiplied by
``CAL_REF_S`` this reads as the op's time on a host where the kernel takes
1 ms.  toklang's code never runs inside the kernel, so a change to it
moves the op times and not the yardstick.  An op's latency is the median
of its calibrated latencies over the passes in which it completed.
``op_ms_p50`` and ``op_ms_p95`` are quantiles of those over the distinct
ops, and ``bytes_per_s`` is their input bytes over their sum.  The
workload is set up ``SETUP_REPEATS`` times, spread between the passes,
each set-up calibrated by kernel runs just before and after it;
``setup_s`` is the median.  The uncalibrated figures go to the run's
metadata.

A traced run installs the tracer, sets up and runs ``TRACE_PASSES``
passes, then sets up again and replays the same passes untraced, then runs
the scaling probes.  Its per-layer times are not calibrated.  The tracing
overhead is the difference between the two runs' summed op latencies.
"""

from __future__ import annotations

import gc
import random
import resource
import statistics
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from probes import run_probes
from reference import count_segmentations
from tracing import Tracer
from workloads import Workload

MIN_PASSES = 3
SETUP_REPEATS = 3
SETUP_CAL_RUNS = 5   # kernel runs on each side of a set-up
TRACE_PASSES = 2
CAL_REF_S = 1e-3

_cal_rng = random.Random("calibration")
CAL_VOCAB = tuple(bytes([b]) for b in range(256)) + tuple(
    bytes(_cal_rng.choice(b"[]ab ") for _ in range(_cal_rng.randint(2, 5)))
    for _ in range(300))
CAL_DATA = bytes(_cal_rng.choice(b"[]ab ") for _ in range(1000))


def calibrate() -> float:
    """Seconds one run of the calibration kernel takes now."""
    enabled = gc.isenabled()
    gc.disable()  # so toklang's heap, whatever its size, does not slow it
    try:
        t0 = perf_counter()
        count_segmentations(CAL_VOCAB, CAL_DATA)
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


@dataclass
class Tally:
    attempted: int = 0
    completed: int = 0   # executions that returned the right answer
    wrong: int = 0
    errors: Counter = field(default_factory=Counter)  # exception type -> ops
    passes: int = 0
    # per op of a pass: input bytes, and its latencies over the passes in
    # which it completed, uncalibrated and calibrated
    nbytes: list[int] = field(default_factory=list)
    raw: list[list[float]] = field(default_factory=list)
    cal: list[list[float]] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return self.wrong + sum(self.errors.values())

    def done(self, calibrated: bool = True) -> tuple[list[float], int]:
        """Median latency of each op that completed, and their input bytes."""
        runs = self.cal if calibrated else self.raw
        pairs = [(statistics.median(r), n) for r, n in zip(runs, self.nbytes) if r]
        return [m for m, _ in pairs], sum(n for _, n in pairs)


def _checks(op, result) -> bool:
    try:
        return op.check(result)
    except Exception:  # a result of the wrong shape is a wrong answer
        return False


def drive(passes, seconds: float, min_passes: int, tracer: Tracer | None = None,
          max_passes: int | None = None, after_pass=None) -> Tally:
    """Issue passes of ops one op at a time; stop at the end of a pass once
    the passes took *seconds* of wall time and *min_passes* are done, or
    after *max_passes* passes when that is given.  *after_pass* runs after
    every pass, outside that wall time."""
    tally = Tally()
    wall = 0.0
    for ops in passes:
        t_pass = perf_counter()
        if not tally.nbytes:
            tally.nbytes = [op.nbytes for op in ops]
            tally.raw = [[] for _ in ops]
            tally.cal = [[] for _ in ops]
        cal_before = calibrate()
        for i, op in enumerate(ops):
            if op.prepare is not None:
                op.prepare()
            if tracer is not None:
                tracer.op_id = tally.attempted
                span = tracer.open_span(op.label, op.nbytes)
            error = None
            t0 = perf_counter()
            try:
                result = op.call()
            except Exception as e:  # a failed op is counted, and the run goes on
                error = type(e).__name__
            finally:
                dt = perf_counter() - t0
                if tracer is not None:
                    tracer.close_span(span)
                    tracer.op_id = -1
            cal_after = calibrate()
            if error is not None:
                tally.errors[error] += 1
            elif _checks(op, result):
                tally.completed += 1
                tally.raw[i].append(dt)
                tally.cal[i].append(dt * CAL_REF_S * 2 / (cal_before + cal_after))
            else:
                tally.wrong += 1
            cal_before = cal_after
            tally.attempted += 1
        wall += perf_counter() - t_pass
        tally.passes += 1
        if after_pass is not None:
            after_pass()
        if max_passes is not None:
            if tally.passes >= max_passes:
                break
        elif tally.passes >= min_passes and wall >= seconds:
            break
    return tally


def _p95(values: list[float]) -> float:
    return statistics.quantiles(values, n=20, method="inclusive")[18]


def _peak_rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024  # Linux reports KiB


def _end_to_end(tally: Tally, setups: list[float], calibrated: bool) -> dict:
    lat, nbytes = tally.done(calibrated)
    return {
        "setup_s": (statistics.median(setups), "s"),
        "bytes_per_s": (nbytes / sum(lat) if lat else 0.0, "B/s"),
        "op_ms_p50": (statistics.median(lat) * 1e3 if lat else 0.0, "ms"),
        "op_ms_p95": (_p95(lat) * 1e3 if len(lat) >= 2 else 0.0, "ms"),
    }


def run_untraced(workload: Workload, seed: int, seconds: float, scale: float,
                 workdir: Path, min_passes: int = MIN_PASSES):
    setups_raw: list[float] = []
    setups_cal: list[float] = []

    def set_up():
        before = [calibrate() for _ in range(SETUP_CAL_RUNS)]
        t0 = perf_counter()
        state = workload.setup(seed, scale, workdir)
        dt = perf_counter() - t0
        after = [calibrate() for _ in range(SETUP_CAL_RUNS)]
        setups_raw.append(dt)
        setups_cal.append(dt * CAL_REF_S / statistics.fmean(before + after))
        return state

    def spread_setups():
        if len(setups_raw) < SETUP_REPEATS:
            set_up()

    tally = drive(workload.passes(set_up()), seconds, min_passes, after_pass=spread_setups)
    while len(setups_raw) < SETUP_REPEATS:
        set_up()
    metrics = {
        **_end_to_end(tally, setups_cal, calibrated=True),
        "peak_rss_mb": (_peak_rss_mb(workload.rusage), "MB"),
        "ok_share": (tally.completed / tally.attempted, "ratio"),
    }
    raw = {name: value for name, (value, _) in
           _end_to_end(tally, setups_raw, calibrated=False).items()}
    return tally, metrics, {"uncalibrated": raw, "setup_s_each": setups_cal}


def run_traced(workload: Workload, seed: int, scale: float, workdir: Path,
               passes: int = TRACE_PASSES):
    """A fixed amount of work: *passes* passes.

    Counts and self times are totals over that work, so for one seed they
    compare across versions of the program however fast each one is.
    """
    tracer = Tracer()
    tracer.install()
    try:
        state = workload.setup(seed, scale, workdir)
        tally = drive(workload.passes(state), 0.0, 1, tracer=tracer, max_passes=passes)
    finally:
        tracer.uninstall()
    state = workload.setup(seed, scale, workdir)
    plain = drive(workload.passes(state), 0.0, 1, max_passes=passes)
    metrics = layer_metrics(tracer.summary())
    traced_s = sum(tally.done(calibrated=False)[0])
    plain_s = sum(plain.done(calibrated=False)[0])
    overhead = traced_s - plain_s
    metrics["trace.overhead_s"] = (overhead, "s")
    metrics["trace.overhead_share"] = (overhead / plain_s, "ratio")
    probe_metrics, wrong_probes = run_probes(seed)
    metrics.update(probe_metrics)
    spans = workdir / f"spans-{workload.name}-seed{seed}.tsv.gz"
    tracer.write(spans)
    # The untraced replay and the probes must get their answers right too.
    tally.wrong += plain.wrong + len(wrong_probes)
    extra = {"spans_file": str(spans), "spans": len(tracer.start),
             "traced_op_s": traced_s, "untraced_op_s": plain_s,
             "replay_failed": plain.failed, "wrong_probes": wrong_probes}
    return tally, metrics, extra


# --- per-layer metrics ---------------------------------------------------------

CLI_SUBCOMMANDS = ("tokenize", "recognize_tokens", "recognize_proper", "classify",
                   "enumerate", "verify")

# name, unit, better: every per-layer metric a traced run reports.
PER_LAYER: list[tuple[str, str, str]] = [
    ("grammar.feed.calls", "count", "lower"),
    ("grammar.feed.self_s", "s", "lower"),
    ("grammar.recognize.self_s", "s", "lower"),
    ("grammar.recognize.us_per_byte", "us/B", "lower"),
    ("grammar.recognize.exponent", "slope", "lower"),
    ("grammar.clone.calls", "count", "lower"),
    ("grammar.clone.self_s", "s", "lower"),
    ("recognizer.allowed_next_tokens.calls", "count", "lower"),
    ("recognizer.allowed_next_tokens.self_s", "s", "lower"),
    ("recognizer.allowed_next_tokens.ms_p50", "ms", "lower"),
    ("recognizer.allowed_next_tokens.ms_p95", "ms", "lower"),
    ("recognizer.allowed_next_tokens.exponent", "slope", "lower"),
    ("recognizer.allowed_share", "ratio", "higher"),
    ("recognizer.feed.self_s", "s", "lower"),
    ("recognizer.accepts_tokens.self_s", "s", "lower"),
    ("recognizer.accepts_tokens.us_per_byte", "us/B", "lower"),
    ("recognizer.accepts_tokens.exponent", "slope", "lower"),
    ("recognizer.accepts_proper.self_s", "s", "lower"),
    ("recognizer.token_overhead_ratio", "ratio", "lower"),
    ("bpe.check_ids.calls", "count", "lower"),
    ("bpe.check_ids.self_s", "s", "lower"),
    ("bpe.detokenize.calls", "count", "lower"),
    ("bpe.detokenize.self_s", "s", "lower"),
    ("bpe.tokenize.calls", "count", "lower"),
    ("bpe.tokenize.self_s", "s", "lower"),
    ("bpe.tokenize.us_per_byte", "us/B", "lower"),
    ("bpe.tokenize.exponent", "slope", "lower"),
    ("bpe.train.s", "s", "lower"),
    ("bpe.train.merges_per_s", "1/s", "higher"),
    ("bpe.train.exponent", "slope", "lower"),
    ("encoding.encode_grammar.s", "s", "lower"),
    ("segmentation.classify.calls", "count", "lower"),
    ("segmentation.classify.self_s", "s", "lower"),
    ("segmentation.find_mergeable_pair.self_s", "s", "lower"),
    ("segmentation.count_tokenizations.self_s", "s", "lower"),
    ("segmentation.count_tokenizations.exponent", "slope", "lower"),
    ("segmentation.enumerate_tokenizations.self_s", "s", "lower"),
    ("segmentation.enumerate_tokenizations.items", "count", "higher"),
    ("segmentation.enumerate_tokenizations.failed", "count", "lower"),
    ("segmentation.enumerate_tokenizations.exponent", "slope", "lower"),
    *[(f"cli.{sub}.ms_p50", "ms", "lower") for sub in CLI_SUBCOMMANDS],
    ("cli.interpreter_ms_p50", "ms", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.overhead_share", "ratio", "lower"),
    ("probe.train.10k_s", "s", "lower"),
    ("probe.train.40k_s", "s", "lower"),
    ("probe.tokenize.1k_ms", "ms", "lower"),
    ("probe.tokenize.4k_ms", "ms", "lower"),
    ("probe.recognize.dyck_2000b_s", "s", "lower"),
    ("probe.recognize.dyck_8000b_s", "s", "lower"),
    ("probe.accepts_tokens.1k_ms", "ms", "lower"),
    ("probe.accepts_tokens.4k_ms", "ms", "lower"),
    ("probe.recognize.letters_1k_ms", "ms", "lower"),
    ("probe.recognize.letters_4k_ms", "ms", "lower"),
    ("probe.token_overhead_ratio", "ratio", "lower"),
    ("probe.allowed_next_tokens.10b_ms", "ms", "lower"),
    ("probe.allowed_next_tokens.1000b_ms", "ms", "lower"),
    ("probe.allowed_next_tokens.4000b_ms", "ms", "lower"),
    ("probe.allowed_next_tokens.16000b_ms", "ms", "lower"),
]


def layer_metrics(summary: dict[str, dict]) -> dict[str, tuple[float, str]]:
    """Span summaries -> the span-derived per-layer metrics.  A layer the
    workload never calls reads 0."""
    empty = {"calls": 0, "self_s": 0.0, "total_s": 0.0, "size": 0, "items": 0,
             "failed": 0, "durations": [], "by_parent": {}}

    def s(name):
        return summary.get(name, empty)

    def per(a, b):
        return a / b if b else 0.0

    out: dict[str, tuple[float, str]] = {}
    for name in ("grammar.feed", "grammar.clone", "recognizer.allowed_next_tokens",
                 "bpe.check_ids", "bpe.detokenize", "bpe.tokenize",
                 "segmentation.classify"):
        out[f"{name}.calls"] = (s(name)["calls"], "count")
    for name in ("grammar.feed", "grammar.recognize", "grammar.clone",
                 "recognizer.allowed_next_tokens", "recognizer.feed",
                 "recognizer.accepts_tokens", "recognizer.accepts_proper",
                 "bpe.check_ids", "bpe.detokenize", "bpe.tokenize",
                 "segmentation.classify", "segmentation.find_mergeable_pair",
                 "segmentation.count_tokenizations",
                 "segmentation.enumerate_tokenizations"):
        out[f"{name}.self_s"] = (s(name)["self_s"], "s")
    for name in ("grammar.recognize", "recognizer.accepts_tokens", "bpe.tokenize"):
        out[f"{name}.us_per_byte"] = (per(s(name)["total_s"], s(name)["size"]) * 1e6, "us/B")

    mask = s("recognizer.allowed_next_tokens")
    durations = mask["durations"]
    out["recognizer.allowed_next_tokens.ms_p50"] = (
        statistics.median(durations) * 1e3 if durations else 0.0, "ms")
    out["recognizer.allowed_next_tokens.ms_p95"] = (
        _p95(durations) * 1e3 if len(durations) >= 2 else 0.0, "ms")
    out["recognizer.allowed_share"] = (per(mask["items"], mask["size"]), "ratio")

    # accepts_tokens against recognize, both called by the op on the same bytes
    out["recognizer.token_overhead_ratio"] = (per(
        s("recognizer.accepts_tokens")["by_parent"].get("op.validate", 0.0),
        s("grammar.recognize")["by_parent"].get("op.validate", 0.0)), "ratio")

    train = s("bpe.train")
    out["bpe.train.s"] = (train["total_s"], "s")
    out["bpe.train.merges_per_s"] = (per(train["items"], train["total_s"]), "1/s")
    out["encoding.encode_grammar.s"] = (s("encoding.encode_grammar")["total_s"], "s")
    enum = s("segmentation.enumerate_tokenizations")
    out["segmentation.enumerate_tokenizations.items"] = (enum["items"], "count")
    out["segmentation.enumerate_tokenizations.failed"] = (enum["failed"], "count")
    for sub in CLI_SUBCOMMANDS:
        durations = s(f"cli.{sub}")["durations"]
        out[f"cli.{sub}.ms_p50"] = (
            statistics.median(durations) * 1e3 if durations else 0.0, "ms")
    return out
