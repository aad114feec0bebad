"""Tests of the benchmark itself: its checkers, a tiny run of every
workload, and the names it reports.

    python3 -m pytest perfbench/tests
"""

import gc
import json
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import harness
from reference import DyckLetters, MergeTable, count_segmentations
import workloads
from workloads import DOC_GRAMMAR, WORKLOADS, doc_member, dyck_member, random_text
from toklang import bpe, grammar, recognizer, segmentation, toys

ROOT = Path(__file__).resolve().parents[2]
TINY = 0.05


@pytest.fixture(scope="module")
def trained():
    rng = random.Random(0)
    return bpe.train([random_text(rng, 200) for _ in range(20)], 60)


# --- the reference answers agree with the library at the parent commit --------


def test_reference_tokenize_matches_library(trained):
    table = MergeTable(trained.vocab, trained.merges)
    rng = random.Random(1)
    for n in (0, 1, 2, 7, 50, 300):
        data = random_text(rng, n)
        assert table.tokenize(data) == trained.tokenize(data)
    aab = toys.aab_tokenizer()
    for data in (b"aaabb", b"aaaa", b"abab", b"baaab"):
        assert MergeTable(aab.vocab, aab.merges).tokenize(data) == aab.tokenize(data)


def test_reference_count_matches_library(trained):
    rng = random.Random(2)
    for n in (0, 1, 5, 40, 200):
        data = random_text(rng, n)
        assert count_segmentations(trained.vocab, data) == \
            segmentation.count_tokenizations(trained, data)


def test_split_is_mergeable_and_detokenizes_the_same(trained):
    table = MergeTable(trained.vocab, trained.merges)
    rng = random.Random(3)
    data = random_text(rng, 300)
    split, at = table.split_one(table.tokenize(data), rng)
    assert table.join(split) == data
    c = segmentation.classify(trained, split)
    assert c.kind.value == "Mergeable" and c.mergeable_at == at


def test_dyck_oracle_matches_the_mask():
    rng = random.Random(4)
    tok = bpe.train([dyck_member(rng, 200) for _ in range(10)], 40)
    rec = recognizer.TokenRecognizer(toys.dyck_letters_grammar(), tok)
    oracle = DyckLetters(tok.vocab)
    session, depth = rec.open_session(), 0
    for _ in range(30):
        allowed = oracle.allowed(depth)
        assert sorted(session.allowed_next_tokens()) == allowed
        tid = rng.choice(allowed)
        session.feed(tid)
        depth += oracle.delta[tid]


def test_generated_documents_are_members():
    g = grammar.reduce_grammar(grammar.parse_grammar(DOC_GRAMMAR, "unicode"))
    rng = random.Random(5)
    for n in (1, 30, 200):
        doc = doc_member(rng, n)
        assert len(doc) >= n
        assert grammar.recognize(g, doc.decode("utf-8"))
        assert not grammar.recognize(g, doc.decode("utf-8") + "]")


# --- every workload runs, tiny, and gets every answer right ----------------------


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_untraced(name, tmp_path):
    tally, metrics, extra = harness.run_untraced(WORKLOADS[name], 7, 0.01, TINY, tmp_path,
                                                 min_passes=2)
    assert tally.wrong == 0 and tally.failed == 0
    assert tally.passes == 2 and tally.attempted == 2 * len(tally.nbytes)
    assert all(len(runs) == 2 for runs in tally.cal)
    assert len(extra["setup_s_each"]) == harness.SETUP_REPEATS
    assert set(metrics) == {m["name"] for m in _benchmark()["end_to_end"]}
    assert all(value > 0 for value, _ in metrics.values())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_traced(name, tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "run_probes", lambda seed: ({}, []))  # tested below
    tally, metrics, extra = harness.run_traced(WORKLOADS[name], 7, TINY, tmp_path,
                                               passes=1)
    assert tally.wrong == 0 and extra["replay_failed"] == 0
    assert Path(extra["spans_file"]).is_file()
    assert metrics["bpe.train.s"][0] > 0
    layers = {n for n, _, _ in harness.PER_LAYER}
    assert set(metrics) <= layers


def test_traced_run_reports_every_per_layer_metric(tmp_path):
    _, metrics, extra = harness.run_traced(WORKLOADS["decode_mask"], 7, TINY, tmp_path,
                                           passes=1)
    assert extra["wrong_probes"] == []
    assert list(_benchmark()["per_layer"]) == [
        {"name": n, "unit": u, "better": b} for n, u, b in harness.PER_LAYER]
    assert set(metrics) == {n for n, _, _ in harness.PER_LAYER}
    assert all(metrics[n][1] == u for n, u, _ in harness.PER_LAYER)


# --- each checker flags a planted wrong answer ------------------------------------


def _first_ops(name, tmp_path):
    w = WORKLOADS[name]
    return next(w.passes(w.setup(3, TINY, tmp_path)))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_pass_repeats_the_same_inputs(name, tmp_path):
    w = WORKLOADS[name]
    passes = w.passes(w.setup(3, TINY, tmp_path))
    first, second = next(passes), next(passes)
    assert [(op.label, op.nbytes) for op in first] == \
        [(op.label, op.nbytes) for op in second]
    answers = []
    for ops in (first, second):
        answers.append([])
        for op in ops:
            if op.prepare is not None:
                op.prepare()
            try:
                result = op.call()
            except RecursionError:  # the known enumerate defect, in both passes
                result = "RecursionError"
            if isinstance(result, subprocess.CompletedProcess):
                result = (result.returncode, result.stdout)
            answers[-1].append(result)
    assert answers[0] == answers[1]


def test_mask_with_an_extra_id_fails(tmp_path):
    op = _first_ops("decode_mask", tmp_path)[0]
    op.prepare()
    mask = op.call()
    assert op.check(mask)
    extra = next(t for t in range(10**6) if t not in mask)
    assert not op.check(mask | {extra})
    assert not op.check(mask - {min(mask)})


def test_flipped_verdict_fails(tmp_path):
    for op in _first_ops("validate_docs", tmp_path):
        verdict = op.call()
        assert op.check(verdict)
        for i in range(3):
            flipped = tuple(not v if j == i else v for j, v in enumerate(verdict))
            assert not op.check(flipped)


def test_wrong_exit_code_or_output_fails(tmp_path):
    for op in _first_ops("cli_oneshot", tmp_path):
        proc = op.call()
        assert op.check(proc), (op.label, proc)
        assert not op.check(replace_proc(proc, returncode=proc.returncode ^ 1))
        assert not op.check(replace_proc(proc, stdout=proc.stdout + "x\n"))


def replace_proc(proc, **kw):
    fields = dict(args=proc.args, returncode=proc.returncode, stdout=proc.stdout,
                  stderr=proc.stderr)
    fields.update(kw)
    return subprocess.CompletedProcess(**fields)


def test_tokenizer_corpus_wrong_answers_fail(tmp_path):
    for op in _first_ops("tokenizer_corpus", tmp_path):
        result = op.call()
        assert op.check(result), op.label
        if op.label == "op.count":
            assert not op.check(result + 1)
        elif op.label == "op.tokenize":
            assert not op.check(result + result[:1])
        elif op.label == "op.enumerate":
            assert not op.check(result[:-1])
            assert not op.check(result + result[:1])
        elif op.label == "op.classify":
            kind = segmentation.Kind
            wrong = (segmentation.Classification(kind.MERGEABLE, mergeable_at=0)
                     if result.kind is kind.PROPER
                     else segmentation.Classification(kind.PROPER))
            assert not op.check(wrong)


def test_drive_counts_wrong_answers_and_exceptions(tmp_path, monkeypatch):
    w = WORKLOADS["decode_mask"]
    state = w.setup(3, TINY, tmp_path)
    real = recognizer.TokenSession.allowed_next_tokens
    monkeypatch.setattr(recognizer.TokenSession, "allowed_next_tokens",
                        lambda self: real(self) | {10**6})
    tally = harness.drive(w.passes(state), 0.0, 1, max_passes=2)
    assert tally.wrong == tally.attempted == 2 * len(tally.nbytes)
    assert tally.completed == 0 and not any(tally.raw) and not any(tally.cal)

    monkeypatch.setattr(recognizer.TokenSession, "allowed_next_tokens", lambda self: None)
    tally = harness.drive(w.passes(state), 0.0, 1, max_passes=1)
    assert tally.wrong == tally.attempted

    def boom(self):
        raise RecursionError
    monkeypatch.setattr(recognizer.TokenSession, "allowed_next_tokens", boom)
    tally = harness.drive(w.passes(state), 0.0, 1, max_passes=1)
    assert tally.errors == {"RecursionError": tally.attempted}
    assert tally.failed == tally.attempted


def test_drive_keeps_the_median_latency_of_each_op():
    naps = iter([0.03, 0.002, 0.02, 0.0])

    def call():
        nap = next(naps)
        time.sleep(nap)
        return nap

    ops = [workloads.Op("op.x", 5, call, lambda nap: nap > 0)]
    tally = harness.drive(iter(lambda: ops, None), 0.0, 1, max_passes=4)
    # the last pass answers wrong, so its near-zero latency is not kept
    assert tally.attempted == 4 and tally.completed == 3 and tally.wrong == 1
    (median,), nbytes = tally.done(calibrated=False)
    assert 0.02 <= median < 0.03 and nbytes == 5
    assert len(tally.cal[0]) == 3 and tally.done()[0][0] > 0


def test_calibration_kernel_leaves_the_collector_as_it_was():
    assert gc.isenabled()
    assert harness.calibrate() > 0
    assert gc.isenabled()
    gc.disable()
    try:
        harness.calibrate()
        assert not gc.isenabled()
    finally:
        gc.enable()


# --- the command -------------------------------------------------------------------


def _benchmark():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_benchmark_file_names_the_workloads():
    assert [w["name"] for w in _benchmark()["workloads"]] == list(WORKLOADS)


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "decode_mask", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
