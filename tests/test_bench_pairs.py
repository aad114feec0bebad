"""scripts/bench_pairs.py compares two checkouts only when both run the same
benchmark code, and prints the src/ line count of each; the paired runs
themselves are not started here."""

import importlib.util
import json
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"


def _checkout(root: Path, files: dict[str, str]) -> Path:
    for name, text in files.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_text(text, encoding="utf-8")
    return root


_BENCH = {"BENCHMARK.json": "{}", "perfbench/run.py": "", "perfbench/tests/test_a.py": ""}


@pytest.mark.parametrize("change, differing", [
    ({"perfbench/tests/test_a.py": "x = 1\n"}, "perfbench/tests/test_a.py"),
    ({"BENCHMARK.json": '{"paths": []}', "perfbench/run.py": "x = 1\n"}, "BENCHMARK.json"),
    ({"perfbench/extra.py": ""}, "perfbench/extra.py"),  # a file on one side only
])
def test_refuses_checkouts_with_different_benchmark_code(tmp_path, change, differing):
    parent = _checkout(tmp_path / "parent", _BENCH)
    changed = _checkout(tmp_path / "change", {**_BENCH, **change})
    proc = subprocess.run([sys.executable, str(SCRIPT), str(parent), str(changed),
                           "decode_mask", "1", "1", "2"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.count("\n") == 1 and proc.stderr.rstrip().endswith(differing)


def test_code_outside_the_benchmark_may_differ(tmp_path):
    first_difference = runpy.run_path(str(SCRIPT))["first_difference"]
    parent = _checkout(tmp_path / "parent",
                       {**_BENCH, "src/m.py": "", "perfbench/out/r.json": "1"})
    changed = _checkout(tmp_path / "change",
                        {**_BENCH, "src/m.py": "x = 1\n", "README.md": ""})
    assert first_difference(parent, changed) is None


def test_prints_the_src_line_count_of_both_checkouts(tmp_path, monkeypatch, capsys):
    # the paired runs are stubbed, so no perfbench process starts
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    bench_pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_pairs)
    bench = {**_BENCH, "BENCHMARK.json": json.dumps(
        {"end_to_end": [{"name": "op_ms_p50", "better": "lower"}]})}
    parent = _checkout(tmp_path / "parent", {**bench, "src/a/m.py": "x = 1\ny = 2\nz = 3\n",
                                             "src/a/notes.txt": "not code\n"})
    changed = _checkout(tmp_path / "change", {**bench, "src/a/m.py": "x = 1\n",
                                              "src/b.py": "y = 2\n", "README.md": "text\n"})
    assert (bench_pairs.src_lines(parent), bench_pairs.src_lines(changed)) == (3, 2)
    parent, changed = parent.resolve(), changed.resolve()  # as main compares them

    runs = []
    monkeypatch.setattr(bench_pairs, "run", lambda root, *_: runs.append(root) or
                        {"op_ms_p50": 2.0 if root == parent else 1.0, "setup_s": 0.1})
    monkeypatch.setattr(sys, "argv", ["bench_pairs.py", str(parent), str(changed),
                                      "decode_mask", "1", "1", "2"])
    assert bench_pairs.main() == 0
    assert runs == [parent, changed, changed, parent]
    summary = capsys.readouterr().out.splitlines()[2:]
    assert summary[1].split() == ["src", "lines", "3", "->", "2"]
    assert summary[2].split()[:2] == ["op_ms_p50", "2"]


def test_prints_whether_each_metric_keeps_its_bound(tmp_path, monkeypatch, capsys):
    # op_ms_p50 is 20% worse within a bound of 25%; bytes_per_s is 20% worse
    # beyond a bound of 10%; the paired runs are stubbed
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    bench_pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_pairs)
    bench = {**_BENCH, "BENCHMARK.json": json.dumps({"end_to_end": [
        {"name": "op_ms_p50", "better": "lower", "bound": 0.25},
        {"name": "bytes_per_s", "better": "higher", "bound": 0.1}]})}
    parent = _checkout(tmp_path / "parent", bench).resolve()
    changed = _checkout(tmp_path / "change", bench).resolve()
    monkeypatch.setattr(bench_pairs, "run", lambda root, *_: {
        "op_ms_p50": 2.0 if root == parent else 2.4,
        "bytes_per_s": 100.0 if root == parent else 80.0})
    monkeypatch.setattr(sys, "argv", ["bench_pairs.py", str(parent), str(changed),
                                      "decode_mask", "1", "1", "2"])
    assert bench_pairs.main() == 0
    lines = {line.split()[0]: line.split() for line in capsys.readouterr().out.splitlines()[4:]}
    assert lines["op_ms_p50"][-4:] == ["fails", "bound", "25%", "kept"]
    assert lines["bytes_per_s"][-4:] == ["fails", "bound", "10%", "exceeded"]
