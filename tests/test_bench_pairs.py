"""scripts/bench_pairs.py compares two checkouts only when both run the same
benchmark code, prints the src/ line count of each, and writes its runs as
JSON; the paired runs themselves are not started here.  Every committed
BENCH_*.json names only what BENCHMARK.json defines, and its summaries and
verdicts follow from its pairs."""

import importlib.util
import json
import platform
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "bench_pairs.py"


def _checkout(root: Path, files: dict[str, str]) -> Path:
    for name, text in files.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_text(text, encoding="utf-8")
    return root


_BENCH = {"BENCHMARK.json": "{}", "perfbench/run.py": "", "perfbench/tests/test_a.py": ""}


def _bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
    bench_pairs = _bench_pairs()
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
    bench_pairs = _bench_pairs()
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


def _write_runs(tmp_path, monkeypatch, path: Path) -> None:
    """Two stubbed runs of main, decode_mask and cli_oneshot, added to *path*
    with --json; both checkouts hold the repository's BENCHMARK.json."""
    bench_pairs = _bench_pairs()
    bench = {**_BENCH, "BENCHMARK.json": (ROOT / "BENCHMARK.json").read_text(encoding="utf-8")}
    parent = _checkout(tmp_path / "parent", {**bench, "src/m.py": "x = 1\ny = 2\nz = 3\n"})
    changed = _checkout(tmp_path / "change", {**bench, "src/m.py": "x = 1\n"})
    parent, changed = parent.resolve(), changed.resolve()
    for workload in ("decode_mask", "cli_oneshot"):
        ms = {parent: [2.0, 2.5, 2.25], changed: [1.0, 1.5, 2.75]}
        monkeypatch.setattr(bench_pairs, "run", lambda root, *_: {
            "op_ms_p50": ms[root].pop(0), "setup_s": 0.125, "peak_rss_mb": None})
        monkeypatch.setattr(sys, "argv", ["bench_pairs.py", "--json", str(path), str(parent),
                                          str(changed), workload, "6", "1", "2", "3"])
        assert bench_pairs.main() == 0


def test_writes_each_run_with_its_pairs_and_verdicts(tmp_path, monkeypatch):
    # the paired runs are stubbed; op_ms_p50 is better in 2 of 3 pairs
    path = tmp_path / "BENCH_1.json"
    _write_runs(tmp_path, monkeypatch, path)
    runs = json.loads(path.read_text(encoding="utf-8"))["runs"]
    assert [r["workload"] for r in runs] == ["decode_mask", "cli_oneshot"]
    run = runs[0]
    assert (run["seconds"], run["seeds"]) == (6.0, [1, 2, 3])
    assert run["python"] == platform.python_version()
    assert run["parent"] == {"commit": None, "src_lines": 3}  # no git checkout
    assert run["change"] == {"commit": None, "src_lines": 1}
    assert run["pairs"][1] == {"seed": 2, "parent": {"op_ms_p50": 2.5, "setup_s": 0.125,
                                                     "peak_rss_mb": None},
                               "change": {"op_ms_p50": 1.5, "setup_s": 0.125,
                                          "peak_rss_mb": None}}
    assert sorted(run["metrics"]) == ["op_ms_p50", "setup_s"]  # peak_rss_mb has no value
    assert run["metrics"]["op_ms_p50"] == {
        "parent": {"median": 2.25, "q1": 2.125, "q3": 2.375},
        "change": {"median": 1.5, "q1": 1.25, "q3": 2.125},
        "pairs_better": 2, "pairs": 3, "gain_rule": False, "bound_kept": True}
    assert run["metrics"]["setup_s"]["pairs_better"] == 0


def test_records_the_commit_of_a_git_checkout(tmp_path):
    commit = _bench_pairs().commit
    git = ["git", "-C", str(tmp_path), "-c", "user.name=t", "-c", "user.email=t@t",
           "-c", "commit.gpgsign=false"]
    (tmp_path / "a.txt").write_text("1\n")
    for args in (["init", "-q"], ["add", "a.txt"], ["commit", "-q", "-m", "a"]):
        subprocess.run([*git, *args], check=True, capture_output=True)
    head = subprocess.run([*git, "rev-parse", "HEAD"], check=True, capture_output=True,
                          text=True).stdout.strip()
    (tmp_path / "b.txt").write_text("untracked\n")
    assert commit(tmp_path) == head
    (tmp_path / "a.txt").write_text("2\n")
    assert commit(tmp_path) == head + "-dirty"


def _bench_file_problems(path: Path) -> list[str]:
    """What in the BENCH_*.json file at *path* names a workload or metric that
    BENCHMARK.json lacks, or contradicts its own pairs: each metric's medians,
    quartiles, pairs better and verdicts are derived again from its pairs."""
    summary = _bench_pairs().summary
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = {w["name"] for w in spec["workloads"]}
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    problems = []
    for k, run in enumerate(json.loads(path.read_text(encoding="utf-8"))["runs"]):
        where = f"{path.name} run {k} ({run['workload']})"
        if run["workload"] not in workloads:
            problems.append(f"{where}: no workload of BENCHMARK.json")
        if [pair["seed"] for pair in run["pairs"]] != run["seeds"]:
            problems.append(f"{where}: not one pair per seed")
        problems += [f"{where}: {name} is no end-to-end metric of BENCHMARK.json"
                     for name in {n for pair in run["pairs"] for side in ("parent", "change")
                                  for n in pair[side]} | run["metrics"].keys()
                     if name not in metrics]
        for name, got in run["metrics"].items():
            pairs = [(pair["parent"][name], pair["change"][name]) for pair in run["pairs"]
                     if pair["parent"].get(name) is not None
                     and pair["change"].get(name) is not None]
            if name in metrics and got != summary(metrics[name], pairs):
                problems.append(f"{where}: {name} does not follow from its pairs")
    return problems


def test_committed_bench_files_follow_from_their_numbers():
    paths = sorted(ROOT.glob("BENCH_*.json"))
    assert paths
    for path in paths:
        assert _bench_file_problems(path) == []


@pytest.mark.parametrize("plant, problem", [
    (lambda run: run["metrics"]["op_ms_p50"].update(gain_rule=True),
     "op_ms_p50 does not follow from its pairs"),
    (lambda run: run["metrics"]["op_ms_p50"]["change"].update(median=1.0),
     "op_ms_p50 does not follow from its pairs"),
    (lambda run: run["pairs"][0]["parent"].update(op_ms_p50=9.0),
     "op_ms_p50 does not follow from its pairs"),
    (lambda run: run["pairs"][0]["change"].update(ops_per_s=1.0),
     "ops_per_s is no end-to-end metric of BENCHMARK.json"),
])
def test_a_planted_contradiction_fails_the_check(tmp_path, monkeypatch, plant, problem):
    path = tmp_path / "BENCH_1.json"
    _write_runs(tmp_path, monkeypatch, path)
    assert _bench_file_problems(path) == []
    doc = json.loads(path.read_text(encoding="utf-8"))
    plant(doc["runs"][1])
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert _bench_file_problems(path) == [f"BENCH_1.json run 1 (cli_oneshot): {problem}"]
