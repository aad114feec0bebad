"""scripts/bench_pairs.py compares two checkouts only when both run the same
benchmark code; the paired runs themselves are not started here."""

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
