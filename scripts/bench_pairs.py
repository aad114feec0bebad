"""Paired benchmark runs of a parent and a changed checkout.

    python3 scripts/bench_pairs.py PARENT CHANGE WORKLOAD SECONDS SEED [SEED ...]

For each seed, runs the unmodified ``perfbench/run.py`` of both checkouts
on WORKLOAD for SECONDS, one after the other, the parent first on even
pairs and the change first on odd ones.  Every ``__pycache__`` under both
``src/`` trees is deleted before every run, so each CLI process compiles
what it imports, as in a fresh checkout.  Then prints, for each end-to-end
metric of CHANGE's ``BENCHMARK.json``, the median and quartiles of each side
and the share of pairs in which the change was better.  Standard library
only.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path


def run(root: Path, roots: list[Path], workload: str, seconds: str, seed: int) -> dict:
    for tree in roots:
        for cache in list((tree / "src").rglob("__pycache__")):
            shutil.rmtree(cache)
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", seconds, "--trace", "0"]
    out = subprocess.run(argv, cwd=root, capture_output=True, text=True, check=True).stdout
    metrics = json.loads(out.splitlines()[-1])["metrics"]
    return {name: m["value"] for name, m in metrics.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("workload")
    parser.add_argument("seconds")
    parser.add_argument("seeds", type=int, nargs="+")
    args = parser.parse_args()
    if len(args.seeds) < 2:
        parser.error("quartiles need at least two seeds")
    roots = [args.parent.resolve(), args.change.resolve()]
    runs: list[list[dict]] = [[], []]
    for k, seed in enumerate(args.seeds):
        for side in ((0, 1) if k % 2 == 0 else (1, 0)):
            runs[side].append(run(roots[side], roots, args.workload, args.seconds, seed))
        print(f"seed {seed}: " + "  ".join(
            f"{name} {runs[0][-1][name]:.4g} -> {runs[1][-1][name]:.4g}"
            for name in ("op_ms_p50", "setup_s") if name in runs[0][-1]), flush=True)

    spec = json.loads((roots[1] / "BENCHMARK.json").read_text(encoding="utf-8"))
    print(f"{args.workload}, {len(args.seeds)} pairs of {args.seconds} s: "
          "median [q1, q3] parent -> change; share of pairs the change was better")
    for metric in spec["end_to_end"]:
        name, lower = metric["name"], metric["better"] == "lower"
        pairs = [(p[name], c[name]) for p, c in zip(*runs)
                 if p.get(name) is not None and c.get(name) is not None]
        if len(pairs) < 2:
            continue
        cells = []
        for side in (0, 1):
            q1, med, q3 = statistics.quantiles([pair[side] for pair in pairs], n=4,
                                               method="inclusive")
            cells.append(f"{med:.4g} [{q1:.4g}, {q3:.4g}]")
        better = sum(c < p if lower else c > p for p, c in pairs)
        print(f"  {name:12} {cells[0]} -> {cells[1]}  {better}/{len(pairs)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
