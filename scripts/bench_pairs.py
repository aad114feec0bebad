"""Paired benchmark runs of a parent and a changed checkout.

    python3 scripts/bench_pairs.py PARENT CHANGE WORKLOAD SECONDS SEED [SEED ...]

Refuses, with exit status 2, to compare checkouts whose ``BENCHMARK.json``
or ``perfbench/**/*.py`` differ in any byte, naming the first such file: a
gain must come from identical benchmark code.  Otherwise, for each seed,
runs the unmodified ``perfbench/run.py`` of both checkouts on WORKLOAD for
SECONDS, one after the other, the parent first on even pairs and the change
first on odd ones.  Every ``__pycache__`` under both ``src/`` trees is
deleted before every run, so each CLI process compiles what it imports, as
in a fresh checkout.  Then prints, for each end-to-end metric of
``BENCHMARK.json``, the median and quartiles of each side, the share of
pairs in which the change was better, whether the gain rule holds (the
change is better in at least 9 of 10 pairs, and its median is better than
the parent's by more than the parent's quartile spread), and whether the
change's median is worse than the parent's by more than the metric's
``bound``, read as a fraction of the parent's median; and the line count
of ``src/**/*.py`` in each checkout, so a deletion's size stands beside its
timings.  Standard library only.
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


def first_difference(parent: Path, change: Path) -> str | None:
    """The first file, by path, of the benchmark code that is not the same
    bytes in both checkouts, or None."""
    def files(root: Path) -> dict[str, bytes]:
        paths = [root / "BENCHMARK.json", *(root / "perfbench").rglob("*.py")]
        return {p.relative_to(root).as_posix(): p.read_bytes() for p in paths if p.is_file()}

    a, b = files(parent), files(change)
    return next((name for name in sorted(a.keys() | b.keys()) if a.get(name) != b.get(name)),
                None)


def src_lines(root: Path) -> int:
    """The lines of ``src/**/*.py`` in the checkout at *root*, as ``wc -l``
    counts them."""
    return sum(p.read_bytes().count(b"\n") for p in (root / "src").rglob("*.py"))


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
    differing = first_difference(*roots)
    if differing is not None:
        print(f"error: the checkouts run different benchmark code: {differing}",
              file=sys.stderr)
        return 2
    runs: list[list[dict]] = [[], []]
    for k, seed in enumerate(args.seeds):
        for side in ((0, 1) if k % 2 == 0 else (1, 0)):
            runs[side].append(run(roots[side], roots, args.workload, args.seconds, seed))
        print(f"seed {seed}: " + "  ".join(
            f"{name} {runs[0][-1][name]:.4g} -> {runs[1][-1][name]:.4g}"
            for name in ("op_ms_p50", "setup_s") if name in runs[0][-1]), flush=True)

    spec = json.loads((roots[1] / "BENCHMARK.json").read_text(encoding="utf-8"))
    print(f"{args.workload}, {len(args.seeds)} pairs of {args.seconds} s: "
          "median [q1, q3] parent -> change; share of pairs the change was better; "
          "the gain rule; the no-regression bound")
    print(f"  {'src lines':12} {src_lines(roots[0])} -> {src_lines(roots[1])}")
    for metric in spec["end_to_end"]:
        name, lower = metric["name"], metric["better"] == "lower"
        pairs = [(p[name], c[name]) for p, c in zip(*runs)
                 if p.get(name) is not None and c.get(name) is not None]
        if len(pairs) < 2:
            continue
        (q1, med0, q3), (c1, med1, c3) = (
            statistics.quantiles([pair[side] for pair in pairs], n=4, method="inclusive")
            for side in (0, 1))
        better = sum(c < p if lower else c > p for p, c in pairs)
        gap = med0 - med1 if lower else med1 - med0
        rule = "holds" if 10 * better >= 9 * len(pairs) and gap > q3 - q1 else "fails"
        bound = metric.get("bound")
        if bound is not None:
            worse = -gap > bound * abs(med0)
            rule += f"  bound {bound:.0%} {'exceeded' if worse else 'kept'}"
        print(f"  {name:12} {med0:.4g} [{q1:.4g}, {q3:.4g}] -> {med1:.4g} [{c1:.4g}, {c3:.4g}]"
              f"  {better}/{len(pairs)}  gain rule {rule}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
