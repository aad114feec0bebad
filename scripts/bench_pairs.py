"""Paired benchmark runs of a parent and a changed checkout.

    python3 scripts/bench_pairs.py [--json PATH] PARENT CHANGE WORKLOAD SECONDS SEED [SEED ...]

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
timings.

With ``--json PATH``, the run is also added to the list ``runs`` of the
JSON file PATH, which it creates if missing: the commit of each checkout
(``-dirty`` when its tracked files differ from it; null outside git), the
workload, seeds, seconds, Python version and machine, each pair's metrics,
per end-to-end metric the medians, quartiles, pairs better and both
verdicts, and the ``src/`` line count of each side.  A pull request commits
its runs as ``BENCH_<PR>.json`` at the root of the repository.  Standard
library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
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


def commit(root: Path) -> str | None:
    """The commit at HEAD of the checkout at *root*, with ``-dirty`` when a
    tracked file differs from it, or None when *root* is no git checkout."""
    if not (root / ".git").exists():
        return None
    git = ["git", "-C", str(root)]
    head = subprocess.run([*git, "rev-parse", "HEAD"], capture_output=True, text=True, check=True)
    dirty = subprocess.run([*git, "status", "--porcelain", "--untracked-files=no"],
                           capture_output=True, text=True, check=True).stdout.strip()
    return head.stdout.strip() + ("-dirty" if dirty else "")


def summary(metric: dict, pairs: list[tuple[float, float]]) -> dict:
    """One end-to-end *metric* over (parent, change) *pairs*: each side's
    median and quartiles, the pairs in which the change was better, and the
    two verdicts: the gain rule, and whether the metric kept its bound
    (None when it has none)."""
    lower = metric["better"] == "lower"
    (q1, med0, q3), (c1, med1, c3) = (
        statistics.quantiles([pair[side] for pair in pairs], n=4, method="inclusive")
        for side in (0, 1))
    better = sum(c < p if lower else c > p for p, c in pairs)
    gap = med0 - med1 if lower else med1 - med0
    bound = metric.get("bound")
    return {"parent": {"median": med0, "q1": q1, "q3": q3},
            "change": {"median": med1, "q1": c1, "q3": c3},
            "pairs_better": better, "pairs": len(pairs),
            "gain_rule": 10 * better >= 9 * len(pairs) and gap > q3 - q1,
            "bound_kept": None if bound is None else not -gap > bound * abs(med0)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--json", type=Path, metavar="PATH",
                        help="add the run to the list 'runs' of this JSON file")
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
    # read before the runs, so a file that is no JSON stops the script at once
    doc = (json.loads(args.json.read_text(encoding="utf-8"))
           if args.json is not None and args.json.exists() else {"runs": []})
    runs: list[list[dict]] = [[], []]
    for k, seed in enumerate(args.seeds):
        for side in ((0, 1) if k % 2 == 0 else (1, 0)):
            runs[side].append(run(roots[side], roots, args.workload, args.seconds, seed))
        print(f"seed {seed}: " + "  ".join(
            f"{name} {runs[0][-1][name]:.4g} -> {runs[1][-1][name]:.4g}"
            for name in ("op_ms_p50", "setup_s") if name in runs[0][-1]), flush=True)

    spec = json.loads((roots[1] / "BENCHMARK.json").read_text(encoding="utf-8"))
    lines = [src_lines(root) for root in roots]
    print(f"{args.workload}, {len(args.seeds)} pairs of {args.seconds} s: "
          "median [q1, q3] parent -> change; share of pairs the change was better; "
          "the gain rule; the no-regression bound")
    print(f"  {'src lines':12} {lines[0]} -> {lines[1]}")
    metrics = {}
    for metric in spec["end_to_end"]:
        name = metric["name"]
        pairs = [(p[name], c[name]) for p, c in zip(*runs)
                 if p.get(name) is not None and c.get(name) is not None]
        if len(pairs) < 2:
            continue
        m = metrics[name] = summary(metric, pairs)
        (med0, q1, q3), (med1, c1, c3) = (m[side].values() for side in ("parent", "change"))
        rule = "holds" if m["gain_rule"] else "fails"
        if m["bound_kept"] is not None:
            rule += f"  bound {metric['bound']:.0%} {'kept' if m['bound_kept'] else 'exceeded'}"
        print(f"  {name:12} {med0:.4g} [{q1:.4g}, {q3:.4g}] -> {med1:.4g} [{c1:.4g}, {c3:.4g}]"
              f"  {m['pairs_better']}/{m['pairs']}  gain rule {rule}")
    if args.json is not None:
        record = {
            "workload": args.workload, "seconds": float(args.seconds), "seeds": args.seeds,
            "python": platform.python_version(), "machine": platform.machine(),
            "cpus": os.cpu_count(),
            **{side: {"commit": commit(root), "src_lines": n}
               for side, root, n in zip(("parent", "change"), roots, lines)},
            "pairs": [{"seed": seed, "parent": p, "change": c}
                      for seed, p, c in zip(args.seeds, *runs)],
            "metrics": metrics}
        doc["runs"].append(record)
        args.json.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
