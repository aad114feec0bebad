"""The toklang benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; toklang is imported from its
``src/`` directory, and the run fails before measuring anything when that
is missing.  With ``--trace 0`` the last line of standard output is a JSON
object with the end-to-end metrics; with ``--trace 1`` it holds the
per-layer metrics of a traced run.  The line before it records the run's
metadata, and both go to ``perfbench/out/`` as well, with the spans of a
traced run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"


def _import_toklang():
    if not (SRC / "toklang" / "__init__.py").is_file():
        sys.exit(f"perfbench: no toklang sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import toklang
    if Path(toklang.__file__).resolve().parent != SRC / "toklang":
        sys.exit(f"perfbench: imported toklang from {toklang.__file__}, not {SRC}")


def _commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _src_lines() -> int:
    return sum(len(p.read_bytes().splitlines()) for p in sorted(SRC.rglob("*.py")))


def main(argv=None) -> int:
    # One CPU for the whole run, CLI children included: the calibration
    # kernel then times the same CPU as the ops it calibrates.
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(cpus)})
    _import_toklang()
    import harness
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    workload = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    if args.trace:
        tally, metrics, extra = harness.run_traced(workload, args.seed, 1.0, OUT)
        metrics = {name: metrics[name] for name, _, _ in harness.PER_LAYER}
    else:
        tally, metrics, extra = harness.run_untraced(
            workload, args.seed, args.seconds, 1.0, OUT)

    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "nproc": len(cpus), "cpu": max(cpus), "commit": _commit(),
        "src_lines": _src_lines(), "completed": tally.completed,
        "passes": tally.passes, "ops_per_pass": len(tally.nbytes),
        "wrong": tally.wrong, "errors": dict(tally.errors),
        **extra,
    }
    result = {
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(
        json.dumps({"meta": meta, **result}, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
