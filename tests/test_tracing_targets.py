"""The traced benchmark run (perfbench/tracing.py) wraps functions and methods
of toklang by name.  A deletion that removes one breaks only that run, which
this suite does not start, so the names are checked here.  The file is read
and executed, not imported, so nothing is written beside it."""

from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_target_is_still_defined():
    namespace = {"__name__": "tracing"}
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), namespace)
    targets = namespace["TARGETS"]
    missing = [f"{owner.__name__}.{attr}" for owner, attr, *_ in targets
               if attr not in vars(owner)]
    assert targets and not missing
