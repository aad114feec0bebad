"""Executable property suites, shared by the CLI ``verify`` subcommand and
the test suite.

Each suite checks one structural claim about tokenization:

* homomorphism — detokenization distributes over concatenation (random
  pairs), while tokenization itself does not (a concrete witness must
  exist whenever there is at least one merge);
* equivalence — a token stream (a session fed token by token) accepts
  exactly when the character-level recognizer accepts the detokenized
  string, exhaustively over short sequences of grammar-relevant tokens,
  and its next-token mask allows exactly the relevant tokens that keep a
  clone of it live;
* partition — enumeration of a string's tokenization space matches
  ``count_tokenizations`` and contains the tokenizer's own output, and
  ``classify`` calls that output Proper and no other point.
"""

from __future__ import annotations

import itertools
import random
from typing import TYPE_CHECKING

from ._value import Value
from .bpe import Kind, Tokenizer, TokenizerError

if TYPE_CHECKING:
    from .recognizer import TokenRecognizer


class SuiteReport(Value):
    suite: str
    cases: int
    failures: list[str]
    _fields = ("suite", "cases", "failures")

    def __init__(self, suite, cases, failures=None):
        self.suite = suite
        self.cases = cases
        self.failures = [] if failures is None else failures

    @property
    def passed(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        status = "pass" if self.passed else "FAIL"
        lines = [f"{self.suite}: {status} ({self.cases} cases checked)"]
        lines += [f"  counterexample: {f}" for f in self.failures[:5]]
        if len(self.failures) > 5:
            lines.append(f"  ... and {len(self.failures) - 5} more")
        return "\n".join(lines)


def find_tokenize_witness(t: Tokenizer) -> tuple[bytes, bytes] | None:
    """A pair (x, y) with tokenize(x + y) != tokenize(x) + tokenize(y).

    Candidates come from the merge rules themselves: the two sides of a
    merge, and every split point of a merged token's byte string.
    """
    candidates: list[tuple[bytes, bytes]] = []
    for left, right, merged in t.merges:
        candidates.append((t.vocab[left], t.vocab[right]))
        bs = t.vocab[merged]
        candidates.extend((bs[:cut], bs[cut:]) for cut in range(1, len(bs)))
    for x, y in candidates:
        try:
            if t.tokenize(x) + t.tokenize(y) != t.tokenize(x + y):
                return (x, y)
        except TokenizerError:
            continue
    return None


def _check_count(name: str, n: int) -> None:
    if type(n) is not int or n < 0:  # bool is no count
        raise TokenizerError(f"{name} must be an int >= 0, got {n!r}")


def run_homomorphism_suite(t: Tokenizer, pairs: int = 10000, seed: int = 0) -> SuiteReport:
    _check_count("pairs", pairs)
    report = SuiteReport("homomorphism", 0)
    rng = random.Random(seed)
    n = len(t.vocab)
    for _ in range(pairs):
        u = [rng.randrange(n) for _ in range(rng.randrange(9))]
        v = [rng.randrange(n) for _ in range(rng.randrange(9))]
        if t.detokenize(u + v) != t.detokenize(u) + t.detokenize(v):
            report.failures.append(f"detokenize not homomorphic at u={u} v={v}")
        report.cases += 1
    if t.merges:
        report.cases += 1
        if find_tokenize_witness(t) is None:
            report.failures.append(
                "tokenizer has merges but no tokenize non-homomorphism witness was found")
    return report


def run_equivalence_suite(rec: TokenRecognizer, max_len: int = 5) -> SuiteReport:
    from .grammar import recognize
    from .recognizer import relevant_token_ids
    _check_count("max_len", max_len)
    report = SuiteReport("equivalence", 0)
    ids = relevant_token_ids(rec)
    for length in range(max_len + 1):
        for seq in itertools.product(ids, repeat=length):
            session = rec.open_session()
            for tid in seq:
                if not session.feed(tid).live:
                    break
            got = session.accepts()
            want = recognize(rec.grammar, rec.tokenizer.detokenize(seq))
            if got != want:
                report.failures.append(
                    f"tokens {list(seq)}: token stream={got}, character oracle={want}")
            if length < max_len and session.live:
                mask = session.allowed_next_tokens()
                trial = {t for t in ids if session.clone().feed(t).live}
                if mask != trial:
                    report.failures.append(
                        f"tokens {list(seq)}: the mask allows {sorted(mask - trial)} that "
                        f"kill the session and leaves out {sorted(trial - mask)} that do not")
            report.cases += 1
    return report


def run_partition_suite(t: Tokenizer, max_len: int = 8) -> SuiteReport:
    """Checks every string of up to *max_len* bytes drawn from the bytes of
    single-byte tokens that occur in a longer token, plus the least that
    occurs in none, which stands for all such: each is a token of its own
    wherever it occurs, and no merge touches it."""
    from .segmentation import classify, count_tokenizations, enumerate_tokenizations
    _check_count("max_len", max_len)
    report = SuiteReport("partition", 0)
    singles, inner = t.single_byte_ids.keys(), {b for bs in t.vocab if len(bs) > 1 for b in bs}
    alphabet = sorted(singles & inner) + sorted(singles - inner)[:1]
    for length in range(max_len + 1):
        for combo in itertools.product(alphabet, repeat=length):
            s = bytes(combo)
            items, total = list(enumerate_tokenizations(t, s)), count_tokenizations(t, s)
            if len(items) != total:
                report.failures.append(
                    f"{s!r}: enumeration yields {len(items)} but count_tokenizations "
                    f"gives {total}")
            proper = t.tokenize(s)
            if proper not in items:
                report.failures.append(f"{s!r}: proper tokenization missing from enumeration")
            # classify and tokenize read one memo of pair verdicts, so this ties
            # the two users of it; the oracle tests pin the verdict itself
            called = [item for item in items if classify(t, item).kind is Kind.PROPER]
            if called != [proper]:
                report.failures.append(
                    f"{s!r}: items classified Proper are {called}, tokenize gives {proper}")
            report.cases += 1
    return report
