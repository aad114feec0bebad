"""Executable property suites, shared by the CLI ``verify`` subcommand and
the test suite.

Each suite checks one structural claim about tokenization:

* homomorphism — detokenization distributes over concatenation (random
  pairs), while tokenization itself does not (a concrete witness must
  exist whenever there is at least one merge);
* equivalence — a token stream (a session fed token by token) accepts
  exactly when the character-level recognizer accepts the detokenized
  string, exhaustively over short sequences of grammar-relevant tokens;
* partition — enumeration of a string's tokenization space matches the
  DP count, contains the tokenizer's own output exactly once, and every
  point classifies into exactly one kind.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field

from .bpe import Tokenizer, TokenizerError
from .grammar import recognize
from .recognizer import TokenRecognizer, relevant_token_ids
from .segmentation import Kind, classify, count_tokenizations, enumerate_tokenizations


@dataclass
class SuiteReport:
    suite: str
    cases: int
    failures: list[str] = field(default_factory=list)

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


def run_homomorphism_suite(t: Tokenizer, pairs: int = 10000, seed: int = 0) -> SuiteReport:
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
            report.cases += 1
    return report


def run_partition_suite(t: Tokenizer, max_len: int = 8,
                        alphabet: bytes | None = None) -> SuiteReport:
    report = SuiteReport("partition", 0)
    if alphabet is None:
        alphabet = bytes(sorted(t.single_byte_ids))
    for length in range(max_len + 1):
        for combo in itertools.product(alphabet, repeat=length):
            s = bytes(combo)
            items = list(enumerate_tokenizations(t, s))
            if len(items) != count_tokenizations(t, s):
                report.failures.append(
                    f"{s!r}: enumeration yields {len(items)} but DP counts "
                    f"{count_tokenizations(t, s)}")
            proper = t.tokenize(s)
            if proper not in items:
                report.failures.append(f"{s!r}: proper tokenization missing from enumeration")
            kinds = [classify(t, item).kind for item in items]
            n_proper = sum(1 for k in kinds if k is Kind.PROPER)
            if n_proper != 1:
                report.failures.append(f"{s!r}: {n_proper} items classified Proper")
            report.cases += 1
    return report
