import pytest

import toklang.grammar
from toklang import (
    Classification,
    Kind,
    TokenRecognizer,
    TokenSession,
    Tokenizer,
    TokenizerError,
    find_tokenize_witness,
    run_equivalence_suite,
    run_homomorphism_suite,
    run_partition_suite,
    segmentation,
    train,
)
from toklang.toys import (
    aab_tokenizer,
    bracket_tokenizer,
    byte_identity_tokenizer,
    dyck_grammar,
    dyck_letters_grammar,
    letter_bracket_tokenizer,
)


def test_homomorphism_suite_passes(aab):
    report = run_homomorphism_suite(aab, pairs=2000, seed=1)
    assert report.passed and report.cases == 2001
    assert "pass" in report.summary()


def test_homomorphism_suite_without_merges_skips_witness():
    report = run_homomorphism_suite(byte_identity_tokenizer(), pairs=100)
    assert report.passed and report.cases == 100


def test_witness_found_for_aab(aab):
    x, y = find_tokenize_witness(aab)
    assert aab.tokenize(x) + aab.tokenize(y) != aab.tokenize(x + y)
    assert (x, y) == (b"a", b"a")  # the first merge supplies it


def test_witness_found_for_trained_tokenizer():
    t = train([b"the cat sat on the mat"] * 3, 10)
    x, y = find_tokenize_witness(t)
    assert t.tokenize(x) + t.tokenize(y) != t.tokenize(x + y)


def test_witness_search_stops_at_its_witness():
    # the first merge's sides are a witness: no later merge is read
    read = []

    class Counted(tuple):
        def __iter__(self):
            for merge in super().__iter__():
                read.append(merge)
                yield merge

    t = train([b"the cat sat on the mat"] * 3, 12)
    counted = Tokenizer(t.vocab, Counted(t.merges))
    counted.merge_ranks  # built first, as tokenize would build it
    read.clear()
    assert find_tokenize_witness(counted) == find_tokenize_witness(t)
    assert len(t.merges) == 12 and len(read) == 1


def test_equivalence_suite_counts(dyck, brackets):
    report = run_equivalence_suite(TokenRecognizer(dyck, brackets), max_len=3)
    assert report.passed
    assert report.cases == 1 + 5 + 25 + 125


def test_equivalence_suite_checks_the_mask(dyck, brackets, monkeypatch):
    # a planted fault: the mask leaves out the least id it allows
    allowed = TokenSession.allowed_next_tokens

    def drops_one(self):
        mask = allowed(self)
        return mask - {min(mask)} if mask else mask

    rec = TokenRecognizer(dyck, brackets)
    assert run_equivalence_suite(rec, max_len=3).passed
    monkeypatch.setattr(TokenSession, "allowed_next_tokens", drops_one)
    report = run_equivalence_suite(rec, max_len=3)
    assert not report.passed
    assert report.failures[0] == "tokens []: the mask allows [] that kill the session " \
        "and leaves out [1] that do not"


def test_equivalence_suite_guards_the_cached_part_of_a_mask(monkeypatch):
    # a planted fault: the ids cached for the initial prediction table gain
    # "]", which kills a session at the empty prefix
    rec = TokenRecognizer(dyck_letters_grammar(), letter_bracket_tokenizer())
    assert run_equivalence_suite(rec, max_len=2).passed
    table = rec.open_session().inner._last.pred
    sure, rest = rec._masks[id(table)]
    assert ord("]") not in sure
    monkeypatch.setitem(rec._masks, id(table), (sure | {ord("]")}, rest))
    report = run_equivalence_suite(rec, max_len=2)
    assert not report.passed
    assert report.failures[0] == "tokens []: the mask allows [93] that kill the session " \
        "and leaves out [] that do not"


def test_partition_suite_passes(aab):
    report = run_partition_suite(aab, max_len=5)
    assert report.passed
    assert report.cases == 2 ** 6 - 1


@pytest.mark.parametrize("count", [True, 2.0, "2", -3])
@pytest.mark.parametrize("suite, name", [
    (lambda n: run_homomorphism_suite(aab_tokenizer(), pairs=n), "pairs"),
    (lambda n: run_partition_suite(aab_tokenizer(), max_len=n), "max_len"),
    (lambda n: run_equivalence_suite(
        TokenRecognizer(dyck_grammar(), bracket_tokenizer()), max_len=n), "max_len"),
], ids=["homomorphism", "partition", "equivalence"])
def test_suites_refuse_a_count_that_is_no_int_or_negative(suite, name, count):
    # a refused count would otherwise check nothing and report "pass"
    with pytest.raises(TokenizerError, match=f"{name} must be an int >= 0"):
        suite(count)


def test_partition_suite_ties_the_proper_label_to_tokenize(aab, monkeypatch):
    # a planted fault: classify calls the all-single-byte segmentation Proper,
    # so each string still has exactly one Proper item, but the wrong one
    def single_bytes_proper(t, ids):
        if all(len(t.vocab[i]) == 1 for i in ids):
            return Classification(Kind.PROPER)
        return Classification(Kind.MERGEABLE, mergeable_at=0)

    monkeypatch.setattr(segmentation, "classify", single_bytes_proper)
    report = run_partition_suite(aab)
    assert not report.passed and report.cases == 511
    assert "b'aa': items classified Proper are [[0, 0]], tokenize gives [2]" in report.failures


def test_partition_suite_defaults_to_single_byte_alphabet(aab):
    small = run_partition_suite(aab, max_len=2)
    assert small.cases == 7  # strings over {a, b} of length <= 2


@pytest.mark.parametrize("t, bytes_used", [
    (byte_identity_tokenizer(), 1),  # no longer token: one byte stands for all
    (bracket_tokenizer(), 3),  # [ and ], and the byte 0x00
    (letter_bracket_tokenizer(), 5),  # a, b, [ and ], and the byte 0x00
])
def test_partition_suite_ranges_over_the_bytes_of_longer_tokens_and_one_more(t, bytes_used):
    # over all 256 single-byte tokens, max_len 2 would be 65,793 strings
    report = run_partition_suite(t, max_len=2)
    assert report.passed and report.cases == 1 + bytes_used + bytes_used ** 2


# --- each suite's failure branches, each under one planted fault ---------------------


def test_homomorphism_suite_reports_a_detokenize_that_is_not_homomorphic(aab, monkeypatch):
    # a planted fault: detokenize drops the last byte of what it joins
    detokenize = Tokenizer.detokenize
    monkeypatch.setattr(Tokenizer, "detokenize", lambda self, ids: detokenize(self, ids)[:-1])
    report = run_homomorphism_suite(aab, pairs=50, seed=1)
    assert not report.passed and report.cases == 51
    assert all(f.startswith("detokenize not homomorphic at u=[") for f in report.failures)


def test_homomorphism_suite_reports_a_merge_list_without_a_witness():
    # tokenize refuses every candidate: b and c have no single-byte token
    t = Tokenizer((b"a", b"bc", b"abc"), ((0, 1, 2),))
    assert find_tokenize_witness(t) is None
    report = run_homomorphism_suite(t, pairs=0)
    assert report.cases == 1 and report.failures == [
        "tokenizer has merges but no tokenize non-homomorphism witness was found"]


def test_equivalence_suite_reports_an_acceptance_mismatch(dyck, brackets, monkeypatch):
    # a planted fault: the character oracle accepts nothing
    monkeypatch.setattr(toklang.grammar, "recognize", lambda g, w: False)
    report = run_equivalence_suite(TokenRecognizer(dyck, brackets), max_len=1)
    assert report.failures == ["tokens []: token stream=True, character oracle=False",
                               "tokens [3]: token stream=True, character oracle=False"]


def test_partition_suite_reports_a_count_mismatch(aab, monkeypatch):
    # a planted fault: the count gives one segmentation too many
    count = segmentation.count_tokenizations
    monkeypatch.setattr(segmentation, "count_tokenizations", lambda t, s: count(t, s) + 1)
    report = run_partition_suite(aab, max_len=2)
    assert report.cases == 7 and len(report.failures) == 7
    assert report.failures[0] == "b'': enumeration yields 1 but count_tokenizations gives 2"
    assert report.summary().split("\n")[-1] == "  ... and 2 more"


def test_partition_suite_reports_a_missing_proper_tokenization(aab, monkeypatch):
    # a planted fault: enumeration leaves out its first item, the longest tokens
    enumerate_tokenizations = segmentation.enumerate_tokenizations
    monkeypatch.setattr(segmentation, "enumerate_tokenizations",
                        lambda t, s: list(enumerate_tokenizations(t, s))[1:])
    report = run_partition_suite(aab, max_len=1)
    assert "b'a': proper tokenization missing from enumeration" in report.failures
