from toklang import (
    TokenRecognizer,
    find_tokenize_witness,
    run_equivalence_suite,
    run_homomorphism_suite,
    run_partition_suite,
    train,
)
from toklang.toys import (
    aab_tokenizer,
    bracket_tokenizer,
    byte_identity_tokenizer,
    dyck_grammar,
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


def test_equivalence_suite_counts(dyck, brackets):
    report = run_equivalence_suite(TokenRecognizer(dyck, brackets), max_len=3)
    assert report.passed
    assert report.cases == 1 + 5 + 25 + 125


def test_partition_suite_passes(aab):
    report = run_partition_suite(aab, max_len=5)
    assert report.passed
    assert report.cases == 2 ** 6 - 1


def test_partition_suite_defaults_to_single_byte_alphabet(aab):
    small = run_partition_suite(aab, max_len=2)
    assert small.cases == 7  # strings over {a, b} of length <= 2
