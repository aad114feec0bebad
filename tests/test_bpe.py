import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

import toklang.bpe
from toklang import (
    Tokenizer,
    TokenizerError,
    dumps_tokenizer,
    escape_bytes,
    load_gpt2_tokenizer,
    loads_tokenizer,
    save_tokenizer,
    load_tokenizer,
    train,
    unescape_bytes,
)
from toklang.bpe import _gpt2_byte_table
from toklang.toys import (
    AAB_TOKENIZER_JSON,
    aab_tokenizer,
    byte_identity_tokenizer,
    letter_bracket_tokenizer,
)

from oracles import outcome, unescape_bytes_by_loop

DEEP_JSON = "[" * 100000 + "]" * 100000


# --- construction and validation ----------------------------------------------


def test_aab_tokenizer_shape(aab):
    assert len(aab.vocab) == 6
    assert aab.merges == ((0, 0, 2), (2, 0, 4), (0, 1, 3), (1, 1, 5))
    assert not aab.byte_base


def test_byte_identity_tokenizer():
    t = byte_identity_tokenizer()
    assert t.byte_base and len(t.vocab) == 256 and t.merges == ()
    assert t.tokenize(b"\x00ab\xff") == [0, 97, 98, 255]


def test_duplicate_byte_strings_rejected():
    with pytest.raises(TokenizerError, match="share byte string"):
        Tokenizer((b"a", b"a"))


def test_empty_token_rejected():
    with pytest.raises(TokenizerError, match="nonempty"):
        Tokenizer((b"a", b""))


def test_merge_output_must_be_concatenation():
    with pytest.raises(TokenizerError, match="is not"):
        Tokenizer((b"a", b"b", b"aa", b"ab"), ((2, 0, 3),))  # aa + a -> ab


def test_merge_unknown_token_rejected():
    with pytest.raises(TokenizerError, match="unknown token"):
        Tokenizer((b"a",), ((0, 0, 7),))


def test_merge_with_bool_ids_rejected():
    # False and True would read as ids 0 and 1, whose bytes do make b"ab"
    with pytest.raises(TokenizerError, match="merge 0 references unknown token False"):
        Tokenizer((b"a", b"b", b"ab"), ((False, True, 2),))


# --- tokenize / detokenize ------------------------------------------------------


def test_tokenize_worked_example(aab):
    assert aab.tokenize(b"aaabb") == [4, 5]  # [aaa, bb]


def test_tokenize_applies_lowest_rank_first(aab):
    # "aaaa": rank-0 a+a fires twice before rank-1 aa+a ever applies,
    # leaving [aa, aa]; no rule merges aa with aa.
    assert aab.tokenize(b"aaaa") == [2, 2]


def test_swapped_merge_order_changes_the_output(aab):
    # with merges 2 and 3 exchanged, "aaabb" comes out as [aa, ab, b]
    swapped = Tokenizer(aab.vocab, ((0, 0, 2), (0, 1, 3), (2, 0, 4), (1, 1, 5)))
    assert swapped.tokenize(b"aaabb") == [2, 3, 1]


def test_tokenize_empty_and_errors(aab):
    assert aab.tokenize(b"") == []
    with pytest.raises(TokenizerError, match="single-byte token"):
        aab.tokenize(b"abc")


def test_detokenize_examples(aab):
    assert aab.detokenize([4, 5]) == b"aaabb"
    assert aab.detokenize([]) == b""
    assert aab.detokenize([2]) + aab.detokenize([3, 1]) == aab.detokenize([2, 3, 1])


def test_detokenize_unknown_id(aab):
    with pytest.raises(TokenizerError, match="unknown token id"):
        aab.detokenize([6])


@pytest.mark.parametrize("entry", [
    lambda t: t.detokenize([True, False]),
    lambda t: t.check_id(True),
], ids=["detokenize", "check_id"])
def test_bool_is_not_a_token_id(aab, entry):
    with pytest.raises(TokenizerError, match="unknown token id True"):
        entry(aab)


class _Id(int):
    """An int subclass: like bool, no token id."""


def _check_ids_by_id(t: Tokenizer, ids) -> list[int]:
    """``check_ids`` one id at a time: its reference."""
    seq = []
    for x in ids:
        if type(x) is not int or not 0 <= x < len(t.vocab):
            raise TokenizerError(f"unknown token id {x!r}")
        seq.append(x)
    return seq


@given(st.lists(st.one_of(st.integers(-2, 7), st.booleans(), st.integers(0, 5).map(_Id),
                          st.integers(), st.floats(), st.text(max_size=2)), max_size=8),
       st.booleans())
@example([3, 6, "x", -1], False)
@example([0, True], True)
def test_check_ids_matches_a_per_id_check(ids, lazily):
    # the whole-list check accepts, and names the first bad id, as the loop does
    t = aab_tokenizer()

    def given_ids():
        return (x for x in ids) if lazily else list(ids)

    assert outcome(t.check_ids, given_ids()) == outcome(_check_ids_by_id, t, given_ids())


@given(st.binary(max_size=64))
def test_round_trip_byte_identity(data):
    t = byte_identity_tokenizer()
    assert t.detokenize(t.tokenize(data)) == data


@given(st.lists(st.sampled_from([97, 98]), max_size=40).map(bytes))
def test_round_trip_aab(data):
    t = aab_tokenizer()
    assert t.detokenize(t.tokenize(data)) == data


@given(st.lists(st.integers(0, 5), max_size=12), st.lists(st.integers(0, 5), max_size=12))
def test_detokenize_homomorphism(u, v):
    t = aab_tokenizer()
    assert t.detokenize(u + v) == t.detokenize(u) + t.detokenize(v)


def test_tokenize_is_not_homomorphic(aab):
    assert aab.tokenize(b"a") + aab.tokenize(b"a") == [0, 0]
    assert aab.tokenize(b"aa") == [2]


@given(st.lists(st.sampled_from([97, 98]), max_size=40).map(bytes))
def test_tokenize_output_is_unmergeable(data):
    t = aab_tokenizer()
    out = t.tokenize(data)
    assert all((x, y) not in t.merge_ranks for x, y in zip(out, out[1:]))


# --- training ------------------------------------------------------------------


def test_train_single_sample():
    t = train([b"aaab"], 1)  # pair counts: (a,a)=2, (a,b)=1
    assert t.merges == ((97, 97, 256),)
    assert t.vocab[256] == b"aa"


def test_train_zero_merges_is_byte_identity():
    t = train([b"anything"], 0)
    assert len(t.vocab) == 256 and t.merges == ()


def test_train_pair_recurring_across_samples():
    t = train([b"ab", b"ab"], 1)
    assert t.merges == ((97, 98, 256),)


def test_train_stops_when_nothing_recurs():
    t = train([b"abcd"], 10)  # every pair occurs once
    assert t.merges == ()


def test_train_tie_break_prefers_earlier_occurrence():
    # (a,a) and (b,b) both occur twice; (a,a) appears first in the corpus
    t = train([b"aa", b"bb", b"aa", b"bb"], 1)
    assert t.merges == ((97, 97, 256),)


@pytest.mark.parametrize("count", [True, False, 1.0, "1", -1])
def test_train_refuses_a_count_that_is_no_int_or_negative(count):
    with pytest.raises(TokenizerError, match="num_merges must be an int >= 0"):
        train([b"aaab"], count)


@pytest.mark.parametrize("data, name", [("aab", "str"), ([1.5], "list"), ([97, 97], "list"),
                                        (memoryview(b"aab"), "memoryview")])
def test_tokenize_refuses_input_that_is_no_bytes(aab, data, name):
    with pytest.raises(TokenizerError, match=f"tokenize input must be bytes, got {name}$"):
        aab.tokenize(data)
    assert aab.tokenize(bytearray(b"aaabb")) == aab.tokenize(b"aaabb") == [4, 5]


@pytest.mark.parametrize("corpus, name", [(["ab"], "str"), ([b"ab", "ab"], "str"),
                                          (b"abab", "int"), ([[97, 98]], "list")])
def test_train_refuses_a_sample_that_is_no_bytes(corpus, name):
    with pytest.raises(TokenizerError, match=f"a corpus sample must be bytes, got {name}$"):
        train(corpus, 1)
    assert train([bytearray(b"abab")], 1) == train([b"abab"], 1)


def test_train_is_deterministic():
    corpus = [b"the cat sat on the mat", b"the bat sat on the rat"]
    assert train(corpus, 8) == train(corpus, 8)


def test_train_learns_composite_tokens():
    t = train([b"abab abab abab"], 3)
    assert t.vocab[256] == b"ab"
    assert b"abab" in t.vocab
    assert t.detokenize(t.tokenize(b"abab abab")) == b"abab abab"


# --- escapes -------------------------------------------------------------------


@given(st.binary(max_size=32))
def test_escape_round_trip(data):
    assert unescape_bytes(escape_bytes(data)) == data


def test_escape_specifics():
    assert escape_bytes(b"a\\b\x00") == "a\\x5cb\\x00"
    assert unescape_bytes("\\x41a") == b"Aa"
    # int(h, 16) reads the last four as 0x0f, 0x0f (eating the space) and 0x00
    for text in ("\\y00", "café", "\\x f", "\\x+f", "\\xf ", "\\x-0"):
        with pytest.raises(TokenizerError, match="escape|non-ASCII"):
            unescape_bytes(text)


_token_string_chars = st.one_of(
    st.sampled_from("\\xX"),  # what starts an escape, or looks like it
    st.sampled_from("0123456789abcdefABCDEF"),
    st.sampled_from("gGzZ+- "),  # no hex digits
    st.characters(min_codepoint=0x20, max_codepoint=0x7E),
    st.characters(max_codepoint=0x1F),
    st.characters(min_codepoint=0x7F),  # DEL, and all past ASCII
)


@given(st.lists(_token_string_chars, max_size=16).map("".join))
@example("\\x4")
@example("\\X41")
@example("ab\\")
@example("\\x7f")
@example("\x7f")
@example("\\x41\\x5cx41")  # an escaped backslash starts no escape
def test_unescape_matches_the_loop(text):
    assert outcome(unescape_bytes, text) == outcome(unescape_bytes_by_loop, text)


# --- native file format ----------------------------------------------------------


def test_loads_aab_fixture():
    t = loads_tokenizer(AAB_TOKENIZER_JSON)
    assert t == aab_tokenizer()


def test_dumps_loads_round_trip(aab, tmp_path):
    assert loads_tokenizer(dumps_tokenizer(aab)) == aab
    path = tmp_path / "tok.json"
    save_tokenizer(aab, path)
    assert load_tokenizer(path) == aab


def test_loads_rejects_bad_json():
    with pytest.raises(TokenizerError, match="JSON"):
        loads_tokenizer("{nope")


def test_loads_rejects_wrong_version():
    for version in ("99", "true", "1.0"):  # true == 1.0 == 1 in Python
        with pytest.raises(TokenizerError, match="version"):
            loads_tokenizer(f'{{"version": {version}, "vocab": {{"a": 0}}, "merges": []}}')


def test_loads_rejects_deep_nesting():
    with pytest.raises(TokenizerError, match="^tokenizer file is nested too deeply$"):
        loads_tokenizer(DEEP_JSON)


def test_loads_rejects_number_past_digit_limit():
    with pytest.raises(TokenizerError, match="^tokenizer file is not valid JSON: "):
        loads_tokenizer(f'{{"version": {"1" * 5000}, "vocab": {{"a": 0}}, "merges": []}}')


def test_loads_rejects_noncontiguous_ids():
    with pytest.raises(TokenizerError, match="outside"):
        loads_tokenizer('{"version": 1, "vocab": {"a": 0, "b": 7}, "merges": []}')


def test_loads_rejects_boolean_ids():
    with pytest.raises(TokenizerError, match="token id False outside"):
        loads_tokenizer('{"version": 1, "vocab": {"a": false, "b": true}, "merges": []}')


def test_loads_rejects_duplicate_byte_spellings():
    text = '{"version": 1, "vocab": {"a": 0, "\\\\x61": 1}, "merges": []}'
    with pytest.raises(TokenizerError, match="share byte string"):
        loads_tokenizer(text)


def test_loads_rejects_merge_with_unknown_token():
    text = '{"version": 1, "vocab": {"a": 0, "b": 1}, "merges": [["a", "b"]]}'
    with pytest.raises(TokenizerError,
                       match=r"merge \['a', 'b'\] references a token not in the vocabulary: 'ab'"):
        loads_tokenizer(text)


def test_loads_rejects_explicit_merge_output_mismatch():
    text = ('{"version": 1, "vocab": {"a": 0, "b": 1, "aa": 2, "ab": 3},'
            ' "merges": [["a", "a", "ab"]]}')
    with pytest.raises(TokenizerError, match="concatenation"):
        loads_tokenizer(text)


def test_loads_accepts_explicit_merge_output():
    text = ('{"version": 1, "vocab": {"a": 0, "aa": 1},'
            ' "merges": [["a", "a", "aa"]]}')
    assert loads_tokenizer(text).merges == ((0, 0, 1),)


# --- GPT-2-compatible format ------------------------------------------------------


def _write_gpt2_fixture(tmp_path):
    table = _gpt2_byte_table()
    vocab = {table[b]: b for b in range(256)}
    vocab[table[97] + table[98]] = 256                # "ab"
    vocab[table[97] + table[98] + table[99]] = 257    # "abc"
    vocab[table[32] + table[97]] = 258                # " a" (tests the 0x20 mapping)
    vocab_path = tmp_path / "vocab.json"
    vocab_path.write_text(json.dumps(vocab), encoding="utf-8")
    merges_path = tmp_path / "merges.txt"
    merges_path.write_text(
        "#version: 0.2\n"
        f"{table[97]} {table[98]}\n"
        f"{table[97] + table[98]} {table[99]}\n"
        f"{table[32]} {table[97]}\n",
        encoding="utf-8")
    return vocab_path, merges_path


def test_gpt2_loader_round_trip(tmp_path):
    vocab_path, merges_path = _write_gpt2_fixture(tmp_path)
    t = load_gpt2_tokenizer(vocab_path, merges_path)
    assert t.byte_base and len(t.vocab) == 259
    assert t.vocab[256] == b"ab" and t.vocab[258] == b" a"
    assert t.tokenize(b"abc") == [257]
    # (a,b) outranks (space,a), so the space stays single here
    assert t.tokenize(b" ab") == [32, 256]
    assert t.tokenize(b" a") == [258]
    assert t.detokenize([258, 257]) == b" aabc"
    # native serialization preserves it exactly
    assert loads_tokenizer(dumps_tokenizer(t)) == t


def test_gpt2_loader_rejects_bad_merge_line(tmp_path):
    vocab_path, merges_path = _write_gpt2_fixture(tmp_path)
    merges_path.write_text("#version: 0.2\na b c\n", encoding="utf-8")
    with pytest.raises(TokenizerError, match="two fields"):
        load_gpt2_tokenizer(vocab_path, merges_path)


def test_gpt2_loader_rejects_deep_nesting(tmp_path):
    vocab_path, merges_path = _write_gpt2_fixture(tmp_path)
    vocab_path.write_text(DEEP_JSON, encoding="utf-8")
    with pytest.raises(TokenizerError, match="^vocab file is nested too deeply$"):
        load_gpt2_tokenizer(vocab_path, merges_path)


def test_gpt2_loader_rejects_number_past_digit_limit(tmp_path):
    vocab_path, merges_path = _write_gpt2_fixture(tmp_path)
    vocab_path.write_text(f'{{"a": {"1" * 5000}}}', encoding="utf-8")
    with pytest.raises(TokenizerError, match="^vocab file is not valid JSON: "):
        load_gpt2_tokenizer(vocab_path, merges_path)


def test_gpt2_loader_rejects_merge_with_unknown_token(tmp_path):
    table = _gpt2_byte_table()
    vocab_path, merges_path = _write_gpt2_fixture(tmp_path)
    # "bc" is not in the fixture's vocabulary
    merges_path.write_text(
        f"#version: 0.2\n{table[97]} {table[98]}\n{table[98]} {table[99]}\n",
        encoding="utf-8")
    with pytest.raises(TokenizerError,
                       match="merges line 3 references a token not in the vocabulary: 'bc'"):
        load_gpt2_tokenizer(vocab_path, merges_path)


def test_gpt2_loader_rejects_a_vocab_that_is_not_an_object(tmp_path):
    vocab_path, merges_path = _write_gpt2_fixture(tmp_path)
    vocab_path.write_text('["a"]', encoding="utf-8")
    with pytest.raises(TokenizerError, match="^vocab file must map token strings to ids$"):
        load_gpt2_tokenizer(vocab_path, merges_path)


def test_gpt2_loader_rejects_a_character_outside_the_byte_table(tmp_path):
    # the table maps each byte to a printable character; the space is not one
    vocab_path, merges_path = _write_gpt2_fixture(tmp_path)
    vocab_path.write_text('{"a": 0, " ": 1}', encoding="utf-8")
    with pytest.raises(TokenizerError,
                       match="^character ' ' is not in the byte-level codepoint table$"):
        load_gpt2_tokenizer(vocab_path, merges_path)


def test_only_the_gpt2_loader_builds_the_byte_table(tmp_path, monkeypatch):
    # importing the module calls no table builder: a fresh process records calls
    probe = ("import sys\nbuilt = []\n"
             "sys.setprofile(lambda frame, event, _: event == 'call'"
             " and frame.f_code.co_name == '_gpt2_byte_table' and built.append(1))\n"
             "import toklang.bpe\nsys.setprofile(None)\nprint(len(built))\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=env, timeout=60)
    assert (proc.returncode, proc.stdout) == (0, "0\n"), proc.stderr
    # and the loader builds it once per call
    vocab_path, merges_path = _write_gpt2_fixture(tmp_path)
    calls = []

    def counted():
        calls.append(1)
        return _gpt2_byte_table()

    monkeypatch.setattr(toklang.bpe, "_gpt2_byte_table", counted)
    assert load_gpt2_tokenizer(vocab_path, merges_path).vocab[257] == b"abc"
    assert len(calls) == 1


def test_real_vocab_demo_runs(tmp_path):
    table = _gpt2_byte_table()
    t = letter_bracket_tokenizer()

    def spell(token_id):
        return "".join(table[b] for b in t.vocab[token_id])

    vocab_path = tmp_path / "vocab.json"
    vocab_path.write_text(json.dumps({spell(i): i for i in range(len(t.vocab))}),
                          encoding="utf-8")
    merges_path = tmp_path / "merges.txt"
    merges_path.write_text(
        "#version: 0.2\n" + "".join(f"{spell(left)} {spell(right)}\n"
                                    for left, right, _ in t.merges),
        encoding="utf-8")
    script = Path(__file__).parents[1] / "scripts" / "real_vocab_demo.py"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    proc = subprocess.run([sys.executable, str(script), str(vocab_path), str(merges_path)],
                          capture_output=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr.decode("utf-8", "replace")
    assert proc.stdout.startswith(b"loaded 263 tokens, 7 merges\n")
