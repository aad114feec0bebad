import contextlib
import decimal
import inspect
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import toklang
from toklang import dumps_tokenizer, save_tokenizer, train
from toklang.cli import main
from toklang.toys import (
    AAB_TOKENIZER_JSON,
    DYCK_GRAMMAR_TEXT,
    UNICODE_MIX_GRAMMAR_TEXT,
    aab_tokenizer,
    bracket_tokenizer,
)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    (d / "aab.json").write_text(AAB_TOKENIZER_JSON, encoding="utf-8")
    (d / "dyck.g").write_text(DYCK_GRAMMAR_TEXT, encoding="utf-8")
    (d / "mix.g").write_text(UNICODE_MIX_GRAMMAR_TEXT, encoding="utf-8")
    save_tokenizer(bracket_tokenizer(), d / "brackets.json")
    return {
        "aab": str(d / "aab.json"),
        "dyck": str(d / "dyck.g"),
        "mix": str(d / "mix.g"),
        "brackets": str(d / "brackets.json"),
        "dir": d,
    }


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr().out
    return rc, out


# --- tokenize / detokenize -----------------------------------------------------


def test_tokenize(files, capsys):
    rc, out = run(capsys, "tokenize", "--tokenizer", files["aab"], "aaabb")
    assert rc == 0 and out == "4 5\n"


def test_tokenize_empty_input(files, capsys):
    rc, out = run(capsys, "tokenize", "--tokenizer", files["aab"], "")
    assert rc == 0 and out == "\n"


def test_tokenize_uncovered_byte_exits_2(files, capsys):
    rc, _ = run(capsys, "tokenize", "--tokenizer", files["aab"], "ÿ")
    assert rc == 2


def test_detokenize(files, capsys):
    rc, out = run(capsys, "detokenize", "--tokenizer", files["aab"], "4 5")
    assert rc == 0 and out == "aaabb\n"


def test_detokenize_bad_ids_exit_2(files, capsys):
    rc, _ = run(capsys, "detokenize", "--tokenizer", files["aab"], "4 x")
    assert rc == 2
    rc, _ = run(capsys, "detokenize", "--tokenizer", files["aab"], "4 77")
    assert rc == 2


def test_detokenize_bytes_writes_raw_bytes(files, capsysbinary):
    # id 258 of the bracket tokenizer is the byte 0xff
    rc = main(["detokenize", "--tokenizer", files["brackets"], "--bytes", "4 258"])
    assert rc == 0 and capsysbinary.readouterr().out == b"[[\xff"


def test_detokenize_bytes_is_documented_as_raw_output(files, capsys):
    with pytest.raises(SystemExit):
        main(["detokenize", "--help"])
    help_text = " ".join(capsys.readouterr().out.split("--bytes", 2)[2].split())
    assert help_text.startswith("write the detokenized bytes raw to stdout")
    assert "(ignored with --structured)" in help_text
    # the ids are still read as text, and under --structured the JSON is printed
    rc, out = run(capsys, "detokenize", "--tokenizer", files["brackets"],
                  "--bytes", "--structured", "4 258")
    assert rc == 0 and json.loads(out)["bytes"] == "[[\\xff"


def test_detokenize_of_bytes_that_are_not_utf8(files, capsys):
    rc = main(["detokenize", "--tokenizer", files["brackets"], "4 258"])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err == (
        "error: detokenized bytes are not UTF-8; use --bytes for raw output\n")
    rc, out = run(capsys, "detokenize", "--tokenizer", files["brackets"],
                  "--structured", "4 258")
    assert rc == 0
    assert json.loads(out) == {
        "command": "detokenize", "bytes": "[[\\xff", "text": None, "schema": 1}


def test_tokenize_bytes_refuses_a_literal_argument(files, capsys):
    rc = main(["tokenize", "--tokenizer", files["brackets"], "--bytes", "[]"])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err == "error: --bytes reads a file or stdin, not a literal argument\n"


@pytest.mark.parametrize("argv", [
    ["detokenize", "\u0660"],            # ARABIC-INDIC DIGIT ZERO
    ["detokenize", "0_0"],
    ["detokenize", "+0"],
    ["detokenize", "--bos-id", "\u0660", "0"],
    ["detokenize", "--bos-id", "0_0", "0"],
    ["detokenize", "--bos-id", "-1", "0"],
    ["detokenize", "--bos-id", "-0", "0"],
    ["detokenize", "1" * 5000],          # past int()'s digit limit
], ids=["arabic_digit", "underscore", "sign", "bos_arabic_digit", "bos_underscore",
        "bos_negative", "bos_minus_zero", "past_digit_limit"])
def test_ids_are_ascii_decimal_digits_only(files, capsys, argv):
    try:
        rc = main(argv + ["--tokenizer", files["aab"]])
    except SystemExit as e:
        rc = e.code
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err.count("error: ") == 1


def test_deeply_nested_tokenizer_file_exits_2(files, capsys):
    deep = files["dir"] / "deep.json"
    deep.write_text("[" * 100000 + "]" * 100000, encoding="utf-8")
    rc = main(["tokenize", "--tokenizer", str(deep), "ab"])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err == "error: tokenizer file is nested too deeply\n"


@pytest.mark.parametrize("text, message", [
    ('{"version": 1, "vocab": {"a": 0, "b": 0}, "merges": []}', "duplicate token id 0"),
    ('[{"version": 1}]', "tokenizer file must be a JSON object"),
    ('{"version": 1, "merges": []}', "tokenizer file needs a vocab object and a merges array"),
    ('{"version": 1, "vocab": ["a"]}', "tokenizer file needs a vocab object and a merges array"),
    ('{"version": 1, "vocab": {"a": 0}, "merges": {}}',
     "tokenizer file needs a vocab object and a merges array"),
    ('{"version": 1, "vocab": {"a": 0}, "merges": [["a"]]}', "bad merge entry ['a']"),
    ('{"version": 1, "vocab": {"a": 0}, "merges": [["a", 0]]}', "bad merge entry ['a', 0]"),
    ('{"version": 1, "vocab": {"a": 0}, "merges": ["aa"]}', "bad merge entry 'aa'"),
], ids=["duplicate_id", "not_an_object", "no_vocab", "vocab_not_an_object",
        "merges_not_an_array", "merge_too_short", "merge_not_strings", "merge_not_a_list"])
def test_refused_tokenizer_file_exits_2(files, capsys, text, message):
    path = files["dir"] / "refused.json"
    path.write_text(text, encoding="utf-8")
    rc = main(["tokenize", "--tokenizer", str(path), "a"])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err == f"error: {message}\n"


# --- recognize -------------------------------------------------------------------


def test_recognize_chars(files, capsys):
    rc, out = run(capsys, "recognize", "--grammar", files["dyck"],
                  "--alphabet", "byte", "[]")
    assert rc == 0 and out == "accept\n"
    rc, out = run(capsys, "recognize", "--grammar", files["dyck"],
                  "--alphabet", "byte", "[[")
    assert rc == 1 and out == "reject\n"


def test_recognize_chars_unicode_grammar(files, capsys):
    rc, _ = run(capsys, "recognize", "--grammar", files["mix"], "aé你")
    assert rc == 0
    rc, _ = run(capsys, "recognize", "--grammar", files["mix"], "你a")
    assert rc == 1


def test_recognize_chars_checks_once_and_feeds_in_one_call(files, capsys, monkeypatch):
    # the input is checked as a whole and run by the session's one feed
    # loop, not fed a terminal at a time, with a death inside it too
    checked = []
    check = toklang.grammar.as_terminals

    def counted(g, w):
        checked.append(w)
        return check(g, w)

    def feed(*args):
        raise AssertionError("chars mode fed one terminal at a time")

    monkeypatch.setattr(toklang.grammar, "as_terminals", counted)
    monkeypatch.setattr(toklang.grammar.RecognitionSession, "feed", feed)
    for argv, rc_want, died_at in (([files["dyck"], "--alphabet", "byte", "[[]]"], 0, None),
                                   ([files["dyck"], "--alphabet", "byte", "[]]["], 1, 2),
                                   ([files["mix"], "aé你"], 0, None)):
        checked.clear()
        rc, out = run(capsys, "recognize", "--structured", "--grammar", *argv)
        assert rc == rc_want and json.loads(out)["died_at"] == died_at
        assert len(checked) == 1


def test_recognize_tokens(files, capsys):
    rc, _ = run(capsys, "recognize", "--grammar", files["dyck"], "--alphabet", "byte",
                "--tokenizer", files["brackets"], "--mode", "tokens", "4 5")
    assert rc == 0


def test_recognize_tokens_auto_byte_transform(files, capsys):
    # unicode-alphabet grammar is encoded automatically in token mode
    rc, _ = run(capsys, "recognize", "--grammar", files["dyck"],
                "--tokenizer", files["brackets"], "--mode", "tokens", "4 5")
    assert rc == 0


def test_recognize_proper_rejects_improper_member(files, capsys):
    rc, out = run(capsys, "recognize", "--grammar", files["dyck"], "--alphabet", "byte",
                  "--tokenizer", files["brackets"], "--mode", "proper", "1 3 2")
    assert rc == 1 and out == "reject: improper: WrongMergeOrder\n"
    rc, _ = run(capsys, "recognize", "--grammar", files["dyck"], "--alphabet", "byte",
                "--tokenizer", files["brackets"], "--mode", "proper", "4 5")
    assert rc == 0


def test_recognize_proper_names_a_mergeable_member(files, capsys):
    argv = ("recognize", "--grammar", files["dyck"], "--alphabet", "byte",
            "--tokenizer", files["brackets"], "--mode", "proper", "1 1 2 2")
    rc, out = run(capsys, *argv)
    assert rc == 1 and out == "reject: improper: Mergeable\n"
    rc, out = run(capsys, *argv, "--structured")
    assert rc == 1 and json.loads(out) == {
        "command": "recognize", "mode": "proper", "accept": False, "died_at": None,
        "tokens_consumed": 4, "reason": "improper: Mergeable", "schema": 1}


def test_the_kind_a_command_prints_is_one_properness_scan(files, capsys, monkeypatch):
    calls = []
    for name in ("_properness", "tokenize"):
        def counted(self, arg, name=name, method=getattr(toklang.Tokenizer, name)):
            calls.append(name)
            return method(self, arg)
        monkeypatch.setattr(toklang.Tokenizer, name, counted)
    for ids, kind in (("1 3 2", "WrongMergeOrder"), ("1 1 2 2", "Mergeable")):
        calls.clear()
        rc, out = run(capsys, "recognize", "--grammar", files["dyck"], "--alphabet", "byte",
                      "--tokenizer", files["brackets"], "--mode", "proper", ids)
        assert (rc, out) == (1, f"reject: improper: {kind}\n")
        assert calls == ["_properness"]
    calls.clear()
    rc, _ = run(capsys, "enumerate", "--tokenizer", files["aab"], "--limit", "3", "aaaa")
    assert rc == 0 and calls == ["_properness"] * 3  # one per row, and no tokenize


def test_recognize_structured_reports_death_offset(files, capsys):
    rc, out = run(capsys, "recognize", "--grammar", files["dyck"], "--alphabet", "byte",
                  "--structured", "][")
    assert rc == 1
    data = json.loads(out)
    assert data["schema"] == 1 and data["accept"] is False and data["died_at"] == 0


@pytest.mark.parametrize("mode", ["tokens", "proper"])
def test_recognize_token_modes_report_death_offset_in_bytes(files, capsys, mode):
    # ids 3 2 detokenize to "[]]", which dies at its byte 2, inside token 2
    rc, out = run(capsys, "recognize", "--grammar", files["dyck"], "--alphabet", "byte",
                  "--tokenizer", files["brackets"], "--mode", mode, "--structured", "3 2")
    assert rc == 1
    assert json.loads(out) == {"command": "recognize", "mode": mode, "accept": False,
                               "died_at": 2, "tokens_consumed": 2, "reason": None,
                               "schema": 1}


def test_recognize_bos_strip(files, capsys):
    rc, _ = run(capsys, "recognize", "--grammar", files["dyck"], "--alphabet", "byte",
                "--tokenizer", files["brackets"], "--mode", "tokens",
                "--bos-id", "9", "9 4 5")
    assert rc == 0


def _recognize_tokens(capsys, files, mode, ids, *flags):
    """(exit code, stdout, stderr) of recognize over the bracket tokens."""
    rc = main(["recognize", "--grammar", files["dyck"], "--alphabet", "byte",
               "--tokenizer", files["brackets"], "--mode", mode, *flags, ids])
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


@pytest.mark.parametrize("mode", ["tokens", "proper"])
@pytest.mark.parametrize("ids, flags, accept, died_at, consumed", [
    ("1 5", (), False, 2, 2),                    # "[" + "]]" dies inside its last token
    ("", (), True, None, 0),                     # no ids: the empty member
    ("9 1 2 2", ("--bos-id", "9"), False, 2, 3),  # the offsets count no stripped id
], ids=["death-inside-a-token", "empty", "bos-and-death"])
def test_recognize_token_modes_structured(files, capsys, mode, ids, flags, accept, died_at,
                                          consumed):
    rc, out, err = _recognize_tokens(capsys, files, mode, ids, "--structured", *flags)
    assert (rc, err) == (0 if accept else 1, "")
    assert json.loads(out) == {"command": "recognize", "mode": mode, "accept": accept,
                               "died_at": died_at, "tokens_consumed": consumed,
                               "reason": None, "schema": 1}


@pytest.mark.parametrize("mode", ["tokens", "proper"])
def test_recognize_token_modes_name_the_token_they_die_in(files, capsys, mode):
    # "[[" "]]" "[" "]" then "]": the fifth token dies, and the sixth is not
    # fed; the plain output is the bare verdict, byte for byte
    ids = "4 5 1 2 2 4"
    rc, out, err = _recognize_tokens(capsys, files, mode, ids, "--structured")
    assert (rc, err) == (1, "")
    data = json.loads(out)
    assert (data["died_at"], data["tokens_consumed"]) == (6, 5)
    assert _recognize_tokens(capsys, files, mode, ids) == (1, "reject\n", "")
    rc, out, err = _recognize_tokens(capsys, files, mode, "4 5 3", "--structured")
    assert (rc, json.loads(out)["tokens_consumed"]) == (0, 3)  # all of a member
    # chars mode feeds no tokens, and names none
    rc, out = run(capsys, "recognize", "--grammar", files["dyck"], "--alphabet", "byte",
                  "--structured", "[]]")
    assert rc == 1 and "tokens_consumed" not in json.loads(out)


@pytest.mark.parametrize("mode", ["tokens", "proper"])
@pytest.mark.parametrize("ids", ["2 999", "999 2", "1 5 999"],
                         ids=["after-death", "first", "after-death-in-a-token"])
def test_recognize_token_modes_refuse_an_unknown_id_anywhere(files, capsys, mode, ids):
    rc, out, err = _recognize_tokens(capsys, files, mode, ids)
    assert (rc, out, err) == (2, "", "error: unknown token id 999\n")


@pytest.mark.parametrize("argv", [
    ["tokenize", "aab"],
    ["enumerate", "aab"],
    ["verify", "--suite", "partition", "--budget", "1"],
], ids=lambda argv: argv[0])
def test_bos_id_is_rejected_where_no_ids_are_read(files, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--tokenizer", files["aab"], "--bos-id", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --bos-id 1" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [
    ("--bos-id", "1"),
    ("--tokenizer", None),              # the bracket tokenizer
    ("--tokenizer", "nonexistent.json"),
])
def test_token_flags_are_rejected_in_chars_mode(files, capsys, flag, value):
    rc = main(["recognize", "--grammar", files["dyck"], "--alphabet", "byte",
               flag, value or files["brackets"], "[]"])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err.splitlines() == [
        f"error: {flag} is only read in --mode tokens or proper"]


@pytest.mark.parametrize("argv", [
    ["--grammar", "dyck", "--bytes", "[]"],
    ["--grammar", "dyck", "--bytes", "--input-file", "dyck"],
    ["--grammar", "dyck", "--alphabet", "byte", "--tokenizer", "brackets",
     "--mode", "tokens", "--bytes", "4 5"],
    ["--grammar", "dyck", "--alphabet", "byte", "--tokenizer", "brackets",
     "--mode", "proper", "--bytes", "4 5"],
], ids=["unicode_literal", "unicode_file", "tokens", "proper"])
def test_bytes_is_rejected_where_it_is_not_read(files, capsys, argv):
    rc = main(["recognize"] + [files.get(a, a) for a in argv])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err.splitlines() == [
        "error: --bytes is only read in --mode chars with --alphabet byte"]


def test_pipe_composition_matches_chars_mode(files, capsys):
    # tokenize | recognize --mode tokens agrees with recognize --mode chars
    for text in ["", "[]", "[[]]", "[][[]]", "[[", "]["]:
        rc_chars, _ = run(capsys, "recognize", "--grammar", files["dyck"],
                          "--alphabet", "byte", text)
        rc_tok, ids = run(capsys, "tokenize", "--tokenizer", files["brackets"], text)
        assert rc_tok == 0
        rc_tokens, _ = run(capsys, "recognize", "--grammar", files["dyck"],
                           "--alphabet", "byte", "--tokenizer", files["brackets"],
                           "--mode", "tokens", ids.strip("\n"))
        assert rc_tokens == rc_chars, text


# --- classify / enumerate ----------------------------------------------------------


def test_classify_outputs(files, capsys):
    rc, out = run(capsys, "classify", "--tokenizer", files["aab"], "2 3 1")
    assert rc == 0 and out == "WrongMergeOrder; proper = 4 5\n"
    rc, out = run(capsys, "classify", "--tokenizer", files["aab"], "4 5")
    assert rc == 0 and out == "Proper\n"
    rc, out = run(capsys, "classify", "--tokenizer", files["aab"], "0 0 0 1 1")
    assert rc == 0 and out == "Mergeable at 0\n"


def test_classify_unknown_id_exit_2(files, capsys):
    rc, _ = run(capsys, "classify", "--tokenizer", files["aab"], "42")
    assert rc == 2


def test_enumerate(files, capsys):
    rc, out = run(capsys, "enumerate", "--tokenizer", files["aab"], "aaaa")
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[-1] == "total: 7"
    assert len(lines) == 8
    assert sum(line.endswith("\tProper") for line in lines[:-1]) == 1


def test_enumerate_with_limit(files, capsys):
    rc, out = run(capsys, "enumerate", "--tokenizer", files["aab"],
                  "--limit", "3", "aaabb")
    lines = out.strip().split("\n")
    assert rc == 0 and len(lines) == 4 and lines[-1] == "total: 10"


def test_enumerate_empty_string(files, capsys):
    rc, out = run(capsys, "enumerate", "--tokenizer", files["aab"], "")
    assert rc == 0 and out == "\tProper\ntotal: 1\n"


def test_enumerate_prints_a_total_past_the_int_to_str_digit_limit(files, capsys, tmp_path):
    # "a", "aa" and "aaa" are tokens, so a run of n "a" has the tribonacci
    # number T(n) = T(n-1) + T(n-2) + T(n-3) of segmentations: 4,499 digits
    # for n = 17,000, past the default limit of 4,300.  Decimal arithmetic
    # has no such limit, so it spells the expected total.
    n = 17_000
    (tmp_path / "run").write_bytes(b"a" * n)
    counts = [decimal.Decimal(1), decimal.Decimal(1), decimal.Decimal(2)]
    with decimal.localcontext() as ctx:
        ctx.prec = 10_000
        for _ in range(n - 2):
            counts = counts[1:] + [sum(counts)]
    total = str(counts[-1])
    assert len(total) == 4499
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    argv = ["enumerate", "--tokenizer", files["aab"], "--limit", "1", "--bytes",
            "--input-file", str(tmp_path / "run")]
    rc, out = run(capsys, *argv)
    assert rc == 0 and out.splitlines()[-1] == f"total: {total}"
    rc, out = run(capsys, *argv, "--structured")
    assert rc == 0
    data = json.loads(out, parse_int=decimal.Decimal)
    assert str(data["total"]) == total and len(data["items"]) == 1
    if limit is not None:  # lifted for printing only: a 5,000-digit id is still refused
        assert sys.get_int_max_str_digits() == limit


def test_structured_and_plain_agree(files, capsys):
    rc_plain, _ = run(capsys, "enumerate", "--tokenizer", files["aab"], "aaaa")
    rc_json, out = run(capsys, "enumerate", "--tokenizer", files["aab"],
                       "--structured", "aaaa")
    data = json.loads(out)
    assert rc_plain == rc_json == 0
    assert data["total"] == 7 and len(data["items"]) == 7
    assert sum(item["kind"] == "Proper" for item in data["items"]) == 1


@pytest.mark.parametrize("argv", [
    ["tokenize", "--tokenizer", "aab", "aaabb"],
    ["detokenize", "--tokenizer", "aab", "4 5"],
    ["recognize", "--grammar", "dyck", "--alphabet", "byte", "[]"],
    ["recognize", "--grammar", "dyck", "--tokenizer", "brackets", "--mode", "tokens", "4 5"],
    ["recognize", "--grammar", "dyck", "--tokenizer", "brackets", "--mode", "proper", "4 5"],
    ["classify", "--tokenizer", "aab", "0 0 0 1 1"],
    ["enumerate", "--tokenizer", "aab", "aab"],
    ["sample", "--grammar", "dyck", "--alphabet", "byte", "--count", "2"],
    ["verify", "--tokenizer", "aab", "--suite", "partition", "--budget", "3"],
], ids=["tokenize", "detokenize", "recognize-chars", "recognize-tokens", "recognize-proper",
        "classify", "enumerate", "sample", "verify"])
def test_structured_output_names_its_command_first_and_its_schema_last(files, capsys, argv):
    _, out = run(capsys, *(files.get(a, a) for a in argv), "--structured")
    assert out.startswith(f'{{"command": "{argv[0]}", ')
    assert out.endswith(', "schema": 1}\n') and out.count("\n") == 1


# --- transform / train / sample / verify ---------------------------------------------


def test_transform_encode_utf8(files, capsys, tmp_path):
    rc, out = run(capsys, "transform", "--grammar", files["mix"], "--encode-utf8")
    assert rc == 0
    out_path = tmp_path / "mix_bytes.g"
    out_path.write_text(out, encoding="utf-8")
    rc, _ = run(capsys, "recognize", "--grammar", str(out_path),
                "--alphabet", "byte", "aé你")
    assert rc == 0


def test_transform_leading_space(files, capsys, tmp_path):
    rc, out = run(capsys, "transform", "--grammar", files["dyck"],
                  "--alphabet", "byte", "--leading-space")
    assert rc == 0
    out_path = tmp_path / "spaced.g"
    out_path.write_text(out, encoding="utf-8")
    rc, _ = run(capsys, "recognize", "--grammar", str(out_path),
                "--alphabet", "byte", " []")
    assert rc == 0
    rc, _ = run(capsys, "recognize", "--grammar", str(out_path),
                "--alphabet", "byte", "[]")
    assert rc == 1


def test_transform_encode_utf8_of_a_byte_grammar_exits_2(files, capsys):
    rc = main(["transform", "--grammar", files["dyck"], "--alphabet", "byte",
               "--encode-utf8"])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err == "error: --encode-utf8 needs a unicode-alphabet grammar\n"


@pytest.mark.parametrize("flags,printed", [
    ([], "S -> S ;\n"),
    (["--leading-space"], "S' -> S' ;\n"),
    (["--encode-utf8"], "S -> S ;\n"),
], ids=["plain", "--leading-space", "--encode-utf8"])
def test_transform_of_an_empty_language_prints_a_start_deriving_nothing(
        capsys, tmp_path, flags, printed):
    # the output is reduced: S' -> " " S would name an S with no rules
    g = tmp_path / "empty.g"
    g.write_text('S -> A ; A -> A "a" ;', encoding="utf-8")
    rc, out = run(capsys, "transform", "--grammar", str(g), *flags)
    assert rc == 0 and out == printed
    rc, _ = run(capsys, "recognize", "--grammar", str(g), "")
    assert rc == 1


def test_transform_leading_space_names_the_start_after_reducing(capsys, tmp_path):
    # S' is unreachable and dropped first, so the fresh start may take its name
    g = tmp_path / "taken.g"
    g.write_text('S -> "a" ; S\' -> "b" ;', encoding="utf-8")
    rc, out = run(capsys, "transform", "--grammar", str(g), "--leading-space")
    assert rc == 0 and out == 'S\' -> " " S ;\nS -> "a" ;\n'


def test_train_and_use(files, capsys, tmp_path):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("ab\nab\n", encoding="utf-8")
    out_path = tmp_path / "trained.json"
    rc, _ = run(capsys, "train", "--corpus", str(corpus), "--merges", "1",
                "--output", str(out_path))
    assert rc == 0
    rc, out = run(capsys, "tokenize", "--tokenizer", str(out_path), "ab")
    assert rc == 0 and out == "256\n"


def test_train_reads_a_corpus_alike_whatever_its_line_ends(capsys, tmp_path):
    # a final newline, none, or \r\n line ends: the same samples, the same file
    trained = []
    for k, data in enumerate([b"ab ab\nba b\nab", b"ab ab\nba b\nab\n",
                              b"ab ab\r\nba b\r\nab\r\n"]):
        corpus, out_path = tmp_path / f"corpus{k}.txt", tmp_path / f"trained{k}.json"
        corpus.write_bytes(data)
        rc, _ = run(capsys, "train", "--corpus", str(corpus), "--merges", "4",
                    "--output", str(out_path))
        assert rc == 0
        trained.append(out_path.read_bytes())
    assert trained[0] == trained[1] == trained[2]
    assert trained[0] == (dumps_tokenizer(train([b"ab ab", b"ba b", b"ab"], 4)) + "\n").encode()


def test_train_bytes_learns_from_the_raw_file(capsys, tmp_path):
    data = b"a\r\nb\r\nc\rd\n\xff\xff\r\n"
    corpus = tmp_path / "raw.bin"
    corpus.write_bytes(data)
    rc, out = run(capsys, "train", "--corpus", str(corpus), "--merges", "3", "--bytes")
    t = train([data], 3)
    assert rc == 0 and out == dumps_tokenizer(t) + "\n"
    assert any(set(t.vocab[m]) & set(b"\r\n") for _, _, m in t.merges)
    rc = main(["train", "--corpus", str(corpus), "--merges", "3"])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err.startswith(f"error: {corpus} is not UTF-8 text")


def test_sample(files, capsys):
    rc, out = run(capsys, "sample", "--grammar", files["dyck"], "--alphabet", "byte",
                  "--count", "3", "--seed", "7")
    assert rc == 0
    lines = out.split("\n")[:-1]
    assert len(lines) == 3
    for line in lines:
        assert set(line) <= {"[", "]"}


def test_sample_does_not_recognize_its_samples(files, capsys, monkeypatch):
    # that what the sampler draws is a member is tested on the sampler; the
    # command only prints the samples
    argv = ["sample", "--grammar", files["dyck"], "--alphabet", "byte", "--count", "5",
            "--seed", "3"]
    want = run(capsys, *argv)

    def recognize(g, w):
        raise AssertionError("sample recognized a sample")

    monkeypatch.setattr(toklang.grammar, "recognize", recognize)
    assert run(capsys, *argv) == want and want[0] == 0 and len(want[1].splitlines()) == 5


def test_sample_of_bytes_that_are_not_utf8_is_escaped(capsys, tmp_path):
    g = tmp_path / "ff.g"
    g.write_text('S -> \\xff "a" ;', encoding="utf-8")
    rc, out = run(capsys, "sample", "--grammar", str(g), "--alphabet", "byte")
    assert rc == 0 and out == "\\xffa\n"
    rc, out = run(capsys, "sample", "--grammar", str(g), "--alphabet", "byte",
                  "--structured")
    assert rc == 0 and json.loads(out)["samples"] == ["\\xffa"]


def test_sample_empty_language_exit_2(capsys, tmp_path):
    g = tmp_path / "empty.g"
    g.write_text("S -> S ;", encoding="utf-8")
    rc, _ = run(capsys, "sample", "--grammar", str(g), "--count", "1")
    assert rc == 2


def test_sample_of_a_unicode_grammar(files, capsys):
    argv = ["sample", "--grammar", files["mix"], "--count", "3", "--seed", "0"]
    rc, out = run(capsys, *argv)
    assert rc == 0 and out == "aa你你\naé你\naaaaaé你你你你你\n"
    rc, out = run(capsys, *argv, "--structured")
    assert rc == 0 and out == ('{"command": "sample", "samples": ["aa\\u4f60\\u4f60", '
                               '"a\\u00e9\\u4f60", "aaaaa\\u00e9\\u4f60\\u4f60\\u4f60'
                               '\\u4f60\\u4f60"], "schema": 1}\n')


def test_sample_exhausting_its_budget_exits_2(capsys, tmp_path):
    # every derivation of "a" expands two nonterminals
    g = tmp_path / "two.g"
    g.write_text('S -> A ; A -> "a" ;', encoding="utf-8")
    rc = main(["sample", "--grammar", str(g), "--max-expansions", "1"])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err == \
        "error: no derivation takes at most 1 expansions; raise --max-expansions\n"


def test_verify_suites(files, capsys):
    rc, out = run(capsys, "verify", "--tokenizer", files["aab"],
                  "--suite", "homomorphism", "--budget", "500")
    assert rc == 0 and out.startswith("homomorphism: pass")
    rc, out = run(capsys, "verify", "--grammar", files["dyck"], "--alphabet", "byte",
                  "--tokenizer", files["brackets"], "--suite", "equivalence",
                  "--budget", "3")
    assert rc == 0 and "156 cases" in out
    rc, out = run(capsys, "verify", "--tokenizer", files["aab"],
                  "--suite", "partition", "--budget", "4")
    assert rc == 0 and out.startswith("partition: pass")


def test_verify_without_budget_runs_the_suite_default(files, capsys):
    rc, out = run(capsys, "verify", "--tokenizer", files["aab"], "--suite", "partition",
                  "--structured")
    assert rc == 0
    assert json.loads(out)["cases"] == toklang.run_partition_suite(aab_tokenizer()).cases == 511


@pytest.mark.parametrize("argv, flag, reader", [
    (["--tokenizer", "aab", "--suite", "partition", "--grammar", "nonexistent.g"],
     "--grammar", "equivalence"),
    (["--tokenizer", "aab", "--suite", "homomorphism", "--grammar", "dyck"],
     "--grammar", "equivalence"),
    (["--tokenizer", "aab", "--suite", "partition", "--seed", "3"],
     "--seed", "homomorphism"),
    (["--tokenizer", "brackets", "--grammar", "dyck", "--suite", "equivalence", "--seed", "0"],
     "--seed", "homomorphism"),
    (["--tokenizer", "aab", "--suite", "partition"], "--alphabet", "equivalence"),
    (["--tokenizer", "aab", "--suite", "homomorphism", "--alphabet", "unicode"],
     "--alphabet", "equivalence"),
], ids=["partition-grammar", "homomorphism-grammar", "partition-seed", "equivalence-seed",
        "partition-alphabet", "homomorphism-alphabet"])
def test_verify_refuses_a_flag_its_suite_never_reads(files, capsys, argv, flag, reader):
    rc = main(["verify", "--budget", "3", "--alphabet", "byte"] + [files.get(a, a) for a in argv])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err == f"error: {flag} is only read in --suite {reader}\n"


def test_verify_homomorphism_seed_defaults_to_0(files, capsys, monkeypatch):
    from toklang.verify import run_homomorphism_suite as suite
    seeds = []
    monkeypatch.setattr("toklang.verify.run_homomorphism_suite",
                        lambda *a, seed: seeds.append(seed) or suite(*a, seed=seed))
    argv = ["verify", "--tokenizer", files["aab"], "--suite", "homomorphism", "--budget", "50"]
    assert run(capsys, *argv)[0] == run(capsys, *argv, "--seed", "7")[0] == 0
    assert seeds == [0, 7]


def _suite_defaults() -> dict[str, int]:
    """Suite name -> the default budget of its ``verify.py`` signature."""
    sig = inspect.signature
    return {
        "homomorphism": sig(toklang.run_homomorphism_suite).parameters["pairs"].default,
        "equivalence": sig(toklang.run_equivalence_suite).parameters["max_len"].default,
        "partition": sig(toklang.run_partition_suite).parameters["max_len"].default,
    }


def _states(text: str, defaults: dict[str, int]) -> bool:
    """Whether *text* names each suite with its default as the next number."""
    return all(re.search(rf"{suite}\W[^0-9]*?\b{n}\b", text) for suite, n in defaults.items())


def test_the_budget_help_and_the_readme_state_the_suite_defaults(capsys):
    defaults = _suite_defaults()
    with pytest.raises(SystemExit):
        main(["verify", "--help"])
    assert _states(capsys.readouterr().out.split("--budget", 1)[1], defaults)
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    passage = re.search(r"`verify\s+--budget`\s+at\s+least\s+0\s+\(([^)]*)\)", readme)
    assert passage is not None and _states(passage[1], defaults)
    assert not _states(passage[1], {**defaults, "partition": defaults["partition"] + 1})


# --- error paths ---------------------------------------------------------------------


@pytest.mark.parametrize("error", [
    toklang.cli.CliError("c"), toklang.GrammarError("g"), toklang.GrammarParseError("p", 1, 1),
    toklang.TokenizerError("t"), toklang.EncodingError("e"), OSError("o"),
    UnicodeDecodeError("utf-8", b"\xff", 0, 1, "u"),
], ids=lambda e: type(e).__name__)
def test_exactly_the_data_errors_exit_2(files, capsys, monkeypatch, error):
    def fail(args):
        raise error

    monkeypatch.setattr("toklang.cli.cmd_tokenize", fail)
    rc = main(["tokenize", "--tokenizer", files["aab"], "a"])
    assert rc == 2 and capsys.readouterr().err == f"error: {error}\n"


@pytest.mark.parametrize("error", [ValueError("v"), KeyError("k"), RuntimeError("r")],
                         ids=lambda e: type(e).__name__)
def test_any_other_error_is_not_taken_for_a_data_error(files, monkeypatch, error):
    def fail(args):
        raise error

    monkeypatch.setattr("toklang.cli.cmd_tokenize", fail)
    with pytest.raises(type(error)):
        main(["tokenize", "--tokenizer", files["aab"], "a"])


def test_missing_file_exit_2(capsys):
    rc, _ = run(capsys, "tokenize", "--tokenizer", "/nonexistent.json", "x")
    assert rc == 2


def test_missing_artifact_flag_exit_2(files, capsys):
    rc, _ = run(capsys, "recognize", "--grammar", files["dyck"], "--alphabet", "byte",
                "--mode", "tokens", "1 2")
    assert rc == 2


def test_bad_grammar_file_exit_2(capsys, tmp_path):
    g = tmp_path / "bad.g"
    g.write_text("S -> A ;", encoding="utf-8")
    rc, _ = run(capsys, "recognize", "--grammar", str(g), "x")
    assert rc == 2


@pytest.mark.parametrize("place", ["grammar", "tokenizer", "input-file", "stdin", "corpus",
                                   "argument"])
def test_non_utf8_input_exits_2(files, capsys, monkeypatch, place):
    bad = files["dir"] / "not-utf8.bin"
    bad.write_bytes(b'S -> "\xff" ;')
    if place == "argument":  # argv comes from the operating system: run a process
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        proc = subprocess.run(
            [sys.executable, "-m", "toklang.cli", "tokenize", "--tokenizer", files["aab"],
             b"\xff"], capture_output=True, env=env, timeout=60)
        rc, err = proc.returncode, proc.stderr.decode("utf-8")
    else:
        argv = {
            "grammar": ["recognize", "--grammar", str(bad), "x"],
            "tokenizer": ["tokenize", "--tokenizer", str(bad), "a"],
            "input-file": ["classify", "--tokenizer", files["aab"], "--input-file", str(bad)],
            "stdin": ["classify", "--tokenizer", files["aab"]],
            "corpus": ["train", "--corpus", str(bad), "--merges", "1"],
        }[place]
        monkeypatch.setattr(sys, "stdin",
                            io.TextIOWrapper(io.BytesIO(b"\xff 1"), encoding="utf-8"))
        rc, err = main(argv), capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    source = {"stdin": "stdin", "argument": "the input argument"}.get(place, str(bad))
    assert err.startswith(f"error: {source} is not UTF-8 text: invalid start byte at byte ")


def test_non_utf8_stdin_under_c_locale_exits_2(files):
    env = {**os.environ, "LC_ALL": "C", "PYTHONPATH": os.pathsep.join(sys.path)}
    proc = subprocess.run(
        [sys.executable, "-m", "toklang.cli", "tokenize", "--tokenizer", files["aab"]],
        input=b"\xff", capture_output=True, env=env, timeout=60)
    assert proc.returncode == 2
    assert proc.stderr == b"error: stdin is not UTF-8 text: invalid start byte at byte 0\n"


# --- what one process loads ------------------------------------------------------

# Runs the CLI as ``python -m toklang.cli`` does, then prints the exit code and
# the modules loaded as the last line of stdout.
_RUN_AND_LIST_MODULES = """\
import runpy, sys
try:
    runpy.run_module("toklang.cli", run_name="__main__", alter_sys=True)
except SystemExit as e:
    code = e.code
print(code, *sorted(sys.modules))
"""


def _fresh_process(*argv):
    """(exit code, stderr, modules loaded) of one CLI process."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    proc = subprocess.run([sys.executable, "-c", _RUN_AND_LIST_MODULES, *argv],
                          capture_output=True, text=True, env=env, timeout=60)
    code, *modules = proc.stdout.splitlines()[-1].split()
    return int(code), proc.stderr, set(modules)


@pytest.fixture(scope="module")
def bare_interpreter_modules():
    proc = subprocess.run([sys.executable, "-c", "import sys; print(*sys.modules)"],
                          capture_output=True, text=True, timeout=60, check=True)
    return set(proc.stdout.split())


@pytest.mark.parametrize("argv, code, absent", [
    (["tokenize", "--tokenizer", "{aab}", "aaabb"], 0,
     ["grammar", "recognizer", "encoding", "segmentation", "verify"]),
    (["recognize", "--grammar", "{dyck}", "--alphabet", "byte", "--tokenizer", "{brackets}",
      "--mode", "tokens", "4 5"], 0,
     ["encoding", "segmentation", "verify"]),
    (["classify", "--tokenizer", "{aab}", "0 0 0 1 1"], 0, ["grammar", "verify"]),
    (["verify", "--tokenizer", "{aab}", "--suite", "homomorphism", "--budget", "100"], 0,
     ["grammar", "recognizer", "segmentation", "encoding"]),
    (["verify", "--tokenizer", "{aab}", "--suite", "partition", "--budget", "3"], 0,
     ["grammar", "recognizer", "encoding"]),
    (["recognize", "--grammar", "{dyck}", "--alphabet", "byte", "--tokenizer", "{brackets}",
      "--mode", "proper", "4 5"], 0,
     ["encoding", "segmentation", "verify"]),
    (["recognize", "--grammar", "{dyck}", "--alphabet", "byte", "--tokenizer", "{brackets}",
      "--mode", "proper", "1 3 2"], 1,
     ["encoding", "segmentation", "verify"]),
])
def test_a_command_loads_only_the_modules_it_runs(files, bare_interpreter_modules,
                                                  argv, code, absent):
    got, err, modules = _fresh_process(*(arg.format(**files) for arg in argv))
    assert (got, err) == (code, "")
    assert "toklang.bpe" in modules
    assert not {f"toklang.{name}" for name in absent} & modules
    if "dataclasses" not in bare_interpreter_modules:
        assert "dataclasses" not in modules


@pytest.mark.parametrize("argv, text, message", [
    (["tokenize", "--tokenizer", "{path}", "a"], "{}", "unsupported tokenizer format"),
    (["recognize", "--grammar", "{path}", "a"], "S -> ;", "line 1, column 6"),
])
def test_a_fresh_process_exits_2_on_a_data_error(tmp_path, argv, text, message):
    path = tmp_path / "artifact"
    path.write_text(text, encoding="utf-8")
    code, err, _ = _fresh_process(*(arg.format(path=path) for arg in argv))
    assert code == 2
    assert err.startswith("error: ") and message in err and err.count("\n") == 1


def test_crlf_files_read_as_text(files, capsys):
    crlf = files["dir"] / "crlf.txt"
    crlf.write_bytes(b"ab\r\n")  # with the \r kept, it would have no token
    rc, out = run(capsys, "tokenize", "--tokenizer", files["aab"], "--input-file", str(crlf))
    assert rc == 0 and out == "3\n"
    crlf.write_bytes(b"a\r\na\r\n")  # with the \r kept, (a, \r) would merge
    rc, out = run(capsys, "train", "--corpus", str(crlf), "--merges", "1")
    assert rc == 0 and json.loads(out)["merges"] == []


@pytest.mark.parametrize("argv", [
    ["verify", "--suite", "partition", "--budget", "-1"],
    ["sample", "--count", "-1"],
    ["sample", "--max-expansions", "0"],
    ["enumerate", "--limit", "0", "a"],
    ["enumerate", "--limit", "x", "a"],
    ["train", "--corpus", os.devnull, "--merges", "-1"],
    ["enumerate", "--limit", "\u0663", "a"],  # ARABIC-INDIC DIGIT THREE
    ["sample", "--count", "-0"],
    ["train", "--corpus", os.devnull, "--merges", "-0"],
    ["sample", "--seed", "\u0663"],
    ["sample", "--seed", "1_0"],
    ["verify", "--suite", "partition", "--seed", "+3"],
    ["verify", "--suite", "partition", "--seed", "-0"],
])
def test_out_of_range_counts_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as e:
        main(argv)
    assert e.value.code == 2
    assert "error: argument --" in capsys.readouterr().err


def test_budget_zero_is_taken_literally(files, capsys):
    rc, out = run(capsys, "verify", "--tokenizer", files["aab"],
                  "--suite", "partition", "--budget", "0")
    assert rc == 0 and out == "partition: pass (1 cases checked)\n"
    rc, out = run(capsys, "sample", "--grammar", files["dyck"], "--count", "0")
    assert rc == 0 and out == ""


# --- the exit-code contract over generated invocations --------------------------------

_COMMANDS = ["tokenize", "detokenize", "recognize", "classify", "enumerate",
             "transform", "train", "sample", "verify"]


@st.composite
def invocations(draw, files):
    """argv for one subcommand: artifacts, flags and counts in and out of range."""
    command = draw(st.sampled_from(_COMMANDS))
    argv = [command]

    def maybe(*flag_values, odds=0.5):
        if draw(st.floats(0, 1)) < odds:
            argv.extend(flag_values)

    grammar = st.sampled_from([files["dyck"], files["mix"], files["bad"]])
    tokenizer = st.sampled_from([files["aab"], files["brackets"], files["bad"]])
    if command in ("recognize", "transform", "sample", "verify"):
        maybe("--grammar", draw(grammar), odds=0.9)
        maybe("--alphabet", draw(st.sampled_from(["unicode", "byte"])))
    if command in ("tokenize", "detokenize", "recognize", "classify", "enumerate", "verify"):
        maybe("--tokenizer", draw(tokenizer), odds=0.9)
        maybe("--bos-id", str(draw(st.integers(-1, 6))))
    if command not in ("transform", "train"):
        maybe("--structured")
    if command in ("tokenize", "detokenize", "recognize", "classify", "enumerate"):
        argv += ["--input-file", files["input"]]
        if command != "classify":
            maybe("--bytes")
    if command == "recognize":
        maybe("--mode", draw(st.sampled_from(["chars", "tokens", "proper"])))
    elif command == "enumerate":
        maybe("--limit", str(draw(st.integers(-1, 4))))
    elif command == "transform":
        maybe("--encode-utf8")
        maybe("--leading-space")
    elif command == "train":
        argv += ["--corpus", files["input"], "--merges", str(draw(st.integers(-1, 3)))]
        maybe("--bytes")
        maybe("--output", str(files["dir"] / "generated.json"))
    elif command == "sample":
        maybe("--count", str(draw(st.integers(-1, 3))))
        maybe("--max-expansions", str(draw(st.integers(0, 50))))
    elif command == "verify":
        argv += ["--suite", draw(st.sampled_from(["homomorphism", "equivalence", "partition"]))]
        # small budgets only: the partition suite is exponential in it
        argv += ["--budget", str(draw(st.integers(-1, 1)))]
    return argv


_input_bytes = st.one_of(
    st.binary(max_size=24),
    st.text("[]ab 0123456789é你\n", max_size=24).map(str.encode),
    st.lists(st.integers(0, 260), max_size=8).map(lambda ids: " ".join(map(str, ids)).encode()),
)


@pytest.fixture(scope="module")
def fuzz_files(files):
    bad = files["dir"] / "bad-artifact"
    bad.write_bytes(b"\xff\xfe{")
    return {**files, "bad": str(bad), "input": str(files["dir"] / "input.bin")}


@settings(max_examples=300)
@given(data=st.data(), payload=_input_bytes)
def test_exit_code_contract(fuzz_files, data, payload):
    argv = data.draw(invocations(fuzz_files))
    with open(fuzz_files["input"], "wb") as fh:
        fh.write(payload)
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            rc = main(argv)
        except SystemExit as e:
            rc = e.code
        out.flush()
    assert rc in (0, 1, 2), argv
    if rc == 1:  # only a decision exits 1
        printed = out.buffer.getvalue().decode("utf-8")
        if printed.startswith("{"):
            doc = json.loads(printed)
            assert doc.get("accept") is False or doc.get("passed") is False, argv
        else:
            assert printed.startswith("reject") or "FAIL" in printed, (argv, printed)
