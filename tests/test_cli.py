import contextlib
import io
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from toklang import save_tokenizer
from toklang.cli import main
from toklang.toys import (
    AAB_TOKENIZER_JSON,
    DYCK_GRAMMAR_TEXT,
    UNICODE_MIX_GRAMMAR_TEXT,
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
                               "died_at": 2, "reason": None, "schema": 1}


def test_recognize_bos_strip(files, capsys):
    rc, _ = run(capsys, "recognize", "--grammar", files["dyck"], "--alphabet", "byte",
                "--tokenizer", files["brackets"], "--mode", "tokens",
                "--bos-id", "9", "9 4 5")
    assert rc == 0


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


def test_structured_and_plain_agree(files, capsys):
    rc_plain, _ = run(capsys, "enumerate", "--tokenizer", files["aab"], "aaaa")
    rc_json, out = run(capsys, "enumerate", "--tokenizer", files["aab"],
                       "--structured", "aaaa")
    data = json.loads(out)
    assert rc_plain == rc_json == 0
    assert data["total"] == 7 and len(data["items"]) == 7
    assert sum(item["kind"] == "Proper" for item in data["items"]) == 1


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


def test_train_and_use(files, capsys, tmp_path):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("ab\nab\n", encoding="utf-8")
    out_path = tmp_path / "trained.json"
    rc, _ = run(capsys, "train", "--corpus", str(corpus), "--merges", "1",
                "--output", str(out_path))
    assert rc == 0
    rc, out = run(capsys, "tokenize", "--tokenizer", str(out_path), "ab")
    assert rc == 0 and out == "256\n"


def test_sample(files, capsys):
    rc, out = run(capsys, "sample", "--grammar", files["dyck"], "--alphabet", "byte",
                  "--count", "3", "--seed", "7")
    assert rc == 0
    lines = out.split("\n")[:-1]
    assert len(lines) == 3
    for line in lines:
        assert set(line) <= {"[", "]"}


def test_sample_empty_language_exit_2(capsys, tmp_path):
    g = tmp_path / "empty.g"
    g.write_text("S -> S ;", encoding="utf-8")
    rc, _ = run(capsys, "sample", "--grammar", str(g), "--count", "1")
    assert rc == 2


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


# --- error paths ---------------------------------------------------------------------


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
