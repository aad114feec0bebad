"""Command-line interface.

Exit codes are uniform across subcommands: 0 accept/pass, 1 reject/fail,
2 usage or data error.  ``--structured`` switches output to one JSON
object (schema version 1) carrying the same decision as the plain text.

Each subcommand imports the modules it runs when it runs, so a process
loads only those: ``tokenize`` never reads the grammar module.
"""

from __future__ import annotations

import argparse
import os
import sys

from ._value import DataError

SCHEMA_VERSION = 1


class CliError(DataError):
    """User-facing configuration or data error; exits with status 2."""


def _read(path: str | None) -> bytes:
    """The bytes of the file at *path*, or of stdin when *path* is None."""
    if path is None:
        return sys.stdin.buffer.read()
    with open(path, "rb") as fh:
        return fh.read()


def _decode(data: bytes, source: str) -> str:
    """*data* as UTF-8; an error names *source*."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as e:
        raise CliError(f"{source} is not UTF-8 text: {e.reason} at byte {e.start}") from None


def _read_text(path: str | None) -> str:
    """UTF-8 text of *path* (or stdin), newlines as in text mode, locale-free."""
    text = _decode(_read(path), path or "stdin")
    return text.replace("\r\n", "\n").replace("\r", "\n")


def _grammar(args):
    """The grammar named by --grammar, read in --alphabet mode."""
    from .grammar import parse_grammar
    if not args.grammar:
        raise CliError("this command needs --grammar")
    return parse_grammar(_read_text(args.grammar), args.alphabet or "unicode")


def _tokenizer(args):
    """The tokenizer named by --tokenizer."""
    from .bpe import loads_tokenizer
    if not args.tokenizer:
        raise CliError("this command needs --tokenizer")
    return loads_tokenizer(_read_text(args.tokenizer))


def _read_text_input(args) -> str:
    if args.input is not None:
        # argv holds undecodable bytes as surrogate escapes; fsencode restores them
        return _decode(os.fsencode(args.input), "the input argument")
    text = _read_text(args.input_file or None)
    return text[:-1] if text.endswith("\n") else text


def _read_byte_input(args) -> bytes:
    if args.bytes:
        if args.input is not None:
            raise CliError("--bytes reads a file or stdin, not a literal argument")
        return _read(args.input_file or None)
    return _read_text_input(args).encode("utf-8")


def _parse_ids(args) -> list[int]:
    text = _read_text_input(args)
    ids = [_ascii_int(f) for f in text.split()]
    if None in ids:
        raise CliError(f"token ids must be space-separated decimals, got {text!r}")
    if args.bos_id is not None and ids[:1] == [args.bos_id]:
        ids = ids[1:]
    return ids


def _emit(args, lines: list[str], fields: dict | None = None) -> None:
    """Print each of *lines*, or under --structured one line of JSON: the
    command, *fields* and the schema; a command without it passes no fields."""
    if fields is not None and args.structured:
        import json
        print(json.dumps({"command": args.command, **fields, "schema": SCHEMA_VERSION}))
    else:
        for line in lines:
            print(line)


def _recognizer(args):
    """The TokenRecognizer of --grammar, in bytes, and --tokenizer."""
    from .recognizer import TokenRecognizer
    g = _grammar(args)
    if g.alphabet == "unicode":
        from .encoding import UTF8, encode_grammar
        g = encode_grammar(UTF8, g)  # auto byte transform when tokens are in play
    return TokenRecognizer(g, _tokenizer(args))


# --- subcommands -------------------------------------------------------------


def cmd_tokenize(args) -> int:
    ids = _tokenizer(args).tokenize(_read_byte_input(args))
    _emit(args, [" ".join(map(str, ids))], {"ids": ids})
    return 0


def cmd_detokenize(args) -> int:
    from .bpe import escape_bytes
    data = _tokenizer(args).detokenize(_parse_ids(args))
    if args.bytes and not args.structured:
        sys.stdout.buffer.write(data)
        return 0
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError:
        if not args.structured:
            raise CliError("detokenized bytes are not UTF-8; use --bytes for raw output") from None
        text = None
    _emit(args, [text], {"bytes": escape_bytes(data), "text": text})
    return 0


def cmd_recognize(args) -> int:
    from .grammar import RecognitionSession, as_terminals
    mode = args.mode
    reason = None
    if args.bytes and (mode != "chars" or args.alphabet != "byte"):
        raise CliError("--bytes is only read in --mode chars with --alphabet byte")

    if mode == "chars":
        for flag, value in (("--tokenizer", args.tokenizer), ("--bos-id", args.bos_id)):
            if value is not None:
                raise CliError(f"{flag} is only read in --mode tokens or proper")
        g = _grammar(args)
        data = _read_byte_input(args) if g.alphabet == "byte" else _read_text_input(args)
        session = RecognitionSession(g)._feed_checked(as_terminals(g, data))
    else:
        rec = _recognizer(args)
        terms = rec.tokenizer.check_ids(_parse_ids(args))  # every id, past a death too
        session = rec.open_session()  # died_at counts bytes
        for t in terms:
            session.feed(t)
            if not session.live:
                break
    accept = session.accepts()
    if mode == "proper" and accept:
        from .bpe import Kind
        kind = rec.tokenizer._properness(terms)[0]  # terms are checked ids
        if kind is not Kind.PROPER:
            accept, reason = False, f"improper: {kind.value}"

    plain = "accept" if accept else ("reject" if reason is None else f"reject: {reason}")
    _emit(args, [plain], {
        "mode": mode,
        "accept": accept,
        "died_at": session.died_at,
        # token modes: the tokens fed, the one the session died in counted
        **({} if mode == "chars" else {"tokens_consumed": session.tokens_consumed}),
        "reason": reason,
    })
    return 0 if accept else 1


def cmd_classify(args) -> int:
    from .segmentation import classify
    c = classify(_tokenizer(args), _parse_ids(args))
    _emit(args, [str(c)], {
        "kind": c.kind.value,
        "mergeable_at": c.mergeable_at,
        "proper": list(c.proper_form) if c.proper_form is not None else None,
    })
    return 0


def cmd_enumerate(args) -> int:
    from .segmentation import count_tokenizations, enumerate_tokenizations
    tokenizer = _tokenizer(args)
    data = _read_byte_input(args)
    total = count_tokenizations(tokenizer, data)
    rows = [(ids, tokenizer._properness(ids)[0].value)  # ids of the vocabulary
            for ids in enumerate_tokenizations(tokenizer, data, limit=args.limit)]
    lines = [f"{' '.join(map(str, ids))}\t{kind}" for ids, kind in rows]
    # the exact total can pass the int-to-str digit limit (Python 3.10.7 on),
    # which stays in force for reading ids: lifted only while it is printed
    limited = hasattr(sys, "set_int_max_str_digits")
    if limited:
        digits = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
    try:
        _emit(args, lines + [f"total: {total}"], {
            "total": total,
            "items": [{"ids": ids, "kind": kind} for ids, kind in rows],
        })
    finally:
        if limited:
            sys.set_int_max_str_digits(digits)
    return 0


def cmd_transform(args) -> int:
    from .grammar import add_leading_space, format_grammar, reduce_grammar
    # reduced before and after add_leading_space: the fresh start avoids only
    # the names kept, and what is printed reads back
    g = reduce_grammar(_grammar(args))
    if args.leading_space:
        g = reduce_grammar(add_leading_space(g))
    if args.encode_utf8:
        if g.alphabet != "unicode":
            raise CliError("--encode-utf8 needs a unicode-alphabet grammar")
        from .encoding import UTF8, encode_grammar
        g = encode_grammar(UTF8, g)
    _emit(args, format_grammar(g).split("\n")[:-1])
    return 0


def cmd_train(args) -> int:
    from .bpe import dumps_tokenizer, save_tokenizer, train
    if args.bytes:
        corpus = [_read(args.corpus)]
    else:
        corpus = [line.encode("utf-8") for line in _read_text(args.corpus).split("\n")]
    t = train(corpus, args.merges)
    if args.output:
        save_tokenizer(t, args.output)
        _emit(args, [f"{len(t.vocab)} tokens, {len(t.merges)} merges -> {args.output}"])
    else:
        _emit(args, [dumps_tokenizer(t)])
    return 0


def cmd_sample(args) -> int:
    import random
    from .grammar import sample
    g = _grammar(args)
    if g.is_empty_language:
        raise CliError("grammar generates the empty language; nothing to sample")
    rng = random.Random(args.seed)
    lines = []
    for _ in range(args.count):
        w = sample(g, args.max_expansions, rng)
        if w is None:  # then no draw fits
            raise CliError(f"no derivation takes at most {args.max_expansions} "
                           f"expansions; raise --max-expansions")
        if isinstance(w, bytes):
            try:
                lines.append(w.decode("utf-8"))
            except UnicodeDecodeError:
                from .bpe import escape_bytes
                lines.append(escape_bytes(w))
        else:
            lines.append(w)
    _emit(args, lines, {"samples": lines})
    return 0


def cmd_verify(args) -> int:
    from .verify import run_equivalence_suite, run_homomorphism_suite, run_partition_suite
    for flag, value, suite in (("--grammar", args.grammar, "equivalence"),
                               ("--seed", args.seed, "homomorphism"),
                               ("--alphabet", args.alphabet, "equivalence")):
        if value is not None and args.suite != suite:
            raise CliError(f"{flag} is only read in --suite {suite}")
    budget = () if args.budget is None else (args.budget,)  # none: the suite's default
    if args.suite == "homomorphism":
        report = run_homomorphism_suite(_tokenizer(args), *budget, seed=args.seed or 0)
    elif args.suite == "equivalence":
        report = run_equivalence_suite(_recognizer(args), *budget)
    else:
        report = run_partition_suite(_tokenizer(args), *budget)
    _emit(args, [report.summary()], {
        "suite": report.suite,
        "passed": report.passed,
        "cases": report.cases,
        "failures": report.failures[:20],
    })
    return 0 if report.passed else 1


# --- parser ------------------------------------------------------------------


def _add_artifact_flags(p, *, grammar=False, tokenizer=False, token_ids=False):
    if grammar:
        p.add_argument("--grammar", metavar="FILE", help="grammar file")
        p.add_argument("--alphabet", choices=["unicode", "byte"], default=None,
                       help="grammar terminal alphabet (default: unicode)")
    if tokenizer:
        p.add_argument("--tokenizer", metavar="FILE", help="tokenizer file (native format)")
    if token_ids:
        p.add_argument("--bos-id", type=_at_least(0), default=None, metavar="ID",
                       help="strip this leading id from token input")


def _ascii_int(text: str) -> int | None:
    """*text* as an int if it is ASCII decimal digits only, else None: int()
    alone reads signs, spaces, underscores and other scripts' digits."""
    try:
        return int(text) if text.isascii() and text.isdigit() else None
    except ValueError:  # past int()'s digit limit
        return None


def _at_least(low: int):
    """argparse type for an integer in ASCII digits that must be >= *low* >= 0."""
    def parse(text: str) -> int:
        n = _ascii_int(text)
        if n is None or n < low:
            raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text!r}")
        return n
    return parse


def _add_io_flags(p, *, input_arg=True, bytes_flag=False):
    p.add_argument("--structured", action="store_true", help="JSON output")
    if input_arg:
        p.add_argument("input", nargs="?", default=None,
                       help="literal input (default: stdin)")
        p.add_argument("--input-file", metavar="FILE", help="read input from a file")
    if bytes_flag:
        p.add_argument("--bytes", action="store_true",
                       help="treat input (file or stdin) as raw bytes")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toklang",
        description="Context-free recognition over byte-level BPE token streams.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tokenize", help="text -> token ids")
    _add_artifact_flags(p, tokenizer=True)
    _add_io_flags(p, bytes_flag=True)
    p.set_defaults(func=cmd_tokenize)

    p = sub.add_parser("detokenize", help="token ids -> text")
    _add_artifact_flags(p, tokenizer=True, token_ids=True)
    _add_io_flags(p)
    p.add_argument("--bytes", action="store_true",
                   help="write the detokenized bytes raw to stdout (ignored with --structured)")
    p.set_defaults(func=cmd_detokenize)

    p = sub.add_parser("recognize", help="decide membership (exit 0 accept, 1 reject)")
    _add_artifact_flags(p, grammar=True, tokenizer=True, token_ids=True)
    p.add_argument("--mode", choices=["chars", "tokens", "proper"], default="chars")
    _add_io_flags(p, bytes_flag=True)
    p.set_defaults(func=cmd_recognize)

    p = sub.add_parser("classify", help="Proper / Mergeable / WrongMergeOrder")
    _add_artifact_flags(p, tokenizer=True, token_ids=True)
    _add_io_flags(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("enumerate", help="list all tokenizations of a string")
    _add_artifact_flags(p, tokenizer=True)
    p.add_argument("--limit", type=_at_least(1), default=1000,
                   help="max tokenizations to print (default: 1000)")
    _add_io_flags(p, bytes_flag=True)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("transform", help="rewrite a grammar")
    _add_artifact_flags(p, grammar=True)
    p.add_argument("--encode-utf8", action="store_true",
                   help="character terminals -> UTF-8 byte terminals")
    p.add_argument("--leading-space", action="store_true",
                   help="accept exactly the members prefixed with one space")
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("train", help="learn a BPE tokenizer from a corpus")
    p.add_argument("--corpus", required=True, metavar="FILE",
                   help="training corpus, one sample per line")
    p.add_argument("--merges", required=True, type=_at_least(0),
                   help="number of merges to learn")
    p.add_argument("--output", metavar="FILE", help="write tokenizer here (default: stdout)")
    p.add_argument("--bytes", action="store_true", help="corpus file is one raw-byte sample")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("sample", help="draw member strings from a grammar")
    _add_artifact_flags(p, grammar=True)
    p.add_argument("--count", type=_at_least(0), default=1)
    p.add_argument("--seed", type=_at_least(0), default=0)
    p.add_argument("--max-expansions", type=_at_least(1), default=200,
                   help="derivation budget per attempt (default: 200)")
    _add_io_flags(p, input_arg=False)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("verify", help="run a property suite (exit 0 iff it passes)")
    _add_artifact_flags(p, grammar=True, tokenizer=True)
    p.add_argument("--suite", required=True,
                   choices=["homomorphism", "equivalence", "partition"])
    p.add_argument("--budget", type=_at_least(0), default=None,
                   help="random pairs (homomorphism, default 10000) or max length "
                        "(equivalence 5, partition 8)")
    p.add_argument("--seed", type=_at_least(0), default=None,
                   help="homomorphism's random seed (default 0)")
    _add_io_flags(p, input_arg=False)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (DataError, OSError, UnicodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
