"""Value semantics of the six value classes, and the lazy package namespace."""

import os
import subprocess
import sys

import pytest

import toklang
from toklang import (
    UTF8,
    Classification,
    EncodingError,
    EncodingScheme,
    Grammar,
    GrammarError,
    Kind,
    Production,
    SuiteReport,
    TokenRecognizer,
    Tokenizer,
    TokenizerError,
    bpe,
    encoding,
    grammar,
    recognizer,
    segmentation,
    verify,
)
from toklang.toys import bracket_tokenizer, dyck_grammar


def _encode_char(cp):
    return chr(cp).encode("utf-8")


# class -> (the fields of one instance, in constructor order; the same with one changed)
FIELDS = {
    Grammar: ((frozenset({"S"}), "byte", (Production("S", (97,)),), "S"),
              (frozenset({"S"}), "byte", (Production("S", (98,)),), "S")),
    Tokenizer: (((b"a", b"b", b"ab"), ((0, 1, 2),)), ((b"a", b"b", b"ab"), ())),
    TokenRecognizer: ((dyck_grammar(), bracket_tokenizer()),
                      (dyck_grammar(), Tokenizer(tuple(bytes([b]) for b in range(256))))),
    EncodingScheme: (("utf8", _encode_char), ("utf-8", _encode_char)),
    Classification: ((Kind.MERGEABLE, 3, None), (Kind.MERGEABLE, 4, None)),
    SuiteReport: (("partition", 2, ["x"]), ("partition", 2, [])),
}
FROZEN = [Grammar, Tokenizer, TokenRecognizer, EncodingScheme, Classification]
NAMES = {
    Grammar: ("nonterminals", "alphabet", "productions", "start"),
    Tokenizer: ("vocab", "merges"),
    TokenRecognizer: ("grammar", "tokenizer"),
    EncodingScheme: ("name", "encode_char"),
    Classification: ("kind", "mergeable_at", "proper_form"),
    SuiteReport: ("suite", "cases", "failures"),
}


@pytest.mark.parametrize("cls", FIELDS, ids=lambda cls: cls.__name__)
def test_equal_fields_give_equal_values(cls):
    fields, other = FIELDS[cls]
    a, b = cls(*fields), cls(*fields)
    assert a is not b and a == b and not a != b
    assert cls(*other) != a
    if cls in FROZEN:
        assert hash(a) == hash(b)
    else:  # mutable, so unhashable, as a dataclass with eq is
        with pytest.raises(TypeError):
            hash(a)


@pytest.mark.parametrize("cls", FIELDS, ids=lambda cls: cls.__name__)
def test_values_of_different_classes_are_never_equal(cls):
    fields, _ = FIELDS[cls]
    value = cls(*fields)
    for other_cls, (other_fields, _) in FIELDS.items():
        if other_cls is not cls:
            assert value != other_cls(*other_fields)
    assert value != fields and value.__eq__(fields) is NotImplemented
    subclass = type("Sub", (cls,), {})
    assert value != subclass(*fields) and subclass(*fields) != value
    with pytest.raises(TypeError):
        _, *_ = value  # a value is no tuple


@pytest.mark.parametrize("cls", FROZEN, ids=lambda cls: cls.__name__)
def test_frozen_values_refuse_assignment_and_deletion(cls):
    fields, _ = FIELDS[cls]
    value = cls(*fields)
    for name in (*NAMES[cls], "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert value == cls(*fields)


def test_a_suite_report_is_mutable_with_a_fresh_failure_list():
    a, b = SuiteReport("partition", 0), SuiteReport("partition", 0)
    a.failures.append("x")
    a.cases += 1
    del a.suite
    assert b.failures == [] and b.cases == 0 and b.suite == "partition"


@pytest.mark.parametrize("cls", FIELDS, ids=lambda cls: cls.__name__)
def test_repr_shows_the_fields_in_the_dataclass_form(cls):
    fields, _ = FIELDS[cls]
    shown = ", ".join(f"{name}={value!r}" for name, value in zip(NAMES[cls], fields))
    assert repr(cls(*fields)) == f"{cls.__name__}({shown})"


def test_repr_of_a_classification():
    assert repr(Classification(Kind.MERGEABLE, mergeable_at=3)) == (
        "Classification(kind=<Kind.MERGEABLE: 'Mergeable'>, mergeable_at=3, proper_form=None)")


def test_constructor_forms():
    vocab = (b"a", b"b")
    assert Tokenizer(vocab) == Tokenizer(vocab, ()) == Tokenizer(vocab=vocab, merges=())
    assert Classification(Kind.MERGEABLE, mergeable_at=3) == Classification(Kind.MERGEABLE, 3)
    assert Classification(Kind.PROPER) == Classification(kind=Kind.PROPER, proper_form=None)
    fields, _ = FIELDS[Grammar]
    assert Grammar(*fields) == Grammar(**dict(zip(NAMES[Grammar], fields)))
    rec = TokenRecognizer(grammar=dyck_grammar(), tokenizer=bracket_tokenizer())
    assert rec == TokenRecognizer(*FIELDS[TokenRecognizer][0])
    assert EncodingScheme(name="utf8", encode_char=UTF8.encode_char) == UTF8
    assert SuiteReport("s", 1, failures=["x"]) == SuiteReport(suite="s", cases=1, failures=["x"])


def test_constructors_check_in_the_dataclass_order():
    with pytest.raises(TokenizerError, match="vocabulary must not be empty"):
        Tokenizer((), ((0, 0, 0),))
    with pytest.raises(TokenizerError, match="token 0 must be"):
        Tokenizer((b"",), ((5, 5, 5),))
    with pytest.raises(GrammarError, match="unknown alphabet"):
        Grammar(frozenset(), "latin1", (), "S")
    with pytest.raises(GrammarError, match="start symbol"):
        Grammar(frozenset(), "byte", (Production("T", ()),), "S")
    with pytest.raises(GrammarError, match="byte-alphabet grammar"):
        TokenRecognizer(dyck_grammar("unicode"), Tokenizer((b"a",)))
    with pytest.raises(TokenizerError, match="byte-base tokenizer"):
        TokenRecognizer(dyck_grammar(), Tokenizer((b"a",)))


_S = frozenset({"S"})


@pytest.mark.parametrize("build, error, message", [
    # each of these built a value that later code could not use, or raised
    # an error that was no DataError
    (lambda: Grammar(_S, "byte", (("S", (97,)),), "S"),
     GrammarError, r"productions\[0\] must be a Production"),
    (lambda: Grammar(_S, "byte", (Production("S", [97]),), "S"),
     GrammarError, r"productions\[0\] must be a Production with a tuple body"),
    (lambda: Grammar({"S"}, "byte", (Production("S", (97,)),), "S"),
     GrammarError, "nonterminals must be a frozenset"),
    (lambda: Grammar(frozenset({"S", 1}), "byte", (Production("S", (97,)),), "S"),
     GrammarError, "nonterminals must be a frozenset of str names"),
    (lambda: Grammar(_S, "byte", [Production("S", (97,))], "S"),
     GrammarError, "productions must be a tuple, got list"),
    (lambda: Grammar(_S, "byte", (), ["S"]),
     GrammarError, "start symbol"),
    (lambda: Grammar(_S, "byte", (Production(["S"], ()),), "S"),
     GrammarError, "production head"),
    (lambda: Tokenizer((b"a", b"b", b"ab"), ((0, 1),)),
     TokenizerError, r"merge 0 must be a \(left, right, merged\) tuple"),
    (lambda: Tokenizer((b"a", b"b", b"ab"), ([0, 1, 2],)),
     TokenizerError, r"merge 0 must be a \(left, right, merged\) tuple"),
    (lambda: Tokenizer([b"a", b"b"]),
     TokenizerError, "vocab must be a tuple, got list"),
    (lambda: Tokenizer((b"a", b"b", b"ab"), [(0, 1, 2)]),
     TokenizerError, "merges must be a tuple, got list"),
    (lambda: TokenRecognizer("x", bracket_tokenizer()),
     GrammarError, "grammar must be a Grammar, got str"),
    (lambda: TokenRecognizer(dyck_grammar(), None),
     TokenizerError, "tokenizer must be a Tokenizer, got NoneType"),
    (lambda: EncodingScheme("utf8", 5),
     EncodingError, "encode_char must be callable, got int"),
    (lambda: EncodingScheme(None, _encode_char),
     EncodingError, "name must be a str, got NoneType"),
], ids=["plain-tuple-production", "list-body", "set-nonterminals", "int-nonterminal",
        "list-productions", "list-start", "list-head", "two-element-merge",
        "list-merge", "list-vocab", "list-merges", "str-grammar", "none-tokenizer",
        "int-encode-char", "none-name"])
def test_constructors_refuse_shapes_later_code_cannot_use(build, error, message):
    with pytest.raises(error, match=message):
        build()


def test_cached_properties_fill_on_frozen_values():
    t = Tokenizer(*FIELDS[Tokenizer][0])
    assert "trie" not in vars(t)
    assert t.trie is t.trie and "trie" in vars(t)
    g = Grammar(frozenset({"S", "U"}), "byte", (Production("U", (97,)),), "S")
    assert "_reduced" not in vars(g)
    assert g._reduced is g._reduced and "_reduced" in vars(g)
    assert g._reduced.nonterminals == {"S"}
    # a cached value is no field
    assert t == Tokenizer(*FIELDS[Tokenizer][0]) and hash(t) == hash(Tokenizer(t.vocab, t.merges))


# --- the lazy package --------------------------------------------------------------


def test_every_public_name_is_the_object_of_its_module():
    modules = [bpe, encoding, grammar, recognizer, segmentation, verify]
    for name in toklang.__all__:
        value = getattr(toklang, name)
        assert any(vars(m).get(name) is value for m in modules), name


def test_star_import_and_dir_list_every_public_name():
    namespace = {}
    exec("from toklang import *", namespace)
    assert set(toklang.__all__) <= namespace.keys()
    assert set(toklang.__all__) <= set(dir(toklang))
    assert "__version__" in dir(toklang)


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'tokenise'"):
        toklang.tokenise
    assert not hasattr(toklang, "check_bytes")  # public in bpe, not exported


def test_import_loads_no_submodule_until_a_name_is_used():
    script = (
        "import sys, toklang\n"
        "print(*sorted(m for m in sys.modules if m.startswith('toklang')))\n"
        "print(set(toklang.__all__) <= set(dir(toklang)))\n"
        "toklang.classify\n"
        "print(*sorted(m for m in sys.modules if m.startswith('toklang')))\n"
        "from toklang import bpe, grammar\n"
        "print(bpe.__name__, grammar.__name__, toklang.Grammar is grammar.Grammar)\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=60, check=True)
    assert proc.stdout.splitlines() == [
        "toklang",
        "True",
        "toklang toklang._value toklang.bpe toklang.segmentation",
        "toklang.bpe toklang.grammar True",
    ]
