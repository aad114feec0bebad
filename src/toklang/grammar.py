"""Context-free grammars over character or byte terminals.

Terminals are plain ints: Unicode scalar values in ``unicode`` mode, byte
values in ``byte`` mode.  Nonterminals are names.  Recognition runs on an
incremental Earley chart, so epsilon productions, left recursion, and
ambiguity are all fine.  For reduced grammars, liveness of a streaming
session is exactly viable-prefix membership, which is what makes sessions
usable as an oracle for token-level recognition.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Literal, NamedTuple

AlphabetMode = Literal["unicode", "byte"]

SPACE = 0x20


class GrammarError(ValueError):
    """Malformed grammar, or a grammar operation used out of contract."""


class GrammarParseError(GrammarError):
    """Syntax or semantic error in grammar source text."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class Production(NamedTuple):
    head: str
    body: tuple[str | int, ...]  # str = nonterminal name, int = terminal


def _valid_terminal(t: object, alphabet: str) -> bool:
    if not isinstance(t, int):
        return False
    if alphabet == "byte":
        return 0 <= t <= 0xFF
    return 0 <= t <= 0x10FFFF and not 0xD800 <= t <= 0xDFFF


@dataclass(frozen=True)
class Grammar:
    """A context-free grammar; immutable and freely shareable once built.

    ``reduced`` is set by :func:`reduce_grammar` and certifies that every
    nonterminal is generating and reachable, which the recognizer relies
    on for its liveness guarantee.
    """

    nonterminals: frozenset[str]
    alphabet: AlphabetMode
    productions: tuple[Production, ...]
    start: str
    reduced: bool = False

    def __post_init__(self):
        if self.alphabet not in ("unicode", "byte"):
            raise GrammarError(f"unknown alphabet mode {self.alphabet!r}")
        if self.start not in self.nonterminals:
            raise GrammarError(
                f"start symbol {self.start!r} is not a declared nonterminal")
        for head, body in self.productions:
            if head not in self.nonterminals:
                raise GrammarError(
                    f"production head {head!r} is not a declared nonterminal")
            for sym in body:
                if isinstance(sym, str):
                    if sym not in self.nonterminals:
                        raise GrammarError(
                            f"undefined nonterminal {sym!r} in a production body")
                elif not _valid_terminal(sym, self.alphabet):
                    raise GrammarError(
                        f"terminal {sym!r} outside the {self.alphabet} alphabet")

    @cached_property
    def _rules_by_head(self) -> dict[str, tuple[int, ...]]:
        by_head: dict[str, list[int]] = {n: [] for n in self.nonterminals}
        for i, (head, _) in enumerate(self.productions):
            by_head[head].append(i)
        return {h: tuple(ix) for h, ix in by_head.items()}

    @cached_property
    def terminals_used(self) -> frozenset[int]:
        """Terminal values appearing in some production body."""
        return frozenset(
            s for _, body in self.productions for s in body if isinstance(s, int))

    @property
    def is_empty_language(self) -> bool:
        """True iff the grammar generates no string at all.

        Only decided on reduced grammars, where it is equivalent to the
        start symbol having no productions left.
        """
        if not self.reduced:
            raise GrammarError("emptiness is only decided on reduced grammars")
        return not self._rules_by_head[self.start]


def as_terminals(g: Grammar, w) -> tuple[int, ...]:
    """Coerce *w* to a tuple of terminal ints for *g*'s alphabet.

    Accepts str (code points in unicode mode, UTF-8 bytes in byte mode),
    bytes, or any iterable of ints; validates every terminal.
    """
    if isinstance(w, str):
        terms = tuple(w.encode("utf-8")) if g.alphabet == "byte" else tuple(map(ord, w))
    elif isinstance(w, (bytes, bytearray)):
        if g.alphabet != "byte":
            raise GrammarError("byte input given to a unicode-alphabet grammar")
        terms = tuple(w)
    else:
        terms = tuple(w)
    for t in terms:
        if not _valid_terminal(t, g.alphabet):
            raise GrammarError(f"terminal {t!r} outside the {g.alphabet} alphabet")
    return terms


# --- Earley chart ----------------------------------------------------------
#
# An item is (rule index, dot, origin), origin being the _Position where its
# rule was predicted.  A finalized position keeps its index, its items keyed
# by the symbol after their dot, and an accept flag.  Positions never mutate
# once built, so clones share them, and one lives as long as a pending item
# names it as its origin.


class _Position:
    __slots__ = ("index", "wait", "accepting")

    def __init__(self, index: int):
        self.index = index
        self.wait: dict[str | int, list[tuple]] = {}
        self.accepting = False


def _close(g: Grammar, pos: _Position, seeds) -> None:
    """Fill *pos* with the predictor/completer closure of *seeds*."""
    rules = g.productions
    by_head = g._rules_by_head
    start = g.start

    items: list[tuple] = []
    seen: set[tuple] = set()
    wait = pos.wait
    empty_done: set[str] = set()  # heads already completed with origin pos

    def add(item):
        if item not in seen:
            seen.add(item)
            items.append(item)

    for s in seeds:
        add(s)

    i = 0
    while i < len(items):
        item = items[i]
        i += 1
        rule, dot, origin = item
        body = rules[rule].body
        if dot < len(body):
            sym = body[dot]
            wait.setdefault(sym, []).append(item)
            if isinstance(sym, str):
                for r2 in by_head[sym]:
                    add((r2, 0, pos))
                if sym in empty_done:
                    # a nullable completion at this position already went by
                    add((rule, dot + 1, origin))
        else:
            head = rules[rule].head
            if origin is pos:
                empty_done.add(head)
                waiters = tuple(wait.get(head, ()))
            else:
                waiters = origin.wait.get(head, ())
            for r2, d2, o2 in waiters:
                add((r2, d2 + 1, o2))
            if head == start and origin.index == 0:
                pos.accepting = True


def _initial_position(g: Grammar) -> _Position:
    pos = _Position(0)
    _close(g, pos, [(r, 0, pos) for r in g._rules_by_head[g.start]])
    return pos


def _advance(g: Grammar, last: _Position, terminal: int) -> _Position | None:
    waiters = last.wait.get(terminal)
    if not waiters:
        return None
    pos = _Position(last.index + 1)
    _close(g, pos, [(r, d + 1, o) for r, d, o in waiters])
    return pos


def recognize(g: Grammar, w) -> bool:
    """Decide w ∈ L(g) in one batch pass.  Requires a reduced grammar."""
    if not g.reduced:
        raise GrammarError("recognize requires a reduced grammar")
    terms = as_terminals(g, w)
    pos = _initial_position(g)
    for t in terms:
        pos = _advance(g, pos, t)
        if pos is None:
            return False
    return pos.accepting


class RecognitionSession:
    """Streaming recognizer state: feed terminals one at a time.

    ``live`` means the consumed sequence is a viable prefix of the
    language; dead sessions are absorbing.  A session belongs to one
    logical caller.  It holds only its last chart position, which keeps
    alive just the positions its pending items refer to; ``clone`` is
    O(1), since positions are immutable and shared.
    """

    __slots__ = ("grammar", "consumed", "died_at", "_last")

    def __init__(self, grammar: Grammar):
        if not grammar.reduced:
            raise GrammarError("recognition sessions require a reduced grammar")
        self.grammar = grammar
        self.consumed = 0
        self.died_at: int | None = 0 if grammar.is_empty_language else None
        self._last = _initial_position(grammar)

    @property
    def live(self) -> bool:
        return self.died_at is None

    def accepts(self) -> bool:
        """True iff exactly the consumed sequence is in the language."""
        return self.live and self._last.accepting

    def feed(self, terminal: int) -> "RecognitionSession":
        if not _valid_terminal(terminal, self.grammar.alphabet):
            raise GrammarError(
                f"terminal {terminal!r} outside the {self.grammar.alphabet} alphabet")
        if self.live:
            nxt = _advance(self.grammar, self._last, terminal)
            if nxt is None:
                self.died_at = self.consumed
            else:
                self._last = nxt
        self.consumed += 1
        return self

    def clone(self) -> "RecognitionSession":
        s = object.__new__(RecognitionSession)
        s.grammar = self.grammar
        s.consumed = self.consumed
        s.died_at = self.died_at
        s._last = self._last
        return s


def reduce_grammar(g: Grammar) -> Grammar:
    """Strip non-generating and unreachable nonterminals.

    Returns an equivalent grammar marked ``reduced``.  A start symbol that
    generates nothing yields the canonical empty-language grammar (the
    start alone, no productions) — a legal value, not an error.
    """
    generating: set[str] = set()
    changed = True
    while changed:
        changed = False
        for head, body in g.productions:
            if head not in generating and all(
                    not isinstance(s, str) or s in generating for s in body):
                generating.add(head)
                changed = True

    if g.start not in generating:
        return Grammar(frozenset({g.start}), g.alphabet, (), g.start, reduced=True)

    kept = [p for p in g.productions
            if p.head in generating
            and all(not isinstance(s, str) or s in generating for s in p.body)]

    by_head: dict[str, list[Production]] = {}
    for p in kept:
        by_head.setdefault(p.head, []).append(p)
    reachable = {g.start}
    frontier = [g.start]
    while frontier:
        for p in by_head.get(frontier.pop(), ()):
            for s in p.body:
                if isinstance(s, str) and s not in reachable:
                    reachable.add(s)
                    frontier.append(s)

    productions = tuple(dict.fromkeys(p for p in kept if p.head in reachable))
    return Grammar(frozenset(reachable), g.alphabet, productions, g.start, reduced=True)


def sample(g: Grammar, max_expansions: int, seed: int | random.Random = 0):
    """One random leftmost derivation, or None once the budget runs out.

    Uniform choice among a nonterminal's productions; deterministic for a
    fixed seed.  Returns str for unicode grammars, bytes for byte grammars.
    """
    if not g.reduced:
        raise GrammarError("sample requires a reduced grammar")
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    by_head = g._rules_by_head
    out: list[int] = []
    stack: list[str | int] = [g.start]
    expansions = 0
    while stack:
        sym = stack.pop()
        if isinstance(sym, int):
            out.append(sym)
            continue
        rules = by_head[sym]
        if not rules:
            return None  # empty-language grammar
        expansions += 1
        if expansions > max_expansions:
            return None
        body = g.productions[rng.choice(rules)].body
        stack.extend(reversed(body))
    return bytes(out) if g.alphabet == "byte" else "".join(map(chr, out))


def add_leading_space(g: Grammar) -> Grammar:
    """Grammar for { " " + w : w in L(g) }, via a fresh start S' -> " " S."""
    new_start = g.start + "'"
    while new_start in g.nonterminals:
        new_start += "'"
    out = Grammar(
        g.nonterminals | {new_start},
        g.alphabet,
        (Production(new_start, (SPACE, g.start)),) + g.productions,
        new_start,
    )
    return reduce_grammar(out) if g.reduced else out


# --- Grammar file format ----------------------------------------------------
#
#   Name -> alt | alt | ... ;
#
# Alternatives are whitespace-separated nonterminal names and double-quoted
# terminal literals; "" is epsilon; # starts a comment.  Byte-mode grammars
# may additionally write bare \xHH terminals.  The first rule's head is the
# start symbol.

_NAME_FIRST = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_NAME_REST = _NAME_FIRST | set("0123456789'")
_STRING_ESCAPES = {"\\": "\\", '"': '"', "n": "\n", "t": "\t", "r": "\r"}


def _scan(text: str):
    """Lex grammar source into (kind, value, line, col) tuples."""
    toks = []
    i, line, col = 0, 1, 1
    n = len(text)

    def bump(k=1):
        nonlocal i, line, col
        for _ in range(k):
            if text[i] == "\n":
                line += 1
                col = 1
            else:
                col += 1
            i += 1

    def hex_escape(el, ec) -> int:
        # text[i] is the "x" of a \xHH escape whose backslash is at (el, ec)
        bump()
        hexpart = text[i:i + 2]
        if len(hexpart) < 2 or any(h not in "0123456789abcdefABCDEF" for h in hexpart):
            raise GrammarParseError("\\x needs two hex digits", el, ec)
        bump(2)
        return int(hexpart, 16)

    while i < n:
        c = text[i]
        if c == "#":
            while i < n and text[i] != "\n":
                bump()
            continue
        if c.isspace():
            bump()
            continue
        if c in "|;":
            toks.append((c, c, line, col))
            bump()
            continue
        if text.startswith("->", i):
            toks.append(("ARROW", "->", line, col))
            bump(2)
            continue
        if c == '"':
            sl, sc = line, col
            bump()
            units: list[tuple[str, object]] = []
            while True:
                if i >= n:
                    raise GrammarParseError("unterminated string literal", sl, sc)
                c = text[i]
                if c == '"':
                    bump()
                    break
                if c == "\\":
                    el, ec = line, col
                    bump()
                    if i >= n:
                        raise GrammarParseError("dangling escape", el, ec)
                    e = text[i]
                    if e == "x":
                        units.append(("esc", hex_escape(el, ec)))
                    elif e in _STRING_ESCAPES:
                        bump()
                        units.append(("ch", _STRING_ESCAPES[e]))
                    else:
                        raise GrammarParseError(f"unknown escape \\{e}", el, ec)
                elif c == "\n":
                    raise GrammarParseError("newline inside string literal", line, col)
                else:
                    units.append(("ch", c))
                    bump()
            toks.append(("STRING", units, sl, sc))
            continue
        if c == "\\":
            sl, sc = line, col
            bump()
            if i < n and text[i] == "x":
                toks.append(("BYTE", hex_escape(sl, sc), sl, sc))
                continue
            raise GrammarParseError("stray backslash", sl, sc)
        if c in _NAME_FIRST:
            sl, sc = line, col
            j = i
            while j < n and text[j] in _NAME_REST:
                j += 1
            toks.append(("NAME", text[i:j], sl, sc))
            bump(j - i)
            continue
        raise GrammarParseError(f"unexpected character {c!r}", line, col)
    toks.append(("EOF", "", line, col))
    return toks


def parse_grammar(text: str, alphabet_mode: AlphabetMode = "unicode") -> Grammar:
    """Parse grammar source text.  The result is not yet reduced."""
    if alphabet_mode not in ("unicode", "byte"):
        raise GrammarError(f"unknown alphabet mode {alphabet_mode!r}")
    toks = _scan(text)
    pos = 0

    def peek():
        return toks[pos]

    def take(kind):
        nonlocal pos
        k, v, ln, cl = toks[pos]
        if k != kind:
            raise GrammarParseError(f"expected {kind}, found {v!r}", ln, cl)
        pos += 1
        return v, ln, cl

    def literal_terms(units) -> list[int]:
        terms: list[int] = []
        for tag, val in units:
            if tag == "esc":
                terms.append(val)  # code point U+00HH or byte HH
            elif alphabet_mode == "byte":
                terms.extend(val.encode("utf-8"))
            else:
                terms.append(ord(val))
        return terms

    productions: list[Production] = []
    heads: list[str] = []
    refs: list[tuple[str, int, int]] = []

    if peek()[0] == "EOF":
        raise GrammarParseError("expected at least one rule", 1, 1)
    while peek()[0] != "EOF":
        head, _, _ = take("NAME")
        if head not in heads:
            heads.append(head)
        take("ARROW")
        body: list[str | int] = []
        saw_symbol = False
        while True:
            k, v, ln, cl = peek()
            if k == "NAME":
                body.append(v)
                refs.append((v, ln, cl))
                saw_symbol = True
                pos += 1
            elif k == "STRING":
                body.extend(literal_terms(v))
                saw_symbol = True
                pos += 1
            elif k == "BYTE":
                if alphabet_mode != "byte":
                    raise GrammarParseError(
                        "bare \\xHH terminals need byte alphabet mode", ln, cl)
                body.append(v)
                saw_symbol = True
                pos += 1
            elif k in ("|", ";"):
                if not saw_symbol:
                    raise GrammarParseError(
                        'empty alternative; write "" for epsilon', ln, cl)
                productions.append(Production(head, tuple(body)))
                body = []
                saw_symbol = False
                pos += 1
                if k == ";":
                    break
            else:
                raise GrammarParseError(f"unexpected {v!r} in rule body", ln, cl)

    declared = set(heads)
    for name, ln, cl in refs:
        if name not in declared:
            raise GrammarParseError(f"undefined nonterminal {name}", ln, cl)

    return Grammar(
        frozenset(declared),
        alphabet_mode,
        tuple(dict.fromkeys(productions)),
        heads[0],
    )


def _quote_terminals(run: Iterable[int], alphabet: str) -> str:
    parts = []
    for t in run:
        if t < 0x20 or t == 0x7F or t in (0x22, 0x5C):
            parts.append(f"\\x{t:02x}")
        elif alphabet == "byte":
            parts.append(chr(t) if t <= 0x7E else f"\\x{t:02x}")
        else:
            parts.append(chr(t) if chr(t).isprintable() else f"\\x{t:02x}")
    return '"' + "".join(parts) + '"'


def format_grammar(g: Grammar) -> str:
    """Render a grammar in the file format, start symbol's rules first."""
    if not g.productions:
        raise GrammarError("cannot format a grammar with no productions")
    order: list[str] = [g.start]
    groups: dict[str, list[Production]] = {g.start: []}
    for p in g.productions:
        if p.head not in groups:
            order.append(p.head)
            groups[p.head] = []
        groups[p.head].append(p)

    def render_alt(body: tuple[str | int, ...]) -> str:
        if not body:
            return '""'
        parts: list[str] = []
        run: list[int] = []
        for sym in body:
            if isinstance(sym, int):
                run.append(sym)
            else:
                if run:
                    parts.append(_quote_terminals(run, g.alphabet))
                    run = []
                parts.append(sym)
        if run:
            parts.append(_quote_terminals(run, g.alphabet))
        return " ".join(parts)

    lines = []
    for head in order:
        if not groups.get(head):
            continue
        alts = " | ".join(render_alt(p.body) for p in groups[head])
        lines.append(f"{head} -> {alts} ;")
    return "\n".join(lines) + "\n"
