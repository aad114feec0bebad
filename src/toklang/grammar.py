"""Context-free grammars over character or byte terminals.

Terminals are plain ints: Unicode scalar values in ``unicode`` mode, byte
values in ``byte`` mode.  Nonterminals are names.  Recognition runs on an
incremental Earley chart, so epsilon productions, left recursion, and
ambiguity are all fine.  It runs on the reduced form of any grammar given,
so liveness of a streaming session is exactly viable-prefix membership,
which is what makes sessions usable as an oracle for token-level recognition.
"""

from __future__ import annotations

import random
import re
from functools import cached_property
from itertools import groupby
from typing import Iterable, Literal, NamedTuple

from ._value import DataError, Frozen

AlphabetMode = Literal["unicode", "byte"]

SPACE = 0x20


class GrammarError(DataError):
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
    if type(t) is not int:  # bool is an int subclass, and no terminal
        return False
    if alphabet == "byte":
        return 0 <= t <= 0xFF
    return 0 <= t <= 0x10FFFF and not 0xD800 <= t <= 0xDFFF


class Grammar(Frozen):
    """A context-free grammar; immutable and freely shareable once built.

    Recognition, sampling and the emptiness test read its reduced form,
    computed once on first use; a reduced grammar is its own reduced form.
    """

    nonterminals: frozenset[str]
    alphabet: AlphabetMode
    productions: tuple[Production, ...]
    start: str
    _fields = ("nonterminals", "alphabet", "productions", "start")

    def __init__(self, nonterminals, alphabet, productions, start):
        self.__dict__.update(nonterminals=nonterminals, alphabet=alphabet,
                             productions=productions, start=start)
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
    def _nullable(self) -> frozenset[str]:
        return frozenset(_deriving(self.productions, terminals=False))

    @cached_property
    def _reduced(self) -> "Grammar":
        return reduce_grammar(self)

    @cached_property
    def _chart(self) -> "_Chart":
        """What the chart reads of this grammar, built on first use; read
        only on a reduced grammar, as ``g._reduced._chart``."""
        return _Chart(self)

    @cached_property
    def terminals_used(self) -> frozenset[int]:
        """Terminal values appearing in some production body."""
        return frozenset(
            s for _, body in self.productions for s in body if isinstance(s, int))

    @property
    def is_empty_language(self) -> bool:
        """True iff the grammar generates no string at all: its reduced
        form has no productions left."""
        return not self._reduced.productions


def as_terminals(g: Grammar, w) -> tuple[int, ...]:
    """Coerce *w* to a tuple of terminal ints for *g*'s alphabet.

    Accepts str (code points in unicode mode, UTF-8 bytes in byte mode),
    bytes, or any iterable of ints; validates every terminal that is not a
    byte given to a byte grammar.
    """
    if isinstance(w, (bytes, bytearray)):
        if g.alphabet != "byte":
            raise GrammarError("byte input given to a unicode-alphabet grammar")
        return tuple(w)  # byte terminals by construction
    if isinstance(w, str):
        try:
            terms = tuple(w.encode("utf-8")) if g.alphabet == "byte" else tuple(map(ord, w))
        except UnicodeEncodeError as e:  # a lone surrogate has no UTF-8 bytes
            raise GrammarError(f"character {w[e.start]!r} has no UTF-8 encoding") from None
    else:
        terms = tuple(w)
    for t in terms:
        if not _valid_terminal(t, g.alphabet):
            raise GrammarError(f"terminal {t!r} outside the {g.alphabet} alphabet")
    return terms


# --- Earley chart ----------------------------------------------------------
#
# Everything the chart reads of a reduced grammar is one value, its _Chart,
# built once per grammar and read as ``g._reduced._chart``.  An item is (an
# LR(0) item id of the chart, origin), origin being the _Position where its
# rule was predicted; an item still there is a bare id: a position never
# refers to itself, so it is freed by reference counting once no pending item
# names it.  A finalized position keeps its index, its items keyed by the
# symbol after their dot, an accept flag and its Leo items.  Positions never
# change once built, so clones share them, and every session starts from the
# chart's one position 0.
#
# Two shortcuts cut the work per position.  The items predicted at a
# position (bare ids) depend only on the nonterminals its kernel items,
# those with an origin, wait on.  So a position keeps its kernel items in
# ``wait`` and points ``pred`` at a read-only table of the predicted ones,
# shared by every position that predicts the same nonterminals and built
# once per grammar by walking the nonterminals that predicting them reaches
# (the chart's own entries, after Aycock and Horspool, "Practical Earley
# Parsing", 2002); only kernel items are processed one by one, and none is
# copied.  And a completion whose origin has exactly one item waiting on the
# head, as the last symbol of its body and with an origin of its own, would
# complete that item in turn.  Such a deterministic reduction path depends
# only on its first position and earlier ones, so its topmost item is fixed
# in ``leo`` when that position is closed, from the entry of the waiter's
# origin, and the completer adds that item alone (J. Leo, TCS 1991): right
# recursion costs a constant per terminal instead of the depth of the open
# spine.  Each step of a path moves to a strictly earlier origin and
# position 0 holds only predicted items, so paths end, and a topmost item
# carries the real origin the accept test reads.  The plain chart without
# either shortcut is kept in tests/oracles.py as the reference the property
# tests compare with.
#
# The chart runs on classes of terminals, not on terminals.  Two terminals
# share a class iff they occur in the same contexts ``(head, body[:k],
# body[k+1:])`` of the productions, so replacing one occurrence of a
# terminal in a member by another of its class swaps one production of the
# derivation for another, and gives a member.  With φ the map of each
# terminal to its class, w ∈ L ⇔ φ(w) ∈ φ(L); φ(L) is the language of the
# chart grammar, in which each terminal is the least member of its class and
# duplicate productions are dropped.  It is reduced when the grammar is, and
# it is the grammar itself when every class has one member.  A fed terminal
# is mapped to its class by one lookup; one not in the grammar maps to
# itself, which the chart grammar does not use either.  Interchangeable
# terminals then share every chart position, and a next-token mask advances
# once per path of classes.


class _Table(dict):
    """A read-only prediction table, with the terminals among its keys."""
    __slots__ = ("terminals",)


class _Chart(dict):
    """What the chart reads of one reduced grammar: the chart grammar over
    its terminal classes, the class maps, the flat LR(0) items of the chart
    grammar with each head's own prediction entries, and position 0.

    As a dict, for each set of nonterminals that the kernel items of a chart
    position wait on, the items predicted there, as one read-only table
    ``{symbol: tuple of item ids}`` shared by every position with that set:
    the own entries of each nonterminal that predicting the set reaches,
    dots stepped over a nullable prefix and completed items left out.  A
    table is built on its first lookup, one per set the inputs meet."""

    __slots__ = ("grammar", "of", "members", "base", "syms", "heads", "nullable", "own",
                 "initial")

    def __init__(self, g: Grammar):
        super().__init__()
        # a context (head, body[:k], body[k+1:]) is keyed by two interned
        # ids: (head, body[:k]) from the id of its parent and its last
        # symbol, and body[k+1:] likewise from the right; -1 is the empty one
        contexts: dict[int, set[tuple[int, int]]] = {}
        prefixes: dict[object, int] = {}
        suffixes: dict[tuple, int] = {}
        for head, body in g.productions:
            after = [-1]
            for sym in reversed(body):
                after.append(suffixes.setdefault((after[-1], sym), len(suffixes)))
            before = prefixes.setdefault(head, len(prefixes))
            for k, sym in enumerate(body):
                if sym.__class__ is int:
                    contexts.setdefault(sym, set()).add((before, after[-2 - k]))
                before = prefixes.setdefault((before, sym), len(prefixes))
        by_contexts: dict[frozenset, list[int]] = {}
        for t in sorted(contexts):
            by_contexts.setdefault(frozenset(contexts[t]), []).append(t)
        # each least member to its class, and each terminal to its least member
        self.members = {ts[0]: tuple(ts) for ts in by_contexts.values()}
        self.of = of = {t: ts[0] for ts in by_contexts.values() for t in ts}
        chart = g
        if len(self.members) < len(of):
            chart = Grammar(g.nonterminals, g.alphabet, tuple(dict.fromkeys(
                Production(head, tuple(of.get(s, s) for s in body))
                for head, body in g.productions)), g.start)
        self.grammar = chart
        # rule r's item with its dot at d is id base[r] + d, so id + 1 is the
        # item with its dot stepped; per id, the symbol after the dot (None
        # once complete), the head, and whether that symbol is nullable.
        # Classes leave nullability as it is, so g's nullables are chart's
        nullables = g._nullable
        self.base, self.syms, self.heads = base, syms, heads = [], [], []
        self.own = own = {n: [] for n in chart.nonterminals}
        for head, body in chart.productions:
            base.append(len(syms))
            for dot, sym in enumerate(body):
                own[head].append((sym, base[-1] + dot))
                if sym not in nullables:
                    break
            syms += body + (None,)
            heads += [head] * (len(body) + 1)
        self.nullable = [s in nullables for s in syms]
        self.initial = pos = _Position(0)
        pos.pred = self[frozenset((g.start,))]
        pos.accepting = g.start in nullables

    def __missing__(self, key: frozenset) -> dict:
        order = sorted(key)
        reached = set(order)
        table: dict[str | int, list[tuple]] = {}
        for n in order:  # grows while it is walked
            for sym, item in self.own[n]:
                table.setdefault(sym, []).append(item)
                if sym.__class__ is str and sym not in reached:
                    reached.add(sym)
                    order.append(sym)
        frozen = self[key] = _Table((sym, tuple(items)) for sym, items in table.items())
        frozen.terminals = tuple(sym for sym in frozen if sym.__class__ is int)
        return frozen


class _Position:
    __slots__ = ("index", "wait", "pred", "accepting", "leo")

    def __init__(self, index: int):
        self.index = index
        self.wait: dict[str | int, list[tuple]] = {}  # kernel items only
        self.pred: _Table  # shared, never mutated; set by the closure
        self.accepting = False
        # nonterminal -> topmost item of its reduction path from here
        self.leo: dict[str, tuple] = {}


def _close(chart: _Chart, pos: _Position, seeds) -> int:
    """Fill *pos* with the closure of the kernel items *seeds*, then with
    its Leo items, and return how many kernel items it processed.  The
    predicted items are those of the table for the nonterminals the kernel
    items wait on, nullables stepped over and completed ones left out: a
    completion that starts at *pos* adds nothing, so none here reads
    *pos*'s own table or Leo items."""
    syms, heads, nullable = chart.syms, chart.heads, chart.nullable
    start = chart.grammar.start

    items = list(seeds)
    seen = set(items)
    predicted: set[str] = set()
    wait = pos.wait

    for item in items:
        lr, origin = item
        sym = syms[lr]
        if sym is not None:
            waiters = wait.get(sym)
            if waiters is None:
                wait[sym] = [item]
            else:
                waiters.append(item)
            if sym.__class__ is str:
                predicted.add(sym)
                if nullable[lr]:
                    item = (lr + 1, origin)
                    if item not in seen:
                        seen.add(item)
                        items.append(item)
            continue
        head = heads[lr]
        top = origin.leo.get(head)
        if top is not None:
            if top not in seen:
                seen.add(top)
                items.append(top)
            continue
        for lr2, o2 in origin.wait.get(head, ()):
            item = (lr2 + 1, o2)
            if item not in seen:
                seen.add(item)
                items.append(item)
        for lr2 in origin.pred.get(head, ()):  # predicted at *origin*
            item = (lr2 + 1, origin)
            if item not in seen:
                seen.add(item)
                items.append(item)
        if head == start and origin.index == 0:
            pos.accepting = True
    pos.pred = pred = chart[frozenset(predicted)]
    # the Leo items: a nonterminal that one kernel item alone waits on, as
    # the last symbol of its body, starts a reduction path here, whose top
    # is that of the waiter's origin, final already, or the stepped waiter
    for head in predicted:
        waiters = wait[head]
        if len(waiters) == 1 and head not in pred:
            lr, origin = waiters[0]
            if syms[lr + 1] is None:
                pos.leo[head] = origin.leo.get(heads[lr]) or (lr + 1, origin)
    return len(items)


def _expected(pos: _Position) -> list[int]:
    """The terminals *pos* advances on, each once: those its kernel items
    wait on that its prediction table lacks, then the table's own."""
    pred = pos.pred
    out = [sym for sym in pos.wait if sym.__class__ is int and sym not in pred]
    out += pred.terminals
    return out


def _advance(chart: _Chart, last: _Position, terminal: int) -> _Position | None:
    kernel = last.wait.get(terminal, ())
    predicted = last.pred.get(terminal, ())
    if not (kernel or predicted):
        return None
    pos = _Position(last.index + 1)
    seeds = [(lr + 1, o) for lr, o in kernel]
    if predicted:
        seeds += [(lr + 1, last) for lr in predicted]
    _close(chart, pos, seeds)
    return pos


def recognize(g: Grammar, w) -> bool:
    """Decide w ∈ L(g) in one batch pass."""
    g = g._reduced
    terms = as_terminals(g, w)
    chart = g._chart
    of, pos = chart.of.get, chart.initial
    for t in terms:
        pos = _advance(chart, pos, of(t, t))
        if pos is None:
            return False
    return pos.accepting


class RecognitionSession:
    """Streaming recognizer state: feed terminals one at a time.

    ``live`` means the consumed sequence is a viable prefix of the
    language; dead sessions are absorbing.  A session belongs to one
    logical caller.  It holds only its last chart position, which keeps
    alive just the positions its pending items refer to; ``clone`` is
    O(1), since positions are immutable and shared.  ``grammar`` is the
    reduced grammar; the positions are those of its chart.
    """

    __slots__ = ("grammar", "consumed", "died_at", "_last", "_chart")

    def __init__(self, grammar: Grammar):
        self.grammar = grammar._reduced
        self.consumed = 0
        self.died_at: int | None = 0 if self.grammar.is_empty_language else None
        self._chart = self.grammar._chart
        self._last = self._chart.initial

    @property
    def live(self) -> bool:
        return self.died_at is None

    def accepts(self) -> bool:
        """True iff exactly the consumed sequence is in the language."""
        return self.live and self._last.accepting

    def expected(self) -> frozenset[int]:
        """The terminals ``feed`` would accept next; once dead, those it
        expected at ``died_at``: every member of each class the chart
        position expects."""
        members = self._chart.members
        return frozenset(t for c in _expected(self._last) for t in members[c])

    def feed(self, terminal: int) -> "RecognitionSession":
        if not _valid_terminal(terminal, self.grammar.alphabet):
            raise GrammarError(
                f"terminal {terminal!r} outside the {self.grammar.alphabet} alphabet")
        if self.live:
            chart = self._chart
            nxt = _advance(chart, self._last, chart.of.get(terminal, terminal))
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
        s._chart = self._chart
        return s


def _deriving(productions, terminals: bool) -> set[str]:
    """Nonterminals that derive a terminal string, or only ε when not
    *terminals*.  Each production counts the nonterminal occurrences of its
    body not yet found, and each nonterminal found releases the productions
    waiting on it once, so the work is linear in the grammar's size."""
    missing = [0] * len(productions)
    waiting: dict[str, list[int]] = {}
    heads = []  # of productions whose body derives, in the order found
    for i, (head, body) in enumerate(productions):
        names = [s for s in body if isinstance(s, str)]
        if terminals or len(names) == len(body):
            missing[i] = len(names)
            for name in names:
                waiting.setdefault(name, []).append(i)
            if not names:
                heads.append(head)
    found: set[str] = set()
    for head in heads:  # grows while it is walked
        if head not in found:
            found.add(head)
            for i in waiting.get(head, ()):
                missing[i] -= 1
                if not missing[i]:
                    heads.append(productions[i].head)
    return found


def reduce_grammar(g: Grammar) -> Grammar:
    """Strip non-generating and unreachable nonterminals.

    Returns an equivalent grammar, *g* itself when nothing is stripped.  A
    start symbol that generates nothing yields the canonical empty-language
    grammar (the start alone, no productions) — a legal value, not an error.
    """
    generating = _deriving(g.productions, terminals=True)
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
    out = Grammar(frozenset(reachable), g.alphabet, productions, g.start)
    return g if out == g else out


def sample(g: Grammar, max_expansions: int, seed: int | random.Random = 0):
    """One random leftmost derivation, or None once the budget runs out.

    Uniform choice among a nonterminal's productions; deterministic for a
    fixed seed.  Returns str for unicode grammars, bytes for byte grammars.
    """
    if type(max_expansions) is not int or max_expansions < 0:  # bool is no count
        raise GrammarError(f"max_expansions must be an int >= 0, got {max_expansions!r}")
    g = g._reduced
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
    return Grammar(
        g.nonterminals | {new_start},
        g.alphabet,
        (Production(new_start, (SPACE, g.start)),) + g.productions,
        new_start,
    )


# --- Grammar file format ----------------------------------------------------
#
#   Name -> alt | alt | ... ;
#
# Alternatives are whitespace-separated nonterminal names and double-quoted
# terminal literals; "" is epsilon; # starts a comment.  Byte-mode grammars
# may additionally write bare \xHH terminals.  The first rule's head is the
# start symbol.

_TOKEN = re.compile(r"""
    (?P<SKIP> \s+ | \#[^\n]* )
  | (?P<SEP> [|;] )
  | (?P<ARROW> -> )
  | (?P<NAME> [A-Za-z_][A-Za-z0-9_']* )
  | (?P<STRING> " (?P<units> (?: [^"\\\n] | \\. )* ) "? )
  | (?P<BYTE> \\x[0-9a-fA-F]{2} )
  | (?P<OTHER> . )
""", re.VERBOSE | re.DOTALL)
_UNIT = re.compile(r"\\x([0-9a-fA-F]{2}) | \\(.) | (.)", re.VERBOSE | re.DOTALL)
_STRING_ESCAPES = {"\\": "\\", '"': '"', "n": "\n", "t": "\t", "r": "\r"}


def _parse_error(text: str, offset: int, message: str) -> GrammarParseError:
    """The error at *offset* of *text*, placed by 1-based line and column."""
    return GrammarParseError(message, text.count("\n", 0, offset) + 1,
                             offset - text.rfind("\n", 0, offset))


def _string_units(text: str, m: re.Match) -> list[tuple[str, object]]:
    """The units of the string literal *m*, ("ch", character) or ("esc", HH),
    or its first fault; *m* lacks a closing quote where the text does."""
    units: list[tuple[str, object]] = []
    for u in _UNIT.finditer(text, m.start("units"), m.end("units")):
        hexpair, escaped, plain = u.groups()
        if hexpair:
            units.append(("esc", int(hexpair, 16)))
        elif plain is not None:
            if "\ud800" <= plain <= "\udfff":  # neither a character nor UTF-8
                raise _parse_error(text, u.start(), f"lone surrogate {plain!r} in string literal")
            units.append(("ch", plain))
        elif escaped in _STRING_ESCAPES:
            units.append(("ch", _STRING_ESCAPES[escaped]))
        else:
            raise _parse_error(text, u.start(), "\\x needs two hex digits" if escaped == "x"
                               else f"unknown escape \\{escaped}")
    end = m.end()
    if end == m.end("units"):
        if text.startswith("\n", end):
            raise _parse_error(text, end, "newline inside string literal")
        if text.startswith("\\", end):
            raise _parse_error(text, end, "dangling escape")
        raise _parse_error(text, m.start(), "unterminated string literal")
    return units


def _lex(text: str) -> list[tuple[str, object, int]]:
    """Grammar source as (kind, value, start offset) tokens, ending in EOF."""
    toks: list[tuple[str, object, int]] = []
    for m in _TOKEN.finditer(text):
        kind, value, at = m.lastgroup, m[0], m.start()
        if kind == "OTHER":
            if value != "\\":
                raise _parse_error(text, at, f"unexpected character {value!r}")
            raise _parse_error(text, at, "\\x needs two hex digits"
                               if text.startswith("x", at + 1) else "stray backslash")
        if kind == "STRING":
            value = _string_units(text, m)
        elif kind == "BYTE":
            value = int(value[2:], 16)
        if kind != "SKIP":
            toks.append((kind, value, at))
    toks.append(("EOF", "", len(text)))
    return toks


def parse_grammar(text: str, alphabet_mode: AlphabetMode = "unicode") -> Grammar:
    """Parse grammar source text, every rule kept; recognition reduces it."""
    if alphabet_mode not in ("unicode", "byte"):
        raise GrammarError(f"unknown alphabet mode {alphabet_mode!r}")
    toks = _lex(text)
    if len(toks) == 1:
        raise _parse_error(text, len(text), "expected at least one rule")
    i = 0

    def unexpected(kind: str, at: int, wanted: str) -> GrammarParseError:
        # the offending source text, quoted, or the end of the input
        if kind == "EOF":
            return _parse_error(text, at, f"unexpected end of input{wanted}")
        return _parse_error(text, at, f"unexpected {_TOKEN.match(text, at)[0]!r}{wanted}")

    def expect(kind: str):
        nonlocal i
        found, value, at = toks[i]
        if found != kind:
            raise unexpected(found, at, f", expected {kind}")
        i += 1
        return value

    productions: list[Production] = []
    heads: dict[str, None] = {}
    refs: list[tuple[str, int]] = []
    while toks[i][0] != "EOF":
        head = expect("NAME")
        heads[head] = None
        expect("ARROW")
        body: list[str | int] = []
        alt_start = i
        while True:
            kind, value, at = toks[i]
            i += 1
            if kind == "NAME":
                body.append(value)
                refs.append((value, at))
            elif kind == "STRING":
                for tag, unit in value:
                    if tag == "esc":
                        body.append(unit)  # code point U+00HH or byte HH
                    elif alphabet_mode == "byte":
                        body.extend(unit.encode("utf-8"))
                    else:
                        body.append(ord(unit))
            elif kind == "BYTE":
                if alphabet_mode != "byte":
                    raise _parse_error(
                        text, at, "bare \\xHH terminals need byte alphabet mode")
                body.append(value)
            elif kind == "SEP":
                if i - 1 == alt_start:
                    raise _parse_error(text, at, 'empty alternative; write "" for epsilon')
                productions.append(Production(head, tuple(body)))
                body = []
                alt_start = i
                if value == ";":
                    break
            else:
                raise unexpected(kind, at, " in rule body")

    for name, at in refs:
        if name not in heads:
            raise _parse_error(text, at, f"undefined nonterminal {name}")

    return Grammar(
        frozenset(heads),
        alphabet_mode,
        tuple(dict.fromkeys(productions)),
        next(iter(heads)),
    )


def _quote_terminals(run: Iterable[int], alphabet: str) -> str:
    parts = []
    for t in run:
        if t < 0x20 or t == 0x7F or t in (0x22, 0x5C):
            parts.append(f"\\x{t:02x}")
        elif alphabet == "byte":
            parts.append(chr(t) if t <= 0x7E else f"\\x{t:02x}")
        else:
            # \xHH reads back as U+00HH; a literal takes any other code point as is
            parts.append(chr(t) if t > 0xFF or chr(t).isprintable() else f"\\x{t:02x}")
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
        for terminals, run in groupby(body, key=lambda sym: isinstance(sym, int)):
            parts.extend([_quote_terminals(run, g.alphabet)] if terminals else run)
        return " ".join(parts)

    lines = []
    for head in order:
        if not groups.get(head):
            continue
        alts = " | ".join(render_alt(p.body) for p in groups[head])
        lines.append(f"{head} -> {alts} ;")
    return "\n".join(lines) + "\n"
