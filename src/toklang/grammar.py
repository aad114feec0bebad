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
        # shapes are checked, not coerced: a value keeps what it was checked as
        if not isinstance(nonterminals, frozenset) \
                or not all(isinstance(n, str) for n in nonterminals):
            raise GrammarError("nonterminals must be a frozenset of str names")
        if self.alphabet not in ("unicode", "byte"):
            raise GrammarError(f"unknown alphabet mode {self.alphabet!r}")
        if not isinstance(productions, tuple):
            raise GrammarError(
                f"productions must be a tuple, got {type(productions).__name__}")
        if not isinstance(start, str) or start not in self.nonterminals:
            raise GrammarError(
                f"start symbol {self.start!r} is not a declared nonterminal")
        for i, p in enumerate(self.productions):
            if not isinstance(p, Production) or not isinstance(p.body, tuple):
                raise GrammarError(
                    f"productions[{i}] must be a Production with a tuple body, got {p!r}")
            head, body = p
            if not isinstance(head, str) or head not in self.nonterminals:
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
# symbol after their dot, an accept flag, its Leo items and its scans.
# Positions never change once built, so clones share them, and every session
# starts from the chart's one position 0.
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
# carries the real origin the accept test reads.
#
# And a leaf, a nonterminal with no occurrence but the last of a body on a
# cycle in its reach, such as Word in ``Word -> Ch | Ch Word``, is scanned:
# its language is regular (Chomsky 1959).  A table holds the start of a lazy
# DFA over its words instead of its items; a state is a set of NFA stacks of
# item ids, an item before a nonterminal pushing itself stepped unless that
# ends its rule, so stacks are finitely many.  A position carries its scans,
# (state, base position, templates); a state that accepts closes the base's
# completion once into a template.  A position of words alone shares the
# wait, pred, leo and accept flag of the one ending word's template, or of
# the chart's empty position.  So it holds no item of a leaf's rules, and a
# byte inside a word costs a DFA step and one _Position.  One _Position class
# and one step, _advance, serve every chart; a chart with no leaf, such as
# Dyck-letters', has no word under way, and each step pays one test for that.
# The plain chart without these shortcuts is kept in tests/oracles.py as the
# reference the property tests compare with.
#
# The chart runs on classes of terminals, not on terminals.  Two terminals
# share a class iff they occur in the same contexts ``(head, body[:k],
# body[k+1:])`` of the productions, so replacing one occurrence of a
# terminal in a member by another of its class swaps one production of the
# derivation for another, and gives a member.  With φ the map of each
# terminal to its class, w ∈ L ⇔ φ(w) ∈ φ(L); φ(L) is the language of the
# chart grammar, in which each terminal is the least member of its class and
# duplicate productions are dropped.  It is reduced when the grammar is, and
# equal to the grammar when every class has one member.  A fed terminal
# is mapped to its class by one lookup; one not in the grammar maps to
# itself, which the chart grammar does not use either.  Interchangeable
# terminals then share every chart position, and a next-token mask advances
# once per path of classes.


class _Table(dict):
    """A read-only prediction table, with the scan state its leaves start in."""
    __slots__ = ("start",)


class _ScanState(dict):
    """A state of the leaves' DFA: the NFA stacks each class steps it to, the
    leaves it accepts, and, as a dict, the state a class steps it to, or None."""
    __slots__ = ("chart", "on", "accepts")

    def __missing__(self, terminal: int) -> "_ScanState | None":
        nxt = self[terminal] = self.chart.scan(self.on[terminal]) if terminal in self.on else None
        return nxt


class _Chart(dict):
    """What the chart reads of one reduced grammar: the chart grammar over
    its terminal classes, the class maps, the flat LR(0) items of the chart
    grammar with each head's own prediction entries, the leaves' DFA,
    position 0 and the empty position.

    As a dict, for each set of nonterminals that the kernel items of a chart
    position wait on, the items predicted there, as one read-only table
    ``{symbol: tuple of item ids}`` shared by every position with that set:
    the own entries of each nonterminal that predicting the set reaches,
    dots stepped over a nullable prefix and completed items left out, and
    the scan state of the leaves it reaches, each class that state takes a
    key.  A table is built on its first lookup, the empty set's with the chart."""

    __slots__ = ("grammar", "of", "members", "syms", "heads", "nullable", "own",
                 "initial", "empty", "leaves", "ends", "frames", "stacks", "states")

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
        self.grammar = chart = Grammar(g.nonterminals, g.alphabet, tuple(dict.fromkeys(
            Production(head, tuple(of.get(s, s) for s in body))
            for head, body in g.productions)), g.start)
        # rule r's item with its dot at d is id d + the items of the rules
        # before r, so id + 1 is the item with its dot stepped; per id, the
        # symbol after the dot (None once complete), the head, and whether that
        # symbol is nullable.  Classes leave nullability as it is: g's nullables are chart's
        nullables = g._nullable
        self.syms, self.heads = syms, heads = [], []
        self.own = own = {n: [] for n in chart.nonterminals}
        for head, body in chart.productions:
            for dot, sym in enumerate(body):
                own[head].append((sym, len(syms) + dot))
                if sym not in nullables:
                    break
            syms += body + (None,)
            heads += [head] * (len(body) + 1)
        self.nullable = [s in nullables for s in syms]
        self.ends = {heads[lr]: lr for lr, sym in enumerate(syms) if sym is None}
        # an NFA stack is an interned int: frames[stack] is (item, stack below)
        self.leaves, self.frames, self.stacks, self.states = _leaves(chart), {}, {}, {}
        self.initial = pos = _Position(0)
        pos.pred, pos.accepting = self[frozenset((g.start,))], g.start in nullables
        self.empty = _Position(0)  # no item and no Leo entry, as inside a word
        self.empty.pred = self[frozenset()]

    def __missing__(self, key: frozenset) -> dict:
        order = sorted(key)
        reached = set(order)
        table: dict[str | int, list[tuple]] = {}
        for n in order:  # grows while it is walked; a leaf is not entered
            for sym, item in () if n in self.leaves else self.own[n]:
                table.setdefault(sym, []).append(item)
                if sym.__class__ is str and sym not in reached:
                    reached.add(sym)
                    order.append(sym)
        frozen = _Table((sym, tuple(items)) for sym, items in table.items())
        stacks = [self.push(item, self.push(self.ends[n], None))  # over a frame accepting n
                  for n in order if n in self.leaves for _, item in self.own[n]]
        frozen.start = self.scan(stacks) if stacks else None
        if stacks:  # and each class the start takes is a key
            frozen.update((t, ()) for t in frozen.start.on if t not in frozen)
        return self.setdefault(key, frozen)  # published once built

    def push(self, item: int, below: int | None) -> int:
        """The stack of *item* on top of *below*: the id of its frame, which
        ``frames`` keeps alive, so two threads' first pushes agree."""
        frame = (item, below)
        stack = self.stacks.get(frame)
        if stack is None:
            self.frames[id(frame)] = frame
            stack = self.stacks.setdefault(frame, id(frame))
        return stack

    def scan(self, stacks: list[int]) -> _ScanState:
        """The scan state of the NFA *stacks* and their closure, built once."""
        key = frozenset(stacks)
        state = self.states.get(key)
        if state is None:
            syms, frames, push = self.syms, self.frames, self.push
            state, on, accepts = _ScanState(), {}, set()
            todo, seen = list(key), set(key)
            for stack in todo:  # grows while it is walked
                lr, below = frames[stack]
                sym = syms[lr]
                if sym is None:  # back to the stack below; the bottom accepts
                    if below is None:
                        accepts.add(self.heads[lr])
                        continue
                    more = [below]
                elif sym.__class__ is int:
                    on.setdefault(sym, []).append(push(lr + 1, below))
                    continue
                else:  # enter sym, over the item stepped past it unless that is done
                    under = below if syms[lr + 1] is None else push(lr + 1, below)
                    more = [push(item, under) for _, item in self.own[sym]]
                    if self.nullable[lr]:
                        more.append(push(lr + 1, below))
                more = set(more) - seen
                seen |= more
                todo += more
            state.chart, state.on, state.accepts = self, on, frozenset(accepts)
            state = self.states.setdefault(key, state)  # published once built
        return state

    def class_trie(self, words: Iterable[tuple[int, bytes]]) -> dict[int, list]:
        """(id, terminals) *words* of used terminals by their classes: class
        -> [the ids of the words that end there, children of this shape]."""
        of = self.of
        root: dict[int, list] = {}
        for wid, terms in words:
            node = root
            for t in terms[:-1]:
                node = node.setdefault(of[t], [[], {}])[1]
            node.setdefault(of[terms[-1]], [[], {}])[0].append(wid)
        return root


class _Position:
    """A chart position; its scans are the words under way there, each
    (scan state, base position, templates): a non-empty list, or ``()``."""
    __slots__ = ("index", "wait", "pred", "accepting", "leo", "scans")

    def __init__(self, index: int):
        self.index = index
        self.wait: dict[str | int, list[tuple]] = {}  # kernel items only
        self.pred: _Table  # shared, never mutated; set by the closure
        self.accepting = False
        # nonterminal -> topmost item of its reduction path from here
        self.leo: dict[str, tuple] = {}
        self.scans: list[tuple] | tuple = ()


def _close(chart: _Chart, pos: _Position, seeds: list[tuple]) -> int:
    """Fill *pos* with the closure of the kernel items *seeds*, a list it
    owns and grows uncopied, then with its Leo items, and return how many
    kernel items it processed.  The predicted items are those of the table
    for the nonterminals the kernel items wait on, nullables stepped over
    and completed ones left out: a completion that starts at *pos* adds
    nothing, so none here reads *pos*'s own table or Leo items."""
    syms, heads, nullable = chart.syms, chart.heads, chart.nullable
    start = chart.grammar.start

    items = seeds
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


def _advance(chart: _Chart, last: _Position, terminal: int) -> _Position | None:
    """The position after *last* on *terminal*, or None: the chart items,
    the words under way and those of the leaves *last* predicts step by
    *terminal*, the words only where some are under way or start.  Where
    words alone go on, it shares the ended word's template or the empty position."""
    scans, pred, done = last.scans, last.pred, 0  # done: how many words end here
    if scans or pred.start is not None:
        going = []  # the words that go on
        for state, base, templates in scans if pred.start is None else (
                *scans, (pred.start, last, None)):
            state = state[terminal]
            if state is not None:
                going.append((state, base, {} if templates is None else templates))
                if state.accepts:
                    done, ended = done + 1, going[-1]
        scans = going or ()
    kernel = last.wait.get(terminal, ())
    predicted = pred.get(terminal, ())
    pos = object.__new__(_Position)  # no __init__, and below no comprehension: each is a call
    pos.index, pos.scans = last.index + 1, scans
    if not (kernel or predicted or done > 1):  # words alone go on
        if not scans:
            return None
        closed = chart.empty  # and none ends: share the empty position
        if done:  # or one ends: share its template
            state, base, templates = ended
            closed = templates.get(state.accepts)
            if closed is None:
                closed = templates[state.accepts] = _Position(base.index)
                _close(chart, closed, [(chart.ends[leaf], base) for leaf in state.accepts])
        pos.wait, pos.pred, pos.leo, pos.accepting = (
            closed.wait, closed.pred, closed.leo, closed.accepting)
        return pos
    pos.wait, pos.leo, pos.accepting, seeds = {}, {}, False, []
    for lr, o in kernel:
        seeds.append((lr + 1, o))
    for lr in predicted:
        seeds.append((lr + 1, last))
    if done:  # and the words that end here
        for state, base, _ in scans:
            for leaf in state.accepts:
                seeds.append((chart.ends[leaf], base))
    _close(chart, pos, seeds)
    return pos


def recognize(g: Grammar, w) -> bool:
    """Decide w ∈ L(g) in one batch pass: a fresh session fed all of *w*."""
    return RecognitionSession(g)._feed_checked(as_terminals(g, w)).accepts()


class RecognitionSession:
    """Streaming recognizer state: feed terminals one at a time.

    ``live`` means the consumed sequence is a viable prefix of the
    language; dead sessions are absorbing, and ``died_at`` is the offset
    of the terminal no viable prefix continues with.  ``recognize`` and
    ``TokenSession.feed`` run its loop over whole sequences, and
    ``TokenSession.allowed_next_tokens`` its mask walk.  A session belongs
    to one logical caller.  It holds only its last chart position, which
    keeps alive just the positions its pending items refer to; ``clone``
    is O(1), since positions are immutable and shared.  ``grammar`` is the
    reduced grammar; the positions are those of its chart.
    """

    __slots__ = ("grammar", "consumed", "died_at", "_last")

    def __init__(self, grammar: Grammar):
        self.grammar = grammar._reduced
        self.consumed = 0
        self.died_at: int | None = 0 if self.grammar.is_empty_language else None
        self._last = self.grammar._chart.initial

    @property
    def live(self) -> bool:
        return self.died_at is None

    def accepts(self) -> bool:
        """True iff exactly the consumed sequence is in the language."""
        return self.live and self._last.accepting

    def expected(self) -> frozenset[int]:
        """The terminals ``feed`` would accept next; once dead, those it
        expected at ``died_at``: every member of each class the chart
        position expects, by ``_allowed``'s test of a class."""
        pos = self._last
        wait, pred, scans = pos.wait, pos.pred, pos.scans
        return frozenset(t for c, ts in self.grammar._chart.members.items()
                         if c in wait or c in pred or any(c in s[0].on for s in scans)
                         for t in ts)

    def feed(self, terminal: int) -> "RecognitionSession":
        return self._feed_checked(as_terminals(self.grammar, (terminal,)))

    def _feed_checked(self, terms) -> "RecognitionSession":
        """Feed *terms*, terminals already checked: the one loop that moves a
        chart over input.  A position's index is the terminals it consumed."""
        if self.died_at is None:
            chart = self.grammar._chart
            of, pos = chart.of.get, self._last
            for t in terms:
                nxt = _advance(chart, pos, of(t, t))
                if nxt is None:
                    self.died_at = pos.index
                    break
                pos = nxt
            self._last = pos
        self.consumed += len(terms)
        return self

    def clone(self) -> "RecognitionSession":
        s = object.__new__(RecognitionSession)
        s.grammar = self.grammar
        s.consumed = self.consumed
        s.died_at = self.died_at
        s._last = self._last
        return s

    def _allowed(self, trie: dict[int, list]) -> set[int]:
        """The ids of the words of *trie*, a ``_Chart.class_trie``, that keep
        this session live: a depth-first walk of the trie paired with chart
        positions, entering only the classes a position expects: a child
        class of a node is expected when it is a key of the position's
        ``wait`` or ``pred`` or of the ``on`` map of a word under way there,
        so no node builds a list of classes.  A word whose last
        class is expected is allowed without advancing (on a reduced grammar
        an expected class leaves the chart live); a class prefix is advanced
        once, for every word that shares it.  Positions are immutable, so
        the session is never touched.  A dead one allows nothing."""
        chart = self.grammar._chart
        allowed: set[int] = set()
        stack = [(self._last, trie)] if self.died_at is None else []
        while stack:
            pos, node = stack.pop()
            wait, pred, scans = pos.wait, pos.pred, pos.scans
            for c, (ids, children) in node.items():
                if c in wait or c in pred or scans and any(c in s[0].on for s in scans):
                    if ids:
                        allowed.update(ids)
                    if children:
                        stack.append((_advance(chart, pos, c), children))
        return allowed


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


def _leaves(g: Grammar) -> frozenset[str]:
    """The leaves of *g*.  An occurrence on a cycle lies inside a strongly
    connected component: Tarjan's, with an explicit stack, from a root that
    calls every nonterminal, each judged after the ones it calls."""
    calls: dict = {n: [] for n in g.nonterminals}
    for head, body in g.productions:
        calls[head] += [(s, k == len(body) - 1) for k, s in enumerate(body) if s.__class__ is str]
    calls[None] = [(n, True) for n in g.nonterminals]
    index, low, path, leaf = {None: 0}, {None: 0}, [None], {}  # leaf: judged -> is a leaf
    work = [(None, iter(calls[None]))]
    while work:
        n, callees = work[-1]
        for m, _ in callees:
            if m not in index:
                index[m] = low[m] = len(index)
                path.append(m)
                work.append((m, iter(calls[m])))
                break
            if m not in leaf:
                low[n] = min(low[n], index[m])
        else:
            work.pop()
            if work:
                low[work[-1][0]] = min(low[work[-1][0]], low[n])
            if low[n] == index[n]:
                comp = {path.pop()}
                while n not in comp:
                    comp.add(path.pop())
                ok = all(last if m in comp else leaf[m] for h in comp for m, last in calls[h])
                leaf.update(dict.fromkeys(comp, ok))
    return frozenset(n for n, ok in leaf.items() if ok and n is not None)


def reduce_grammar(g: Grammar) -> Grammar:
    """Strip non-generating and unreachable nonterminals.

    Returns an equivalent grammar, *g* itself when nothing is stripped.  A
    start symbol that generates nothing yields the canonical empty-language
    grammar (the start alone, no productions) — a legal value, not an error.
    """
    generating = _deriving(g.productions, terminals=True)
    kept = [all(not isinstance(s, str) or s in generating for s in p.body)
            for p in g.productions]
    reachable = {g.start}
    frontier = [g.start]
    while frontier:
        for i in g._rules_by_head[frontier.pop()]:
            if kept[i]:
                for s in g.productions[i].body:
                    if isinstance(s, str) and s not in reachable:
                        reachable.add(s)
                        frontier.append(s)

    productions = tuple(dict.fromkeys(
        p for p, k in zip(g.productions, kept) if k and p.head in reachable))
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


def _string_terminals(text: str, m: re.Match, alphabet: str) -> list[int]:
    """The terminals of the string literal *m*, or its first fault: \\xHH is
    U+00HH or byte HH, any other character its code point, or its UTF-8
    bytes in byte mode; *m* lacks a closing quote where the text does."""
    terms: list[int] = []
    for u in _UNIT.finditer(text, m.start("units"), m.end("units")):
        hexpair, escaped, plain = u.groups()
        if hexpair:
            terms.append(int(hexpair, 16))
            continue
        if plain is None:
            plain = _STRING_ESCAPES.get(escaped)
            if plain is None:
                raise _parse_error(text, u.start(), "\\x needs two hex digits" if escaped == "x"
                                   else f"unknown escape \\{escaped}")
        elif "\ud800" <= plain <= "\udfff":  # neither a character nor UTF-8
            raise _parse_error(text, u.start(), f"lone surrogate {plain!r} in string literal")
        if alphabet == "byte":
            terms += plain.encode("utf-8")
        else:
            terms.append(ord(plain))
    end = m.end()
    if end == m.end("units"):
        if text.startswith("\n", end):
            raise _parse_error(text, end, "newline inside string literal")
        if text.startswith("\\", end):
            raise _parse_error(text, end, "dangling escape")
        raise _parse_error(text, m.start(), "unterminated string literal")
    return terms


def _lex(text: str, alphabet: str) -> list[tuple[str, object, int]]:
    """Grammar source as (kind, value, start offset) tokens, ending in EOF; a
    string literal's value is its terminals in *alphabet*."""
    toks: list[tuple[str, object, int]] = []
    for m in _TOKEN.finditer(text):
        kind, value, at = m.lastgroup, m[0], m.start()
        if kind == "OTHER":
            if value != "\\":
                raise _parse_error(text, at, f"unexpected character {value!r}")
            raise _parse_error(text, at, "\\x needs two hex digits"
                               if text.startswith("x", at + 1) else "stray backslash")
        if kind == "STRING":
            value = _string_terminals(text, m, alphabet)
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
    toks = _lex(text, alphabet_mode)
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
                body += value
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
    """Render a grammar in the file format, start symbol's rules first.  The
    start, and a nonterminal used in a body, that has no rule is written
    ``N -> N ;``, which derives nothing, so the text reads back as a
    grammar with the same reduced form."""
    by_head = g._rules_by_head
    names = [g.start, *(head for head, _ in g.productions),
             *(s for _, body in g.productions for s in body if isinstance(s, str))]

    def render_alt(body: tuple[str | int, ...]) -> str:
        if not body:
            return '""'
        parts: list[str] = []
        for terminals, run in groupby(body, key=lambda sym: isinstance(sym, int)):
            parts.extend([_quote_terminals(run, g.alphabet)] if terminals else run)
        return " ".join(parts)

    lines = []
    for head in dict.fromkeys(names):
        alts = " | ".join(render_alt(g.productions[i].body) for i in by_head[head])
        lines.append(f"{head} -> {alts or head} ;")
    return "\n".join(lines) + "\n"
