"""Brute-force reference implementations, deliberately independent of the
package's chart recognizer and DP routines, except the loops that faster
code replaced: ``allowed_by_trial`` (the per-token trial mask that the trie
walk replaced), ``tokenize_by_rescan`` and ``train_by_recount`` (the BPE
loops that the pair-test search and the incremental counts replaced),
``parse_grammar_by_scan`` (the character-by-character grammar reader that
the regex lexer replaced), ``unescape_bytes_by_loop`` (the per-character
token-string reader that one regex match and one substitution replaced), the reference chart ``initial_position`` /
``advance`` (the Earley closure that predicts item by item and walks every
completion's waiters, which the shared prediction tables and Leo
items replaced), and ``classify_by_retokenize`` /
``accepts_proper_by_retokenize`` (the whole-string retokenize that the
pair-by-pair properness check replaced), ``deriving_by_fixpoint`` (the
rescan of every production that the reduction's heap of least expansion
counts replaced), ``sample_by_uniform_choice`` (the sampler that drew
uniformly whatever the budget left),
``terminal_classes_by_slices`` (the terminal contexts as body slices, which
interned ids replaced) and ``count_by_suffix_dp`` (the count of
segmentations from every offset's matches, which the forward pass of the
vocabulary automaton replaced).  Only usable at toy scale."""

from __future__ import annotations

import itertools
import re
from bisect import bisect_right
from collections import Counter

from toklang import (
    Classification,
    Grammar,
    GrammarError,
    GrammarParseError,
    Kind,
    Production,
    Tokenizer,
    TokenizerError,
    recognize,
)
from toklang._value import DataError
from toklang.grammar import AlphabetMode


def strings_up_to(g, max_len: int) -> set[tuple[int, ...]]:
    """All members of L(g) with at most *max_len* terminals, by a set
    fixed-point over the productions (no charts involved)."""
    return _fixed_point(g, lambda s: s if len(s) <= max_len else None)


def members_cut_at(g, max_len: int) -> set[tuple[int, ...]]:
    """{w[:max_len] : w in L(g)}, by the same fixed point, cutting instead of
    dropping (cutting commutes with concatenation).  Its ``prefixes_of`` are
    exactly the viable prefixes of at most *max_len* terminals."""
    return _fixed_point(g, lambda s: s[:max_len])


def _fixed_point(g, fit) -> set[tuple[int, ...]]:
    """Least sets of fitted yields per nonterminal; *fit* maps a string to
    the string kept in its place, or to None to drop it."""
    derivable: dict[str, set[tuple[int, ...]]] = {n: set() for n in g.nonterminals}
    changed = True
    while changed:
        changed = False
        for head, body in g.productions:
            partials: set[tuple[int, ...]] = {()}
            for sym in body:
                choices = ((sym,),) if isinstance(sym, int) else derivable[sym]
                partials = {fit(p + c) for p in partials for c in choices} - {None}
                if not partials:
                    break
            for s in partials:
                if s not in derivable[head]:
                    derivable[head].add(s)
                    changed = True
    return derivable[g.start]


def prefixes_of(strings) -> set[tuple[int, ...]]:
    return {s[:i] for s in strings for i in range(len(s) + 1)}


def balanced_brackets(s: str) -> bool:
    """Membership in the square-bracket balanced-string language."""
    depth = 0
    for c in s:
        if c == "[":
            depth += 1
        elif c == "]":
            depth -= 1
            if depth < 0:
                return False
        else:
            return False
    return depth == 0


def bracket_prefix_viable(s: str) -> bool:
    """True iff *s* extends to some balanced-bracket string."""
    depth = 0
    for c in s:
        if c == "[":
            depth += 1
        elif c == "]":
            depth -= 1
            if depth < 0:
                return False
        else:
            return False
    return True


def brackets_with_letters(data: bytes) -> bool:
    """Membership for the Dyck-with-letters toy: any string over a, b, [, ]
    whose bracket projection is balanced."""
    depth = 0
    for b in data:
        if b == 0x5B:
            depth += 1
        elif b == 0x5D:
            depth -= 1
            if depth < 0:
                return False
        elif b not in (0x61, 0x62):
            return False
    return depth == 0


def segmentations(vocab: set[bytes], data: bytes) -> list[tuple[bytes, ...]]:
    """All ways to cut *data* into pieces drawn from *vocab*."""
    if not data:
        return [()]
    out = []
    for ln in range(1, len(data) + 1):
        head = data[:ln]
        if head in vocab:
            out.extend((head,) + rest for rest in segmentations(vocab, data[ln:]))
    return out


def all_strings(alphabet, max_len: int):
    """Every tuple over *alphabet* of length 0..max_len."""
    for length in range(max_len + 1):
        yield from itertools.product(alphabet, repeat=length)


def allowed_by_trial(session) -> set[int]:
    """Next-token mask of a TokenSession by trial: advance a clone of its byte
    session through each token's bytes, aborting at the first dead byte."""
    if not session.live:
        return set()
    allowed: set[int] = set()
    for tid, bs in enumerate(session.recognizer.tokenizer.vocab):
        trial = session.inner.clone()
        for b in bs:
            if not trial.feed(b).live:
                break
        else:
            allowed.add(tid)
    return allowed


def outcome(check, *args):
    """The value of *check*, or the DataError raised as (type, message,
    line, column), the last two None where the error has none: a reference
    and the package must agree on errors as well as values."""
    try:
        return check(*args)
    except DataError as e:
        return type(e), str(e), getattr(e, "line", None), getattr(e, "column", None)


def tokenize_by_rescan(t, data: bytes) -> list[int]:
    """``Tokenizer.tokenize`` by rescanning every pair before each merge:
    merge the leftmost occurrence of the lowest-ranked pair until none
    applies.  Quadratic in the input length."""
    sb = t.single_byte_ids
    ids = []
    for b in data:
        tid = sb.get(b)
        if tid is None:
            raise TokenizerError(f"no single-byte token for byte 0x{b:02x}")
        ids.append(tid)
    ranks = t.merge_ranks
    while len(ids) > 1:
        best = None
        best_i = best_m = -1
        prev = ids[0]
        for i in range(len(ids) - 1):
            cur = ids[i + 1]
            hit = ranks.get((prev, cur))
            if hit is not None and (best is None or hit[0] < best):
                best, best_i, best_m = hit[0], i, hit[1]
            prev = cur
        if best is None:
            break
        ids[best_i:best_i + 2] = [best_m]
    return ids


_HEX_ESCAPE = re.compile(r"\\x([0-9a-fA-F]{2})")


def count_by_suffix_dp(t, data: bytes) -> int:
    """``count_tokenizations`` by a suffix DP: the count from each offset,
    last offset first, is the sum of the counts after each token that
    matches there, found by looking up the bytes from that offset in the
    vocabulary at each length up to the longest token's.  Keeps all n + 1
    counts, and reads no prefix tree."""
    vocab = set(t.vocab)
    longest = max(map(len, t.vocab))
    n = len(data)
    counts = [0] * (n + 1)
    counts[n] = 1
    for pos in range(n - 1, -1, -1):
        counts[pos] = sum(counts[pos + k] for k in range(1, min(longest, n - pos) + 1)
                          if data[pos:pos + k] in vocab)
    return counts[0]


def unescape_bytes_by_loop(text: str) -> bytes:
    """``unescape_bytes`` character by character: a backslash must start a
    \\xHH escape, and any other character must be printable ASCII."""
    out = bytearray()
    i = 0
    while i < len(text):
        c = text[i]
        if c == "\\":
            m = _HEX_ESCAPE.match(text, i)
            if m is None:
                raise TokenizerError(f"bad escape in token string {text!r}")
            out.append(int(m[1], 16))
            i += 4
        else:
            o = ord(c)
            if not 0x20 <= o <= 0x7E:
                raise TokenizerError(f"unescaped non-ASCII character in {text!r}")
            out.append(o)
            i += 1
    return bytes(out)


def classify_by_retokenize(t, ids) -> Classification:
    """``classify`` by retokenizing the whole detokenization first, then
    scanning for the first pair a merge rule joins."""
    seq = list(ids)
    proper = t.tokenize(t.detokenize(seq))
    if seq == proper:
        return Classification(Kind.PROPER)
    for i in range(len(seq) - 1):
        if (seq[i], seq[i + 1]) in t.merge_ranks:
            return Classification(Kind.MERGEABLE, mergeable_at=i)
    return Classification(Kind.WRONG_MERGE_ORDER, proper_form=tuple(proper))


def accepts_proper_by_retokenize(rec, ids) -> bool:
    """``TokenRecognizer.accepts_proper`` as tokenize(detokenize(ids)) == ids
    and membership of the detokenization, by the package's own chart: only
    the properness check is the oracle here."""
    seq = list(ids)
    data = rec.tokenizer.detokenize(seq)
    return rec.tokenizer.tokenize(data) == seq and recognize(rec.grammar, data)


def train_by_recount(corpus, num_merges: int) -> Tokenizer:
    """``train`` by recounting every pair of the corpus before each merge
    and rewriting every sample after it.  Ties break on the highest count,
    then the earliest first occurrence (sample index, then offset), then
    left ID, then right ID."""
    vocab: list[bytes] = [bytes([i]) for i in range(256)]
    index: dict[bytes, int] = {bs: i for i, bs in enumerate(vocab)}
    seqs = [list(sample) for sample in corpus]
    merges: list[tuple[int, int, int]] = []
    ruled: set[tuple[int, int]] = set()

    for _ in range(num_merges):
        counts: Counter[tuple[int, int]] = Counter()
        first: dict[tuple[int, int], tuple[int, int]] = {}
        for si, seq in enumerate(seqs):
            for i in range(len(seq) - 1):
                pair = (seq[i], seq[i + 1])
                if pair in ruled:
                    continue
                counts[pair] += 1
                if pair not in first:
                    first[pair] = (si, i)
        if not counts:
            break
        left, right = min(
            counts, key=lambda p: (-counts[p], first[p], p[0], p[1]))
        if counts[(left, right)] < 2:
            break
        new_bytes = vocab[left] + vocab[right]
        merged = index.get(new_bytes)
        if merged is None:
            merged = len(vocab)
            vocab.append(new_bytes)
            index[new_bytes] = merged
        merges.append((left, right, merged))
        ruled.add((left, right))
        for seq in seqs:
            out = []
            i = 0
            while i < len(seq):
                if i + 1 < len(seq) and seq[i] == left and seq[i + 1] == right:
                    out.append(merged)
                    i += 2
                else:
                    out.append(seq[i])
                    i += 1
            seq[:] = out

    return Tokenizer(tuple(vocab), tuple(merges))


# --- reduction and terminal classes as they were first written ---


def deriving_by_fixpoint(productions, terminals: bool) -> dict[str, int]:
    """Nonterminals that derive a terminal string, or only ε when not
    *terminals*, each with the least number of expansions such a derivation
    takes: every production rescanned until nothing changes."""
    found: dict[str, int] = {}
    changed = True
    while changed:
        changed = False
        for head, body in productions:
            if all(s in found if isinstance(s, str) else terminals for s in body):
                least = 1 + sum(found[s] for s in body if isinstance(s, str))
                if least < found.get(head, least + 1):
                    found[head], changed = least, True
    return found


def sample_by_uniform_choice(g: Grammar, max_expansions: int, rng):
    """``sample`` as a uniform choice at every expansion alone, None once
    the budget runs out: most draws fail on a grammar whose productions
    mostly open two nonterminals."""
    g = g._reduced
    out, stack, expansions = [], [g.start], 0
    while stack:
        sym = stack.pop()
        if isinstance(sym, int):
            out.append(sym)
            continue
        rules = g._rules_by_head[sym]
        expansions += 1
        if not rules or expansions > max_expansions:
            return None
        stack.extend(reversed(g.productions[rng.choice(rules)].body))
    return bytes(out) if g.alphabet == "byte" else "".join(map(chr, out))


def terminal_classes_by_slices(g: Grammar) -> dict[int, int]:
    """Each terminal of *g* to the least terminal that occurs in exactly the
    same contexts ``(head, body[:k], body[k+1:])`` of its productions."""
    contexts: dict[int, set[tuple]] = {}
    for head, body in g.productions:
        for k, sym in enumerate(body):
            if isinstance(sym, int):
                contexts.setdefault(sym, set()).add((head, body[:k], body[k + 1:]))
    return {t: min(u for u in contexts if contexts[u] == contexts[t]) for t in contexts}


def leaves_by_reach(g: Grammar) -> set[str]:
    """The nonterminals of *g* none of whose reach has an occurrence, other
    than the last of its body, of a nonterminal that reaches back to the
    occurrence's head: every reach found by a walk of its own."""
    def reach(n: str) -> set[str]:
        found, todo = {n}, [n]
        while todo:
            head = todo.pop()
            for h, body in g.productions:
                for s in body:
                    if h == head and isinstance(s, str) and s not in found:
                        found.add(s)
                        todo.append(s)
        return found

    reaches = {n: reach(n) for n in g.nonterminals}
    return {n for n in g.nonterminals if not any(
        isinstance(s, str) and h in reaches[s]
        for h, body in g.productions if h in reaches[n] for s in body[:-1])}


# --- the chart that predicted item by item and walked every completion ---
#
# Positions as in toklang.grammar, but every item is stored, as (rule index,
# dot, origin), origin None while the item sits at the position that
# predicted it.


class _Position:
    __slots__ = ("index", "wait", "accepting")

    def __init__(self, index: int):
        self.index = index
        self.wait: dict[str | int, list[tuple]] = {}
        self.accepting = False


def _close(g: Grammar, pos: _Position, seeds) -> None:
    """Fill *pos* with the predictor/completer closure of *seeds*; a nullable
    is stepped over as it is predicted (Aycock–Horspool), so a completion
    that starts at *pos* adds nothing."""
    rules = g.productions
    by_head = g._rules_by_head
    nullable = g._nullable
    start = g.start

    items: list[tuple] = []
    seen: set[tuple] = set()
    wait = pos.wait

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
                    add((r2, 0, None))
                if sym in nullable:
                    add((rule, dot + 1, origin))
        elif origin is not None:
            head = rules[rule].head
            # a waiter with origin None was predicted at *origin*
            for r2, d2, o2 in origin.wait.get(head, ()):
                add((r2, d2 + 1, origin if o2 is None else o2))
            if head == start and origin.index == 0:
                pos.accepting = True


def initial_position(g: Grammar) -> _Position:
    pos = _Position(0)
    _close(g, pos, [(r, 0, None) for r in g._rules_by_head[g.start]])
    pos.accepting = g.start in g._nullable
    return pos


def advance(g: Grammar, last: _Position, terminal: int) -> _Position | None:
    waiters = last.wait.get(terminal)
    if not waiters:
        return None
    pos = _Position(last.index + 1)
    _close(g, pos, [(r, d + 1, last if o is None else o) for r, d, o in waiters])
    return pos


def rule_dot_items(chart, pos) -> dict[str | int, list[tuple]]:
    """A position of toklang.grammar's chart, given its ``_Chart``, in this
    chart's item layout: its kernel items (flat LR(0) id, origin) and the
    bare ids of its shared prediction table, each id mapped back to (rule,
    dot) of the chart grammar, the predicted ones with origin None."""
    base = [0, *itertools.accumulate(len(body) + 1 for _, body in chart.grammar.productions)]

    def rule_dot(lr: int) -> tuple[int, int]:
        rule = bisect_right(base, lr) - 1
        return rule, lr - base[rule]

    out: dict[str | int, list[tuple]] = {}
    for sym, items in pos.wait.items():
        out.setdefault(sym, []).extend((*rule_dot(lr), o) for lr, o in items)
    for sym, ids in pos.pred.items():
        out.setdefault(sym, []).extend((*rule_dot(lr), None) for lr in ids)
    return out


def wait_sets(pos, chart=None) -> dict[str | int, set[tuple]]:
    """A position's items by the symbol after their dot, with each item's
    origin read as its index (the position itself for None), so the
    positions of two charts compare: this chart's position from its wait
    map, and toklang.grammar's, given its *chart*, through
    ``rule_dot_items``."""
    table = pos.wait if chart is None else rule_dot_items(chart, pos)
    return {sym: {(r, d, pos.index if o is None else o.index) for r, d, o in items}
            for sym, items in table.items()}


# --- the grammar-file reader that tracked a line and column per character ---


_NAME_FIRST = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_NAME_REST = _NAME_FIRST | set("0123456789'")
_STRING_ESCAPES = {"\\": "\\", '"': '"', "n": "\n", "t": "\t", "r": "\r"}


def _scan(text: str):
    """Lex grammar source into (kind, value, line, col, source text) tuples."""
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
            toks.append((c, c, line, col, c))
            bump()
            continue
        if text.startswith("->", i):
            toks.append(("ARROW", "->", line, col, "->"))
            bump(2)
            continue
        if c == '"':
            si, sl, sc = i, line, col
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
                elif "\ud800" <= c <= "\udfff":
                    raise GrammarParseError(f"lone surrogate {c!r} in string literal", line, col)
                else:
                    units.append(("ch", c))
                    bump()
            toks.append(("STRING", units, sl, sc, text[si:i]))
            continue
        if c == "\\":
            si, sl, sc = i, line, col
            bump()
            if i < n and text[i] == "x":
                toks.append(("BYTE", hex_escape(sl, sc), sl, sc, text[si:i]))
                continue
            raise GrammarParseError("stray backslash", sl, sc)
        if c in _NAME_FIRST:
            sl, sc = line, col
            j = i
            while j < n and text[j] in _NAME_REST:
                j += 1
            toks.append(("NAME", text[i:j], sl, sc, text[i:j]))
            bump(j - i)
            continue
        raise GrammarParseError(f"unexpected character {c!r}", line, col)
    toks.append(("EOF", "", line, col, ""))
    return toks


def parse_grammar_by_scan(text: str, alphabet_mode: AlphabetMode = "unicode") -> Grammar:
    """Parse grammar source text.  The result keeps every rule as written."""
    if alphabet_mode not in ("unicode", "byte"):
        raise GrammarError(f"unknown alphabet mode {alphabet_mode!r}")
    toks = _scan(text)
    pos = 0

    def peek():
        return toks[pos]

    def unexpected(tok, wanted: str) -> GrammarParseError:
        k, _, ln, cl, source = tok
        found = "end of input" if k == "EOF" else repr(source)
        return GrammarParseError(f"unexpected {found}{wanted}", ln, cl)

    def take(kind):
        nonlocal pos
        k, v, ln, cl, _ = toks[pos]
        if k != kind:
            raise unexpected(toks[pos], f", expected {kind}")
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
        _, _, ln, cl, _ = peek()
        raise GrammarParseError("expected at least one rule", ln, cl)
    while peek()[0] != "EOF":
        head, _, _ = take("NAME")
        if head not in heads:
            heads.append(head)
        take("ARROW")
        body: list[str | int] = []
        saw_symbol = False
        while True:
            k, v, ln, cl, _ = peek()
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
                raise unexpected(peek(), " in rule body")

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
