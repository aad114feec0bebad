"""Spans around toklang's public functions and methods.

``Tracer.install`` replaces each traced function or method with a wrapper
that records a span: name, start, end, parent span and the id of the
benchmark op that was running.  A module-level function is also replaced
under every other name a toklang module imported it as, so calls between
modules are seen too.  Spans stay in flat arrays in memory; ``write``
saves them when the run ends.  Nothing inside ``src/`` changes: the
wrappers are installed from here and removed by ``uninstall``.
"""

from __future__ import annotations

import gzip
import sys
from array import array
from time import perf_counter

from toklang import bpe, encoding, grammar, recognizer, segmentation


def _vocab_bytes(rec, ids) -> int:
    vocab = rec.tokenizer.vocab
    return sum(len(vocab[t]) for t in ids)


# (owner, attribute, span name, size of the input, items in the result).
# Sizes are input bytes where the layer has them; for the mask it is the
# number of ids tried, and its items are the ids allowed.
TARGETS = [
    (grammar, "recognize", "grammar.recognize", lambda g, w: len(w), None),
    (grammar.RecognitionSession, "feed", "grammar.feed", None, None),
    (grammar.RecognitionSession, "clone", "grammar.clone", None, None),
    (encoding, "encode_grammar", "encoding.encode_grammar", None, None),
    (bpe, "train", "bpe.train",
     lambda corpus, num_merges: sum(map(len, corpus)) if isinstance(corpus, list) else 0,
     lambda t: len(t.merges)),
    (bpe.Tokenizer, "tokenize", "bpe.tokenize", lambda t, data: len(data), None),
    (bpe.Tokenizer, "detokenize", "bpe.detokenize", None, None),
    (bpe.Tokenizer, "check_ids", "bpe.check_ids", None, None),
    (segmentation, "classify", "segmentation.classify", None, None),
    (segmentation, "find_mergeable_pair", "segmentation.find_mergeable_pair", None, None),
    (segmentation, "count_tokenizations", "segmentation.count_tokenizations",
     lambda t, data: len(data), None),
    (segmentation, "enumerate_tokenizations", "segmentation.enumerate_tokenizations",
     lambda t, data, limit=None: len(data), None),
    (recognizer.TokenRecognizer, "accepts_tokens", "recognizer.accepts_tokens",
     _vocab_bytes, None),
    (recognizer.TokenRecognizer, "accepts_proper", "recognizer.accepts_proper",
     _vocab_bytes, None),
    (recognizer.TokenSession, "feed", "recognizer.feed", None, None),
    (recognizer.TokenSession, "allowed_next_tokens", "recognizer.allowed_next_tokens",
     lambda s: len(s.recognizer.tokenizer.vocab), len),
]

# Functions that return a lazy iterator: the span covers its consumption.
ITERATORS = {"segmentation.enumerate_tokenizations"}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.size = array("q")
        self.items = array("q")
        self.failed = array("b")
        self.child = array("d")  # time covered by each span's children
        self.op_id = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # --- spans ---------------------------------------------------------------

    def open_span(self, name: str, size: int) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        stack = self._stack
        self.name.append(nid)
        self.parent.append(stack[-1] if stack else -1)
        self.op.append(self.op_id)
        self.size.append(size)
        self.items.append(0)
        self.failed.append(0)
        self.child.append(0.0)
        self.end.append(0.0)
        stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close_span(self, idx: int) -> None:
        t = perf_counter()
        self.end[idx] = t
        self._stack.pop()
        p = self.parent[idx]
        if p >= 0:
            self.child[p] += t - self.start[idx]

    # --- wrappers ------------------------------------------------------------

    def _wrap(self, fn, name, sizer, counter):
        tracer = self

        def traced(*args, **kwargs):
            size = sizer(*args, **kwargs) if sizer else 0
            idx = tracer.open_span(name, size)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.failed[idx] = 1
                raise
            finally:
                tracer.close_span(idx)
            if counter:
                tracer.items[idx] = counter(result)
            return result

        def traced_iter(*args, **kwargs):
            size = sizer(*args, **kwargs) if sizer else 0
            inner = fn(*args, **kwargs)

            def consume():
                idx = tracer.open_span(name, size)
                try:
                    for item in inner:
                        tracer.items[idx] += 1
                        yield item
                except BaseException:
                    tracer.failed[idx] = 1
                    raise
                finally:
                    tracer.close_span(idx)

            return consume()

        return traced_iter if name in ITERATORS else traced

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "toklang" or key.startswith("toklang."))]
        for owner, attr, name, sizer, counter in TARGETS:
            orig = owner.__dict__[attr]
            wrapped = self._wrap(orig, name, sizer, counter)
            self._undo.append((owner, attr, orig))
            setattr(owner, attr, wrapped)
            if isinstance(owner, type):
                continue  # every caller reaches a method through its class
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig and m is not owner:
                        self._undo.append((m, key, orig))
                        setattr(m, key, wrapped)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    # --- results -------------------------------------------------------------

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, self and total seconds, size, items,
        failures, and the durations of the calls."""
        out: dict[str, dict] = {}
        names = self.names
        for i in range(len(self.start)):
            name = names[self.name[i]]
            s = out.get(name)
            if s is None:
                s = out[name] = {"calls": 0, "self_s": 0.0, "total_s": 0.0, "size": 0,
                                 "items": 0, "failed": 0, "durations": [],
                                 "by_parent": {}}
            dur = self.end[i] - self.start[i]
            s["calls"] += 1
            s["self_s"] += dur - self.child[i]
            s["total_s"] += dur
            s["size"] += self.size[i]
            s["items"] += self.items[i]
            s["failed"] += self.failed[i]
            s["durations"].append(dur)
            p = self.parent[i]
            pname = names[self.name[p]] if p >= 0 else ""
            s["by_parent"][pname] = s["by_parent"].get(pname, 0.0) + dur
        return out

    def write(self, path) -> None:
        """All spans as tab-separated text: id, name, start, end, parent, op."""
        names = self.names
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id\tname\tstart\tend\tparent\top\n")
            for i in range(len(self.start)):
                fh.write(f"{i}\t{names[self.name[i]]}\t{self.start[i]:.9f}\t"
                         f"{self.end[i]:.9f}\t{self.parent[i]}\t{self.op[i]}\n")
