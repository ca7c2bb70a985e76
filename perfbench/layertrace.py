"""Per-layer tracing from outside the program.

``Tracer.install`` replaces each layer function listed in ``LAYERS`` by
a wrapper that counts calls and measures self time (the call's duration
minus the time spent in wrapped calls it made). Functions are rebound
wherever they are looked up: on their class, in their defining module,
and in every other ``lisplab`` module that imported them by name, since
``trainer`` and ``assist`` call ``beam_search`` or ``apply_function``
through their own globals. Fine-grained calls are only aggregated; the
coarse ones in ``SPANS`` (phases, whole searches) and the benchmark's own
spans also keep start, end and parent, for the trace file.
"""

from __future__ import annotations

import importlib
import itertools
import json
import sys
from contextlib import contextmanager
from time import perf_counter

# (module, attribute path) of every wrapped layer function. The layer name
# drops the class, so DecodingState.feed reports as ``assist.feed``.
LAYERS = (
    ("taskgen", "gen_kb"),
    ("taskgen", "gen_dataset"),
    ("kb", "KnowledgeBase.forward"),
    ("kb", "KnowledgeBase.reachable_properties"),
    ("kb", "KnowledgeBase.comparable_properties"),
    ("kb", "KnowledgeBase.connecting_properties"),
    ("interpreter", "apply_function"),
    ("assist", "DecodingState.valid_tokens"),
    ("assist", "DecodingState.feed"),
    ("nnkernel", "backward"),
    ("nnkernel", "gru_step"),
    ("nnkernel", "attention"),
    ("nnkernel", "gru_step_np"),
    ("nnkernel", "attention_np"),
    ("programmer", "build_model"),
    ("programmer", "encode"),
    ("programmer", "beam_search"),
    ("programmer", "greedy_decode"),
    ("programmer", "sample_programs"),
    ("programmer", "program_logprob"),
    ("trainer", "train"),
    ("trainer", "iterative_ml"),
    ("trainer", "augmented_reinforce"),
    ("trainer", "evaluate"),
    ("trainer", "sgd_step"),
    ("trainer", "_reinforce_question"),
)

SPANS = frozenset({
    "taskgen.gen_kb", "taskgen.gen_dataset", "programmer.build_model",
    "programmer.beam_search", "programmer.greedy_decode", "programmer.sample_programs",
    "trainer.train", "trainer.iterative_ml", "trainer.augmented_reinforce",
    "trainer.evaluate", "trainer._reinforce_question",
})

MEMO_QUERIES = (
    "kb.reachable_properties", "kb.comparable_properties", "kb.connecting_properties",
)


PACKAGE = "lisplab"


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, self seconds, inclusive seconds]
        self.spans: list[tuple] = []  # (id, parent id, name, start, end)
        self.feeds = 0
        self.searches = {"programmer.beam_search": [0, 0], "programmer.greedy_decode": [0, 0]}
        self.replays = 0
        self.distinct_replays = 0
        self._child: list[float] = []
        self._span_stack: list[int] = []
        self._span_ids = itertools.count(1)
        self._update: set | None = None
        self._saved: list[tuple] = []
        self.origin = perf_counter()

    # -- installing --------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer function; undone by ``uninstall``."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for module_name, path in LAYERS:
            module = importlib.import_module(f"{PACKAGE}.{module_name}")
            owner, attr = module, path
            if "." in path:
                cls_name, attr = path.split(".")
                owner = getattr(module, cls_name)
            original = owner.__dict__[attr]
            wrapper = self._wrap(f"{module_name}.{attr}", original)
            targets = [owner] + [m for m in modules if m is not owner]
            for target in targets:
                if target.__dict__.get(attr) is original:
                    self._saved.append((target, attr, original))
                    setattr(target, attr, wrapper)

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._saved):
            setattr(target, attr, original)
        self._saved.clear()

    def reset(self) -> None:
        """Forget aggregated counts (spans are kept for the trace file)."""
        self.stats.clear()
        self.feeds = self.replays = self.distinct_replays = 0
        for pair in self.searches.values():
            pair[0] = pair[1] = 0

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, name: str, fn):
        stats = self.stats
        child = self._child
        keep_span = name in SPANS

        def timed(*args, **kwargs):
            child.append(0.0)
            if keep_span:
                span_id = self._open_span()
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                took = end - start
                own = took - child.pop()
                entry = stats.get(name)
                if entry is None:
                    entry = stats[name] = [0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += own
                entry[2] += took
                if child:
                    child[-1] += took
                if keep_span:
                    self._close_span(span_id, name, start, end)

        if name == "assist.feed":
            def counted(*args, **kwargs):
                self.feeds += 1
                return timed(*args, **kwargs)
            return counted
        if name in self.searches:
            pair = self.searches[name]

            def search(*args, **kwargs):
                before = self.feeds
                result = timed(*args, **kwargs)
                pair[0] += len(result) if isinstance(result, list) else 1
                pair[1] += self.feeds - before
                return result
            return search
        if name == "trainer._reinforce_question":
            def update(*args, **kwargs):
                self._update = set()
                try:
                    return timed(*args, **kwargs)
                finally:
                    self.distinct_replays += len(self._update)
                    self._update = None
            return update
        if name == "programmer.program_logprob":
            def replay(model, kb, item, tokens, *rest, **kwargs):
                if self._update is not None:
                    self.replays += 1
                    self._update.add((item.qid, tuple(tokens)))
                return timed(model, kb, item, tokens, *rest, **kwargs)
            return replay
        return timed

    def _open_span(self) -> int:
        span_id = next(self._span_ids)
        self._span_stack.append(span_id)
        return span_id

    def _close_span(self, span_id: int, name: str, start: float, end: float) -> None:
        self._span_stack.pop()
        parent = self._span_stack[-1] if self._span_stack else 0
        self.spans.append((span_id, parent, name, start - self.origin, end - self.origin))

    @contextmanager
    def span(self, name: str):
        """A span of the benchmark's own (a round, a question)."""
        child = self._child
        child.append(0.0)
        span_id = self._open_span()
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            child.pop()
            if child:
                child[-1] += end - start
            self._close_span(span_id, name, start, end)

    # -- reporting ---------------------------------------------------------

    def calls(self, name: str) -> int:
        return self.stats.get(name, [0])[0]

    def self_s(self, name: str) -> float:
        return self.stats.get(name, [0, 0.0])[1]

    def total_s(self, name: str) -> float:
        return self.stats.get(name, [0, 0.0, 0.0])[2]

    def write(self, path) -> None:
        data = {
            "layers": {name: {"calls": c, "self_s": s, "total_s": t}
                       for name, (c, s, t) in sorted(self.stats.items())},
            "spans": [{"id": i, "parent": p, "name": n, "start_s": a, "end_s": b}
                      for i, p, n, a, b in sorted(self.spans)],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
            fh.write("\n")
