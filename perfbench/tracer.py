"""Outside-in tracer for the traced benchmark run.

Nothing under ``src/`` knows about tracing. Instead, each public function of
interest is replaced, for the duration of one traced repetition, by a wrapper
installed at every name a caller looks it up by: ``pipeline`` and ``prompts``
import ``serialize_answer`` by name, so both ``iealign.pipeline.serialize_answer``
and ``iealign.prompts.serialize_answer`` are patched, next to
``iealign.answers.serialize_answer`` itself. Methods are patched on their class.

Spans are kept in memory as ``(id, parent_id, name, start, duration)`` tuples
and written out once, when the benchmark ends. A span's self time is its
duration minus the durations of its direct children; the run is
single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import inspect
import os
import statistics
import sys
import time
from collections import Counter, defaultdict
from typing import Callable

# (defining module, function) pairs wrapped wherever iealign code names them.
FUNCTIONS = (
    ("seeds", "derive_seed"),
    ("prompts", "augment_schema"),
    ("prompts", "attach_demonstrations"),
    ("prompts", "assemble_input"),
    ("prompts", "load_description_pool"),
    ("answers", "serialize_answer"),
    ("answers", "parse_answer"),
    ("answers", "parse_answer_lenient"),
    ("formats", "load_format_library"),
    ("ingest", "whitespace_token_count"),
    ("augment", "generate_cot"),
    ("metrics", "sentence_bleu_m3"),
    ("metrics", "exact_match_f1"),
    ("prefpairs", "score_samples"),
    ("prefpairs", "assemble_dpo_corpus"),
    ("model", "read_instances"),
    ("model", "load_jsonl"),
    ("pipeline", "build_sft"),
    ("pipeline", "build_dpo"),
    ("pipeline", "evaluate"),
    ("pipeline", "stats"),
    ("pipeline", "write_jsonl_atomic"),
    ("pipeline", "write_manifest"),
    ("pipeline", "eval_format_for"),
)

COMPLETE_SPAN = "client.complete"
THROTTLE_SPAN = "client.throttle"
TRANSPORT_SPAN = "client.transport.post"
ROOT_SPAN = "bench.rep"

# (defining module, class, method, span name) patched on the class.
METHODS = (
    ("client", "BaseClient", "complete", COMPLETE_SPAN),
    ("client", "LiveClient", "_throttle", THROTTLE_SPAN),
)


def _count_demos(args, kwargs, result) -> dict:
    return {"prompts.demos_attached": 1 if result.demonstrations else 0}


def _count_bytes_read(args, kwargs, result) -> dict:
    return {"model.bytes_read": os.path.getsize(args[0] if args else kwargs["path"])}


def _count_bytes_written(args, kwargs, result) -> dict:
    return {"pipeline.bytes_written": os.path.getsize(args[1] if len(args) > 1 else kwargs["path"])}


# Counters recorded at the same boundary as the span, from the call's result.
COUNTERS: dict[str, Callable[..., dict]] = {
    "prompts.attach_demonstrations": _count_demos,
    "model.load_jsonl": _count_bytes_read,
    "pipeline.write_jsonl_atomic": _count_bytes_written,
}


class Tracer:
    """Records nested spans and counters while installed."""

    def __init__(self):
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.counts: Counter = Counter()
        self._stack = [0]
        self._next_id = 1
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self) -> tuple[int, int]:
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1]
        self._stack.append(sid)
        return sid, parent

    def _close(self, sid: int, parent: int, name: str, start: float, duration: float) -> None:
        self._stack.pop()
        self.spans.append((sid, parent, name, start, duration))

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` recording a span named ``name`` per call, plus its counters."""
        counter = COUNTERS.get(name)
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, fn, counter)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, parent = self._open()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.counts[name + ".errors"] += 1
                raise
            finally:
                self._close(sid, parent, name, start, time.perf_counter() - start)
            if counter is not None:
                self.counts.update(counter(args, kwargs, result))
            return result

        return traced

    def _wrap_generator(self, name: str, fn: Callable, counter) -> Callable:
        """A generator's span is the time spent inside it across all of its
        steps, attributed to the span that was open when it was created."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = self._stack[-1]
            if counter is not None:
                self.counts.update(counter(args, kwargs, None))
            inner = fn(*args, **kwargs)
            first = time.perf_counter()
            busy = 0.0
            try:
                while True:
                    self._stack.append(sid)
                    start = time.perf_counter()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        busy += time.perf_counter() - start
                        self._stack.pop()
                    yield item
            finally:
                self.spans.append((sid, parent, name, first, busy))

        return traced

    # -- installation --------------------------------------------------------

    def install(self, extra_methods: tuple[tuple[type, str, str], ...] = ()) -> None:
        """Patch every traced function at each iealign name bound to it, and
        each traced method on its class. ``extra_methods`` adds
        ``(class, method, span name)`` triples owned by the benchmark."""
        modules = [m for n, m in list(sys.modules.items()) if n == "iealign" or n.startswith("iealign.")]
        for mod_name, fn_name in FUNCTIONS:
            original = getattr(sys.modules[f"iealign.{mod_name}"], fn_name)
            wrapper = self.wrap(f"{mod_name}.{fn_name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, attr, wrapper)
        for mod_name, cls_name, method, name in METHODS:
            cls = getattr(sys.modules[f"iealign.{mod_name}"], cls_name)
            self._patch(cls, method, self.wrap(name, vars(cls)[method]))
        for cls, method, name in extra_methods:
            self._patch(cls, method, self.wrap(name, vars(cls)[method]))

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- output ----------------------------------------------------------------

    def summary(self) -> dict[str, float]:
        """Per-name call counts and self times, plus the recorded counters and
        the client waiting figures."""
        child_time: dict[int, float] = defaultdict(float)
        for sid, parent, name, start, duration in self.spans:
            child_time[parent] += duration
        calls: Counter = Counter()
        self_s: dict[str, float] = defaultdict(float)
        total_s: dict[str, float] = defaultdict(float)
        complete_ms: list[float] = []
        for sid, parent, name, start, duration in self.spans:
            calls[name] += 1
            total_s[name] += duration
            self_s[name] += duration - child_time.get(sid, 0.0)
            if name == COMPLETE_SPAN:
                complete_ms.append(duration * 1000.0)
        names = [f"{m}.{f}" for m, f in FUNCTIONS] + [m[3] for m in METHODS] + [TRANSPORT_SPAN, ROOT_SPAN]
        out: dict[str, float] = {}
        for name in names + sorted(set(calls) - set(names)):
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
        out["client.throttle_wait_s"] = total_s[THROTTLE_SPAN]
        out["client.transport_busy_s"] = total_s[TRANSPORT_SPAN]
        out["client.complete.p50_ms"] = statistics.median(complete_ms) if complete_ms else 0.0
        out["client.complete.p99_ms"] = _percentile(complete_ms, 0.99) if complete_ms else 0.0
        cot_errors = self.counts["augment.generate_cot.errors"]
        out["augment.cot_skipped"] = cot_errors
        out["augment.cot_attached"] = calls["augment.generate_cot"] - cot_errors
        for counter in ("prompts.demos_attached", "model.bytes_read", "pipeline.bytes_written"):
            out[counter] = 0
        out.update(self.counts)
        out["trace.spans"] = len(self.spans)
        return out

    def write(self, path) -> None:
        """Write the spans as tab-separated ``id parent name start duration``."""
        with open(path, "w", encoding="utf-8") as f:
            f.write("id\tparent\tname\tstart_s\tduration_s\n")
            for sid, parent, name, start, duration in self.spans:
                f.write(f"{sid}\t{parent}\t{name}\t{start:.9f}\t{duration:.9f}\n")


def _percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    index = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[index]
